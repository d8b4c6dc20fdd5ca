//! Single-precision (f32) accumulation variants of the reduction ops.
//!
//! PyTorch's default dtype is `float32`, so the variability magnitudes
//! in the paper's Table 5 and Figs 4–5 sit at the fp32 rounding scale
//! (eps ≈ 1.2e-7). The main kernels in this crate accumulate in f64,
//! where the identical commit-order phenomenon appears at the f64 scale
//! (eps ≈ 2.2e-16). These fp32 variants reproduce the paper's absolute
//! magnitudes: same contribution lists, same device commit order, but
//! every addition rounded to f32.

use fpna_core::error::FpnaError;
use fpna_core::Result;

use crate::context::GpuContext;
use crate::ops::index::check_index;
use crate::ops::scatter::check_no_deterministic;

/// fp32 `index_add` on 1-D buffers: `out[index[k]] += src[k]`, with
/// f32 accumulation in the order of [`GpuContext::commit_schedule`]:
/// the device's commit order (ND) or ascending `k` (deterministic).
pub fn index_add_f32(
    ctx: &GpuContext,
    dst: &[f32],
    index: &[u32],
    src: &[f32],
) -> Result<Vec<f32>> {
    if index.len() != src.len() {
        return Err(FpnaError::shape(format!(
            "index_add_f32: {} indices vs {} sources",
            index.len(),
            src.len()
        )));
    }
    check_index(index, dst.len(), "index_add_f32")?;
    let mut out = dst.to_vec();
    ctx.device
        .for_each_commit_warp(index.len(), &ctx.commit_schedule(), |warp| {
            for (&row, &x) in index[warp.clone()].iter().zip(&src[warp]) {
                out[row as usize] += x;
            }
        });
    Ok(out)
}

/// fp32 `scatter_reduce` (sum or mean, `include_self=false`) on 1-D
/// buffers. Non-deterministic only, mirroring [`super::scatter::scatter_reduce`].
pub fn scatter_reduce_f32(
    ctx: &GpuContext,
    dst: &[f32],
    index: &[u32],
    src: &[f32],
    mean: bool,
) -> Result<Vec<f32>> {
    if index.len() != src.len() {
        return Err(FpnaError::shape(format!(
            "scatter_reduce_f32: {} indices vs {} sources",
            index.len(),
            src.len()
        )));
    }
    check_index(index, dst.len(), "scatter_reduce_f32")?;
    check_no_deterministic(ctx, "scatter_reduce")?;
    let mut out = dst.to_vec();
    let mut counts = vec![0u32; dst.len()];
    ctx.device
        .for_each_commit_warp(index.len(), &ctx.schedule, |warp| {
            for (&row, &x) in index[warp.clone()].iter().zip(&src[warp]) {
                let row = row as usize;
                if counts[row] == 0 {
                    out[row] = x;
                } else {
                    out[row] += x;
                }
                counts[row] += 1;
            }
        });
    if mean {
        for (o, &c) in out.iter_mut().zip(&counts) {
            if c > 1 {
                *o /= c as f32;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;
    use fpna_gpu_sim::GpuModel;

    fn ctx_nd(seed: u64) -> GpuContext {
        GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false))
    }

    fn problem(n: usize, rows: usize, seed: u64) -> (Vec<f32>, Vec<u32>, Vec<f32>) {
        let mut rng = SplitMix64::new(seed);
        let src: Vec<f32> = (0..n).map(|_| (rng.next_f64() as f32 - 0.5) * 1e3).collect();
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        (vec![0.0; rows], index, src)
    }

    #[test]
    fn index_add_f32_semantics() {
        let ctx = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
        let out = index_add_f32(&ctx, &[1.0, 0.0], &[0, 0, 1], &[1.0, 2.0, 5.0]).unwrap();
        assert_eq!(out, vec![4.0, 5.0]);
    }

    #[test]
    fn f32_variability_is_at_fp32_scale() {
        // The headline: same experiment as the f64 kernels, but the
        // per-element relative deviations land near 1e-7 (f32 eps), as
        // in the paper's Table 5.
        let (dst, index, src) = problem(20_000, 100, 2);
        let reference = index_add_f32(
            &GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true)),
            &dst,
            &index,
            &src,
        )
        .unwrap();
        let nd = index_add_f32(&ctx_nd(3), &dst, &index, &src).unwrap();
        let mut max_rel = 0.0f64;
        let mut any_diff = false;
        for (a, b) in reference.iter().zip(&nd) {
            if a.to_bits() != b.to_bits() {
                any_diff = true;
                max_rel = max_rel.max(((a - b).abs() / a.abs().max(1e-10)) as f64);
            }
        }
        assert!(any_diff, "fp32 accumulation should be order-sensitive");
        assert!(
            max_rel > 1e-9 && max_rel < 1e-3,
            "relative deviations should sit near fp32 eps, got {max_rel}"
        );
    }

    #[test]
    fn scatter_reduce_f32_mean_and_sum() {
        let ctx = ctx_nd(4);
        let out = scatter_reduce_f32(&ctx, &[9.0, 9.0], &[0, 0, 1], &[2.0, 4.0, 5.0], false)
            .unwrap();
        assert_eq!(out, vec![6.0, 5.0]);
        let out = scatter_reduce_f32(&ctx, &[9.0, 9.0], &[0, 0, 1], &[2.0, 4.0, 5.0], true)
            .unwrap();
        assert_eq!(out, vec![3.0, 5.0]);
    }

    #[test]
    fn scatter_reduce_f32_det_request_errors() {
        let ctx = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
        assert!(scatter_reduce_f32(&ctx, &[0.0], &[0], &[1.0], false).is_err());
    }

    #[test]
    fn validation() {
        let ctx = ctx_nd(5);
        assert!(index_add_f32(&ctx, &[0.0], &[0, 1], &[1.0]).is_err());
        assert!(index_add_f32(&ctx, &[0.0], &[5], &[1.0]).is_err());
        assert!(scatter_reduce_f32(&ctx, &[0.0], &[9], &[1.0], false).is_err());
    }
}
