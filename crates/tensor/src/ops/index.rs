//! `index_add`, `index_copy`, `index_put` and `gather` along dim 0 —
//! the indexing family of the paper's Table 5 and Figs 3–5.
//!
//! Semantics follow PyTorch: the tensor is viewed as `rows × row_len`
//! along dimension 0 (the dimension the paper sweeps).
//!
//! * `index_add`: `out[index[k], :] += src[k, :]`. Duplicate indices
//!   make the sum order-sensitive — the kernel commits contributions
//!   in the device's atomic order, streamed one warp at a time as
//!   contiguous row slices (no contribution list, no permutation in
//!   memory).
//! * `gather_index_add`: the fused gather → `index_add`,
//!   `out[dst_index[k], :] += src[src_index[k], :]` into zeros —
//!   bitwise `index_add` of `gather_rows`, without the gathered
//!   tensor. GraphSAGE's aggregation and `embedding_bag` run on it;
//!   both ops share one accumulation loop.
//! * `index_copy` / `index_put`: racy *writes*; with duplicate indices
//!   the winner is the last committed write, which the schedule picks.
//! * `gather`: reads only — deterministic in both modes (present for
//!   completeness and for building GNN layers).
//!
//! Each kernel serves both modes through [`GpuContext::commit_schedule`].

use fpna_core::error::FpnaError;
use fpna_core::Result;

use crate::context::GpuContext;
use crate::tensor::Tensor;

/// `Err(IndexOutOfBounds)` naming the first entry of `index` that is
/// not below `bound`.
pub(crate) fn check_index(index: &[u32], bound: usize, context: &'static str) -> Result<()> {
    match index.iter().find(|&&i| i as usize >= bound) {
        Some(&i) => Err(FpnaError::IndexOutOfBounds {
            index: i as usize,
            bound,
            context,
        }),
        None => Ok(()),
    }
}

fn validate_dim0_index(
    dst: &Tensor,
    index: &[u32],
    src: &Tensor,
    op: &'static str,
) -> Result<()> {
    if src.shape().first().copied().unwrap_or(0) != index.len() {
        return Err(FpnaError::shape(format!(
            "{op}: index length {} != src rows {}",
            index.len(),
            src.shape().first().copied().unwrap_or(0)
        )));
    }
    if dst.row_len() != src.row_len() {
        return Err(FpnaError::shape(format!(
            "{op}: dst row length {} != src row length {}",
            dst.row_len(),
            src.row_len()
        )));
    }
    check_index(index, dst.shape().first().copied().unwrap_or(0), op)
}

/// `out[dst_index[k], :] += src[src_row(k), :]` for every `k`, over
/// rows of width `w` — the one loop behind [`index_add`] (`src_row` is
/// the identity) and [`gather_index_add`] (`src_row` reads
/// `src_index`). Indices must be validated by the caller.
///
/// The flat items `k·w + j` commit in the order of
/// [`GpuContext::commit_schedule`], one warp at a time; each warp's
/// range is added as one contiguous slice per row it touches, in lane
/// order. A deterministic launch is one range, so it adds whole rows
/// in ascending `k`.
fn accumulate_rows(
    ctx: &GpuContext,
    out: &mut [f64],
    w: usize,
    dst_index: &[u32],
    src: &[f64],
    src_row: impl Fn(usize) -> usize,
) {
    ctx.device
        .for_each_commit_warp(dst_index.len() * w, &ctx.commit_schedule(), |warp| {
            let (mut k, mut j) = (warp.start / w, warp.start % w);
            let mut left = warp.len();
            while left > 0 {
                let len = left.min(w - j);
                let o = dst_index[k] as usize * w + j;
                let s = src_row(k) * w + j;
                for (o, &v) in out[o..o + len].iter_mut().zip(&src[s..s + len]) {
                    *o += v;
                }
                left -= len;
                k += 1;
                j = 0;
            }
        });
}

/// `out[index[k], :] += src[k, :]` (PyTorch `index_add_`, dim 0).
///
/// Deterministic kernel: contributions applied in ascending `k`.
/// Non-deterministic kernel: contributions committed in the device's
/// atomic order — bitwise run-to-run variability whenever duplicate
/// indices carry rounding-sensitive values.
pub fn index_add(ctx: &GpuContext, dst: &Tensor, index: &[u32], src: &Tensor) -> Result<Tensor> {
    validate_dim0_index(dst, index, src, "index_add")?;
    let mut out = dst.clone();
    accumulate_rows(ctx, out.data_mut(), dst.row_len(), index, src.data(), |k| k);
    Ok(out)
}

/// Fused gather → `index_add`: `out = zeros([rows, w])` with
/// `out[dst_index[k], :] += src[src_index[k], :]`, where `w` is
/// `src`'s row length.
///
/// Bitwise equal, in both modes, to
/// `index_add(ctx, &Tensor::zeros(vec![rows, w]), dst_index,
/// &gather_rows(src, src_index)?)`: the same additions in the same
/// order, without the gathered `len × w` tensor. This is the shape of
/// a message-passing aggregation (PyTorch Geometric's SAGEConv:
/// gather source-node rows per edge, scatter-add into destination
/// nodes) and of `embedding_bag`.
///
/// Errors when the index arrays differ in length or an entry is out
/// of bounds (`dst_index` against `rows`, `src_index` against `src`'s
/// rows).
pub fn gather_index_add(
    ctx: &GpuContext,
    rows: usize,
    dst_index: &[u32],
    src: &Tensor,
    src_index: &[u32],
) -> Result<Tensor> {
    if dst_index.len() != src_index.len() {
        return Err(FpnaError::shape(format!(
            "gather_index_add: {} destination indices vs {} source indices",
            dst_index.len(),
            src_index.len()
        )));
    }
    check_index(dst_index, rows, "gather_index_add")?;
    check_index(
        src_index,
        src.shape().first().copied().unwrap_or(0),
        "gather_index_add",
    )?;
    let w = src.row_len();
    let mut out = Tensor::zeros(vec![rows, w]);
    accumulate_rows(ctx, out.data_mut(), w, dst_index, src.data(), |k| {
        src_index[k] as usize
    });
    Ok(out)
}

/// `out[index[k], :] = src[k, :]` (PyTorch `index_copy_`, dim 0).
///
/// With duplicate indices the result depends on which write lands last:
/// ascending `k` for the deterministic kernel, commit order for the
/// non-deterministic one.
pub fn index_copy(ctx: &GpuContext, dst: &Tensor, index: &[u32], src: &Tensor) -> Result<Tensor> {
    validate_dim0_index(dst, index, src, "index_copy")?;
    let w = dst.row_len();
    let mut out = dst.clone();
    let data = out.data_mut();
    ctx.device
        .for_each_commit_warp(index.len(), &ctx.commit_schedule(), |warp| {
            for k in warp {
                let row = index[k] as usize;
                data[row * w..(row + 1) * w].copy_from_slice(src.row(k));
            }
        });
    Ok(out)
}

/// Flat-index put: `out.flat[index[k]] = values[k]` (PyTorch
/// `index_put_` with `accumulate=False`). Racy on duplicates exactly
/// like [`index_copy`].
pub fn index_put(ctx: &GpuContext, dst: &Tensor, index: &[u32], values: &[f64]) -> Result<Tensor> {
    if index.len() != values.len() {
        return Err(FpnaError::shape(format!(
            "index_put: {} indices vs {} values",
            index.len(),
            values.len()
        )));
    }
    check_index(index, dst.numel(), "index_put")?;
    let mut out = dst.clone();
    let data = out.data_mut();
    ctx.device
        .for_each_commit_warp(index.len(), &ctx.commit_schedule(), |warp| {
            for k in warp {
                data[index[k] as usize] = values[k];
            }
        });
    Ok(out)
}

/// `out[k, :] = src[index[k], :]` — pure reads, deterministic always.
/// Output rows are independent, so the gather is row-blocked across
/// the intra-run thread budget (bitwise invariant to the thread
/// count).
pub fn gather_rows(src: &Tensor, index: &[u32]) -> Result<Tensor> {
    check_index(
        index,
        src.shape().first().copied().unwrap_or(0),
        "gather_rows",
    )?;
    let w = src.row_len();
    let mut data;
    if index.len() * w >= 1 << 16 {
        data = vec![0.0f64; index.len() * w];
        fpna_core::executor::par_fill(&mut data, w, |ks, region| {
            for (local, k) in ks.enumerate() {
                region[local * w..(local + 1) * w].copy_from_slice(src.row(index[k] as usize));
            }
        });
    } else {
        data = Vec::with_capacity(index.len() * w);
        for &i in index {
            data.extend_from_slice(src.row(i as usize));
        }
    }
    let mut shape = vec![index.len()];
    shape.extend_from_slice(&src.shape()[1..]);
    Ok(Tensor::from_vec(shape, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;
    use fpna_gpu_sim::GpuModel;

    fn ctx_det() -> GpuContext {
        GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true))
    }

    fn ctx_nd(seed: u64) -> GpuContext {
        GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false))
    }

    #[test]
    fn index_add_basic_semantics() {
        let dst = Tensor::zeros(vec![3, 2]);
        let src = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = index_add(&ctx_det(), &dst, &[2, 0], &src).unwrap();
        assert_eq!(out.row(0), &[3.0, 4.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[1.0, 2.0]);
    }

    #[test]
    fn index_add_duplicates_accumulate() {
        let dst = Tensor::full(vec![2], 10.0);
        let src = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        let out = index_add(&ctx_det(), &dst, &[0, 0, 1], &src).unwrap();
        assert_eq!(out.data(), &[13.0, 13.0]);
    }

    #[test]
    fn index_add_nd_matches_multiset_sum() {
        // ND and det differ only in addition order: same value to ~1e-9.
        let mut rng = SplitMix64::new(3);
        let n = 10_000usize;
        let rows = 8usize;
        let src = Tensor::from_vec(
            vec![n],
            (0..n).map(|_| rng.next_f64() * 1e6 - 5e5).collect(),
        );
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let dst = Tensor::zeros(vec![rows]);
        let det = index_add(&ctx_det(), &dst, &index, &src).unwrap();
        let nd = index_add(&ctx_nd(7), &dst, &index, &src).unwrap();
        for (a, b) in det.data().iter().zip(nd.data()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn index_add_nd_varies_det_does_not() {
        let mut rng = SplitMix64::new(5);
        let n = 20_000usize;
        let src = Tensor::from_vec(
            vec![n],
            (0..n).map(|_| rng.next_f64() * 1e8 - 5e7).collect(),
        );
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(4) as u32).collect();
        let dst = Tensor::zeros(vec![4]);
        let mut det_bits = std::collections::HashSet::new();
        let mut nd_bits = std::collections::HashSet::new();
        for run in 0..10 {
            let d = index_add(&ctx_det().for_run(run), &dst, &index, &src).unwrap();
            let n_ = index_add(&ctx_nd(9).for_run(run), &dst, &index, &src).unwrap();
            det_bits.insert(d.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            nd_bits.insert(n_.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
        assert_eq!(det_bits.len(), 1, "deterministic kernel must be stable");
        assert!(nd_bits.len() > 1, "ND kernel should vary across runs");
    }

    #[test]
    fn index_copy_last_write_wins() {
        let dst = Tensor::zeros(vec![2, 1]);
        let src = Tensor::from_vec(vec![3, 1], vec![1.0, 2.0, 3.0]);
        // det: ascending k, so k=1 (value 2.0) then k=2 (3.0) -> row0 = 3.0
        let out = index_copy(&ctx_det(), &dst, &[0, 0, 0], &src).unwrap();
        assert_eq!(out.data()[0], 3.0);
    }

    #[test]
    fn index_copy_nd_winner_varies() {
        let dst = Tensor::zeros(vec![1]);
        let n = 4096usize;
        let src = Tensor::from_fn(vec![n], |i| i as f64);
        let index = vec![0u32; n];
        let mut winners = std::collections::HashSet::new();
        for run in 0..20 {
            let out = index_copy(&ctx_nd(11).for_run(run), &dst, &index, &src).unwrap();
            winners.insert(out.data()[0].to_bits());
        }
        assert!(winners.len() > 1, "write race winner should vary");
    }

    #[test]
    fn index_put_flat_semantics() {
        let dst = Tensor::zeros(vec![2, 2]);
        let out = index_put(&ctx_det(), &dst, &[3, 0], &[7.0, 8.0]).unwrap();
        assert_eq!(out.data(), &[8.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn gather_rows_reads() {
        let src = Tensor::from_vec(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = gather_rows(&src, &[2, 2, 0]).unwrap();
        assert_eq!(out.shape(), &[3, 2]);
        assert_eq!(out.data(), &[5.0, 6.0, 5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn validation_errors() {
        let dst = Tensor::zeros(vec![2, 2]);
        let src = Tensor::zeros(vec![2, 2]);
        assert!(index_add(&ctx_det(), &dst, &[0], &src).is_err()); // wrong index len
        assert!(index_add(&ctx_det(), &dst, &[0, 5], &src).is_err()); // oob
        let src3 = Tensor::zeros(vec![2, 3]);
        assert!(index_add(&ctx_det(), &dst, &[0, 1], &src3).is_err()); // row len
        assert!(index_put(&ctx_det(), &dst, &[9], &[1.0]).is_err()); // oob flat
        assert!(index_put(&ctx_det(), &dst, &[0, 1], &[1.0]).is_err()); // len mismatch
        assert!(gather_rows(&src, &[7]).is_err());
    }
}
