//! `scatter` and `scatter_reduce` — the operations at the centre of the
//! paper's §IV case study (Figs 3–5, Table 6).
//!
//! `Y[I[k], :] ⊕= X[k, :]` for a reduction `⊕`. Neither operation has
//! a deterministic GPU kernel in the PyTorch the paper tested: asking
//! for one raised a runtime error despite documentation suggesting
//! otherwise. We reproduce that behaviour: under
//! `use_deterministic_algorithms(Deterministic)` these functions return
//! [`fpna_core::error::FpnaError::NoDeterministicImplementation`].
//!
//! For testing and for the self-referenced experiment harness a
//! deterministic *reference* implementation exists
//! ([`reference_scatter_reduce`]: the same kernel, walked in ascending
//! `k`); it is deliberately not reachable through the PyTorch-mirror
//! determinism switch.
//!
//! A detail worth noticing (and tested): `amax`/`amin` reductions are
//! exactly associative and commutative over floats, so even the
//! non-deterministic kernel is bitwise reproducible for them — only
//! `sum`, `mean` and `prod` are FPNA-sensitive.

use fpna_core::determinism;
use fpna_core::error::FpnaError;
use fpna_core::Result;

use crate::context::GpuContext;
use crate::ops::index::check_index;
use crate::tensor::Tensor;

/// Reduction applied by [`scatter_reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Arithmetic mean of contributions.
    Mean,
    /// Product of contributions.
    Prod,
    /// Maximum.
    Amax,
    /// Minimum.
    Amin,
}

impl ReduceOp {
    /// Name as used in PyTorch.
    pub fn name(&self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Mean => "mean",
            ReduceOp::Prod => "prod",
            ReduceOp::Amax => "amax",
            ReduceOp::Amin => "amin",
        }
    }

    fn combine(&self, acc: f64, x: f64) -> f64 {
        match self {
            ReduceOp::Sum | ReduceOp::Mean => acc + x,
            ReduceOp::Prod => acc * x,
            ReduceOp::Amax => acc.max(x),
            ReduceOp::Amin => acc.min(x),
        }
    }
}

/// The gate of an op with no deterministic kernel: errors or warns as
/// `ctx`, or the global switch it defers to, asks.
pub(crate) fn check_no_deterministic(ctx: &GpuContext, op: &'static str) -> Result<()> {
    match ctx.determinism {
        Some(true) => Err(FpnaError::NoDeterministicImplementation { op }),
        Some(false) => Ok(()),
        None => determinism::report_nondeterministic_only(op),
    }
}

fn validate(dst: &Tensor, index: &[u32], src: &Tensor, op: &'static str) -> Result<()> {
    if src.shape().first().copied().unwrap_or(0) != index.len() {
        return Err(FpnaError::shape(format!(
            "{op}: index length {} != src rows {}",
            index.len(),
            src.shape().first().copied().unwrap_or(0)
        )));
    }
    if dst.row_len() != src.row_len() {
        return Err(FpnaError::shape(format!(
            "{op}: row length mismatch ({} vs {})",
            dst.row_len(),
            src.row_len()
        )));
    }
    check_index(index, dst.shape().first().copied().unwrap_or(0), op)
}

/// `out[index[k], :] = src[k, :]` (PyTorch `scatter_` with a source
/// tensor, dim 0): a racy write — the committed-last write wins.
/// Non-deterministic only.
pub fn scatter(ctx: &GpuContext, dst: &Tensor, index: &[u32], src: &Tensor) -> Result<Tensor> {
    check_no_deterministic(ctx, "scatter")?;
    validate(dst, index, src, "scatter")?;
    let w = dst.row_len();
    let mut out = dst.clone();
    let data = out.data_mut();
    ctx.device
        .for_each_commit_warp(index.len(), &ctx.schedule, |warp| {
            for k in warp {
                let row = index[k] as usize;
                data[row * w..(row + 1) * w].copy_from_slice(src.row(k));
            }
        });
    Ok(out)
}

/// `out[index[k], :] ⊕= src[k, :]` (PyTorch `scatter_reduce_`, dim 0,
/// `include_self=false`): rows never touched by `index` keep their
/// `dst` value; reduced rows are rebuilt from the contributions alone.
/// Non-deterministic only — a deterministic request errors, as the
/// paper observed.
pub fn scatter_reduce(
    ctx: &GpuContext,
    dst: &Tensor,
    index: &[u32],
    src: &Tensor,
    op: ReduceOp,
) -> Result<Tensor> {
    check_no_deterministic(ctx, "scatter_reduce")?;
    validate(dst, index, src, "scatter_reduce")?;
    Ok(apply_scatter_reduce(dst, index, src, op, |commit| {
        ctx.device
            .for_each_commit_warp(index.len(), &ctx.schedule, commit)
    }))
}

/// Deterministic reference implementation (ascending `k`), used by
/// tests and as the fixed baseline in experiments. **Not** part of the
/// PyTorch-mirror surface: the tested PyTorch had no deterministic
/// `scatter_reduce` kernel.
pub fn reference_scatter_reduce(
    dst: &Tensor,
    index: &[u32],
    src: &Tensor,
    op: ReduceOp,
) -> Result<Tensor> {
    validate(dst, index, src, "scatter_reduce")?;
    Ok(apply_scatter_reduce(dst, index, src, op, |commit| {
        commit(0..index.len())
    }))
}

/// The one `scatter_reduce` kernel: `walk` hands the contributions
/// `k` to its callback as ranges, in commit order (the device's warps,
/// or one ascending range for the reference).
fn apply_scatter_reduce(
    dst: &Tensor,
    index: &[u32],
    src: &Tensor,
    op: ReduceOp,
    walk: impl FnOnce(&mut dyn FnMut(std::ops::Range<usize>)),
) -> Tensor {
    let w = dst.row_len();
    let rows = dst.shape().first().copied().unwrap_or(0);
    let mut out = dst.clone();
    let data = out.data_mut();
    let mut counts = vec![0u32; rows];
    let mut touched = vec![false; rows];
    // include_self=false: first contribution *initialises* the row.
    walk(&mut |warp| {
        for k in warp {
            let row = index[k] as usize;
            let s = src.row(k);
            let orow = &mut data[row * w..(row + 1) * w];
            if !touched[row] {
                orow.copy_from_slice(s);
                touched[row] = true;
            } else {
                for (o, &v) in orow.iter_mut().zip(s) {
                    *o = op.combine(*o, v);
                }
            }
            counts[row] += 1;
        }
    });
    if op == ReduceOp::Mean {
        for (r, &c) in counts.iter().enumerate() {
            if c > 1 {
                let inv = 1.0 / c as f64;
                for o in &mut data[r * w..(r + 1) * w] {
                    *o *= inv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;
    use fpna_gpu_sim::GpuModel;

    fn ctx_nd(seed: u64) -> GpuContext {
        GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false))
    }

    fn random_problem(n: usize, rows: usize, seed: u64) -> (Tensor, Vec<u32>, Tensor) {
        let mut rng = SplitMix64::new(seed);
        let src = Tensor::from_vec(
            vec![n],
            (0..n).map(|_| rng.next_f64() * 1e6 - 5e5).collect(),
        );
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        (Tensor::zeros(vec![rows]), index, src)
    }

    #[test]
    fn deterministic_request_errors_like_pytorch() {
        let ctx = GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true));
        let (dst, index, src) = random_problem(16, 4, 1);
        let err = scatter_reduce(&ctx, &dst, &index, &src, ReduceOp::Sum).unwrap_err();
        assert!(matches!(
            err,
            FpnaError::NoDeterministicImplementation { op: "scatter_reduce" }
        ));
        let err = scatter(&ctx, &dst, &index, &src).unwrap_err();
        assert!(matches!(
            err,
            FpnaError::NoDeterministicImplementation { op: "scatter" }
        ));
    }

    #[test]
    fn reference_sum_semantics() {
        let dst = Tensor::from_vec(vec![3], vec![100.0, 200.0, 300.0]);
        let src = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        let out =
            reference_scatter_reduce(&dst, &[0, 0, 2, 2], &src, ReduceOp::Sum).unwrap();
        // include_self=false: row 0 = 1+2, row 1 untouched, row 2 = 3+4
        assert_eq!(out.data(), &[3.0, 200.0, 7.0]);
    }

    #[test]
    fn reference_mean_prod_amax_amin() {
        let dst = Tensor::zeros(vec![2]);
        let src = Tensor::from_vec(vec![3], vec![2.0, 4.0, -5.0]);
        let idx = [0u32, 0, 1];
        let mean = reference_scatter_reduce(&dst, &idx, &src, ReduceOp::Mean).unwrap();
        assert_eq!(mean.data(), &[3.0, -5.0]);
        let prod = reference_scatter_reduce(&dst, &idx, &src, ReduceOp::Prod).unwrap();
        assert_eq!(prod.data(), &[8.0, -5.0]);
        let amax = reference_scatter_reduce(&dst, &idx, &src, ReduceOp::Amax).unwrap();
        assert_eq!(amax.data(), &[4.0, -5.0]);
        let amin = reference_scatter_reduce(&dst, &idx, &src, ReduceOp::Amin).unwrap();
        assert_eq!(amin.data(), &[2.0, -5.0]);
    }

    #[test]
    fn nd_sum_varies_across_runs() {
        let (dst, index, src) = random_problem(20_000, 5, 2);
        let mut bits = std::collections::HashSet::new();
        for run in 0..10 {
            let out = scatter_reduce(&ctx_nd(3).for_run(run), &dst, &index, &src, ReduceOp::Sum)
                .unwrap();
            bits.insert(out.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
        assert!(bits.len() > 1, "sum should be order-sensitive");
    }

    #[test]
    fn nd_amax_is_bitwise_stable() {
        // max/min are exactly associative: no FPNA even with atomics.
        let (dst, index, src) = random_problem(20_000, 5, 4);
        let first = scatter_reduce(&ctx_nd(5).for_run(0), &dst, &index, &src, ReduceOp::Amax)
            .unwrap();
        for run in 1..10 {
            let out = scatter_reduce(&ctx_nd(5).for_run(run), &dst, &index, &src, ReduceOp::Amax)
                .unwrap();
            assert!(out.bitwise_eq(&first), "amax must be order-invariant");
        }
    }

    #[test]
    fn nd_close_to_reference() {
        let (dst, index, src) = random_problem(5_000, 16, 6);
        let reference =
            reference_scatter_reduce(&dst, &index, &src, ReduceOp::Sum).unwrap();
        let nd = scatter_reduce(&ctx_nd(7), &dst, &index, &src, ReduceOp::Sum).unwrap();
        for (a, b) in reference.data().iter().zip(nd.data()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn scatter_write_race() {
        let dst = Tensor::zeros(vec![1]);
        let n = 2048usize;
        let src = Tensor::from_fn(vec![n], |i| i as f64);
        let index = vec![0u32; n];
        let mut winners = std::collections::HashSet::new();
        for run in 0..20 {
            let out = scatter(&ctx_nd(8).for_run(run), &dst, &index, &src).unwrap();
            winners.insert(out.data()[0].to_bits());
        }
        assert!(winners.len() > 1);
    }

    #[test]
    fn validation() {
        let ctx = ctx_nd(1);
        let dst = Tensor::zeros(vec![2]);
        let src = Tensor::zeros(vec![2]);
        assert!(scatter_reduce(&ctx, &dst, &[0], &src, ReduceOp::Sum).is_err());
        assert!(scatter_reduce(&ctx, &dst, &[0, 9], &src, ReduceOp::Sum).is_err());
        assert_eq!(ReduceOp::Mean.name(), "mean");
    }
}
