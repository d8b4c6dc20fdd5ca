//! `embedding_bag`, `bincount` and `histc` — the remainder of
//! PyTorch's documented-non-deterministic list that reduces with
//! atomics.
//!
//! Two of these are *integer*-atomic ops, which makes them a perfect
//! control group: `bincount`/`histc` increment integer counters, and
//! integer addition is exactly associative — so even the
//! non-deterministic kernels are bitwise reproducible. (PyTorch lists
//! them because its CUDA kernels error under
//! `use_deterministic_algorithms`; the *values* cannot actually vary.
//! The float-accumulating `embedding_bag`, in contrast, varies like
//! `index_add`.)

use fpna_core::error::FpnaError;
use fpna_core::Result;

use crate::context::GpuContext;
use crate::ops::index::{check_index, gather_index_add};
use crate::tensor::Tensor;

/// Bag reduction mode for [`embedding_bag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BagMode {
    /// Sum the bag's embedding rows.
    Sum,
    /// Average the bag's embedding rows.
    Mean,
}

/// `embedding_bag`: for each bag `b` (delimited by `offsets`), reduce
/// the embedding rows selected by `indices[offsets[b]..offsets[b+1]]`.
///
/// A gather → `index_add` ([`gather_index_add`]): the destination row
/// of position `p` is its bag, the source row is `indices[p]`. The
/// non-deterministic kernel scatters each selected row into its bag's
/// accumulator in device commit order; the deterministic kernel
/// accumulates in index order.
///
/// `offsets` must start at 0, be non-decreasing, and end at
/// `indices.len()`.
pub fn embedding_bag(
    ctx: &GpuContext,
    weight: &Tensor,
    indices: &[u32],
    offsets: &[usize],
    mode: BagMode,
) -> Result<Tensor> {
    let vocab = weight.shape().first().copied().unwrap_or(0);
    let dim = weight.row_len();
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&indices.len())
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(FpnaError::config(
            "embedding_bag offsets must be monotone from 0 to indices.len()",
        ));
    }
    check_index(indices, vocab, "embedding_bag")?;
    let bags = offsets.len() - 1;
    // Position p of `indices` belongs to the bag whose range holds it.
    let bag_of: Vec<u32> = (0..bags)
        .flat_map(|b| std::iter::repeat_n(b as u32, offsets[b + 1] - offsets[b]))
        .collect();
    let mut out = gather_index_add(ctx, bags, &bag_of, weight, indices)?;
    if mode == BagMode::Mean {
        for b in 0..bags {
            let count = offsets[b + 1] - offsets[b];
            if count > 1 {
                let inv = 1.0 / count as f64;
                for o in &mut out.data_mut()[b * dim..(b + 1) * dim] {
                    *o *= inv;
                }
            }
        }
    }
    Ok(out)
}

/// `bincount`: count occurrences of each value in `0..bins`. Integer
/// atomics are exactly associative, so both kernels agree bitwise —
/// asserted by tests, and the reason the "non-determinism" of this op
/// never shows up in output values.
pub fn bincount(ctx: &GpuContext, values: &[u32], bins: usize) -> Result<Vec<u64>> {
    for &v in values {
        if v as usize >= bins {
            return Err(FpnaError::IndexOutOfBounds {
                index: v as usize,
                bound: bins,
                context: "bincount",
            });
        }
    }
    let mut counts = vec![0u64; bins];
    if ctx.deterministic_requested() {
        for &v in values {
            counts[v as usize] += 1;
        }
    } else {
        let order = ctx.device.scatter_commit_order(values.len(), &ctx.schedule);
        for &k in &order {
            counts[values[k as usize] as usize] += 1;
        }
    }
    Ok(counts)
}

/// `histc`: histogram of float values over `bins` equal bins spanning
/// `[min, max]`; out-of-range values are dropped (PyTorch semantics).
/// Binning is a pure function of each value, and the counters are
/// integers, so this is order-invariant too.
pub fn histc(
    ctx: &GpuContext,
    values: &[f64],
    bins: usize,
    min: f64,
    max: f64,
) -> Result<Vec<u64>> {
    // `partial_cmp` keeps the NaN-rejecting behaviour of `!(max > min)`.
    if bins == 0 || max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater) {
        return Err(FpnaError::config("histc needs bins > 0 and max > min"));
    }
    let width = (max - min) / bins as f64;
    let bin_of = |v: f64| -> Option<usize> {
        if !v.is_finite() || v < min || v > max {
            return None;
        }
        Some((((v - min) / width) as usize).min(bins - 1))
    };
    let mut counts = vec![0u64; bins];
    if ctx.deterministic_requested() {
        for &v in values {
            if let Some(b) = bin_of(v) {
                counts[b] += 1;
            }
        }
    } else {
        let order = ctx.device.scatter_commit_order(values.len(), &ctx.schedule);
        for &k in &order {
            if let Some(b) = bin_of(values[k as usize]) {
                counts[b] += 1;
            }
        }
    }
    Ok(counts)
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
    fn embedding_bag_sum_and_mean() {
        let weight = Tensor::from_vec(vec![3, 2], vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        let indices = [0u32, 2, 1, 1];
        let offsets = [0usize, 2, 4];
        let sum = embedding_bag(&ctx_det(), &weight, &indices, &offsets, BagMode::Sum).unwrap();
        assert_eq!(sum.row(0), &[101.0, 202.0]);
        assert_eq!(sum.row(1), &[20.0, 40.0]);
        let mean = embedding_bag(&ctx_det(), &weight, &indices, &offsets, BagMode::Mean).unwrap();
        assert_eq!(mean.row(0), &[50.5, 101.0]);
        assert_eq!(mean.row(1), &[10.0, 20.0]);
    }

    #[test]
    fn embedding_bag_empty_bag() {
        let weight = Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]);
        let out =
            embedding_bag(&ctx_det(), &weight, &[0], &[0, 0, 1], BagMode::Sum).unwrap();
        assert_eq!(out.row(0), &[0.0]);
        assert_eq!(out.row(1), &[1.0]);
    }

    #[test]
    fn embedding_bag_nd_varies_like_index_add() {
        // One huge bag with wide-range rows: commit order matters.
        let vocab = 4_096usize;
        let mut rng = SplitMix64::new(2);
        let weight = Tensor::from_vec(
            vec![vocab, 2],
            (0..vocab * 2).map(|_| rng.next_f64() * 1e8 - 5e7).collect(),
        );
        let indices: Vec<u32> = (0..8_192)
            .map(|_| rng.next_below(vocab as u64) as u32)
            .collect();
        let offsets = [0usize, indices.len()];
        let mut bits = std::collections::HashSet::new();
        for run in 0..10 {
            let out = embedding_bag(
                &ctx_nd(3).for_run(run),
                &weight,
                &indices,
                &offsets,
                BagMode::Sum,
            )
            .unwrap();
            bits.insert(out.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
        assert!(bits.len() > 1, "float bag accumulation should vary");
    }

    #[test]
    fn integer_atomics_are_order_invariant() {
        // The control group: bincount and histc cannot vary, ever.
        let mut rng = SplitMix64::new(4);
        let values: Vec<u32> = (0..50_000).map(|_| rng.next_below(64) as u32).collect();
        let floats: Vec<f64> = (0..50_000).map(|_| rng.next_f64() * 10.0).collect();
        let det_counts = bincount(&ctx_det(), &values, 64).unwrap();
        let det_hist = histc(&ctx_det(), &floats, 32, 0.0, 10.0).unwrap();
        for run in 0..10 {
            let c = bincount(&ctx_nd(5).for_run(run), &values, 64).unwrap();
            assert_eq!(c, det_counts, "integer bincount is exactly associative");
            let h = histc(&ctx_nd(5).for_run(run), &floats, 32, 0.0, 10.0).unwrap();
            assert_eq!(h, det_hist, "histc counters are exactly associative");
        }
        assert_eq!(det_counts.iter().sum::<u64>(), 50_000);
    }

    #[test]
    fn histc_drops_out_of_range() {
        let ctx = ctx_det();
        let h = histc(&ctx, &[-1.0, 0.5, 1.5, 99.0, f64::NAN], 2, 0.0, 2.0).unwrap();
        assert_eq!(h, vec![1, 1]);
    }

    #[test]
    fn validation() {
        let ctx = ctx_det();
        let weight = Tensor::zeros(vec![2, 2]);
        // bad offsets
        assert!(embedding_bag(&ctx, &weight, &[0], &[1, 1], BagMode::Sum).is_err());
        assert!(embedding_bag(&ctx, &weight, &[0], &[0, 2], BagMode::Sum).is_err());
        // oob index
        assert!(embedding_bag(&ctx, &weight, &[7], &[0, 1], BagMode::Sum).is_err());
        assert!(bincount(&ctx, &[9], 4).is_err());
        assert!(histc(&ctx, &[1.0], 0, 0.0, 1.0).is_err());
        assert!(histc(&ctx, &[1.0], 4, 2.0, 1.0).is_err());
    }
}
