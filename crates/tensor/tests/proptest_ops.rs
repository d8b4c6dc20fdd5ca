//! Property tests for the tensor kernels: shape laws, conservation
//! laws, D/ND value agreement, order-invariance of the exactly
//! associative reductions, the streamed atomic commit order of the
//! `index_add` family against explicit contribution lists, and the
//! deterministic kernels as the in-order walk of the atomic ones.

use proptest::collection::vec;
use proptest::prelude::*;

use fpna_core::error::FpnaError;
use fpna_gpu_sim::{GpuModel, ScheduleKind};
use fpna_tensor::context::GpuContext;
use fpna_tensor::ops::conv::{conv_transpose1d, ConvParams};
use fpna_tensor::ops::cumsum::cumsum;
use fpna_tensor::ops::index::{gather_index_add, gather_rows, index_add, index_copy, index_put};
use fpna_tensor::ops::lowp::index_add_f32;
use fpna_tensor::ops::scatter::{reference_scatter_reduce, scatter_reduce, ReduceOp};
use fpna_tensor::ops::segment::{bincount, embedding_bag, histc, BagMode};
use fpna_tensor::Tensor;

fn det_ctx() -> GpuContext {
    GpuContext::new(GpuModel::H100, 1).with_determinism(Some(true))
}

fn nd_ctx(seed: u64) -> GpuContext {
    GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false))
}

/// A context on a 32-lane (H100) or 64-lane (MI250X) device under one
/// of the four schedule kinds, in either mode.
fn any_ctx(wide_warps: bool, kind: usize, seed: u64, deterministic: bool) -> GpuContext {
    let model = if wide_warps {
        GpuModel::Mi250x
    } else {
        GpuModel::H100
    };
    let kind = [
        ScheduleKind::Seeded(seed),
        ScheduleKind::UniformRandom(seed),
        ScheduleKind::InOrder,
        ScheduleKind::Reverse,
    ][kind];
    GpuContext::new(model, 0)
        .with_schedule(kind)
        .with_determinism(Some(deterministic))
}

/// Commit an explicit `(address, value)` list onto `base`: in the
/// context's atomic order (ND) or in list order (D, the in-order
/// schedule) — the accumulation the tensor kernels are defined by.
fn commit_list(ctx: &GpuContext, base: &[f64], contribs: &[(u32, f64)]) -> Vec<f64> {
    let mut out = base.to_vec();
    ctx.device
        .atomic_scatter_add(&mut out, contribs, &ctx.commit_schedule());
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Rows of mixed sign and magnitude, so the addition order shows in
/// the bits.
fn messy(shape: Vec<usize>, seed: u64) -> Tensor {
    let scale = Tensor::rand(shape.clone(), seed ^ 0x5ca1e);
    Tensor::rand(shape, seed).zip(&scale, |u, s| (u - 0.5) * 10f64.powi((s * 16.0) as i32 - 8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ConvTranspose1d obeys the PyTorch output-shape law and matches
    /// between its deterministic and non-deterministic kernels.
    #[test]
    fn conv1d_shape_and_agreement(
        len in 2usize..24,
        kernel in 1usize..5,
        stride in 1usize..3,
        c_in in 1usize..3,
        c_out in 1usize..3,
        seed in any::<u64>(),
    ) {
        let input = Tensor::rand(vec![1, c_in, len], seed).map(|u| u * 2.0 - 1.0);
        let weight = Tensor::rand(vec![c_in, c_out, kernel], seed ^ 1).map(|u| u * 2.0 - 1.0);
        let params = ConvParams::uniform(1, stride, 0);
        let det = conv_transpose1d(&det_ctx(), &input, &weight, None, &params).unwrap();
        let expect_len = (len - 1) * stride + kernel;
        prop_assert_eq!(det.shape(), &[1, c_out, expect_len][..]);
        let nd = conv_transpose1d(&nd_ctx(seed), &input, &weight, None, &params).unwrap();
        for (a, b) in det.data().iter().zip(nd.data()) {
            prop_assert!((a - b).abs() <= 1e-10 * a.abs().max(1.0) + 1e-12);
        }
    }

    /// index_add conserves the total sum (up to rounding) and is a
    /// no-op for an empty source.
    #[test]
    fn index_add_conservation(
        values in vec(-1e6..1e6f64, 0..300),
        rows in 1usize..16,
        seed in any::<u64>(),
    ) {
        let n = values.len();
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let src = Tensor::from_vec(vec![n], values.clone());
        let dst = Tensor::zeros(vec![rows]);
        for ctx in [det_ctx(), nd_ctx(seed)] {
            let out = index_add(&ctx, &dst, &index, &src).unwrap();
            let before = fpna_summation::exact::exact_sum(&values);
            let after = fpna_summation::exact::exact_sum(out.data());
            let scale: f64 = values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
            prop_assert!((before - after).abs() <= 1e-10 * scale);
        }
    }

    /// gather(index) then flattening reads exactly the selected rows.
    #[test]
    fn gather_selects(rows in 1usize..16, cols in 1usize..8, picks in vec(0usize..16, 0..32), seed in any::<u64>()) {
        let src = Tensor::rand(vec![rows, cols], seed);
        let index: Vec<u32> = picks.iter().map(|&p| (p % rows) as u32).collect();
        let out = gather_rows(&src, &index).unwrap();
        prop_assert_eq!(out.shape()[0], index.len());
        for (k, &i) in index.iter().enumerate() {
            prop_assert_eq!(out.row(k), src.row(i as usize));
        }
    }

    /// cumsum's last element equals the serial total; deterministic
    /// mode is bitwise equal to a plain scan.
    #[test]
    fn cumsum_total(values in vec(-1e6..1e6f64, 1..600)) {
        let x = Tensor::from_vec(vec![values.len()], values.clone());
        let out = cumsum(&det_ctx(), &x).unwrap();
        let mut acc = 0.0;
        for (i, &v) in values.iter().enumerate() {
            acc += v;
            prop_assert_eq!(out.data()[i].to_bits(), acc.to_bits());
        }
    }

    /// amax/amin scatter reductions are bitwise order-invariant (exact
    /// associativity), while the ND kernel still matches the reference
    /// *values* for sum up to rounding.
    #[test]
    fn scatter_reduce_order_invariance(
        values in vec(-1e6..1e6f64, 1..300),
        rows in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = values.len();
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let src = Tensor::from_vec(vec![n], values);
        let dst = Tensor::zeros(vec![rows]);
        for op in [ReduceOp::Amax, ReduceOp::Amin] {
            let reference = reference_scatter_reduce(&dst, &index, &src, op).unwrap();
            let nd = scatter_reduce(&nd_ctx(seed), &dst, &index, &src, op).unwrap();
            prop_assert!(nd.bitwise_eq(&reference), "{:?} must be order-invariant", op);
        }
        let reference = reference_scatter_reduce(&dst, &index, &src, ReduceOp::Sum).unwrap();
        let nd = scatter_reduce(&nd_ctx(seed), &dst, &index, &src, ReduceOp::Sum).unwrap();
        for (a, b) in reference.data().iter().zip(nd.data()) {
            prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
    }

    /// Elementwise ops, row gathers and the deterministic transposed
    /// convolution are bitwise invariant to the intra-run thread
    /// budget.
    #[test]
    fn tensor_ops_are_intra_thread_invariant(
        seed in any::<u64>(),
        n in 1usize..50_000,
        c_in in 1usize..4,
        c_out in 1usize..4,
        len in 1usize..40,
        k in 1usize..4,
    ) {
        use fpna_core::executor::set_threads;
        let x = Tensor::rand(vec![n], seed).map(|v| v * 1e6 - 5e5);
        let y = Tensor::rand(vec![n], seed ^ 1);
        let rows = 64usize.min(n);
        let mut rng = fpna_core::rng::SplitMix64::new(seed ^ 2);
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let table = Tensor::rand(vec![rows, 3], seed ^ 3);
        let cin = Tensor::rand(vec![2, c_in, len], seed ^ 4);
        let w = Tensor::rand(vec![c_in, c_out, k], seed ^ 5);
        let params = ConvParams::uniform(1, 1, 0);

        set_threads(1);
        let map_ref = x.map(|v| v.sqrt().abs() + 1.0);
        let zip_ref = x.zip(&y, |a, b| a * b + 0.5);
        let gather_ref = gather_rows(&table, &index).unwrap();
        let conv_ref = conv_transpose1d(&det_ctx(), &cin, &w, None, &params).unwrap();
        for threads in [2usize, 4, 7] {
            set_threads(threads);
            prop_assert!(x.map(|v| v.sqrt().abs() + 1.0).bitwise_eq(&map_ref), "map threads={}", threads);
            prop_assert!(x.zip(&y, |a, b| a * b + 0.5).bitwise_eq(&zip_ref), "zip threads={}", threads);
            prop_assert!(gather_rows(&table, &index).unwrap().bitwise_eq(&gather_ref), "gather threads={}", threads);
            prop_assert!(
                conv_transpose1d(&det_ctx(), &cin, &w, None, &params).unwrap().bitwise_eq(&conv_ref),
                "conv threads={}", threads
            );
        }
    }

    /// `index_add` adds, bitwise, exactly what committing the explicit
    /// `(row·w + j, value)` list does: in the device's atomic order
    /// (ND) or in list order (D). Every schedule kind, 32- and 64-lane
    /// warps, row widths that are warp multiples and not.
    #[test]
    fn index_add_matches_explicit_contribution_list(
        w in 1usize..131,
        n in 0usize..48,
        rows in 1usize..9,
        kind in 0usize..4,
        wide_warps in any::<bool>(),
        deterministic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ctx = any_ctx(wide_warps, kind, seed, deterministic);
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let dst = messy(vec![rows, w], seed ^ 1);
        let src = messy(vec![n, w], seed ^ 2);
        let contribs: Vec<(u32, f64)> = index
            .iter()
            .enumerate()
            .flat_map(|(k, &r)| (0..w).map(move |j| (r * w as u32 + j as u32, k * w + j)))
            .map(|(addr, i)| (addr, src.data()[i]))
            .collect();
        let out = index_add(&ctx, &dst, &index, &src).unwrap();
        prop_assert_eq!(bits(out.data()), bits(&commit_list(&ctx, dst.data(), &contribs)));
    }

    /// The fused gather → `index_add` is bitwise the two-step
    /// `index_add(zeros, dst_index, gather_rows(src, src_index))`, in
    /// both modes, under every schedule kind and warp width.
    #[test]
    fn gather_index_add_matches_gather_then_index_add(
        w in 1usize..131,
        n in 0usize..48,
        src_rows in 1usize..12,
        rows in 1usize..9,
        kind in 0usize..4,
        wide_warps in any::<bool>(),
        deterministic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ctx = any_ctx(wide_warps, kind, seed, deterministic);
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let dst_index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let src_index: Vec<u32> = (0..n).map(|_| rng.next_below(src_rows as u64) as u32).collect();
        let src = messy(vec![src_rows, w], seed ^ 3);
        let fused = gather_index_add(&ctx, rows, &dst_index, &src, &src_index).unwrap();
        let zeros = Tensor::zeros(vec![rows, w]);
        let two_step = index_add(&ctx, &zeros, &dst_index, &gather_rows(&src, &src_index).unwrap()).unwrap();
        prop_assert!(fused.bitwise_eq(&two_step));
    }

    /// `embedding_bag` (now a fused gather → `index_add`) equals
    /// committing its explicit `(bag·dim + j, weight[i][j])` list.
    #[test]
    fn embedding_bag_matches_explicit_contribution_list(
        dim in 1usize..70,
        vocab in 1usize..12,
        bag_sizes in vec(0usize..9, 1..6),
        kind in 0usize..4,
        wide_warps in any::<bool>(),
        deterministic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ctx = any_ctx(wide_warps, kind, seed, deterministic);
        let mut offsets = vec![0usize];
        for b in &bag_sizes {
            offsets.push(offsets.last().unwrap() + b);
        }
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let indices: Vec<u32> = (0..*offsets.last().unwrap())
            .map(|_| rng.next_below(vocab as u64) as u32)
            .collect();
        let weight = messy(vec![vocab, dim], seed ^ 4);
        let mut contribs = Vec::new();
        for b in 0..bag_sizes.len() {
            for &i in &indices[offsets[b]..offsets[b + 1]] {
                for (j, &v) in weight.row(i as usize).iter().enumerate() {
                    contribs.push(((b * dim + j) as u32, v));
                }
            }
        }
        let out = embedding_bag(&ctx, &weight, &indices, &offsets, BagMode::Sum).unwrap();
        prop_assert_eq!(out.shape(), &[bag_sizes.len(), dim][..]);
        let zeros = vec![0.0; bag_sizes.len() * dim];
        prop_assert_eq!(bits(out.data()), bits(&commit_list(&ctx, &zeros, &contribs)));
    }

    /// A deterministic request runs the atomic kernel in launch order:
    /// under D (on any context schedule) every op that has no separate
    /// deterministic algorithm gives the bits it gives under ND with
    /// the `InOrder` schedule. Duplicate indices, 32- and 64-lane
    /// warps, ragged row widths, and launches of up to three 256-thread
    /// blocks for the ops with one item per index (a one-block launch
    /// commits in order under every schedule kind).
    #[test]
    fn deterministic_kernels_are_the_in_order_walk(
        w in 1usize..40,
        n in 0usize..700,
        rows in 1usize..6,
        kind in 0usize..4,
        wide_warps in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let d = any_ctx(wide_warps, kind, seed, true);
        let in_order = any_ctx(wide_warps, 2, seed, false);
        prop_assert_eq!(in_order.schedule, ScheduleKind::InOrder);
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let mut draw = |bound: usize| rng.next_below(bound as u64) as u32;
        let index: Vec<u32> = (0..n).map(|_| draw(rows)).collect();
        let src_index: Vec<u32> = (0..n).map(|_| draw(rows)).collect();
        let flat: Vec<u32> = (0..n).map(|_| draw(rows * w)).collect();
        let dst = messy(vec![rows, w], seed ^ 1);
        let src = messy(vec![n, w], seed ^ 2);
        let table = messy(vec![rows, w], seed ^ 3);
        let offsets = [0, n / 3, n];
        let values = &src.data()[..n];
        let dst32: Vec<f32> = dst.data()[..rows].iter().map(|&x| x as f32).collect();
        let src32: Vec<f32> = values.iter().map(|&x| x as f32).collect();
        // Every output of the ops, as bits, in one order.
        let outputs = |ctx: &GpuContext| -> Vec<Vec<u64>> {
            let out = |t: Result<Tensor, FpnaError>| bits(t.unwrap().data());
            let f32_bits = |xs: Vec<f32>| xs.iter().map(|x| u64::from(x.to_bits())).collect();
            vec![
                out(index_add(ctx, &dst, &index, &src)),
                out(gather_index_add(ctx, rows, &index, &table, &src_index)),
                out(embedding_bag(ctx, &table, &src_index, &offsets, BagMode::Mean)),
                out(index_copy(ctx, &dst, &index, &src)),
                out(index_put(ctx, &dst, &flat, values)),
                bincount(ctx, &flat, rows * w).unwrap(),
                histc(ctx, values, 7, -1.0, 1.0).unwrap(),
                f32_bits(index_add_f32(ctx, &dst32, &index, &src32).unwrap()),
            ]
        };
        prop_assert_eq!(outputs(&d), outputs(&in_order));
    }

    /// Bad indices are an `FpnaError`, never a panic: an out-of-range
    /// destination or source row, or index arrays of unequal length.
    #[test]
    fn gather_index_add_rejects_bad_input(
        n in 1usize..20,
        rows in 1usize..6,
        src_rows in 1usize..6,
        at in 0usize..20,
        past in 0u32..3,
        seed in any::<u64>(),
    ) {
        let at = at % n;
        let src = messy(vec![src_rows, 3], seed);
        let good_dst = vec![0u32; n];
        let good_src = vec![0u32; n];
        let mut bad_dst = good_dst.clone();
        bad_dst[at] = rows as u32 + past;
        let mut bad_src = good_src.clone();
        bad_src[at] = src_rows as u32 + past;
        for deterministic in [true, false] {
            let ctx = nd_ctx(seed).with_determinism(Some(deterministic));
            let is_oob = |r: Result<Tensor, FpnaError>| matches!(r, Err(FpnaError::IndexOutOfBounds { .. }));
            prop_assert!(is_oob(gather_index_add(&ctx, rows, &bad_dst, &src, &good_src)));
            prop_assert!(is_oob(gather_index_add(&ctx, rows, &good_dst, &src, &bad_src)));
            prop_assert!(gather_index_add(&ctx, rows, &good_dst[1..], &src, &good_src).is_err());
            prop_assert!(gather_index_add(&ctx, rows, &good_dst, &src, &good_src).is_ok());
        }
    }
}

/// An empty index leaves `index_add`'s destination as it was and makes
/// the fused op all zeros, in both modes.
#[test]
fn empty_index_adds_nothing() {
    for deterministic in [true, false] {
        for wide_warps in [false, true] {
            let ctx = any_ctx(wide_warps, 0, 5, deterministic);
            let dst = messy(vec![3, 33], 6);
            let out = index_add(&ctx, &dst, &[], &Tensor::zeros(vec![0, 33])).unwrap();
            assert!(out.bitwise_eq(&dst));
            let src = messy(vec![4, 33], 7);
            let fused = gather_index_add(&ctx, 3, &[], &src, &[]).unwrap();
            assert!(fused.bitwise_eq(&Tensor::zeros(vec![3, 33])));
        }
    }
}
