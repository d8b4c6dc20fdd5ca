//! Cross-crate property-based tests (proptest) for the suite's core
//! invariants:
//!
//! * metric axioms: `V = 0 ⇔` bitwise identical;
//! * exact summation is bitwise permutation-invariant;
//! * deterministic kernels are schedule-invariant;
//! * schedules are permutations;
//! * conservation: `index_add` preserves total mass up to rounding;
//! * the LPU executor is a pure function.

use proptest::collection::vec;
use proptest::prelude::*;

use fpna::core::metrics::{count_variability, ermv, scalar_variability};
use fpna::gpu::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind, Scheduler};
use fpna::summation::exact::exact_sum;
use fpna::summation::{pairwise_sum, serial_sum};
use fpna::tensor::context::GpuContext;
use fpna::tensor::ops::index::index_add;
use fpna::tensor::Tensor;

fn finite_f64() -> impl Strategy<Value = f64> {
    // wide but safely-summable range
    prop_oneof![
        -1e12..1e12f64,
        -1.0..1.0f64,
        -1e-12..1e-12f64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metrics_zero_iff_bitwise(xs in vec(finite_f64(), 1..64)) {
        prop_assert_eq!(ermv(&xs, &xs), 0.0);
        prop_assert_eq!(count_variability(&xs, &xs), 0.0);
        // perturb one element
        let mut ys = xs.clone();
        let bump = if ys[0] == 0.0 { 1.0 } else { ys[0] * (1.0 + 1e-9) + 1e-300 };
        if bump.to_bits() != ys[0].to_bits() {
            ys[0] = bump;
            prop_assert!(count_variability(&xs, &ys) > 0.0);
            prop_assert!(ermv(&xs, &ys) > 0.0);
        }
    }

    #[test]
    fn vs_zero_iff_same_bits(a in finite_f64()) {
        prop_assert_eq!(scalar_variability(a, a), 0.0);
        let b = f64::from_bits(a.to_bits() ^ 1);
        prop_assert_ne!(scalar_variability(b, a), 0.0);
    }

    #[test]
    fn exact_sum_is_permutation_invariant(mut xs in vec(finite_f64(), 1..512), seed in any::<u64>()) {
        let reference = exact_sum(&xs);
        let mut rng = fpna::core::rng::SplitMix64::new(seed);
        fpna::core::rng::shuffle(&mut xs, &mut rng);
        prop_assert_eq!(exact_sum(&xs).to_bits(), reference.to_bits());
    }

    #[test]
    fn pairwise_and_serial_agree_to_tolerance(xs in vec(-1e6..1e6f64, 1..2048)) {
        let s = serial_sum(&xs);
        let p = pairwise_sum(&xs);
        let scale = xs.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
        prop_assert!((s - p).abs() <= 1e-12 * scale);
    }

    #[test]
    fn deterministic_kernels_ignore_schedule(
        xs in vec(-1e6..1e6f64, 64..512),
        seed in any::<u64>(),
        nt_pow in 4u32..8,
        nb in 1u32..16,
    ) {
        let device = GpuDevice::new(GpuModel::V100);
        let params = KernelParams::new(1 << nt_pow, nb);
        for kernel in [ReduceKernel::Sptr, ReduceKernel::Sprg, ReduceKernel::Tprc, ReduceKernel::Cu] {
            let a = device.reduce(kernel, &xs, params, &ScheduleKind::InOrder).unwrap().value;
            let b = device.reduce(kernel, &xs, params, &ScheduleKind::Seeded(seed)).unwrap().value;
            let c = device.reduce(kernel, &xs, params, &ScheduleKind::Reverse).unwrap().value;
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn schedules_are_permutations(nb in 1u32..2000, seed in any::<u64>(), window in 1u32..512) {
        // Blocks finish in the queue order of one-item queues.
        let s = Scheduler::new(window);
        let mut order = Vec::new();
        s.interleave(&vec![1; nb as usize], &ScheduleKind::Seeded(seed), |b, _| order.push(b));
        let mut seen = vec![false; nb as usize];
        for b in order {
            prop_assert!(!seen[b as usize]);
            seen[b as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_add_conserves_mass(
        values in vec(-1e6..1e6f64, 1..512),
        rows in 1usize..32,
        seed in any::<u64>(),
    ) {
        let n = values.len();
        let mut rng = fpna::core::rng::SplitMix64::new(seed);
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let src = Tensor::from_vec(vec![n], values.clone());
        let dst = Tensor::zeros(vec![rows]);
        let ctx = GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false));
        let out = index_add(&ctx, &dst, &index, &src).unwrap();
        let total_in = exact_sum(&values);
        let total_out = exact_sum(out.data());
        let scale = values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!((total_in - total_out).abs() <= 1e-10 * scale,
            "mass not conserved: {} vs {}", total_in, total_out);
    }

    #[test]
    fn nd_index_add_replays_bitwise_for_fixed_seed(
        values in vec(-1e6..1e6f64, 1..256),
        rows in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = values.len();
        let mut rng = fpna::core::rng::SplitMix64::new(seed);
        let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
        let src = Tensor::from_vec(vec![n], values);
        let dst = Tensor::zeros(vec![rows]);
        let ctx = GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false));
        let a = index_add(&ctx, &dst, &index, &src).unwrap();
        let b = index_add(&ctx, &dst, &index, &src).unwrap();
        prop_assert!(a.bitwise_eq(&b), "same seed must replay identically");
    }
}
