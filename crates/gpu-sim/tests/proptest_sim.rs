//! Property tests for the simulator: schedule validity, kernel value
//! correctness against an exact oracle and against a literal
//! formulation of each kernel, and the determinism contract.

use proptest::collection::vec;
use proptest::prelude::*;

use fpna_gpu_sim::{
    DeviceProfile, GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind, Scheduler,
};

/// The six kernels written out the way the paper's CUDA reads, one
/// launch at a time, as a reference independent of the simulator's
/// launch plans: thread `t` of a block adds `chunk[i]` for every
/// `i % Nt == t`, and AO resolves each warp event to its round and
/// warp by division and tests every lane against the chunk's end.
mod literal {
    use fpna_gpu_sim::{GpuDevice, KernelParams, ReduceKernel, ScheduleKind};

    fn chunks(n: usize, nb: usize) -> Vec<(usize, usize)> {
        let chunk = n.div_ceil(nb);
        (0..nb)
            .map(|b| ((b * chunk).min(n), ((b + 1) * chunk).min(n)))
            .collect()
    }

    fn pairwise(mut lanes: Vec<f64>) -> f64 {
        let mut offset = lanes.len() / 2;
        while offset > 0 {
            for i in 0..offset {
                lanes[i] += lanes[i + offset];
            }
            offset /= 2;
        }
        lanes[0]
    }

    fn partials(xs: &[f64], nt: usize, nb: usize) -> Vec<f64> {
        chunks(xs.len(), nb)
            .into_iter()
            .map(|(lo, hi)| {
                let mut lanes = vec![0.0f64; nt];
                for (i, &x) in xs[lo..hi].iter().enumerate() {
                    lanes[i % nt] += x;
                }
                pairwise(lanes)
            })
            .collect()
    }

    fn tree(xs: &[f64]) -> f64 {
        let mut buf = xs.to_vec();
        buf.resize(xs.len().next_power_of_two(), 0.0);
        pairwise(buf)
    }

    fn serial(xs: &[f64]) -> f64 {
        let mut s = 0.0;
        for &x in xs {
            s += x;
        }
        s
    }

    pub fn value(
        device: &GpuDevice,
        kernel: ReduceKernel,
        xs: &[f64],
        params: KernelParams,
        kind: &ScheduleKind,
    ) -> f64 {
        let nt = params.threads_per_block as usize;
        let nb = params.num_blocks as usize;
        match kernel {
            ReduceKernel::Spa => {
                // Blocks finish in the queue order of one-item queues.
                let p = partials(xs, nt, nb);
                let mut s = 0.0;
                let scheduler = device.scheduler();
                scheduler.interleave(&vec![1; nb], kind, |b, _| s += p[b as usize]);
                s
            }
            ReduceKernel::Sptr => tree(&partials(xs, nt, nb)),
            ReduceKernel::Sprg | ReduceKernel::Tprc => serial(&partials(xs, nt, nb)),
            // The library's own geometry: 256 threads, 16 items each.
            ReduceKernel::Cu => tree(&partials(xs, 256, xs.len().div_ceil(256 * 16).max(1))),
            ReduceKernel::Ao => {
                let ww = (device.profile().warp_width as usize).min(nt);
                let warps = nt / ww;
                let bounds = chunks(xs.len(), nb);
                let queues: Vec<u32> = bounds
                    .iter()
                    .map(|&(lo, hi)| ((hi - lo).div_ceil(nt) * warps) as u32)
                    .collect();
                let mut s = 0.0;
                let scheduler = device.scheduler();
                scheduler.interleave(&queues, kind, |block, event| {
                    let (lo, hi) = bounds[block as usize];
                    let round = event as usize / warps;
                    let warp = event as usize % warps;
                    let base = lo + round * nt + warp * ww;
                    for lane in 0..ww {
                        let idx = base + lane;
                        if idx < hi {
                            s += xs[idx];
                        }
                    }
                });
                s
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleavings cover every item exactly once and preserve each
    /// queue's internal order, for every policy.
    #[test]
    fn interleave_is_a_valid_linearisation(
        queues in vec(0u32..20, 1..40),
        window in 1u32..64,
        seed in any::<u64>(),
    ) {
        let s = Scheduler::new(window);
        for kind in [
            ScheduleKind::Seeded(seed),
            ScheduleKind::UniformRandom(seed),
            ScheduleKind::InOrder,
            ScheduleKind::Reverse,
        ] {
            let mut events = Vec::new();
            s.interleave(&queues, &kind, |q, i| events.push((q, i)));
            let total: usize = queues.iter().map(|&c| c as usize).sum();
            prop_assert_eq!(events.len(), total);
            let mut next = vec![0u32; queues.len()];
            for (q, i) in events {
                prop_assert_eq!(i, next[q as usize], "queue {} out of order", q);
                next[q as usize] += 1;
            }
            for (q, (&want, got)) in queues.iter().zip(next).enumerate() {
                prop_assert_eq!(want, got, "queue {} incomplete", q);
            }
        }
    }

    /// Every reduction kernel returns the true sum to a tolerance set
    /// by the input's conditioning — under an arbitrary schedule.
    #[test]
    fn kernels_compute_the_sum(
        xs in vec(-1e6..1e6f64, 1..2000),
        seed in any::<u64>(),
        nt_pow in 4u32..9,
        nb in 1u32..32,
    ) {
        let device = GpuDevice::new(GpuModel::Gh200);
        let params = KernelParams::new(1 << nt_pow, nb);
        let exact = fpna_summation::exact::exact_sum(&xs);
        let scale: f64 = xs.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
        for kernel in ReduceKernel::all() {
            let v = device
                .reduce(kernel, &xs, params, &ScheduleKind::Seeded(seed))
                .unwrap()
                .value;
            prop_assert!((v - exact).abs() <= 1e-11 * scale,
                "{}: {} vs {}", kernel.name(), v, exact);
        }
    }

    /// The determinism contract: deterministic kernels produce one bit
    /// pattern across schedules; with a *fixed* schedule, every kernel
    /// replays exactly.
    #[test]
    fn determinism_contract(
        xs in vec(-1e3..1e3f64, 64..512),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let device = GpuDevice::new(GpuModel::V100);
        let params = KernelParams::new(64, 8);
        for kernel in ReduceKernel::all() {
            let a1 = device.reduce(kernel, &xs, params, &ScheduleKind::Seeded(seed_a)).unwrap().value;
            let a2 = device.reduce(kernel, &xs, params, &ScheduleKind::Seeded(seed_a)).unwrap().value;
            prop_assert_eq!(a1.to_bits(), a2.to_bits(), "{} must replay", kernel.name());
            if kernel.is_deterministic() {
                let b = device.reduce(kernel, &xs, params, &ScheduleKind::Seeded(seed_b)).unwrap().value;
                prop_assert_eq!(a1.to_bits(), b.to_bits(), "{} must ignore schedule", kernel.name());
            }
        }
    }

    /// Scatter commit orders are permutations that keep warp lanes
    /// consecutive.
    #[test]
    fn scatter_order_valid(n in 0usize..5000, seed in any::<u64>()) {
        let device = GpuDevice::new(GpuModel::H100);
        let mut order = Vec::new();
        device.for_each_commit_warp(n, &ScheduleKind::Seeded(seed), |warp| order.extend(warp));
        prop_assert_eq!(order.len(), n);
        let mut seen = vec![false; n];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        // every *full* warp's items commit consecutively in lane order
        let ww = 32usize;
        let mut pos = vec![0usize; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        for warp_start in (0..n).step_by(ww) {
            if warp_start + ww > n {
                break; // partial trailing warp
            }
            for lane in 1..ww {
                prop_assert_eq!(
                    pos[warp_start + lane],
                    pos[warp_start] + lane,
                    "warp at {} not lane-ordered", warp_start
                );
            }
        }
    }

    /// Intra-run parallelism contract: `block_partials` and every
    /// kernel value are bitwise identical to the serial execution at
    /// worker budgets {1, 2, 4, 7}.
    #[test]
    fn single_run_values_are_intra_thread_invariant(
        n in 1usize..40_000,
        seed in any::<u64>(),
        nb in 1u32..300,
    ) {
        use fpna_core::executor::set_threads;
        use fpna_gpu_sim::reduce::block_partials;

        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e6 - 5e5).collect();
        let params = KernelParams::new(64, nb);
        let device = GpuDevice::new(GpuModel::V100);
        let kind = ScheduleKind::Seeded(seed);
        let value = |kernel| device.reduce(kernel, &xs, params, &kind).unwrap().value;

        set_threads(1);
        let partials_ref = block_partials(&xs, params);
        let ao_ref = value(ReduceKernel::Ao);
        let sptr_ref = value(ReduceKernel::Sptr);
        for threads in [2usize, 4, 7] {
            set_threads(threads);
            let partials = block_partials(&xs, params);
            prop_assert_eq!(partials.len(), partials_ref.len());
            for (a, b) in partials.iter().zip(&partials_ref) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
            }
            let ao = value(ReduceKernel::Ao);
            prop_assert_eq!(ao.to_bits(), ao_ref.to_bits(), "AO threads={}", threads);
            let sptr = value(ReduceKernel::Sptr);
            prop_assert_eq!(sptr.to_bits(), sptr_ref.to_bits(), "SPTR threads={}", threads);
        }
    }

    /// Every kernel, under every schedule kind, returns the bits of its
    /// literal formulation: ragged lengths (empty, shorter than the
    /// block count, partial rows and warps), on 32-lane warps and on
    /// 64-lane warps with AO enabled and a 20-block residency window
    /// that the block count crosses.
    #[test]
    fn kernels_match_their_literal_formulation(
        n in 0usize..3000,
        seed in any::<u64>(),
        nt_pow in 3u32..9,
        nb in 1u32..48,
    ) {
        let mut wide = DeviceProfile::new(GpuModel::Mi250x);
        wide.supports_ao = true;
        wide.sms = 5;
        let devices = [GpuDevice::new(GpuModel::V100), GpuDevice::with_profile(wide)];
        let mut rng = fpna_core::rng::SplitMix64::new(seed);
        let xs: Vec<f64> = (0..n)
            .map(|i| (rng.next_f64() - 0.25) * f64::powi(2.0, (i % 16) as i32 - 8))
            .collect();
        let params = KernelParams::new(1 << nt_pow, nb);
        for device in &devices {
            for kind in [
                ScheduleKind::Seeded(seed),
                ScheduleKind::UniformRandom(seed),
                ScheduleKind::InOrder,
                ScheduleKind::Reverse,
            ] {
                for kernel in ReduceKernel::all() {
                    let got = device.reduce(kernel, &xs, params, &kind).unwrap().value;
                    let want = literal::value(device, kernel, &xs, params, &kind);
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} on {}-lane warps under {:?}",
                        kernel.name(),
                        device.profile().warp_width,
                        kind
                    );
                }
            }
        }
    }
}
