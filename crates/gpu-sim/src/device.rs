//! [`GpuDevice`]: the façade tying profile, scheduler, kernels and cost
//! model together — the object experiments talk to.
//!
//! Reduction replays and [`GpuDevice::for_each_commit_warp`] stream
//! their commit orders from [`Scheduler::interleave`].

use std::ops::Range;

use fpna_core::error::FpnaError;
use fpna_core::executor::map_runs;
use fpna_core::Result;

use crate::cost::{jittered_time_ns, reduce_time_ns};
use crate::profile::{DeviceProfile, GpuModel};
use crate::reduce::{KernelParams, ReduceKernel, Stage};
use crate::schedule::{ScheduleKind, Scheduler};

/// Result of a simulated kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReduceOutcome {
    /// The reduction value (bitwise meaningful).
    pub value: f64,
    /// Simulated wall time of the launch in nanoseconds, including the
    /// profile's measurement jitter.
    pub time_ns: f64,
    /// Whether the kernel that produced this value is deterministic.
    pub deterministic: bool,
}

/// A simulated GPU: a device profile plus its wave scheduler.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    profile: DeviceProfile,
    scheduler: Scheduler,
}

impl GpuDevice {
    /// Device for a stock model.
    pub fn new(model: GpuModel) -> Self {
        GpuDevice::with_profile(DeviceProfile::new(model))
    }

    /// Device for a custom profile.
    pub fn with_profile(profile: DeviceProfile) -> Self {
        let scheduler = Scheduler::from_profile(&profile);
        GpuDevice { profile, scheduler }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The device's wave scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Launch a reduction kernel over `data` under schedule `kind`.
    ///
    /// Returns [`FpnaError::InvalidConfig`] when the kernel is not
    /// available on the device — FP64 `atomicAdd` (AO) requires an
    /// unsafe compiler mode on AMD and is excluded there, as in the
    /// paper — or when `params` is not a launchable geometry: `Nt` must
    /// be a power of two and `Nb` at least 1.
    pub fn reduce(
        &self,
        kernel: ReduceKernel,
        data: &[f64],
        params: KernelParams,
        kind: &ScheduleKind,
    ) -> Result<ReduceOutcome> {
        Ok(self.plan(kernel, data, params)?.run(kind))
    }

    /// Launch the same reduction once per **global** run index in
    /// `range`, re-keying the schedule per run (`base.for_run(r)` — the
    /// "launch it again" operation), and return the outcomes in
    /// run-index order. Errors as [`GpuDevice::reduce`].
    ///
    /// The schedule-invariant stage (the block partials, or the value
    /// of a deterministic kernel) is computed once for the whole sweep;
    /// each run replays only its commit order. The runs are
    /// independent by construction (the per-run schedule depends only
    /// on `(base, run_index)`), so they fan out through [`map_runs`]
    /// with bitwise-identical outcomes at any thread count, and any
    /// partition of `0..runs` across shards reproduces the full sweep
    /// at the covered indices.
    pub fn reduce_runs(
        &self,
        kernel: ReduceKernel,
        data: &[f64],
        params: KernelParams,
        base: &ScheduleKind,
        range: Range<usize>,
    ) -> Result<Vec<ReduceOutcome>> {
        // Built outside the fan-out, so the block partials get the
        // whole thread budget.
        let plan = self.plan(kernel, data, params)?;
        Ok(map_runs(range, |r| plan.run(&base.for_run(r as u64))))
    }

    /// The schedule-invariant stage of launching `kernel` over `data`,
    /// after checking that the device and the geometry can run it.
    fn plan<'a>(
        &'a self,
        kernel: ReduceKernel,
        data: &'a [f64],
        params: KernelParams,
    ) -> Result<LaunchPlan<'a>> {
        let (nt, nb) = (params.threads_per_block, params.num_blocks);
        if !nt.is_power_of_two() || nb == 0 {
            return Err(FpnaError::config(format!(
                "launch geometry Nt = {nt}, Nb = {nb}: Nt must be a power of two and Nb at least 1"
            )));
        }
        if kernel == ReduceKernel::Ao && !self.profile.supports_ao {
            return Err(FpnaError::config(format!(
                "FP64 atomicAdd (AO) is not available on {}",
                self.profile.model.name()
            )));
        }
        Ok(LaunchPlan {
            device: self,
            stage: Stage::new(kernel, data, params, self.profile.warp_width),
            base_ns: reduce_time_ns(&self.profile, kernel, data.len(), params),
            deterministic: kernel.is_deterministic(),
        })
    }

    /// Walk the order in which `n_items` atomic contributions commit on
    /// this device, one warp at a time: items are grouped into warps
    /// (lane order preserved), warps into blocks of 256 threads, and
    /// blocks interleave under the wave scheduler. `f` receives each
    /// warp's contiguous range of flat item indices in commit order;
    /// the ranges partition `0..n_items`. Under
    /// [`ScheduleKind::InOrder`] the warps commit in launch order, so
    /// the whole launch is handed over as one range, `0..n_items`.
    ///
    /// This is the primitive `fpna-tensor`'s atomic-order kernels
    /// (`index_add`, `scatter`, `conv_transpose*`, …) use to order their
    /// accumulations and racy writes; the deterministic variant of
    /// `index_add` and its kin is the in-order walk. Streaming the warps
    /// lets a kernel add each range as contiguous row slices, with no
    /// contribution list or permutation in memory.
    ///
    /// # Panics
    ///
    /// Panics if the launch needs more than `u32::MAX` blocks.
    pub fn for_each_commit_warp(
        &self,
        n_items: usize,
        kind: &ScheduleKind,
        mut f: impl FnMut(Range<usize>),
    ) {
        if n_items == 0 {
            return;
        }
        let ww = self.profile.warp_width as usize;
        let threads_per_block = 256usize.max(ww);
        let warps_per_block = threads_per_block / ww;
        let n_warps = n_items.div_ceil(ww);
        let n_blocks = n_warps.div_ceil(warps_per_block);
        assert!(n_blocks <= u32::MAX as usize, "scatter too large");
        if matches!(kind, ScheduleKind::InOrder) {
            f(0..n_items);
            return;
        }
        let events: Vec<u32> = (0..n_blocks)
            .map(|b| warps_per_block.min(n_warps - b * warps_per_block) as u32)
            .collect();
        let bounds = |b: usize| {
            let lo = b * threads_per_block;
            (lo, (lo + threads_per_block).min(n_items))
        };
        self.scheduler.for_each_warp(&events, ww, bounds, kind, f);
    }

    /// Commit `(address, value)` contributions into `dst` with
    /// `atomicAdd` semantics: additions to the same address happen in
    /// the device's commit order — the non-deterministic accumulation
    /// at the heart of §IV.
    ///
    /// # Panics
    ///
    /// Panics if an address is out of bounds for `dst` (callers
    /// validate indices before launching, as the tensor library does).
    pub fn atomic_scatter_add(
        &self,
        dst: &mut [f64],
        contributions: &[(u32, f64)],
        kind: &ScheduleKind,
    ) {
        self.for_each_commit_warp(contributions.len(), kind, |warp| {
            for &(addr, val) in &contributions[warp] {
                dst[addr as usize] += val;
            }
        });
    }
}

/// One launch configuration, built once per `(kernel, data, params)`:
/// the schedule-invariant [`Stage`] plus the noise-free launch time.
/// [`LaunchPlan::run`] replays only what a schedule changes — the
/// commit order and the timing jitter.
struct LaunchPlan<'a> {
    device: &'a GpuDevice,
    stage: Stage<'a>,
    base_ns: f64,
    deterministic: bool,
}

impl LaunchPlan<'_> {
    fn run(&self, kind: &ScheduleKind) -> ReduceOutcome {
        let jitter_seed = match *kind {
            ScheduleKind::Seeded(s) | ScheduleKind::UniformRandom(s) => s,
            ScheduleKind::InOrder => 0,
            ScheduleKind::Reverse => 1,
        };
        let profile = &self.device.profile;
        ReduceOutcome {
            value: self.stage.replay(&self.device.scheduler, kind),
            time_ns: jittered_time_ns(self.base_ns, profile.timing_jitter, jitter_seed),
            deterministic: self.deterministic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 10.0).collect()
    }

    #[test]
    fn reduce_outcome_fields() {
        let dev = GpuDevice::new(GpuModel::V100);
        let xs = data(10_000, 1);
        let out = dev
            .reduce(
                ReduceKernel::Sptr,
                &xs,
                KernelParams::new(128, 32),
                &ScheduleKind::Seeded(1),
            )
            .unwrap();
        assert!(out.deterministic);
        assert!(out.time_ns > 0.0);
        assert!((out.value - xs.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn reduce_runs_matches_serial_loop_at_any_thread_count() {
        // One plan serves every run of a sweep, on every worker.
        let dev = GpuDevice::new(GpuModel::V100);
        let xs = data(50_000, 9);
        let params = KernelParams::new(128, 32);
        let base = ScheduleKind::Seeded(77);
        for kernel in ReduceKernel::all() {
            for range in [0..12, 5..14] {
                fpna_core::executor::set_threads(1);
                let serial: Vec<ReduceOutcome> = range
                    .clone()
                    .map(|r| {
                        dev.reduce(kernel, &xs, params, &base.for_run(r as u64))
                            .unwrap()
                    })
                    .collect();
                for threads in [1usize, 2, 4, 7] {
                    fpna_core::executor::set_threads(threads);
                    let got = dev
                        .reduce_runs(kernel, &xs, params, &base, range.clone())
                        .unwrap();
                    assert_eq!(got.len(), serial.len());
                    for (a, b) in serial.iter().zip(&got) {
                        let at = format!("{} {range:?} threads={threads}", kernel.name());
                        assert_eq!(a.value.to_bits(), b.value.to_bits(), "{at}");
                        assert_eq!(a.time_ns.to_bits(), b.time_ns.to_bits(), "{at}");
                        assert_eq!(a.deterministic, b.deterministic, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn bad_launch_geometry_is_an_error_for_every_kernel() {
        // `KernelParams`' fields are public, so a struct literal skips
        // `KernelParams::new`'s asserts. A 96-lane tree would drop a
        // lane (960 ones summed to 640), and zero blocks would divide
        // by zero.
        let dev = GpuDevice::new(GpuModel::V100);
        let ones = vec![1.0; 960];
        for (nt, nb) in [(96, 1), (64, 0), (0, 4)] {
            let params = KernelParams {
                threads_per_block: nt,
                num_blocks: nb,
            };
            for kernel in ReduceKernel::all() {
                let err = dev
                    .reduce(kernel, &ones, params, &ScheduleKind::InOrder)
                    .unwrap_err();
                assert!(err.to_string().contains("launch geometry"), "{err}");
                let err = dev
                    .reduce_runs(kernel, &ones, params, &ScheduleKind::Seeded(1), 0..3)
                    .unwrap_err();
                assert!(err.to_string().contains("launch geometry"), "{err}");
            }
        }
    }

    #[test]
    fn reduce_runs_propagates_unsupported_kernel() {
        let dev = GpuDevice::new(GpuModel::Mi250x);
        let xs = data(100, 3);
        let err = dev.reduce_runs(
            ReduceKernel::Ao,
            &xs,
            KernelParams::new(64, 2),
            &ScheduleKind::Seeded(1),
            0..4,
        );
        assert!(err.is_err());
    }

    #[test]
    fn ao_rejected_on_amd() {
        let dev = GpuDevice::new(GpuModel::Mi250x);
        let xs = data(100, 2);
        let err = dev
            .reduce(
                ReduceKernel::Ao,
                &xs,
                KernelParams::new(64, 2),
                &ScheduleKind::InOrder,
            )
            .unwrap_err();
        assert!(err.to_string().contains("Mi250X"));
        // SPA (atomic but supported path) still works
        assert!(dev
            .reduce(
                ReduceKernel::Spa,
                &xs,
                KernelParams::new(64, 2),
                &ScheduleKind::InOrder
            )
            .is_ok());
    }

    /// The items of [`GpuDevice::for_each_commit_warp`], in commit
    /// order.
    fn commit_order(dev: &GpuDevice, n: usize, kind: &ScheduleKind) -> Vec<usize> {
        let mut order = Vec::new();
        dev.for_each_commit_warp(n, kind, |warp| order.extend(warp));
        order
    }

    #[test]
    fn scatter_order_is_permutation() {
        let dev = GpuDevice::new(GpuModel::V100);
        for n in [0usize, 1, 31, 32, 33, 1000, 4097] {
            let order = commit_order(&dev, n, &ScheduleKind::Seeded(3));
            let mut seen = vec![false; n];
            for &i in &order {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert_eq!(order.len(), n);
        }
    }

    #[test]
    fn in_order_launch_is_one_range() {
        // Launch order partitions `0..n` into ascending warp ranges,
        // so the in-order walk hands the launch over in one call.
        for model in [GpuModel::V100, GpuModel::Mi250x] {
            let dev = GpuDevice::new(model);
            for n in [1usize, 31, 32, 33, 64, 1000, 4097] {
                let mut calls = Vec::new();
                dev.for_each_commit_warp(n, &ScheduleKind::InOrder, |warp| calls.push(warp));
                assert_eq!(calls, vec![0..n], "{model:?}, n = {n}");
            }
            let mut called = false;
            dev.for_each_commit_warp(0, &ScheduleKind::InOrder, |_| called = true);
            assert!(!called, "an empty launch commits nothing");
        }
    }

    #[test]
    fn scatter_order_preserves_lanes() {
        // Within a warp-aligned group of 32, indices stay consecutive.
        let dev = GpuDevice::new(GpuModel::V100);
        let order = commit_order(&dev, 320, &ScheduleKind::Seeded(5));
        for chunk in order.chunks(32) {
            for w in chunk.windows(2) {
                assert_eq!(w[1], w[0] + 1, "lanes must commit in order");
            }
        }
    }

    #[test]
    fn scatter_add_same_multiset_different_bits() {
        // Contributions to one address: same multiset, different order
        // => potentially different bits; in-order must equal the plain
        // serial accumulation.
        let dev = GpuDevice::new(GpuModel::V100);
        let contribs: Vec<(u32, f64)> = data(10_000, 6)
            .into_iter()
            .map(|v| (0u32, v * 1e8 - 5e7))
            .collect();
        let mut serial = [0.0f64];
        for &(_, v) in &contribs {
            serial[0] += v;
        }
        let mut in_order = vec![0.0f64];
        dev.atomic_scatter_add(&mut in_order, &contribs, &ScheduleKind::InOrder);
        assert_eq!(in_order[0].to_bits(), serial[0].to_bits());

        let mut seen = std::collections::HashSet::new();
        for run in 0..10 {
            let mut dst = vec![0.0f64];
            dev.atomic_scatter_add(&mut dst, &contribs, &ScheduleKind::Seeded(run));
            seen.insert(dst[0].to_bits());
        }
        assert!(seen.len() > 1, "expected order-dependent bits");
    }

    #[test]
    fn scatter_add_disjoint_addresses_is_order_invariant() {
        let dev = GpuDevice::new(GpuModel::Gh200);
        let contribs: Vec<(u32, f64)> = (0..1000u32).map(|i| (i, i as f64 * 0.5)).collect();
        let mut a = vec![0.0f64; 1000];
        let mut b = vec![0.0f64; 1000];
        dev.atomic_scatter_add(&mut a, &contribs, &ScheduleKind::Seeded(1));
        dev.atomic_scatter_add(&mut b, &contribs, &ScheduleKind::Seeded(2));
        assert_eq!(a, b, "no shared addresses => no FPNA");
    }
}
