//! Analytic cost model for the simulated kernels.
//!
//! The model decomposes a launch into the terms that dominate on real
//! hardware:
//!
//! * a **memory pass**: `n · 8 bytes / effective_bandwidth` — every
//!   kernel except AO is bandwidth-bound on its single pass over the
//!   data;
//! * **launch overhead** per kernel;
//! * the kernel-specific **finalisation**: overlapped partial atomics
//!   (SPA), last-block tree/serial reduction (SPTR/SPRG), a
//!   device-to-host transfer plus host loop (TPRC), the library's fixed
//!   overhead (CU);
//! * AO instead pays one **contended atomic** per element — they
//!   serialise through a single cache line, which is why AO sits two
//!   orders of magnitude above everything else in Table 4.
//!
//! Parameters live in [`crate::profile::DeviceProfile`] and are
//! calibrated against the paper's Table 4 (the `table4` binary prints
//! the model's side; README, "Paper figures and tables → binaries").
//! Simulated timings get a small seeded, Gaussian-ish jitter so
//! repeated "measurements" produce the `mean(std)` cells of the
//! paper's tables.

use fpna_core::rng::SplitMix64;

use crate::profile::DeviceProfile;
use crate::reduce::{KernelParams, ReduceKernel};

/// Estimated time of one reduction launch, in nanoseconds, without
/// jitter.
pub fn reduce_time_ns(
    profile: &DeviceProfile,
    kernel: ReduceKernel,
    n: usize,
    params: KernelParams,
) -> f64 {
    let bytes = (n * 8) as f64;
    let mem_pass = bytes / profile.effective_bandwidth_gbps; // GB/s == bytes/ns
    let launch = profile.launch_overhead_ns;
    let nb = params.num_blocks as f64;
    match kernel {
        ReduceKernel::Ao => launch + n as f64 * profile.contended_atomic_ns,
        ReduceKernel::Spa => launch + mem_pass + nb * profile.partial_atomic_ns,
        ReduceKernel::Sptr => launch + mem_pass + nb * profile.finalize_tree_ns_per_partial,
        ReduceKernel::Sprg => {
            // serial last-block loop: slightly worse than the tree
            launch + mem_pass + nb * profile.finalize_tree_ns_per_partial * 1.25
        }
        ReduceKernel::Tprc => {
            2.0 * launch
                + mem_pass
                + profile.d2h_fixed_ns
                + nb * 8.0 * profile.d2h_ns_per_byte
                + nb * profile.host_add_ns
        }
        ReduceKernel::Cu => 2.0 * launch + mem_pass + profile.cub_fixed_ns,
    }
}

/// Apply the profile's measurement jitter to a noise-free estimate.
/// The jitter is a seeded two-draw approximation of Gaussian noise
/// (Irwin–Hall with k = 2), truncated so time stays positive.
pub fn jittered_time_ns(base_ns: f64, relative_jitter: f64, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed ^ 0x5bd1_e995);
    let z = (rng.next_f64() + rng.next_f64()) - 1.0; // mean 0, in (-1, 1)
    (base_ns * (1.0 + relative_jitter * z * 2.45)).max(0.0)
}

/// The paper's performance-penalty metric (Table 4):
/// `Ps = 100·(1 − t/min(t))`, i.e. `0` for the fastest implementation
/// and negative for everything slower.
pub fn performance_penalty(time: f64, fastest: f64) -> f64 {
    100.0 * (1.0 - time / fastest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::GpuModel;

    const N: usize = 4_194_304;

    fn t_ms(model: GpuModel, k: ReduceKernel, params: KernelParams) -> f64 {
        // Table 4 reports time for 100 sums in ms.
        let p = DeviceProfile::new(model);
        reduce_time_ns(&p, k, N, params) * 100.0 / 1e6
    }

    #[test]
    fn v100_ranking_matches_table4() {
        let params = KernelParams::new(512, 128);
        let spa = t_ms(GpuModel::V100, ReduceKernel::Spa, params);
        let sptr = t_ms(GpuModel::V100, ReduceKernel::Sptr, params);
        let tprc = t_ms(GpuModel::V100, ReduceKernel::Tprc, params);
        let cu = t_ms(GpuModel::V100, ReduceKernel::Cu, params);
        let ao = t_ms(GpuModel::V100, ReduceKernel::Ao, params);
        assert!(spa < sptr && sptr < tprc && tprc < cu && cu < ao);
        // two orders of magnitude for AO
        assert!(ao / spa > 100.0, "AO/SPA = {}", ao / spa);
        // paper: 6.456 ms for SPA — we match the scale
        assert!((spa - 6.456).abs() < 0.5, "spa = {spa}");
        assert!((ao - 872.0).abs() < 30.0, "ao = {ao}");
    }

    #[test]
    fn gh200_ranking_matches_table4() {
        let params = KernelParams::new(512, 512);
        let spa = t_ms(GpuModel::Gh200, ReduceKernel::Spa, params);
        let cu = t_ms(GpuModel::Gh200, ReduceKernel::Cu, params);
        let tprc = t_ms(GpuModel::Gh200, ReduceKernel::Tprc, params);
        let sptr = t_ms(GpuModel::Gh200, ReduceKernel::Sptr, params);
        let ao = t_ms(GpuModel::Gh200, ReduceKernel::Ao, params);
        assert!(spa < cu && cu < tprc && tprc < sptr && sptr < ao);
        // SPA vs SPTR gap is several percent on GH200 (7.8% in paper)
        let gap = (sptr - spa) / spa * 100.0;
        assert!(gap > 3.0 && gap < 12.0, "gap {gap}%");
    }

    #[test]
    fn mi250x_ranking_matches_table4() {
        let spa = t_ms(GpuModel::Mi250x, ReduceKernel::Spa, KernelParams::new(512, 256));
        let tprc = t_ms(GpuModel::Mi250x, ReduceKernel::Tprc, KernelParams::new(512, 256));
        let cu = t_ms(GpuModel::Mi250x, ReduceKernel::Cu, KernelParams::new(512, 256));
        let sptr = t_ms(GpuModel::Mi250x, ReduceKernel::Sptr, KernelParams::new(256, 512));
        assert!(tprc < cu && cu < spa && spa < sptr, "tprc={tprc} cu={cu} spa={spa} sptr={sptr}");
    }

    #[test]
    fn penalty_definition() {
        assert_eq!(performance_penalty(1.0, 1.0), 0.0);
        assert!((performance_penalty(1.1, 1.0) + 10.0).abs() < 1e-9);
        assert!(performance_penalty(2.0, 1.0) < performance_penalty(1.5, 1.0));
    }

    #[test]
    fn jitter_statistics() {
        let base = 1000.0;
        let rel = 0.01;
        let samples: Vec<f64> = (0..5000)
            .map(|i| jittered_time_ns(base, rel, i))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - base).abs() / base < 0.005, "mean {mean}");
        let var = samples.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let rel_std = var.sqrt() / base;
        assert!(
            (rel_std - rel).abs() / rel < 0.25,
            "relative std {rel_std} vs target {rel}"
        );
        // reproducible
        assert_eq!(jittered_time_ns(base, rel, 7), jittered_time_ns(base, rel, 7));
    }

    #[test]
    fn jitter_never_negative() {
        for i in 0..100 {
            assert!(jittered_time_ns(1.0, 5.0, i) >= 0.0);
        }
    }
}
