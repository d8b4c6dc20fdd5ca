//! Device profiles and calibrated cost-model parameters.
//!
//! Each profile carries (a) the architectural numbers that shape
//! scheduling (warp width, number of SMs/CUs, resident blocks per SM)
//! and (b) latency/bandwidth parameters for the analytic cost model of
//! [`crate::cost`]. The cost parameters are *calibrated* so the model
//! reproduces the ranking and relative gaps of the paper's Table 4 —
//! the role the authors' Summit/Alps/Frontier testbeds played. The
//! `table4` binary prints the calibrated model's timings (README,
//! "Paper figures and tables → binaries").

use serde::{Deserialize, Serialize};

/// The GPUs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuModel {
    /// NVIDIA V100 (Summit, OLCF).
    V100,
    /// NVIDIA GH200 (Alps, CSCS).
    Gh200,
    /// AMD MI250X — one GCD (Frontier, OLCF).
    Mi250x,
    /// NVIDIA H100 (the PyTorch experiments in §IV).
    H100,
}

impl GpuModel {
    /// All models, in the order the paper's tables list them.
    pub fn all() -> [GpuModel; 4] {
        [GpuModel::V100, GpuModel::Gh200, GpuModel::Mi250x, GpuModel::H100]
    }

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            GpuModel::V100 => "V100",
            GpuModel::Gh200 => "GH200",
            GpuModel::Mi250x => "Mi250X",
            GpuModel::H100 => "H100",
        }
    }
}

/// Architectural and cost-model description of a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Which GPU this profile describes.
    pub model: GpuModel,
    /// Threads per warp (32 on NVIDIA, 64 on AMD wavefronts).
    pub warp_width: u32,
    /// Streaming multiprocessors / compute units.
    pub sms: u32,
    /// Thread blocks resident per SM (occupancy bound used by the
    /// wave scheduler).
    pub blocks_per_sm: u32,
    /// Effective main-memory bandwidth in GB/s (calibrated achievable,
    /// not peak).
    pub effective_bandwidth_gbps: f64,
    /// Kernel launch overhead in nanoseconds.
    pub launch_overhead_ns: f64,
    /// Per-commit latency of a pipelined `atomicAdd` to a *contended*
    /// single address, in nanoseconds. Governs the AO kernel, which
    /// serialises `n` commits through one cache line.
    pub contended_atomic_ns: f64,
    /// Effective per-block cost of committing one block partial with
    /// `atomicAdd` (SPA) — overlapped with compute, hence far below
    /// `contended_atomic_ns`.
    pub partial_atomic_ns: f64,
    /// Per-partial cost of the retirement-counter + last-block tree
    /// finalisation used by SPTR/SPRG.
    pub finalize_tree_ns_per_partial: f64,
    /// Fixed cost of a device-to-host transfer (latency) in ns.
    pub d2h_fixed_ns: f64,
    /// Per-byte device-to-host transfer cost in ns.
    pub d2h_ns_per_byte: f64,
    /// Per-element cost of the host-side serial final sum (TPRC).
    pub host_add_ns: f64,
    /// Fixed per-launch overhead of the vendor library reduction (CU):
    /// extra launches, parameter heuristics, temp-storage pass.
    pub cub_fixed_ns: f64,
    /// Whether the single-`atomicAdd` kernel (AO) is available. On
    /// AMD, FP64 `atomicAdd` needs an unsafe compiler mode and the
    /// paper excludes it.
    pub supports_ao: bool,
    /// Relative jitter of simulated timings (std/mean), mirroring the
    /// run-to-run spread of the paper's measurements.
    pub timing_jitter: f64,
}

impl DeviceProfile {
    /// Profile for a [`GpuModel`], with cost parameters calibrated to
    /// Table 4 (V100/GH200/MI250X) and Table 6 (H100).
    pub fn new(model: GpuModel) -> Self {
        match model {
            GpuModel::V100 => DeviceProfile {
                model,
                warp_width: 32,
                sms: 80,
                blocks_per_sm: 4,
                effective_bandwidth_gbps: 521.0,
                launch_overhead_ns: 150.0,
                contended_atomic_ns: 2.079,
                partial_atomic_ns: 0.4,
                finalize_tree_ns_per_partial: 1.0,
                d2h_fixed_ns: 20.0,
                d2h_ns_per_byte: 0.05,
                host_add_ns: 0.5,
                cub_fixed_ns: 4_000.0,
                supports_ao: true,
                timing_jitter: 0.0012,
            },
            GpuModel::Gh200 => DeviceProfile {
                model,
                warp_width: 32,
                sms: 132,
                blocks_per_sm: 4,
                effective_bandwidth_gbps: 1_118.0,
                launch_overhead_ns: 100.0,
                contended_atomic_ns: 1.761,
                partial_atomic_ns: 0.2,
                finalize_tree_ns_per_partial: 4.77,
                d2h_fixed_ns: 1_800.0,
                d2h_ns_per_byte: 0.05,
                host_add_ns: 0.1,
                cub_fixed_ns: 1_350.0,
                supports_ao: true,
                timing_jitter: 0.007,
            },
            GpuModel::Mi250x => DeviceProfile {
                model,
                warp_width: 64,
                sms: 110,
                blocks_per_sm: 4,
                effective_bandwidth_gbps: 541.0,
                launch_overhead_ns: 200.0,
                contended_atomic_ns: 3.0,
                partial_atomic_ns: 6.8,
                finalize_tree_ns_per_partial: 6.5,
                d2h_fixed_ns: 100.0,
                d2h_ns_per_byte: 0.05,
                host_add_ns: 0.5,
                cub_fixed_ns: 1_380.0,
                supports_ao: false,
                timing_jitter: 0.005,
            },
            GpuModel::H100 => DeviceProfile {
                model,
                warp_width: 32,
                sms: 114,
                blocks_per_sm: 4,
                effective_bandwidth_gbps: 1_000.0,
                launch_overhead_ns: 120.0,
                contended_atomic_ns: 1.8,
                partial_atomic_ns: 0.25,
                finalize_tree_ns_per_partial: 3.0,
                d2h_fixed_ns: 1_200.0,
                d2h_ns_per_byte: 0.05,
                host_add_ns: 0.5,
                cub_fixed_ns: 1_400.0,
                supports_ao: true,
                timing_jitter: 0.02,
            },
        }
    }

    /// Maximum number of thread blocks resident at once — the wave
    /// width of the scheduler.
    pub fn concurrent_blocks(&self) -> u32 {
        self.sms * self.blocks_per_sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_constructible() {
        for m in GpuModel::all() {
            let p = DeviceProfile::new(m);
            assert!(p.effective_bandwidth_gbps > 0.0);
            assert!(p.concurrent_blocks() > 0);
            assert_eq!(p.model, m);
        }
    }

    #[test]
    fn amd_excludes_ao() {
        assert!(!DeviceProfile::new(GpuModel::Mi250x).supports_ao);
        assert!(DeviceProfile::new(GpuModel::V100).supports_ao);
    }

    #[test]
    fn warp_widths() {
        assert_eq!(DeviceProfile::new(GpuModel::Mi250x).warp_width, 64);
        assert_eq!(DeviceProfile::new(GpuModel::V100).warp_width, 32);
    }

    #[test]
    fn names() {
        assert_eq!(GpuModel::V100.name(), "V100");
        assert_eq!(GpuModel::Gh200.name(), "GH200");
        assert_eq!(GpuModel::Mi250x.name(), "Mi250X");
        assert_eq!(GpuModel::H100.name(), "H100");
    }

    #[test]
    fn profiles_serialize() {
        let p = DeviceProfile::new(GpuModel::V100);
        // serde round-trip through the Debug-friendly JSON-ish check is
        // overkill; assert the derives exist by cloning and comparing.
        let q = p.clone();
        assert_eq!(p, q);
    }
}
