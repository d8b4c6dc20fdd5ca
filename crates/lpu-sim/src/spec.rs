//! Machine parameters of the simulated LPU.

use serde::{Deserialize, Serialize};

/// Cost/shape parameters of the accelerator. The `groq_like` preset is
/// calibrated so the compiled cycle counts for the paper's kernels land
/// near the Groq columns of Tables 6 and 8, which the `table6` and
/// `table8` binaries print.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpuSpec {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Vector lanes processed per cycle by the streaming units.
    pub vector_lanes: u32,
    /// Multiply-accumulate operations per cycle of the matrix unit.
    pub matmul_macs_per_cycle: f64,
    /// Fixed dispatch cost charged once per instruction (instruction
    /// fetch, stream setup), in cycles.
    pub dispatch_cycles: f64,
    /// Fixed cost charged once per *program* invocation (host call,
    /// DMA-in/out bookkeeping), in cycles.
    pub invoke_cycles: f64,
    /// Extra per-element cost factor for gather/scatter streams
    /// relative to dense streams (on-chip permutation network setup).
    pub scatter_stream_factor: f64,
}

impl LpuSpec {
    /// Parameters in the neighbourhood of the GroqChip: 0.9 GHz, 320
    /// lanes, a 320×320 MAC array. Dispatch/invoke overheads are
    /// calibrated against the paper's Table 6 kernel runtimes.
    pub fn groq_like() -> Self {
        LpuSpec {
            clock_ghz: 0.9,
            vector_lanes: 320,
            matmul_macs_per_cycle: 320.0 * 320.0,
            dispatch_cycles: 120.0,
            invoke_cycles: 8_000.0,
            scatter_stream_factor: 2.0,
        }
    }

    /// Convert a cycle count to microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groq_like_is_sane() {
        let s = LpuSpec::groq_like();
        assert!(s.clock_ghz > 0.0);
        assert_eq!(s.vector_lanes, 320);
        // 9000 cycles at 0.9 GHz = 10 us
        assert!((s.cycles_to_us(9_000.0) - 10.0).abs() < 1e-9);
    }
}
