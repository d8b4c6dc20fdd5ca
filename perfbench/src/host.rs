//! How fast the host is right now, so that wall times measure the code
//! rather than its neighbours.
//!
//! On a shared host, the same op's wall time drifts by up to ~1.6× over
//! minutes, and op wall time stays ≈ on-CPU time: the slowdown is not
//! steal but memory contention from other tenants. A dependent-load
//! chase through a buffer larger than the core's private caches tracks
//! it: in 2-s windows of 15-s runs, log op time against log chase time
//! correlated 0.90-0.94 on all four workloads, with a slope of
//! 0.8-1.3, while a register-only loop moved 2-4× less than op time
//! (see the README). The benchmark therefore samples the chase between
//! ops and scales each wall time to a host whose dependent load takes
//! [`REF_LOAD_NS`].
//!
//! The chase is the benchmark's own code, so a change to the suite can
//! move it only through what the ops leave in cache (see
//! [`HostSpeed::sample`]).

use std::hint::black_box;
use std::time::Instant;

use fpna_core::rng::SplitMix64;

use crate::stats::median;

/// Entries of the chase ring: 16 MiB of `u32`, past every private cache.
const RING_LEN: usize = 4 << 20;
/// Resident size of the ring, in MiB.
pub const RING_MIB: f64 = (RING_LEN * 4) as f64 / (1 << 20) as f64;
/// Dependent loads per walk (~2 ms on the VM in the README).
const HOPS: usize = 10_000;
/// Wall time between samples during the timed phase.
const SAMPLE_EVERY_S: f64 = 0.2;
/// Samples the rolling estimate takes its median over (~1 s).
const RECENT: usize = 5;
/// The reference host's time per dependent load, to which wall times
/// are scaled. Close to what the host in the README measures, so the
/// scaled figures read near its wall-clock ones.
const REF_LOAD_NS: f64 = 200.0;

pub struct HostSpeed {
    /// A single cycle through every entry, in random order, so each
    /// load depends on the one before and no prefetcher can guess it.
    ring: Vec<u32>,
    /// Where the walk stands. Each sample goes on from where the last
    /// stopped, so it loads entries untouched for the last ~40 s rather
    /// than the ones the previous sample left in cache.
    at: u32,
    /// Every sample so far, in ns per dependent load.
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// Build the ring and take [`RECENT`] samples.
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0xC4A5E);
        // Sattolo's shuffle of the identity gives one cycle through all
        // entries.
        let mut ring: Vec<u32> = (0..RING_LEN as u32).collect();
        for i in (1..RING_LEN).rev() {
            let j = (rng.next_u64() % i as u64) as usize;
            ring.swap(i, j);
        }
        let mut h = HostSpeed {
            ring,
            at: 0,
            samples: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..RECENT {
            h.sample();
        }
        h
    }

    /// Walk `HOPS` loads on from where the walk stands.
    fn walk(&mut self) {
        let mut at = black_box(self.at);
        for _ in 0..HOPS {
            at = self.ring[at as usize];
        }
        self.at = black_box(at);
    }

    /// Time one walk. An untimed walk goes first: it brings the ring's
    /// page-table entries back into cache, which the workload's own
    /// memory traffic evicts to a degree that depends on the code under
    /// test. Timed right after an op, the same walk read 20-25 % slower
    /// on `gpu_reduce` and `fabric_contended` than after another walk.
    fn sample(&mut self) {
        self.walk();
        let t0 = Instant::now();
        self.walk();
        self.samples
            .push(t0.elapsed().as_nanos() as f64 / HOPS as f64);
        self.last = Instant::now();
    }

    /// Take a sample if [`SAMPLE_EVERY_S`] has passed since the last.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    /// Multiply a wall time taken now by this to scale it to the
    /// reference host: [`factor`] of the latest [`RECENT`] samples.
    pub fn factor(&self) -> f64 {
        factor(&self.samples[self.samples.len().saturating_sub(RECENT)..])
    }

    /// Every sample, in ns per dependent load.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// [`REF_LOAD_NS`] over the median of `samples` (ns per dependent
/// load): what a wall time taken while they were measured is multiplied
/// by to scale it to the reference host.
pub fn factor(samples: &[f64]) -> f64 {
    REF_LOAD_NS / median(samples).expect("HostSpeed::new takes samples")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_one_cycle_through_every_entry() {
        let h = HostSpeed::new();
        let (mut at, mut steps) = (h.ring[0], 1usize);
        while at != 0 {
            at = h.ring[at as usize];
            steps += 1;
        }
        assert_eq!(steps, RING_LEN);
        assert_eq!(h.samples().len(), RECENT);
        assert!(h.factor().is_finite() && h.factor() > 0.0);
    }
}
