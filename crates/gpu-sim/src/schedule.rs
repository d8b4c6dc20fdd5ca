//! The generative block/warp scheduler — the source of all simulated
//! non-determinism.
//!
//! On real hardware a grid of thread blocks is distributed over the
//! SMs; only a bounded number of blocks is *resident* at a time (a
//! "wave"), and within the resident set the order in which blocks
//! finish — and in which their atomic operations commit — depends on
//! runtime effects the programmer cannot observe or control. The
//! paper's non-deterministic kernels (AO, SPA) inherit their run-to-run
//! variability precisely from this order.
//!
//! The model here: a window of at most `concurrent_blocks` queues
//! (blocks) is active; each step removes one item from a uniformly
//! random active queue; an exhausted queue is replaced by the next
//! block in launch order. This captures the two properties that matter
//! for FPNA:
//!
//! 1. commit order is a *restricted* permutation — a block launched
//!    late can never commit before the wave containing it becomes
//!    resident (so AO's element-order permutations are locality-
//!    structured, not uniform — see the Fig 2 discussion);
//! 2. within a warp, lanes commit in lane order (warp-synchronous
//!    execution).
//!
//! [`ScheduleKind`] selects the policy: the realistic seeded wave model,
//! a uniform random permutation (ablation), and two deterministic
//! adversarial orders used for failure injection in tests.
//!
//! Every simulated order streams through one walk,
//! [`Scheduler::interleave`]: block finish orders (SPA, `cumsum`) over
//! one-item queues, warp commit orders (AO, tensor atomics) over warps.

use std::ops::Range;

use fpna_core::rng::{shuffle, SplitMix64};

use crate::profile::DeviceProfile;

/// Scheduling policy for one simulated launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Wave-biased random schedule — the realistic model. The seed
    /// stands in for "which interleaving the hardware happened to pick
    /// this run".
    Seeded(u64),
    /// Uniform random permutation, ignoring residency (ablation:
    /// `ablation_scheduler`).
    UniformRandom(u64),
    /// Blocks commit in launch order (deterministic best case).
    InOrder,
    /// Blocks commit in reverse launch order (deterministic adversarial
    /// case for failure injection).
    Reverse,
}

impl ScheduleKind {
    /// Re-key a stochastic schedule for run `run`; deterministic kinds
    /// are returned unchanged. This is the "launch it again" operation.
    pub fn for_run(&self, run: u64) -> ScheduleKind {
        match *self {
            ScheduleKind::Seeded(seed) => {
                ScheduleKind::Seeded(fpna_core::rng::derive_seed(seed, run))
            }
            ScheduleKind::UniformRandom(seed) => {
                ScheduleKind::UniformRandom(fpna_core::rng::derive_seed(seed, run))
            }
            other => other,
        }
    }
}

/// Scheduler for a device with a given residency bound.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    /// Maximum number of simultaneously resident blocks (wave width).
    pub concurrent_blocks: u32,
}

impl Scheduler {
    /// Scheduler with an explicit residency bound.
    ///
    /// # Panics
    ///
    /// Panics if `concurrent_blocks == 0`.
    pub fn new(concurrent_blocks: u32) -> Self {
        assert!(concurrent_blocks > 0, "need at least one resident block");
        Scheduler { concurrent_blocks }
    }

    /// Scheduler matching a device profile's occupancy.
    pub fn from_profile(profile: &DeviceProfile) -> Self {
        Scheduler::new(profile.concurrent_blocks())
    }

    /// Interleave items from `queues.len()` FIFO queues, where queue
    /// `q` holds `queues[q]` items, under the residency model: at most
    /// `concurrent_blocks` queues active, one random active queue pops
    /// per step, exhausted queues admit the next. Hands each committed
    /// `(queue, item)` to `commit`, in commit order.
    ///
    /// This is the only code that turns a [`ScheduleKind`] into an
    /// order. One-item queues give the order in which blocks finish
    /// (SPA's partial commits, `cumsum`'s look-back).
    pub fn interleave(
        &self,
        queues: &[u32],
        kind: &ScheduleKind,
        mut commit: impl FnMut(u32, u32),
    ) {
        match *kind {
            ScheduleKind::InOrder => {
                for (q, &count) in queues.iter().enumerate() {
                    for i in 0..count {
                        commit(q as u32, i);
                    }
                }
            }
            ScheduleKind::Reverse => {
                for (q, &count) in queues.iter().enumerate().rev() {
                    for i in 0..count {
                        commit(q as u32, i);
                    }
                }
            }
            ScheduleKind::UniformRandom(seed) => {
                // Uniform over all interleavings that preserve
                // per-queue order: random shuffle of queue labels.
                let total: usize = queues.iter().map(|&c| c as usize).sum();
                let mut labels: Vec<u32> = Vec::with_capacity(total);
                for (q, &count) in queues.iter().enumerate() {
                    labels.extend(std::iter::repeat_n(q as u32, count as usize));
                }
                let mut rng = SplitMix64::new(seed);
                shuffle(&mut labels, &mut rng);
                let mut cursor = vec![0u32; queues.len()];
                for q in labels {
                    commit(q, cursor[q as usize]);
                    cursor[q as usize] += 1;
                }
            }
            ScheduleKind::Seeded(seed) => {
                let nq = queues.len();
                let mut rng = SplitMix64::new(seed);
                // `active[..len]` holds the resident queues; no call in the
                // loop (a pushed `Vec` made SPA's replay 1.5-2x slower).
                let mut active = vec![0u32; (self.concurrent_blocks as usize).min(nq)];
                let (mut len, mut next) = (0, 0);
                let mut cursor = vec![0u32; nq];
                loop {
                    // Admit queues in launch order until the window is full.
                    while len < active.len() && next < nq {
                        if queues[next] > 0 {
                            active[len] = next as u32;
                            len += 1;
                        }
                        next += 1;
                    }
                    if len == 0 {
                        break;
                    }
                    let pick = rng.next_below(len as u64) as usize;
                    let q = active[pick] as usize;
                    commit(q as u32, cursor[q]);
                    cursor[q] += 1;
                    if cursor[q] == queues[q] {
                        len -= 1;
                        active[pick] = active[len];
                    }
                }
            }
        }
    }

    /// Walk a launch's warp events in commit order, handing `f` each
    /// event's items: block `b` owns items `bounds(b) = (lo, hi)` and
    /// issues `events[b]` events of `ww` lanes, event `e` covering
    /// `min(lo + e·ww, hi)..min(lo + (e + 1)·ww, hi)`. AO and
    /// `GpuDevice::for_each_commit_warp` share this one mapping.
    /// Events reach `f` in batches of 64, so the picks run ahead of the
    /// kernel's loads (one by one measured 5-20% slower on AO and GNNs).
    pub(crate) fn for_each_warp(
        &self,
        events: &[u32],
        ww: usize,
        bounds: impl Fn(usize) -> (usize, usize),
        kind: &ScheduleKind,
        mut f: impl FnMut(Range<usize>),
    ) {
        let mut batch = [(0, 0); 64];
        let mut len = 0;
        self.interleave(events, kind, |block, e| {
            let (lo, hi) = bounds(block as usize);
            let start = (lo + e as usize * ww).min(hi);
            batch[len] = (start, (start + ww).min(hi));
            len += 1;
            if len == batch.len() {
                apply(&batch, &mut f);
                len = 0;
            }
        });
        apply(&batch[..len], &mut f);
    }
}

/// Out of line, so the walk's per-commit closure stays small enough to inline.
#[inline(never)]
fn apply(batch: &[(usize, usize)], f: &mut impl FnMut(Range<usize>)) {
    for &(start, end) in batch {
        f(start..end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The order in which `nb` blocks finish: the queue sequence of
    /// `nb` one-item queues.
    fn finish_order(s: &Scheduler, nb: u32, kind: &ScheduleKind) -> Vec<u32> {
        let mut order = Vec::new();
        s.interleave(&vec![1; nb as usize], kind, |block, _| order.push(block));
        order
    }

    /// Every `(queue, item)` commit, in order.
    fn commits(s: &Scheduler, queues: &[u32], kind: &ScheduleKind) -> Vec<(u32, u32)> {
        let mut order = Vec::new();
        s.interleave(queues, kind, |q, i| order.push((q, i)));
        order
    }

    fn is_permutation(order: &[u32], n: u32) -> bool {
        let mut seen = vec![false; n as usize];
        for &b in order {
            if seen[b as usize] {
                return false;
            }
            seen[b as usize] = true;
        }
        order.len() == n as usize
    }

    #[test]
    fn finish_order_is_a_permutation() {
        let s = Scheduler::new(8);
        for kind in [
            ScheduleKind::Seeded(1),
            ScheduleKind::UniformRandom(2),
            ScheduleKind::InOrder,
            ScheduleKind::Reverse,
        ] {
            let order = finish_order(&s, 100, &kind);
            assert!(is_permutation(&order, 100), "{kind:?}");
        }
    }

    #[test]
    fn deterministic_kinds_are_fixed() {
        let s = Scheduler::new(4);
        assert_eq!(
            finish_order(&s, 5, &ScheduleKind::InOrder),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(
            finish_order(&s, 5, &ScheduleKind::Reverse),
            vec![4, 3, 2, 1, 0]
        );
    }

    #[test]
    fn seeded_schedule_respects_waves() {
        // With a window of 4, block 8 can never finish before 5 blocks
        // of the first wave have finished (it only becomes resident
        // after 5 admissions).
        let s = Scheduler::new(4);
        for seed in 0..50 {
            let order = finish_order(&s, 16, &ScheduleKind::Seeded(seed));
            let pos_of = |b: u32| order.iter().position(|&x| x == b).unwrap();
            assert!(
                pos_of(8) >= 5,
                "block 8 finished too early in {order:?} (seed {seed})"
            );
        }
    }

    #[test]
    fn seeded_schedules_vary_with_seed_and_replay() {
        let s = Scheduler::new(16);
        let a = finish_order(&s, 200, &ScheduleKind::Seeded(1));
        let b = finish_order(&s, 200, &ScheduleKind::Seeded(2));
        assert_ne!(a, b);
        assert_eq!(a, finish_order(&s, 200, &ScheduleKind::Seeded(1)));
    }

    #[test]
    fn for_run_rekeys_only_stochastic_kinds() {
        let k = ScheduleKind::Seeded(7);
        assert_ne!(k.for_run(0), k.for_run(1));
        assert_eq!(ScheduleKind::InOrder.for_run(3), ScheduleKind::InOrder);
    }

    #[test]
    fn interleave_preserves_per_queue_order() {
        let s = Scheduler::new(3);
        let queues = [4u32, 2, 5, 1];
        for kind in [
            ScheduleKind::Seeded(9),
            ScheduleKind::UniformRandom(10),
            ScheduleKind::InOrder,
            ScheduleKind::Reverse,
        ] {
            let order = commits(&s, &queues, &kind);
            assert_eq!(order.len(), 12);
            let mut last: Vec<i64> = vec![-1; queues.len()];
            for &(q, i) in &order {
                assert!(
                    i as i64 == last[q as usize] + 1,
                    "queue {q} out of order in {kind:?}"
                );
                last[q as usize] = i as i64;
            }
            for (q, &count) in queues.iter().enumerate() {
                assert_eq!(last[q] + 1, count as i64);
            }
        }
    }

    #[test]
    fn interleave_handles_empty_queues() {
        let s = Scheduler::new(2);
        let order = commits(&s, &[0, 3, 0, 2, 0], &ScheduleKind::Seeded(1));
        assert_eq!(order.len(), 5);
        assert!(order.iter().all(|&(q, _)| q == 1 || q == 3));
    }

    #[test]
    fn interleave_wave_restriction() {
        // window 1 => strictly sequential queues == InOrder modulo
        // empty queues.
        let s = Scheduler::new(1);
        let order = commits(&s, &[2, 2, 2], &ScheduleKind::Seeded(5));
        assert_eq!(
            order,
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        );
    }

    #[test]
    #[should_panic(expected = "resident block")]
    fn zero_window_panics() {
        Scheduler::new(0);
    }
}
