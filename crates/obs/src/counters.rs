//! Near-zero-cost global counters.
//!
//! Every counter is a process-global `AtomicU64` guarded by one
//! `AtomicBool`. When disabled (the default) each `add` costs a single
//! relaxed load plus a predictable branch; hot loops should instead
//! cache [`enabled`] once (a plain `bool` field) and flush locally
//! accumulated tallies through [`add`] at the end of the run, which
//! makes the per-event disabled cost a non-atomic register test.
//!
//! Counters are monotone within an enabled window; [`reset`] zeroes
//! them. [`snapshot`] reads a consistent-enough view for reporting
//! (individual counters are exact; cross-counter skew is possible only
//! while writers are mid-flush, which report sites avoid by quiescing
//! first).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Identifies one global counter. The set mirrors the engine hot
/// paths: event-heap traffic, buffer-pool recycling, route-arena
/// lookups, and bytes serialized onto links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events pushed onto the simulator's event heap.
    HeapPush,
    /// Events popped off the simulator's event heap.
    HeapPop,
    /// Wall-clock nanoseconds spent inside heap pops (needs profiling
    /// enabled too; the engine only times pops when profiling).
    HeapPopWallNs,
    /// Wall-clock nanoseconds spent inside `NetSim::run` overall.
    NetRunWallNs,
    /// Buffer-pool requests served by recycling a previous buffer.
    PoolHit,
    /// Buffer-pool requests that had to allocate fresh.
    PoolMiss,
    /// Route-arena lookups: one per injection, tenant admission check
    /// and hop.
    RouteLookup,
    /// Bytes serialized onto links (every hop counts the full message).
    WireBytes,
    /// Radix-queue buckets redistributed: each time the queue's floor
    /// rises to the lowest non-empty bucket's minimum and spreads that
    /// bucket over the ones below it.
    BucketRotation,
    /// Events those radix-queue redistributions moved.
    OverflowPromotion,
    /// Foreground payload bytes carried over cross-group fabric links
    /// (switch↔switch / switch↔NIC hops) — the NIC/spine crossings
    /// topology-aware placement exists to minimise.
    NicCrossBytes,
}

const N_COUNTERS: usize = 11;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];
/// Peak event-heap length, merged with `fetch_max`.
static HEAP_PEAK: AtomicU64 = AtomicU64::new(0);

/// Whether counter collection is on. Hot loops cache this once per run.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn counter collection on or off. Does not reset values.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Zero every counter (enabled flag is untouched).
pub fn reset() {
    for c in &COUNTS {
        c.store(0, Ordering::SeqCst);
    }
    HEAP_PEAK.store(0, Ordering::SeqCst);
}

/// Add `n` to a counter if collection is enabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() && n != 0 {
        COUNTS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Merge a locally observed peak heap length (max semantics).
#[inline]
pub fn record_heap_peak(len: u64) {
    if enabled() {
        HEAP_PEAK.fetch_max(len, Ordering::Relaxed);
    }
}

/// Point-in-time values of every counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub heap_push: u64,
    pub heap_pop: u64,
    pub heap_peak: u64,
    pub heap_pop_wall_ns: u64,
    pub net_run_wall_ns: u64,
    pub pool_hit: u64,
    pub pool_miss: u64,
    pub route_lookups: u64,
    pub wire_bytes: u64,
    pub bucket_rotations: u64,
    pub overflow_promotions: u64,
    pub nic_cross_bytes: u64,
}

impl Snapshot {
    /// Fraction of `NetSim::run` wall time spent popping the heap,
    /// or `None` when no run time has been recorded.
    pub fn heap_pop_wall_share(&self) -> Option<f64> {
        if self.net_run_wall_ns == 0 {
            None
        } else {
            Some(self.heap_pop_wall_ns as f64 / self.net_run_wall_ns as f64)
        }
    }
}

/// Read every counter.
pub fn snapshot() -> Snapshot {
    let get = |c: Counter| COUNTS[c as usize].load(Ordering::SeqCst);
    Snapshot {
        heap_push: get(Counter::HeapPush),
        heap_pop: get(Counter::HeapPop),
        heap_peak: HEAP_PEAK.load(Ordering::SeqCst),
        heap_pop_wall_ns: get(Counter::HeapPopWallNs),
        net_run_wall_ns: get(Counter::NetRunWallNs),
        pool_hit: get(Counter::PoolHit),
        pool_miss: get(Counter::PoolMiss),
        route_lookups: get(Counter::RouteLookup),
        wire_bytes: get(Counter::WireBytes),
        bucket_rotations: get(Counter::BucketRotation),
        overflow_promotions: get(Counter::OverflowPromotion),
        nic_cross_bytes: get(Counter::NicCrossBytes),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    // Counters are process-global; serialize the tests that toggle them.
    pub(crate) static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_adds_are_dropped() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        add(Counter::HeapPush, 10);
        record_heap_peak(99);
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn enabled_adds_accumulate_and_peak_is_max() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        add(Counter::HeapPush, 3);
        add(Counter::HeapPush, 4);
        add(Counter::WireBytes, 0); // no-op, keeps the fast path honest
        record_heap_peak(5);
        record_heap_peak(2);
        let s = snapshot();
        set_enabled(false);
        reset();
        assert_eq!(s.heap_push, 7);
        assert_eq!(s.heap_peak, 5);
        assert_eq!(s.wire_bytes, 0);
        assert_eq!(s.heap_pop_wall_share(), None);
    }
}
