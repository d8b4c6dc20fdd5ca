//! Wall-clock phase profiling.
//!
//! Unlike [`crate::trace`], these numbers are **wall time** and thus
//! inherently machine-dependent; they never go into golden traces.
//! Phases accumulate into a global map of [`PhaseStat`]s — count,
//! total/min/max, and a log2-bucketed latency histogram — and render
//! as a JSON report (written under `target/obs/` by the bench
//! harness). Hot loops accumulate a local [`PhaseStat`] and merge it
//! once per run via [`merge`]; coarse phases use the RAII [`scope`].
//!
//! The net engine records a `net.heap_pop@load=…,queue=radix` phase
//! per offered-load level, giving a pop-time histogram vs load in one
//! run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// Number of log2 latency buckets; bucket `i` holds durations with
/// `floor(log2(ns)) + 1 == i` (bucket 0 is exactly 0 ns).
pub const HIST_BUCKETS: usize = 64;

/// Aggregated wall-clock statistics for one named phase.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Log2 latency histogram; see [`bucket_of`].
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for PhaseStat {
    fn default() -> Self {
        PhaseStat { count: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0, hist: [0; HIST_BUCKETS] }
    }
}

/// Bucket index for a duration: 0 for 0 ns, else `floor(log2(ns)) + 1`.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

impl PhaseStat {
    /// Record one observation of `ns` into this stat.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.hist[bucket_of(ns)] += 1;
    }

    /// Fold another stat into this one.
    pub fn merge_from(&mut self, other: &PhaseStat) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += *b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASES: Mutex<BTreeMap<String, PhaseStat>> = Mutex::new(BTreeMap::new());
static CONTEXT: Mutex<Option<String>> = Mutex::new(None);

/// Label the process's profile report (e.g. `"shard-3"` when running
/// as one shard of a coordinated sweep). Included as a `"context"`
/// field in [`report_json`], so reports from several processes of the
/// same binary stay distinguishable after collection. `None` clears
/// it.
pub fn set_context(label: Option<String>) {
    *CONTEXT.lock().unwrap_or_else(|e| e.into_inner()) = label;
}

/// The current report context label, if any.
pub fn context() -> Option<String> {
    CONTEXT.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Whether profiling is on. Hot loops cache this once per run.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn profiling on or off. Does not reset accumulated phases.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Drop all accumulated phase statistics.
pub fn reset() {
    PHASES.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Record one wall-clock observation for `phase` (if enabled).
pub fn record(phase: &str, ns: u64) {
    if !enabled() {
        return;
    }
    let mut map = PHASES.lock().unwrap_or_else(|e| e.into_inner());
    map.entry(phase.to_string()).or_default().record(ns);
}

/// Merge a locally accumulated [`PhaseStat`] into the global map.
/// Cheaper than per-event [`record`]: one lock per run, not per event.
pub fn merge(phase: &str, stat: &PhaseStat) {
    if !enabled() || stat.count == 0 {
        return;
    }
    let mut map = PHASES.lock().unwrap_or_else(|e| e.into_inner());
    map.entry(phase.to_string()).or_default().merge_from(stat);
}

/// RAII wall-clock span: times from construction to drop and records
/// under `name`. When profiling is disabled the constructor is a
/// single relaxed load and drop is a no-op.
pub struct Scope {
    start: Option<(&'static str, Instant)>,
}

/// Open a profiling scope (see [`Scope`]).
#[inline]
pub fn scope(name: &'static str) -> Scope {
    Scope { start: if enabled() { Some((name, Instant::now())) } else { None } }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.start.take() {
            record(name, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Snapshot every phase (name-sorted, since the map is a `BTreeMap`).
pub fn phases() -> Vec<(String, PhaseStat)> {
    PHASES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

fn render_stat(name: &str, s: &PhaseStat, out: &mut String) {
    use std::fmt::Write;
    out.push_str("    ");
    json::write_str(out, name);
    let _ = write!(
        out,
        ": {{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{:.1},\"hist\":[",
        s.count,
        s.total_ns,
        if s.count == 0 { 0 } else { s.min_ns },
        s.max_ns,
        s.mean_ns()
    );
    let mut first = true;
    for (i, n) in s.hist.iter().enumerate() {
        if *n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        // Bucket i covers durations < 2^i ns (bucket 0 is exactly 0).
        let le = if i == 0 { 0u128 } else { 1u128 << i };
        let _ = write!(out, "{{\"lt_ns\":{le},\"count\":{n}}}");
    }
    out.push_str("]}");
}

/// Render the profile report: every phase stat plus a counter
/// snapshot (including the heap-pop wall-time share when available).
pub fn report_json() -> String {
    use std::fmt::Write;
    let mut out = String::from("{\n");
    if let Some(label) = context() {
        out.push_str("  \"context\": ");
        json::write_str(&mut out, &label);
        out.push_str(",\n");
    }
    out.push_str("  \"phases\": {\n");
    let all = phases();
    for (i, (name, stat)) in all.iter().enumerate() {
        render_stat(name, stat, &mut out);
        if i + 1 < all.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  },\n  \"counters\": {");
    let c = crate::counters::snapshot();
    let _ = write!(
        out,
        "\"heap_push\":{},\"heap_pop\":{},\"heap_peak\":{},\"heap_pop_wall_ns\":{},\"net_run_wall_ns\":{},\"pool_hit\":{},\"pool_miss\":{},\"route_lookups\":{},\"wire_bytes\":{},\"bucket_rotations\":{},\"overflow_promotions\":{},\"nic_cross_bytes\":{}",
        c.heap_push,
        c.heap_pop,
        c.heap_peak,
        c.heap_pop_wall_ns,
        c.net_run_wall_ns,
        c.pool_hit,
        c.pool_miss,
        c.route_lookups,
        c.wire_bytes,
        c.bucket_rotations,
        c.overflow_promotions,
        c.nic_cross_bytes
    );
    if let Some(share) = c.heap_pop_wall_share() {
        let _ = write!(out, ",\"heap_pop_wall_share\":{share:.4}");
    }
    out.push_str("}\n}\n");
    out
}

/// Write the report to `path`, creating parent directories.
pub fn write_report(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, report_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
    }

    #[test]
    fn merge_and_report_round_trip() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let mut local = PhaseStat::default();
        local.record(5);
        local.record(100);
        merge("net.heap_pop@load=0.50", &local);
        record("executor.run", 1_000);
        let report = report_json();
        set_enabled(false);
        reset();
        assert!(report.contains("net.heap_pop@load=0.50"));
        assert!(report.contains("\"count\":2"));
        assert!(report.contains("executor.run"));
        assert!(report.contains("\"counters\""));
    }

    #[test]
    fn context_label_lands_in_report() {
        let _g = LOCK.lock().unwrap();
        set_context(Some("shard-3".into()));
        assert!(report_json().contains("\"context\": \"shard-3\""));
        set_context(None);
        assert!(!report_json().contains("\"context\""));
    }

    #[test]
    fn report_escapes_phase_names_and_context() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        record("a\"b\\c", 7);
        set_context(Some("x\\y".into()));
        let report = report_json();
        set_context(None);
        set_enabled(false);
        reset();
        let v = json::parse(&report).unwrap_or_else(|e| panic!("{e}:\n{report}"));
        assert_eq!(v.get("context").and_then(json::Value::as_str), Some("x\\y"));
        let phases = v.get("phases").and_then(json::Value::as_obj).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "a\"b\\c");
        assert_eq!(
            phases[0].1.get("count").and_then(json::Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn report_carries_every_counter() {
        let _g = crate::counters::tests::LOCK.lock().unwrap();
        crate::counters::reset();
        crate::counters::set_enabled(true);
        crate::counters::add(crate::counters::Counter::NicCrossBytes, 4096);
        let report = report_json();
        crate::counters::set_enabled(false);
        crate::counters::reset();
        let v = json::parse(&report).unwrap_or_else(|e| panic!("{e}:\n{report}"));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("nic_cross_bytes").and_then(json::Value::as_u64), Some(4096));
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        record("x", 5);
        let _s = scope("y");
        drop(_s);
        let mut local = PhaseStat::default();
        local.record(1);
        merge("z", &local);
        assert!(phases().is_empty());
    }
}
