//! Spans recorded from outside the suite: the benchmark wraps each call
//! into a layer's public functions, so nothing inside the program
//! changes between traced and untraced runs.
//!
//! A span keeps its name, wall-clock start and end, parent, op id, the
//! minor faults taken inside it (`/proc/self/stat`), the `fpna-obs`
//! counter deltas across it, and any per-op facts the workload notes
//! (message counts read off `RunStats`, for instance). Spans stay in
//! memory and are written once at exit.
//!
//! When the tracer is inactive every [`Tracer::span`] is a plain call,
//! and the `fpna-obs` switches stay off, so untraced timings carry no
//! tracing cost.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::time::Instant;

use fpna_obs::counters::{self, Snapshot};
use fpna_obs::profile;

/// `fpna-obs` counters that the per-layer metrics read, as deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsDelta {
    pub heap_pop: u64,
    pub heap_pop_wall_ns: u64,
    pub net_run_wall_ns: u64,
    pub bucket_rotations: u64,
    pub pool_hit: u64,
    pub pool_miss: u64,
}

impl ObsDelta {
    fn between(a: &Snapshot, b: &Snapshot) -> Self {
        ObsDelta {
            heap_pop: b.heap_pop - a.heap_pop,
            heap_pop_wall_ns: b.heap_pop_wall_ns - a.heap_pop_wall_ns,
            net_run_wall_ns: b.net_run_wall_ns - a.net_run_wall_ns,
            bucket_rotations: b.bucket_rotations - a.bucket_rotations,
            pool_hit: b.pool_hit - a.pool_hit,
            pool_miss: b.pool_miss - a.pool_miss,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Op index, or `None` for set-up work.
    pub op: Option<u64>,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub minflt: u64,
    pub obs: ObsDelta,
    /// Facts the workload attached while this span was innermost,
    /// summed per key.
    pub notes: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The fact `key` noted on this span, 0 if none.
    pub fn note(&self, key: &str) -> u64 {
        self.notes
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// Span recorder. `enabled` is fixed per run; `active` says whether the
/// current op is traced (a traced run alternates traced and untraced
/// ops, which gives the tracing overhead from one process).
pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    op: Option<u64>,
    open: Vec<usize>,
    spans: Vec<Span>,
    stat: Option<File>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            active: false,
            origin: Instant::now(),
            op: None,
            open: Vec::new(),
            spans: Vec::new(),
            // Without procfs the fault columns read 0; spans still time.
            stat: if enabled {
                File::open("/proc/self/stat").ok()
            } else {
                None
            },
        }
    }

    /// Trace what follows (if this is a traced run) and switch the
    /// `fpna-obs` counters and profiler with it: the engine needs the
    /// profiler on to time `net.run` and its queue pops.
    pub fn set_active(&mut self, on: bool) {
        self.active = self.enabled && on;
        counters::set_enabled(self.active);
        profile::set_enabled(self.active);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` as op `op` inside an `op` span.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op = Some(op);
        let out = self.span("op", f);
        self.op = None;
        out
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.active {
            return f(self);
        }
        let idx = self.spans.len();
        let flt0 = self.minflt();
        let c0 = counters::snapshot();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            minflt: 0,
            obs: ObsDelta::default(),
            notes: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        let end_ns = self.now_ns();
        let c1 = counters::snapshot();
        let flt1 = self.minflt();
        self.open.pop();
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.minflt = flt1.saturating_sub(flt0);
        s.obs = ObsDelta::between(&c0, &c1);
        out
    }

    /// Add `value` to the fact `key` of the innermost open span.
    pub fn note(&mut self, key: &'static str, value: u64) {
        if let (true, Some(&idx)) = (self.active, self.open.last()) {
            let notes = &mut self.spans[idx].notes;
            match notes.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += value,
                None => notes.push((key, value)),
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Minor faults so far (`minflt`, field 10 of `/proc/self/stat`).
    fn minflt(&mut self) -> u64 {
        let Some(f) = self.stat.as_mut() else {
            return 0;
        };
        let mut buf = String::with_capacity(512);
        if f.seek(SeekFrom::Start(0)).is_err() || f.read_to_string(&mut buf).is_err() {
            return 0;
        }
        // The command name (field 2) may hold spaces; fields after its
        // closing parenthesis start at field 3.
        buf.rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(7))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children never overlap, since ops run on one
/// thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Render spans as a JSON array (one object per line).
pub fn spans_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let parent = s.parent.map(|p| p as u64);
        let _ = write!(
            out,
            "    {{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"minflt\":{}",
            s.name,
            opt(s.op),
            opt(parent),
            s.start_ns,
            s.end_ns,
            self_ns[i],
            s.minflt,
        );
        let o = &s.obs;
        if *o != ObsDelta::default() {
            let _ = write!(
                out,
                ",\"obs\":{{\"heap_pop\":{},\"heap_pop_wall_ns\":{},\"net_run_wall_ns\":{},\"bucket_rotations\":{},\"pool_hit\":{},\"pool_miss\":{}}}",
                o.heap_pop, o.heap_pop_wall_ns, o.net_run_wall_ns, o.bucket_rotations, o.pool_hit, o.pool_miss
            );
        }
        if !s.notes.is_empty() {
            out.push_str(",\"notes\":{");
            for (j, (k, v)) in s.notes.iter().enumerate() {
                let _ = write!(out, "{}\"{k}\":{v}", if j > 0 { "," } else { "" });
            }
            out.push('}');
        }
        out.push('}');
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_tracer_records_nothing() {
        let _g = crate::OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut tr = Tracer::new(false);
        tr.set_active(true);
        let v = tr.op(3, |tr| {
            tr.span("x", |tr| {
                tr.note("k", 1);
                7
            })
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert!(!counters::enabled());
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            op: Some(0),
            parent,
            start_ns,
            end_ns,
            minflt: 0,
            obs: ObsDelta::default(),
            notes: Vec::new(),
        };
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("c", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }
}
