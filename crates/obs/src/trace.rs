//! Simulated-clock tracing in the Chrome trace-event format.
//!
//! Events record *simulated* nanosecond timestamps (the discrete-event
//! clock), never wall time, so a trace is a pure function of
//! `(seed, config)`. Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing` open the exported JSON directly.
//!
//! Track conventions used by the FPNA stack:
//!
//! * `pid` — one process group per fanned-out run (global
//!   `run_index + 1`), pid 0 for code outside a run fan-out. Set via
//!   [`set_current_pid`] / read via [`current_pid`].
//! * `tid` — links occupy tids `[0, num_links)` so each physical link
//!   renders as its own lane (queueing and ECMP path choice are
//!   visible as which lane a message's hops land on); ranks occupy
//!   [`RANK_TID_BASE`]`+ rank`; collective chunks occupy
//!   [`CHUNK_TID_BASE`]`+ chunk`.
//!
//! Threads buffer events locally (one mutex-protected `Vec` per OS
//! thread, registered globally on first use) and [`export_json`]
//! renders everything in a canonical order — sorted by
//! `(pid, ts, tid, phase, rendered-json)` — so the output bytes do not
//! depend on worker-thread scheduling.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;

/// Link lanes start at tid 0; keep rank/chunk lanes clear of them.
pub const RANK_TID_BASE: u64 = 1_000_000;
/// Per-chunk protocol lanes for segmented collectives.
pub const CHUNK_TID_BASE: u64 = 2_000_000;

/// Trace-event phase (subset of the Chrome trace-event spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`); must be matched by an `End` on the same track.
    Begin,
    /// Span end (`"E"`).
    End,
    /// Complete span (`"X"`) with an explicit duration.
    Complete,
    /// Instant (`"i"`).
    Instant,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
            Phase::Instant => "i",
        }
    }

    /// Orders same-timestamp events on a track: begins before
    /// completes/instants before ends, so zero-length nesting stays valid.
    fn sort_rank(self) -> u8 {
        match self {
            Phase::Begin => 0,
            Phase::Complete | Phase::Instant => 1,
            Phase::End => 2,
        }
    }
}

/// A typed argument value rendered into the event's `args` object.
#[derive(Debug, Clone)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// One buffered trace event, timestamps in simulated nanoseconds.
/// Timestamps are `f64` because the discrete-event clock is `f64`
/// (jitter and tenant gaps produce fractional ns); rendering divides
/// by 1000 and prints the shortest round-trip decimal, which is a
/// deterministic function of the bits.
#[derive(Debug, Clone)]
pub struct Event {
    pub pid: u64,
    pub tid: u64,
    pub ph: Phase,
    pub ts_ns: f64,
    /// Only rendered for [`Phase::Complete`].
    pub dur_ns: f64,
    pub name: Cow<'static, str>,
    pub cat: &'static str,
    pub args: Vec<(&'static str, ArgValue)>,
}

type Buf = Arc<Mutex<Vec<Event>>>;

#[derive(Default)]
struct Registry {
    bufs: Vec<Buf>,
    process_names: BTreeMap<u64, String>,
    thread_names: BTreeMap<(u64, u64), String>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

thread_local! {
    static LOCAL: RefCell<Option<Buf>> = const { RefCell::new(None) };
    static CUR_PID: Cell<u64> = const { Cell::new(0) };
}

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default))
}

/// Whether tracing is on. Hot loops cache this once per run.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable tracing, discarding any previously buffered events.
pub fn start() {
    clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disable tracing. Buffered events stay available for export.
pub fn stop() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Drop all buffered events and track names.
pub fn clear() {
    with_registry(|reg| {
        for buf in &reg.bufs {
            buf.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        reg.process_names.clear();
        reg.thread_names.clear();
    });
}

/// The trace pid for events emitted by this thread (0 outside a run).
#[inline]
pub fn current_pid() -> u64 {
    CUR_PID.get()
}

/// Set the trace pid for this thread; `fpna_core`'s `map_runs` points
/// it at the global `run_index + 1` for the duration of each run.
#[inline]
pub fn set_current_pid(pid: u64) {
    CUR_PID.set(pid);
}

/// Buffer an event. Callers normally guard with a cached
/// [`enabled`] flag so the disabled path never constructs `Event`s.
pub fn emit(ev: Event) {
    if !enabled() {
        return;
    }
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf: Buf = Arc::new(Mutex::new(Vec::new()));
            with_registry(|reg| reg.bufs.push(Arc::clone(&buf)));
            buf
        });
        buf.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    });
}

/// Emit an instant event on `(pid, tid)` at simulated time `ts_ns`.
pub fn instant(
    pid: u64,
    tid: u64,
    ts_ns: f64,
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    args: Vec<(&'static str, ArgValue)>,
) {
    emit(Event { pid, tid, ph: Phase::Instant, ts_ns, dur_ns: 0.0, name: name.into(), cat, args });
}

/// Emit a complete (`X`) span of `dur_ns` starting at `ts_ns`.
pub fn complete(
    pid: u64,
    tid: u64,
    ts_ns: f64,
    dur_ns: f64,
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    args: Vec<(&'static str, ArgValue)>,
) {
    emit(Event { pid, tid, ph: Phase::Complete, ts_ns, dur_ns, name: name.into(), cat, args });
}

/// Emit a span begin; pair with [`end`] using the same name and track.
pub fn begin(pid: u64, tid: u64, ts_ns: f64, name: impl Into<Cow<'static, str>>, cat: &'static str) {
    emit(Event { pid, tid, ph: Phase::Begin, ts_ns, dur_ns: 0.0, name: name.into(), cat, args: Vec::new() });
}

/// Emit a span end matching an earlier [`begin`].
pub fn end(pid: u64, tid: u64, ts_ns: f64, name: impl Into<Cow<'static, str>>, cat: &'static str) {
    emit(Event { pid, tid, ph: Phase::End, ts_ns, dur_ns: 0.0, name: name.into(), cat, args: Vec::new() });
}

/// Label a pid group in the viewer (idempotent; last write wins).
pub fn name_process(pid: u64, name: impl Into<String>) {
    if !enabled() {
        return;
    }
    with_registry(|reg| {
        reg.process_names.insert(pid, name.into());
    });
}

/// Label a `(pid, tid)` track in the viewer (idempotent; last write wins).
pub fn name_thread(pid: u64, tid: u64, name: impl Into<String>) {
    if !enabled() {
        return;
    }
    with_registry(|reg| {
        reg.thread_names.insert((pid, tid), name.into());
    });
}

/// Number of events currently buffered (metadata records excluded).
pub fn event_count() -> usize {
    with_registry(|reg| {
        reg.bufs
            .iter()
            .map(|b| b.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    })
}

/// Render simulated ns as a Chrome-trace microsecond value. `{}` on
/// `f64` prints the shortest decimal that round-trips, so the output
/// is a pure function of the simulated time bits.
fn render_us(ns: f64, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(out, "{}", ns / 1000.0);
}

fn render_event(ev: &Event, out: &mut String) {
    use std::fmt::Write;
    out.push_str("{\"name\":");
    json::write_str(out, &ev.name);
    let _ = write!(out, ",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":", ev.cat, ev.ph.code(), ev.pid, ev.tid);
    render_us(ev.ts_ns, out);
    if ev.ph == Phase::Complete {
        out.push_str(",\"dur\":");
        render_us(ev.dur_ns, out);
    }
    if ev.ph == Phase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            match v {
                ArgValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                ArgValue::I64(n) => {
                    let _ = write!(out, "{n}");
                }
                ArgValue::F64(x) => {
                    if x.is_finite() {
                        let _ = write!(out, "{x}");
                    } else {
                        let _ = write!(out, "\"{x}\"");
                    }
                }
                ArgValue::Str(s) => json::write_str(out, s),
            }
        }
        out.push('}');
    }
    out.push('}');
}

fn render_metadata(pid: u64, tid: Option<u64>, label: &str, out: &mut String) {
    use std::fmt::Write;
    let kind = if tid.is_some() { "thread_name" } else { "process_name" };
    let _ = write!(out, "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    out.push_str(",\"args\":{\"name\":");
    json::write_str(out, label);
    out.push_str("}}");
}

/// Export every buffered event as a Chrome trace-event JSON document.
///
/// Metadata records come first (process names, then thread names, each
/// in key order); events follow sorted by
/// `(pid, ts, tid, phase-rank, rendered-json)`. Because the event
/// *multiset* is a pure function of the simulation seeds, this
/// canonical order makes the exported bytes scheduling-independent.
pub fn export_json() -> String {
    let (mut rendered, meta) = with_registry(|reg| {
        let mut rendered: Vec<(u64, u64, u64, u8, String)> = Vec::new();
        for buf in &reg.bufs {
            for ev in buf.lock().unwrap_or_else(|e| e.into_inner()).iter() {
                let mut s = String::with_capacity(96);
                render_event(ev, &mut s);
                // Simulated times are non-negative, so the IEEE bit
                // pattern orders identically to the value.
                rendered.push((ev.pid, ev.ts_ns.to_bits(), ev.tid, ev.ph.sort_rank(), s));
            }
        }
        let mut meta = String::new();
        for (pid, label) in &reg.process_names {
            render_metadata(*pid, None, label, &mut meta);
            meta.push_str(",\n");
        }
        for ((pid, tid), label) in &reg.thread_names {
            render_metadata(*pid, Some(*tid), label, &mut meta);
            meta.push_str(",\n");
        }
        (rendered, meta)
    });
    rendered.sort();
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&meta);
    for (i, (.., s)) in rendered.iter().enumerate() {
        out.push_str(s);
        if i + 1 < rendered.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Write the exported trace to `path`, creating parent directories.
pub fn write_json(path: &std::path::Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let n = event_count();
    std::fs::write(path, export_json())?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_emit_buffers_nothing() {
        let _g = LOCK.lock().unwrap();
        stop();
        clear();
        instant(0, 0, 10.0, "x", "t", vec![]);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn export_is_canonical_and_escaped() {
        let _g = LOCK.lock().unwrap();
        start();
        // Emit deliberately out of order; export must sort by (pid, ts).
        complete(1, 3, 2500.0, 500.0, "hop", "net", vec![("bytes", 64u64.into())]);
        instant(0, RANK_TID_BASE, 1000.0, "inject \"q\"", "net", vec![("msg", 7u64.into())]);
        name_thread(1, 3, "L3 rank0→sw4");
        name_process(0, "setup");
        let json = export_json();
        stop();
        clear();
        let inj = json.find("inject").unwrap();
        let hop = json.find("\"hop\"").unwrap();
        assert!(inj < hop, "pid 0 events must precede pid 1:\n{json}");
        assert!(json.contains("\\\"q\\\""), "quotes must be escaped:\n{json}");
        assert!(json.contains("\"ts\":2.5"), "2500 ns is 2.5 us:\n{json}");
        assert!(json.contains("\"dur\":0.5"));
        assert!(json.contains("thread_name"));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn same_ts_begin_sorts_before_end() {
        let _g = LOCK.lock().unwrap();
        start();
        end(1, 5, 100.0, "chunk0", "coll");
        begin(1, 5, 100.0, "chunk0", "coll");
        let json = export_json();
        stop();
        clear();
        let b = json.find("\"ph\":\"B\"").unwrap();
        let e = json.find("\"ph\":\"E\"").unwrap();
        assert!(b < e, "B must sort before E at equal ts:\n{json}");
    }
}
