//! The closed loop: one worker thread sets the workload up, warms it
//! up, then issues ops back to back until the time budget is spent,
//! sampling the host's speed between ops.

use std::time::Instant;

use crate::host::{self, HostSpeed};
use crate::stats::tail_percentile;
use crate::trace::{peak_rss_mb, Tracer};
use crate::workloads::{op_seed, Kind};

/// Timed ops a run needs before its p90 has ten samples beyond it.
pub const P90_OPS: u64 = 100;
/// Traced ops whose counts the per-layer count metrics average: a fixed
/// prefix, so those counts repeat exactly whatever the run length.
pub const COUNT_OPS: usize = 10;
/// Schedule seed of the warm-up op. Fixed, so that set-up time does not
/// depend on which ops a workload seed happens to draw.
const WARMUP_SEED: u64 = 0x3A7_5EED;
/// Hard stop on the timed phase, so a run ends within its time limit
/// even when the machine is too slow to reach [`P90_OPS`].
const TIMED_CAP_S: f64 = 140.0;

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At least this many seconds, and enough ops for every reported
    /// statistic.
    Seconds(f64),
    /// Exactly this many ops (self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Ops(u64),
}

/// Everything one run measured.
pub struct Outcome {
    /// Wall time from process start to the end of the untimed warm-up
    /// op: inputs, topologies, references and the warm-up.
    pub setup_s: f64,
    pub warmup_ok: bool,
    /// Wall time of each timed op in ms, in op order.
    pub op_ms: Vec<f64>,
    /// Host factor in force during each timed op.
    pub op_host: Vec<f64>,
    /// Whether each timed op was traced.
    pub traced: Vec<bool>,
    pub failed: u64,
    /// The host probe's samples, in ns per dependent load.
    pub load_ns: Vec<f64>,
    pub peak_rss_mb: f64,
    pub tracer: Tracer,
}

/// Run `kind` at `seed`. With `trace`, set-up and every odd op are
/// traced and the even ops are not, so one process measures both the
/// per-layer spans and the tracing overhead.
pub fn run(
    kind: Kind,
    seed: u64,
    tiny: bool,
    stop: Stop,
    trace: bool,
    started: Instant,
) -> Outcome {
    let mut tr = Tracer::new(trace);
    tr.set_active(true);
    let mut w = tr.span("setup", |tr| kind.build(seed, tiny, tr));
    let warmup_ok = tr.span("setup.warmup", |tr| w.op(0, WARMUP_SEED, tr));
    tr.set_active(false);
    let setup_s = started.elapsed().as_secs_f64();
    // The probe's ring is built after set-up and stays resident to the
    // end, so it adds exactly its own size to any later peak.
    let setup_peak = peak_rss_mb().unwrap_or(0.0);
    let mut host = HostSpeed::new();

    let min_ops = if trace { 2 * COUNT_OPS as u64 } else { P90_OPS };
    let (mut op_ms, mut op_host, mut traced, mut failed) = (vec![], vec![], vec![], 0u64);
    let t_start = Instant::now();
    for i in 0.. {
        let elapsed = t_start.elapsed().as_secs_f64();
        let more = match stop {
            Stop::Ops(n) => i < n,
            Stop::Seconds(s) => (elapsed < s || i < min_ops) && elapsed < TIMED_CAP_S,
        };
        if !more {
            break;
        }
        host.sample_if_due();
        let on = trace && i % 2 == 1;
        tr.set_active(on);
        let t0 = Instant::now();
        let ok = tr.op(i, |tr| w.op(i, op_seed(seed, i), tr));
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.set_active(false);
        op_host.push(host.factor());
        traced.push(on);
        failed += u64::from(!ok);
    }
    let end_peak = peak_rss_mb().unwrap_or(0.0) - host::RING_MIB;
    Outcome {
        setup_s,
        warmup_ok,
        op_ms,
        op_host,
        traced,
        failed,
        load_ns: host.samples().to_vec(),
        peak_rss_mb: setup_peak.max(end_peak),
        tracer: tr,
    }
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a user of the suite feels, from an untraced run, with each wall
/// time scaled to the reference host (see `host.rs`): an op's by the
/// host factor in force when it ran, set-up's by the run's median
/// sample, the steadiest estimate of the host's speed around that time.
/// Refuses a p90 with fewer than ten ops beyond it. Also returns the
/// number of ops beyond the p90.
pub fn end_to_end(o: &Outcome) -> Result<(Vec<Metric>, usize), String> {
    let scaled_ms: Vec<f64> = o
        .op_ms
        .iter()
        .zip(&o.op_host)
        .map(|(ms, h)| ms * h)
        .collect();
    let (p90, beyond) = tail_percentile(&scaled_ms, 0.9)?;
    let busy_s = scaled_ms.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        Metric::new("runs_per_s", scaled_ms.len() as f64 / busy_s, "runs/s"),
        Metric::new("run_ms_p90", p90, "ms"),
        Metric::new("setup_s", o.setup_s * host::factor(&o.load_ns), "s"),
        Metric::new("peak_rss_mb", o.peak_rss_mb, "MB"),
    ];
    Ok((metrics, beyond))
}
