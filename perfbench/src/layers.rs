//! Per-layer metrics, derived from a traced run's spans. The layers are
//! the crates.
//!
//! Every traced result carries every per-layer metric, so a layer that
//! a workload never calls reads 0 there. Per-layer metrics have no
//! bound, so a 0 is a reading, not the base of a share.
//!
//! Times are unscaled wall time per traced op, or of the one set-up.
//! Counts that are pure functions of the seeds average the first
//! [`COUNT_OPS`] traced ops, so they repeat exactly between runs.

use crate::run::{Metric, Outcome, COUNT_OPS};
use crate::trace::Span;
use crate::workloads::FABRIC_CALLS;

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.compare_ms", "ms"),
    ("gpu-sim.spa_ms", "ms"),
    ("gpu-sim.ao_ms", "ms"),
    ("gpu-sim.sptr_ms", "ms"),
    ("gpu-sim.gbps_computed", "GB/s"),
    ("summation.exact_sum_ms", "ms"),
    ("net.events", "events/op"),
    ("net.pop_ms", "ms"),
    ("net.run_ms", "ms"),
    ("net.rotations_per_event", "slots/event"),
    ("net.fg_msgs", "msgs/op"),
    ("net.bg_msgs", "msgs/op"),
    ("net.bg_drop_frac", "fraction"),
    ("net.topology_build_ms", "ms"),
    ("collectives.allreduce_ms.tree4.fat_tree", "ms"),
    ("collectives.allreduce_ms.tree4.hierarchy", "ms"),
    ("collectives.allreduce_ms.ring.fat_tree", "ms"),
    ("collectives.allreduce_ms.ring.hierarchy", "ms"),
    ("collectives.allreduce_ms.hier.fat_tree", "ms"),
    ("collectives.allreduce_ms.hier.hierarchy", "ms"),
    ("collectives.outside_run_ms", "ms"),
    ("collectives.fg_bytes", "bytes/op"),
    ("collectives.pool_misses", "requests/op"),
    ("collectives.minflt", "faults/op"),
    ("collectives.reference_ms", "ms"),
    ("nn.train_epoch_ms", "ms"),
    ("nn.predict_ms", "ms"),
    ("nn.minflt", "faults/op"),
    ("nn.dataset_ms", "ms"),
    ("nn.reference_train_ms", "ms"),
    ("obs.overhead_frac", "fraction"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of `field` over the spans named one of `names`.
fn total<'a>(
    spans: impl Iterator<Item = &'a Span>,
    names: &[&str],
    field: impl Fn(&Span) -> u64,
) -> u64 {
    spans.filter(|s| names.contains(&s.name)).map(field).sum()
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let spans = o.tracer.spans();
    let traced_ops = o.traced.iter().filter(|&&t| t).count() as f64;
    // Ops whose counts are reported: the first COUNT_OPS traced ones.
    let count_ops: Vec<u64> = (0u64..)
        .zip(&o.traced)
        .filter(|(_, &t)| t)
        .map(|(i, _)| i)
        .take(COUNT_OPS)
        .collect();
    let count_n = count_ops.len() as f64;
    let traced = || spans.iter().filter(|s| s.op.is_some());
    let counted = || {
        spans
            .iter()
            .filter(|s| s.op.is_some_and(|op| count_ops.contains(&op)))
    };
    // Per traced op: ms of `field` (a nanosecond count) summed over the
    // spans named one of `names`.
    let ms_per_op = |names: &[&str], field: fn(&Span) -> u64| {
        ratio(total(traced(), names, field) as f64 / 1e6, traced_ops)
    };
    // Set-up: ms of the set-up span called `name`.
    let setup_ms = |name: &str| {
        let setup = spans.iter().filter(|s| s.op.is_none());
        total(setup, &[name], Span::dur_ns) as f64 / 1e6
    };
    // Per count op: a fact of the op span (counters or notes).
    let counted_sum = |field: &dyn Fn(&Span) -> u64| total(counted(), &["op"], field) as f64;
    let events = counted_sum(&|s| s.obs.heap_pop);
    let bg_msgs = counted_sum(&|s| s.note("bg_msgs"));
    let bg_dropped = counted_sum(&|s| s.note("bg_dropped"));
    let calls_ns = total(traced(), &FABRIC_CALLS, Span::dur_ns);
    let calls_run_ns = total(traced(), &FABRIC_CALLS, |s| s.obs.net_run_wall_ns);
    let launches = [
        "gpu-sim.reduce.spa",
        "gpu-sim.reduce.ao",
        "gpu-sim.reduce.sptr",
    ];
    let launch_bytes = total(traced(), &["op"], |s| s.note("bytes"));
    let faults_per_op =
        |names: &[&str]| ratio(total(traced(), names, |s| s.minflt) as f64, traced_ops);

    // Tracing overhead: traced against untraced op throughput.
    let (mut t_ms, mut t_n, mut u_ms, mut u_n) = (0.0, 0.0, 0.0, 0.0);
    for (ms, &t) in o.op_ms.iter().zip(&o.traced) {
        if t {
            (t_ms, t_n) = (t_ms + ms, t_n + 1.0);
        } else {
            (u_ms, u_n) = (u_ms + ms, u_n + 1.0);
        }
    }
    let overhead = if t_n > 0.0 && u_n > 0.0 {
        1.0 - (t_n / t_ms) / (u_n / u_ms)
    } else {
        0.0
    };

    let values = [
        ms_per_op(&["core.compare"], Span::dur_ns),
        ms_per_op(&[launches[0]], Span::dur_ns),
        ms_per_op(&[launches[1]], Span::dur_ns),
        ms_per_op(&[launches[2]], Span::dur_ns),
        ratio(
            launch_bytes as f64,
            total(traced(), &launches, Span::dur_ns) as f64,
        ),
        ms_per_op(&["summation.exact_sum"], Span::dur_ns),
        ratio(events, count_n),
        ms_per_op(&["op"], |s| s.obs.heap_pop_wall_ns),
        ms_per_op(&["op"], |s| s.obs.net_run_wall_ns),
        ratio(counted_sum(&|s| s.obs.bucket_rotations), events),
        ratio(counted_sum(&|s| s.note("fg_msgs")), count_n),
        ratio(bg_msgs, count_n),
        ratio(bg_dropped, bg_msgs + bg_dropped),
        setup_ms("net.topology_build"),
        ms_per_op(&[FABRIC_CALLS[0]], Span::dur_ns),
        ms_per_op(&[FABRIC_CALLS[1]], Span::dur_ns),
        ms_per_op(&[FABRIC_CALLS[2]], Span::dur_ns),
        ms_per_op(&[FABRIC_CALLS[3]], Span::dur_ns),
        ms_per_op(&[FABRIC_CALLS[4]], Span::dur_ns),
        ms_per_op(&[FABRIC_CALLS[5]], Span::dur_ns),
        ratio(
            calls_ns.saturating_sub(calls_run_ns) as f64 / 1e6,
            traced_ops,
        ),
        ratio(counted_sum(&|s| s.note("fg_bytes")), count_n),
        ratio(counted_sum(&|s| s.obs.pool_miss), count_n),
        faults_per_op(&FABRIC_CALLS),
        setup_ms("collectives.reference"),
        ms_per_op(&["nn.train_epoch"], Span::dur_ns),
        ms_per_op(&["nn.predict"], Span::dur_ns),
        faults_per_op(&["nn.train_epoch", "nn.predict"]),
        setup_ms("nn.dataset"),
        setup_ms("nn.reference_train"),
        overhead,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}
