//! Closed-loop wall-clock benchmark of the FPNA suite.
//!
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml --
//!  --workload gpu_reduce|fabric_contended|fabric_exact|gnn_train
//!  [--seed 1] [--seconds 20] [--trace 0|1]`
//!
//! One process, one worker thread, ops issued back to back. Untraced
//! (`--trace 0`), it prints the end-to-end metrics; traced (`--trace
//! 1`), the per-layer ones, and it writes every span to
//! `perfbench/out/trace-<workload>-seed<seed>.json`. End-to-end wall
//! times are scaled to a reference host by a memory-latency probe
//! sampled between ops (`host.rs`). Every op's output is checked; the
//! last stdout line is the JSON result.

mod cpu;
mod host;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use run::{Metric, Outcome, Stop};
use workloads::Kind;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The `fpna-obs` switches are process-global: tests that run workloads
/// or flip the switches take turns.
#[cfg(test)]
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names = Kind::ALL.map(Kind::name).join("|");
                kind = Some(Kind::parse(&value).ok_or_else(|| bad(&names))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// `metrics` as a JSON object of `{"value", "unit"}` objects.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0 && o.warmup_ok,
        o.op_ms.len(),
        o.failed,
        metrics_json(metrics)
    )
}

/// Write the traced run's spans and derived metrics to one JSON file.
fn write_trace(
    args: &Args,
    o: &Outcome,
    metrics: &[Metric],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
    let spans = o.tracer.spans();
    let self_ns = trace::self_times_ns(spans);
    let traced_ops = o.traced.iter().filter(|&&t| t).count().max(1) as f64;
    let mut self_ms: std::collections::BTreeMap<&str, f64> = Default::default();
    for (s, ns) in spans.iter().zip(&self_ns) {
        if s.op.is_some() {
            *self_ms.entry(s.name).or_default() += *ns as f64 / 1e6 / traced_ops;
        }
    }
    let mut out = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"ops\": {},\n  \"traced_ops\": {},\n  \"metrics\": {},\n  \"self_ms_per_traced_op\": {{",
        args.kind.name(),
        args.seed,
        o.op_ms.len(),
        traced_ops,
        metrics_json(metrics)
    );
    for (i, (name, ms)) in self_ms.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\n    \"{name}\": {ms:?}");
    }
    out.push_str("\n  },\n  \"op_ms\": [");
    for (i, (ms, t)) in o.op_ms.iter().zip(&o.traced).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}[{ms:?},{}]", u8::from(*t));
    }
    let _ = write!(out, "],\n  \"spans\": {}\n}}\n", trace::spans_json(spans));
    std::fs::write(&path, out)?;
    Ok(path)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match cpu::pin_last() {
        Some(cpu) => eprintln!("perfbench: worker pinned to CPU {cpu}"),
        None => eprintln!("perfbench: worker not pinned; the scheduler places it"),
    }
    let o = run::run(
        args.kind,
        args.seed,
        false,
        Stop::Seconds(args.seconds),
        args.trace,
        started,
    );
    let metrics = if args.trace {
        layers::per_layer(&o)
    } else {
        match run::end_to_end(&o) {
            Ok((m, beyond)) => {
                println!("run_ms_p90 has {beyond} of {} ops beyond it", o.op_ms.len());
                m
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not finite ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    if args.trace {
        match write_trace(&args, &o, &metrics) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let busy_s = o.op_ms.iter().sum::<f64>() / 1e3;
    println!(
        "{} seed {}: {} ops, {} failed; unscaled wall times: {:.3} runs/s, median op {:.3} ms, set-up {:.4} s; host {:.1} ns per dependent load (median)",
        args.kind.name(),
        args.seed,
        o.op_ms.len(),
        o.failed,
        o.op_ms.len() as f64 / busy_s,
        stats::median(&o.op_ms).unwrap_or(0.0),
        o.setup_s,
        stats::median(&o.load_ns).unwrap_or(0.0),
    );
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&o, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind, ops: u64, trace: bool) -> Outcome {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        run::run(kind, 7, true, Stop::Ops(ops), trace, Instant::now())
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        let o = tiny(Kind::GpuReduce, 100, false);
        let (e2e, _) = run::end_to_end(&o).unwrap();
        let names: Vec<&str> = e2e
            .iter()
            .map(|m| m.name)
            .chain(layers::PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names repeat");
        assert!(!valid_name("net events") && !valid_name(".x") && !valid_name("a/b"));

        // BENCHMARK.json declares exactly the metrics the program prints.
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(spec).expect("BENCHMARK.json sits beside perfbench/");
        let units = e2e.iter().map(|m| (m.name, m.unit));
        for (name, unit) in units.chain(layers::PER_LAYER.iter().copied()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"unit\": ").count(), names.len());
    }

    #[test]
    fn tiny_runs_are_finite_and_correct() {
        for kind in Kind::ALL {
            let o = tiny(kind, 100, false);
            assert!(o.warmup_ok, "{}", kind.name());
            assert_eq!(o.failed, 0, "{}", kind.name());
            for m in run::end_to_end(&o).unwrap().0 {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{}: {m:?}",
                    kind.name()
                );
            }
            let o = tiny(kind, 2 * run::COUNT_OPS as u64, true);
            assert_eq!(o.failed, 0, "{}", kind.name());
            let layer = layers::per_layer(&o);
            assert_eq!(layer.len(), layers::PER_LAYER.len());
            for m in &layer {
                assert!(m.value.is_finite(), "{}: {m:?}", kind.name());
            }
            assert!(result_json(&o, &layer).starts_with("{\"correct\": true, \"attempted\": 20,"));
        }
    }

    /// `net.events`, `net.fg_msgs`, `net.bg_msgs` and
    /// `collectives.pool_misses` of every traced op.
    fn per_op_counts(o: &Outcome) -> Vec<(u64, [u64; 4])> {
        o.tracer
            .spans()
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| {
                (
                    s.op.unwrap(),
                    [
                        s.obs.heap_pop,
                        s.note("fg_msgs"),
                        s.note("bg_msgs"),
                        s.obs.pool_miss,
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let a = per_op_counts(&tiny(Kind::FabricContended, 8, true));
        let b = per_op_counts(&tiny(Kind::FabricContended, 8, true));
        assert_eq!(a.len(), 4);
        assert!(
            a.iter().all(|(_, counts)| counts.iter().all(|&c| c > 0)),
            "{a:?}"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload fabric_exact --seed 5 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::FabricExact, 5, 3.0, true)
        );
        assert_eq!(parse("--workload gnn_train").unwrap().seed, DEFAULT_SEED);
        for bad in [
            "",
            "--workload nope",
            "--workload gpu_reduce --trace 2",
            "--seed",
            "--workload gpu_reduce --seconds 0",
            "--x 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
