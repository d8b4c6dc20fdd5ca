//! Performance regression gate over the criterion shim's JSON output.
//!
//! `cargo bench -p fpna-bench` makes every suite append per-benchmark
//! rows (`{"id", "median_ns", …}`) under `<target>/bench-json/`. This
//! binary compares those rows against the committed baseline and
//! fails (exit 1) when any benchmark regressed by more than the
//! threshold. Result files whose bench source (`benches/<stem>.rs`)
//! no longer exists are pruned on read, so renamed or deleted suites
//! drop out of both the gate and `--update`d baselines instead of
//! lingering as stale rows. Rows are read and written with
//! `fpna_obs::json`; a line that is not a row fails the gate with its
//! file and line number.
//!
//! Because the baseline is committed from one machine and CI runs on
//! another, raw nanoseconds are not comparable; the gate therefore
//! normalises by a **machine factor** — the median of all
//! current/baseline ratios. A genuine hot-path regression moves its
//! own ratio far off that median; a uniformly slower machine moves
//! every ratio together and passes. (The flip side: a change that
//! slows *every* benchmark by the same factor is invisible — accepted
//! and documented trade-off for cross-machine stability.)
//!
//! ```text
//! cargo bench -p fpna-bench                      # produce current numbers
//! cargo run --release -p fpna-bench --bin bench_gate             # gate
//! cargo run --release -p fpna-bench --bin bench_gate -- --update # re-baseline
//! ```
//!
//! **Per-suite thresholds.** A benchmark's suite is its id prefix
//! before the first `/`. Suites dominated by the event-driven network
//! simulator (`allreduce_net`) or by whole training epochs (`gnn`)
//! are intrinsically noisier than the tight summation kernels, so
//! they gate at a looser factor ([`SUITE_THRESHOLDS`], applied as a
//! minimum on top of `--threshold` — raising the global threshold
//! raises every gate); everything else uses the default.
//! `--suite-threshold suite=factor` (repeatable) overrides either
//! exactly from the command line.
//!
//! Flags: `--threshold <factor>` (default 1.25 = +25%),
//! `--suite-threshold <suite>=<factor>`, `--baseline <path>`,
//! `--update`. Any other argument, or a value the gate cannot use,
//! exits 2 with one `error: …` line before anything is read.

use fpna_core::report::Table;
use fpna_sweep::cli::{usage_error, Args};
use fpna_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default per-suite regression thresholds for suites that are known
/// to be noisier than the microbenchmark kernels. Everything not
/// listed gates at `--threshold`.
const SUITE_THRESHOLDS: &[(&str, f64)] = &[
    // Event-driven interconnect simulation: run time depends on a
    // binary-heap event order, allocator behaviour and topology size —
    // medians move much more than the flat summation loops.
    ("allreduce_net", 1.6),
    ("allreduce_mem", 1.4),
    // Whole GNN training epochs / inference passes per iteration.
    ("gnn", 1.4),
    // The sweep store rows are filesystem-bound (atomic writes +
    // directory scans), so their medians track disk latency, not code.
    ("sweep", 1.6),
];

/// Suites that run in CI (compile + execute, so they cannot bit-rot)
/// but are **never** timing-gated: their rows are dropped from both
/// the comparison and `--update`, so they can neither regress the gate
/// nor sneak into the committed baseline. Currently the raw
/// event-engine microbenchmarks, which the end-to-end `allreduce_net`
/// suite already covers.
const UNGATED_SUITES: &[&str] = &["net_engine"];

/// The gating threshold for a benchmark id: an explicit
/// `--suite-threshold` override wins outright; otherwise the built-in
/// suite values act as *looser minimums* on top of `--threshold`
/// (`max`), so raising the global threshold raises every gate and
/// never silently tightens a noisy suite below its floor.
/// [`threshold_for`]'s second return: where the applied limit came
/// from, so a failing row can name the exact rule that gated it.
fn threshold_for(id: &str, default: f64, overrides: &[(String, f64)]) -> (f64, String) {
    let suite = id.split('/').next().unwrap_or(id);
    if let Some(&(_, t)) = overrides.iter().find(|(s, _)| s == suite) {
        return (t, format!("--suite-threshold override for suite '{suite}'"));
    }
    match SUITE_THRESHOLDS.iter().find(|&&(s, _)| s == suite) {
        Some(&(_, t)) if t > default => {
            (t, format!("built-in noisy-suite floor for '{suite}'"))
        }
        Some(_) => (default, format!("--threshold (above the '{suite}' suite floor)")),
        None => (default, "--threshold default".to_string()),
    }
}

/// One `--suite-threshold suite=factor` value.
fn suite_threshold(v: &str) -> (String, f64) {
    match v.split_once('=').map(|(suite, factor)| (suite, factor.parse())) {
        Some((suite, Ok(factor))) if !suite.is_empty() => (suite.to_string(), factor),
        _ => usage_error(format!("--suite-threshold expects suite=factor, got {v:?}")),
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let threshold = args.value("threshold", "a number").unwrap_or(1.25);
    let overrides: Vec<(String, f64)> =
        args.values("suite-threshold").iter().map(|v| suite_threshold(v)).collect();
    let update = args.flag("update");
    let baseline_path = args.value("baseline", "a path").unwrap_or_else(default_baseline_path);
    args.finish();

    let current = match read_current() {
        Ok(map) if !map.is_empty() => map,
        Ok(_) => {
            eprintln!("bench_gate: no rows under <target>/bench-json/ — run `cargo bench -p fpna-bench` first");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("bench_gate: cannot read current results: {e}");
            return ExitCode::FAILURE;
        }
    };

    if update {
        if let Some(dir) = baseline_path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&baseline_path, render_rows(&current)) {
            eprintln!("bench_gate: cannot write baseline {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!("bench_gate: wrote {} entries to {}", current.len(), baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_rows(&baseline_path, &text) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("bench_gate: cannot read baseline {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read baseline {}: {e}\n  (run with --update to create it)",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let mut ratios: Vec<f64> = Vec::new();
    for (id, &cur) in &current {
        if let Some(&base) = baseline.get(id) {
            if base > 0 {
                ratios.push(cur as f64 / base as f64);
            }
        }
    }
    if ratios.is_empty() {
        eprintln!("bench_gate: baseline and current results share no benchmark ids");
        return ExitCode::FAILURE;
    }
    ratios.sort_by(f64::total_cmp);
    let machine = ratios[ratios.len() / 2];

    let mut table = Table::new(["benchmark", "baseline ns", "current ns", "ratio", "normalized", "limit", "status"])
        .with_title(format!(
            "bench_gate: machine factor {machine:.3} (median ratio), default threshold +{:.0}% (per-suite overrides apply)",
            (threshold - 1.0) * 100.0
        ));
    let mut regressions = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for (id, &cur) in &current {
        let Some(&base) = baseline.get(id) else {
            table.push_row([id.clone(), "-".into(), cur.to_string(), "-".into(), "-".into(), "-".into(), "new (re-baseline)".into()]);
            continue;
        };
        let ratio = cur as f64 / base as f64;
        let normalized = ratio / machine;
        let (limit, limit_source) = threshold_for(id, threshold, &overrides);
        let status = if normalized > limit {
            regressions += 1;
            failures.push(format!(
                "  {id}: normalized {normalized:.3} > limit {limit:.2} ({limit_source}); \
                 raw ratio {ratio:.3} / machine factor {machine:.3}"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        table.push_row([
            id.clone(),
            base.to_string(),
            cur.to_string(),
            format!("{ratio:.3}"),
            format!("{normalized:.3}"),
            format!("{limit:.2}"),
            status.to_string(),
        ]);
    }
    let mut missing = 0usize;
    for id in baseline.keys() {
        if !current.contains_key(id) {
            missing += 1;
            table.push_row([id.clone(), baseline[id].to_string(), "-".into(), "-".into(), "-".into(), "-".into(), "MISSING".into()]);
        }
    }
    println!("{}", table.render());

    if regressions > 0 || missing > 0 {
        if regressions > 0 {
            eprintln!(
                "bench_gate: {regressions} benchmark(s) regressed past their normalized per-suite \
                 threshold (normalized = raw ratio / machine factor {machine:.3}, the median of \
                 {} current/baseline ratios):",
                ratios.len()
            );
            for f in &failures {
                eprintln!("{f}");
            }
        }
        if missing > 0 {
            eprintln!(
                "bench_gate: {missing} baseline benchmark(s) produced no result — \
                 perf coverage was removed; run all suites, or re-baseline with --update \
                 if the removal is intentional"
            );
        }
        return ExitCode::FAILURE;
    }
    println!("bench_gate: no regressions");
    ExitCode::SUCCESS
}

/// `<manifest>/baselines/bench-baseline.json`; cargo sets
/// `CARGO_MANIFEST_DIR` for `cargo run`, so the committed baseline
/// resolves regardless of the working directory.
fn default_baseline_path() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| "crates/bench".to_string());
    Path::new(&manifest).join("baselines/bench-baseline.json")
}

/// Live bench-suite stems: one per `benches/<stem>.rs` source. The
/// shim names its result file after the bench target, so this is the
/// ground truth for which `<target>/bench-json/` files are current.
/// `None` when the benches directory can't be read (e.g. the gate
/// binary was copied out of the repo) — then no pruning happens.
fn live_suites() -> Option<std::collections::BTreeSet<String>> {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "crates/bench".to_string());
    let entries = std::fs::read_dir(Path::new(&manifest).join("benches")).ok()?;
    let mut stems = std::collections::BTreeSet::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "rs") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                stems.insert(stem.to_string());
            }
        }
    }
    Some(stems)
}

/// All rows from every `<target>/bench-json/*.json` file, minus the
/// deliberately ungated suites — and minus files whose bench source
/// no longer exists. Result files outlive their suites (`cargo bench`
/// never deletes them), so without the prune a renamed or removed
/// suite would keep feeding stale rows into the gate and, worse, into
/// every `--update`d baseline.
fn read_current() -> Result<BTreeMap<String, u128>, String> {
    let Some(dir) = target_dir().map(|t| t.join("bench-json")) else {
        return Ok(BTreeMap::new());
    };
    let live = live_suites();
    let mut map = BTreeMap::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        if let Some(live) = &live {
            if !live.contains(stem) {
                eprintln!(
                    "bench_gate: ignoring stale result file {} (no benches/{stem}.rs)",
                    path.display()
                );
                continue;
            }
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        map.extend(parse_rows(&path, &text)?);
    }
    map.retain(|id, _| {
        let suite = id.split('/').next().unwrap_or(id);
        !UNGATED_SUITES.contains(&suite)
    });
    Ok(map)
}

fn target_dir() -> Option<PathBuf> {
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors() {
            if dir.file_name().is_some_and(|n| n == "target") {
                return Some(dir.to_path_buf());
            }
        }
    }
    std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from)
}

/// Parse the shim's JSON lines, one `{"id", "median_ns", …}` object
/// per line; blank lines are skipped. A line that is not such a row is
/// an error naming `path` and the line number.
fn parse_rows(path: &Path, text: &str) -> Result<BTreeMap<String, u128>, String> {
    let mut map = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = json::parse(line).and_then(|v| {
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .ok_or("missing string \"id\"")?;
            let ns = v
                .get("median_ns")
                .and_then(Value::as_u64)
                .ok_or("missing integer \"median_ns\"")?;
            Ok((id.to_string(), u128::from(ns)))
        });
        let (id, ns) = row.map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        map.insert(id, ns);
    }
    Ok(map)
}

/// The baseline file `--update` writes: one `{"id","median_ns"}` row
/// per line, in id order.
fn render_rows(rows: &BTreeMap<String, u128>) -> String {
    let mut out = String::new();
    for (id, &ns) in rows {
        let row = Value::Obj(vec![
            ("id".into(), Value::Str(id.clone())),
            ("median_ns".into(), Value::Num(ns as f64)),
        ]);
        out.push_str(&row.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../baselines/bench-baseline.json");

    #[test]
    fn committed_baseline_round_trips_byte_for_byte() {
        let rows = parse_rows(Path::new("bench-baseline.json"), BASELINE).unwrap();
        assert_eq!(rows.len(), 62);
        assert_eq!(render_rows(&rows), BASELINE);
    }

    #[test]
    fn malformed_lines_name_the_file_and_line() {
        let path = Path::new("suite.json");
        let good = "{\"id\":\"a/b\",\"median_ns\":5,\"mean_ns\":6,\"samples\":10}\n\n";
        assert_eq!(parse_rows(path, good).unwrap()["a/b"], 5);
        for bad in [
            "{\"id\":\"a/b\",\"median_ns\":5",
            "{\"id\":\"a/b\"}",
            "{\"median_ns\":5}",
        ] {
            let err = parse_rows(path, &format!("{good}{bad}\n")).unwrap_err();
            assert!(err.starts_with("suite.json:3: "), "{err}");
        }
    }
}
