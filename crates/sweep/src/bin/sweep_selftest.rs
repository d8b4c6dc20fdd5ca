//! `sweep_selftest` — a minimal, protocol-complete experiment.
//!
//! Exists so the sharding protocol can be exercised end to end (spawn,
//! shard files, resume, merge, cache) in seconds inside `cargo test`
//! and CI, without paying for a real experiment. Per run it sums a
//! seeded array two ways and reports run statistics plus an exact
//! (error-free) total — enough structure that any merge mistake, seed
//! impurity, or lossy serialization shows up as changed report bytes.
//!
//! Flags: `--runs N` (default 12), `--len L` (default 1000), `--seed S`
//! (default 7), plus the standard sweep protocol flags
//! (`--emit-spec` / `--shard-id …` / `--from-shards …`).

use std::process::ExitCode;

use fpna_core::harness::RunSummary;
use fpna_core::rng::{derive_seed, SplitMix64};
use fpna_summation::{kahan_sum, serial_sum, ExactAccumulator};
use fpna_sweep::cli::{usage_error, Args};
use fpna_sweep::mode::SweepMode;
use fpna_sweep::rows::{f64_to_hex, SweepRows};
use fpna_sweep::spec::SweepSpec;

fn compute(spec: &SweepSpec, range: std::ops::Range<usize>, len: usize, seed: u64) -> SweepRows {
    let mut rows = SweepRows::new();
    for run in range {
        // Seed by GLOBAL run index: the work at run r is identical no
        // matter which process computes it.
        let mut rng = SplitMix64::new(derive_seed(seed, run as u64));
        let xs: Vec<f64> = (0..len).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
        rows.push("sums", run, vec![serial_sum(&xs), kahan_sum(&xs), xs[0]]);
    }
    debug_assert!(rows.is_empty() || rows.cell_count() == 1, "{spec:?}");
    rows
}

fn report(spec: &SweepSpec, rows: &SweepRows, len: usize, seed: u64) {
    println!(
        "sweep selftest: runs={} len={len} seed={seed}",
        spec.runs
    );
    let mut exact = ExactAccumulator::new();
    for v in rows.column("sums", 0) {
        exact.add(v);
    }
    let total = exact.round();
    println!("exact total of serial sums: {} ({total:.17e})", f64_to_hex(total));
    for (label, col) in [("serial", 0), ("kahan", 1), ("first", 2)] {
        let s: RunSummary = rows.run_summary("sums", col);
        println!(
            "{label}: runs={} mean={} min={} max={} std={}",
            s.runs,
            f64_to_hex(s.mean),
            f64_to_hex(s.min),
            f64_to_hex(s.max),
            f64_to_hex(s.std_dev),
        );
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let mode = SweepMode::from_args(&mut args);
    let runs = args.value("runs", "an integer").unwrap_or(12);
    let len = args.value("len", "an integer").unwrap_or(1000);
    if len == 0 {
        usage_error("--len must be at least 1, got 0");
    }
    let seed = args.value("seed", "an integer").unwrap_or(7);
    args.finish();

    let spec = SweepSpec::new("sweep_selftest", runs)
        .arg("len", len)
        .arg("seed", seed);
    mode.run(&spec, |range| compute(&spec, range, len, seed), |rows| {
        report(&spec, rows, len, seed);
        true
    })
}
