//! Fig 1: probability density of the scalar variability `Vs` for SPA
//! (non-deterministic) sums of 1M FP64 numbers, for N(0, 1) and
//! U(0, 10) inputs, with SPTR as the deterministic reference. Also
//! prints the §III-C Kullback–Leibler normality criterion and a
//! Jarque–Bera test.
//!
//! Paper scale: 100 arrays × 10 000 SPA runs. Default here: 20 arrays
//! × 200 runs (override with `--arrays` / `--runs`).
//!
//! `cargo run --release -p fpna-bench --bin fig1 [--arrays 20] [--runs 200] [--bins 41]
//!  [--threads N] [--paper-scale]`
//!
//! Speaks the sweep protocol (`--emit-spec` / `--shard-id …` /
//! `--from-shards …`, see `fpna-sweep`): runs are seeded by global run
//! index, so any process sharding merges to byte-identical output.

use std::process::ExitCode;

use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_stats::histogram::Histogram;
use fpna_stats::kl::kl_vs_fitted_normal;
use fpna_stats::normality::jarque_bera;
use fpna_stats::samplers::{Distribution, Sampler};
use fpna_sweep::{SweepRows, SweepSpec};

const N: usize = 1_000_000;

const DISTS: [fn() -> Distribution; 2] = [
    Distribution::standard_normal,
    Distribution::paper_uniform,
];

fn cell(di: usize, a: usize) -> String {
    format!("d{di}/a{a}")
}

/// Per-run `Vs` for every (distribution, array) cell, global runs in
/// `range` only. References (the input arrays and their deterministic
/// SPTR sums) are pure functions of the spec, recomputed per process —
/// cheap next to the run sweep they anchor.
fn compute(range: std::ops::Range<usize>, arrays: usize, seed: u64) -> SweepRows {
    let device = GpuDevice::new(GpuModel::V100);
    let params = KernelParams::fig1();
    let mut rows = SweepRows::new();
    for (di, dist) in DISTS.iter().enumerate() {
        for a in 0..arrays {
            let mut sampler = Sampler::new(dist(), seed ^ ((a as u64) << 20));
            let xs = sampler.sample_vec(N);
            let det = device
                .reduce(ReduceKernel::Sptr, &xs, params, &ScheduleKind::InOrder)
                .unwrap()
                .value;
            let outcomes = device
                .reduce_runs(
                    ReduceKernel::Spa,
                    &xs,
                    params,
                    &ScheduleKind::Seeded(seed ^ (a as u64)),
                    range.clone(),
                )
                .unwrap();
            for (i, out) in outcomes.iter().enumerate() {
                rows.push(
                    &cell(di, a),
                    range.start + i,
                    vec![fpna_core::metrics::scalar_variability(out.value, det)],
                );
            }
        }
    }
    rows
}

/// Print the figure from rows alone — a pure function of the row set,
/// so merged shards render byte-identically to a single process.
fn report(rows: &SweepRows, arrays: usize, runs: usize, bins: usize) {
    fpna_bench::banner(
        "Fig 1",
        "PDF of Vs for SPA sums of 1M FP64 on V100 (Nt=64, Nb=7813)",
        &format!("{arrays} arrays x {runs} runs (paper: 100 x 10000)"),
    );
    for (di, dist) in DISTS.iter().enumerate() {
        let mut vs_samples = Vec::with_capacity(arrays * runs);
        for a in 0..arrays {
            vs_samples.extend(rows.column(&cell(di, a), 0));
        }
        let scaled: Vec<f64> = vs_samples.iter().map(|v| v * 1e16).collect();
        let h = Histogram::from_data(&scaled, bins);
        println!("--- xi ~ {} ---", dist().label());
        println!("Vs x 1e16        density");
        for (center, density) in h.density_series() {
            let bar = "#".repeat((density * 400.0).min(60.0) as usize);
            println!("{center:>10.1}  {density:>10.6}  {bar}");
        }
        let (kl, mean, std) = kl_vs_fitted_normal(&scaled, bins);
        let jb = jarque_bera(&scaled);
        println!(
            "fitted normal: mean = {mean:.3}e-16, std = {std:.3}e-16; \
             KL(empirical || normal) = {kl:.5}"
        );
        println!(
            "Jarque-Bera: stat = {:.2}, p = {:.4}, skew = {:+.3}, ex.kurtosis = {:+.3}",
            jb.statistic, jb.p_value, jb.skewness, jb.excess_kurtosis
        );
        println!(
            "(the paper's criterion is comparative: SPA's KL is small and shrinks \
             with sample size, while AO's — see fig2 — stays large)"
        );
        println!();
    }
}

fn main() -> ExitCode {
    let mut cli = fpna_bench::Cli::parse();
    let arrays = cli.size("arrays", 20, 100);
    let runs = cli.size("runs", 200, 10_000);
    if arrays.saturating_mul(runs) < 8 {
        fpna_bench::usage_error(format!(
            "--arrays x --runs must give Jarque-Bera at least 8 samples, got {arrays} x {runs}"
        ));
    }
    let bins = cli.int("bins", 41);
    if bins == 0 {
        fpna_bench::usage_error("--bins must be at least 1, got 0");
    }
    let seed = cli.int("seed", 10);

    let spec = SweepSpec::new("fig1", runs)
        .arg("arrays", arrays)
        .arg("bins", bins)
        .arg("seed", seed);
    cli.sweep(&spec, |range| compute(range, arrays, seed), |rows| {
        report(rows, arrays, runs, bins);
        true
    })
}
