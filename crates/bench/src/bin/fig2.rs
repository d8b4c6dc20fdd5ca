//! Fig 2: PDF of the scalar variability `Vs` when the `atomicAdd`-only
//! kernel (AO) is the non-deterministic implementation, on V100 with
//! U(0, 10) inputs. The paper's headline: unlike SPA, this
//! distribution is *not* normal — the Gaussian-noise assumption for
//! FPNA is invalid in general.
//!
//! Paper scale: 500 000 sums. Default: 300 runs on one array
//! (`--runs`, `--arrays`).
//!
//! `cargo run --release -p fpna-bench --bin fig2 [--runs 300] [--arrays 4] [--bins 41]
//!  [--threads N] [--paper-scale]`

use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_stats::histogram::Histogram;
use fpna_stats::kl::kl_vs_fitted_normal;
use fpna_stats::normality::jarque_bera;
use fpna_stats::samplers::{Distribution, Sampler};

const N: usize = 1_000_000;

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let arrays: usize = cli.int("arrays", 4);
    let runs = cli.size("runs", 300, 125_000);
    if arrays.saturating_mul(runs) < 8 {
        fpna_bench::usage_error(format!(
            "--arrays x --runs must give Jarque-Bera at least 8 samples, got {arrays} x {runs}"
        ));
    }
    let bins = cli.int("bins", 41);
    if bins == 0 {
        fpna_bench::usage_error("--bins must be at least 1, got 0");
    }
    let seed = cli.int("seed", 20);
    cli.start();
    fpna_bench::banner(
        "Fig 2",
        "PDF of Vs for the AO kernel, 1M FP64 ~ U(0,10), V100",
        &format!("{arrays} arrays x {runs} runs (paper: 500000 sums)"),
    );
    let device = GpuDevice::new(GpuModel::V100);
    let params = KernelParams::fig1();
    let mut vs_samples = Vec::with_capacity(arrays * runs);
    for a in 0..arrays {
        let mut sampler = Sampler::new(Distribution::paper_uniform(), seed ^ ((a as u64) << 24));
        let xs = sampler.sample_vec(N);
        let det = device
            .reduce(ReduceKernel::Sptr, &xs, params, &ScheduleKind::InOrder)
            .unwrap()
            .value;
        let outcomes = device
            .reduce_runs(
                ReduceKernel::Ao,
                &xs,
                params,
                &ScheduleKind::Seeded(seed ^ (a as u64)),
                0..runs,
            )
            .unwrap();
        vs_samples.extend(
            outcomes
                .iter()
                .map(|out| fpna_core::metrics::scalar_variability(out.value, det)),
        );
    }
    let scaled: Vec<f64> = vs_samples.iter().map(|v| v * 1e16).collect();
    let h = Histogram::from_data(&scaled, bins);
    println!("Vs x 1e16        density");
    for (center, density) in h.density_series() {
        let bar = "#".repeat((density * 1200.0).min(60.0) as usize);
        println!("{center:>10.1}  {density:>10.6}  {bar}");
    }
    let (kl, mean, std) = kl_vs_fitted_normal(&scaled, bins);
    let jb = jarque_bera(&scaled);
    println!("fitted normal: mean = {mean:.3}e-16, std = {std:.3}e-16");
    println!("KL(empirical || fitted normal) = {kl:.5}");
    println!(
        "Jarque-Bera: stat = {:.2}, p = {:.4}, skew = {:.3}, ex.kurtosis = {:.3}",
        jb.statistic, jb.p_value, jb.skewness, jb.excess_kurtosis
    );
    cli.finish();
}
