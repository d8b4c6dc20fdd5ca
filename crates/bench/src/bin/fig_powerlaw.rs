//! §III-C power-law fit: `max|Vs| ≈ β·nᵅ` as a function of the array
//! length `n`, for SPA sums with U(0, 10) and N(0, 1) inputs. The
//! paper finds `α ≈ 0.5` for the uniform distribution and a larger
//! exponent for the normal.
//!
//! `cargo run --release -p fpna-bench --bin fig_powerlaw [--runs 200] [--threads N] [--paper-scale]`

use fpna_core::metrics::scalar_variability;
use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_stats::powerlaw::PowerLawFit;
use fpna_stats::samplers::{Distribution, Sampler};

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 200, 2_000);
    if runs == 0 {
        fpna_bench::usage_error("--runs must be at least 1, got 0");
    }
    let arrays = cli.size("arrays", 7, 15);
    if arrays == 0 {
        fpna_bench::usage_error("--arrays must be at least 1, got 0");
    }
    let seed = cli.int("seed", 30);
    cli.start();
    fpna_bench::banner(
        "Fig (power law)",
        "max|Vs| ~ beta * n^alpha for SPA (SPTR reference), V100",
        &format!("{runs} runs x {arrays} arrays per size (median of per-array max)"),
    );
    let device = GpuDevice::new(GpuModel::V100);
    let sizes = [10_000usize, 31_623, 100_000, 316_228, 1_000_000];
    for dist in [Distribution::paper_uniform(), Distribution::standard_normal()] {
        let mut points = Vec::new();
        println!("--- xi ~ {} ---", dist.label());
        println!("{:>10}  {:>14}", "n", "max |Vs|");
        for &n in &sizes {
            let nb = (n / 128).max(1) as u32;
            let params = KernelParams::new(64, nb);
            // One array's |Sd| is a lottery (especially for N(0,1),
            // where the sum is a random walk): take the median of the
            // per-array maxima to estimate the size scaling.
            let mut per_array_max = Vec::with_capacity(arrays);
            for a in 0..arrays {
                let mut sampler = Sampler::new(dist, seed ^ (n as u64) ^ ((a as u64) << 32));
                let xs = sampler.sample_vec(n);
                let det = device
                    .reduce(ReduceKernel::Sptr, &xs, params, &ScheduleKind::InOrder)
                    .unwrap()
                    .value;
                let outcomes = device
                    .reduce_runs(
                        ReduceKernel::Spa,
                        &xs,
                        params,
                        &ScheduleKind::Seeded(seed ^ a as u64),
                        0..runs,
                    )
                    .unwrap();
                let max_vs = outcomes
                    .iter()
                    .map(|out| scalar_variability(out.value, det).abs())
                    .fold(0.0f64, f64::max);
                per_array_max.push(max_vs);
            }
            let med = fpna_stats::describe::median(&per_array_max);
            let max = per_array_max.iter().copied().fold(0.0f64, f64::max);
            println!("{n:>10}  {med:>14.3e}  (pooled max {max:.3e})");
            points.push((n as f64, med));
        }
        let fit = PowerLawFit::fit(&points);
        println!(
            "fit: max|Vs| = {:.3e} * n^{:.3}   (R^2 = {:.4})\n",
            fit.beta, fit.alpha, fit.r_squared
        );
    }
    cli.finish();
}
