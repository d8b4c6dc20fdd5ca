//! Table 4: timing and performance penalty of the parallel-sum
//! implementations on the simulated V100, GH200 and MI250X.
//!
//! 100 sums of 4 194 304 FP64 ~ U(0, 10), kernel parameters per the
//! paper; timings averaged over 10 consecutive simulated runs with the
//! profile's measurement jitter, reported as `mean(std)`; penalty
//! `Ps = 100·(1 − t/min t)`.
//!
//! `cargo run --release -p fpna-bench --bin table4 [--repeats 10] [--threads N] [--paper-scale]`

use fpna_core::report::{mean_std, percent, Table};
use fpna_gpu_sim::cost::performance_penalty;
use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_stats::samplers::{Distribution, Sampler};

const N: usize = 4_194_304;
const SUMS: usize = 100;

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let repeats = cli.size("repeats", 10, 100);
    let seed = cli.int("seed", 4);
    cli.start();
    fpna_bench::banner(
        "Table 4",
        "timing and performance penalty of parallel sum implementations",
        &format!("{SUMS} sums of {N} FP64, timings from the calibrated cost model, {repeats} repeats"),
    );
    let mut sampler = Sampler::new(Distribution::paper_uniform(), seed);
    let xs = sampler.sample_vec(N);

    for model in [GpuModel::V100, GpuModel::Gh200, GpuModel::Mi250x] {
        let device = GpuDevice::new(model);
        // Kernel geometry per the paper's table.
        let geometry: Vec<(ReduceKernel, KernelParams, &str)> = match model {
            GpuModel::V100 => vec![
                (ReduceKernel::Spa, KernelParams::new(512, 128), "(512 x 128)"),
                (ReduceKernel::Sptr, KernelParams::new(512, 128), "(512 x 128)"),
                (ReduceKernel::Tprc, KernelParams::new(512, 128), "(512 x 128)"),
                (ReduceKernel::Cu, KernelParams::new(512, 128), "(unknown)"),
                (ReduceKernel::Ao, KernelParams::new(512, 128), "(fixed parameters)"),
            ],
            GpuModel::Gh200 => vec![
                (ReduceKernel::Spa, KernelParams::new(512, 512), "(512 x 512)"),
                (ReduceKernel::Cu, KernelParams::new(512, 512), "(unknown)"),
                (ReduceKernel::Tprc, KernelParams::new(512, 512), "(512 x 512)"),
                (ReduceKernel::Sptr, KernelParams::new(512, 512), "(512 x 512)"),
                (ReduceKernel::Ao, KernelParams::new(512, 512), "(fixed parameters)"),
            ],
            GpuModel::Mi250x => vec![
                (ReduceKernel::Tprc, KernelParams::new(512, 256), "(512 x 256)"),
                (ReduceKernel::Cu, KernelParams::new(512, 256), "(unknown)"),
                (ReduceKernel::Spa, KernelParams::new(512, 256), "(512 x 256)"),
                (ReduceKernel::Sptr, KernelParams::new(256, 512), "(256 x 512)"),
            ],
            GpuModel::H100 => unreachable!(),
        };
        let mut rows = Vec::new();
        for &(kernel, params, geom) in &geometry {
            let outcomes = device
                .reduce_runs(kernel, &xs, params, &ScheduleKind::Seeded(seed), 0..repeats)
                .expect("kernel supported on this device");
            let times_ms: Vec<f64> = outcomes
                .iter()
                .map(|out| out.time_ns * SUMS as f64 / 1e6)
                .collect();
            let value = outcomes.last().map(|out| out.value).unwrap_or(f64::NAN);
            let mean = times_ms.iter().sum::<f64>() / repeats as f64;
            let var = times_ms
                .iter()
                .map(|t| (t - mean) * (t - mean))
                .sum::<f64>()
                / (repeats.max(2) - 1) as f64;
            rows.push((kernel, geom, mean, var.sqrt(), value));
        }
        let fastest = rows
            .iter()
            .map(|r| r.2)
            .fold(f64::INFINITY, f64::min);
        let mut table = Table::new([
            "implementation (Nt x Nb)",
            "time for 100 sums (ms)",
            "Ps (%)",
            "deterministic",
        ])
        .with_title(format!("--- {} ---", model.name()));
        for (kernel, geom, mean, std, _) in &rows {
            table.push_row([
                format!("{} {geom}", kernel.name()),
                mean_std(*mean, *std, 3),
                percent(performance_penalty(*mean, fastest)),
                if kernel.is_deterministic() { "yes" } else { "NO" }.to_string(),
            ]);
        }
        println!("{}", table.render());
        if model == GpuModel::Mi250x {
            println!("(AO excluded on Mi250X: FP64 atomicAdd needs an unsafe compiler mode)");
        }
        println!();
    }
    cli.finish();
}
