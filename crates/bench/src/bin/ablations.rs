//! Accuracy/variability ablations for the design choices DESIGN.md
//! calls out (the timing ablations live in `benches/ablations.rs`):
//!
//! 1. **Scheduler model** — does the `Vs` distribution of SPA change
//!    between the wave-biased scheduler and a uniform random
//!    permutation? (It barely does: the variability comes from the
//!    permutation of partials, not from residency structure.)
//! 2. **Pairwise leaf size** — accuracy of the pairwise sum vs leaf.
//! 3. **Exact accumulator vs compensated sums** — error on
//!    ill-conditioned data.
//! 4. **SAGE aggregation (mean vs sum)** — effect on ND-training
//!    weight divergence.
//!
//! `cargo run --release -p fpna-bench --bin ablations [--runs 200] [--threads N] [--paper-scale]`

use fpna_core::metrics::scalar_variability;
use fpna_gpu_sim::{GpuDevice, GpuModel, KernelParams, ReduceKernel, ScheduleKind};
use fpna_nn::graph::{synthetic_cora, CoraParams};
use fpna_nn::model::TrainConfig;
use fpna_nn::sage::Aggregation;
use fpna_nn::train::weight_divergence_experiment;
use fpna_stats::describe::Describe;
use fpna_stats::samplers::{Distribution, Sampler};
use fpna_summation::exact::exact_sum;
use fpna_summation::{kahan_sum, neumaier_sum, pairwise_sum_with_leaf, serial_sum};

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 200, 2_000);
    let seed = cli.int("seed", 123);

    cli.start();
    fpna_bench::banner("Ablation 1", "scheduler model: wave-biased vs uniform random", "");
    let device = GpuDevice::new(GpuModel::V100);
    let params = KernelParams::new(64, 7813);
    let mut sampler = Sampler::new(Distribution::paper_uniform(), seed);
    let xs = sampler.sample_vec(1_000_000);
    let det = device
        .reduce(ReduceKernel::Sptr, &xs, params, &ScheduleKind::InOrder)
        .unwrap()
        .value;
    for (label, base) in [
        ("wave-biased", ScheduleKind::Seeded(seed)),
        ("uniform    ", ScheduleKind::UniformRandom(seed)),
    ] {
        let vs: Vec<f64> = device
            .reduce_runs(ReduceKernel::Spa, &xs, params, &base, 0..runs)
            .unwrap()
            .iter()
            .map(|out| scalar_variability(out.value, det) * 1e16)
            .collect();
        let d = Describe::of(&vs);
        println!(
            "{label}: mean = {:+.3}e-16, std = {:.3}e-16, skew = {:+.3}, ex.kurt = {:+.3}",
            d.mean, d.std_dev, d.skewness, d.excess_kurtosis
        );
    }
    println!();

    fpna_bench::banner("Ablation 2", "pairwise leaf size vs accuracy (1M summands)", "");
    let exact = exact_sum(&xs);
    for leaf in [1usize, 8, 32, 128, 512, 4096, 1_000_000] {
        let v = pairwise_sum_with_leaf(&xs, leaf);
        println!(
            "leaf {leaf:>8}: |err| = {:.3e}  (serial err = {:.3e})",
            (v - exact).abs(),
            (serial_sum(&xs) - exact).abs()
        );
    }
    println!();

    fpna_bench::banner(
        "Ablation 3",
        "exact accumulator vs compensated sums on ill-conditioned data",
        "",
    );
    let mut rng = fpna_core::rng::SplitMix64::new(seed);
    let mut hard = Vec::with_capacity(100_000);
    for _ in 0..50_000 {
        let big = (rng.next_f64() - 0.5) * 1e15;
        hard.push(big);
        hard.push(-big + (rng.next_f64() - 0.5) * 1e-3);
    }
    let reference = exact_sum(&hard);
    for (name, v) in [
        ("serial  ", serial_sum(&hard)),
        ("kahan   ", kahan_sum(&hard)),
        ("neumaier", neumaier_sum(&hard)),
        ("exact   ", reference),
    ] {
        println!("{name}: rel err = {:.3e}", (v - reference).abs() / reference.abs());
    }
    println!();

    fpna_bench::banner(
        "Ablation 4",
        "SAGE aggregation mean vs sum: ND weight divergence after 5 epochs",
        "scaled-down Cora for runtime",
    );
    let mut p = CoraParams::cora();
    p.nodes = 600;
    p.features = 200;
    p.links = 1_500;
    let ds = synthetic_cora(p, seed);
    for agg in [Aggregation::Mean, Aggregation::Sum] {
        let cfg = TrainConfig {
            hidden: 16,
            lr: if agg == Aggregation::Sum { 0.05 } else { 0.5 },
            epochs: 5,
            init_seed: seed,
            aggregation: agg,
        };
        let wd = weight_divergence_experiment(&ds, &cfg, GpuModel::H100, 3, seed).unwrap();
        let last = wd.per_epoch_vermv.last().unwrap();
        println!(
            "{agg:?}: final weight Vermv mean = {:.3e}, Vc = {:.3}, unique = {}/{}",
            last.mean, wd.final_vc.mean, wd.unique_models, wd.runs
        );
    }
    cli.finish();
}
