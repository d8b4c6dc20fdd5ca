//! §V-B weight-divergence experiment: train N GraphSAGE models with
//! non-deterministic kernels from identical inputs and initial weights
//! and track the `Vermv` of the weight vector per epoch against a
//! deterministic reference run. Reproduces the paper's findings: mean
//! and spread grow with epochs, final weight sets are unique per run,
//! and losses still cluster.
//!
//! `cargo run --release -p fpna-bench --bin fig_weight_divergence [--runs 5] [--epochs 10]
//!  [--threads N] [--paper-scale]`

use fpna_core::report::{mean_std, Table};
use fpna_gpu_sim::GpuModel;
use fpna_nn::graph::{synthetic_cora, CoraParams};
use fpna_nn::model::TrainConfig;
use fpna_nn::sage::Aggregation;
use fpna_nn::train::weight_divergence_experiment;

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 5, 1_000);
    let epochs = cli.int("epochs", 10);
    let seed = cli.int("seed", 99);
    cli.start();
    fpna_bench::banner(
        "Fig (weight divergence, §V-B)",
        "weight Vermv vs epoch for ND training, synthetic Cora",
        &format!("{runs} ND runs (paper: 1000), {epochs} epochs"),
    );
    let ds = synthetic_cora(CoraParams::cora(), seed);
    let cfg = TrainConfig {
        hidden: 16,
        lr: 0.5,
        epochs,
        init_seed: seed ^ 0x9999,
        aggregation: Aggregation::Mean,
    };
    let wd = weight_divergence_experiment(&ds, &cfg, GpuModel::H100, runs, seed).unwrap();
    let mut table = Table::new(["epoch", "weight Vermv mean(std)", "weight Vc mean(std)"]);
    for (e, (s, c)) in wd
        .per_epoch_vermv
        .iter()
        .zip(&wd.per_epoch_vc)
        .enumerate()
    {
        table.push_row([
            (e + 1).to_string(),
            format!("{:.3e} ({:.3e})", s.mean, s.std_dev),
            mean_std(c.mean, c.std_dev, 4),
        ]);
    }
    println!("{}", table.render());
    println!();
    println!(
        "final-weight Vc = {:.3} (fraction of weights differing from the deterministic reference)",
        wd.final_vc.mean
    );
    println!(
        "unique final weight sets: {} / {} runs",
        wd.unique_models, wd.runs
    );
    let min = wd.final_losses.iter().copied().fold(f64::INFINITY, f64::min);
    let max = wd
        .final_losses
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    println!("final losses cluster in [{min:.4}, {max:.4}] despite bitwise divergence");
    cli.finish();
}
