//! Fig 5: tensor variability `Vermv` vs reduction ratio for
//! `scatter_reduce(sum)`, `scatter_reduce(mean)` (2000-element arrays)
//! and `index_add` (100 × 100), with bootstrap error bars. The paper
//! plots `Vermv × 1e7`.
//!
//! `cargo run --release -p fpna-bench --bin fig5 [--runs 40] [--threads N] [--paper-scale]`

use fpna_gpu_sim::GpuModel;
use fpna_stats::bootstrap::bootstrap_mean;
use fpna_tensor::sweep::{ratio_experiment, RatioOp};

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 40, 1_000);
    let seed = cli.int("seed", 45);
    let executor = cli.start();
    fpna_bench::banner(
        "Fig 5",
        "Vermv vs reduction ratio (x 1e7; scatter_reduce n=2000, index_add n=100x100)",
        &format!("{runs} runs per point (paper: 1000)"),
    );
    println!(
        "{:>4}  {:>26}  {:>26}  {:>26}",
        "R",
        "scatter reduce(sum)",
        "scatter reduce(mean)",
        "index add"
    );
    for r10 in 1..=10 {
        let r = r10 as f64 / 10.0;
        let mut cells = Vec::new();
        for (op, dim) in [
            (RatioOp::ScatterReduceSum, 2000usize),
            (RatioOp::ScatterReduceMean, 2000),
            (RatioOp::IndexAdd, 100),
        ] {
            let report = ratio_experiment(GpuModel::H100, op, dim, r, runs, seed ^ r10, &executor);
            let vermvs: Vec<f64> = report.per_run.iter().map(|&(v, _)| v * 1e7).collect();
            let b = bootstrap_mean(&vermvs, 200, seed ^ 0xF16);
            cells.push(format!("{:.4} +- {:.4}", b.estimate, b.std_error));
        }
        println!(
            "{:>4.1}  {:>26}  {:>26}  {:>26}",
            r, cells[0], cells[1], cells[2]
        );
    }
    cli.finish();
}
