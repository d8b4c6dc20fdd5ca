//! Fig 3: heat maps of the count variability `Vc` per run for the
//! non-deterministic `scatter_reduce` (1-D inputs) and `index_add`
//! (2-D square inputs) as a function of input dimension and reduction
//! ratio R.
//!
//! Paper scale: 1000 runs per cell. Default: 12 runs per cell and a
//! thinned dimension grid (`--runs`).
//!
//! `cargo run --release -p fpna-bench --bin fig3 [--runs 12] [--threads N] [--paper-scale]`

use fpna_gpu_sim::GpuModel;
use fpna_tensor::sweep::{ratio_experiment, RatioOp};

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 12, 1_000);
    if runs == 0 {
        fpna_bench::usage_error("--runs must be at least 1, got 0");
    }
    let seed = cli.int("seed", 33);
    cli.start();
    fpna_bench::banner(
        "Fig 3",
        "heatmaps of Vc vs (input dimension, R)",
        &format!("{runs} runs per cell (paper: 1000)"),
    );
    let ratios: Vec<f64> = (1..=10).map(|r| r as f64 / 10.0).collect();
    let ratio_labels: Vec<String> = ratios.iter().map(|r| format!("{r:.1}")).collect();

    println!("--- scatter_reduce (1-D input) ---");
    let dims_1d = [1_000usize, 2_000, 4_000, 7_000, 10_000];
    let mut grid = Vec::new();
    for &dim in dims_1d.iter().rev() {
        let mut row = Vec::new();
        for &r in &ratios {
            let report = ratio_experiment(
                GpuModel::H100,
                RatioOp::ScatterReduceSum,
                dim,
                r,
                runs,
                seed ^ dim as u64,
            );
            row.push(report.vc.mean);
        }
        grid.push(row);
    }
    let row_labels: Vec<String> = dims_1d.iter().rev().map(|d| d.to_string()).collect();
    println!("{}", fpna_bench::ascii_heatmap(&row_labels, &ratio_labels, &grid));

    println!("--- index_add (2-D square input) ---");
    let dims_2d = [10usize, 40, 100, 200, 400];
    let mut grid = Vec::new();
    for &dim in dims_2d.iter().rev() {
        let mut row = Vec::new();
        for &r in &ratios {
            let report = ratio_experiment(
                GpuModel::H100,
                RatioOp::IndexAdd,
                dim,
                r,
                runs,
                seed ^ (dim as u64) << 8,
            );
            row.push(report.vc.mean);
        }
        grid.push(row);
    }
    let row_labels: Vec<String> = dims_2d.iter().rev().map(|d| d.to_string()).collect();
    println!("{}", fpna_bench::ascii_heatmap(&row_labels, &ratio_labels, &grid));
    println!("columns: reduction ratio R = 0.1 ... 1.0");
    cli.finish();
}
