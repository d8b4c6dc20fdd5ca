//! Table 5: min/max `Vermv` over the hyperparameter sweep of every
//! PyTorch operation documented as non-deterministic.
//!
//! Paper scale: 10 000 runs per configuration on an H100. Default: 40
//! runs per configuration (`--runs`).
//!
//! `cargo run --release -p fpna-bench --bin table5 [--runs 40] [--threads N] [--paper-scale]`
//!
//! Speaks the sweep protocol (`--emit-spec` / `--shard-id …` /
//! `--from-shards …`, see `fpna-sweep`): every (op, configuration)
//! cell is seeded by global run index, so any process sharding of
//! `0..runs` merges to byte-identical output.

use std::process::ExitCode;

use fpna_core::report::Table;
use fpna_gpu_sim::GpuModel;
use fpna_sweep::{SweepRows, SweepSpec};
use fpna_tensor::sweep::{table5_cells, table5_reduce};

/// Per-run comparison metrics for every (op, configuration) cell,
/// global runs in `range` only. Cell inputs and references are pure
/// functions of the spec, recomputed per process — cheap next to the
/// run sweep they anchor.
fn compute(range: std::ops::Range<usize>, seed: u64) -> SweepRows {
    let mut rows = SweepRows::new();
    for cell in table5_cells(GpuModel::H100, seed) {
        for (i, c) in cell.comparisons_range(range.clone()) {
            rows.push(
                &cell.name,
                i,
                vec![c.vermv, c.vc, c.max_abs_diff, c.len as f64],
            );
        }
    }
    rows
}

/// Print the table from rows alone — a pure function of the row set,
/// so merged shards render byte-identically to a single process. (The
/// cell walk here only provides op order and row keys; listing the
/// cells runs no kernel.)
fn report(rows: &SweepRows, runs: usize, seed: u64) {
    fpna_bench::banner(
        "Table 5",
        "max and min variability for non-deterministic PyTorch operations",
        &format!("{runs} runs per configuration (paper: 10000), simulated H100"),
    );
    let cells = table5_cells(GpuModel::H100, seed);
    let means: Vec<(&'static str, f64)> = cells
        .iter()
        .map(|cell| (cell.op, rows.variability_report(&cell.name).vermv.mean))
        .collect();
    let mut table = Table::new(["Operation", "min(Vermv)", "max(Vermv)", "configs"]);
    for row in table5_reduce(&means) {
        table.push_row([
            row.op.to_string(),
            format!("{:.2e}", row.min_vermv),
            format!("{:.2e}", row.max_vermv),
            row.configs.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\nNote on magnitudes: the paper's PyTorch tensors are float32 \
         (eps = 1.2e-7), so its accumulation-order Vermv lands at 1e-7..1e-6. \
         These kernels accumulate in f64 (eps = 2.2e-16): the same phenomenon \
         appears at 1e-16..1e-15 — the eps ratio. Run `fig_f32` for the \
         fp32-accumulation variants, which land exactly in the paper's range. \
         The write-race ops (index_copy/index_put/scatter) differ by O(1) per \
         raced element in any precision; their Vermv reflects the collision \
         rate of the index tensor instead."
    );
}

fn main() -> ExitCode {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 40, 10_000);
    let seed = cli.int("seed", 55);

    let spec = SweepSpec::new("table5", runs).arg("seed", seed);
    cli.sweep(&spec, |range| compute(range, seed), |rows| {
        report(rows, runs, seed);
        true
    })
}
