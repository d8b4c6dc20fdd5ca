//! Table 7: `Vermv` and `Vc` of GraphSAGE predictions for the four
//! deterministic/non-deterministic training × inference combinations,
//! on the synthetic Cora.
//!
//! Paper scale: 1000 models per condition. Default: 6 (`--models`).
//!
//! `cargo run --release -p fpna-bench --bin table7 [--models 6] [--epochs 10]
//!  [--threads N] [--paper-scale]`
//!
//! Speaks the sweep protocol (`--emit-spec` / `--shard-id …` /
//! `--from-shards …`, see `fpna-sweep`): each global run index is one
//! model per condition, seeded by `(seed, condition, model_index)`, so
//! any process sharding of `0..models` merges to byte-identical
//! output.

use std::process::ExitCode;

use fpna_core::report::{mean_std, Table};
use fpna_gpu_sim::GpuModel;
use fpna_nn::graph::{synthetic_cora, CoraParams, NodeClassification};
use fpna_nn::model::TrainConfig;
use fpna_nn::sage::Aggregation;
use fpna_nn::train::{train_inference_comparisons, Mode, MATRIX_CONDITIONS};
use fpna_sweep::{SweepRows, SweepSpec};

/// Row-set cell name for one (training, inference) condition.
fn cell_name(train: Mode, infer: Mode) -> String {
    format!("{}x{}", train.label(), infer.label())
}

/// Per-model comparison rows for every condition, global model indices
/// in `range` only. The D/D reference is a pure function of the spec,
/// retrained per process — one deterministic run, cheap next to the
/// model sweep it anchors.
fn compute(
    range: std::ops::Range<usize>,
    ds: &NodeClassification,
    cfg: &TrainConfig,
    models: usize,
    seed: u64,
) -> SweepRows {
    let per_condition =
        train_inference_comparisons(ds, cfg, GpuModel::H100, models, seed, range.clone()).unwrap();
    let mut rows = SweepRows::new();
    for (&(train, infer), comparisons) in MATRIX_CONDITIONS.iter().zip(&per_condition) {
        let cell = cell_name(train, infer);
        for (m, c) in range.clone().zip(comparisons) {
            rows.push(&cell, m, vec![c.vermv, c.vc, c.max_abs_diff, c.len as f64]);
        }
    }
    rows
}

/// Print the table from rows alone — a pure function of the row set,
/// so merged shards render byte-identically to a single process.
fn report(rows: &SweepRows, models: usize, epochs: usize) {
    fpna_bench::banner(
        "Table 7",
        "Vermv and Vc for D/ND training x inference combinations",
        &format!(
            "{models} models per condition (paper: 1000), {epochs} epochs, synthetic Cora"
        ),
    );
    let mut table = Table::new(["Training", "Inference", "Vermv", "Vc"]);
    for (train, infer) in MATRIX_CONDITIONS {
        let cell = cell_name(train, infer);
        let vermv = rows.run_summary(&cell, 0);
        let vc = rows.run_summary(&cell, 1);
        table.push_row([
            train.label().to_string(),
            infer.label().to_string(),
            format!("{:.2e} ({:.2e})", vermv.mean, vermv.std_dev),
            mean_std(vc.mean, vc.std_dev, 2),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\nNote: the paper's fp32 pipeline reports Vermv at 1e-6; this f64 \
         pipeline shows the same ordering of conditions with magnitudes at \
         the f64 rounding scale (see fig_f32 in README, \"Paper figures and \
         tables → binaries\")."
    );
}

fn main() -> ExitCode {
    let mut cli = fpna_bench::Cli::parse();
    let models = cli.size("models", 6, 1_000);
    let epochs = cli.int("epochs", 10);
    let seed = cli.int("seed", 77);

    let spec = SweepSpec::new("table7", models)
        .arg("models", models)
        .arg("epochs", epochs)
        .arg("seed", seed);
    cli.sweep(
        &spec,
        |range| {
            let ds = synthetic_cora(CoraParams::cora(), seed ^ 0xC04A);
            let cfg = TrainConfig {
                hidden: 16,
                lr: 0.5,
                epochs,
                init_seed: seed ^ 0x1717,
                aggregation: Aggregation::Mean,
            };
            compute(range, &ds, &cfg, models, seed)
        },
        |rows| {
            report(rows, models, epochs);
            true
        },
    )
}
