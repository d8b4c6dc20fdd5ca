//! Table 8: GraphSAGE inference runtime — deterministic and
//! non-deterministic on the simulated H100, and on the LPU (a compiled
//! static program whose runtime is a constant).
//!
//! Also prints the §V-B training runtimes (the paper: 0.48 s
//! deterministic vs 0.18 s non-deterministic for 10 epochs) as
//! measured wall time of the simulation-backed pipeline.
//!
//! `cargo run --release -p fpna-bench --bin table8 [--epochs 10]`

use fpna_core::report::Table;
use fpna_gpu_sim::profile::{DeviceProfile, GpuModel};
use fpna_nn::cost::{gpu_inference_time_ms, lpu_inference};
use fpna_nn::graph::{synthetic_cora, CoraParams};
use fpna_nn::model::{train_model, TrainConfig};
use fpna_nn::sage::Aggregation;
use fpna_tensor::context::GpuContext;

fn main() {
    // The run loop here is a two-sided wall-clock measurement (D vs ND
    // training), which is inherently sequential; parsed for the
    // uniform `--threads`/`--paper-scale` flag surface.
    let mut cli = fpna_bench::Cli::parse();
    let epochs = cli.int("epochs", 10);
    if epochs == 0 {
        fpna_bench::usage_error("--epochs must be at least 1, got 0");
    }
    let seed = cli.int("seed", 88);
    cli.start();
    fpna_bench::banner(
        "Table 8",
        "GraphSAGE inference runtime, H100 vs LPU",
        "H100 from the calibrated framework cost model; LPU from the compiled program",
    );
    let ds = synthetic_cora(CoraParams::cora(), seed);
    let cfg = TrainConfig {
        hidden: 16,
        lr: 0.5,
        epochs,
        init_seed: seed ^ 0x8888,
        aggregation: Aggregation::Mean,
    };
    let h100 = DeviceProfile::new(GpuModel::H100);

    // Train once (deterministically) to have a model for the LPU run.
    let ctx = GpuContext::new(GpuModel::H100, seed).with_determinism(Some(true));
    let t0 = std::time::Instant::now();
    let (model, losses) = train_model(&ds, &cfg, &ctx).unwrap();
    let det_train_s = t0.elapsed().as_secs_f64();
    let nd_ctx = GpuContext::new(GpuModel::H100, seed ^ 1).with_determinism(Some(false));
    let t0 = std::time::Instant::now();
    let _ = train_model(&ds, &cfg, &nd_ctx).unwrap();
    let nd_train_s = t0.elapsed().as_secs_f64();

    let (_probs, lpu_us) = lpu_inference(&ds, &model).unwrap();

    let mut table = Table::new(["Inference", "H100 (ms)", "Groq (ms)"]);
    table.push_row([
        "Deterministic".to_string(),
        format!("{:.2}", gpu_inference_time_ms(&h100, &ds, cfg.hidden, true)),
        format!("{:.3}", lpu_us / 1e3),
    ]);
    table.push_row([
        "Non Deterministic".to_string(),
        format!("{:.2}", gpu_inference_time_ms(&h100, &ds, cfg.hidden, false)),
        "N/A".to_string(),
    ]);
    println!("{}", table.render());
    println!();
    println!(
        "training wall time ({} epochs, host simulation): D = {:.2} s, ND = {:.2} s",
        epochs, det_train_s, nd_train_s
    );
    println!(
        "final training loss = {:.4} (losses decrease: {})",
        losses.last().unwrap(),
        losses.last().unwrap() < &losses[0]
    );
    cli.finish();
}
