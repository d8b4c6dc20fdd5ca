//! fp32-accumulation magnitude check: the paper's PyTorch experiments
//! run in float32, so Table 5 / Fig 5 report `Vermv` at the fp32
//! rounding scale (1e-7 … 1e-6). This binary reruns the
//! `scatter_reduce` / `index_add` variability experiment with the
//! fp32-accumulating kernel variants and shows the measured `Vermv`
//! landing in exactly that range — while the f64 kernels show the same
//! phenomenon scaled down by the eps ratio (~1e-9).
//!
//! `cargo run --release -p fpna-bench --bin fig_f32 [--runs 100] [--threads N] [--paper-scale]`

use fpna_core::executor::map_runs;
use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::SplitMix64;
use fpna_gpu_sim::GpuModel;
use fpna_tensor::context::GpuContext;
use fpna_tensor::ops::index::index_add;
use fpna_tensor::ops::lowp::{index_add_f32, scatter_reduce_f32};
use fpna_tensor::Tensor;

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 100, 1_000);
    let seed = cli.int("seed", 66);
    let n = 20_000usize;
    let rows = 1_000usize;
    cli.start();
    fpna_bench::banner(
        "fp32 magnitude check",
        "Vermv of fp32 vs fp64 accumulation (scatter_reduce / index_add)",
        &format!("{n} contributions onto {rows} rows, {runs} runs"),
    );
    let mut rng = SplitMix64::new(seed);
    let src32: Vec<f32> = (0..n).map(|_| (rng.next_f64() as f32 - 0.5) * 1e3).collect();
    let src64 = Tensor::from_vec(vec![n], src32.iter().map(|&x| x as f64).collect());
    let index: Vec<u32> = (0..n).map(|_| rng.next_below(rows as u64) as u32).collect();
    let dst32 = vec![0.0f32; rows];
    let dst64 = Tensor::zeros(vec![rows]);
    let det = GpuContext::new(GpuModel::H100, seed).with_determinism(Some(true));
    let nd = GpuContext::new(GpuModel::H100, seed).with_determinism(Some(false));

    // fp32 index_add
    let ref32: Vec<f64> = index_add_f32(&det, &dst32, &index, &src32)
        .unwrap()
        .iter()
        .map(|&x| x as f64)
        .collect();
    let vermv32 = map_runs(0..runs, |r| {
        let out: Vec<f64> = index_add_f32(&nd.for_run(r as u64), &dst32, &index, &src32)
            .unwrap()
            .iter()
            .map(|&x| x as f64)
            .collect();
        ArrayComparison::compare(&ref32, &out).vermv
    });
    // fp64 index_add (same problem)
    let ref64 = index_add(&det, &dst64, &index, &src64).unwrap().into_data();
    let vermv64 = map_runs(0..runs, |r| {
        let out = index_add(&nd.for_run(r as u64), &dst64, &index, &src64)
            .unwrap()
            .into_data();
        ArrayComparison::compare(&ref64, &out).vermv
    });
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let m32 = mean(&vermv32);
    let m64 = mean(&vermv64);
    println!("index_add      Vermv: fp32 = {m32:.3e}   fp64 = {m64:.3e}   ratio = {:.2e}", m32 / m64);

    // fp32 scatter_reduce (sum and mean), self-referenced
    for mean_mode in [false, true] {
        let first: Vec<f64> = scatter_reduce_f32(&nd.for_run(1_000), &dst32, &index, &src32, mean_mode)
            .unwrap()
            .iter()
            .map(|&x| x as f64)
            .collect();
        let vs = map_runs(0..runs, |r| {
            let out: Vec<f64> =
                scatter_reduce_f32(&nd.for_run(2_000 + r as u64), &dst32, &index, &src32, mean_mode)
                    .unwrap()
                    .iter()
                    .map(|&x| x as f64)
                    .collect();
            ArrayComparison::compare(&first, &out).vermv
        });
        println!(
            "scatter_reduce({}) Vermv fp32 = {:.3e}",
            if mean_mode { "mean" } else { "sum" },
            mean(&vs)
        );
    }
    println!(
        "\nexpected: fp32 values in the paper's 1e-7..1e-6 band; \
         fp32/fp64 ratio near eps32/eps64 = {:.2e}",
        f32::EPSILON as f64 / f64::EPSILON
    );
    cli.finish();
}
