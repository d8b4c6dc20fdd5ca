//! Table 6: average kernel runtime for `scatter_reduce` and
//! `index_add` on the simulated H100 (deterministic and
//! non-deterministic) and on the LPU (deterministic by construction).
//!
//! `scatter_reduce` input: 1-D, 1000 elements, R = 0.5; `index_add`
//! input: 1000 × 1000, R = 0.5 — the paper's configurations. The H100
//! deterministic `scatter_reduce` cell is N/A: no deterministic kernel
//! exists (the paper hit a runtime error). LPU times come from
//! actually compiled static programs and are constants.
//!
//! `cargo run --release -p fpna-bench --bin table6`

use fpna_core::report::{mean_std, Table};
use fpna_core::rng::SplitMix64;
use fpna_gpu_sim::profile::{DeviceProfile, GpuModel};
use fpna_lpu_sim::machine::Lpu;
use fpna_lpu_sim::program::{Program, TensorShape};
use fpna_lpu_sim::spec::LpuSpec;
use fpna_tensor::cost::{op_time_us, TimedOp};

fn lpu_scatter_time_us(rows: usize, cols: usize, out_rows: usize, mean: bool, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let index: Vec<u32> = (0..rows)
        .map(|_| rng.next_below(out_rows as u64) as u32)
        .collect();
    let mut counts = vec![0u32; out_rows];
    for &i in &index {
        counts[i as usize] += 1;
    }
    let mut p = Program::new();
    let src = p.input(TensorShape::new(rows, cols));
    let summed = p.scatter_add_rows(src, index, out_rows);
    let out = if mean {
        p.div_row_counts(summed, counts)
    } else {
        summed
    };
    p.output(out);
    Lpu::new(LpuSpec::groq_like())
        .compile(p)
        .expect("valid program")
        .time_us()
}

fn main() {
    // No repeated-run loop (cost-model cells + compiled LPU programs);
    // parsed for the uniform `--threads`/`--paper-scale` flag surface.
    let mut cli = fpna_bench::Cli::parse();
    cli.start();
    fpna_bench::banner(
        "Table 6",
        "kernel runtime for scatter_reduce / index_add, H100 vs LPU (us)",
        "H100 from the calibrated cost model (mean(std) over simulated \
         measurements); LPU from compiled static programs (no error bar)",
    );
    let h100 = DeviceProfile::new(GpuModel::H100);
    // jittered "measurements" for the GPU mean(std) cells
    let measure = |op: TimedOp, n: usize, det: bool| -> Option<(f64, f64)> {
        let base = op_time_us(&h100, op, n, det)?;
        let samples: Vec<f64> = (0..20)
            .map(|i| {
                fpna_gpu_sim::cost::jittered_time_ns(base * 1e3, h100.timing_jitter * 2.0, i)
                    / 1e3
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        Some((mean, var.sqrt()))
    };
    let fmt = |cell: Option<(f64, f64)>| {
        cell.map(|(m, s)| mean_std(m, s, 1)).unwrap_or_else(|| "N/A".into())
    };

    let mut table = Table::new(["Operation", "Implementation", "H100 (us)", "Groq (us)"]);
    let sr_sum_lpu = lpu_scatter_time_us(1_000, 1, 500, false, 1);
    let sr_mean_lpu = lpu_scatter_time_us(1_000, 1, 500, true, 2);
    let ia_lpu = lpu_scatter_time_us(1_000, 1_000, 500, false, 3);

    table.push_row([
        "scatter_reduce (sum)".into(),
        "D".to_string(),
        fmt(measure(TimedOp::ScatterReduceSum, 1_000, true)),
        format!("{sr_sum_lpu:.1}"),
    ]);
    table.push_row([
        "".into(),
        "ND".to_string(),
        fmt(measure(TimedOp::ScatterReduceSum, 1_000, false)),
        "N/A".into(),
    ]);
    table.push_row([
        "scatter_reduce (mean)".into(),
        "D".to_string(),
        fmt(measure(TimedOp::ScatterReduceMean, 1_000, true)),
        format!("{sr_mean_lpu:.1}"),
    ]);
    table.push_row([
        "".into(),
        "ND".to_string(),
        fmt(measure(TimedOp::ScatterReduceMean, 1_000, false)),
        "N/A".into(),
    ]);
    table.push_row([
        "index_add".into(),
        "D".to_string(),
        fmt(measure(TimedOp::IndexAdd, 1_000_000, true)),
        format!("{ia_lpu:.1}"),
    ]);
    table.push_row([
        "".into(),
        "ND".to_string(),
        fmt(measure(TimedOp::IndexAdd, 1_000_000, false)),
        "N/A".into(),
    ]);
    println!("{}", table.render());
    println!(
        "\nNote: as in the paper, the LPU only exposes deterministic kernels \
         (its ND cells are N/A), and the H100 has no deterministic \
         scatter_reduce (its D cells are N/A)."
    );
    cli.finish();
}
