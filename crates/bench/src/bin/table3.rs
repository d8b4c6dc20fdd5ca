//! Table 3: normal (unordered) vs ordered multithreaded reductions on
//! the CPU — the OpenMP experiment. The unordered column exhibits
//! genuine run-to-run variability from the OS scheduler; the ordered
//! column is bitwise constant.
//!
//! `cargo run --release -p fpna-bench --bin table3 [--trials 10] [--n 1000000] [--threads 8]`
//!
//! Note: `--threads` here is the *experiment variable* — the number of
//! OS threads inside each reduction, whose scheduling produces the
//! genuine run-to-run variability this table demonstrates. The trial
//! loop itself stays serial on purpose: unlike every other binary,
//! this experiment's output is *not* expected to be reproducible
//! across invocations (that is its point).

use fpna_core::report::Table;
use fpna_stats::samplers::{Distribution, Sampler};
use fpna_summation::parallel::{ordered_threaded_sum, unordered_threaded_sum};

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let trials = cli.int("trials", 10);
    let n = cli.int("n", 1_000_000);
    let threads = cli.int("threads", 8);
    cli.start();
    fpna_bench::banner(
        "Table 3",
        "normal and ordered reductions (OpenMP analogue) on CPU",
        &format!("{n} summands, {threads} threads — real OS-thread nondeterminism"),
    );
    // Magnitudes chosen so the total lands near the paper's ~2.4e-7,
    // making the varying last digits easy to compare by eye.
    let mut sampler = Sampler::new(
        Distribution::Uniform {
            lo: 0.0,
            hi: 4.7e-13,
        },
        99,
    );
    let xs = sampler.sample_vec(n);
    let mut table = Table::new(["Trial", "Normal Reduction", "Ordered Reduction"]);
    let mut normal_bits = std::collections::HashSet::new();
    let mut ordered_bits = std::collections::HashSet::new();
    for trial in 1..=trials {
        let normal = unordered_threaded_sum(&xs, threads);
        let ordered = ordered_threaded_sum(&xs, threads);
        normal_bits.insert(normal.to_bits());
        ordered_bits.insert(ordered.to_bits());
        table.push_row([
            trial.to_string(),
            format!("{normal:.16e}"),
            format!("{ordered:.16e}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "distinct bit patterns over {trials} trials: normal = {}, ordered = {}",
        normal_bits.len(),
        ordered_bits.len()
    );
    cli.finish();
}
