//! Table 1: effects of random permutations on serial sums of FP64
//! numbers drawn from N(0, 1).
//!
//! `cargo run --release -p fpna-bench --bin table1 [--seed S] [--threads N]`

use fpna_core::executor::map_runs;
use fpna_core::report::{sci, Table};
use fpna_stats::samplers::{Distribution, Sampler};
use fpna_summation::serial::{randomly_permuted_sum, serial_sum};

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let seed = cli.int("seed", 2024);
    cli.start();
    fpna_bench::banner(
        "Table 1",
        "effects of permutations on sums of floating-point numbers",
        "",
    );
    let mut table = Table::new(["size", "Snd - Sd", "Vs"]);
    // The paper lists two permutations per size from 1e3 upward.
    let sizes = [
        100usize, 1_000, 1_000, 10_000, 10_000, 100_000, 100_000, 1_000_000, 1_000_000,
    ];
    // Each row is independent (sampling and permutation are keyed by
    // the row), so rows fan out across the worker budget.
    let rows = map_runs(0..sizes.len(), |row| {
        let n = sizes[row];
        let mut sampler = Sampler::new(
            Distribution::standard_normal(),
            seed ^ (n as u64).rotate_left(17),
        );
        let xs = sampler.sample_vec(n);
        let sd = serial_sum(&xs);
        let snd = randomly_permuted_sum(&xs, seed.wrapping_add(row as u64));
        let vs = fpna_core::metrics::scalar_variability(snd, sd);
        [n.to_string(), sci(snd - sd), sci(vs)]
    });
    for row in rows {
        table.push_row(row);
    }
    println!("{}", table.render());
    cli.finish();
}
