//! Fig 4: count variability `Vc` vs reduction ratio for
//! `scatter_reduce(sum)`, `scatter_reduce(mean)` (2000-element 1-D
//! arrays) and `index_add` (100 × 100 arrays), with bootstrap error
//! bars.
//!
//! `cargo run --release -p fpna-bench --bin fig4 [--runs 40] [--threads N] [--paper-scale]`

use fpna_bench::usage_error;

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 40, 1_000);
    if runs < 2 {
        usage_error(format!("--runs must be at least 2 (run 0 is the reference), got {runs}"));
    }
    let seed = cli.int("seed", 44);
    cli.start();
    fpna_bench::banner(
        "Fig 4",
        "Vc vs reduction ratio (scatter_reduce n=2000, index_add n=100x100)",
        &format!("{runs} runs per point (paper: 1000)"),
    );
    fpna_bench::ratio_table(runs, seed, |_, vc| vc, 0xB007, 5);
    cli.finish();
}
