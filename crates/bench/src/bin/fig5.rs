//! Fig 5: tensor variability `Vermv` vs reduction ratio for
//! `scatter_reduce(sum)`, `scatter_reduce(mean)` (2000-element arrays)
//! and `index_add` (100 × 100), with bootstrap error bars. The paper
//! plots `Vermv × 1e7`.
//!
//! `cargo run --release -p fpna-bench --bin fig5 [--runs 40] [--threads N] [--paper-scale]`

use fpna_bench::usage_error;

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let runs = cli.size("runs", 40, 1_000);
    if runs < 2 {
        usage_error(format!("--runs must be at least 2 (run 0 is the reference), got {runs}"));
    }
    let seed = cli.int("seed", 45);
    cli.start();
    fpna_bench::banner(
        "Fig 5",
        "Vermv vs reduction ratio (x 1e7; scatter_reduce n=2000, index_add n=100x100)",
        &format!("{runs} runs per point (paper: 1000)"),
    );
    fpna_bench::ratio_table(runs, seed, |vermv, _| vermv * 1e7, 0xF16, 4);
    cli.finish();
}
