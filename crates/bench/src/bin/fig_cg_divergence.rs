//! Conjugate-gradient divergence experiment (§I/§III): how fast do two
//! runs of the *same* CG solve separate when the inner products are
//! non-deterministic?
//!
//! The paper cites error accumulation approaching 20% of the values
//! after six or seven CG iterations on a massively multithreaded
//! machine (Villa et al.). Our simulated-GPU dot products reproduce the
//! growth *pattern* — near-total bitwise divergence of iterates within
//! a handful of iterations and exponentially growing Vermv — while both
//! runs still converge to the same solution to solver tolerance (the
//! practical saving grace, and the reason this bug class hides so
//! well).
//!
//! `cargo run --release -p fpna-bench --bin fig_cg_divergence [--grid 24]`

use fpna_core::report::Table;
use fpna_gpu_sim::GpuModel;
use fpna_solvers::cg::{divergence_experiment, CgConfig, ReductionMode};
use fpna_solvers::Csr;

fn main() {
    // The experiment is two *coupled* CG trajectories (compared per
    // iteration), so there is no independent-run loop to fan out;
    // parsed for the uniform `--threads`/`--paper-scale` flag surface.
    let mut cli = fpna_bench::Cli::parse();
    let grid = cli.size("grid", 24, 64);
    if grid == 0 {
        fpna_bench::usage_error("--grid must be at least 1, got 0");
    }
    let seed = cli.int("seed", 11);
    cli.start();
    fpna_bench::banner(
        "Fig (CG divergence)",
        "per-iteration divergence of two ND conjugate-gradient runs",
        &format!("2-D Poisson {grid}x{grid}, SPA dot products on simulated V100"),
    );
    let a = Csr::poisson_2d(grid);
    let mut rng = fpna_core::rng::SplitMix64::new(seed);
    let b: Vec<f64> = (0..grid * grid).map(|_| rng.next_f64() - 0.5).collect();
    let cfg = CgConfig {
        max_iters: 120,
        tolerance: 1e-12,
        reduction: ReductionMode::GpuNonDeterministic {
            model: GpuModel::V100,
            seed: 0,
        },
    };
    let d = divergence_experiment(&a, &b, &cfg, (seed, seed ^ 0xD1FF)).unwrap();
    let mut table = Table::new(["iteration", "iterate Vermv", "iterate Vc"]);
    let total = d.vermv_per_iteration.len();
    for k in 0..total {
        // print the first 10 iterations and then every 10th
        if k < 10 || k % 10 == 0 || k + 1 == total {
            table.push_row([
                (k + 1).to_string(),
                format!("{:.3e}", d.vermv_per_iteration[k]),
                format!("{:.3}", d.vc_per_iteration[k]),
            ]);
        }
    }
    println!("{}", table.render());
    println!();
    println!(
        "iteration counts: run A = {}, run B = {} (ND can even change how long CG runs)",
        d.iterations.0, d.iterations.1
    );
    println!(
        "final relative difference between the two solutions: {:.3e} \
         (both converged to tolerance — the divergence lives in the trajectory)",
        d.final_relative_diff
    );
    cli.finish();
}
