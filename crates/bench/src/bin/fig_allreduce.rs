//! Distributed allreduce variability — the paper's concluding
//! future-work item, made concrete: per-algorithm and per-ordering
//! run-to-run variability of a 64-rank allreduce, plus the
//! cross-algorithm inconsistency that runtime algorithm selection
//! introduces, and the exact (reproducible) fix.
//!
//! `cargo run --release -p fpna-bench --bin fig_allreduce [--ranks 64] [--len 4096] [--runs 50]
//!  [--threads N] [--paper-scale]`

use fpna_collectives::{allreduce, Algorithm, Ordering};
use fpna_core::executor::map_runs;
use fpna_core::metrics::ArrayComparison;
use fpna_core::report::Table;
use fpna_core::rng::SplitMix64;

fn main() {
    let mut cli = fpna_bench::Cli::parse();
    let p = cli.int("ranks", 64);
    if p == 0 {
        fpna_bench::usage_error("--ranks must be at least 1, got 0");
    }
    let len = cli.int("len", 4_096);
    let runs = cli.size("runs", 50, 1_000);
    let seed = cli.int("seed", 12);
    cli.start();
    fpna_bench::banner(
        "Fig (allreduce)",
        "run-to-run variability of distributed reductions",
        &format!("{p} ranks, {len}-element vectors, {runs} runs"),
    );
    let mut rng = SplitMix64::new(seed);
    let ranks: Vec<Vec<f64>> = (0..p)
        .map(|_| (0..len).map(|_| rng.next_f64() * 1e8 - 5e7).collect())
        .collect();

    let mut table = Table::new(["algorithm", "ordering", "runs differing", "mean Vc", "mean Vermv"]);
    let cases: Vec<(Algorithm, Ordering, &str, &str)> = vec![
        (Algorithm::KAryTree { fanout: 8 }, Ordering::ArrivalOrder { seed }, "8-ary tree", "arrival order"),
        (Algorithm::KAryTree { fanout: 2 }, Ordering::ArrivalOrder { seed }, "binary tree", "arrival order"),
        (Algorithm::KAryTree { fanout: 8 }, Ordering::RankOrder, "8-ary tree", "rank order (sw-scheduled)"),
        (Algorithm::Ring, Ordering::RankOrder, "ring", "fixed rotation"),
        (Algorithm::RecursiveDoubling, Ordering::RankOrder, "recursive doubling", "pairwise"),
        (Algorithm::KAryTree { fanout: 8 }, Ordering::Reproducible, "8-ary tree", "reproducible (exact)"),
    ];
    for (alg, ord, alg_name, ord_name) in cases {
        let reference = allreduce(&ranks, alg, rekey(ord, 0));
        let comparisons = map_runs(0..runs, |run| {
            let out = allreduce(&ranks, alg, rekey(ord, run as u64 + 1));
            ArrayComparison::compare(&reference, &out)
        });
        let differing = comparisons.iter().filter(|c| !c.bitwise_identical()).count();
        let vc_sum: f64 = comparisons.iter().map(|c| c.vc).sum();
        let vermv_sum: f64 = comparisons.iter().map(|c| c.vermv).sum();
        table.push_row([
            alg_name.to_string(),
            ord_name.to_string(),
            format!("{differing}/{runs}"),
            format!("{:.4}", vc_sum / runs as f64),
            format!("{:.3e}", vermv_sum / runs as f64),
        ]);
    }
    println!("{}", table.render());

    // Cross-algorithm inconsistency: each deterministic, mutually different.
    let ring = allreduce(&ranks, Algorithm::Ring, Ordering::RankOrder);
    let tree = allreduce(&ranks, Algorithm::KAryTree { fanout: 2 }, Ordering::RankOrder);
    let rd = allreduce(&ranks, Algorithm::RecursiveDoubling, Ordering::RankOrder);
    let cmp_rt = ArrayComparison::compare(&ring, &tree);
    let cmp_rr = ArrayComparison::compare(&ring, &rd);
    println!();
    println!(
        "cross-algorithm Vc (each algorithm deterministic, mutually inconsistent):\n\
         \u{2022} ring vs binary tree        : {:.4}\n\
         \u{2022} ring vs recursive doubling : {:.4}",
        cmp_rt.vc, cmp_rr.vc
    );
    let exact_a = allreduce(&ranks, Algorithm::Ring, Ordering::Reproducible);
    let exact_b = allreduce(&ranks, Algorithm::KAryTree { fanout: 5 }, Ordering::Reproducible);
    let cmp = ArrayComparison::compare(&exact_a, &exact_b);
    println!(
        "reproducible mode across different algorithms: bitwise identical = {}",
        cmp.bitwise_identical()
    );
    cli.finish();
}

fn rekey(ord: Ordering, run: u64) -> Ordering {
    match ord {
        Ordering::ArrivalOrder { seed } => Ordering::ArrivalOrder {
            seed: fpna_core::rng::derive_seed(seed, run),
        },
        other => other,
    }
}
