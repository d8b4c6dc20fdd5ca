//! Property tests for the parallel run fan-out: a report folded from
//! `map_runs` comparisons, the shape of every experiment, must be
//! **bitwise identical** to the serial (budget 1) execution at every
//! worker budget — the invariant that lets every fig/table binary
//! accept `--threads N` without changing a single printed digit. Each
//! test sets the budget on its own thread, so `FPNA_THREADS` cannot
//! make a serial reference parallel.

use proptest::collection::vec;
use proptest::prelude::*;

use fpna_core::executor::{map_runs, set_threads};
use fpna_core::harness::VariabilityReport;
use fpna_core::metrics::ArrayComparison;
use fpna_core::rng::{derive_seed, SplitMix64};

/// A deterministic, run-index-keyed stand-in for a non-deterministic
/// kernel: perturbs a base vector by an amount drawn from the per-run
/// seed, exactly the shape real experiments have.
fn fake_kernel(base: &[f64], experiment_seed: u64, run: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(derive_seed(experiment_seed, run as u64));
    base.iter()
        .map(|&x| {
            // roughly half the elements get a tiny seed-dependent nudge
            if rng.next_u64().is_multiple_of(2) {
                x + (rng.next_f64() - 0.5) * 1e-12
            } else {
                x
            }
        })
        .collect()
}

/// Runs `0..runs` of [`fake_kernel`] compared against `base`, fanned
/// out on the calling thread's budget and folded into one report.
fn report(base: &[f64], runs: usize, seed: u64) -> VariabilityReport {
    let comparisons = map_runs(0..runs, |i| {
        ArrayComparison::compare(base, &fake_kernel(base, seed, i))
    });
    VariabilityReport::from_comparisons(&comparisons)
}

fn summaries_identical(a: &VariabilityReport, b: &VariabilityReport) -> bool {
    let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.per_run.len() == b.per_run.len()
        && a.bitwise_identical_runs == b.bitwise_identical_runs
        && a.per_run
            .iter()
            .zip(&b.per_run)
            .all(|(p, q)| eq(p.0, q.0) && eq(p.1, q.1))
        && eq(a.vermv.mean, b.vermv.mean)
        && eq(a.vermv.std_dev, b.vermv.std_dev)
        && eq(a.vc.mean, b.vc.mean)
        && eq(a.vc.std_dev, b.vc.std_dev)
        && eq(a.max_abs_diff.min, b.max_abs_diff.min)
        && eq(a.max_abs_diff.max, b.max_abs_diff.max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel report == serial report, bit for bit.
    #[test]
    fn array_reports_thread_invariant(
        base in vec(-1e6..1e6f64, 1..64),
        runs in 1usize..25,
        seed in any::<u64>(),
    ) {
        set_threads(1);
        let serial = report(&base, runs, seed);
        for threads in [2usize, 4, 7] {
            set_threads(threads);
            let parallel = report(&base, runs, seed);
            prop_assert!(
                summaries_identical(&serial, &parallel),
                "report diverged at threads={}", threads
            );
        }
    }

    /// `map_runs` returns results in run-index order regardless of
    /// which worker computed what.
    #[test]
    fn map_runs_order_invariant(runs in 0usize..200, threads in 1usize..9) {
        set_threads(threads);
        let out = map_runs(0..runs, |i| i * 3 + 1);
        prop_assert_eq!(out, (0..runs).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }
}

/// Per-run seeds are a pure function of `(base_seed, run_index)` —
/// they cannot shift when the worker count changes, which is the other
/// half of the order-invariance argument.
#[test]
fn run_seeds_stable_under_thread_count_changes() {
    let base_seed = 0xFEED_F00Du64;
    let expected: Vec<u64> = (0..64).map(|i| derive_seed(base_seed, i)).collect();
    for threads in [1usize, 2, 4, 7, 16] {
        set_threads(threads);
        let observed = map_runs(0..64, |i| derive_seed(base_seed, i as u64));
        assert_eq!(observed, expected, "seed stream changed at threads={threads}");
    }
}
