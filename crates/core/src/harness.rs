//! Run-to-run variability reports.
//!
//! The paper's experimental template (§II, §IV) is always the same:
//!
//! 1. fix an input;
//! 2. compute a reference output `A` — from a deterministic kernel when
//!    one exists, otherwise from the first non-deterministic run
//!    (`A = B_0`);
//! 3. run the non-deterministic implementation `N` times, producing
//!    `B_1 … B_N`;
//! 4. report the distribution of `Vs` / `Vermv` / `Vc` over the runs.
//!
//! Experiments run steps 1–3 themselves: the tensor ops through
//! `fpna_tensor::sweep::OpCell` (Table 5, Figs 3–5), Table 7 through
//! `fpna_nn::train::train_inference_comparisons`. Each fans its runs out
//! through [`crate::executor::map_runs`], reseeds the simulated
//! scheduler from the run index (the analogue of "launch the kernel
//! again and let the hardware pick a new interleaving"), and collects
//! one [`ArrayComparison`] per run in run-index order. This module is
//! step 4: [`VariabilityReport::from_comparisons`] folds those
//! comparisons, and [`RunSummary`] describes any per-run metric. Because
//! the comparisons arrive in index order, a report is bit-for-bit
//! identical at any thread count and under any sharding of the runs.

use crate::metrics::ArrayComparison;

/// Descriptive statistics over the per-run metric values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Number of non-deterministic runs compared against the reference.
    pub runs: usize,
    /// Mean of the metric across runs.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for a single run).
    pub std_dev: f64,
    /// Minimum across runs.
    pub min: f64,
    /// Maximum across runs.
    pub max: f64,
}

impl RunSummary {
    /// Summarise a sequence of metric values.
    pub fn from_values(values: &[f64]) -> Self {
        let runs = values.len();
        if runs == 0 {
            return RunSummary {
                runs: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / runs as f64;
        let var = if runs > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (runs - 1) as f64
        } else {
            0.0
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        RunSummary {
            runs,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// Aggregated variability of a non-deterministic array-valued kernel
/// over repeated runs against a fixed reference.
#[derive(Debug, Clone)]
pub struct VariabilityReport {
    /// Summary of `Vermv` across runs.
    pub vermv: RunSummary,
    /// Summary of `Vc` across runs.
    pub vc: RunSummary,
    /// Summary of the max absolute elementwise difference across runs.
    pub max_abs_diff: RunSummary,
    /// Number of runs whose output was bitwise identical to the
    /// reference.
    pub bitwise_identical_runs: usize,
    /// Per-run raw metric values `(vermv, vc)`, for downstream
    /// distribution analysis.
    pub per_run: Vec<(f64, f64)>,
}

impl VariabilityReport {
    /// `true` when every run reproduced the reference bitwise — the
    /// definition of a reproducible kernel.
    pub fn fully_reproducible(&self) -> bool {
        self.bitwise_identical_runs == self.per_run.len()
    }

    /// Assemble a report from per-run comparisons in run-index order.
    pub fn from_comparisons(comparisons: &[ArrayComparison]) -> Self {
        let vermv: Vec<f64> = comparisons.iter().map(|c| c.vermv).collect();
        let vc: Vec<f64> = comparisons.iter().map(|c| c.vc).collect();
        let max_abs: Vec<f64> = comparisons.iter().map(|c| c.max_abs_diff).collect();
        VariabilityReport {
            vermv: RunSummary::from_values(&vermv),
            vc: RunSummary::from_values(&vc),
            max_abs_diff: RunSummary::from_values(&max_abs),
            bitwise_identical_runs: comparisons
                .iter()
                .filter(|c| c.bitwise_identical())
                .count(),
            per_run: comparisons.iter().map(|c| (c.vermv, c.vc)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_values() {
        let s = RunSummary::from_values(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn summary_known_std() {
        // values 1,2,3: mean 2, sample variance 1
        let s = RunSummary::from_values(&[1.0, 2.0, 3.0]);
        assert!((s.std_dev - 1.0).abs() < 1e-15);
        assert_eq!(s.runs, 3);
    }

    #[test]
    fn summary_empty_and_single() {
        let e = RunSummary::from_values(&[]);
        assert_eq!(e.runs, 0);
        let s = RunSummary::from_values(&[5.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 5.0);
    }

    /// The report over `runs` comparisons of `run(i)` against
    /// `reference`.
    fn report(reference: &[f64], runs: usize, run: impl Fn(usize) -> Vec<f64>) -> VariabilityReport {
        let comparisons: Vec<ArrayComparison> = (0..runs)
            .map(|i| ArrayComparison::compare(reference, &run(i)))
            .collect();
        VariabilityReport::from_comparisons(&comparisons)
    }

    #[test]
    fn deterministic_kernel_is_fully_reproducible() {
        let report = report(&[1.0, 2.0, 3.0], 10, |_| vec![1.0, 2.0, 3.0]);
        assert!(report.fully_reproducible());
        assert_eq!(report.vermv.mean, 0.0);
        assert_eq!(report.vc.max, 0.0);
    }

    #[test]
    fn perturbed_runs_are_detected() {
        // runs 0 and 2 perturb the first element
        let report = report(&[1.0, 2.0], 4, |i| {
            if i % 2 == 0 {
                vec![1.0 + 1e-12, 2.0]
            } else {
                vec![1.0, 2.0]
            }
        });
        assert_eq!(report.bitwise_identical_runs, 2);
        assert!(!report.fully_reproducible());
        assert!(report.vc.max > 0.0);
        assert_eq!(report.vc.min, 0.0);
    }
}
