//! Run-to-run variability harness.
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
//! [`VariabilityHarness`] packages that template. The closure receives
//! the run index, which experiments use to reseed the simulated
//! scheduler — the analogue of "launch the kernel again and let the
//! hardware pick a new interleaving".
//!
//! Runs fan out through [`crate::executor::map_runs`] on the calling
//! thread's worker budget. Because per-run seeds are index-keyed and
//! comparisons are collected in run-index order, every
//! [`VariabilityReport`] is bit-for-bit identical at any thread count.

use crate::executor::map_runs;
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

/// Harness executing the paper's repeated-run experimental template.
#[derive(Debug, Clone, Copy)]
pub struct VariabilityHarness {
    /// Number of non-deterministic runs.
    pub runs: usize,
}

impl VariabilityHarness {
    /// A harness performing `runs` non-deterministic executions.
    pub fn new(runs: usize) -> Self {
        VariabilityHarness { runs }
    }

    /// Scalar experiment: `reference` is the deterministic output,
    /// `run(i)` the i-th non-deterministic output. Returns the per-run
    /// `Vs` values.
    pub fn scalar<F>(&self, reference: f64, run: F) -> Vec<f64>
    where
        F: Fn(usize) -> f64 + Sync,
    {
        map_runs(0..self.runs, |i| crate::metrics::scalar_variability(run(i), reference))
    }

    /// Array experiment with a deterministic reference output.
    pub fn array<F>(&self, reference: &[f64], run: F) -> VariabilityReport
    where
        F: Fn(usize) -> Vec<f64> + Sync,
    {
        let comparisons = self.comparisons_range(reference, 0..self.runs, run);
        VariabilityReport::from_comparisons(&comparisons)
    }

    /// Per-run comparisons for the **global** run indices in `range` —
    /// the shardable slice of [`VariabilityHarness::array`]. `run(i)`
    /// receives the global index, so a shard computing `a..b` of an
    /// `0..runs` experiment produces bit-for-bit the comparisons a
    /// single process would have produced at those indices; a report
    /// assembled from the concatenation (in index order) of any
    /// partition equals the single-process report.
    pub fn comparisons_range<F>(
        &self,
        reference: &[f64],
        range: std::ops::Range<usize>,
        run: F,
    ) -> Vec<ArrayComparison>
    where
        F: Fn(usize) -> Vec<f64> + Sync,
    {
        debug_assert!(range.end <= self.runs, "range beyond the experiment's runs");
        map_runs(range, |i| {
            let out = run(i);
            ArrayComparison::compare(reference, &out)
        })
    }

    /// Array experiment for ops *without* a deterministic kernel: the
    /// first run becomes the reference (`A = B_0`, paper §IV), and the
    /// remaining `runs − 1` executions are compared against it.
    pub fn array_self_referenced<F>(&self, run: F) -> VariabilityReport
    where
        F: Fn(usize) -> Vec<f64> + Sync,
    {
        assert!(self.runs >= 1, "self-referenced experiment needs >= 1 run");
        let reference = run(0);
        VariabilityHarness::new(self.runs - 1).array(&reference, |i| run(i + 1))
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

    #[test]
    fn deterministic_kernel_is_fully_reproducible() {
        let h = VariabilityHarness::new(10);
        let reference = vec![1.0, 2.0, 3.0];
        let report = h.array(&reference, |_| vec![1.0, 2.0, 3.0]);
        assert!(report.fully_reproducible());
        assert_eq!(report.vermv.mean, 0.0);
        assert_eq!(report.vc.max, 0.0);
    }

    #[test]
    fn perturbed_runs_are_detected() {
        let h = VariabilityHarness::new(4);
        let reference = vec![1.0, 2.0];
        // runs 0 and 2 perturb the first element
        let report = h.array(&reference, |i| {
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

    #[test]
    fn scalar_harness_reports_vs_per_run() {
        let h = VariabilityHarness::new(3);
        let vs = h.scalar(10.0, |i| 10.0 + i as f64 * 1e-13);
        assert_eq!(vs[0], 0.0);
        assert!(vs[1] < 0.0); // larger magnitude => negative Vs
        assert!(vs[2] < vs[1]);
    }

    #[test]
    fn self_referenced_uses_first_run() {
        let h = VariabilityHarness::new(3);
        let outputs = [vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]];
        let report = h.array_self_referenced(|i| outputs[i].clone());
        // 2 comparisons: run1 identical, run2 differs in 1 of 2 elements
        assert_eq!(report.per_run.len(), 2);
        assert_eq!(report.bitwise_identical_runs, 1);
        assert_eq!(report.vc.max, 0.5);
    }
}
