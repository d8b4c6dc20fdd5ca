//! Per-cell cost/variability summary through `fpna_core`.
//!
//! The experiment shape for network collectives is always "fix the
//! inputs, vary the fabric's jitter seed". A [`SeedSweep`] joins the
//! two things such a sweep measures: how the produced vectors vary
//! against a reference, with the paper's `Vermv`/`Vc` metrics (via
//! [`fpna_core::harness::VariabilityReport`]), and how the simulated
//! elapsed times spread. Variability *and* cost from the same runs is
//! the whole point of the table-9 sweep, which builds one `SeedSweep`
//! per cell from its sweep rows.

use fpna_core::harness::{RunSummary, VariabilityReport};

/// Joint variability/cost summary of a seed sweep.
#[derive(Debug, Clone)]
pub struct SeedSweep {
    /// Bitwise/relative variability of the produced vectors against
    /// the reference.
    pub variability: VariabilityReport,
    /// Simulated elapsed time (ns) across the runs.
    pub elapsed_ns: RunSummary,
}

impl SeedSweep {
    /// `true` when every seed reproduced the reference bitwise.
    pub fn bitwise_reproducible(&self) -> bool {
        self.variability.fully_reproducible()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::metrics::ArrayComparison;

    /// The summary of `(values, elapsed_ns)` outputs against
    /// `reference`, one per run.
    fn sweep(reference: &[f64], outputs: &[(Vec<f64>, f64)]) -> SeedSweep {
        let comparisons: Vec<ArrayComparison> = outputs
            .iter()
            .map(|(values, _)| ArrayComparison::compare(reference, values))
            .collect();
        let elapsed: Vec<f64> = outputs.iter().map(|&(_, dt)| dt).collect();
        SeedSweep {
            variability: VariabilityReport::from_comparisons(&comparisons),
            elapsed_ns: RunSummary::from_values(&elapsed),
        }
    }

    #[test]
    fn deterministic_runs_report_zero_variability() {
        let reference = vec![1.0, 2.0, 3.0];
        let outputs = vec![(reference.clone(), 100.0); 3];
        let sweep = sweep(&reference, &outputs);
        assert!(sweep.bitwise_reproducible());
        assert_eq!(sweep.variability.vc.max, 0.0);
        assert_eq!(sweep.elapsed_ns.mean, 100.0);
        assert_eq!(sweep.elapsed_ns.std_dev, 0.0);
    }

    #[test]
    fn seed_dependent_runs_are_caught() {
        let reference = vec![1.0, 2.0];
        let outputs: Vec<(Vec<f64>, f64)> = (0..4u64)
            .map(|s| {
                let mut v = reference.clone();
                if s % 2 == 1 {
                    v[0] += 1e-12;
                }
                (v, 100.0 + s as f64)
            })
            .collect();
        let sweep = sweep(&reference, &outputs);
        assert!(!sweep.bitwise_reproducible());
        assert_eq!(sweep.variability.bitwise_identical_runs, 2);
        assert_eq!(sweep.variability.vc.max, 0.5);
        assert!(sweep.elapsed_ns.std_dev > 0.0);
    }
}
