//! The shardable result model: per-(cell, run) metric rows.
//!
//! Every experiment wired through the sweep protocol is reduced to the
//! same shape: a set of named **cells** (one per table cell / figure
//! series — e.g. `"p32/fat-tree/s4/load0.5/ao0.1"`), each holding one
//! small `Vec<f64>` of metric values per **global run index**. Rows
//! are index-pure — the values at `(cell, run)` depend only on the
//! sweep spec and the global run index, never on which process
//! computed them — so concatenating any partition of the run range in
//! index order reproduces the single-process row set bit for bit, and
//! every report derived from rows is byte-identical too.
//!
//! Values cross process boundaries as 16-hex-digit [`f64::to_bits`]
//! strings ([`f64_to_hex`] / [`f64_from_hex`]), never as decimal
//! text, so serialization is lossless by construction.

use std::collections::BTreeMap;

use fpna_core::harness::{RunSummary, VariabilityReport};
use fpna_core::metrics::ArrayComparison;

/// Encode an `f64` as its 16-hex-digit bit pattern.
#[inline]
pub fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Decode a [`f64_to_hex`] string back to the identical `f64`.
pub fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("expected 16 hex digits, got {:?}", s));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 hex {s:?}: {e}"))
}

/// Per-(cell, run) metric rows for one sweep (or one shard of one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepRows {
    cells: BTreeMap<String, BTreeMap<usize, Vec<f64>>>,
}

impl SweepRows {
    /// An empty row set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the values for `(cell, run)`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already filled — within one process that
    /// is a compute-loop bug, not a data condition.
    pub fn push(&mut self, cell: &str, run: usize, values: Vec<f64>) {
        let prev = self
            .cells
            .entry(cell.to_string())
            .or_default()
            .insert(run, values);
        assert!(
            prev.is_none(),
            "duplicate row for cell {cell:?} run {run}"
        );
    }

    /// Number of distinct cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total number of (cell, run) rows.
    pub fn row_count(&self) -> usize {
        self.cells.values().map(BTreeMap::len).sum()
    }

    /// `true` when no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate cells in name order; each item is
    /// `(cell, runs-in-index-order)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &BTreeMap<usize, Vec<f64>>)> {
        self.cells.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The runs recorded for `cell`, in index order. Empty for an
    /// unknown cell.
    pub fn runs(&self, cell: &str) -> Vec<usize> {
        self.cells
            .get(cell)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The values stored at `(cell, run)`.
    pub fn values(&self, cell: &str, run: usize) -> Option<&[f64]> {
        self.cells.get(cell)?.get(&run).map(Vec::as_slice)
    }

    /// Column `col` of `cell` across its runs, in run-index order.
    ///
    /// # Panics
    ///
    /// Panics if any row of the cell is too short — columns are part
    /// of a cell's schema, so a ragged cell is corrupt data.
    pub fn column(&self, cell: &str, col: usize) -> Vec<f64> {
        match self.cells.get(cell) {
            None => Vec::new(),
            Some(m) => m
                .iter()
                .map(|(run, v)| {
                    *v.get(col).unwrap_or_else(|| {
                        panic!("cell {cell:?} run {run} has no column {col}")
                    })
                })
                .collect(),
        }
    }

    /// Reassemble [`ArrayComparison`]s from a cell that stores the
    /// comparison convention `[vermv, vc, max_abs_diff, len, ..]` in
    /// its first four columns, in run-index order.
    pub fn comparisons(&self, cell: &str) -> Vec<ArrayComparison> {
        match self.cells.get(cell) {
            None => Vec::new(),
            Some(m) => m
                .iter()
                .map(|(run, v)| {
                    assert!(
                        v.len() >= 4,
                        "cell {cell:?} run {run}: comparison rows need 4 columns"
                    );
                    ArrayComparison::from_parts(v[0], v[1], v[2], v[3] as usize)
                })
                .collect(),
        }
    }

    /// [`VariabilityReport`] over a comparison-convention cell —
    /// bitwise the report one process folds from the same comparisons
    /// in run-index order.
    pub fn variability_report(&self, cell: &str) -> VariabilityReport {
        VariabilityReport::from_comparisons(&self.comparisons(cell))
    }

    /// [`RunSummary`] over one column of a cell.
    pub fn run_summary(&self, cell: &str, col: usize) -> RunSummary {
        RunSummary::from_values(&self.column(cell, col))
    }

    /// Merge another row set into this one (shard merge). Fails on any
    /// overlapping `(cell, run)` slot — overlap means two shards both
    /// claimed a run, which the coordinator must surface, not resolve.
    pub fn absorb(&mut self, other: SweepRows) -> Result<(), String> {
        for (cell, runs) in other.cells {
            let slot = self.cells.entry(cell.clone()).or_default();
            for (run, values) in runs {
                if slot.insert(run, values).is_some() {
                    return Err(format!(
                        "overlapping shards: cell {cell:?} run {run} appears twice"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(range: std::ops::Range<usize>) -> SweepRows {
        let mut rows = SweepRows::new();
        for run in range {
            let x = (run as f64 + 1.0).recip();
            rows.push("a", run, vec![x, x * x, -x, 8.0]);
            rows.push("b", run, vec![x * 3.0]);
        }
        rows
    }

    #[test]
    fn hex_round_trip_is_bitwise() {
        for x in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-308, -7.25e17] {
            let back = f64_from_hex(&f64_to_hex(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert!(f64_from_hex("abc").is_err());
        assert!(f64_from_hex("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn absorb_of_partition_matches_full() {
        let full = sample_rows(0..10);
        let mut merged = sample_rows(0..3);
        merged.absorb(sample_rows(3..7)).unwrap();
        merged.absorb(sample_rows(7..10)).unwrap();
        assert_eq!(merged, full);
        assert_eq!(merged.row_count(), 20);
    }

    #[test]
    fn absorb_detects_overlap() {
        let mut rows = sample_rows(0..5);
        let err = rows.absorb(sample_rows(4..6)).unwrap_err();
        assert!(err.contains("run 4"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn push_rejects_duplicates() {
        let mut rows = SweepRows::new();
        rows.push("a", 0, vec![1.0]);
        rows.push("a", 0, vec![2.0]);
    }

    #[test]
    fn reports_match_harness_conventions() {
        let rows = sample_rows(0..6);
        let report = rows.variability_report("a");
        assert_eq!(report.per_run.len(), 6);
        let direct = VariabilityReport::from_comparisons(&rows.comparisons("a"));
        assert_eq!(report.vermv, direct.vermv);
        let s = rows.run_summary("b", 0);
        assert_eq!(s.runs, 6);
        assert_eq!(s.max, 3.0);
    }
}
