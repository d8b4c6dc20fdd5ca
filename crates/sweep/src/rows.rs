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
//!
//! [`ExactStats`] folds every column of every cell into an
//! [`ExactAccumulator`] — the error-free summation primitive from
//! `fpna-summation` — giving cross-shard statistics whose merge is
//! provably partition-invariant and a cheap [`ExactStats::fingerprint`]
//! for coordinator summaries and store validation.

use std::collections::BTreeMap;

use fpna_core::harness::{RunSummary, VariabilityReport};
use fpna_core::metrics::ArrayComparison;
use fpna_summation::ExactAccumulator;

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
    /// bitwise what `VariabilityHarness::array` would have returned in
    /// a single process.
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

/// Exact per-cell column sums across runs, built on
/// [`ExactAccumulator`] so merging per-shard stats in shard-index
/// order reproduces the single-process sums bitwise.
#[derive(Debug, Clone, Default)]
pub struct ExactStats {
    cells: BTreeMap<String, CellStats>,
}

/// Exact statistics for one cell: row count and one exact sum per
/// column.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Number of rows folded in.
    pub count: usize,
    /// One exact accumulator per column, normalized.
    pub sums: Vec<ExactAccumulator>,
}

impl ExactStats {
    /// Fold a row set into exact per-cell, per-column sums.
    pub fn from_rows(rows: &SweepRows) -> Self {
        let mut cells = BTreeMap::new();
        for (cell, runs) in rows.iter() {
            let width = runs.values().map(Vec::len).max().unwrap_or(0);
            let mut sums = vec![ExactAccumulator::new(); width];
            let mut count = 0usize;
            for values in runs.values() {
                count += 1;
                for (col, &v) in values.iter().enumerate() {
                    sums[col].add(v);
                }
            }
            for s in &mut sums {
                s.normalize();
            }
            cells.insert(cell.to_string(), CellStats { count, sums });
        }
        ExactStats { cells }
    }

    /// Iterate cells in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CellStats)> {
        self.cells.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Stats for one cell.
    pub fn cell(&self, cell: &str) -> Option<&CellStats> {
        self.cells.get(cell)
    }

    /// Insert (or replace) one cell's stats — the deserialization path
    /// for shard files.
    pub fn insert_cell(&mut self, cell: String, stats: CellStats) {
        self.cells.insert(cell, stats);
    }

    /// Merge another shard's stats into this one. Exactness of
    /// [`ExactAccumulator::merge`] makes the result independent of how
    /// runs were partitioned; calling in shard-index order keeps
    /// `count` bookkeeping deterministic too.
    pub fn merge_from(&mut self, other: &ExactStats) {
        for (cell, stats) in other.cells.iter() {
            match self.cells.get_mut(cell) {
                None => {
                    self.cells.insert(cell.clone(), stats.clone());
                }
                Some(mine) => {
                    mine.count += stats.count;
                    if mine.sums.len() < stats.sums.len() {
                        mine.sums
                            .resize_with(stats.sums.len(), ExactAccumulator::new);
                    }
                    for (col, acc) in stats.sums.iter().enumerate() {
                        mine.sums[col].merge(acc);
                        mine.sums[col].normalize();
                    }
                }
            }
        }
    }

    /// FNV-1a 64 digest of every cell name, count, and normalized
    /// accumulator wire encoding — a cheap bitwise fingerprint of the
    /// whole statistic set, used in coordinator summaries and the
    /// partition-invariance tests.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for (cell, stats) in &self.cells {
            bytes.extend_from_slice(cell.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&(stats.count as u64).to_le_bytes());
            for acc in &stats.sums {
                let mut a = acc.clone();
                a.normalize();
                bytes.extend_from_slice(&a.to_wire_bytes());
            }
        }
        crate::spec::fnv1a64(&bytes)
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

    #[test]
    fn exact_stats_merge_is_partition_invariant() {
        let full = ExactStats::from_rows(&sample_rows(0..50));
        for cuts in [vec![0, 50], vec![0, 13, 50], vec![0, 1, 2, 49, 50]] {
            let mut merged = ExactStats::default();
            for w in cuts.windows(2) {
                merged.merge_from(&ExactStats::from_rows(&sample_rows(w[0]..w[1])));
            }
            assert_eq!(merged.fingerprint(), full.fingerprint());
            let cell = merged.cell("a").unwrap();
            assert_eq!(cell.count, 50);
        }
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = ExactStats::from_rows(&sample_rows(0..5));
        let b = ExactStats::from_rows(&sample_rows(0..6));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
