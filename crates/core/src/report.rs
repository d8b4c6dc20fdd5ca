//! Plain-text table rendering for the experiment binaries.
//!
//! Every `table*` / `fig*` binary in `fpna-bench` prints rows in the
//! same layout the paper uses. This module provides a small
//! column-aligned table builder plus the number formats that appear in
//! the paper: fixed-width scientific notation with 15 significant
//! digits (Table 1), `mean(std)` timing cells (Table 4), and percentage
//! penalties.

use std::fmt::Write as _;

/// Column-aligned plain-text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: Option<String>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            title: None,
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Attach a caption printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append a row. The number of cells must match the header.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells, table has {} columns",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "{title}");
        }
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let sep = if i + 1 == cols { "\n" } else { "  " };
                let _ = write!(out, "{:<width$}{}", cell, sep, width = widths[i]);
            }
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Scientific notation with 15 significant digits, e.g.
/// `-1.776356839400250e-15` — the format of Table 1.
pub fn sci(x: f64) -> String {
    format!("{x:.15e}")
}

/// The paper's `mean(std)` cell format for timings, e.g. `6.456(0.008)`.
pub fn mean_std(mean: f64, std: f64, decimals: usize) -> String {
    format!("{mean:.decimals$}({std:.decimals$})")
}

/// Percentage with 4 significant decimals, for the `Ps` penalty column.
pub fn percent(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["size", "Vs"]).with_title("demo");
        t.push_row(["100", "1.0e-16"]);
        t.push_row(["1000000", "3.1e-15"]);
        let s = t.render();
        assert!(s.starts_with("demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
        // all data lines equal width alignment: the Vs column starts at
        // the same offset in both rows
        let off_a = lines[3].find("1.0e-16").unwrap();
        let off_b = lines[4].find("3.1e-15").unwrap();
        assert_eq!(off_a, off_b);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn formats() {
        assert_eq!(sci(-1.776_356_839_400_25e-15), "-1.776356839400250e-15");
        assert_eq!(mean_std(6.456, 0.008, 3), "6.456(0.008)");
        assert_eq!(percent(-0.198538), "-0.1985");
    }
}
