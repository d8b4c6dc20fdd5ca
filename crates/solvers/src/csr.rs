//! Compressed sparse row matrices with deterministic and
//! non-deterministic sparse matrix–vector products.
//!
//! The row-gather SpMV (`spmv`) accumulates each output element in
//! column order — deterministic. The column-scatter SpMV
//! (`spmv_scatter`) mirrors the GPU pattern where non-zeros are
//! distributed over threads and contributions land in the output with
//! `atomicAdd`: its accumulation order follows the simulated device's
//! commit order, making it run-to-run non-deterministic.

use fpna_core::error::FpnaError;
use fpna_core::rng::SplitMix64;
use fpna_core::Result;
use fpna_gpu_sim::{GpuDevice, ScheduleKind};

/// A CSR matrix over `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Build from (row, col, value) triplets; duplicate entries are
    /// summed. Triplets may arrive in any order.
    ///
    /// # Panics
    ///
    /// Panics if a triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) out of bounds");
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for entries in per_row.iter_mut() {
            entries.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < entries.len() {
                let (c, mut v) = entries[i];
                let mut j = i + 1;
                while j < entries.len() && entries[j].0 == c {
                    v += entries[j].1;
                    j += 1;
                }
                col_idx.push(c as u32);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// 2-D Poisson (5-point Laplacian) matrix on an `n × n` grid:
    /// symmetric positive definite, the classic CG test problem.
    pub fn poisson_2d(n: usize) -> Self {
        assert!(n > 0, "grid must be non-empty");
        let dim = n * n;
        let mut triplets = Vec::with_capacity(5 * dim);
        let idx = |i: usize, j: usize| i * n + j;
        for i in 0..n {
            for j in 0..n {
                triplets.push((idx(i, j), idx(i, j), 4.0));
                if i > 0 {
                    triplets.push((idx(i, j), idx(i - 1, j), -1.0));
                }
                if i + 1 < n {
                    triplets.push((idx(i, j), idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    triplets.push((idx(i, j), idx(i, j - 1), -1.0));
                }
                if j + 1 < n {
                    triplets.push((idx(i, j), idx(i, j + 1), -1.0));
                }
            }
        }
        Csr::from_triplets(dim, dim, &triplets)
    }

    /// Random sparse symmetric diagonally-dominant matrix (hence SPD):
    /// `nnz_per_row` off-diagonal entries per row, seeded.
    pub fn random_spd(dim: usize, nnz_per_row: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut triplets = Vec::new();
        let mut row_sums = vec![0.0f64; dim];
        for r in 0..dim {
            for _ in 0..nnz_per_row {
                let c = rng.next_below(dim as u64) as usize;
                if c == r {
                    continue;
                }
                let v = rng.next_f64() - 0.5;
                triplets.push((r, c, v));
                triplets.push((c, r, v)); // symmetry
                row_sums[r] += v.abs();
                row_sums[c] += v.abs();
            }
        }
        for (r, &s) in row_sums.iter().enumerate() {
            triplets.push((r, r, s + 1.0)); // strict dominance
        }
        Csr::from_triplets(dim, dim, &triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Deterministic SpMV: `y = A·x`, each row accumulated in column
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` has the wrong length.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(FpnaError::shape(format!(
                "spmv: vector length {} != cols {}",
                x.len(),
                self.cols
            )));
        }
        let mut y = vec![0.0f64; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yr = acc;
        }
        Ok(y)
    }

    /// Non-deterministic SpMV: every non-zero contributes
    /// `A[r,c]·x[c]` to `y[r]` via the simulated device's atomic
    /// scatter unit; contributions commit in schedule order.
    pub fn spmv_scatter(
        &self,
        x: &[f64],
        device: &GpuDevice,
        kind: &ScheduleKind,
    ) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(FpnaError::shape(format!(
                "spmv_scatter: vector length {} != cols {}",
                x.len(),
                self.cols
            )));
        }
        let mut contribs = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                contribs.push((r as u32, self.values[k] * x[self.col_idx[k] as usize]));
            }
        }
        let mut y = vec![0.0f64; self.rows];
        device.atomic_scatter_add(&mut y, &contribs, kind);
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_gpu_sim::GpuModel;

    /// `true` when `a` is exactly symmetric in its stored pattern and
    /// values.
    fn is_symmetric(a: &Csr) -> bool {
        if a.rows != a.cols {
            return false;
        }
        let get = |r: usize, c: usize| -> f64 {
            let lo = a.row_ptr[r];
            let hi = a.row_ptr[r + 1];
            match a.col_idx[lo..hi].binary_search(&(c as u32)) {
                Ok(k) => a.values[lo + k],
                Err(_) => 0.0,
            }
        };
        (0..a.rows).all(|r| {
            (a.row_ptr[r]..a.row_ptr[r + 1]).all(|k| get(a.col_idx[k] as usize, r) == a.values[k])
        })
    }

    #[test]
    fn triplets_build_and_dedupe() {
        let a = Csr::from_triplets(2, 3, &[(0, 1, 2.0), (0, 1, 3.0), (1, 0, 1.0)]);
        assert_eq!(a.nnz(), 2);
        let y = a.spmv(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![5.0, 1.0]);
    }

    #[test]
    fn poisson_is_spd_shaped() {
        let a = Csr::poisson_2d(4);
        assert_eq!(a.rows(), 16);
        assert!(is_symmetric(&a));
        // Laplacian row sums: 4 - (#neighbours) >= 0, interior rows 0
        let ones = vec![1.0; 16];
        let y = a.spmv(&ones).unwrap();
        assert!(y.iter().all(|&v| v >= 0.0));
        // corner rows have two neighbours: 4 - 2 = 2
        assert_eq!(y[0], 2.0);
    }

    #[test]
    fn random_spd_is_symmetric_and_dominant() {
        let a = Csr::random_spd(50, 4, 9);
        assert!(is_symmetric(&a));
        // x^T A x > 0 for a few random x (necessary condition check)
        let mut rng = SplitMix64::new(1);
        for _ in 0..5 {
            let x: Vec<f64> = (0..50).map(|_| rng.next_f64() - 0.5).collect();
            let ax = a.spmv(&x).unwrap();
            let quad: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
            assert!(quad > 0.0, "not positive definite? x^T A x = {quad}");
        }
    }

    #[test]
    fn scatter_spmv_matches_gather_to_rounding() {
        let a = Csr::random_spd(100, 6, 2);
        let mut rng = SplitMix64::new(3);
        let x: Vec<f64> = (0..100).map(|_| rng.next_f64() * 1e3).collect();
        let gather = a.spmv(&x).unwrap();
        let device = GpuDevice::new(GpuModel::V100);
        let scatter = a.spmv_scatter(&x, &device, &ScheduleKind::Seeded(4)).unwrap();
        for (g, s) in gather.iter().zip(&scatter) {
            assert!((g - s).abs() < 1e-9 * g.abs().max(1.0));
        }
    }

    #[test]
    fn scatter_spmv_is_schedule_sensitive() {
        // Needs enough non-zeros to span several thread blocks (a
        // single block has no commit-order freedom) and enough
        // contributions per output row for ordering to matter.
        let a = Csr::random_spd(64, 48, 5);
        let mut rng = SplitMix64::new(6);
        let x: Vec<f64> = (0..64).map(|_| rng.next_f64() * 1e8 - 5e7).collect();
        let device = GpuDevice::new(GpuModel::V100);
        let mut bits = std::collections::HashSet::new();
        for run in 0..10 {
            let y = a
                .spmv_scatter(&x, &device, &ScheduleKind::Seeded(7).for_run(run))
                .unwrap();
            bits.insert(y.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        assert!(bits.len() > 1, "scatter SpMV should vary across schedules");
    }

    #[test]
    fn shape_errors() {
        let a = Csr::poisson_2d(2);
        assert!(a.spmv(&[1.0]).is_err());
        let device = GpuDevice::new(GpuModel::V100);
        assert!(a.spmv_scatter(&[1.0], &device, &ScheduleKind::InOrder).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_triplet_panics() {
        Csr::from_triplets(2, 2, &[(5, 0, 1.0)]);
    }
}
