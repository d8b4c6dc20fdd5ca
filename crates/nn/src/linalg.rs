//! Small deterministic kernels: matmul, transpose-matmuls, row-softmax,
//! and a crate-private sparse × dense product for the constant
//! operands of GraphSAGE's first layer. Fixed loop order (i-k-j) means
//! fixed addition order — these never contribute to run-to-run
//! variability, keeping `index_add` the model's only non-deterministic
//! operation.
//!
//! Large matmuls are **row-blocked** across the intra-run thread
//! budget ([`fpna_core::executor::par_fill`]): every output row's
//! additions still happen in ascending-`k` order, so the parallel
//! result is bitwise identical to the serial one at any `--threads`
//! value; below `PAR_FLOP_FLOOR` the serial loop runs directly (the
//! GNN's layer matmuls are small enough that thread fan-out would cost
//! more than it saves).

use fpna_core::executor::par_fill;
use fpna_tensor::Tensor;

/// Minimum `m·k·n` multiply-add count before a matmul fans its output
/// rows across threads.
const PAR_FLOP_FLOOR: usize = 1 << 17;

/// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul inner dimension mismatch");
    let mut out = Tensor::zeros(vec![m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    let row_block = |rows: std::ops::Range<usize>, orows: &mut [f64]| {
        for (local, i) in rows.enumerate() {
            let orow = &mut orows[local * n..(local + 1) * n];
            for kk in 0..k {
                let aik = ad[i * k + kk];
                // The skip is part of the result, not only a speed-up:
                // a zero of either sign contributes nothing, where
                // `0·∞` or `0·NaN` would add a NaN. `Csr` keeps exactly
                // the entries this test does not skip.
                if aik == 0.0 {
                    continue;
                }
                let brow = &bd[kk * n..(kk + 1) * n];
                for j in 0..n {
                    orow[j] += aik * brow[j];
                }
            }
        }
    };
    if m * k * n >= PAR_FLOP_FLOOR {
        par_fill(od, n, row_block);
    } else {
        row_block(0..m, od);
    }
    out
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (gradient of weights).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_tn inner dimension mismatch");
    let mut out = Tensor::zeros(vec![m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    if m * k * n >= PAR_FLOP_FLOOR {
        // Row-blocked: each output row `i` accumulates over `kk` in
        // ascending order — exactly the per-element addition order of
        // the serial kk-outer loop below, so the bits match it.
        par_fill(od, n, |rows, orows| {
            for (local, i) in rows.enumerate() {
                let orow = &mut orows[local * n..(local + 1) * n];
                for kk in 0..k {
                    let aki = ad[kk * m + i];
                    if aki == 0.0 {
                        continue;
                    }
                    let brow = &bd[kk * n..(kk + 1) * n];
                    for j in 0..n {
                        orow[j] += aki * brow[j];
                    }
                }
            }
        });
    } else {
        // Serial: kk-outer keeps `A` reads sequential.
        for kk in 0..k {
            let arow = &ad[kk * m..(kk + 1) * m];
            let brow = &bd[kk * n..(kk + 1) * n];
            for i in 0..m {
                let aki = arow[i];
                if aki == 0.0 {
                    continue;
                }
                let orow = &mut od[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += aki * brow[j];
                }
            }
        }
    }
    out
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (gradient of inputs).
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_nt inner dimension mismatch");
    let mut out = Tensor::zeros(vec![m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    let row_block = |rows: std::ops::Range<usize>, orows: &mut [f64]| {
        for (local, i) in rows.enumerate() {
            let arow = &ad[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += arow[kk] * brow[kk];
                }
                orows[local * n + j] = acc;
            }
        }
    };
    if m * k * n >= PAR_FLOP_FLOOR {
        par_fill(od, n, row_block);
    } else {
        row_block(0..m, od);
    }
    out
}

/// A matrix stored as its nonzero entries, row by row in ascending
/// column order: exactly the entries [`matmul`] does not skip
/// (`!= 0.0`, so `-0.0` is dropped and NaN is kept).
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    cols: usize,
    /// Row `i`'s entries are `start[i]..start[i + 1]`.
    start: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
}

impl Csr {
    /// The nonzero entries of a `[rows, cols]` tensor.
    pub(crate) fn from_dense(a: &Tensor) -> Self {
        let (rows, cols) = (a.shape()[0], a.shape()[1]);
        assert!(rows.max(cols) <= u32::MAX as usize, "Csr indices are u32");
        let mut start = Vec::with_capacity(rows + 1);
        let (mut col, mut val) = (Vec::new(), Vec::new());
        start.push(0);
        for i in 0..rows {
            for (j, &v) in a.data()[i * cols..(i + 1) * cols].iter().enumerate() {
                if v != 0.0 {
                    col.push(j as u32);
                    val.push(v);
                }
            }
            start.push(col.len());
        }
        Csr {
            cols,
            start,
            col,
            val,
        }
    }

    fn rows(&self) -> usize {
        self.start.len() - 1
    }

    /// The transpose, in O(nnz + cols): a counting sort by column.
    /// Rows are visited in ascending order, so each column's entries
    /// come out in ascending row order.
    pub(crate) fn transpose(&self) -> Self {
        let mut start = vec![0usize; self.cols + 1];
        for &j in &self.col {
            start[j as usize + 1] += 1;
        }
        for j in 0..self.cols {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut col = vec![0u32; self.col.len()];
        let mut val = vec![0.0f64; self.val.len()];
        for i in 0..self.rows() {
            for e in self.start[i]..self.start[i + 1] {
                let slot = &mut next[self.col[e] as usize];
                col[*slot] = i as u32;
                val[*slot] = self.val[e];
                *slot += 1;
            }
        }
        Csr {
            cols: self.rows(),
            start,
            col,
            val,
        }
    }

    /// `self · b` for `b: [cols, n]`. Each output row adds its
    /// nonzeros' terms in ascending column order, so the result is
    /// bitwise [`matmul`] of the dense matrix; on the transpose it is
    /// bitwise [`matmul_tn`] of the dense matrix.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub(crate) fn matmul(&self, b: &Tensor) -> Tensor {
        let (kb, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(self.cols, kb, "sparse matmul inner dimension mismatch");
        let mut out = Tensor::zeros(vec![self.rows(), n]);
        let bd = b.data();
        let od = out.data_mut();
        for i in 0..self.rows() {
            let orow = &mut od[i * n..(i + 1) * n];
            let entries = self.start[i]..self.start[i + 1];
            for (&kk, &aik) in self.col[entries.clone()].iter().zip(&self.val[entries]) {
                let brow = &bd[kk as usize * n..(kk as usize + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aik * bkj;
                }
            }
        }
        out
    }

    /// The dense form (missing entries are `+0.0`).
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(vec![self.rows(), self.cols]);
        for i in 0..self.rows() {
            for e in self.start[i]..self.start[i + 1] {
                out.data_mut()[i * self.cols + self.col[e] as usize] = self.val[e];
            }
        }
        out
    }
}

/// Row-wise softmax.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let cols = x.shape()[1];
    let mut out = x.clone();
    for row in out.data_mut().chunks_mut(cols) {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
    out
}

/// Add a bias row to every row, in place.
pub fn add_bias_rows(x: &mut Tensor, bias: &[f64]) {
    let cols = x.shape()[1];
    assert_eq!(bias.len(), cols, "bias width mismatch");
    for row in x.data_mut().chunks_mut(cols) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;
    use proptest::prelude::*;

    /// A `[rows, cols]` matrix: each entry is `specials[i]` with
    /// probability 1/8 each while `i < specials.len()`, and otherwise a
    /// finite value of magnitude 10⁻³..10³ and random sign.
    fn matrix(rows: usize, cols: usize, rng: &mut SplitMix64, specials: &[f64]) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| {
                let pick = rng.next_below(8) as usize;
                match specials.get(pick) {
                    Some(&v) => v,
                    None => {
                        let scale = 10f64.powi(rng.next_below(7) as i32 - 3);
                        (2.0 * rng.next_f64() - 1.0) * scale
                    }
                }
            })
            .collect();
        Tensor::from_vec(vec![rows, cols], data)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sparse product is bitwise `matmul` of the dense matrix,
        /// and on the transpose bitwise `matmul_tn`: zeros of either
        /// sign in the sparse operand contribute nothing, and the
        /// infinities and NaNs of the dense operand meet the same
        /// terms in the same order.
        #[test]
        fn sparse_product_is_bitwise_dense(
            seed in any::<u64>(),
            m in 0usize..24,
            k in 0usize..40,
            n in 0usize..10,
        ) {
            let mut rng = SplitMix64::new(seed);
            let a = matrix(m, k, &mut rng, &[0.0, -0.0, 0.0, -0.0]);
            let b = matrix(k, n, &mut rng, &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0]);
            let c = matrix(m, n, &mut rng, &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0]);
            let sparse = Csr::from_dense(&a);
            prop_assert!(sparse.matmul(&b).bitwise_eq(&matmul(&a, &b)));
            prop_assert!(sparse.transpose().matmul(&c).bitwise_eq(&matmul_tn(&a, &c)));
        }
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree() {
        let a = Tensor::randn(vec![4, 5], 1);
        let b = Tensor::randn(vec![4, 3], 2);
        // A^T B  via matmul_tn == manual transpose + matmul
        let at = {
            let mut t = Tensor::zeros(vec![5, 4]);
            for i in 0..4 {
                for j in 0..5 {
                    t.data_mut()[j * 4 + i] = a.data()[i * 5 + j];
                }
            }
            t
        };
        let want = matmul(&at, &b);
        let got = matmul_tn(&a, &b);
        for (x, y) in want.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-12);
        }
        // A B^T via matmul_nt
        let c = Tensor::randn(vec![6, 5], 3);
        let ct = {
            let mut t = Tensor::zeros(vec![5, 6]);
            for i in 0..6 {
                for j in 0..5 {
                    t.data_mut()[j * 6 + i] = c.data()[i * 5 + j];
                }
            }
            t
        };
        let want = matmul(&a, &ct);
        let got = matmul_nt(&a, &c);
        for (x, y) in want.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_is_bitwise_deterministic() {
        let a = Tensor::randn(vec![20, 30], 4);
        let b = Tensor::randn(vec![30, 10], 5);
        assert!(matmul(&a, &b).bitwise_eq(&matmul(&a, &b)));
    }

    #[test]
    fn softmax_normalises_and_is_stable() {
        let x = Tensor::from_vec(vec![1, 3], vec![1000.0, 1001.0, 1002.0]);
        let s = softmax_rows(&x);
        let sum: f64 = s.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(s.data().iter().all(|&p| p.is_finite() && p > 0.0));
    }

    #[test]
    fn bias_rows() {
        let mut x = Tensor::zeros(vec![2, 2]);
        add_bias_rows(&mut x, &[1.0, -1.0]);
        assert_eq!(x.data(), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_mismatch_panics() {
        matmul(&Tensor::zeros(vec![2, 3]), &Tensor::zeros(vec![4, 2]));
    }
}
