//! Small deterministic kernels: matmul, transpose-matmuls, row-softmax,
//! and a crate-private sparse × dense product for the constant
//! operands of GraphSAGE's first layer. These never contribute to
//! run-to-run variability, keeping `index_add` the model's only
//! non-deterministic operation.
//!
//! All four products run one register-blocked kernel, `accumulate`: it
//! builds an output row `W` columns at a time (`W` = 8 when `n ≤ 8`,
//! else 16) in an `[f64; W]` that starts at `+0.0` and adds the row's
//! terms in ascending `k`, reading `B` from a copy packed once per call
//! into zero-padded `W`-wide column panels. Every output element thus
//! sums the same terms in the same order as an i-k-j loop, so the bits
//! are that loop's (the test module keeps those loops as the
//! reference). `matmul` and `matmul_tn` drop zero terms by compacting
//! each row (or column) of `A` into its nonzero `(coef, k)` pairs
//! without a branch on the value: exactly the entries `Csr` stores.
//! The kernel is not inlined, so dense and sparse products run the same
//! machine code and agree even on the NaN bits Rust leaves unspecified.
//!
//! Large products are **row-blocked** across the intra-run thread
//! budget ([`fpna_core::executor::par_fill`]): rows are independent, so
//! the parallel result is bitwise identical to the serial one at any
//! `--threads` value; below `PAR_FLOP_FLOOR` the rows run on the
//! calling thread (the GNN's layer products are small enough that
//! thread fan-out would cost more than it saves).

use fpna_core::executor::par_fill;
use fpna_tensor::Tensor;

/// Minimum `m·k·n` multiply-add count before a product fans its output
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
    product(Lhs::Rows(a.data()), m, k, b.data(), n, [n, 1])
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (gradient of weights).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_tn inner dimension mismatch");
    product(Lhs::Cols(a.data()), m, k, b.data(), n, [n, 1])
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (gradient of inputs).
/// Unlike [`matmul`], every term is added, zeros included.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_nt inner dimension mismatch");
    product(Lhs::Every(a.data()), m, k, b.data(), n, [1, k])
}

/// Where output row `i` of a product takes its `(coef, k)` terms.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// The nonzero entries of row `i` of a dense `A: [m, k]`.
    Rows(&'a [f64]),
    /// The nonzero entries of column `i` of a dense `A: [k, m]`.
    Cols(&'a [f64]),
    /// Every entry of row `i` of a dense `A: [m, k]`.
    Every(&'a [f64]),
    /// The stored entries of row `i`.
    Sparse(&'a Csr),
}

/// `C: [m, n]`, row `i` the sum of `lhs`'s row-`i` terms against `B`,
/// whose entry `(kk, j)` is `b[kk * stride[0] + j * stride[1]]`.
fn product(lhs: Lhs<'_>, m: usize, k: usize, b: &[f64], n: usize, stride: [usize; 2]) -> Tensor {
    assert!(k <= u32::MAX as usize, "inner dimension indices are u32");
    if n <= 8 {
        blocked::<8>(lhs, m, k, &pack(b, k, n, stride), n)
    } else {
        blocked::<16>(lhs, m, k, &pack(b, k, n, stride), n)
    }
}

/// `B: [k, n]` as zero-padded `W`-wide column panels: entry `(kk, j)`
/// sits at lane `j % W` of `panels[(j / W) * k + kk]`.
fn pack<const W: usize>(b: &[f64], k: usize, n: usize, stride: [usize; 2]) -> Vec<[f64; W]> {
    let mut panels = vec![[0.0; W]; n.div_ceil(W) * k];
    for p in 0..n.div_ceil(W) {
        for (kk, lanes) in panels[p * k..(p + 1) * k].iter_mut().enumerate() {
            for (lane, j) in lanes.iter_mut().zip(p * W..n.min(p * W + W)) {
                *lane = b[kk * stride[0] + j * stride[1]];
            }
        }
    }
    panels
}

/// The product's rows, fanned across threads above `PAR_FLOP_FLOOR`.
fn blocked<const W: usize>(
    lhs: Lhs<'_>,
    m: usize,
    k: usize,
    panels: &[[f64; W]],
    n: usize,
) -> Tensor {
    let mut out = Tensor::zeros(vec![m, n]);
    let every: Vec<u32> = match lhs {
        Lhs::Every(_) => (0..k as u32).collect(),
        _ => Vec::new(),
    };
    let row_block = |rows: std::ops::Range<usize>, orows: &mut [f64]| {
        let (mut coef, mut at) = match lhs {
            Lhs::Rows(_) | Lhs::Cols(_) => (vec![0.0; k], vec![0u32; k]),
            _ => (Vec::new(), Vec::new()),
        };
        for (local, i) in rows.enumerate() {
            let (c, ks): (&[f64], &[u32]) = match lhs {
                Lhs::Rows(a) => {
                    let len = compact(&a[i * k..(i + 1) * k], &mut coef, &mut at);
                    (&coef[..len], &at[..len])
                }
                Lhs::Cols(a) => {
                    let len = compact(a.iter().skip(i).step_by(m), &mut coef, &mut at);
                    (&coef[..len], &at[..len])
                }
                Lhs::Every(a) => (&a[i * k..(i + 1) * k], &every),
                Lhs::Sparse(s) => {
                    let entries = s.start[i]..s.start[i + 1];
                    (&s.val[entries.clone()], &s.col[entries])
                }
            };
            let orow = &mut orows[local * n..(local + 1) * n];
            for (p, dst) in orow.chunks_mut(W).enumerate() {
                accumulate(c, ks, &panels[p * k..(p + 1) * k], dst);
            }
        }
    };
    if m * k * n >= PAR_FLOP_FLOOR {
        par_fill(out.data_mut(), n, row_block);
    } else {
        row_block(0..m, out.data_mut());
    }
    out
}

/// Copies each entry of `a` that is not zero (`!= 0.0`, so both zeros
/// are dropped and NaN is kept), with its position, to the front of
/// `coef` and `at`, and returns how many it kept. The test only
/// advances the write position, so no branch depends on a value.
fn compact<'a>(a: impl IntoIterator<Item = &'a f64>, coef: &mut [f64], at: &mut [u32]) -> usize {
    let mut len = 0;
    for (kk, &v) in a.into_iter().enumerate() {
        coef[len] = v;
        at[len] = kk as u32;
        len += usize::from(v != 0.0);
    }
    len
}

/// One block of at most `W` columns of an output row: starting from
/// `+0.0`, lane `j` adds `coef[t] · panel[ks[t]][j]` for `t = 0, 1, …`
/// in turn, and `out[j]` takes the sum. Every product's arithmetic
/// happens here and nowhere else, so dense and sparse operands run the
/// same machine code.
#[inline(never)]
fn accumulate<const W: usize>(coef: &[f64], ks: &[u32], panel: &[[f64; W]], out: &mut [f64]) {
    let mut acc = [0.0; W];
    for (&c, &kk) in coef.iter().zip(ks) {
        let b = &panel[kk as usize];
        for j in 0..W {
            acc[j] += c * b[j];
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = a;
    }
}

/// A matrix stored as its nonzero entries, row by row in ascending
/// column order: exactly the terms [`matmul`] keeps (`!= 0.0`, so
/// `-0.0` is dropped and NaN is kept).
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    cols: usize,
    /// Row `i`'s entries are `start[i]..start[i + 1]`.
    start: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
}

impl Csr {
    /// The nonzero entries of a `[rows, cols]` tensor, kept by the
    /// same test as the dense products' terms.
    pub(crate) fn from_dense(a: &Tensor) -> Self {
        let (rows, cols) = (a.shape()[0], a.shape()[1]);
        assert!(rows.max(cols) <= u32::MAX as usize, "Csr indices are u32");
        let mut start = Vec::with_capacity(rows + 1);
        let (mut col, mut val) = (Vec::new(), Vec::new());
        let (mut coef, mut at) = (vec![0.0; cols], vec![0u32; cols]);
        start.push(0);
        for i in 0..rows {
            let len = compact(&a.data()[i * cols..(i + 1) * cols], &mut coef, &mut at);
            val.extend_from_slice(&coef[..len]);
            col.extend_from_slice(&at[..len]);
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
        let (k, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(self.cols, k, "sparse matmul inner dimension mismatch");
        product(Lhs::Sparse(self), self.rows(), k, b.data(), n, [n, 1])
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
    use fpna_core::executor::set_threads;
    use fpna_core::rng::SplitMix64;
    use proptest::prelude::*;

    // Reference i-k-j loops: every output element starts at `+0.0`
    // and adds its terms in ascending `k` through memory, one term at
    // a time. All but `ref_matmul_nt` skip zero terms.

    fn ref_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        let (ad, bd) = (a.data(), b.data());
        let od = out.data_mut();
        for i in 0..m {
            let orow = &mut od[i * n..(i + 1) * n];
            for kk in 0..k {
                let aik = ad[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &bd[kk * n..(kk + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aik * bkj;
                }
            }
        }
        out
    }

    fn ref_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        let (ad, bd) = (a.data(), b.data());
        let od = out.data_mut();
        for kk in 0..k {
            let brow = &bd[kk * n..(kk + 1) * n];
            for (i, &aki) in ad[kk * m..(kk + 1) * m].iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                for (o, &bkj) in od[i * n..(i + 1) * n].iter_mut().zip(brow) {
                    *o += aki * bkj;
                }
            }
        }
        out
    }

    fn ref_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[0];
        let mut out = Tensor::zeros(vec![m, n]);
        let (ad, bd) = (a.data(), b.data());
        let od = out.data_mut();
        for i in 0..m {
            let arow = &ad[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0;
                for (&aik, &bjk) in arow.iter().zip(&bd[j * k..(j + 1) * k]) {
                    acc += aik * bjk;
                }
                od[i * n + j] = acc;
            }
        }
        out
    }

    fn ref_csr_matmul(s: &Csr, b: &Tensor) -> Tensor {
        let n = b.shape()[1];
        let mut out = Tensor::zeros(vec![s.rows(), n]);
        let bd = b.data();
        let od = out.data_mut();
        for i in 0..s.rows() {
            let orow = &mut od[i * n..(i + 1) * n];
            let entries = s.start[i]..s.start[i + 1];
            for (&kk, &aik) in s.col[entries.clone()].iter().zip(&s.val[entries]) {
                let brow = &bd[kk as usize * n..(kk as usize + 1) * n];
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    *o += aik * bkj;
                }
            }
        }
        out
    }

    /// `got` has `want`'s bits wherever `want` is not NaN, and a NaN
    /// wherever it is: Rust leaves the sign and payload of a NaN that
    /// an operation creates unspecified, so two compilations of the
    /// same sum may differ there.
    fn matches_reference(got: &Tensor, want: &Tensor) -> bool {
        got.shape() == want.shape()
            && got.data().iter().zip(want.data()).all(|(g, w)| {
                if w.is_nan() {
                    g.is_nan()
                } else {
                    g.to_bits() == w.to_bits()
                }
            })
    }

    /// `t` with each of `specials` written over one random entry.
    fn plant(mut t: Tensor, rng: &mut SplitMix64, specials: &[f64]) -> Tensor {
        let len = t.numel() as u64;
        if len > 0 {
            for &v in specials {
                t.data_mut()[rng.next_below(len) as usize] = v;
            }
        }
        t
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every product, dense and sparse, is its reference loop's
        /// result, NaN bits aside, at worker budgets 1, 2, 4 and 7.
        /// `n` straddles both block widths; `wide` raises `m` until
        /// `m·k·n` reaches `PAR_FLOP_FLOOR`, so the rows fan out.
        /// Half of `A` is `±0`, and `B` holds `±∞`, NaN and `-0`.
        #[test]
        fn products_match_the_reference_loops(
            seed in any::<u64>(),
            n in prop_oneof![
                Just(7usize), Just(8usize), Just(9usize),
                Just(15usize), Just(16usize), Just(17usize), 1usize..41,
            ],
            k in 0usize..48,
            m in 0usize..32,
            wide in any::<bool>(),
        ) {
            let m = if wide && k > 0 { m + PAR_FLOP_FLOOR.div_ceil(k * n) } else { m };
            let mut rng = SplitMix64::new(seed);
            let zeros = [0.0, -0.0, 0.0, -0.0];
            let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0];
            let a = matrix(m, k, &mut rng, &zeros);
            let a_t = matrix(k, m, &mut rng, &zeros);
            let b = plant(matrix(k, n, &mut rng, &[]), &mut rng, &specials);
            let b_t = plant(matrix(n, k, &mut rng, &[]), &mut rng, &specials);
            let c = plant(matrix(m, n, &mut rng, &[]), &mut rng, &specials);
            let (sparse, sparse_t) = (Csr::from_dense(&a), Csr::from_dense(&a_t));
            let want = [
                ref_matmul(&a, &b),
                ref_matmul_tn(&a_t, &b),
                ref_matmul_nt(&a, &b_t),
                ref_csr_matmul(&sparse, &b),
                ref_csr_matmul(&sparse.transpose(), &c),
                ref_csr_matmul(&sparse_t, &c),
            ];
            for budget in [1usize, 2, 4, 7] {
                set_threads(budget);
                let got = [
                    matmul(&a, &b),
                    matmul_tn(&a_t, &b),
                    matmul_nt(&a, &b_t),
                    sparse.matmul(&b),
                    sparse.transpose().matmul(&c),
                    sparse_t.matmul(&c),
                ];
                for (product, (got, want)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(
                        matches_reference(got, want),
                        "product {} at budget {}", product, budget
                    );
                }
            }
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
