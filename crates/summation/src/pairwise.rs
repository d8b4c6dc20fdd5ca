//! Pairwise (tree) summation.
//!
//! The deterministic GPU kernels in the paper (§III-A) perform a
//! pairwise reduction inside each thread block: each step adds elements
//! in pairs `tᵢ = xᵢ + x_{i+n/2}`, repeated `log₂ n` times. Pairwise
//! summation has an `O(ε·log n)` error bound versus `O(ε·n)` for serial
//! summation (Higham), and — crucially for this study — a *fixed* tree
//! shape, so it is bitwise deterministic no matter how its independent
//! subtrees are scheduled.

use crate::serial::serial_sum;

/// Default leaf size below which the recursion falls back to serial
/// summation. 128 balances tree depth against loop overhead and is the
/// value the bench ablation (`ablation_block_size`) identifies as flat.
pub const DEFAULT_LEAF: usize = 128;

/// Pairwise sum with the default leaf size.
#[inline]
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    pairwise_sum_with_leaf(xs, DEFAULT_LEAF)
}

/// Pairwise sum with an explicit leaf size (the recursion switches to a
/// serial loop once a segment is `<= leaf` long).
///
/// # Panics
///
/// Panics if `leaf == 0`.
pub fn pairwise_sum_with_leaf(xs: &[f64], leaf: usize) -> f64 {
    assert!(leaf > 0, "leaf size must be positive");
    if xs.len() <= leaf {
        return serial_sum(xs);
    }
    let mid = xs.len() / 2;
    pairwise_sum_with_leaf(&xs[..mid], leaf) + pairwise_sum_with_leaf(&xs[mid..], leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpna_core::rng::SplitMix64;

    fn test_data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    #[test]
    fn matches_serial_for_small_inputs() {
        for n in 0..=16 {
            let xs = test_data(n, n as u64);
            assert_eq!(
                pairwise_sum_with_leaf(&xs, 32).to_bits(),
                serial_sum(&xs).to_bits(),
                "below the leaf size pairwise IS serial (n={n})"
            );
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let xs = test_data(100_000, 1);
        let a = pairwise_sum(&xs);
        let b = pairwise_sum(&xs);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn close_to_serial_large() {
        let xs = test_data(1_000_000, 2);
        let p = pairwise_sum(&xs);
        let s = serial_sum(&xs);
        assert!((p - s).abs() < 1e-7, "p={p} s={s}");
    }

    #[test]
    fn pairwise_is_more_accurate_than_serial() {
        // Sum n copies of 0.1: serial error grows ~n, pairwise ~log n.
        let n = 1 << 20;
        let xs = vec![0.1f64; n];
        let exact = 0.1 * n as f64; // representable product, close enough as reference
        let serial_err = (serial_sum(&xs) - exact).abs();
        let pairwise_err = (pairwise_sum(&xs) - exact).abs();
        assert!(
            pairwise_err <= serial_err,
            "pairwise {pairwise_err} vs serial {serial_err}"
        );
    }

    #[test]
    fn leaf_size_changes_bits_but_not_value() {
        let xs = test_data(4096, 3);
        let a = pairwise_sum_with_leaf(&xs, 1);
        let b = pairwise_sum_with_leaf(&xs, 64);
        let c = pairwise_sum_with_leaf(&xs, 4096);
        // all close...
        assert!((a - b).abs() < 1e-10);
        assert!((a - c).abs() < 1e-10);
        // ...and each individually reproducible
        assert_eq!(a.to_bits(), pairwise_sum_with_leaf(&xs, 1).to_bits());
    }

    #[test]
    #[should_panic(expected = "leaf size")]
    fn zero_leaf_panics() {
        pairwise_sum_with_leaf(&[1.0], 0);
    }
}
