//! Serial (left-to-right) summation and permutation experiments.
//!
//! The paper's framing (§III): a deterministic sum `S_D = Σ xᵢ` adds
//! the numbers in storage order; a parallel sum with unspecified
//! execution order is equivalent to first applying a random permutation
//! `P` and then summing serially, `S_ND = Σ x_{P(i)}`. Table 1
//! quantifies `S_ND − S_D` and `Vs` for lists of various sizes.

use fpna_core::rng::{permutation, SplitMix64};

/// Left-to-right serial sum — the deterministic reference order.
#[inline]
pub fn serial_sum(xs: &[f64]) -> f64 {
    let mut s = 0.0f64;
    for &x in xs {
        s += x;
    }
    s
}

/// Serial sum in the order given by `perm` (indices into `xs`).
///
/// # Panics
///
/// Panics if `perm` addresses out-of-range elements. A permutation of
/// the wrong length is a logic error in the experiment setup.
pub fn permuted_sum(xs: &[f64], perm: &[u32]) -> f64 {
    assert_eq!(perm.len(), xs.len(), "permutation length mismatch");
    let mut s = 0.0f64;
    for &i in perm {
        s += xs[i as usize];
    }
    s
}

/// Serial sum after a seeded random shuffle — the `S_ND` of Table 1.
pub fn randomly_permuted_sum(xs: &[f64], seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let perm = permutation(xs.len(), &mut rng);
    permuted_sum(xs, &perm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 10.0 - 5.0).collect()
    }

    #[test]
    fn serial_sum_simple() {
        assert_eq!(serial_sum(&[]), 0.0);
        assert_eq!(serial_sum(&[1.5]), 1.5);
        assert_eq!(serial_sum(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn identity_permutation_matches_serial() {
        let xs = test_data(1000, 1);
        let id: Vec<u32> = (0..1000).collect();
        assert_eq!(serial_sum(&xs).to_bits(), permuted_sum(&xs, &id).to_bits());
    }

    #[test]
    fn random_permutation_changes_the_sum() {
        // The core FPNA phenomenon: for a generic list, a permuted sum
        // differs bitwise from the in-order sum.
        let xs = test_data(10_000, 2);
        let sd = serial_sum(&xs);
        let mut any_differ = false;
        for seed in 0..10 {
            if randomly_permuted_sum(&xs, seed).to_bits() != sd.to_bits() {
                any_differ = true;
            }
        }
        assert!(any_differ, "10k-element permuted sums should differ");
    }

    #[test]
    fn permuted_sum_is_deterministic_given_seed() {
        let xs = test_data(5000, 3);
        assert_eq!(
            randomly_permuted_sum(&xs, 99).to_bits(),
            randomly_permuted_sum(&xs, 99).to_bits()
        );
    }

    #[test]
    fn permutation_preserves_sum_to_rounding() {
        let xs = test_data(10_000, 4);
        let sd = serial_sum(&xs);
        let snd = randomly_permuted_sum(&xs, 5);
        // differs bitwise but only at rounding level
        assert!((sd - snd).abs() < 1e-9 * xs.len() as f64 * f64::EPSILON * 1e12);
        assert!((sd - snd).abs() / sd.abs().max(1.0) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_permutation_length_panics() {
        permuted_sum(&[1.0, 2.0], &[0]);
    }
}
