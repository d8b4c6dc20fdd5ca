//! Floating-point building blocks: the error-free sum and a relative
//! difference for tolerance tests.
//!
//! The compensated summation algorithms in `fpna-summation` are built
//! on Knuth's error-free transform: `two_sum(a, b)` produces `(s, e)`
//! with `s = fl(a + b)` and `a + b = s + e` *exactly*. This identity
//! holds for every pair of finite doubles and is the reason compensated
//! sums can recover the bits that plain summation drops — the same bits
//! whose loss order-dependence makes parallel sums non-reproducible.

/// Error-free sum (Knuth). Returns `(s, e)` with `s = fl(a+b)` and
/// `a + b = s + e` exactly, for finite inputs.
///
/// ```
/// use fpna_core::fp::two_sum;
/// let (s, e) = two_sum(1.0, 1e-17);
/// assert_eq!(s, 1.0);        // 1e-17 is below 1 ulp of 1.0
/// assert_eq!(e, 1e-17);      // ... but the transform keeps it exactly
/// ```
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Relative difference `|a − b| / max(|a|, |b|)`, zero when both are
/// zero. The classic tolerance metric for correctness testing.
#[inline]
pub fn relative_diff(a: f64, b: f64) -> f64 {
    if a.to_bits() == b.to_bits() {
        return 0.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One unit in the last place of `x` (the gap to the next
    /// representable double away from zero). For non-finite input
    /// returns NaN.
    fn ulp(x: f64) -> f64 {
        if !x.is_finite() {
            return f64::NAN;
        }
        let ax = x.abs();
        let next = f64::from_bits(ax.to_bits() + 1);
        next - ax
    }

    #[test]
    fn two_sum_is_exact() {
        let cases = [
            (1.0, 1e-17),
            (1e16, 1.0),
            (-3.5, 3.5 + 1e-16),
            (0.1, 0.2),
            (1e308, -1e292),
        ];
        for &(a, b) in &cases {
            let (s, e) = two_sum(a, b);
            assert_eq!(s, a + b);
            // exactness: reconstructing in higher "precision" via the
            // identity a+b-s == e must hold when s is representable.
            if e != 0.0 {
                // the error term is below 1 ulp of s
                assert!(e.abs() <= ulp(s), "a={a} b={b} s={s} e={e}");
            }
        }
    }

    #[test]
    fn two_sum_recovers_dropped_bits() {
        let (s, e) = two_sum(1e16, 1.0);
        assert_ne!(e, 0.0); // the 1.0 was partially dropped from s
        assert_eq!(s + e, 1e16 + 1.0);
    }

    #[test]
    fn ulp_of_one_is_machine_epsilon() {
        assert_eq!(ulp(1.0), f64::EPSILON);
        assert!(ulp(f64::INFINITY).is_nan());
    }

    #[test]
    fn approx_and_relative() {
        assert_eq!(relative_diff(2.0, 2.0), 0.0);
        assert!((relative_diff(2.0, 1.0) - 0.5).abs() < 1e-16);
        assert_eq!(relative_diff(0.0, 0.0), 0.0);
    }
}
