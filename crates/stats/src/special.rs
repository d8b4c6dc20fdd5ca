//! Special functions: `erf`, the normal CDF and interval mass.
//!
//! `erf` uses the Abramowitz–Stegun 7.1.26 rational approximation
//! (|error| < 1.5e-7), which is ample for the KL/normality diagnostics
//! here — the quantities being tested differ at the 1e-2 level or more.

/// Error function, Abramowitz–Stegun 7.1.26 (max abs error ~1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Normal cumulative distribution function.
pub fn normal_cdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    0.5 * (1.0 + erf((x - mean) / (std_dev * std::f64::consts::SQRT_2)))
}

/// Probability mass a `N(mean, std_dev)` assigns to the interval
/// `[a, b]`.
pub fn normal_mass(a: f64, b: f64, mean: f64, std_dev: f64) -> f64 {
    (normal_cdf(b, mean, std_dev) - normal_cdf(a, mean, std_dev)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Known values to the approximation's accuracy.
        assert!(erf(0.0).abs() < 2e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(2.0) - 0.9953222650).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(5.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn normal_cdf_basics() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 2e-7);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.975).abs() < 1e-3);
        assert!(normal_cdf(-8.0, 0.0, 1.0) < 1e-7);
        // location-scale: P(X < mean + sigma) is the same for any (mean, sigma)
        let p1 = normal_cdf(1.0, 0.0, 1.0);
        let p2 = normal_cdf(7.0, 5.0, 2.0);
        assert!((p1 - p2).abs() < 1e-12);
    }

    #[test]
    fn normal_mass_positive_and_total() {
        let m = normal_mass(-1.0, 1.0, 0.0, 1.0);
        assert!((m - 0.6826894921).abs() < 1e-6);
        assert!(normal_mass(1.0, -1.0, 0.0, 1.0) == 0.0); // inverted interval clamps
        let total = normal_mass(-40.0, 40.0, 0.0, 1.0);
        assert!((total - 1.0).abs() < 1e-12);
    }
}
