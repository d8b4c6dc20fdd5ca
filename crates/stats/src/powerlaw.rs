//! Power-law fits `y ≈ β·xᵅ` via ordinary least squares in log–log
//! space.
//!
//! §III-C of the paper fits `max|Vs|` as a function of the array length
//! `n` with a power law, finding `max|Vs| ∝ √n` for `U(0, 10)` inputs
//! and a larger exponent for `N(0, 1)`. This module provides the fit
//! and its goodness measure.

/// A fitted power law `y = β·xᵅ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Exponent `α`.
    pub alpha: f64,
    /// Prefactor `β`.
    pub beta: f64,
    /// Coefficient of determination of the log–log regression.
    pub r_squared: f64,
    /// Number of points used.
    pub n: usize,
}

impl PowerLawFit {
    /// Fit `(x, y)` pairs with strictly positive coordinates. Points
    /// with non-positive `x` or `y` are skipped (a `Vs` of exactly zero
    /// carries no magnitude information on a log scale).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two usable points remain.
    pub fn fit(points: &[(f64, f64)]) -> Self {
        let usable: Vec<(f64, f64)> = points
            .iter()
            .filter(|&&(x, y)| x > 0.0 && y > 0.0 && x.is_finite() && y.is_finite())
            .map(|&(x, y)| (x.ln(), y.ln()))
            .collect();
        assert!(
            usable.len() >= 2,
            "power-law fit needs at least two positive points"
        );
        let n = usable.len() as f64;
        let mean_x = usable.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = usable.iter().map(|p| p.1).sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for &(x, y) in &usable {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        assert!(sxx > 0.0, "power-law fit needs at least two distinct x");
        let alpha = sxy / sxx;
        let intercept = mean_y - alpha * mean_x;
        let r_squared = if syy > 0.0 { (sxy * sxy) / (sxx * syy) } else { 1.0 };
        PowerLawFit {
            alpha,
            beta: intercept.exp(),
            r_squared,
            n: usable.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law_recovered() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = 10f64.powi(i);
                (x, 3.0 * x.sqrt())
            })
            .collect();
        let fit = PowerLawFit::fit(&pts);
        assert!((fit.alpha - 0.5).abs() < 1e-12, "alpha {}", fit.alpha);
        assert!((fit.beta - 3.0).abs() < 1e-9, "beta {}", fit.beta);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_power_law_close() {
        // y = 2 x^1.3 with +-5% deterministic "noise"
        let pts: Vec<(f64, f64)> = (1..=20)
            .map(|i| {
                let x = i as f64 * 7.0;
                let noise = 1.0 + 0.05 * ((i * 2654435761usize) as f64 / usize::MAX as f64 - 0.5);
                (x, 2.0 * x.powf(1.3) * noise)
            })
            .collect();
        let fit = PowerLawFit::fit(&pts);
        assert!((fit.alpha - 1.3).abs() < 0.05, "alpha {}", fit.alpha);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn non_positive_points_skipped() {
        let pts = [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (1.0, 2.0), (4.0, 4.0)];
        let fit = PowerLawFit::fit(&pts);
        assert_eq!(fit.n, 2);
        assert!((fit.alpha - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two positive points")]
    fn all_invalid_panics() {
        PowerLawFit::fit(&[(0.0, 0.0), (1.0, -1.0)]);
    }
}
