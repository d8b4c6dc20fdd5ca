//! Normality testing: Jarque–Bera.
//!
//! Complements the KL criterion of §III-C with a classical test. The
//! Jarque–Bera statistic `JB = n/6·(S² + K²/4)` (skewness `S`, excess
//! kurtosis `K`) is asymptotically χ²(2) under normality, so the
//! p-value has the closed form `exp(−JB/2)`.

use crate::describe::Describe;

/// Result of a Jarque–Bera normality test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JarqueBera {
    /// The JB statistic.
    pub statistic: f64,
    /// Asymptotic p-value (χ²(2) survival function).
    pub p_value: f64,
    /// Sample skewness used in the statistic.
    pub skewness: f64,
    /// Sample excess kurtosis used in the statistic.
    pub excess_kurtosis: f64,
}

/// Jarque–Bera test of the null hypothesis that `xs` is drawn from a
/// normal distribution.
///
/// # Panics
///
/// Panics on samples smaller than 8 (the asymptotic approximation is
/// meaningless there).
pub fn jarque_bera(xs: &[f64]) -> JarqueBera {
    assert!(xs.len() >= 8, "Jarque-Bera needs a non-trivial sample");
    let d = Describe::of(xs);
    let n = xs.len() as f64;
    let jb = n / 6.0 * (d.skewness * d.skewness + d.excess_kurtosis * d.excess_kurtosis / 4.0);
    // chi^2 with 2 dof: survival(x) = exp(-x/2)
    let p = (-jb / 2.0).exp();
    JarqueBera {
        statistic: jb,
        p_value: p,
        skewness: d.skewness,
        excess_kurtosis: d.excess_kurtosis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samplers::{Distribution, Sampler};

    #[test]
    fn normal_sample_passes() {
        let mut s = Sampler::new(Distribution::standard_normal(), 7);
        let xs = s.sample_vec(20_000);
        let jb = jarque_bera(&xs);
        assert!(jb.p_value >= 0.001, "JB = {:?}", jb);
    }

    #[test]
    fn exponential_sample_fails() {
        let mut s = Sampler::new(Distribution::boltzmann(), 8);
        let xs = s.sample_vec(20_000);
        let jb = jarque_bera(&xs);
        assert!(jb.p_value < 0.05, "JB = {:?}", jb);
        assert!(jb.skewness > 1.0); // exponential has skewness 2
    }

    #[test]
    fn uniform_sample_fails_via_kurtosis() {
        let mut s = Sampler::new(Distribution::Uniform { lo: 0.0, hi: 1.0 }, 9);
        let xs = s.sample_vec(20_000);
        let jb = jarque_bera(&xs);
        // uniform: skewness 0, excess kurtosis -1.2
        assert!(jb.excess_kurtosis < -1.0);
        assert!(jb.p_value < 0.05);
    }

    #[test]
    #[should_panic(expected = "non-trivial sample")]
    fn tiny_sample_panics() {
        jarque_bera(&[1.0, 2.0]);
    }
}
