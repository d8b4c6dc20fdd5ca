//! Order statistics over per-op samples.

/// Fewest samples that must lie beyond a reported tail percentile, so
/// that the tail is measured rather than read off a handful of ops.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q < 1`), refused unless
/// at least [`MIN_BEYOND`] samples rank above it. Returns the value and
/// the number of samples beyond it.
pub fn tail_percentile(xs: &[f64], q: f64) -> Result<(f64, usize), String> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    Ok((v[rank - 1], beyond))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_refused_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = tail_percentile(&xs, 0.9).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(tail_percentile(&[], 0.9).is_err());
        assert!(tail_percentile(&[1.0; 5], 0.9).is_err());
    }

    #[test]
    fn p90_of_one_hundred_samples_has_ten_beyond() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9).unwrap(), (90.0, 10));
        let xs: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9).unwrap(), (225.0, 25));
    }
}
