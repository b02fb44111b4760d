//! The two statistics every timing in this benchmark is reported as.

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`. Fewer than twenty samples support nothing
/// above the median, so the answer is `None` and callers report the median
/// alone.
pub fn highest_supported(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // At exactly twenty samples that percentile is the median itself, which
    // lies between the two middle samples, not on the lower one.
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11].max(median(xs))))
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match the ones the acceptance procedure computes. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(0.25), at(0.75)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn below_twenty_samples_only_the_median_is_supported() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(highest_supported(&xs), None);
    }

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(highest_supported(&xs), Some((50.0, 9.5)));
        let xs: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(highest_supported(&xs), Some((90.0, 89.0)));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, v) = highest_supported(&xs).unwrap();
        assert_eq!((p, v), (99.0, 989.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
