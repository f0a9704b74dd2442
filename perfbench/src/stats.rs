//! Sample statistics: medians, interpolated quantiles, and the tail
//! rule that decides which percentile a sample can support.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` (`q` in `[0, 1]`) by linear interpolation
/// between closest ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest quantile level a sample of `n` supports: the level with
/// at least [`TAIL_SAMPLES`] samples beyond it, `1 − 10/n`. `None` when
/// that level would fall below the median (`n < 20`).
pub fn tail_level(n: usize) -> Option<f64> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    Some(1.0 - TAIL_SAMPLES as f64 / n as f64)
}

/// Whether a sample of `n` supports its 90th percentile (`n ≥ 100`).
pub fn supports_p90(n: usize) -> bool {
    tail_level(n).is_some_and(|level| level >= 0.9 - 1e-12)
}

/// The highest supported percentile of `xs`, capped at p90; the median
/// when the sample is too small for any tail.
pub fn tail(xs: &[f64]) -> f64 {
    let level = tail_level(xs.len()).map_or(0.5, |l| l.min(0.9));
    quantile(xs, level)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(50), Some(0.8));
        assert_eq!(tail_level(100), Some(0.9));
        assert!(!supports_p90(99));
        assert!(supports_p90(100));
        assert!(supports_p90(140));
        for n in 20..400 {
            let level = tail_level(n).unwrap();
            let beyond = n as f64 * (1.0 - level);
            assert!(beyond >= TAIL_SAMPLES as f64 - 1e-9, "n={n}");
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        let hundred: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.9) - 90.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_caps_at_p90_and_falls_back_to_the_median() {
        let small: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&small), median(&small));
        let big: Vec<f64> = (0..=200).map(f64::from).collect();
        assert!((tail(&big) - 180.0).abs() < 1e-9);
        let mid: Vec<f64> = (0..50).map(f64::from).collect();
        assert!((tail(&mid) - quantile(&mid, 0.8)).abs() < 1e-12);
    }
}
