//! Sample statistics: exact nearest-rank percentiles over the harness's own latency
//! samples (never histogram-bucket estimates), and the quartile spread the regression
//! rule is judged against.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of an ascending-sorted sample:
/// the smallest value with at least `p` % of the sample at or below it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile in a sample of `len >= 1` values.
fn rank(len: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile must lie in (0, 100]");
    ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile's rank.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    if len == 0 {
        return 0;
    }
    len - rank(len, p)
}

/// A tail percentile is only reported when at least this many samples lie beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether a sample of `len` values supports reporting its `p`-th percentile.
pub fn supports_percentile(len: usize, p: f64) -> bool {
    samples_beyond(len, p) >= MIN_SAMPLES_BEYOND
}

/// The median of an unsorted sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method (the default of Python's
/// `statistics.quantiles(values, n=4)`), so spreads computed here and by an outside
/// checker agree. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sample, 50.0), 50);
        assert_eq!(nearest_rank(&sample, 99.0), 99);
        assert_eq!(nearest_rank(&sample, 100.0), 100);
        assert_eq!(nearest_rank(&sample, 0.5), 1);
        // Five samples: the ranks are ceil(p/100 * 5).
        let five = [15, 20, 35, 40, 50];
        assert_eq!(nearest_rank(&five, 30.0), 20);
        assert_eq!(nearest_rank(&five, 40.0), 20);
        assert_eq!(nearest_rank(&five, 50.0), 35);
        assert_eq!(nearest_rank(&five, 100.0), 50);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1 000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert!(supports_percentile(1_000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        // p95 needs 200.
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(199, 95.0));
        assert!(!supports_percentile(0, 50.0));
        assert!(supports_percentile(20, 50.0));
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 3.0).abs() < 1e-12);
        assert!((spread(&ten).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
