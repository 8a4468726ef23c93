//! Descriptive statistics and percentile estimation.

/// Arithmetic mean. Returns 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns 0.0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Percentile with linear interpolation between order statistics
/// (the inclusive R-7 definition: numpy's default, Excel's
/// `PERCENTILE.INC`).
///
/// `p` is in `[0, 100]`. Returns 0.0 for empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&sorted, p)
}

/// Percentile over an already-sorted slice (ascending). See [`percentile`].
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A compact summary of a sample: count, mean, std, min, p50/p90/p99, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample. Returns an all-zero summary for empty input.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            count: sorted.len(),
            mean: mean(&sorted),
            std: std_dev(&sorted),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: *sorted.last().unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(Summary::of(&[]).count, 0);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 3.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((percentile(&xs, 25.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 99.0) - 9.9).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        let s = Summary::of(&[5.0]);
        assert_eq!(s.p99, 5.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.count, 1000);
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!((s.p99 - 989.01).abs() < 0.1, "p99 {}", s.p99);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }
}
