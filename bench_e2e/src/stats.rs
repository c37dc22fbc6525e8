//! Order statistics for the benchmark's reports.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least ten samples beyond it (choosing-metrics §1), with
//! the sample count stated next to them.

/// Percentiles the tail picker may choose from, ascending.
const TAIL_LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(q, sorted.len()) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps products such as `0.999 * 10_000` from rounding up a rank.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample: the mean of the two middle values when
/// the count is even, so a 4-round run is not biased toward either.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    s
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// strictly beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// Median, quartiles and the supported tail of one timing sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// `(percentile, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        p25: quantile_sorted(&s, 0.25),
        p50: quantile_sorted(&s, 0.50),
        p75: quantile_sorted(&s, 0.75),
        tail: tail_percentile(s.len()).map(|p| (p, quantile_sorted(&s, p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.50), 50.0);
        assert_eq!(quantile_sorted(&s, 0.99), 99.0);
        assert_eq!(quantile_sorted(&s, 1.0), 100.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median has only 9 beyond it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        // p99 of 999 samples is rank 990: nine beyond, so not yet.
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_count_quartiles_and_tail() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!((s.p25, s.p50, s.p75), (250.0, 500.0, 750.0));
        assert_eq!(s.tail, Some((0.99, 990.0)));
    }
}
