//! Fixed log2-bucket latency histogram: 64 atomic buckets, lock-free
//! record, no allocation after construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket 0 holds the value 0, bucket `b >= 1`
/// holds values in `[2^(b-1), 2^b)`, bucket 63 additionally absorbs
/// everything above. 64 buckets cover the full `u64` range.
pub const BUCKETS: usize = 64;

/// A concurrent histogram with power-of-two bucket boundaries. Records
/// are a single relaxed `fetch_add`; reads are approximate under
/// concurrent writes (fine for metrics).
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`,
/// saturating at the last bucket.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

impl Log2Histogram {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain-data copy of a [`Log2Histogram`], used for export and
/// percentile estimation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw bucket counts; see `BUCKETS` for boundaries.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sparse `(bucket, count)` pairs for compact export.
    pub fn nonzero(&self) -> Vec<(u8, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u8, c))
            .collect()
    }

    /// Rebuild from sparse pairs (the export format). Out-of-range
    /// bucket indices are rejected.
    pub fn from_nonzero(pairs: &[(u8, u64)]) -> Option<Self> {
        let mut h = HistogramSnapshot::default();
        for &(b, c) in pairs {
            if b as usize >= BUCKETS {
                return None;
            }
            h.buckets[b as usize] = c;
        }
        Some(h)
    }

    /// Compact tail-latency digest: the count plus the p50/p99/p999
    /// bucket upper bounds. The one-line summary serving layers report
    /// per admission class.
    pub fn summary(&self) -> QuantileSummary {
        QuantileSummary {
            count: self.count(),
            p50: self.quantile_upper_bound(0.50),
            p99: self.quantile_upper_bound(0.99),
            p999: self.quantile_upper_bound(0.999),
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), or 0 for an empty histogram. Log2 buckets make
    /// this exact to within a factor of 2 — enough for tail-latency
    /// assertions without storing raw samples.
    fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }
}

/// The p50/p99/p999 digest of one [`HistogramSnapshot`] (see
/// [`HistogramSnapshot::summary`]). Values are log2-bucket upper
/// bounds, in whatever unit was recorded (typically microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantileSummary {
    /// Total recorded values.
    pub count: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// 99.9th-percentile upper bound.
    pub p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_and_roundtrip() {
        let h = Log2Histogram::default();
        for v in [0u64, 1, 1, 5, 5, 5, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        // Median lands in the [4,8) bucket -> upper bound 8.
        assert_eq!(s.quantile_upper_bound(0.5), 8);
        assert_eq!(s.quantile_upper_bound(1.0), 128);
        let rt = HistogramSnapshot::from_nonzero(&s.nonzero()).unwrap();
        assert_eq!(rt, s);
        assert_eq!(HistogramSnapshot::from_nonzero(&[(64, 1)]), None);
        let sum = s.summary();
        assert_eq!(sum.count, 7);
        assert_eq!(sum.p50, 8);
        assert_eq!(sum.p99, 128);
        assert_eq!(sum.p999, 128);
    }
}
