//! Allocation-free log-bucketed latency histograms.
//!
//! Values (nanoseconds) land in 64 power-of-2 buckets: bucket `i`
//! covers `[2^i, 2^(i+1))` with bucket 0 absorbing 0 and 1 ns. That
//! bounds relative quantile error by 2× — plenty for latency
//! distributions spanning nine decimal orders — while keeping
//! `record()` to two relaxed `fetch_add`s on a fixed-size array, no
//! allocation, no locks, no branches beyond the `leading_zeros`
//! intrinsic. Snapshots are plain relaxed loads; concurrent recording
//! during a snapshot can at worst split one in-flight sample between
//! bucket and sum, which quantile math tolerates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-2 buckets (covers the full `u64` range).
pub const NUM_BUCKETS: usize = 64;

/// Bucket index for a value: floor(log2(v)), with 0 mapped to bucket 0.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` in nanoseconds.
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Inclusive upper bound of bucket `i` in nanoseconds.
#[inline]
pub fn bucket_hi(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A concurrent log-bucketed histogram. Multiple threads may `record`
/// while another snapshots; there is no reset (snapshots are
/// cumulative, deltas are the consumer's business).
///
/// ALL mutable state lives behind one `Box`: embedding atomics that
/// are written per sample inline in scheduler structs (`ComperShared`
/// holds three histograms) puts them on the cache lines holding the
/// hot comper fields that sibling threads scan for stealing and
/// quiescence — which measured as tens of percent of wall-clock on
/// tiny-task workloads. Out of line, the histogram is pointer-sized in
/// its owner and the recording thread pays one indirection per record.
pub struct LogHistogram {
    inner: Box<HistInner>,
}

struct HistInner {
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Sum of all recorded values (for exact means alongside the
    /// 2×-quantized quantiles).
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            inner: Box::new(HistInner {
                buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Two relaxed atomic adds; safe from any
    /// thread, never blocks.
    #[inline]
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Lock-free point-in-time copy.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.inner.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistSnapshot { buckets, sum: self.inner.sum.load(Ordering::Relaxed) }
    }
}

/// Plain-data histogram snapshot: mergeable, serialisable, and the
/// basis for all quantile math.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Count per power-of-2 bucket.
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of recorded values in nanoseconds.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { buckets: [0; NUM_BUCKETS], sum: 0 }
    }
}

impl HistSnapshot {
    /// Total number of recorded samples, saturating (a decoded snapshot is untrusted).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0, |n, &c| n.saturating_add(c))
    }

    /// Exact mean of recorded values (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Bucket-wise merge of another snapshot into this one. Counts are
    /// strictly additive: `merge` never loses samples, which is what
    /// makes per-comper histograms safe to combine at snapshot time.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.sum += other.sum;
    }

    /// Value at quantile `q` in `[0, 1]`, estimated as the upper edge
    /// of the bucket holding the `ceil(q·n)`-th sample (≤2× the true
    /// value by construction). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(i);
            }
        }
        bucket_hi(NUM_BUCKETS - 1)
    }

    /// Upper edge of the highest non-empty bucket (0 if empty).
    pub fn max_estimate(&self) -> u64 {
        self.buckets.iter().enumerate().rev().find(|(_, &c)| c > 0).map_or(0, |(i, _)| bucket_hi(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(0), 1);
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_lo(i), bucket_hi(i - 1) + 1, "bucket {i} contiguous");
        }
        assert_eq!(bucket_hi(63), u64::MAX);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i);
            assert_eq!(bucket_index(bucket_hi(i)), i);
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = LogHistogram::new();
        // 90 fast samples at ~1µs, 10 slow at ~1ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.mean(), (90 * 1_000 + 10 * 1_000_000) / 100);
        // p50 lands in the 1µs bucket, p95/p99/max in the 1ms bucket.
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!((1_000..2_048).contains(&p50), "p50 = {p50}");
        assert!((1_000_000..2_097_152).contains(&p99), "p99 = {p99}");
        assert_eq!(s.max_estimate(), p99);
        assert!(s.quantile(1.0) >= s.quantile(0.5));
    }

    #[test]
    fn merge_is_lossless() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in [0u64, 1, 2, 1_000, 1 << 40] {
            a.record(v);
            b.record(v * 3 + 1);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 10);
        assert_eq!(m.sum, a.snapshot().sum + b.snapshot().sum);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i * (t + 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = HistSnapshot::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max_estimate(), 0);
    }
}
