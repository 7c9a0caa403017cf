//! Atomic metric primitives: counters, gauges, log₂-bucketed
//! histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge (bits stored in an atomic).
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(f64::NAN.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value; `NaN` until first set.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Lock-free log₂-bucketed histogram for latencies and sizes.
///
/// The bucket of value `v > 0` is `64 - v.leading_zeros()`, i.e. one
/// plus the position of its highest set bit, so bucket boundaries are
/// exact powers of two. Alongside the buckets it tracks count, sum,
/// min and max.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Index of the bucket `value` falls into.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i` (0 for the zero bucket).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        match i {
            0 | 1 => i as u64,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the histogram state. (Individual
    /// atomics are read independently; in quiescent snapshots — the
    /// only kind the export path takes — the copy is exact.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((Self::bucket_lower_bound(i), n))
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) from the log₂ buckets:
    /// the inclusive upper bound of the bucket containing the rank-`q`
    /// observation, clamped to the observed `[min, max]`. Exact to
    /// within one power of two, 0 when empty, and fully deterministic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(lo, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                // Bucket [2^(i-1), 2^i) has inclusive upper bound
                // 2*lo - 1; the two singleton buckets are exact.
                let hi = if lo <= 1 { lo } else { 2 * lo - 1 };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into this snapshot: counts and sums add
    /// (saturating), extrema combine, buckets union by lower bound.
    /// Commutative and associative, which is what lets a windowed
    /// rollup fold a late sample into its closed window in any order.
    ///
    /// An empty side is the identity: its `min` is the *sentinel* 0,
    /// not an observation, so a naive `min(self.min, other.min)` would
    /// poison the merged minimum — and through the `[min, max]` clamp
    /// in [`quantile`](HistogramSnapshot::quantile), drag every
    /// percentile of a sparse window toward 0 and break the
    /// p50 ≤ p95 ≤ p99 ordering contract.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(la, na)), Some(&(lb, nb))) if la == lb => {
                    merged.push((la, na.saturating_add(nb)));
                    i += 1;
                    j += 1;
                }
                (Some(&(la, na)), Some(&(lb, _))) if la < lb => {
                    merged.push((la, na));
                    i += 1;
                }
                (Some(_), Some(&(lb, nb))) => {
                    merged.push((lb, nb));
                    j += 1;
                }
                (Some(&a), None) => {
                    merged.push(a);
                    i += 1;
                }
                (None, Some(&b)) => {
                    merged.push(b);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
    }

    /// Median estimate (see [`quantile`](HistogramSnapshot::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 2..HISTOGRAM_BUCKETS {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower bound of {i}");
            assert_eq!(Histogram::bucket_index(lo - 1), i - 1);
        }
    }

    #[test]
    fn histogram_tracks_stats() {
        let h = Histogram::default();
        for v in [0, 1, 1, 7, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1033);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (4, 1), (1024, 1)]);
        assert!((s.mean() - 206.6).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.min, s.max), (0, 0, 0));
        assert!(s.buckets.is_empty());
        assert_eq!((s.p50(), s.p95(), s.p99()), (0, 0, 0));
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let h = Histogram::default();
        // 90 fast observations around 1 ms, 10 slow around 1 s.
        for _ in 0..90 {
            h.record(1_000_000);
        }
        for _ in 0..10 {
            h.record(1_000_000_000);
        }
        let s = h.snapshot();
        // p50 lands in the 1 ms bucket; the upper bound clamps to max
        // of that region's observations within one power of two.
        assert!(s.p50() >= 1_000_000 && s.p50() < 2_097_152, "p50 = {}", s.p50());
        assert!(s.p95() >= 536_870_912, "p95 = {}", s.p95());
        assert_eq!(s.p99(), s.quantile(0.99));
        assert!(s.p99() <= s.max && s.p95() <= s.max);
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());

        // Single-value histograms are exact at every percentile.
        let one = Histogram::default();
        one.record(7);
        let os = one.snapshot();
        assert_eq!((os.p50(), os.p95(), os.p99()), (7, 7, 7));
    }

    fn snap_of(values: &[u64]) -> HistogramSnapshot {
        let h = Histogram::default();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn merge_matches_recording_everything_into_one_histogram() {
        let a = snap_of(&[0, 1, 7, 1024]);
        let b = snap_of(&[3, 7, 500_000]);
        let mut m = a.clone();
        m.merge_from(&b);
        assert_eq!(m, snap_of(&[0, 1, 7, 1024, 3, 7, 500_000]));
        // Commutative.
        let mut n = b.clone();
        n.merge_from(&a);
        assert_eq!(n, m);
    }

    #[test]
    fn merge_with_empty_side_is_identity() {
        let s = snap_of(&[40, 90]);
        let empty = snap_of(&[]);

        let mut m = s.clone();
        m.merge_from(&empty);
        assert_eq!(m, s, "empty rhs must not change anything");
        // In particular the empty side's sentinel min=0 must not leak:
        // through the quantile clamp it would drag p50 to ~0.
        assert_eq!(m.min, 40);
        assert!(m.p50() >= 40);

        let mut e = empty.clone();
        e.merge_from(&s);
        assert_eq!(e, s, "empty lhs adopts the other side verbatim");
    }

    #[test]
    fn sparse_one_sample_window_merges_keep_percentiles_ordered() {
        // Regression: windowed rollups fold many 1-sample windows; the
        // merged estimate must stay monotone and within [min, max].
        let windows = [9_u64, 130, 3, 77_000, 1, 500_000, 12];
        let mut acc = snap_of(&[]);
        for &v in &windows {
            acc.merge_from(&snap_of(&[v]));
            let (p50, p95, p99) = (acc.p50(), acc.p95(), acc.p99());
            assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
            assert!(p50 >= acc.min && p99 <= acc.max);
        }
        assert_eq!(acc.count, windows.len() as u64);
        assert_eq!(acc.sum, windows.iter().sum::<u64>());
        assert_eq!(acc.min, 1);
        assert_eq!(acc.max, 500_000);
    }
}
