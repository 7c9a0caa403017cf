//! Per-cloud request-rate accounting for fleet-scale load.
//!
//! Consumer cloud APIs meter *requests*, not bytes: a fleet of 100k
//! devices hammering five providers hits per-cloud QPS ceilings long
//! before it saturates bandwidth. This module supplies the two pieces
//! the fleet simulator charges against:
//!
//! * [`TokenBucket`] — a deterministic virtual-clock shaper. Consuming
//!   more than the sustained rate returns the extra delay the caller
//!   must add to its operation, exactly the backpressure a 429/503
//!   retry-after loop produces in aggregate.
//! * [`QpsSeries`] — per-second operation counters, from which the
//!   bench reports peak and mean QPS per cloud.
//!
//! Both are pure integer arithmetic on virtual nanoseconds: no float
//! accumulation, no wall clock, so same-seed fleet runs reproduce the
//! same delays bit-for-bit on any host.
//!
//! [`ThrottledCloud`](crate::ThrottledCloud) lifts the same bucket into
//! the [`CloudStore`](crate::CloudStore) interface with bytes as the
//! token unit.

use std::sync::Arc;
use std::time::Duration;

use unidrive_sim::Runtime;
use unidrive_util::sync::Mutex;

const NS_PER_SEC: u64 = 1_000_000_000;

/// A deterministic token-bucket shaper over virtual time.
///
/// Tokens are tracked in units of one operation, scaled by
/// `NS_PER_SEC` so refill math stays integral: `rate` ops/s refill
/// `rate` scaled-tokens per nanosecond-of-`rate`. The balance may go
/// negative (work is queued, not dropped); a negative balance maps to
/// the delay the next caller inherits.
///
/// # Examples
///
/// ```
/// use unidrive_cloud::TokenBucket;
///
/// let mut tb = TokenBucket::new(100, 10); // 100 ops/s, burst 10
/// assert_eq!(tb.consume(0, 10), 0);       // burst absorbs it
/// let delay = tb.consume(0, 100);         // 100 more ops immediately
/// assert_eq!(delay, 1_000_000_000);       // queued one second out
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    rate_per_sec: u64,
    /// Scaled tokens: 1 op = NS_PER_SEC scaled units.
    balance: i128,
    cap: i128,
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket refilling `rate_per_sec` ops/s with `burst` ops of
    /// headroom, starting full at t = 0.
    pub fn new(rate_per_sec: u64, burst: u64) -> TokenBucket {
        let cap = burst.max(1) as i128 * NS_PER_SEC as i128;
        TokenBucket {
            rate_per_sec: rate_per_sec.max(1),
            balance: cap,
            cap,
            last_ns: 0,
        }
    }

    /// Consumes `ops` at virtual time `now_ns`; returns the delay in
    /// nanoseconds before the *last* of those ops clears the shaper
    /// (0 when the bucket has tokens). Calls must be made in
    /// non-decreasing `now_ns` order — the fleet's merged event stream
    /// guarantees that.
    pub fn consume(&mut self, now_ns: u64, ops: u64) -> u64 {
        let elapsed = now_ns.saturating_sub(self.last_ns);
        self.last_ns = self.last_ns.max(now_ns);
        let refill = elapsed as i128 * self.rate_per_sec as i128;
        self.balance = (self.balance + refill).min(self.cap);
        self.balance -= ops as i128 * NS_PER_SEC as i128;
        if self.balance >= 0 {
            0
        } else {
            // Deficit drains at rate_per_sec: delay = deficit / rate,
            // rounded up.
            let deficit = -self.balance as u128;
            (deficit.div_ceil(self.rate_per_sec as u128)) as u64
        }
    }

    /// The configured sustained rate, ops/s.
    pub fn rate_per_sec(&self) -> u64 {
        self.rate_per_sec
    }
}

/// Charges `tokens` against a shared bucket at `rt`'s clock and sleeps
/// out any shaper delay on `rt` — how a store decorator applies a
/// [`TokenBucket`], whatever its token unit.
pub(crate) fn charge(rt: &Arc<dyn Runtime>, bucket: &Mutex<TokenBucket>, tokens: u64) {
    // The bucket requires non-decreasing timestamps; the lock
    // serializes concurrent callers and `max` in `consume` absorbs
    // any inversion between `now()` and lock acquisition.
    let delay_ns = bucket.lock().consume(rt.now().as_nanos(), tokens);
    if delay_ns > 0 {
        rt.sleep(Duration::from_nanos(delay_ns));
    }
}

/// Per-second operation counters for one cloud.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QpsSeries {
    buckets: Vec<u64>,
    total: u64,
}

impl QpsSeries {
    /// An empty series.
    pub fn new() -> QpsSeries {
        QpsSeries::default()
    }

    /// Records `ops` operations at virtual time `now_ns`.
    pub fn record(&mut self, now_ns: u64, ops: u64) {
        let sec = (now_ns / NS_PER_SEC) as usize;
        if sec >= self.buckets.len() {
            self.buckets.resize(sec + 1, 0);
        }
        self.buckets[sec] += ops;
        self.total += ops;
    }

    /// Records `ops` spread evenly over `[start_ns, end_ns)` — a
    /// transfer's requests are paced across its duration, not spiked
    /// at the start. Remainder ops land in the earliest seconds so the
    /// split is deterministic.
    pub fn record_spread(&mut self, start_ns: u64, end_ns: u64, ops: u64) {
        let s0 = (start_ns / NS_PER_SEC) as usize;
        let s1 = (end_ns.max(start_ns) / NS_PER_SEC) as usize;
        let secs = (s1 - s0 + 1) as u64;
        let per = ops / secs;
        let extra = (ops % secs) as usize;
        for (i, sec) in (s0..=s1).enumerate() {
            let n = per + u64::from(i < extra);
            if n > 0 {
                self.record(sec as u64 * NS_PER_SEC, n);
            }
        }
    }

    /// Total operations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Highest single-second rate observed.
    pub fn peak(&self) -> u64 {
        self.buckets.iter().copied().max().unwrap_or(0)
    }

    /// Mean ops/s over the recorded span (zero-filled seconds count).
    pub fn mean(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            self.total as f64 / self.buckets.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_burst_then_shapes() {
        let mut tb = TokenBucket::new(1000, 100);
        assert_eq!(tb.consume(0, 100), 0); // burst
        // 1000 more ops with an empty bucket: one second of queue.
        assert_eq!(tb.consume(0, 1000), NS_PER_SEC);
        // After 2 virtual seconds the queue has drained and refilled
        // to cap, so a small consume is free again.
        assert_eq!(tb.consume(2 * NS_PER_SEC, 50), 0);
    }

    #[test]
    fn bucket_refill_caps_at_burst() {
        let mut tb = TokenBucket::new(10, 5);
        assert_eq!(tb.consume(0, 5), 0);
        // A year of idle time cannot build more than `burst` credit.
        assert_eq!(tb.consume(NS_PER_SEC * 3_000_000, 5), 0);
        assert!(tb.consume(NS_PER_SEC * 3_000_000, 6) > 0);
    }

    #[test]
    fn bucket_delay_is_deterministic_and_monotone() {
        let run = || {
            let mut tb = TokenBucket::new(250, 10);
            (0..50u64).map(|i| tb.consume(i * 10_000_000, 7)).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        // Sustained overload: delays grow.
        assert!(a.last().unwrap() > a.first().unwrap());
    }

    #[test]
    fn series_peak_mean_and_spread() {
        let mut s = QpsSeries::new();
        s.record(0, 10);
        s.record(NS_PER_SEC + 1, 30);
        assert_eq!(s.total(), 40);
        assert_eq!(s.peak(), 30);
        assert!((s.mean() - 20.0).abs() < 1e-9);

        let mut sp = QpsSeries::new();
        sp.record_spread(0, 3 * NS_PER_SEC, 10);
        // 4 seconds touched: 3 + remainder 2 in the earliest buckets.
        assert_eq!(sp.total(), 10);
        assert_eq!(sp.peak(), 3);
    }
}
