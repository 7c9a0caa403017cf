//! Network link modeling.
//!
//! A [`LinkProfile`] describes one *directed* path between a client
//! location and one cloud service (so a location/cloud pair normally owns
//! two links: upstream and downstream). The model captures the three
//! properties the UniDrive measurement study (paper §3.2) found to matter:
//!
//! 1. **Spatial disparity** — the base per-connection and aggregate rates
//!    differ per (location, cloud) pair; profiles are supplied by
//!    `unidrive-workload`.
//! 2. **Temporal fluctuation** — every `epoch` the link re-samples a
//!    lognormal multiplier, with an occasional deep "fade" mimicking the
//!    17× max/min daily swings of Fig. 3.
//! 3. **Connection behaviour** — concurrent transfers share the aggregate
//!    capacity processor-sharing style, each additionally capped by the
//!    per-connection rate, reproducing the throughput-vs-parallelism
//!    behaviour that motivates multi-connection transfer.

use std::time::Duration;

use crate::rng::SimRng;
use crate::Time;

/// Identifier of a directed link registered with a
/// [`SimRuntime`](crate::SimRuntime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub(crate) usize);

/// Static description of a directed network path.
///
/// Rates are in **bytes per second**. A multiplier sampled every `epoch`
/// scales both rates; `sigma` controls its lognormal spread and
/// `fade_prob`/`fade_range` inject occasional deep fades.
///
/// # Examples
///
/// ```
/// use unidrive_sim::LinkProfile;
///
/// // A fairly fast, fairly stable path: ~2 MB/s per connection,
/// // 6 MB/s aggregate.
/// let p = LinkProfile::new(2e6, 6e6);
/// assert!(p.per_conn_bytes_per_sec > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    /// Rate ceiling of a single connection, bytes/second.
    pub per_conn_bytes_per_sec: f64,
    /// Aggregate ceiling across all concurrent connections, bytes/second.
    pub agg_bytes_per_sec: f64,
    /// Lognormal sigma of the epoch multiplier (0 disables fluctuation).
    pub sigma: f64,
    /// Probability that an epoch is a deep fade.
    pub fade_prob: f64,
    /// Multiplier range applied during a fade.
    pub fade_range: (f64, f64),
    /// How often the multiplier is re-sampled.
    pub epoch: Duration,
    /// Fixed per-request setup latency.
    pub latency: Duration,
    /// Uniform jitter added to `latency`.
    pub latency_jitter: Duration,
}

impl LinkProfile {
    /// Creates a profile with the given rates and mild default dynamics:
    /// sigma 0.35, 3 % fade probability, 60 s epochs, 80 ms ± 40 ms
    /// request latency.
    ///
    /// # Panics
    ///
    /// Panics if either rate is not strictly positive and finite.
    pub fn new(per_conn_bytes_per_sec: f64, agg_bytes_per_sec: f64) -> Self {
        assert!(
            per_conn_bytes_per_sec > 0.0 && per_conn_bytes_per_sec.is_finite(),
            "per-connection rate must be positive"
        );
        assert!(
            agg_bytes_per_sec > 0.0 && agg_bytes_per_sec.is_finite(),
            "aggregate rate must be positive"
        );
        LinkProfile {
            per_conn_bytes_per_sec,
            agg_bytes_per_sec,
            sigma: 0.35,
            fade_prob: 0.03,
            fade_range: (0.05, 0.4),
            epoch: Duration::from_secs(60),
            latency: Duration::from_millis(80),
            latency_jitter: Duration::from_millis(40),
        }
    }

    /// A perfectly stable link (no fluctuation, no fades, no latency);
    /// useful in unit tests that assert exact transfer times.
    pub fn steady(per_conn_bytes_per_sec: f64, agg_bytes_per_sec: f64) -> Self {
        LinkProfile {
            sigma: 0.0,
            fade_prob: 0.0,
            latency: Duration::ZERO,
            latency_jitter: Duration::ZERO,
            ..LinkProfile::new(per_conn_bytes_per_sec, agg_bytes_per_sec)
        }
    }

    /// Builder-style: sets the fluctuation parameters.
    pub fn with_fluctuation(mut self, sigma: f64, fade_prob: f64) -> Self {
        self.sigma = sigma;
        self.fade_prob = fade_prob;
        self
    }

    /// Builder-style: sets request latency and jitter.
    pub fn with_latency(mut self, latency: Duration, jitter: Duration) -> Self {
        self.latency = latency;
        self.latency_jitter = jitter;
        self
    }

    /// Builder-style: sets the multiplier re-sampling period.
    pub fn with_epoch(mut self, epoch: Duration) -> Self {
        self.epoch = epoch;
        self
    }
}

/// A transfer in flight on a link.
#[derive(Debug)]
pub(crate) struct Flow {
    pub remaining_bytes: f64,
    pub actor: usize,
}

/// Engine-internal mutable link state.
#[derive(Debug)]
pub(crate) struct LinkState {
    pub profile: LinkProfile,
    pub multiplier: f64,
    pub next_resample_ns: u64,
    pub flows: Vec<Flow>,
    rng: SimRng,
}

impl LinkState {
    pub fn new(profile: LinkProfile, rng: SimRng) -> Self {
        LinkState {
            multiplier: 1.0,
            next_resample_ns: profile.epoch.as_nanos() as u64,
            profile,
            flows: Vec::new(),
            rng,
        }
    }

    /// Bytes/second currently granted to *each* flow on this link.
    pub fn rate_per_flow(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        let per_conn = self.profile.per_conn_bytes_per_sec * self.multiplier;
        let agg = self.profile.agg_bytes_per_sec * self.multiplier;
        (per_conn.min(agg / self.flows.len() as f64)).max(1.0)
    }

    /// Virtual time at which the earliest current flow would finish, given
    /// rates stay constant.
    pub fn earliest_completion(&self, now: Time) -> Option<Time> {
        let rate = self.rate_per_flow();
        self.flows
            .iter()
            .map(|f| f.remaining_bytes)
            .fold(None, |acc: Option<f64>, r| {
                Some(acc.map_or(r, |a| a.min(r)))
            })
            .map(|min_remaining| {
                let secs = (min_remaining / rate).max(0.0);
                now + Duration::from_nanos((secs * 1e9).ceil() as u64)
            })
    }

    /// Deducts `dt` worth of progress from every flow.
    pub fn integrate(&mut self, dt: Duration) {
        if self.flows.is_empty() {
            return;
        }
        let rate = self.rate_per_flow();
        let progressed = rate * dt.as_secs_f64();
        for f in &mut self.flows {
            f.remaining_bytes -= progressed;
        }
    }

    /// Re-samples the epoch multiplier if `now` passed the boundary;
    /// returns how many epoch boundaries were crossed (for the
    /// engine's resample accounting).
    pub fn maybe_resample(&mut self, now_ns: u64) -> u64 {
        let mut crossed = 0;
        while self.next_resample_ns <= now_ns {
            self.resample();
            self.next_resample_ns += self.profile.epoch.as_nanos() as u64;
            crossed += 1;
        }
        crossed
    }

    fn resample(&mut self) {
        let p = &self.profile;
        if p.sigma == 0.0 && p.fade_prob == 0.0 {
            self.multiplier = 1.0;
            return;
        }
        // mu = -sigma^2/2 keeps the lognormal mean at 1.0.
        let mut m = self.rng.lognormal(-p.sigma * p.sigma / 2.0, p.sigma);
        if self.rng.chance(p.fade_prob) {
            m *= self.rng.uniform(p.fade_range.0, p.fade_range.1);
        }
        self.multiplier = m.clamp(0.02, 5.0);
    }

    /// Samples one request latency.
    pub fn sample_latency(&mut self) -> Duration {
        let jitter_ns = self.profile.latency_jitter.as_nanos() as u64;
        let extra = if jitter_ns == 0 {
            0
        } else {
            self.rng.below(jitter_ns)
        };
        self.profile.latency + Duration::from_nanos(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(profile: LinkProfile) -> LinkState {
        LinkState::new(profile, SimRng::seed_from_u64(1))
    }

    #[test]
    fn single_flow_gets_per_connection_rate() {
        let mut s = state(LinkProfile::steady(1e6, 10e6));
        s.flows.push(Flow {
            remaining_bytes: 1e6,
            actor: 0,
        });
        assert_eq!(s.rate_per_flow(), 1e6);
    }

    #[test]
    fn many_flows_share_aggregate() {
        let mut s = state(LinkProfile::steady(1e6, 2e6));
        for _ in 0..4 {
            s.flows.push(Flow {
                remaining_bytes: 1e6,
                actor: 0,
            });
        }
        // 4 flows share 2 MB/s aggregate: 0.5 MB/s each.
        assert_eq!(s.rate_per_flow(), 0.5e6);
    }

    #[test]
    fn completion_time_is_remaining_over_rate() {
        let mut s = state(LinkProfile::steady(1e6, 1e6));
        s.flows.push(Flow {
            remaining_bytes: 2e6,
            actor: 0,
        });
        let done = s.earliest_completion(Time::ZERO).unwrap();
        assert_eq!(done, Time::from_secs(2));
    }

    #[test]
    fn integrate_reduces_remaining() {
        let mut s = state(LinkProfile::steady(1e6, 1e6));
        s.flows.push(Flow {
            remaining_bytes: 2e6,
            actor: 0,
        });
        s.integrate(Duration::from_secs(1));
        assert!((s.flows[0].remaining_bytes - 1e6).abs() < 1.0);
    }

    #[test]
    fn steady_profile_never_fluctuates() {
        let mut s = state(LinkProfile::steady(1e6, 1e6));
        for ns in (0..10).map(|i| i * 60_000_000_000) {
            s.maybe_resample(ns);
            assert_eq!(s.multiplier, 1.0);
        }
    }

    #[test]
    fn fluctuating_profile_has_unit_mean_multiplier() {
        let mut s = state(LinkProfile::new(1e6, 1e6).with_fluctuation(0.5, 0.0));
        let mut total = 0.0;
        let n = 20_000;
        for i in 1..=n {
            s.maybe_resample(i * 60_000_000_000);
            total += s.multiplier;
        }
        let mean = total / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean multiplier {mean}");
    }

    #[test]
    fn fades_produce_deep_dips() {
        let mut s = state(LinkProfile::new(1e6, 1e6).with_fluctuation(0.3, 0.2));
        let mut min = f64::MAX;
        for i in 1..=2000u64 {
            s.maybe_resample(i * 60_000_000_000);
            min = min.min(s.multiplier);
        }
        assert!(min < 0.3, "expected at least one deep fade, min {min}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = LinkProfile::new(0.0, 1.0);
    }
}
