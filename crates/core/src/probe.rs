//! In-channel bandwidth probing (paper §6.2).
//!
//! Rather than predicting cloud performance or issuing explicit probes,
//! UniDrive treats every completed block transfer as a measurement: the
//! scheduler tracks the average **per-connection** throughput of each
//! cloud (per-connection, because several concurrent HTTP connections
//! serve the same cloud and scheduling is per block). An exponential
//! moving average smooths the noisy samples while following the
//! minute-scale fluctuations the measurement study observed.

use unidrive_util::sync::Mutex;
use std::time::Duration;

use unidrive_cloud::CloudId;
use unidrive_obs::Obs;

/// Per-cloud exponential-moving-average throughput estimator.
#[derive(Debug)]
pub struct BandwidthProbe {
    alpha: f64,
    estimates: Mutex<Vec<Estimate>>,
    obs: Obs,
}

#[derive(Debug, Clone, Copy)]
struct Estimate {
    bytes_per_sec: f64,
    samples: u64,
}

impl BandwidthProbe {
    /// Creates a probe for `clouds` clouds, all starting at the neutral
    /// `initial` estimate (bytes/second) so no cloud is preferred before
    /// any traffic flows.
    pub fn new(clouds: usize, initial: f64) -> Self {
        BandwidthProbe {
            alpha: 0.3,
            estimates: Mutex::new(vec![
                Estimate {
                    bytes_per_sec: initial,
                    samples: 0,
                };
                clouds
            ]),
            obs: Obs::noop(),
        }
    }

    /// Builder-style: publishes each cloud's EMA estimate as a
    /// `probe.cloud{N}.ema_bytes_per_sec` gauge (plus a `probe.samples`
    /// counter) on every recorded sample.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Records one completed transfer of `bytes` that took `elapsed`.
    /// Zero-duration samples are ignored.
    pub fn record(&self, cloud: CloudId, bytes: u64, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 || bytes == 0 {
            return;
        }
        let sample = bytes as f64 / secs;
        let ema = {
            let mut est = self.estimates.lock();
            let e = &mut est[cloud.0];
            if e.samples == 0 {
                e.bytes_per_sec = sample;
            } else {
                e.bytes_per_sec = self.alpha * sample + (1.0 - self.alpha) * e.bytes_per_sec;
            }
            e.samples += 1;
            e.bytes_per_sec
        };
        if self.obs.is_enabled() {
            self.obs
                .set_gauge(&format!("probe.cloud{}.ema_bytes_per_sec", cloud.0), ema);
            self.obs.inc("probe.samples");
        }
    }

    /// Current per-connection throughput estimate (bytes/second).
    pub fn speed(&self, cloud: CloudId) -> f64 {
        self.estimates.lock()[cloud.0].bytes_per_sec
    }

    /// Number of samples recorded for `cloud`.
    pub fn samples(&self, cloud: CloudId) -> u64 {
        self.estimates.lock()[cloud.0].samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_replaces_seed() {
        let p = BandwidthProbe::new(2, 1e6);
        p.record(CloudId(0), 10_000_000, Duration::from_secs(1));
        assert_eq!(p.speed(CloudId(0)), 10e6);
        assert_eq!(p.speed(CloudId(1)), 1e6);
    }

    #[test]
    fn ema_converges_toward_new_rate() {
        let p = BandwidthProbe::new(1, 1e6);
        for _ in 0..30 {
            p.record(CloudId(0), 5_000_000, Duration::from_secs(1));
        }
        let s = p.speed(CloudId(0));
        assert!((4.9e6..5.1e6).contains(&s), "speed {s}");
    }

    #[test]
    fn degenerate_samples_ignored() {
        let p = BandwidthProbe::new(1, 2e6);
        p.record(CloudId(0), 0, Duration::from_secs(1));
        p.record(CloudId(0), 100, Duration::ZERO);
        assert_eq!(p.speed(CloudId(0)), 2e6);
        assert_eq!(p.samples(CloudId(0)), 0);
    }
}
