//! [`SimCloud`]: a consumer cloud service behind a simulated network.
//!
//! Wraps an in-memory object store with the behaviours the UniDrive
//! measurement study (paper §3.2) found to matter for real CCS Web APIs:
//!
//! * every request crosses a [`LinkProfile`]-modeled path (latency,
//!   fluctuating processor-shared bandwidth),
//! * requests fail transiently with a probability that grows with
//!   transfer size (Fig. 4), optionally elevated during *degraded
//!   windows* — disjoint per-cloud bad periods that produce the negative
//!   failure correlation of Table 1,
//! * accounts have quotas,
//! * the whole service can be switched unavailable (outages, regional
//!   blocks — Fig. 14),
//! * per-request protocol overhead bytes are charged, so sync overhead
//!   accounting (Table 3) is meaningful.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use unidrive_obs::{FieldValue, Obs};
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;
use unidrive_sim::{LinkId, LinkProfile, Runtime, SimRng, SimRuntime, Time};

use crate::{CloudCaps, CloudError, CloudOp, CloudStore, MemCloud, ObjectInfo};

/// Transient-failure model of one cloud's Web API.
///
/// The per-request failure probability is
/// `min(base + per_mb × MB, max)`, replaced by `degraded` inside a
/// degraded window.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureProfile {
    /// Baseline failure probability of any request.
    pub base: f64,
    /// Additional probability per megabyte transferred.
    pub per_mb: f64,
    /// Upper clamp for the size-dependent probability.
    pub max: f64,
    /// Failure probability while the cloud is in a degraded window.
    pub degraded: f64,
}

impl FailureProfile {
    /// A cloud that never fails (unit-test default).
    pub fn none() -> Self {
        FailureProfile {
            base: 0.0,
            per_mb: 0.0,
            max: 0.0,
            degraded: 0.0,
        }
    }

    /// Failure probability for a request moving `bytes` payload bytes.
    pub fn probability(&self, bytes: u64, in_degraded_window: bool) -> f64 {
        if in_degraded_window {
            return self.degraded;
        }
        (self.base + self.per_mb * (bytes as f64 / 1e6)).min(self.max)
    }
}

/// Configuration of a [`SimCloud`].
#[derive(Debug, Clone)]
pub struct SimCloudConfig {
    /// Upstream (client → cloud) path.
    pub up: LinkProfile,
    /// Downstream (cloud → client) path.
    pub down: LinkProfile,
    /// Transient failure model.
    pub failure: FailureProfile,
    /// Storage quota in bytes (`None` = unlimited).
    pub quota_bytes: Option<u64>,
    /// Fixed protocol bytes charged per request (headers, handshakes).
    pub request_overhead_bytes: u64,
}

impl SimCloudConfig {
    /// A stable, failure-free cloud with the given per-connection and
    /// aggregate rates (bytes/second) in both directions.
    pub fn steady(per_conn: f64, agg: f64) -> Self {
        SimCloudConfig {
            up: LinkProfile::steady(per_conn, agg),
            down: LinkProfile::steady(per_conn, agg),
            failure: FailureProfile::none(),
            quota_bytes: None,
            request_overhead_bytes: 0,
        }
    }
}

/// Cumulative traffic counters of a [`SimCloud`] (monotonic).
#[derive(Debug, Default)]
pub struct TrafficCounters {
    /// Payload + overhead bytes sent client → cloud.
    pub uploaded_bytes: AtomicU64,
    /// Payload + overhead bytes sent cloud → client.
    pub downloaded_bytes: AtomicU64,
    /// Successful API requests.
    pub ok_requests: AtomicU64,
    /// Failed API requests (transient failures and unavailability).
    pub failed_requests: AtomicU64,
}

/// Point-in-time snapshot of [`TrafficCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    /// Payload + overhead bytes sent client → cloud.
    pub uploaded_bytes: u64,
    /// Payload + overhead bytes sent cloud → client.
    pub downloaded_bytes: u64,
    /// Successful API requests.
    pub ok_requests: u64,
    /// Failed API requests.
    pub failed_requests: u64,
}

impl TrafficSnapshot {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.uploaded_bytes + self.downloaded_bytes
    }

    /// Success rate of API requests (1.0 when no requests were made).
    pub fn success_rate(&self) -> f64 {
        let total = self.ok_requests + self.failed_requests;
        if total == 0 {
            1.0
        } else {
            self.ok_requests as f64 / total as f64
        }
    }
}

/// A simulated consumer cloud storage service.
///
/// # Examples
///
/// ```
/// use unidrive_util::bytes::Bytes;
/// use unidrive_cloud::{CloudStore, SimCloud, SimCloudConfig};
/// use unidrive_sim::SimRuntime;
///
/// # fn main() -> Result<(), unidrive_cloud::CloudError> {
/// let sim = SimRuntime::new(1);
/// let cloud = SimCloud::new(&sim, "dropbox", SimCloudConfig::steady(1e6, 5e6));
/// cloud.upload("f.bin", Bytes::from(vec![0u8; 1_000_000]))?; // takes 1 virtual second
/// assert_eq!(cloud.download("f.bin")?.len(), 1_000_000);
/// # Ok(())
/// # }
/// ```
pub struct SimCloud {
    name: String,
    sim: Arc<SimRuntime>,
    up: LinkId,
    down: LinkId,
    storage: Arc<MemCloud>,
    failure: FailureProfile,
    quota: Option<u64>,
    overhead: u64,
    rng: Mutex<SimRng>,
    available: AtomicBool,
    counters: Arc<TrafficCounters>,
    /// Disjoint (start, end) degraded windows, sorted by start.
    degraded_windows: Mutex<Vec<(Time, Time)>>,
    obs: Mutex<Obs>,
}

impl std::fmt::Debug for SimCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCloud")
            .field("name", &self.name)
            .field("available", &self.available.load(Ordering::Relaxed))
            .field("used_bytes", &self.storage.used_bytes())
            .finish()
    }
}

impl SimCloud {
    /// Creates a simulated cloud on `sim`, registering its two links.
    pub fn new(sim: &Arc<SimRuntime>, name: impl Into<String>, config: SimCloudConfig) -> Self {
        Self::with_backing(sim, name, config, Arc::new(MemCloud::new("backing")))
    }

    /// Creates a *site frontend* to an existing backing store: the same
    /// objects seen through this site's network path. Build one frontend
    /// per site over a shared backing to model one provider serving
    /// clients at multiple locations (the multi-device experiments).
    pub fn with_backing(
        sim: &Arc<SimRuntime>,
        name: impl Into<String>,
        config: SimCloudConfig,
        backing: Arc<MemCloud>,
    ) -> Self {
        let up = sim.add_link(config.up);
        let down = sim.add_link(config.down);
        let rng = sim.fork_rng();
        SimCloud {
            name: name.into(),
            sim: Arc::clone(sim),
            up,
            down,
            storage: backing,
            failure: config.failure,
            quota: config.quota_bytes,
            overhead: config.request_overhead_bytes,
            rng: Mutex::new(rng),
            available: AtomicBool::new(true),
            counters: Arc::new(TrafficCounters::default()),
            degraded_windows: Mutex::new(Vec::new()),
            obs: Mutex::new(Obs::noop()),
        }
    }

    /// Installs an observability handle. Requests are then counted per
    /// cloud (`cloud.{name}.requests_ok`/`requests_failed`/`bytes`, a
    /// `request_bytes` size histogram) and failures traced as
    /// `cloud.op_failed` instants. The handle is also installed on the
    /// engine (see [`SimRuntime::install_obs`]), which points the
    /// registry clock at virtual time so stamps are deterministic.
    pub fn install_obs(&self, obs: Obs) {
        self.sim.install_obs(obs.clone());
        *self.obs.lock() = obs;
    }

    fn obs(&self) -> Obs {
        self.obs.lock().clone()
    }

    fn count_failure(&self, op: &'static str, bytes: u64, transient: bool) {
        self.counters.failed_requests.fetch_add(1, Ordering::Relaxed);
        let obs = self.obs();
        obs.inc(&format!("cloud.{}.requests_failed", self.name));
        obs.instant("cloud.op_failed", None, || {
            vec![
                ("cloud", FieldValue::S(self.name.clone())),
                ("op", FieldValue::S(op.to_owned())),
                ("bytes", FieldValue::U(bytes)),
                ("transient", FieldValue::B(transient)),
            ]
        });
    }

    /// Switches the whole service up or down (outage emulation).
    pub fn set_available(&self, available: bool) {
        self.available.store(available, Ordering::SeqCst);
    }

    /// Whether the service currently accepts requests.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::SeqCst)
    }

    /// Installs the degraded windows during which requests fail with the
    /// profile's `degraded` probability. Windows should be sorted and
    /// disjoint.
    pub fn set_degraded_windows(&self, windows: Vec<(Time, Time)>) {
        *self.degraded_windows.lock() = windows;
    }

    /// Shared handle to this cloud's traffic counters.
    pub fn counters(&self) -> Arc<TrafficCounters> {
        Arc::clone(&self.counters)
    }

    /// Snapshot of the traffic counters.
    pub fn traffic(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            uploaded_bytes: self.counters.uploaded_bytes.load(Ordering::Relaxed),
            downloaded_bytes: self.counters.downloaded_bytes.load(Ordering::Relaxed),
            ok_requests: self.counters.ok_requests.load(Ordering::Relaxed),
            failed_requests: self.counters.failed_requests.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.storage.used_bytes()
    }

    /// The backing object store (share it with another site's frontend
    /// via [`SimCloud::with_backing`]).
    pub fn backing(&self) -> Arc<MemCloud> {
        Arc::clone(&self.storage)
    }

    fn in_degraded_window(&self) -> bool {
        let now = self.sim.now();
        self.degraded_windows
            .lock()
            .iter()
            .any(|&(s, e)| s <= now && now < e)
    }

    fn check_available(&self, op: &'static str) -> Result<(), CloudError> {
        if self.is_available() {
            Ok(())
        } else {
            self.count_failure(op, 0, false);
            Err(CloudError::unavailable(self.name.clone()))
        }
    }

    /// Runs one request: decides failure, moves the right number of bytes
    /// over `link`, updates counters.
    fn request(
        &self,
        link: LinkId,
        op: &'static str,
        payload: u64,
        counter: &AtomicU64,
    ) -> Result<(), CloudError> {
        let total = payload + self.overhead;
        let p = self
            .failure
            .probability(payload, self.in_degraded_window());
        let fail = { self.rng.lock().chance(p) };
        if fail {
            // A failed request still wastes some of the bytes before the
            // connection drops.
            let fraction = { self.rng.lock().uniform(0.05, 0.9) };
            let wasted = (total as f64 * fraction) as u64;
            self.sim.transfer(link, wasted);
            counter.fetch_add(wasted, Ordering::Relaxed);
            self.count_failure(op, payload, true);
            return Err(CloudError::transient(format!(
                "request to {} dropped mid-transfer",
                self.name
            )));
        }
        self.sim.transfer(link, total);
        counter.fetch_add(total, Ordering::Relaxed);
        self.counters.ok_requests.fetch_add(1, Ordering::Relaxed);
        let obs = self.obs();
        if obs.is_enabled() {
            obs.inc(&format!("cloud.{}.requests_ok", self.name));
            obs.add(&format!("cloud.{}.bytes", self.name), total);
            obs.observe(&format!("cloud.{}.request_bytes", self.name), payload);
        }
        Ok(())
    }
}

impl CloudStore for SimCloud {
    fn name(&self) -> &str {
        &self.name
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        let run = || {
            self.check_available("upload")?;
            if let Some(quota) = self.quota {
                let used = self.storage.used_bytes();
                let needed = data.len() as u64;
                if used + needed > quota {
                    self.count_failure("upload", needed, false);
                    return Err(CloudError::QuotaExceeded {
                        needed,
                        available: quota.saturating_sub(used),
                    });
                }
            }
            self.request(
                self.up,
                "upload",
                data.len() as u64,
                &self.counters.uploaded_bytes,
            )?;
            self.storage.upload(path, data.clone())
        };
        run().map_err(|e| e.with_op_context(CloudOp::Upload, path))
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        let run = || {
            self.check_available("download")?;
            // The request has to reach the cloud before NotFound can be known.
            let data = match self.storage.download(path) {
                Ok(d) => d,
                Err(e) => {
                    self.request(self.down, "download", 0, &self.counters.downloaded_bytes)?;
                    return Err(e);
                }
            };
            self.request(
                self.down,
                "download",
                data.len() as u64,
                &self.counters.downloaded_bytes,
            )?;
            Ok(data)
        };
        run().map_err(|e| e.with_op_context(CloudOp::Download, path))
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        let run = || {
            self.check_available("create_dir")?;
            self.request(self.up, "create_dir", 0, &self.counters.uploaded_bytes)?;
            self.storage.create_dir(path)
        };
        run().map_err(|e| e.with_op_context(CloudOp::CreateDir, path))
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        let run = || {
            self.check_available("list")?;
            let entries = match self.storage.list(path) {
                Ok(e) => e,
                Err(e) => {
                    self.request(self.down, "list", 0, &self.counters.downloaded_bytes)?;
                    return Err(e);
                }
            };
            // Listings cost roughly 64 bytes of response per entry.
            self.request(
                self.down,
                "list",
                entries.len() as u64 * 64,
                &self.counters.downloaded_bytes,
            )?;
            Ok(entries)
        };
        run().map_err(|e| e.with_op_context(CloudOp::List, path))
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        let run = || {
            self.check_available("delete")?;
            self.request(self.up, "delete", 0, &self.counters.uploaded_bytes)?;
            self.storage.delete(path)
        };
        run().map_err(|e| e.with_op_context(CloudOp::Delete, path))
    }

    fn caps(&self) -> CloudCaps {
        CloudCaps {
            read_after_write: true,
            // The simulated namespace mirrors MemCloud's strict edges.
            strict_not_found: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sim_cloud(seed: u64, config: SimCloudConfig) -> (Arc<SimRuntime>, SimCloud) {
        let sim = SimRuntime::new(seed);
        let cloud = SimCloud::new(&sim, "c", config);
        (sim, cloud)
    }

    #[test]
    fn transfer_takes_simulated_time() {
        let (sim, cloud) = sim_cloud(1, SimCloudConfig::steady(1e6, 1e6));
        let t0 = sim.now();
        cloud.upload("f", Bytes::from(vec![0u8; 2_000_000])).unwrap();
        assert_eq!((sim.now() - t0).as_secs_f64(), 2.0);
    }

    #[test]
    fn unavailable_cloud_refuses_everything() {
        let (_sim, cloud) = sim_cloud(2, SimCloudConfig::steady(1e6, 1e6));
        cloud.set_available(false);
        assert!(matches!(
            cloud.upload("f", Bytes::new()).unwrap_err(),
            CloudError::Unavailable { .. }
        ));
        assert!(matches!(
            cloud.list("").unwrap_err(),
            CloudError::Unavailable { .. }
        ));
        cloud.set_available(true);
        assert!(cloud.list("").is_ok());
    }

    #[test]
    fn quota_is_enforced_before_transfer() {
        let mut cfg = SimCloudConfig::steady(1e6, 1e6);
        cfg.quota_bytes = Some(1000);
        let (sim, cloud) = sim_cloud(3, cfg);
        cloud.upload("a", Bytes::from(vec![0u8; 800])).unwrap();
        let t_before = sim.now();
        let err = cloud.upload("b", Bytes::from(vec![0u8; 400])).unwrap_err();
        assert!(matches!(err, CloudError::QuotaExceeded { available: 200, .. }));
        // Rejection is immediate: no bytes were transferred.
        assert_eq!(sim.now(), t_before);
    }

    #[test]
    fn failures_follow_size_dependence() {
        let mut cfg = SimCloudConfig::steady(1e8, 1e9);
        cfg.failure = FailureProfile {
            base: 0.02,
            per_mb: 0.02,
            max: 0.5,
            degraded: 0.5,
        };
        let (_sim, cloud) = sim_cloud(4, cfg);
        let mut fails = [0u32; 2];
        let sizes = [100_000u64, 8_000_000];
        for (i, &size) in sizes.iter().enumerate() {
            for _ in 0..300 {
                if cloud
                    .upload("f", Bytes::from(vec![0u8; size as usize]))
                    .is_err()
                {
                    fails[i] += 1;
                }
            }
        }
        assert!(
            fails[1] > fails[0] * 2,
            "large files should fail more: {fails:?}"
        );
    }

    #[test]
    fn degraded_windows_elevate_failures() {
        let mut cfg = SimCloudConfig::steady(1e7, 1e7);
        cfg.failure = FailureProfile {
            base: 0.0,
            per_mb: 0.0,
            max: 0.0,
            degraded: 1.0,
        };
        let (sim, cloud) = sim_cloud(5, cfg);
        cloud.set_degraded_windows(vec![(Time::from_secs(100), Time::from_secs(200))]);
        assert!(cloud.upload("a", Bytes::from(vec![1u8; 10])).is_ok());
        sim.sleep(Duration::from_secs(150));
        assert!(cloud.upload("b", Bytes::from(vec![1u8; 10])).is_err());
        sim.sleep(Duration::from_secs(100));
        assert!(cloud.upload("c", Bytes::from(vec![1u8; 10])).is_ok());
    }

    #[test]
    fn counters_track_traffic_and_outcomes() {
        let mut cfg = SimCloudConfig::steady(1e6, 1e6);
        cfg.request_overhead_bytes = 100;
        let (_sim, cloud) = sim_cloud(6, cfg);
        cloud.upload("f", Bytes::from(vec![0u8; 1000])).unwrap();
        let _ = cloud.download("f").unwrap();
        let t = cloud.traffic();
        assert_eq!(t.uploaded_bytes, 1100);
        assert_eq!(t.downloaded_bytes, 1100);
        assert_eq!(t.ok_requests, 2);
        assert_eq!(t.success_rate(), 1.0);
    }

    #[test]
    fn not_found_download_still_costs_a_round_trip() {
        let mut cfg = SimCloudConfig::steady(1e6, 1e6);
        cfg.down = cfg
            .down
            .with_latency(Duration::from_millis(50), Duration::ZERO);
        let (sim, cloud) = sim_cloud(7, cfg);
        let t0 = sim.now();
        assert!(matches!(
            cloud.download("ghost").unwrap_err(),
            CloudError::NotFound { .. }
        ));
        assert_eq!(sim.now() - t0, Duration::from_millis(50));
    }

    #[test]
    fn concurrent_uploads_share_bandwidth() {
        let sim = SimRuntime::new(8);
        let cloud = Arc::new(SimCloud::new(
            &sim,
            "c",
            SimCloudConfig::steady(2e6, 2e6),
        ));
        let rt = sim.clone().as_runtime();
        let tasks: Vec<_> = (0..2)
            .map(|i| {
                let cloud = Arc::clone(&cloud);
                let sim = sim.clone();
                unidrive_sim::spawn(&rt, &format!("u{i}"), move || {
                    cloud
                        .upload(&format!("f{i}"), Bytes::from(vec![0u8; 2_000_000]))
                        .unwrap();
                    sim.now()
                })
            })
            .collect();
        for t in tasks {
            assert_eq!(t.join().as_secs_f64(), 2.0);
        }
    }
}
