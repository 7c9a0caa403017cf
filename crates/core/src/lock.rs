//! The quorum-based distributed mutual-exclusive lock (paper §5.2,
//! "Handling Concurrent Local Updates").
//!
//! Built purely from the five cloud file operations: the attempting
//! device uploads an empty `lock_<device>_<t>` file into a dedicated
//! lock directory on every cloud, then lists each directory. Every
//! attempt of one acquire is named `lock_<device>_<t0 + attempt>`, `t0`
//! being the time of its first attempt, so its sort key `(t, device)`
//! stays put across rounds.
//!
//! What a round's listings mean is decided in one place,
//! [`unidrive_meta::lock_verdict`] with [`LockConfig::head_waits`]: our
//! file alone on a majority holds; a loser whose file sorts first among
//! the live files a majority shows (the *head*) keeps it and lists
//! again while it has lists and ΔT/2 left; every other loser withdraws
//! (DESIGN §4 decision 16). The lock-model test and the fleet model run
//! the same functions. This file does the I/O around that decision:
//! the uploads, listings and deletes, the ΔT lock break, the reclaim of
//! our own leftovers, the random backoff and the holder's re-stamp.
//!
//! Fault tolerance needs no global clock: every client records the
//! *first time it saw* each foreign lock file; a lock file observed for
//! longer than ΔT without being refreshed is considered abandoned and
//! deleted (lock breaking). A holder therefore re-stamps its lock
//! (uploads a new lock file, deletes the old one) once ΔT/2 has gone
//! since its file was uploaded.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;
use unidrive_cloud::CloudSet;
use unidrive_meta::{
    lock_file_name, lock_verdict, parse_lock_name, LockConfig, LockVerdict, PlaneError, LOCK_DIR,
    STARVATION_AUDIT,
};
use unidrive_obs::{FieldValue, Obs, SpanId};
use unidrive_sim::{Runtime, SimRng, Time};

use crate::quorum;

/// The metadata lock over a user's multi-cloud.
pub struct QuorumLock {
    rt: Arc<dyn Runtime>,
    clouds: CloudSet,
    device: String,
    config: LockConfig,
    rng: Mutex<SimRng>,
    /// `(cloud index, lock file name)` → first time we saw it.
    first_seen: Mutex<HashMap<(usize, String), Time>>,
    obs: Obs,
}

impl std::fmt::Debug for QuorumLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumLock")
            .field("device", &self.device)
            .field("clouds", &self.clouds.len())
            .finish()
    }
}

/// Proof of lock ownership. Dropping the guard releases the lock;
/// [`LockGuard::release`] names that point in the protocol.
#[derive(Debug)]
pub struct LockGuard<'a> {
    lock: &'a QuorumLock,
    lock_name: String,
    /// When the upload of `lock_name` began: no observer's first-seen
    /// of the file is earlier.
    stamped: Time,
    /// The (ended) `lock.acquire` span: causal parent for the
    /// `lock.refresh` / `lock.release` spans of this hold.
    span: Option<SpanId>,
}

impl QuorumLock {
    /// Creates a lock handle for `device` over `clouds`.
    pub fn new(
        rt: Arc<dyn Runtime>,
        clouds: CloudSet,
        device: impl Into<String>,
        config: LockConfig,
        rng: SimRng,
    ) -> Self {
        QuorumLock {
            rt,
            clouds,
            device: device.into(),
            config,
            rng: Mutex::new(rng),
            first_seen: Mutex::new(HashMap::new()),
            obs: Obs::noop(),
        }
    }

    /// Builder-style: records acquisition latency, contention rounds,
    /// lock breaking, and releases on `obs` (see `unidrive-obs`).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The device name this lock identifies itself as.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Acquires the quorum lock: a head lists again, any other loser
    /// withdraws and retries after a random backoff. The attempt is
    /// recorded as a `lock.acquire` span (device, rounds, outcome)
    /// parented to `parent`, and any `lock.break` performed along the
    /// way parents to that span.
    ///
    /// # Errors
    ///
    /// [`PlaneError::Contended`] after `max_attempts` uploads that each
    /// lost; [`PlaneError::QuorumUnreachable`] if a majority of clouds
    /// cannot even be contacted.
    pub fn acquire(&self, parent: Option<SpanId>) -> Result<LockGuard<'_>, PlaneError> {
        let quorum = self.clouds.quorum();
        let max = self.config.max_attempts;
        let t0 = self.rt.now();
        let mut span = self.obs.span("lock.acquire", parent);
        span.attr_str("device", self.device.as_str());
        let span_id = span.id();
        let mut starved = false;
        let mut rounds = 0u64;
        for attempt in 0..max {
            let t = t0.as_nanos() + attempt as u64;
            let lock_name = lock_file_name(&self.device, t);
            let stamped = self.rt.now();
            let path = format!("{LOCK_DIR}/{lock_name}");
            // Lock files go out to all clouds concurrently (the client
            // opens one HTTP request per cloud).
            quorum::fan_out(&self.rt, &self.clouds, "lock-up", move |_, cloud| {
                let _ = cloud.upload(&path, Bytes::new());
            });
            for lists in 1..=max {
                rounds += 1;
                let (verdict, held) = match self.try_round(&lock_name, t, span_id) {
                    Ok((LockVerdict::Hold, _)) => {
                        let wait_ns =
                            self.rt.now().saturating_duration_since(t0).as_nanos() as u64;
                        self.obs.series_observe("lock.wait_ns", &self.device, wait_ns);
                        span.attr_u64("rounds", rounds);
                        span.attr_bool("ok", true);
                        span.end();
                        return Ok(LockGuard {
                            lock: self,
                            lock_name,
                            stamped,
                            span: span_id,
                        });
                    }
                    Err(short) => {
                        self.obs.series_add("lock.unreachable", &self.device, 1);
                        self.withdraw(&lock_name);
                        span.attr_u64("rounds", rounds);
                        span.attr_bool("ok", false);
                        return Err(short);
                    }
                    Ok(lost) => lost,
                };
                let head = verdict == LockVerdict::Head;
                self.obs.series_add("lock.contended", &self.device, 1);
                self.obs.instant("lock.contended", span_id, || {
                    vec![
                        ("device", FieldValue::S(self.device.clone())),
                        ("held", FieldValue::U(held as u64)),
                        ("quorum", FieldValue::U(quorum as u64)),
                        ("head", FieldValue::B(head)),
                    ]
                });
                // First in line: keep the file and list again right away.
                let age = self.rt.now().saturating_duration_since(stamped);
                let waits = head && self.config.head_waits(lists, age);
                if !waits {
                    self.withdraw(&lock_name);
                    let nanos = self.config.backoff_cap(attempt).as_nanos().max(1) as u64;
                    let wait = Duration::from_nanos(self.rng.lock().below(nanos));
                    self.rt.sleep(wait);
                }
                // Bounded-wait audit: flag (once) a device that has been
                // losing rounds longer than `STARVATION_AUDIT`, so
                // starvation under hot-folder contention is visible in
                // metrics and traces.
                let waited = self.rt.now().saturating_duration_since(t0);
                if !starved && waited >= STARVATION_AUDIT {
                    starved = true;
                    self.obs.series_add("lock.starved", &self.device, 1);
                    span.attr_bool("starved", true);
                }
                if !waits {
                    break;
                }
            }
        }
        self.obs.series_add("lock.exhausted", &self.device, 1);
        span.attr_u64("rounds", rounds);
        span.attr_bool("ok", false);
        Err(PlaneError::Contended { attempts: max })
    }

    /// One acquisition round over our uploaded `lock_name`, stamped
    /// `t`: list every lock directory concurrently, reclaim our own
    /// leftovers, break abandoned foreign files, and hand the live
    /// files' `(t, device)` keys to [`lock_verdict`]. `parent` is the
    /// enclosing `lock.acquire` span (for `lock.break` spans).
    fn try_round(
        &self,
        lock_name: &str,
        t: u64,
        parent: Option<SpanId>,
    ) -> Result<(LockVerdict, usize), PlaneError> {
        let listings = quorum::fan_out(&self.rt, &self.clouds, "lock-list", |_, cloud| {
            cloud.list(LOCK_DIR).ok()
        });
        let mut live = Vec::new();
        for ((id, cloud), entries) in self.clouds.iter().zip(&listings) {
            let Some(entries) = entries else {
                continue;
            };
            let mut keys = Vec::new();
            for entry in entries {
                let Some((device, stamp)) = parse_lock_name(&entry.name) else {
                    continue;
                };
                if device == self.device && entry.name != lock_name {
                    // A leftover of our own earlier attempt whose delete
                    // was lost to a transient failure: reclaim it
                    // immediately (no ΔT needed — it is certainly ours).
                    let _ = cloud.delete(&format!("{LOCK_DIR}/{}", entry.name));
                    continue;
                }
                if device != self.device && self.is_stale(id.0, &entry.name) {
                    // Lock breaking: delete the abandoned lock file.
                    let mut bspan = self.obs.span("lock.break", parent);
                    bspan.attr_str("device", self.device.as_str());
                    bspan.attr_str("victim", device);
                    let _ = cloud.delete(&format!("{LOCK_DIR}/{}", entry.name));
                    bspan.end();
                    self.obs.series_add("lock.broken", &self.device, 1);
                    continue;
                }
                keys.push((stamp, device));
            }
            live.push(keys);
        }
        quorum::require_reachable(&self.clouds, live.len())?;
        Ok(lock_verdict(&live, self.clouds.quorum(), &(t, self.device.as_str())))
    }

    /// Tracks first-seen times; returns whether the foreign lock has
    /// been visible for longer than ΔT. Entries much older than ΔT are
    /// pruned so long-lived clients don't accumulate dead lock names.
    fn is_stale(&self, cloud: usize, name: &str) -> bool {
        let now = self.rt.now();
        let horizon = self.config.stale_after * 4;
        let mut seen = self.first_seen.lock();
        if seen.len() > 256 {
            seen.retain(|_, first| now.saturating_duration_since(*first) < horizon);
        }
        let first = *seen.entry((cloud, name.to_owned())).or_insert(now);
        now.saturating_duration_since(first) > self.config.stale_after
    }

    /// Deletes our lock file from every cloud (concurrently). Best
    /// effort: a delete lost to a transient failure leaves a file the
    /// self-reclaim in `try_round` removes on our next round.
    fn withdraw(&self, lock_name: &str) {
        let path = format!("{LOCK_DIR}/{lock_name}");
        quorum::fan_out(&self.rt, &self.clouds, "lock-del", move |_, cloud| {
            let _ = cloud.delete(&path);
        });
    }
}

impl LockGuard<'_> {
    /// Re-stamps the lock (upload a new file, delete the old one) once
    /// ΔT/2 has gone since its file was uploaded, so no other client
    /// ever sees it older than ΔT; before that it makes no cloud call.
    /// Call it between the steps of a long hold.
    pub fn refresh(&mut self) {
        let now = self.lock.rt.now();
        if now.saturating_duration_since(self.stamped) < self.lock.config.stale_after / 2 {
            return;
        }
        let new_name = lock_file_name(&self.lock.device, now.as_nanos());
        if new_name == self.lock_name {
            return;
        }
        let mut span = self.lock.obs.span("lock.refresh", self.span);
        span.attr_str("device", self.lock.device.as_str());
        let new_path = format!("{LOCK_DIR}/{new_name}");
        quorum::fan_out(&self.lock.rt, &self.lock.clouds, "lock-refresh", move |_, cloud| {
            let _ = cloud.upload(&new_path, Bytes::new());
        });
        self.lock.withdraw(&self.lock_name);
        self.lock_name = new_name;
        self.stamped = now;
    }

    /// Releases the lock by deleting our lock files everywhere — the
    /// guard's `Drop`, spelled out where the protocol releases.
    pub fn release(self) {}

    /// The `lock.acquire` span of this hold (causal parent for work
    /// done under the lock), if tracing is enabled.
    pub fn span(&self) -> Option<SpanId> {
        self.span
    }

    /// The current lock file name (diagnostics).
    pub fn lock_name(&self) -> &str {
        &self.lock_name
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        let mut span = self.lock.obs.span("lock.release", self.span);
        span.attr_str("device", self.lock.device.as_str());
        self.lock.withdraw(&self.lock_name);
        self.lock.obs.series_add("lock.released", &self.lock.device, 1);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use unidrive_cloud::{CloudStore, MemCloud};
    use unidrive_sim::{spawn, RealRuntime, SimRuntime};

    fn mem_clouds(n: usize) -> CloudSet {
        CloudSet::new(
            (0..n)
                .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                .collect(),
        )
    }

    fn lock_on(
        rt: Arc<dyn Runtime>,
        clouds: CloudSet,
        device: &str,
        seed: u64,
    ) -> QuorumLock {
        QuorumLock::new(
            rt,
            clouds,
            device,
            LockConfig::default(),
            SimRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn uncontended_acquire_and_release() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let clouds = mem_clouds(5);
        let lock = lock_on(rt, clouds.clone(), "dev-a", 1);
        let guard = lock.acquire(None).unwrap();
        // Lock files visible on every cloud.
        for (_, c) in clouds.iter() {
            assert_eq!(c.list(LOCK_DIR).unwrap().len(), 1);
        }
        guard.release();
        for (_, c) in clouds.iter() {
            assert!(c.list(LOCK_DIR).unwrap().is_empty());
        }
    }

    #[test]
    fn second_client_blocks_until_release() {
        let sim = SimRuntime::new(2);
        let rt = sim.clone().as_runtime();
        let clouds = mem_clouds(5);
        let lock_a = lock_on(rt.clone(), clouds.clone(), "dev-a", 3);
        let guard = lock_a.acquire(None).unwrap();

        let rt2 = rt.clone();
        let clouds2 = clouds.clone();
        let contender = spawn(&rt, "dev-b", move || {
            let lock_b = lock_on(rt2.clone(), clouds2, "dev-b", 4);
            let acquired = lock_b.acquire(None).is_ok();
            acquired
        });
        // Hold the lock briefly, then release; B must eventually win.
        sim.sleep(Duration::from_secs(2));
        guard.release();
        assert!(contender.join());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let sim = SimRuntime::new(5);
        let rt = sim.clone().as_runtime();
        let clouds = mem_clouds(5);
        let in_cs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let max_seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                let rt2 = rt.clone();
                let clouds = clouds.clone();
                let in_cs = Arc::clone(&in_cs);
                let max_seen = Arc::clone(&max_seen);
                spawn(&rt, &format!("dev-{i}"), move || {
                    let lock = lock_on(rt2.clone(), clouds, &format!("dev-{i}"), 100 + i);
                    for _ in 0..3 {
                        let guard = lock.acquire(None).expect("acquire");
                        let n = in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                        max_seen.fetch_max(n, std::sync::atomic::Ordering::SeqCst);
                        rt2.sleep(Duration::from_millis(50));
                        in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        guard.release();
                        rt2.sleep(Duration::from_millis(20));
                    }
                })
            })
            .collect();
        for t in tasks {
            t.join();
        }
        assert_eq!(
            max_seen.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "two devices were in the critical section simultaneously"
        );
    }

    #[test]
    fn abandoned_lock_is_broken_after_delta_t() {
        let sim = SimRuntime::new(6);
        let rt = sim.clone().as_runtime();
        let clouds = mem_clouds(5);
        // A crashed device left lock files behind.
        for (_, c) in clouds.iter() {
            c.upload(
                &format!("{LOCK_DIR}/{}", lock_file_name("crashed", 1)),
                unidrive_util::bytes::Bytes::new(),
            )
            .unwrap();
        }
        let config = LockConfig {
            stale_after: Duration::from_secs(120),
            max_attempts: 40,
            ..LockConfig::default()
        };
        let lock = QuorumLock::new(
            rt,
            clouds,
            "dev-a",
            config,
            SimRng::seed_from_u64(7),
        );
        let t0 = sim.now();
        let guard = lock.acquire(None).expect("should break the stale lock");
        let waited = sim.now() - t0;
        assert!(
            waited > Duration::from_secs(120),
            "acquired before ΔT elapsed: {waited:?}"
        );
        guard.release();
    }

    /// `n` MemClouds, the first `dead` of which fail every request
    /// (a `ChaosCloud` with certain transient failure).
    pub(crate) fn clouds_with_dead(rt: &Arc<dyn Runtime>, n: usize, dead: usize) -> CloudSet {
        use unidrive_cloud::{ChaosCloud, FaultEvent, FaultKind, FaultPlan};
        let mut members: Vec<Arc<dyn CloudStore>> = Vec::new();
        for i in 0..n {
            let name = format!("c{i}");
            let inner: Arc<dyn CloudStore> = Arc::new(MemCloud::new(name.clone()));
            if i < dead {
                let certain = FaultKind::TransientBurst { probability: 1.0 };
                let plan =
                    FaultPlan::with_events(i as u64, vec![FaultEvent::always(name, certain)]);
                members.push(Arc::new(ChaosCloud::new(inner, Arc::clone(rt), &plan)));
            } else {
                members.push(inner);
            }
        }
        CloudSet::new(members)
    }

    #[test]
    fn quorum_survives_minority_outage() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let clouds = clouds_with_dead(&rt, 5, 2);
        let lock = lock_on(rt, clouds, "dev-a", 8);
        let guard = lock.acquire(None).expect("3 of 5 clouds suffice");
        guard.release();
    }

    #[test]
    fn majority_outage_fails_fast() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let clouds = clouds_with_dead(&rt, 5, 3);
        let lock = lock_on(rt, clouds, "dev-a", 9);
        assert!(matches!(
            lock.acquire(None).unwrap_err(),
            PlaneError::QuorumUnreachable { reachable: 2, quorum: 3 }
        ));
    }

    #[test]
    fn refresh_replaces_lock_file() {
        let sim = SimRuntime::new(10);
        let rt = sim.clone().as_runtime();
        let clouds = mem_clouds(3);
        let lock = lock_on(rt, clouds.clone(), "dev-a", 11);
        let mut guard = lock.acquire(None).unwrap();
        let old = guard.lock_name().to_owned();
        // Past ΔT/2 (the default ΔT is 120 s): the file is re-stamped.
        sim.sleep(Duration::from_secs(61));
        guard.refresh();
        assert_ne!(guard.lock_name(), old);
        let (_, cloud) = clouds.iter().next().unwrap();
        let names: Vec<String> = cloud
            .list(LOCK_DIR)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0], guard.lock_name());
        guard.release();
    }

    /// Puts a foreign `device` lock file stamped `t` on every cloud.
    fn plant(clouds: &CloudSet, device: &str, t: u64) {
        for (_, c) in clouds.iter() {
            c.upload(
                &format!("{LOCK_DIR}/{}", lock_file_name(device, t)),
                Bytes::new(),
            )
            .unwrap();
        }
    }

    /// A stamp that sorts after any the tests' devices draw: a file the
    /// acquiring device waits on as the head.
    const LATER: u64 = 1 << 60;

    #[test]
    fn starved_acquire_is_audited_once() {
        let sim = SimRuntime::new(14);
        let rt = sim.clone().as_runtime();
        let clouds = mem_clouds(5);
        // A live foreign holder that never goes stale and sorts after
        // us: every upload heads the queue, lists until its wait runs
        // out, and the acquire eventually exhausts.
        plant(&clouds, "holder", LATER);
        // Backoffs long enough that the eight uploads wait past
        // `STARVATION_AUDIT` well before the last one.
        let config = LockConfig {
            max_attempts: 8,
            backoff_base: Duration::from_secs(10),
            backoff_max: Duration::from_secs(20),
            stale_after: Duration::from_secs(100_000),
        };
        let obs = unidrive_obs::Obs::with_registry(unidrive_obs::Registry::new());
        let lock = QuorumLock::new(rt, clouds, "dev-a", config, SimRng::seed_from_u64(15))
            .with_obs(obs.clone());
        assert!(matches!(
            lock.acquire(None).unwrap_err(),
            PlaneError::Contended { attempts: 8 }
        ));
        let series = obs.series_snapshot().unwrap();
        // Eight uploads, each listed eight times: every round lost.
        assert_eq!(series.merged("lock.contended").sum, 64);
        // Flagged exactly once however many rounds starve past the
        // threshold.
        assert_eq!(series.merged("lock.starved").sum, 1);
        assert_eq!(series.merged("lock.exhausted").sum, 1);
        let snap = obs.snapshot().unwrap();
        let acquire = snap.spans.iter().find(|s| s.name == "lock.acquire").unwrap();
        assert_eq!(
            acquire.attr("starved"),
            Some(&unidrive_obs::FieldValue::B(true))
        );
        assert_eq!(
            acquire.attr("rounds"),
            Some(&unidrive_obs::FieldValue::U(64))
        );
    }

    /// A lost round of a loser that is not first in line, counted on one
    /// cloud: the round, then `PROTOCOL_COSTS.lock_withdraw` calls.
    #[test]
    fn a_lost_round_costs_a_round_and_a_withdraw() {
        let sim = SimRuntime::new(16);
        let inner = mem_clouds(5);
        plant(&inner, "holder", 1);
        // Our stamp, 1 s, sorts after the holder's.
        sim.sleep(Duration::from_secs(1));
        let (clouds, doubles) =
            crate::oplog_plane::tests::counted(inner.iter().map(|(_, c)| Arc::clone(c)));
        let config = LockConfig {
            max_attempts: 1,
            stale_after: Duration::from_secs(100_000),
            ..LockConfig::default()
        };
        let rng = SimRng::seed_from_u64(17);
        let lock = QuorumLock::new(sim.as_runtime(), clouds, "dev-a", config, rng);
        assert!(matches!(
            lock.acquire(None).unwrap_err(),
            PlaneError::Contended { attempts: 1 }
        ));
        let calls = doubles[0].calls();
        assert_eq!(calls, ["upload", "list", "delete"]);
        let c = unidrive_meta::PROTOCOL_COSTS;
        assert_eq!(calls.len() as u64, c.lock_round + c.lock_withdraw);
    }

    /// A contender's lock file that it withdraws once the cloud has
    /// listed it to us: deleted from the store behind the cloud, so
    /// the counting double above it sees only our calls.
    struct Withdrawing {
        inner: Arc<dyn CloudStore>,
        leaving: Mutex<Option<String>>,
    }

    impl CloudStore for Withdrawing {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn upload(&self, path: &str, data: Bytes) -> Result<(), unidrive_cloud::CloudError> {
            self.inner.upload(path, data)
        }
        fn download(&self, path: &str) -> Result<Bytes, unidrive_cloud::CloudError> {
            self.inner.download(path)
        }
        fn create_dir(&self, path: &str) -> Result<(), unidrive_cloud::CloudError> {
            self.inner.create_dir(path)
        }
        fn list(
            &self,
            path: &str,
        ) -> Result<Vec<unidrive_cloud::ObjectInfo>, unidrive_cloud::CloudError> {
            let listing = self.inner.list(path);
            if let Some(leaving) = self.leaving.lock().take() {
                self.inner.delete(&leaving).unwrap();
            }
            listing
        }
        fn delete(&self, path: &str) -> Result<(), unidrive_cloud::CloudError> {
            self.inner.delete(path)
        }
    }

    /// A head whose contender withdraws wins on its next list, counted
    /// on one cloud: the round, then `PROTOCOL_COSTS.lock_poll` calls —
    /// no second upload, no withdraw.
    #[test]
    fn a_waiting_head_lists_without_reuploading() {
        let sim = SimRuntime::new(18);
        let inner = mem_clouds(3);
        plant(&inner, "later", LATER);
        let contender = format!("{LOCK_DIR}/{}", lock_file_name("later", LATER));
        let (clouds, doubles) = crate::oplog_plane::tests::counted(inner.iter().map(|(_, c)| {
            Arc::new(Withdrawing {
                inner: Arc::clone(c),
                leaving: Mutex::new(Some(contender.clone())),
            }) as Arc<dyn CloudStore>
        }));
        let lock = lock_on(sim.as_runtime(), clouds, "dev-a", 19);
        let guard = lock.acquire(None).expect("the head wins once the contender left");
        let calls = doubles[0].calls();
        assert_eq!(calls, ["upload", "list", "list"]);
        let c = unidrive_meta::PROTOCOL_COSTS;
        assert_eq!(calls.len() as u64, c.lock_round + c.lock_poll);
        guard.release();
    }

    /// Over zero-latency clouds a head's lists take no virtual time, so
    /// only their count bounds its wait: behind a holder that sorts
    /// after it and never releases, an acquire ends `Contended` after
    /// `max_attempts` uploads of `max_attempts` lists each.
    #[test]
    fn a_head_behind_a_holder_that_never_releases_gives_up() {
        let sim = SimRuntime::new(20);
        let inner = mem_clouds(5);
        plant(&inner, "holder", LATER);
        let (clouds, doubles) =
            crate::oplog_plane::tests::counted(inner.iter().map(|(_, c)| Arc::clone(c)));
        let lock = lock_on(sim.as_runtime(), clouds, "dev-a", 21);
        let max = LockConfig::default().max_attempts as usize;
        assert!(matches!(
            lock.acquire(None).unwrap_err(),
            PlaneError::Contended { attempts } if attempts as usize == max
        ));
        let calls = doubles[0].calls();
        let count = |op: &str| calls.iter().filter(|c| **c == op).count();
        assert_eq!((count("upload"), count("list"), count("delete")), (max, max * max, max));
    }

    /// A refresh before ΔT/2 re-stamps nothing: counted on one cloud, it
    /// calls no cloud and keeps the file's name.
    #[test]
    fn a_refresh_before_half_delta_t_makes_no_cloud_call() {
        let sim = SimRuntime::new(22);
        let (clouds, doubles) = crate::oplog_plane::tests::counted(
            mem_clouds(3).iter().map(|(_, c)| Arc::clone(c)),
        );
        let lock = lock_on(sim.clone().as_runtime(), clouds, "dev-a", 23);
        let mut guard = lock.acquire(None).unwrap();
        let name = guard.lock_name().to_owned();
        doubles[0].forget();
        sim.sleep(Duration::from_secs(59));
        guard.refresh();
        assert!(doubles[0].calls().is_empty());
        assert_eq!(guard.lock_name(), name);
        guard.release();
    }

    #[test]
    fn drop_releases_best_effort() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let clouds = mem_clouds(3);
        let lock = lock_on(rt, clouds.clone(), "dev-a", 12);
        {
            let _guard = lock.acquire(None).unwrap();
        }
        for (_, c) in clouds.iter() {
            assert!(c.list(LOCK_DIR).unwrap().is_empty());
        }
    }
}
