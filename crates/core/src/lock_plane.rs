//! [`LockPlane`]: the paper's metadata plane (§5.2) behind the
//! [`MetaPlane`] trait — quorum lock around every commit, version-file
//! fast path, delta-sync with λ compaction. This is the original
//! control flow of `UniDriveClient`; cloud traffic, span names and
//! attributes are what they were before the trait existed.

use std::sync::Arc;

use unidrive_cloud::CloudSet;
use unidrive_meta::{DeltaLog, MergeFn, MetaPlane, PlaneError, SyncFolderImage};
use unidrive_obs::{Obs, SpanId};
use unidrive_sim::{Runtime, SimRng};

use crate::client::ClientConfig;
use crate::control::{newer, MetadataStore, RemoteState};
use crate::lock::QuorumLock;

/// The paper's metadata plane: quorum lock around every commit of the
/// DES-encrypted base + delta + version files (paper §5.2).
pub struct LockPlane {
    store: MetadataStore,
    lock: QuorumLock,
    obs: Obs,
    device: String,
    delta_ratio: f64,
    delta_floor: usize,
    /// The remote delta log and encrypted-base size as of the last
    /// read/commit; valid while no cloud shows a version newer than the
    /// caller's current one (lets a commit skip re-downloading
    /// metadata).
    cached: Option<(DeltaLog, usize)>,
}

impl std::fmt::Debug for LockPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockPlane").field("device", &self.device).finish()
    }
}

impl LockPlane {
    /// Creates the lock plane for `config.device` over `clouds`.
    pub fn new(rt: Arc<dyn Runtime>, clouds: CloudSet, config: &ClientConfig, rng: SimRng) -> Self {
        let obs = config.data.obs.clone();
        let store = MetadataStore::new(
            Arc::clone(&rt),
            clouds.clone(),
            &config.passphrase,
            config.data.retry.clone(),
        );
        let lock = QuorumLock::new(rt, clouds, config.device.as_str(), config.lock.clone(), rng)
            .with_obs(obs.clone());
        LockPlane {
            store,
            lock,
            obs,
            device: config.device.clone(),
            delta_ratio: config.delta_ratio,
            delta_floor: config.delta_floor,
            cached: None,
        }
    }
}

impl MetaPlane for LockPlane {
    fn poll(
        &mut self,
        current: &SyncFolderImage,
        round: Option<SpanId>,
    ) -> Result<Option<SyncFolderImage>, PlaneError> {
        let mut read_span = self.obs.span("meta.read", round);
        read_span.attr_str("device", self.device.as_str());
        let Some(newest) = self.store.read_version().filter(|n| newer(&n.stamp, &current.version)) else {
            read_span.attr_bool("cached", true);
            return Ok(None);
        };
        read_span.attr_bool("cached", false);
        let remote = self.store.read_remote(&newest);
        read_span.end();
        let RemoteState {
            image,
            delta,
            base_bytes,
        } = remote?;
        self.cached = Some((delta, base_bytes));
        Ok(Some(image))
    }

    fn transact(
        &mut self,
        current: &SyncFolderImage,
        round: Option<SpanId>,
        build: &mut MergeFn<'_>,
    ) -> Result<Option<SyncFolderImage>, PlaneError> {
        let mut guard = self.lock.acquire(round)?;
        // Fast path: the tiny version file tells us whether a cloud
        // update exists at all; if not, the cached delta from our last
        // read/commit is current and the base + delta downloads are
        // skipped entirely (the point of the version-file design, §5.2).
        let mut read_span = self.obs.span("meta.read", round);
        read_span.attr_str("device", self.device.as_str());
        // The stamp read under the lock is the one to read up to, and
        // only a newer one than ours: a client never merges onto an
        // image older than its own (a rolled-back quorum shows one).
        let remote = match self.store.read_version().filter(|n| newer(&n.stamp, &current.version)) {
            None => {
                read_span.attr_bool("cached", true);
                self.cached.clone().map(|(delta, base_bytes)| RemoteState {
                    image: current.clone(),
                    delta,
                    base_bytes,
                })
            }
            Some(newest) => {
                read_span.attr_bool("cached", false);
                Some(self.store.read_remote(&newest)?)
            }
        };
        read_span.end();
        let Some((to_commit, stamp)) = build(remote.as_ref().map(|s| &s.image)) else {
            guard.release();
            return Ok(None);
        };

        // Delta-sync: append the records to the stored delta; compact
        // into a new base when past λ.
        let (new_base, delta) = match &remote {
            Some(state) => {
                let mut delta = state.delta.clone();
                delta.append(
                    DeltaLog::records_for(&state.image, &to_commit),
                    stamp.clone(),
                );
                if delta.should_compact(state.base_bytes, self.delta_ratio, self.delta_floor) {
                    (Some(&to_commit), DeltaLog::new(stamp.clone()))
                } else {
                    (None, delta)
                }
            }
            None => (Some(&to_commit), DeltaLog::new(stamp.clone())),
        };
        guard.refresh();
        let mut commit_span = self.obs.span("meta.commit", round);
        commit_span.attr_str("device", self.device.as_str());
        commit_span.attr_bool("compacted", new_base.is_some());
        let committed_meta = self.store.write_remote(new_base, &delta, &stamp);
        commit_span.end();
        let written_base = committed_meta?;
        guard.release();
        let base_bytes = written_base
            .or(remote.as_ref().map(|state| state.base_bytes))
            .unwrap_or(0);
        self.cached = Some((delta, base_bytes));
        Ok(Some(to_commit))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::build_plane;
    use crate::oplog_plane::tests::counted;
    use unidrive_cloud::{ChaosCloud, CloudStore, FaultEvent, FaultKind, FaultPlan, MemCloud, RetryPolicy};
    use unidrive_crypto::Sha1;
    use unidrive_meta::{MetaMode, Snapshot, VersionStamp, OPLOG_DIR, PROTOCOL_COSTS, ROOT_DIR, VERSION_PATH};
    use unidrive_sim::{RealRuntime, SimRuntime};

    // The helpers below are shared with the oplog plane's tests.

    pub(crate) fn clouds(n: usize) -> CloudSet {
        CloudSet::new(
            (0..n)
                .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                .collect(),
        )
    }

    /// The paper defaults with the tests' passphrase, no cloud-call
    /// retries, and λ's floor at `floor` bytes.
    pub(crate) fn config(device: &str, floor: usize) -> ClientConfig {
        let mut config = ClientConfig::paper_default(device);
        config.passphrase = "test-passphrase".into();
        config.data.retry = RetryPolicy::no_retries();
        config.delta_floor = floor;
        config
    }

    pub(crate) fn plane(
        mode: MetaMode,
        clouds: CloudSet,
        device: &str,
        seed: u64,
    ) -> Box<dyn MetaPlane> {
        let mut config = config(device, 10 * 1024);
        config.meta_mode = mode;
        build_plane(
            Arc::new(RealRuntime::new()),
            clouds,
            &config,
            SimRng::seed_from_u64(seed),
        )
    }

    pub(crate) fn commit_file(
        plane: &mut dyn MetaPlane,
        current: &SyncFolderImage,
        device: &str,
        path: &str,
        counter: u64,
    ) -> SyncFolderImage {
        try_commit_file(plane, current, device, path, counter)
            .expect("transact")
            .expect("committed")
    }

    /// [`commit_file`], returning what the transaction returned.
    pub(crate) fn try_commit_file(
        plane: &mut dyn MetaPlane,
        current: &SyncFolderImage,
        device: &str,
        path: &str,
        counter: u64,
    ) -> Result<Option<SyncFolderImage>, PlaneError> {
        let stamp = VersionStamp {
            device: device.to_owned(),
            counter,
            timestamp_ns: counter,
        };
        plane
            .transact(current, None, &mut |remote| {
                let mut img = remote.cloned().unwrap_or_else(SyncFolderImage::new);
                let seg = unidrive_meta::SegmentId(Sha1::digest(path.as_bytes()));
                img.ensure_segment(seg, 3);
                img.upsert_file(
                    path,
                    Snapshot {
                        segments: vec![seg],
                    },
                );
                img.version = stamp.clone();
                Some((img, stamp.clone()))
            })
    }

    #[test]
    fn both_modes_round_trip_a_commit() {
        for mode in [MetaMode::Lock, MetaMode::Oplog] {
            let set = clouds(5);
            let mut writer = plane(mode, set.clone(), "dev-a", 1);
            let committed = commit_file(writer.as_mut(), &SyncFolderImage::new(), "dev-a", "f.txt", 1);
            assert!(committed.file("f.txt").is_some(), "{mode}: file committed");

            let mut reader = plane(mode, set, "dev-b", 2);
            let polled = reader
                .poll(&SyncFolderImage::new(), None)
                .expect("poll")
                .expect("update visible");
            assert!(polled.file("f.txt").is_some(), "{mode}: file visible");
            // A second poll from the new state is a no-op.
            assert!(reader.poll(&polled, None).expect("poll").is_none());
        }
    }

    /// A commit under a won lock, counted on one cloud: the round, then
    /// `PROTOCOL_COSTS.lock_commit` calls. The hold is younger than ΔT/2,
    /// so its refresh calls no cloud.
    #[test]
    fn a_won_commit_costs_a_round_and_a_commit() {
        let (set, doubles) = counted(clouds(3).iter().map(|(_, c)| Arc::clone(c)));
        let mut p = plane(MetaMode::Lock, set, "dev-a", 1);
        let first = commit_file(p.as_mut(), &SyncFolderImage::new(), "dev-a", "a.txt", 1);
        doubles[0].forget();
        commit_file(p.as_mut(), &first, "dev-a", "b.txt", 2);
        let calls = doubles[0].calls();
        let round = PROTOCOL_COSTS.lock_round as usize;
        assert_eq!(calls[..round], ["upload", "list"]); // lock file, lock directory
        assert_eq!(
            calls[round..],
            [
                "download", // version file
                "upload",   // delta
                "upload",   // version file
                "delete",   // lock file, released
            ]
        );
        assert_eq!(calls.len() as u64, PROTOCOL_COSTS.lock_round + PROTOCOL_COSTS.lock_commit);
    }

    /// A read of a changed version downloads each cloud's version file
    /// once, in a poll and in a commit: the stamp the plane read is the
    /// one it reads up to.
    #[test]
    fn a_changed_version_is_downloaded_once_per_cloud() {
        let set = clouds(3);
        let mut writer = plane(MetaMode::Lock, set.clone(), "dev-a", 1);
        let (reader_set, doubles) = counted(set.iter().map(|(_, c)| Arc::clone(c)));
        let mut reader = plane(MetaMode::Lock, reader_set, "dev-b", 2);
        let version_reads = || {
            let reads: Vec<usize> = doubles.iter().map(|c| c.downloads_of(VERSION_PATH)).collect();
            doubles.iter().for_each(|c| c.forget());
            reads
        };

        let first = commit_file(writer.as_mut(), &SyncFolderImage::new(), "dev-a", "a.txt", 1);
        let polled = reader.poll(&SyncFolderImage::new(), None).expect("poll").expect("changed");
        assert_eq!(version_reads(), [1; 3], "a changed poll");

        commit_file(writer.as_mut(), &first, "dev-a", "b.txt", 2);
        let committed = commit_file(reader.as_mut(), &polled, "dev-b", "c.txt", 3);
        assert_eq!(version_reads(), [1; 3], "a commit over another device's");
        assert!(committed.file("b.txt").is_some());
    }

    /// Every cloud serves both planes' metadata as it stood after
    /// `first` (a rollback window opens at 10 s on all five), and then
    /// the plane commits `second`. Neither a poll nor the merge of the
    /// next commit is handed an image older than `second`.
    fn a_rollback_of_every_cloud_never_hands_back_an_older_image(mode: MetaMode) {
        let sim = SimRuntime::new(5);
        let rt = sim.clone().as_runtime();
        let prefixes = vec![format!("{ROOT_DIR}/meta."), format!("{OPLOG_DIR}/")];
        let rollback = |i| FaultEvent::always(format!("c{i}"), FaultKind::Rollback { prefixes: prefixes.clone() });
        let plan = FaultPlan::with_events(1, (0..5).map(|i| rollback(i).window_secs(10, 100)).collect());
        let chaos = (0..5).map(|i| {
            let cloud = Arc::new(MemCloud::new(format!("c{i}")));
            Arc::new(ChaosCloud::new(cloud, Arc::clone(&rt), &plan)) as Arc<dyn CloudStore>
        });
        let mut config = config("dev-a", 10 * 1024);
        config.meta_mode = mode;
        let mut p = build_plane(Arc::clone(&rt), CloudSet::new(chaos.collect()), &config, SimRng::seed_from_u64(1));
        let first = commit_file(p.as_mut(), &SyncFolderImage::new(), "dev-a", "a.txt", 1);
        sim.sleep(std::time::Duration::from_secs(11));
        let second = commit_file(p.as_mut(), &first, "dev-a", "b.txt", 2);
        let older = |version: &VersionStamp| newer(&second.version, version);
        let polled = p.poll(&second, None).expect("poll");
        assert!(polled.is_none_or(|image| !older(&image.version)), "{mode}: poll");
        let mut handed = None;
        p.transact(&second, None, &mut |remote| {
            handed = remote.map(|image| image.version.clone());
            None
        })
        .expect("transact");
        assert!(handed.as_ref().is_none_or(|v| !older(v)), "{mode}: build was handed {handed:?}");
    }

    #[test]
    fn a_lock_plane_never_merges_onto_an_image_older_than_its_own() {
        a_rollback_of_every_cloud_never_hands_back_an_older_image(MetaMode::Lock);
    }

    #[test]
    fn an_oplog_plane_never_merges_onto_an_image_older_than_its_own() {
        a_rollback_of_every_cloud_never_hands_back_an_older_image(MetaMode::Oplog);
    }
}
