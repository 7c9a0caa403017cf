//! A commit names every block that landed before it was built. The
//! client drains its block sink inside the metadata transaction — under
//! the quorum lock on the lock plane, at the append on the oplog plane —
//! so the reliability blocks that land while a pass waits for the lock
//! are named by that pass's commit, and the next pass has nothing left
//! to commit. What the transaction drains and does not commit goes back
//! onto the sink, and a straggler of a collected segment drained there
//! is still deleted. Each test runs on both planes, in virtual time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unidrive::cloud::{
    CloudCaps, CloudError, CloudSet, CloudStore, ObjectInfo, SimCloud, SimCloudConfig,
};
use unidrive::core::{
    ClientConfig, DataPlaneConfig, LockConfig, MemFolder, QuorumLock, SyncFolder, UniDriveClient,
};
use unidrive::erasure::RedundancyConfig;
use unidrive::meta::{MetaMode, BLOCKS_DIR, LOCK_DIR};
use unidrive::sim::{spawn, Runtime, SimRng, SimRuntime};
use unidrive::util::bytes::Bytes;

const THETA: usize = 64 * 1024;
/// The cloud whose blocks land long after the upload is available.
const SLOW: usize = 4;

/// Shared switches and counters of one device's clouds.
#[derive(Default)]
struct Meter {
    /// Lists of the lock directory.
    lock_lists: AtomicU64,
    /// Uploads of metadata objects (anything outside the block and
    /// lock directories): a commit writes some on either plane.
    meta_uploads: AtomicU64,
    /// Seconds every metadata list waits first, while non-zero.
    list_delay_s: AtomicU64,
    /// Whether metadata uploads fail.
    fail_meta_uploads: AtomicBool,
}

/// A cloud seen through its device's [`Meter`].
struct Metered {
    inner: Arc<dyn CloudStore>,
    rt: Arc<dyn Runtime>,
    meter: Arc<Meter>,
}

fn is_meta(path: &str) -> bool {
    !path.starts_with(BLOCKS_DIR) && !path.starts_with(LOCK_DIR)
}

impl CloudStore for Metered {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        if is_meta(path) {
            self.meter.meta_uploads.fetch_add(1, Ordering::Relaxed);
            if self.meter.fail_meta_uploads.load(Ordering::Relaxed) {
                return Err(CloudError::unavailable(self.name()));
            }
        }
        self.inner.upload(path, data)
    }
    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.inner.download(path)
    }
    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.inner.create_dir(path)
    }
    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        if path.starts_with(LOCK_DIR) {
            self.meter.lock_lists.fetch_add(1, Ordering::Relaxed);
        }
        let delay = self.meter.list_delay_s.load(Ordering::Relaxed);
        if delay > 0 && !path.starts_with(BLOCKS_DIR) {
            self.rt.sleep(Duration::from_secs(delay));
        }
        self.inner.list(path)
    }
    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.inner.delete(path)
    }
    fn caps(&self) -> CloudCaps {
        self.inner.caps()
    }
}

struct Rig {
    sim: Arc<SimRuntime>,
    handles: Vec<Arc<SimCloud>>,
}

/// Five simulated clouds; cloud [`SLOW`] takes seconds per block.
fn rig(seed: u64) -> Rig {
    let sim = SimRuntime::new(seed);
    let handles = (0..5)
        .map(|i| {
            let rate = if i == SLOW { 4e3 } else { 2e6 };
            let config = SimCloudConfig::steady(rate, rate * 4.0);
            Arc::new(SimCloud::new(&sim, format!("cloud{i}"), config))
        })
        .collect();
    Rig { sim, handles }
}

fn config(device: &str, mode: MetaMode) -> ClientConfig {
    let mut config = ClientConfig::paper_default(device);
    config.data = DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), THETA);
    config.meta_mode = mode;
    config
}

/// Device `name` over the rig's clouds through one meter.
fn device(r: &Rig, name: &str, mode: MetaMode) -> (Arc<MemFolder>, UniDriveClient, Arc<Meter>) {
    let rt = r.sim.clone().as_runtime();
    let meter = Arc::new(Meter::default());
    let clouds = r.handles.iter().map(|c| {
        Arc::new(Metered {
            inner: Arc::clone(c) as Arc<dyn CloudStore>,
            rt: Arc::clone(&rt),
            meter: Arc::clone(&meter),
        }) as Arc<dyn CloudStore>
    });
    let clouds = CloudSet::new(clouds.collect());
    let folder = MemFolder::new();
    let client = UniDriveClient::new(
        rt,
        clouds,
        Arc::clone(&folder) as Arc<dyn SyncFolder>,
        config(name, mode),
        SimRng::seed_from_u64(7),
    );
    (folder, client, meter)
}

fn content(len: usize, tag: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(7) ^ tag).collect()
}

/// The clouds `client`'s image names a block of `path` on, per segment.
fn clouds_named(client: &UniDriveClient, path: &str) -> Vec<Vec<u16>> {
    let image = client.image();
    let file = image.file(path).expect("committed");
    let segments = file.snapshot.segments.iter();
    let named = segments.map(|id| {
        let mut clouds: Vec<u16> = image
            .segment(id)
            .unwrap()
            .blocks
            .iter()
            .map(|b| b.cloud)
            .collect();
        clouds.sort();
        clouds.dedup();
        clouds
    });
    named.collect()
}

/// The commit runs after the slow cloud's block landed: on the lock
/// plane because device "b" holds the lock for 30 s, on the oplog plane
/// because every metadata list takes 30 s. That commit names a block of
/// the file on every cloud, and the next pass is a poll: no lock-
/// directory list, no metadata upload.
#[test]
fn a_commit_names_the_blocks_that_landed_while_it_waited() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(31);
        let (folder, mut a, meter) = device(&r, "a", mode);
        folder.write("f", &content(40_000, 1), 1).unwrap();
        let rt = r.sim.clone().as_runtime();
        let b = QuorumLock::new(
            Arc::clone(&rt),
            CloudSet::new(
                r.handles
                    .iter()
                    .map(|c| Arc::clone(c) as Arc<dyn CloudStore>)
                    .collect(),
            ),
            "b",
            LockConfig::default(),
            SimRng::seed_from_u64(2),
        );
        let held = (mode == MetaMode::Lock).then(|| b.acquire(None).expect("b takes the lock"));
        if mode == MetaMode::Oplog {
            meter.list_delay_s.store(30, Ordering::Relaxed);
        }
        let pass = spawn(&rt, "a", move || {
            let report = a.sync_once();
            (a, report)
        });
        r.sim.sleep(Duration::from_secs(30));
        drop(held);
        let (mut a, report) = pass.join();
        assert_eq!(report.unwrap().uploaded, vec!["f"], "{mode}");
        meter.list_delay_s.store(0, Ordering::Relaxed);
        assert_eq!(clouds_named(&a, "f"), vec![vec![0, 1, 2, 3, 4]], "{mode}");

        let (lists, uploads) = (
            meter.lock_lists.load(Ordering::Relaxed),
            meter.meta_uploads.load(Ordering::Relaxed),
        );
        assert!(a.sync_once().unwrap().is_noop(), "{mode}");
        assert_eq!(
            meter.lock_lists.load(Ordering::Relaxed),
            lists,
            "{mode}: the next pass listed the lock directory"
        );
        assert_eq!(
            meter.meta_uploads.load(Ordering::Relaxed),
            uploads,
            "{mode}: the next pass committed"
        );
        assert_eq!(a.data_plane().audit(a.image()).unnamed, vec![], "{mode}");
    }
}

/// The transaction drains the slow cloud's block and then fails its
/// quorum write (every metadata upload refused, so no cloud keeps a
/// record of it). The drained placement goes back onto the sink: the
/// retry, which runs with the slow cloud down and so cannot place that
/// block again, names it. (On the oplog plane the failed op itself
/// also carries it: the retry uploads it first.)
#[test]
fn a_failed_quorum_write_puts_what_it_drained_back_on_the_sink() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(32);
        let (folder, mut a, meter) = device(&r, "a", mode);
        folder.write("f", &content(40_000, 2), 1).unwrap();
        // The slow cloud's block lands during the 30 s lists; then every
        // metadata upload fails.
        meter.list_delay_s.store(30, Ordering::Relaxed);
        meter.fail_meta_uploads.store(true, Ordering::Relaxed);
        assert!(a.sync_once().is_err(), "{mode}: the quorum write must fail");
        meter.list_delay_s.store(0, Ordering::Relaxed);
        meter.fail_meta_uploads.store(false, Ordering::Relaxed);

        r.handles[SLOW].set_available(false);
        assert_eq!(a.sync_once().unwrap().uploaded, vec!["f"], "{mode}");
        r.handles[SLOW].set_available(true);
        assert!(
            clouds_named(&a, "f")[0].contains(&(SLOW as u16)),
            "{mode}: the block the failed transaction drained is unnamed"
        );
        assert_eq!(a.data_plane().audit(a.image()).unnamed, vec![], "{mode}");
    }
}

/// `f`'s slow block is still uploading when `f` is deleted and its
/// segment collected. It lands on the sink, and the transaction of a
/// later pass that commits `g` drains it: the segment is pooled nowhere,
/// so the pass deletes the block.
#[test]
fn a_straggler_drained_in_the_transaction_is_still_deleted() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(33);
        let (folder, mut a, _meter) = device(&r, "a", mode);
        folder.write("f", &content(40_000, 3), 1).unwrap();
        assert_eq!(a.sync_once().unwrap().uploaded, vec!["f"], "{mode}");
        assert!(
            !clouds_named(&a, "f")[0].contains(&(SLOW as u16)),
            "{mode}: test premise: the slow block lands after the first commit"
        );
        folder.remove("f").unwrap();
        assert_eq!(a.sync_once().unwrap().deleted_remotely, vec!["f"], "{mode}");
        let stored = || {
            let objects = r.handles[SLOW]
                .backing()
                .list(BLOCKS_DIR)
                .unwrap_or_default();
            objects.into_iter().map(|o| o.name).collect::<Vec<_>>()
        };

        r.sim.sleep(Duration::from_secs(60));
        let straggler = stored();
        assert_eq!(
            straggler.len(),
            1,
            "{mode}: test premise: the straggler landed"
        );
        folder.write("g", &content(40_000, 4), 1).unwrap();
        assert_eq!(a.sync_once().unwrap().uploaded, vec!["g"], "{mode}");
        assert!(
            !stored().contains(&straggler[0]),
            "{mode}: the straggler of the collected segment is still stored"
        );
    }
}
