//! A collected segment is collected once. The commit that drops a
//! segment's last reference deletes its blocks and says so in the log
//! (`DeltaRecord::DropSegment`), so no image read from the clouds names
//! the segment again and no later commit deletes its blocks again — on
//! either metadata plane, whether or not the later committer had seen
//! the segment. Content written back on the very next pass gets fresh
//! blocks at the collected object paths, and keeps them. And GC can
//! find every block a device stored: its image names each one, even
//! those its detached uploads land while a pass is still committing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use unidrive::cloud::{
    CloudCaps, CloudError, CloudSet, CloudStore, MemCloud, ObjectInfo, SimCloud, SimCloudConfig,
};
use unidrive::core::{ClientConfig, DataPlaneConfig, MemFolder, SyncFolder, UniDriveClient};
use unidrive::crypto::MetadataCipher;
use unidrive::erasure::RedundancyConfig;
use unidrive::meta::{
    block_path, MetaMode, OplogBase, SegmentEntry, SegmentId, SyncFolderImage, BLOCKS_DIR,
    OPLOG_BASE_PATH,
};
use unidrive::sim::{RealRuntime, Runtime, SimRng, SimRuntime};
use unidrive::util::bytes::Bytes;

const THETA: usize = 64 * 1024;

/// Counts the block objects deleted through it.
struct DeleteMeter {
    inner: Arc<dyn CloudStore>,
    block_deletes: Arc<AtomicU64>,
}

impl CloudStore for DeleteMeter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        self.inner.upload(path, data)
    }
    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.inner.download(path)
    }
    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.inner.create_dir(path)
    }
    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        self.inner.list(path)
    }
    fn delete(&self, path: &str) -> Result<(), CloudError> {
        if path.starts_with(BLOCKS_DIR) {
            self.block_deletes.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.delete(path)
    }
    fn caps(&self) -> CloudCaps {
        self.inner.caps()
    }
}

/// Sleeps a fixed delay on the wall clock before each upload it passes
/// on, so that detached uploads are still landing while the pass that
/// started them builds its commit.
struct SlowUploads {
    inner: Arc<MemCloud>,
    delay: Duration,
}

impl CloudStore for SlowUploads {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        std::thread::sleep(self.delay);
        self.inner.upload(path, data)
    }
    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.inner.download(path)
    }
    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.inner.create_dir(path)
    }
    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        self.inner.list(path)
    }
    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.inner.delete(path)
    }
    fn caps(&self) -> CloudCaps {
        self.inner.caps()
    }
}

/// One device over the shared clouds, with its own delete meter.
struct Device {
    folder: Arc<MemFolder>,
    client: UniDriveClient,
    block_deletes: Arc<AtomicU64>,
}

fn config(device: &str, mode: MetaMode) -> ClientConfig {
    let mut config = ClientConfig::paper_default(device);
    config.data = DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), THETA);
    config.meta_mode = mode;
    if mode == MetaMode::Oplog {
        // λ = 0: every append compacts, so each commit below writes a
        // new base.
        config.delta_ratio = 0.0;
        config.delta_floor = 0;
    }
    config
}

fn device(clouds: &[Arc<MemCloud>], name: &str, mode: MetaMode, seed: u64) -> Device {
    let block_deletes = Arc::new(AtomicU64::new(0));
    let metered = clouds
        .iter()
        .map(|c| {
            Arc::new(DeleteMeter {
                inner: Arc::clone(c) as Arc<dyn CloudStore>,
                block_deletes: Arc::clone(&block_deletes),
            }) as Arc<dyn CloudStore>
        })
        .collect();
    let folder = MemFolder::new();
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    let client = UniDriveClient::new(
        rt,
        CloudSet::new(metered),
        Arc::clone(&folder) as Arc<dyn SyncFolder>,
        config(name, mode),
        SimRng::seed_from_u64(seed),
    );
    Device {
        folder,
        client,
        block_deletes,
    }
}

impl Device {
    fn deletes(&self) -> u64 {
        self.block_deletes.load(Ordering::Relaxed)
    }
}

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn pool(image: &SyncFolderImage) -> Vec<(SegmentId, SegmentEntry)> {
    image.segments().map(|(id, e)| (*id, e.clone())).collect()
}

/// The `(cloud, path)` of every block object `image` names for
/// `segments`, sorted.
fn named_objects(image: &SyncFolderImage, segments: &[SegmentId]) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = segments
        .iter()
        .flat_map(|id| {
            let entry = image.segment(id).expect("pooled");
            let blocks = entry.blocks.iter();
            blocks.map(move |b| (b.cloud as usize, block_path(id, b.index)))
        })
        .collect();
    out.sort();
    out
}

/// Five simulated clouds named `cloud0..4`.
fn sim_clouds(sim: &Arc<SimRuntime>) -> Vec<Arc<SimCloud>> {
    let steady = SimCloudConfig::steady(2e6, 8e6);
    (0..5)
        .map(|i| Arc::new(SimCloud::new(sim, format!("cloud{i}"), steady.clone())))
        .collect()
}

/// One device over the simulated clouds.
fn sim_device(
    sim: &Arc<SimRuntime>,
    handles: &[Arc<SimCloud>],
    name: &str,
    mode: MetaMode,
    seed: u64,
) -> (Arc<MemFolder>, UniDriveClient) {
    let clouds = handles.iter().map(|c| Arc::clone(c) as Arc<dyn CloudStore>);
    let folder = MemFolder::new();
    let client = UniDriveClient::new(
        sim.clone().as_runtime(),
        CloudSet::new(clouds.collect()),
        Arc::clone(&folder) as Arc<dyn SyncFolder>,
        config(name, mode),
        SimRng::seed_from_u64(seed),
    );
    (folder, client)
}

/// Lets the detached reliability uploads land, then commits their
/// placements, so `client`'s image names every block it stored.
fn settle(sim: &Arc<SimRuntime>, client: &mut UniDriveClient) {
    sim.sleep(Duration::from_secs(60));
    client.sync_once().unwrap();
    assert!(client.sync_once().unwrap().is_noop());
}

/// The oplog base cloud 0 holds, decrypted.
fn stored_base(cloud: &MemCloud, mode: MetaMode) -> OplogBase {
    let cipher = MetadataCipher::from_passphrase(&config("any", mode).passphrase);
    let ct = cloud.download(OPLOG_BASE_PATH).expect("a compaction wrote a base");
    OplogBase::decode(&cipher.decrypt(&ct).unwrap()).unwrap()
}

#[test]
fn a_collected_segment_is_deleted_once_on_both_planes() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        for b_saw_f in [false, true] {
            let case = format!("{mode:?}, B saw F: {b_saw_f}");
            let clouds: Vec<Arc<MemCloud>> =
                (0..5).map(|i| Arc::new(MemCloud::new(format!("c{i}")))).collect();
            let mut a = device(&clouds, "a", mode, 1);
            let mut b = device(&clouds, "b", mode, 2);

            a.folder.write("f.bin", &random_bytes(3 * THETA, 7), 1).unwrap();
            a.client.sync_once().unwrap();
            let f_segments: Vec<SegmentId> =
                a.client.image().file("f.bin").unwrap().snapshot.segments.clone();
            if b_saw_f {
                assert_eq!(b.client.sync_once().unwrap().downloaded, vec!["f.bin"], "{case}");
            }

            a.folder.remove("f.bin").unwrap();
            let before = a.deletes();
            a.client.sync_once().unwrap();
            assert!(a.deletes() > before, "{case}: the delete's commit collects F");
            let base_after_delete = (mode == MetaMode::Oplog).then(|| stored_base(&clouds[0], mode));

            b.folder.write("g.bin", &random_bytes(THETA / 2, 8), 1).unwrap();
            let report = b.client.sync_once().unwrap();
            assert_eq!(report.uploaded, vec!["g.bin"], "{case}");
            assert_eq!(b.deletes(), 0, "{case}: B's commit collected nothing");

            // A fresh reader polls the pool the committer holds, with no
            // dead entry in it.
            let mut c = device(&clouds, "c", mode, 3);
            c.client.sync_once().unwrap();
            assert_eq!(pool(c.client.image()), pool(b.client.image()), "{case}");
            let live = b.client.image().referenced();
            for (id, _) in pool(b.client.image()) {
                assert!(live.contains(&id), "{case}: {id} pooled unreferenced");
                assert!(!f_segments.contains(&id), "{case}: F's segment {id} pooled");
            }

            if let Some(first) = base_after_delete {
                let second = stored_base(&clouds[0], mode);
                assert_ne!(second, first, "{case}: B's commit compacted again");
                for id in &f_segments {
                    assert!(first.image.segment(id).is_none(), "{case}: {id} in base");
                    assert!(second.image.segment(id).is_none(), "{case}: {id} in base");
                }
            }
        }
    }
}

/// A file removed and written back byte-identical on the next pass gets
/// fresh blocks at the object paths its collected segments had. The
/// old blocks were deleted before that pass uploads, so the new ones
/// must all still be stored.
#[test]
fn collected_content_comes_back_on_the_very_next_pass() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let sim = SimRuntime::new(6);
        let handles = sim_clouds(&sim);
        let (folder_a, mut a) = sim_device(&sim, &handles, "a", mode, 1);
        let (folder_b, mut b) = sim_device(&sim, &handles, "b", mode, 2);
        let f = random_bytes(3 * THETA, 9);
        folder_a.write("f.bin", &f, 1).unwrap();
        a.sync_once().unwrap();
        settle(&sim, &mut a);
        let f_segments = a.image().file("f.bin").unwrap().snapshot.segments.clone();
        let old = named_objects(a.image(), &f_segments);

        folder_a.remove("f.bin").unwrap();
        assert_eq!(a.sync_once().unwrap().deleted_remotely, vec!["f.bin"], "{mode:?}");
        folder_a.write("f.bin", &f, 2).unwrap();
        assert_eq!(a.sync_once().unwrap().uploaded, vec!["f.bin"], "{mode:?}");

        let named = named_objects(a.image(), &f_segments);
        assert!(
            named.iter().any(|o| old.contains(o)),
            "{mode:?}: no fresh block reuses a collected object path"
        );
        for (cloud, path) in &named {
            let exists = handles[*cloud].exists(path).unwrap();
            assert!(exists, "{mode:?}: {path} named but deleted");
        }
        assert_eq!(b.sync_once().unwrap().downloaded, vec!["f.bin"], "{mode:?}");
        assert_eq!(folder_b.read("f.bin").unwrap().to_vec(), f, "{mode:?}");
    }
}

/// On the wall clock, blocks go on landing after a pass saw its files
/// available, some of them before the pass drains the sink. Each pass
/// rewrites 60 small files; once the detached uploads have landed and
/// the device has synced until idle, every block object is named.
#[test]
fn every_block_a_wall_clock_device_stores_is_named_on_both_planes() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let stores: Vec<Arc<MemCloud>> =
            (0..5).map(|i| Arc::new(MemCloud::new(format!("c{i}")))).collect();
        let slow = stores.iter().map(|store| {
            let delay = Duration::from_micros(200);
            Arc::new(SlowUploads { inner: Arc::clone(store), delay }) as Arc<dyn CloudStore>
        });
        let folder = MemFolder::new();
        let mut client = UniDriveClient::new(
            Arc::new(RealRuntime::new()),
            CloudSet::new(slow.collect()),
            Arc::clone(&folder) as Arc<dyn SyncFolder>,
            config("a", mode),
            SimRng::seed_from_u64(1),
        );
        for pass in 0..10 {
            for i in 0..60 {
                let data = random_bytes(1024 + (i * 389) % 4096, (pass * 60 + i) as u64);
                folder.write(&format!("f{i}"), &data, pass as u64 + 1).unwrap();
            }
            client.sync_once().unwrap();
        }

        // Settle: a noop pass over a fully named pool. A block that
        // lands unnamed only delays this; one that stays unnamed leaked.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let idle = client.sync_once().unwrap().is_noop();
            let unnamed = client.data_plane().audit(client.image()).unnamed;
            if idle && unnamed.is_empty() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{mode:?}: {} block objects unnamed after settling: {unnamed:?}",
                unnamed.len()
            );
        }
    }
}
