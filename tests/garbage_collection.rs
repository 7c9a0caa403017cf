//! A collected segment is collected once. The commit that drops a
//! segment's last reference deletes its blocks and says so in the log
//! (`DeltaRecord::DropSegment`), so no image read from the clouds names
//! the segment again and no later commit deletes its blocks again — on
//! either metadata plane, whether or not the later committer had seen
//! the segment. Content written back on the very next pass gets fresh
//! blocks at the collected object paths, and keeps them. And GC can
//! find every block a device stored: its image names each one, even
//! those its detached uploads land while a pass is still committing.
//! A pack of small files' segments lives while one of its members does,
//! and goes, once, with the last.

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
#[derive(Clone)]
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

/// One device over the simulated clouds, each behind the delete meter
/// the returned counter reads.
fn metered_sim_device(
    sim: &Arc<SimRuntime>,
    handles: &[Arc<SimCloud>],
    name: &str,
    mode: MetaMode,
    seed: u64,
) -> (Arc<MemFolder>, UniDriveClient, Arc<AtomicU64>) {
    let block_deletes = Arc::new(AtomicU64::new(0));
    let metered = handles.iter().map(|c| {
        let inner = Arc::clone(c) as Arc<dyn CloudStore>;
        Arc::new(DeleteMeter { inner, block_deletes: Arc::clone(&block_deletes) }) as Arc<dyn CloudStore>
    });
    let folder = MemFolder::new();
    let client = UniDriveClient::new(
        sim.clone().as_runtime(),
        CloudSet::new(metered.collect()),
        Arc::clone(&folder) as Arc<dyn SyncFolder>,
        config(name, mode),
        SimRng::seed_from_u64(seed),
    );
    (folder, client, block_deletes)
}

/// Runs idle passes ΔT apart until the scrub has acted twice, so that
/// whatever two of its audits agree on has been acted on.
fn scrub_twice(sim: &Arc<SimRuntime>, client: &mut UniDriveClient) {
    for _ in 0..3 {
        sim.sleep(config("any", MetaMode::Lock).lock.stale_after);
        client.sync_once().unwrap();
    }
}

/// Block bytes the clouds store, over every cloud.
fn stored_block_bytes(handles: &[Arc<SimCloud>]) -> u64 {
    let listed = handles.iter().flat_map(|c| c.list(BLOCKS_DIR).unwrap_or_default());
    listed.map(|o| o.size).sum()
}

/// The small files of one pass: `count` files under θ/64 = 1 KiB,
/// sized so that they fill packs (at most θ/32 = 2 KiB) four at a time.
fn small_files(count: usize, seed: u64) -> Vec<(String, Vec<u8>)> {
    let file = |i: usize| (format!("s/f{i:02}"), random_bytes(400 + 20 * (i % 4), seed + i as u64));
    (0..count).map(file).collect()
}

/// A pack's blocks stay while one member is live, and its last
/// member's delete deletes them exactly once, on every cloud. A member stores no block
/// of its own: the audit finds nothing short, missing or unnamed for
/// it, and the scrub adopts nothing for it.
#[test]
fn a_pack_lives_until_its_last_member_and_goes_once_on_both_planes() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let sim = SimRuntime::new(11);
        let handles = sim_clouds(&sim);
        let (folder_a, mut a, a_deletes) = metered_sim_device(&sim, &handles, "a", mode, 1);
        let (folder_b, mut b, b_deletes) = metered_sim_device(&sim, &handles, "b", mode, 2);
        // One pack whose last member holds most of its bytes, so that it
        // stays dense when the other three go.
        let sizes = [150, 150, 150, 1000];
        let files: Vec<(String, Vec<u8>)> = (0..4)
            .map(|i| (format!("s/f{i:02}"), random_bytes(sizes[i], 100 + i as u64)))
            .collect();
        for (path, data) in &files {
            folder_a.write(path, data, 1).unwrap();
        }
        a.sync_once().unwrap();
        settle(&sim, &mut a);
        assert_eq!(b.sync_once().unwrap().downloaded.len(), 4, "{mode:?}");
        let member = |image: &SyncFolderImage, path: &str| image.file(path).unwrap().snapshot.segments[0];
        let (pack, _) = a.image().segment(&member(a.image(), "s/f00")).unwrap().packed.expect("packed");
        let pack_objects = named_objects(a.image(), &[pack]);
        assert_eq!(pack_objects.len(), 5, "{mode:?}: a pack gets its normal blocks, no extra");

        for (path, _) in &files[..3] {
            folder_a.remove(path).unwrap();
        }
        a.sync_once().unwrap();
        assert_eq!(a_deletes.load(Ordering::Relaxed), 0, "{mode:?}: a live member keeps its pack");
        scrub_twice(&sim, &mut a);
        let last = member(a.image(), "s/f03");
        let entry = a.image().segment(&last).unwrap();
        assert_eq!(entry.packed.map(|(p, _)| p), Some(pack), "{mode:?}: the scrub re-stored a member");
        let audit = a.data_plane().audit(a.image());
        assert_eq!(audit, Default::default(), "{mode:?}");
        for (cloud, path) in &pack_objects {
            assert!(handles[*cloud].exists(path).unwrap(), "{mode:?}: {path} deleted");
        }
        b.sync_once().unwrap();
        assert_eq!(folder_b.read("s/f03").unwrap().to_vec(), files[3].1, "{mode:?}");

        folder_a.remove("s/f03").unwrap();
        a.sync_once().unwrap();
        assert_eq!(a_deletes.load(Ordering::Relaxed), 5, "{mode:?}: the last member takes the pack");
        for (cloud, path) in &pack_objects {
            assert!(!handles[*cloud].exists(path).unwrap(), "{mode:?}: {path} kept");
        }
        b.sync_once().unwrap();
        a.sync_once().unwrap();
        scrub_twice(&sim, &mut b);
        assert_eq!(b_deletes.load(Ordering::Relaxed), 0, "{mode:?}: a second delete");
        assert_eq!(a_deletes.load(Ordering::Relaxed), 5, "{mode:?}: a second delete");
        assert!(b.image().segment(&pack).is_none() && a.image().segment(&pack).is_none(), "{mode:?}");
    }
}

/// Files of mixed lifetimes: three packs of four lose three members
/// each, so each is sparse (live members hold less than half its
/// bytes). The idle pass's scrub moves the three survivors into one
/// fresh pack and the old packs go. Prints the worst stored bytes per
/// live byte along the way and the read amplification of one file read
/// out of a full pack.
#[test]
fn sparse_packs_are_repacked_and_their_cost_is_reported() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let sim = SimRuntime::new(12);
        let handles = sim_clouds(&sim);
        let (folder_a, mut a, a_deletes) = metered_sim_device(&sim, &handles, "a", mode, 1);
        let files = small_files(12, 200);
        for (path, data) in &files {
            folder_a.write(path, data, 1).unwrap();
        }
        a.sync_once().unwrap();
        settle(&sim, &mut a);
        let live_bytes = |keep: &dyn Fn(usize) -> bool| -> u64 {
            files.iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, (_, d))| d.len() as u64).sum()
        };
        let member = |image: &SyncFolderImage, path: &str| image.file(path).unwrap().snapshot.segments[0];
        let packs: Vec<SegmentId> = (0..3)
            .map(|p| a.image().segment(&member(a.image(), &files[4 * p].0)).unwrap().packed.unwrap().0)
            .collect();
        let mut worst_stored = stored_block_bytes(&handles) as f64 / live_bytes(&|_| true) as f64;

        // Read amplification: one file read out of a full pack.
        let before: u64 = handles.iter().map(|c| c.traffic().downloaded_bytes).sum();
        let read = a.data_plane().download_file(a.image(), &files[0].0).unwrap();
        assert_eq!(read[..], files[0].1[..], "{mode:?}");
        let fetched: u64 = handles.iter().map(|c| c.traffic().downloaded_bytes).sum::<u64>() - before;
        let amplification = fetched as f64 / files[0].1.len() as f64;

        let survivor = |i: usize| i % 4 == 3;
        for (i, (path, _)) in files.iter().enumerate().filter(|(i, _)| !survivor(*i)) {
            folder_a.remove(path).unwrap();
            if i % 4 == 2 {
                a.sync_once().unwrap();
                let live = live_bytes(&|j| j > i || survivor(j));
                worst_stored = worst_stored.max(stored_block_bytes(&handles) as f64 / live as f64);
            }
        }
        assert_eq!(a_deletes.load(Ordering::Relaxed), 0, "{mode:?}: every pack has a live member");
        let sparse = stored_block_bytes(&handles) as f64 / live_bytes(&survivor) as f64;
        worst_stored = worst_stored.max(sparse);

        scrub_twice(&sim, &mut a);
        settle(&sim, &mut a);
        let image = a.image();
        let fresh = image.segment(&member(image, &files[3].0)).unwrap().packed.expect("repacked").0;
        assert!(!packs.contains(&fresh), "{mode:?}: a survivor stayed in its sparse pack");
        let survivors: Vec<&(String, Vec<u8>)> = files.iter().skip(3).step_by(4).collect();
        for (path, _) in &survivors {
            assert_eq!(image.segment(&member(image, path)).unwrap().packed.unwrap().0, fresh, "{mode:?}");
        }
        for pack in &packs {
            assert!(image.segment(pack).is_none(), "{mode:?}: an old pack is pooled");
        }
        assert_eq!(a_deletes.load(Ordering::Relaxed), 15, "{mode:?}: the three old packs' blocks");
        let repacked = stored_block_bytes(&handles) as f64 / live_bytes(&survivor) as f64;
        assert!(repacked < sparse / 3.0, "{mode:?}: {repacked:.2} after, {sparse:.2} before");

        let (folder_c, mut c) = sim_device(&sim, &handles, "c", mode, 3);
        assert_eq!(c.sync_once().unwrap().downloaded.len(), 3, "{mode:?}");
        for (path, data) in &survivors {
            assert_eq!(folder_c.read(path).unwrap().to_vec(), *data, "{mode:?}");
        }
        println!(
            "{mode:?}: worst stored bytes per live byte {worst_stored:.2} (sparse {sparse:.2}, \
             repacked {repacked:.2}); one {} B file out of a full pack reads {fetched} B \
             ({amplification:.1}x)",
            files[0].1.len()
        );
    }
}

/// Two idle devices repack the same sparse packs in one ΔT window. A
/// fresh pack's id is its content, so both upload the same block
/// objects; the one whose commit loses must leave them, for they are
/// the blocks the winner's image names. Every survivor still reads on
/// a third device, and no block the image names is missing.
#[test]
fn two_devices_repacking_one_pack_at_once_lose_no_survivor() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let sim = SimRuntime::new(13);
        let handles = sim_clouds(&sim);
        let (folder_a, mut a, _) = metered_sim_device(&sim, &handles, "a", mode, 1);
        let (_, mut b, _) = metered_sim_device(&sim, &handles, "b", mode, 2);
        let files = small_files(12, 300);
        for (path, data) in &files {
            folder_a.write(path, data, 1).unwrap();
        }
        a.sync_once().unwrap();
        settle(&sim, &mut a);
        let survivor = |i: usize| i % 4 == 3;
        for (path, _) in files.iter().enumerate().filter(|(i, _)| !survivor(*i)).map(|(_, f)| f) {
            folder_a.remove(path).unwrap();
        }
        a.sync_once().unwrap();
        b.sync_once().unwrap();
        assert_eq!(a.image(), b.image(), "{mode:?}");
        let member = |image: &SyncFolderImage, path: &str| image.file(path).unwrap().snapshot.segments[0];
        let old = a.image().segment(&member(a.image(), &files[3].0)).unwrap().packed.unwrap().0;

        // Both idle passes scrub, and repack, at the same instant.
        sim.sleep(config("any", mode).lock.stale_after);
        let rt = sim.clone().as_runtime();
        let idle = |mut client: UniDriveClient, name: &str| {
            unidrive::sim::spawn(&rt, name, move || {
                client.sync_once().unwrap();
                client
            })
        };
        let (ta, tb) = (idle(a, "a"), idle(b, "b"));
        let (mut a, mut b) = (ta.join(), tb.join());
        a.sync_once().unwrap();
        b.sync_once().unwrap();
        a.sync_once().unwrap();
        let image = a.image();
        let fresh = image.segment(&member(image, &files[3].0)).unwrap().packed.expect("packed").0;
        assert_ne!(fresh, old, "{mode:?}: no device repacked");
        let audit = a.data_plane().audit(image);
        assert!(audit.missing.is_empty() && audit.short.is_empty(), "{mode:?}: {audit:?}");

        let (folder_c, mut c) = sim_device(&sim, &handles, "c", mode, 3);
        assert_eq!(c.sync_once().unwrap().downloaded.len(), 3, "{mode:?}");
        for (path, data) in files.iter().enumerate().filter(|(i, _)| survivor(*i)).map(|(_, f)| f) {
            assert_eq!(folder_c.read(path).unwrap().to_vec(), *data, "{mode:?}: {path}");
        }
    }
}
