//! A collected segment is collected once. The commit that drops a
//! segment's last reference deletes its blocks and says so in the log
//! (`DeltaRecord::DropSegment`), so no image read from the clouds names
//! the segment again and no later commit deletes its blocks again — on
//! either metadata plane, whether or not the later committer had seen
//! the segment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unidrive::cloud::{CloudCaps, CloudError, CloudSet, CloudStore, MemCloud, ObjectInfo};
use unidrive::core::{ClientConfig, DataPlaneConfig, MemFolder, SyncFolder, UniDriveClient};
use unidrive::crypto::MetadataCipher;
use unidrive::erasure::RedundancyConfig;
use unidrive::meta::{
    MetaMode, OplogBase, SegmentEntry, SegmentId, SyncFolderImage, BLOCKS_DIR, OPLOG_BASE_PATH,
};
use unidrive::sim::{RealRuntime, Runtime, SimRng};
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
            for (id, entry) in pool(b.client.image()) {
                assert!(entry.refcount > 0, "{case}: {id} pooled unreferenced");
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
