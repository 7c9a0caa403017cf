//! A sync downloads only the segments the folder lacks: a range of the
//! local file that hashes to a wanted segment id is a cache hit, so an
//! edit moves about one segment in each direction. Two devices under
//! virtual time; the reader's clouds are metered and its client has its
//! own obs registry, so what came off the wire and what came out of the
//! folder are both counted from outside the code under test.
//!
//! Also here: the straggler-after-collect leak (a reliability block that
//! lands after its segment was garbage-collected must not stay behind).

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unidrive::cloud::{
    CloudCaps, CloudError, CloudSet, CloudStore, ObjectInfo, SimCloud, SimCloudConfig,
};
use unidrive::core::{ClientConfig, DataPlaneConfig, MemFolder, SyncFolder, UniDriveClient};
use unidrive::erasure::{Codec, RedundancyConfig};
use unidrive::meta::{MetaMode, SegmentId, BLOCKS_DIR};
use unidrive::obs::{FieldValue, Obs, Registry};
use unidrive::sim::{Runtime, SimRng, SimRuntime};
use unidrive::util::bytes::Bytes;

const THETA: usize = 64 * 1024;

fn redundancy() -> RedundancyConfig {
    RedundancyConfig::new(5, 3, 3, 2).unwrap()
}

/// Counts the bytes of block objects downloaded through it.
struct BlockMeter {
    inner: Arc<dyn CloudStore>,
    block_bytes_down: Arc<AtomicU64>,
}

impl CloudStore for BlockMeter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        self.inner.upload(path, data)
    }
    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        let data = self.inner.download(path)?;
        if path.starts_with(BLOCKS_DIR) {
            self.block_bytes_down
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Ok(data)
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
    fn append(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        self.inner.append(path, data)
    }
    fn caps(&self) -> CloudCaps {
        self.inner.caps()
    }
}

/// A writer and a reader over five simulated clouds.
struct Pair {
    sim: Arc<SimRuntime>,
    handles: Vec<Arc<SimCloud>>,
    folder_w: Arc<MemFolder>,
    folder_r: Arc<MemFolder>,
    writer: UniDriveClient,
    reader: UniDriveClient,
    /// Block-object bytes the reader's clouds served it.
    reader_block_bytes: Arc<AtomicU64>,
    /// The reader's own registry (the writer records nowhere).
    reader_obs: Arc<Registry>,
}

fn pair(seed: u64, mode: MetaMode, cloud_config: impl Fn(usize) -> SimCloudConfig) -> Pair {
    let sim = SimRuntime::new(seed);
    let handles: Vec<Arc<SimCloud>> = (0..5)
        .map(|i| Arc::new(SimCloud::new(&sim, format!("cloud{i}"), cloud_config(i))))
        .collect();
    let reader_block_bytes = Arc::new(AtomicU64::new(0));
    let direct = handles.iter().map(|c| Arc::clone(c) as Arc<dyn CloudStore>);
    let metered = handles.iter().map(|c| {
        Arc::new(BlockMeter {
            inner: Arc::clone(c) as Arc<dyn CloudStore>,
            block_bytes_down: Arc::clone(&reader_block_bytes),
        }) as Arc<dyn CloudStore>
    });
    let reader_obs = Registry::with_trace_capacity(1 << 16);
    let client = |device: &str, clouds: CloudSet, folder: &Arc<MemFolder>, obs: Obs, cseed| {
        let mut config = ClientConfig::paper_default(device);
        config.data = DataPlaneConfig {
            obs,
            ..DataPlaneConfig::with_params(redundancy(), THETA)
        };
        config.meta_mode = mode;
        config.poll_interval = Duration::from_secs(5);
        UniDriveClient::new(
            sim.clone().as_runtime(),
            clouds,
            Arc::clone(folder) as Arc<dyn SyncFolder>,
            config,
            SimRng::seed_from_u64(cseed),
        )
    };
    let folder_w = MemFolder::new();
    let folder_r = MemFolder::new();
    let writer = client(
        "writer",
        CloudSet::new(direct.collect()),
        &folder_w,
        Obs::noop(),
        1,
    );
    let reader_handle = Obs::with_registry(Arc::clone(&reader_obs));
    let reader = client(
        "reader",
        CloudSet::new(metered.collect()),
        &folder_r,
        reader_handle,
        2,
    );
    Pair {
        sim,
        handles,
        folder_w,
        folder_r,
        writer,
        reader,
        reader_block_bytes,
        reader_obs,
    }
}

fn steady(_: usize) -> SimCloudConfig {
    SimCloudConfig::steady(2e6, 8e6)
}

/// Seeded pseudo-random bytes (content-defined cuts need real entropy).
fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// `(id, offset, len)` of every segment of `data` as `client` cuts it.
fn segments_of(client: &UniDriveClient, data: &[u8]) -> Vec<(SegmentId, usize, usize)> {
    let mut offset = 0;
    let cut = client.data_plane().segment_file("probe", data);
    cut.segments
        .iter()
        .map(|(id, len)| {
            let at = offset;
            offset += *len as usize;
            (*id, at, *len as usize)
        })
        .collect()
}

/// A file of exactly twelve segments.
fn twelve_segment_file(client: &UniDriveClient, seed: u64) -> Vec<u8> {
    let data = random_bytes(14 * THETA, seed);
    let end = segments_of(client, &data)[12].1;
    let data = data[..end].to_vec();
    assert_eq!(segments_of(client, &data).len(), 12);
    data
}

/// XORs `mask` into 64 bytes in the middle of segment `n` of `data`.
fn overwrite_segment(client: &UniDriveClient, data: &mut [u8], n: usize, mask: u8) {
    let (_, at, len) = segments_of(client, data)[n];
    for byte in &mut data[at + len / 2..at + len / 2 + 64] {
        *byte ^= mask;
    }
}

/// Lengths of the segments of `new` that `old` lacks, and of those it
/// has.
fn fresh_and_kept(client: &UniDriveClient, old: &[u8], new: &[u8]) -> (Vec<u64>, Vec<u64>) {
    let had: HashSet<SegmentId> = segments_of(client, old).iter().map(|s| s.0).collect();
    let (kept, fresh): (Vec<_>, Vec<_>) = segments_of(client, new)
        .into_iter()
        .partition(|s| had.contains(&s.0));
    let lens =
        |segments: Vec<(SegmentId, usize, usize)>| segments.iter().map(|s| s.2 as u64).collect();
    (lens(fresh), lens(kept))
}

/// `local_hits` and `fetched` of the reader's latest `download` batch.
fn last_download_batch(p: &Pair) -> (u64, u64) {
    let snapshot = p.reader_obs.snapshot();
    let label = FieldValue::S("download".to_owned());
    let batch = snapshot
        .spans
        .iter()
        .filter(|sp| sp.name == "engine.batch" && sp.attr("label") == Some(&label))
        .max_by_key(|sp| sp.start_ns)
        .expect("the reader ran a download batch");
    let count = |key: &str| match batch.attr(key) {
        Some(FieldValue::U(n)) => *n,
        other => panic!("download batch attr {key}: {other:?}"),
    };
    assert_eq!(count("segments"), count("local_hits") + count("fetched"));
    (count("local_hits"), count("fetched"))
}

fn read(folder: &MemFolder, path: &str) -> Vec<u8> {
    folder.read(path).expect("file present").to_vec()
}

#[test]
fn an_edit_of_one_segment_downloads_about_one_segment() {
    let mut p = pair(11, MetaMode::Lock, steady);
    let v1 = twelve_segment_file(&p.writer, 3);
    p.folder_w.write("f.bin", &v1, 1).unwrap();
    p.writer.sync_once().unwrap();
    p.reader.sync_once().unwrap();
    assert_eq!(read(&p.folder_r, "f.bin"), v1);
    let whole = p.reader_block_bytes.load(Ordering::Relaxed);
    assert!(
        whole >= v1.len() as u64,
        "the first sync fetches everything"
    );
    assert_eq!(
        p.reader_obs.snapshot().counter("download.local_segments"),
        0
    );

    let mut v2 = v1.clone();
    overwrite_segment(&p.writer, &mut v2, 5, 0xa5);
    let (edited, kept) = fresh_and_kept(&p.writer, &v1, &v2);
    assert!(
        (1..=2).contains(&edited.len()),
        "{} segments changed",
        edited.len()
    );
    p.folder_w.write("f.bin", &v2, 2).unwrap();
    p.writer.sync_once().unwrap();
    let report = p.reader.sync_once().unwrap();
    assert_eq!(report.downloaded, vec!["f.bin"]);
    assert_eq!(read(&p.folder_r, "f.bin"), v2);

    // Any k blocks rebuild a segment; the scheduler may add a spare.
    let codec = Codec::for_config(&redundancy()).unwrap();
    let k_block_bytes: u64 = edited
        .iter()
        .map(|len| (codec.k() * codec.block_len(*len as usize)) as u64)
        .sum();
    let moved = p.reader_block_bytes.load(Ordering::Relaxed) - whole;
    assert!(
        moved > 0 && moved <= 2 * k_block_bytes,
        "{moved} block bytes down, the edited segments' k blocks are {k_block_bytes}"
    );
    let snapshot = p.reader_obs.snapshot();
    assert_eq!(
        snapshot.counter("download.local_segments"),
        kept.len() as u64
    );
    assert_eq!(
        snapshot.counter("download.local_bytes"),
        kept.iter().sum::<u64>()
    );
    assert_eq!(
        last_download_batch(&p),
        (kept.len() as u64, edited.len() as u64)
    );
}

/// The shadow's `(size, mtime)` is not what makes a local range usable:
/// bytes changed behind its back are caught by the hash and fetched.
#[test]
fn a_stale_base_costs_a_fetch_never_a_wrong_byte() {
    let mut p = pair(12, MetaMode::Lock, steady);
    let v1 = twelve_segment_file(&p.writer, 4);
    p.folder_w.write("f.bin", &v1, 1).unwrap();
    p.writer.sync_once().unwrap();
    p.reader.sync_once().unwrap();

    // Same size, same mtime, different bytes in segments 2 and 8: the
    // reader's scan sees nothing.
    let mtime = p.folder_r.scan().unwrap()["f.bin"].mtime_ns;
    let mut tampered = v1.clone();
    overwrite_segment(&p.writer, &mut tampered, 2, 0xa5);
    overwrite_segment(&p.writer, &mut tampered, 8, 0xa5);
    p.folder_r.write("f.bin", &tampered, mtime).unwrap();

    let mut v2 = v1.clone();
    overwrite_segment(&p.writer, &mut v2, 5, 0xa5);
    p.folder_w.write("f.bin", &v2, 2).unwrap();
    p.writer.sync_once().unwrap();
    let report = p.reader.sync_once().unwrap();
    assert_eq!(report.downloaded, vec!["f.bin"]);
    assert!(
        report.uploaded.is_empty(),
        "the tampering went unnoticed by the scan"
    );
    assert_eq!(read(&p.folder_r, "f.bin"), v2);

    // Fetched: what the writer changed plus what the tampering spoiled.
    let (missing, intact) = fresh_and_kept(&p.writer, &tampered, &v2);
    assert!(
        missing.len() >= 3,
        "the edit and both tamperings changed segments"
    );
    assert_eq!(
        last_download_batch(&p),
        (intact.len() as u64, missing.len() as u64)
    );
}

/// Both devices edit the same path: the winner is materialized over the
/// loser's bytes, which are a base like any other — looked up by hash,
/// so it does not matter that they are a different version. (Both edit
/// the same segment: a loser that kept a segment the winner's commit
/// collected would name deleted blocks, a race this change leaves.)
#[test]
fn a_conflict_reuses_the_segments_both_versions_share() {
    let mut p = pair(13, MetaMode::Lock, steady);
    let v1 = twelve_segment_file(&p.writer, 5);
    p.folder_w.write("shared.bin", &v1, 1).unwrap();
    p.writer.sync_once().unwrap();
    p.reader.sync_once().unwrap();

    let mut version_w = v1.clone();
    overwrite_segment(&p.writer, &mut version_w, 6, 0xa5);
    let mut version_r = v1.clone();
    overwrite_segment(&p.writer, &mut version_r, 6, 0x3c);
    p.folder_w.write("shared.bin", &version_w, 2).unwrap();
    p.folder_r.write("shared.bin", &version_r, 2).unwrap();

    p.writer.sync_once().unwrap();
    let report = p.reader.sync_once().unwrap();
    assert_eq!(report.conflicts, vec!["shared.bin"]);
    assert_eq!(read(&p.folder_r, "shared.bin"), version_w);
    let retained = p.reader.fetch_conflict_copy("shared.bin").unwrap().unwrap();
    assert_eq!(retained, version_r);
    let reused = p.reader_obs.snapshot().counter("download.local_segments");
    assert!((9..=11).contains(&reused), "{reused} segments reused");
}

/// A device's image keeps the pool entry of a segment whose last
/// reference a peer dropped, block list and all, while the peer's
/// commit deleted the blocks. Content that brings the segment back must
/// be uploaded again, not deduplicated against that entry.
#[test]
fn a_collected_segment_that_comes_back_is_uploaded_again() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let mut p = pair(15, mode, steady);
        let v1 = twelve_segment_file(&p.writer, 8);
        let mut v2 = v1.clone();
        overwrite_segment(&p.writer, &mut v2, 3, 0xa5);
        for (mtime, version) in [(1, &v1), (2, &v2)] {
            p.folder_w.write("f.bin", version, mtime).unwrap();
            p.writer.sync_once().unwrap();
            p.reader.sync_once().unwrap();
        }
        p.folder_r.write("f.bin", &v1, 3).unwrap();
        let report = p.reader.sync_once().unwrap();
        assert_eq!(report.uploaded, vec!["f.bin"], "{mode:?}");
        p.writer
            .sync_once()
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(read(&p.folder_w, "f.bin"), v1, "{mode:?}");
    }
}

/// One random edit: insert, delete or overwrite a random range, or
/// duplicate a range elsewhere (segments then repeat within the file).
fn random_edit(data: &mut Vec<u8>, rng: &mut SimRng) {
    let at = rng.next_u64() as usize % data.len();
    let len = 1 + rng.next_u64() as usize % (2 * THETA);
    let end = (at + len).min(data.len());
    match rng.next_u64() % 4 {
        0 => {
            let fresh = random_bytes(len, rng.next_u64());
            data.splice(at..at, fresh);
        }
        1 if end - at < data.len() => {
            data.drain(at..end);
        }
        2 => {
            let fresh = random_bytes(end - at, rng.next_u64());
            data[at..end].copy_from_slice(&fresh);
        }
        _ => {
            let copy = data[at..end].to_vec();
            let to = rng.next_u64() as usize % data.len();
            data.splice(to..to, copy);
        }
    }
}

#[test]
fn random_edits_materialize_byte_identically_on_both_planes() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        for seed in [21u64, 22] {
            let mut p = pair(seed, mode, steady);
            let mut rng = SimRng::seed_from_u64(seed);
            // Two copies of one blob: segments repeat from round one.
            let blob = random_bytes(3 * THETA, seed);
            let mut data = [blob.clone(), blob].concat();
            let mut reused = 0;
            for round in 0..8u64 {
                p.folder_w.write("f.bin", &data, round + 1).unwrap();
                p.writer.sync_once().unwrap();
                p.reader.sync_once().unwrap();
                assert_eq!(
                    read(&p.folder_r, "f.bin"),
                    data,
                    "{mode:?} seed {seed} round {round}"
                );
                reused = p.reader_obs.snapshot().counter("download.local_segments");
                random_edit(&mut data, &mut rng);
            }
            assert!(reused > 0, "{mode:?} seed {seed}: no edit reused a segment");
        }
    }
}

/// A file is deleted while its reliability blocks are still going up to
/// a slow cloud: the commit of the delete collects the segments, the
/// blocks land afterwards, and the pass that hears of them must delete
/// them — no image will ever name them again.
#[test]
fn a_block_landing_after_its_segment_was_collected_is_deleted() {
    let slow_last = |i: usize| {
        if i == 4 {
            SimCloudConfig::steady(2e3, 8e3)
        } else {
            steady(i)
        }
    };
    let mut p = pair(14, MetaMode::Lock, slow_last);
    p.folder_w
        .write("keep.bin", &random_bytes(2 * THETA, 6), 1)
        .unwrap();
    p.folder_w
        .write("doomed.bin", &random_bytes(4 * THETA, 7), 1)
        .unwrap();
    p.writer.sync_once().unwrap();
    p.folder_w.remove("doomed.bin").unwrap();
    let report = p.writer.sync_once().unwrap();
    assert_eq!(report.deleted_remotely, vec!["doomed.bin"]);

    // Settle: let the detached workers finish, then sync until quiet.
    for _ in 0..6 {
        p.sim.sleep(Duration::from_secs(600));
        p.writer.sync_once().unwrap();
    }
    assert!(p.writer.sync_once().unwrap().is_noop());
    assert!(p.writer.image().file("keep.bin").is_some());
    assert_eq!(
        common::unnamed_block_objects(p.writer.image(), &p.handles),
        Vec::<String>::new()
    );
}
