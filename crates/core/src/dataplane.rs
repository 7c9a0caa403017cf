//! The data plane facade: from file bytes to erasure-coded blocks in
//! the multi-cloud and back (paper §6).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use unidrive_util::bytes::Bytes;
use unidrive_chunker::{segment_bytes, Segment};
use unidrive_cloud::{CloudId, CloudSet};
use unidrive_crypto::Sha1;
use unidrive_erasure::Codec;
use unidrive_meta::{block_path, BlockRef, SegmentId, Snapshot, SyncFolderImage};
use unidrive_obs::SpanId;
use unidrive_sim::Runtime;

use crate::download::{DownloadError, SegmentFetch};
use crate::engine::{run_batch, EngineParams, WireOp};
use crate::plan::DataPlaneConfig;
use crate::probe::BandwidthProbe;
use crate::static_plan::StaticPlan;
use crate::upload::{FileUpload, SegmentData, UploadOptions, UploadReport};

/// A file (path + content) handed to [`DataPlane::upload_files`].
#[derive(Debug, Clone)]
pub struct UploadRequest {
    /// Sync-folder-relative path.
    pub path: String,
    /// Whole file content.
    pub data: Bytes,
}

/// Segmentation outcome for one uploaded file, needed to build its
/// metadata [`Snapshot`](unidrive_meta::Snapshot).
#[derive(Debug, Clone)]
pub struct FileSegmentation {
    /// Path as supplied.
    pub path: String,
    /// `(segment id, length)` in file order.
    pub segments: Vec<(SegmentId, u64)>,
    /// Total file size.
    pub size: u64,
}

/// What the folder already holds at a path about to be rewritten: a
/// candidate source of segments for [`DataPlane::download_files`].
/// Nothing here is trusted — a range of `data` counts only if it hashes
/// to the id `layout` gives it.
#[derive(Debug, Clone)]
pub struct LocalBase {
    /// The file's current bytes.
    pub data: Bytes,
    /// `(segment id, length)` in file order, as the last image this
    /// device synced to describes the file.
    pub layout: Vec<(SegmentId, u64)>,
}

/// The data plane: segmentation, erasure coding, and the
/// over-provisioning block scheduler over a cloud set. It is the only
/// holder of the runtime, cloud set, codec and bandwidth probe: every
/// block put, get and delete in the crate goes through one of its
/// methods, and through the transfer engine from there.
pub struct DataPlane {
    pub(crate) rt: Arc<dyn Runtime>,
    pub(crate) clouds: CloudSet,
    pub(crate) config: DataPlaneConfig,
    pub(crate) codec: Arc<Codec>,
    pub(crate) probe: Arc<BandwidthProbe>,
    /// Engine wiring of every batch on this plane, relabelled per batch.
    pub(crate) engine: EngineParams,
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPlane")
            .field("clouds", &self.clouds)
            .field("config", &self.config)
            .finish()
    }
}

impl DataPlane {
    /// Creates a data plane over `clouds`.
    ///
    /// # Panics
    ///
    /// Panics if `config.redundancy.clouds()` disagrees with
    /// `clouds.len()`.
    pub fn new(rt: Arc<dyn Runtime>, clouds: CloudSet, config: DataPlaneConfig) -> Self {
        assert_eq!(
            config.redundancy.clouds(),
            clouds.len(),
            "redundancy config is for a different number of clouds"
        );
        let codec = Arc::new(Codec::for_config(&config.redundancy).expect("validated config"));
        let probe = Arc::new(
            BandwidthProbe::new(clouds.len(), 1_000_000.0).with_obs(config.obs.clone()),
        );
        let mut engine = EngineParams::new(
            "",
            config.connections_per_cloud,
            config.retry.clone(),
            config.obs.clone(),
        );
        engine.probe = Some(Arc::clone(&probe));
        DataPlane {
            rt,
            clouds,
            config,
            codec,
            probe,
            engine,
        }
    }

    /// [`segment_bytes`] on the caller's thread, emitting the
    /// `chunker.*` windowed series (bytes scanned, segments cut) under
    /// the label `rabin`, the rolling hash that cuts them.
    fn segment(&self, data: &[u8]) -> Vec<Segment> {
        let segments = segment_bytes(data, &self.config.chunker);
        let obs = &self.config.obs;
        obs.series_add("chunker.bytes", "rabin", data.len() as u64);
        obs.series_add("chunker.segments", "rabin", segments.len() as u64);
        segments
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DataPlaneConfig {
        &self.config
    }

    /// The cloud set.
    pub fn clouds(&self) -> &CloudSet {
        &self.clouds
    }

    /// Content-defined segmentation of one file (no network traffic).
    pub fn segment_file(&self, path: &str, data: &[u8]) -> FileSegmentation {
        let segments = self
            .segment(data)
            .into_iter()
            .map(|s| (SegmentId(s.digest), s.len as u64))
            .collect();
        FileSegmentation {
            path: path.to_owned(),
            segments,
            size: data.len() as u64,
        }
    }

    /// Uploads a batch of files: segments them, skips segments in
    /// `known` (deduplication against the current metadata), and runs
    /// the two-phase over-provisioning scheduler. Returns the upload
    /// report plus the per-file segmentations (for metadata snapshots).
    /// `options` selects availability detach, the asynchronous block
    /// sink and the parent span ([`UploadOptions::default`]: none).
    pub fn upload_files(
        &self,
        requests: Vec<UploadRequest>,
        known: &HashSet<SegmentId>,
        options: UploadOptions,
    ) -> (UploadReport, Vec<FileSegmentation>) {
        let mut segmentations = Vec::new();
        let mut uploads = Vec::new();
        let mut scheduled: HashSet<SegmentId> = HashSet::new();
        for req in &requests {
            let cuts = self.segment(&req.data);
            let mut seg_meta = Vec::new();
            let mut to_send = Vec::new();
            for s in cuts {
                let id = SegmentId(s.digest);
                seg_meta.push((id, s.len as u64));
                if !known.contains(&id) && scheduled.insert(id) {
                    to_send.push(SegmentData {
                        id,
                        data: req.data.slice(s.range()),
                    });
                }
            }
            segmentations.push(FileSegmentation {
                path: req.path.clone(),
                segments: seg_meta,
                size: req.data.len() as u64,
            });
            uploads.push(FileUpload {
                path: req.path.clone(),
                segments: to_send,
            });
        }
        (self.run_upload(uploads, options), segmentations)
    }

    /// Downloads a whole file per the metadata `image`.
    ///
    /// # Errors
    ///
    /// [`DownloadError::NoSuchFile`] when `image` has no entry at
    /// `path`; otherwise as [`download_snapshot`](Self::download_snapshot).
    pub fn download_file(
        &self,
        image: &SyncFolderImage,
        path: &str,
    ) -> Result<Vec<u8>, DownloadError> {
        let entry = image.file(path).ok_or_else(|| DownloadError::NoSuchFile {
            path: path.to_owned(),
        })?;
        self.download_snapshot(image, &entry.snapshot)
    }

    /// Downloads the content one `snapshot` of `image` describes (a
    /// file's current version or a retained conflict copy).
    ///
    /// # Errors
    ///
    /// As [`download_files`](Self::download_files).
    pub fn download_snapshot(
        &self,
        image: &SyncFolderImage,
        snapshot: &Snapshot,
    ) -> Result<Vec<u8>, DownloadError> {
        let locate = |id: &SegmentId| SegmentFetch::from_image(image, id);
        let file = [&snapshot.segments[..]];
        let mut contents = self.download_files(&file, &[], locate, None)?;
        Ok(contents.next().expect("one file asked for, one returned"))
    }

    /// Yields each file's content, its segments concatenated in order
    /// (built as the caller pulls it, so a batch is never in memory
    /// twice). A segment several files share is resolved once, in two
    /// steps. First the folder: a range of a `bases` entry whose layout
    /// names a wanted id is a cache hit iff its SHA-1 equals that id —
    /// the check a decoded cloud segment must pass — and is then used
    /// in place (a zero-copy slice). A base whose length is not its
    /// layout's sum is ignored; a stale or edited one costs the hash
    /// and then the fetch of what did not match, never a wrong byte.
    /// Then the wire: every other segment is fetched in ONE batch.
    /// `locate` says where a segment's blocks live (an image's pool, a
    /// baseline's manifest); the batch span is parented to `parent`.
    ///
    /// # Errors
    ///
    /// [`DownloadError::NotEnoughBlocks`] with `got: 0` for a segment
    /// to fetch that `locate` does not know (metadata read from a cloud
    /// can name one its pool lacks); otherwise the last failure of the
    /// batch.
    pub fn download_files<'a>(
        &self,
        files: &'a [&'a [SegmentId]],
        bases: &[LocalBase],
        locate: impl Fn(&SegmentId) -> Option<SegmentFetch>,
        parent: Option<SpanId>,
    ) -> Result<impl Iterator<Item = Vec<u8>> + 'a, DownloadError> {
        let mut wanted = HashSet::new();
        let mut order = Vec::new();
        for id in files.iter().flat_map(|ids| ids.iter()) {
            if wanted.insert(*id) {
                order.push(*id);
            }
        }
        let local = self.local_hits(bases, &wanted);
        let mut fetches = Vec::new();
        for id in order.iter().filter(|id| !local.contains_key(id)) {
            fetches.push(locate(id).ok_or(DownloadError::NotEnoughBlocks {
                segment: *id,
                got: 0,
                need: self.codec.k(),
            })?);
        }
        let mut report = self.download_batch(fetches, local, parent);
        if let Some(err) = report.failed.pop() {
            return Err(err);
        }
        // `concat` sizes each buffer from the segments actually
        // fetched, never from a size the metadata claims.
        let fetched = report.segments;
        Ok(files.iter().map(move |ids| {
            let parts: Vec<&[u8]> = ids.iter().map(|id| &fetched[id][..]).collect();
            parts.concat()
        }))
    }

    /// The `wanted` segments that `bases` hold: the first range a
    /// layout names with a wanted id is hashed and kept iff the digest
    /// is the id. Layout lengths come from metadata, so a base is
    /// walked only once they are known to sum to its length.
    fn local_hits(
        &self,
        bases: &[LocalBase],
        wanted: &HashSet<SegmentId>,
    ) -> HashMap<SegmentId, Bytes> {
        let mut hits = HashMap::new();
        let mut seen = HashSet::new();
        for base in bases {
            let total = base
                .layout
                .iter()
                .try_fold(0u64, |sum, (_, len)| sum.checked_add(*len));
            if total != Some(base.data.len() as u64) {
                continue;
            }
            let mut offset = 0usize;
            for (id, len) in &base.layout {
                let end = offset + *len as usize;
                if wanted.contains(id) && seen.insert(*id) {
                    let range = base.data.slice(offset..end);
                    if Sha1::digest(&range) == id.0 {
                        hits.insert(*id, range);
                    }
                }
                offset = end;
            }
        }
        if !hits.is_empty() {
            let obs = &self.config.obs;
            obs.add("download.local_segments", hits.len() as u64);
            obs.add("download.local_bytes", hits.values().map(|b| b.len() as u64).sum());
        }
        hits
    }

    /// Deletes stored blocks from the clouds (garbage-collected
    /// segments, trimmed surplus): one delete per block, every cloud's
    /// connections working through that cloud's blocks in the order
    /// given, retried under [`DataPlaneConfig::retry`], joined before
    /// returning. Best effort: a block whose delete still fails stays
    /// behind. The batch span (label `gc`) is parented to `parent`.
    pub fn delete_blocks(
        &self,
        blocks: impl IntoIterator<Item = (SegmentId, BlockRef)>,
        parent: Option<SpanId>,
    ) {
        self.delete_labelled("gc", blocks, parent);
    }

    pub(crate) fn delete_labelled(
        &self,
        label: &str,
        blocks: impl IntoIterator<Item = (SegmentId, BlockRef)>,
        parent: Option<SpanId>,
    ) {
        let mut plan = StaticPlan::new(self.clouds.len());
        for (id, b) in blocks {
            // Metadata can reference a cloud that has since been
            // removed from the set (§6.2, removing a CCS); its blocks
            // are unreachable, not a crash.
            if (b.cloud as usize) < self.clouds.len() {
                let path = block_path(&id, b.index);
                plan.push(CloudId(b.cloud as usize), b.index, WireOp::Delete { path });
            }
        }
        self.run_plan(label, plan, parent);
    }

    /// Runs `plan` over this plane's clouds as one joined `engine.batch`
    /// labelled `label` under `parent`.
    pub(crate) fn run_plan(
        &self,
        label: &str,
        plan: StaticPlan,
        parent: Option<SpanId>,
    ) -> StaticPlan {
        let size = ("blocks", plan.landed.len() as u64);
        let params = self.engine.labelled(label);
        run_batch(&self.rt, &self.clouds, params, parent, &[size], plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_cloud::{CloudStore, SimCloud, SimCloudConfig};
    use unidrive_erasure::RedundancyConfig;
    use unidrive_obs::Obs;
    use unidrive_sim::SimRuntime;

    fn plane(seed: u64) -> (Arc<SimRuntime>, DataPlane) {
        plane_with_obs(seed, Obs::noop())
    }

    fn plane_with_obs(seed: u64, obs: Obs) -> (Arc<SimRuntime>, DataPlane) {
        let sim = SimRuntime::new(seed);
        let clouds = CloudSet::new(
            (0..5)
                .map(|i| {
                    Arc::new(SimCloud::new(
                        &sim,
                        format!("c{i}"),
                        SimCloudConfig::steady(2e6, 10e6),
                    )) as Arc<dyn CloudStore>
                })
                .collect(),
        );
        let mut config = DataPlaneConfig::with_params(
            RedundancyConfig::new(5, 3, 3, 2).unwrap(),
            64 * 1024,
        );
        config.obs = obs;
        let rt = sim.clone().as_runtime();
        (sim, DataPlane::new(rt, clouds, config))
    }

    fn content(len: usize, seed: u64) -> Bytes {
        let mut state = seed | 1;
        Bytes::from(
            (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 32) as u8
                })
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn upload_then_download_file_round_trips() {
        let (_sim, plane) = plane(1);
        let data = content(300_000, 42);
        let (report, segs) = plane.upload_files(
            vec![UploadRequest {
                path: "doc.bin".into(),
                data: data.clone(),
            }],
            &HashSet::new(),
            UploadOptions::default(),
        );
        assert!(report.all_available());

        // Build an image the way the client would.
        let mut image = SyncFolderImage::new();
        for (id, len) in &segs[0].segments {
            image.ensure_segment(*id, *len);
        }
        for (id, b) in &report.blocks {
            image.record_block(*id, *b);
        }
        image.upsert_file(
            "doc.bin",
            Snapshot {
                mtime_ns: 0,
                size: segs[0].size,
                segments: segs[0].segments.iter().map(|(id, _)| *id).collect(),
            },
        );
        let restored = plane.download_file(&image, "doc.bin").unwrap();
        assert_eq!(restored, data.to_vec());
    }

    /// An unknown path used to come back as `NotEnoughBlocks` for a
    /// segment id made up from SHA-1(path).
    #[test]
    fn download_file_of_an_unknown_path_says_so() {
        let (_sim, plane) = plane(1);
        assert_eq!(
            plane.download_file(&SyncFolderImage::new(), "ghost.bin"),
            Err(DownloadError::NoSuchFile {
                path: "ghost.bin".into()
            })
        );
    }

    #[test]
    fn dedup_skips_known_segments() {
        let (_sim, plane) = plane(2);
        let data = content(150_000, 7);
        let (first, segs) = plane.upload_files(
            vec![UploadRequest {
                path: "a".into(),
                data: data.clone(),
            }],
            &HashSet::new(),
            UploadOptions::default(),
        );
        assert!(!first.blocks.is_empty());
        let known: HashSet<SegmentId> = segs[0].segments.iter().map(|(id, _)| *id).collect();
        let (second, _) = plane.upload_files(
            vec![UploadRequest {
                path: "b".into(),
                data,
            }],
            &known,
            UploadOptions::default(),
        );
        assert!(second.all_available());
        assert!(second.blocks.is_empty(), "dedup hit must transfer nothing");
    }

    #[test]
    fn delete_blocks_removes_objects() {
        let (_sim, plane) = plane(3);
        let data = content(100_000, 9);
        let (report, segs) = plane.upload_files(
            vec![UploadRequest {
                path: "x".into(),
                data,
            }],
            &HashSet::new(),
            UploadOptions::default(),
        );
        let mut image = SyncFolderImage::new();
        for (id, len) in &segs[0].segments {
            image.ensure_segment(*id, *len);
        }
        for (id, b) in &report.blocks {
            image.record_block(*id, *b);
        }
        let garbage = image.collect_garbage(); // nothing referenced them
        assert!(!garbage.is_empty());
        let blocks = |garbage: &[(SegmentId, unidrive_meta::SegmentEntry)]| -> Vec<_> {
            garbage
                .iter()
                .flat_map(|(id, entry)| entry.blocks.iter().map(|b| (*id, *b)))
                .collect()
        };
        plane.delete_blocks(blocks(&garbage), None);
        for (id, b) in blocks(&garbage) {
            let cloud = plane.clouds().get(CloudId(b.cloud as usize));
            assert!(!cloud.exists(&block_path(&id, b.index)).unwrap());
        }
    }

    /// Garbage collection runs on the engine: with B blocks on each of
    /// five clouds and a request latency of L, the deletes of a cloud
    /// overlap across its connections and the clouds across each other
    /// — about ⌈B / connections⌉·L in all, where the old one-at-a-time
    /// loop took 5·B·L.
    #[test]
    fn delete_blocks_overlaps_across_clouds_and_connections() {
        use std::time::Duration;
        use unidrive_sim::Runtime;
        const B: u16 = 12;
        let latency = Duration::from_millis(100);
        let sim = SimRuntime::new(5);
        let clouds = CloudSet::new(
            (0..5)
                .map(|i| {
                    let mut cfg = SimCloudConfig::steady(2e6, 10e6);
                    cfg.up = cfg.up.with_latency(latency, Duration::ZERO);
                    Arc::new(SimCloud::new(&sim, format!("c{i}"), cfg)) as Arc<dyn CloudStore>
                })
                .collect(),
        );
        let config = DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), 64 * 1024);
        let connections = config.connections_per_cloud as u32;
        let plane = DataPlane::new(sim.clone().as_runtime(), clouds, config);
        let id = SegmentId(Sha1::digest(b"doomed"));
        let doomed: Vec<(SegmentId, BlockRef)> = (0..5u16)
            .flat_map(|cloud| (0..B).map(move |index| (id, BlockRef { index, cloud })))
            .collect();
        for (id, b) in &doomed {
            let cloud = plane.clouds().get(CloudId(b.cloud as usize));
            cloud.upload(&block_path(id, b.index), Bytes::from(vec![1u8; 8])).unwrap();
        }
        let t0 = sim.now();
        plane.delete_blocks(doomed.iter().copied(), None);
        let took = sim.now().saturating_duration_since(t0);
        let rounds = (B as u32).div_ceil(connections);
        assert!(
            took >= latency * rounds && took < latency * (rounds + 1),
            "{took:?} for {rounds} rounds of {latency:?}"
        );
        for (id, b) in &doomed {
            let cloud = plane.clouds().get(CloudId(b.cloud as usize));
            assert!(!cloud.exists(&block_path(id, b.index)).unwrap());
        }
    }

    /// An image decoded from a cloud can carry a snapshot naming a
    /// segment its pool lacks; reading such a file is an error, not a
    /// panic, and no buffer is sized from the snapshot's claimed size.
    #[test]
    fn snapshot_naming_an_unpooled_segment_is_an_error() {
        let (_sim, plane) = plane(6);
        let id = SegmentId(Sha1::digest(b"never pooled"));
        let snapshot = Snapshot {
            mtime_ns: 0,
            size: u64::MAX,
            segments: vec![id],
        };
        assert_eq!(
            plane.download_snapshot(&SyncFolderImage::new(), &snapshot),
            Err(DownloadError::NotEnoughBlocks {
                segment: id,
                got: 0,
                need: 3
            })
        );
    }

    /// A base is consulted only when its bytes have the length its
    /// layout adds up to; a longer or shorter one is ignored and every
    /// segment is fetched. The exact base is the control: all hits, no
    /// batch at all.
    #[test]
    fn a_base_of_the_wrong_length_is_ignored() {
        let registry = unidrive_obs::Registry::new();
        let obs = Obs::with_registry(Arc::clone(&registry));
        let (_sim, plane) = plane_with_obs(7, obs);
        let data = content(400_000, 23);
        let (report, segs) = plane.upload_files(
            vec![UploadRequest {
                path: "f".into(),
                data: data.clone(),
            }],
            &HashSet::new(),
            UploadOptions::default(),
        );
        let layout = segs[0].segments.clone();
        assert!(layout.len() > 3, "want a multi-segment file");
        let mut image = SyncFolderImage::new();
        for (id, len) in &layout {
            image.ensure_segment(*id, *len);
        }
        for (id, b) in &report.blocks {
            image.record_block(*id, *b);
        }
        let ids: Vec<SegmentId> = layout.iter().map(|(id, _)| *id).collect();
        let fetch = |base: Bytes| {
            let before = registry.snapshot();
            let bases = [LocalBase {
                data: base,
                layout: layout.clone(),
            }];
            let locate = |id: &SegmentId| SegmentFetch::from_image(&image, id);
            let got: Vec<Vec<u8>> = plane
                .download_files(&[&ids[..]], &bases, locate, None)
                .unwrap()
                .collect();
            assert_eq!(got, vec![data.to_vec()]);
            let after = registry.snapshot();
            let grew = |name: &str| after.counter(name) - before.counter(name);
            (grew("download.local_segments"), grew("download.blocks_completed"))
        };

        let mut longer = data.to_vec();
        longer.push(0);
        let (hits, blocks) = fetch(Bytes::from(longer));
        assert_eq!(hits, 0, "longer than the layout");
        assert!(blocks >= 3 * ids.len() as u64, "whole fetch: k blocks a segment");
        let (hits, whole) = fetch(data.slice(..data.len() - 1));
        assert_eq!((hits, whole >= 3 * ids.len() as u64), (0, true), "shorter than the layout");
        assert_eq!(fetch(data.clone()), (ids.len() as u64, 0), "exact base: nothing fetched");
    }

    #[test]
    fn segment_file_is_segment_bytes() {
        // The data plane names a file's segments exactly as the chunker
        // cuts and hashes them.
        let data = content(700_000, 31);
        let (_sim, plane) = plane(10);
        let got = plane.segment_file("f", &data);
        let want: Vec<(SegmentId, u64)> = segment_bytes(&data, &plane.config().chunker)
            .into_iter()
            .map(|s| (SegmentId(s.digest), s.len as u64))
            .collect();
        assert!(want.len() > 5, "want a multi-segment file");
        assert_eq!(got.segments, want);
        assert_eq!(got.size, data.len() as u64);
    }

    #[test]
    fn ingest_emits_chunker_series() {
        // The chunker.* windowed series surface in obs_report's
        // sparkline digest; here we pin that ingest records them,
        // labelled `rabin`, with sane values.
        let registry = unidrive_obs::Registry::new();
        registry.set_clock(|| 1);
        registry.enable_series(1_000_000);
        let obs = Obs::with_registry(std::sync::Arc::clone(&registry));
        let (_sim, plane) = plane_with_obs(22, obs);
        let data = content(400_000, 61);
        let seg = plane.segment_file("s", &data);
        let snap = registry.series_snapshot();
        let bytes = snap.entry("chunker.bytes", "rabin").expect("bytes series");
        assert_eq!(bytes.windows[0].stat.sum, data.len() as u64);
        let segments = snap.entry("chunker.segments", "rabin").expect("segments series");
        assert_eq!(segments.windows[0].stat.sum, seg.segments.len() as u64);
    }

    #[test]
    fn multi_segment_files_reassemble_in_order() {
        let (_sim, plane) = plane(4);
        // Big enough to span several 64 KB-θ segments.
        let data = content(500_000, 11);
        let (report, segs) = plane.upload_files(
            vec![UploadRequest {
                path: "big.bin".into(),
                data: data.clone(),
            }],
            &HashSet::new(),
            UploadOptions::default(),
        );
        assert!(segs[0].segments.len() > 2, "expected multiple segments");
        let mut image = SyncFolderImage::new();
        for (id, len) in &segs[0].segments {
            image.ensure_segment(*id, *len);
        }
        for (id, b) in &report.blocks {
            image.record_block(*id, *b);
        }
        image.upsert_file(
            "big.bin",
            unidrive_meta::Snapshot {
                mtime_ns: 0,
                size: segs[0].size,
                segments: segs[0].segments.iter().map(|(id, _)| *id).collect(),
            },
        );
        assert_eq!(plane.download_file(&image, "big.bin").unwrap(), data.to_vec());
    }
}
