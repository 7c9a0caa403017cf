//! The data plane facade: from file bytes to erasure-coded blocks in
//! the multi-cloud and back (paper §6).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use unidrive_util::bytes::Bytes;
use unidrive_chunker::{segment_bytes, segment_bytes_after, Segment};
use unidrive_cloud::{CloudError, CloudId, CloudSet, Retry};
use unidrive_crypto::Sha1;
use unidrive_erasure::Codec;
use unidrive_meta::{block_path, BlockRef, SegmentId, Snapshot, SyncFolderImage, BLOCKS_DIR};
use unidrive_obs::SpanId;
use unidrive_sim::Runtime;

use crate::download::{DownloadError, Member, SegmentFetch};
use crate::engine::{run_batch, EngineParams, WireOp};
use crate::plan::DataPlaneConfig;
use crate::probe::BandwidthProbe;
use crate::quorum;
use crate::static_plan::StaticPlan;
use crate::upload::{BlockSink, FileUpload, SegmentData, UploadReport};

/// A file (path + content) handed to [`DataPlane::upload_files`].
#[derive(Debug, Clone)]
pub struct UploadRequest {
    /// Sync-folder-relative path.
    pub path: String,
    /// Whole file content.
    pub data: Bytes,
    /// The `(segment id, length)` cut this plane's chunker made of an
    /// earlier version of the file, empty when there is none. Ranges
    /// that still hash to their ids are taken without a Rabin scan, and
    /// the segmentation is the same either way. Never another device's
    /// layout: it may have been cut with another θ.
    pub previous: Vec<(SegmentId, u64)>,
}

/// Segmentation outcome for one uploaded file, needed to build its
/// metadata [`Snapshot`](unidrive_meta::Snapshot).
#[derive(Debug, Clone)]
pub struct FileSegmentation {
    /// Path as supplied.
    pub path: String,
    /// `(segment id, length)` in file order.
    pub segments: Vec<(SegmentId, u64)>,
    /// The file's segments the pass put into a pack, each with where
    /// (DESIGN §4, decision 19); empty for a file of its own segments.
    pub packed: Vec<(SegmentId, PackSlot)>,
}

impl FileSegmentation {
    /// Pools the file's segments in `image`, each with its length, and
    /// those the pass packed as members of their packs.
    pub fn pool(&self, image: &mut SyncFolderImage) {
        for (id, len) in &self.segments {
            image.ensure_segment(*id, *len);
        }
        for (id, slot) in &self.packed {
            let len = self.segments.iter().find(|(s, _)| s == id).map_or(0, |(_, len)| *len);
            image.ensure_segment(slot.pack, slot.pack_len);
            image.ensure_member(*id, len, slot.pack, slot.offset);
        }
    }
}

/// Where a pass put a small file's segment: at `offset` in the pack
/// `pack`, a segment of `pack_len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackSlot {
    /// The pack's id, the SHA-1 of its bytes.
    pub pack: SegmentId,
    /// The pack's length.
    pub pack_len: u64,
    /// The member's offset in the pack.
    pub offset: u64,
}

/// A file shorter than θ / `SMALL_DIVISOR` is *small*: a pass codes the
/// new segments of its small files as packs (DESIGN §4, decision 19).
/// At θ = 4 MiB that is 64 KiB.
const SMALL_DIVISOR: usize = 64;

/// A pack holds at most θ / `PACK_DIVISOR` bytes: 128 KiB at θ = 4 MiB,
/// so no pack, block or decode buffer of one is larger.
const PACK_DIVISOR: usize = 32;

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

/// The live members of sparse packs moved out of them
/// ([`DataPlane::repack`]), for the caller to commit.
#[derive(Debug, Clone)]
pub(crate) struct Repack {
    /// `(member, length, where it went)`: its slot in a fresh pack, or
    /// `None` when it went up on its own blocks.
    pub moved: Vec<(SegmentId, u64, Option<PackSlot>)>,
    /// Every block the upload placed.
    pub blocks: Vec<(SegmentId, BlockRef)>,
}

impl Repack {
    /// `image` with the moves applied: fresh packs pooled with their
    /// blocks, each member pointed into its fresh pack or stored on its
    /// own blocks. Its old packs are then garbage.
    pub(crate) fn apply(&self, image: &mut SyncFolderImage) {
        for (id, len, slot) in &self.moved {
            if let Some(slot) = slot {
                image.ensure_segment(slot.pack, slot.pack_len);
                image.ensure_member(*id, *len, slot.pack, slot.offset);
            }
        }
        for (id, block) in &self.blocks {
            image.record_block(*id, *block);
        }
    }
}

/// What the block objects the clouds list say against an image
/// ([`DataPlane::audit`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockAudit {
    /// Objects the image does not name: `(cloud, name, size)`.
    pub unnamed: Vec<(u16, String, u64)>,
    /// Blocks the image names that their cloud does not list.
    pub missing: Vec<(SegmentId, BlockRef)>,
    /// Live segments below fair share on a listed cloud, counting only
    /// present blocks, each with those blocks.
    pub short: Vec<(SegmentId, Vec<BlockRef>)>,
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
        let probe = Arc::new(BandwidthProbe::new(clouds.len(), 1_000_000.0));
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
            packed: Vec::new(),
        }
    }

    /// Uploads a batch of files: segments them, skips segments in
    /// `known` (deduplication against the current metadata), and runs
    /// the two-phase over-provisioning scheduler under `parent`'s span.
    /// Returns the upload report plus the per-file segmentations (for
    /// metadata snapshots).
    ///
    /// The files are cut and hashed first, each re-cut from its
    /// request's `previous` cut, on up to `min(available_parallelism,
    /// files, ⌈bytes / θ⌉)` scoped threads (on the caller's thread when
    /// that is one). The workers only cut and hash: they make no
    /// runtime call and record nothing, so a simulated schedule does
    /// not see them, and they are joined before the batch spawns. The
    /// `upload.ingest` span under `parent` covers them.
    ///
    /// Without a `sink` the call returns when the batch is done and the
    /// report's `blocks` are every placement. With one, every placement
    /// goes to the sink as it lands, and the call returns once every
    /// file is *available* (k blocks of each segment): the
    /// reliability-second work runs on in the background.
    pub fn upload_files(
        &self,
        requests: Vec<UploadRequest>,
        known: &HashSet<SegmentId>,
        sink: Option<BlockSink>,
        parent: Option<SpanId>,
    ) -> (UploadReport, Vec<FileSegmentation>) {
        let obs = &self.config.obs;
        let mut ingest = obs.span("upload.ingest", parent);
        let bytes: usize = requests.iter().map(|r| r.data.len()).sum();
        let config = &self.config.chunker;
        let threads = cores().min(requests.len()).min(bytes.div_ceil(config.theta));
        let cuts = on_threads(&requests, threads, |req| {
            let previous: Vec<_> = req.previous.iter().map(|(id, len)| (id.0, *len as usize)).collect();
            segment_bytes_after(&req.data, config, &previous)
        });
        let mut reused_bytes = 0;
        for (req, (segments, reused)) in requests.iter().zip(&cuts) {
            obs.series_add("chunker.bytes", "rabin", (req.data.len() - reused) as u64);
            if *reused > 0 {
                obs.series_add("chunker.bytes", "reused", *reused as u64);
            }
            obs.series_add("chunker.segments", "rabin", segments.len() as u64);
            reused_bytes += reused;
        }
        ingest.attr_u64("files", requests.len() as u64);
        ingest.attr_u64("bytes", bytes as u64);
        ingest.attr_u64("reused_bytes", reused_bytes as u64);
        ingest.attr_u64("threads", threads as u64);

        let small_below = config.theta / SMALL_DIVISOR;
        let mut segmentations = Vec::new();
        let mut uploads = Vec::new();
        let mut small = Vec::new();
        let mut scheduled: HashSet<SegmentId> = HashSet::new();
        for (req, (cuts, _)) in requests.into_iter().zip(cuts) {
            let mut seg_meta = Vec::new();
            let mut to_send = Vec::new();
            for s in cuts {
                let id = SegmentId(s.digest);
                seg_meta.push((id, s.len as u64));
                if !known.contains(&id) && scheduled.insert(id) {
                    to_send.push(SegmentData {
                        id,
                        data: req.data.slice(s.range()),
                        pack: false,
                    });
                }
            }
            if req.data.len() < small_below && to_send.len() == 1 {
                small.push(to_send[0].clone());
            }
            segmentations.push(FileSegmentation {
                path: req.path.clone(),
                segments: seg_meta,
                packed: Vec::new(),
            });
            uploads.push(FileUpload {
                path: req.path,
                segments: to_send,
            });
        }
        let packs = pack(small, config.theta / PACK_DIVISOR);
        let mut slots: HashMap<SegmentId, (usize, PackSlot)> = HashMap::new();
        for (p, (data, members)) in packs.iter().enumerate() {
            for (id, offset) in members {
                let (pack, pack_len) = (data.id, data.data.len() as u64);
                slots.insert(*id, (p, PackSlot { pack, pack_len, offset: *offset }));
            }
        }
        // Every file naming a packed segment waits for its pack, which
        // takes the segment's place in the upload.
        for (upload, seg) in uploads.iter_mut().zip(&mut segmentations) {
            seg.packed = seg.segments.iter().filter_map(|(id, _)| Some((*id, slots.get(id)?.1))).collect();
            upload.segments.retain(|s| !slots.contains_key(&s.id));
            for (id, _) in &seg.packed {
                let data = &packs[slots[id].0].0;
                if !known.contains(&data.id) {
                    upload.segments.push(data.clone());
                }
            }
        }
        ingest.attr_u64("packed_files", segmentations.iter().filter(|s| !s.packed.is_empty()).count() as u64);
        ingest.attr_u64("packs", packs.len() as u64);
        ingest.end();
        (self.run_upload(uploads, sink, parent), segmentations)
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
    ) -> Result<Bytes, DownloadError> {
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
    ) -> Result<Bytes, DownloadError> {
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
    /// baseline's manifest); the batch span is parented to `parent`. A
    /// pack is fetched once for all its members wanted, and each member
    /// is a zero-copy slice of it, kept only if its SHA-1 is its id.
    ///
    /// # Errors
    ///
    /// [`DownloadError::NotEnoughBlocks`] with `got: 0` for a segment
    /// to fetch that `locate` does not know (metadata read from a cloud
    /// can name one its pool lacks);
    /// [`DownloadError::IntegrityMismatch`] naming a pack member whose
    /// range of its pack is not its bytes; otherwise the last failure
    /// of the batch.
    pub fn download_files<'a>(
        &self,
        files: &'a [&'a [SegmentId]],
        bases: &[LocalBase],
        locate: impl Fn(&SegmentId) -> Option<SegmentFetch>,
        parent: Option<SpanId>,
    ) -> Result<impl Iterator<Item = Bytes> + 'a, DownloadError> {
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
        let members: Vec<(SegmentId, Member)> =
            fetches.iter().filter_map(|f| Some((f.id, f.member?))).collect();
        let mut report = self.download_batch(fetches, local, parent);
        if let Some(err) = report.failed.pop() {
            return Err(err);
        }
        let mut fetched = report.segments;
        let mut slices = Vec::with_capacity(members.len());
        for (pack, m) in &members {
            let end = m.offset.checked_add(m.len).filter(|end| *end <= fetched[pack].len() as u64);
            let Some(end) = end else {
                return Err(DownloadError::IntegrityMismatch { segment: m.id });
            };
            slices.push((m.id, fetched[pack].slice(m.offset as usize..end as usize)));
        }
        let sliced = verified(&slices);
        if sliced.len() < slices.len() {
            let ok: HashSet<SegmentId> = sliced.iter().map(|(id, _)| *id).collect();
            let bad = slices.iter().find(|(id, _)| !ok.contains(id)).expect("one failed");
            return Err(DownloadError::IntegrityMismatch { segment: bad.0 });
        }
        fetched.extend(sliced);
        // A one-segment file is that segment's buffer; a longer one is
        // concatenated once, sized from the segments actually fetched,
        // never from a size the metadata claims.
        Ok(files.iter().map(move |ids| match ids {
            [id] => fetched[id].clone(),
            _ => {
                let parts: Vec<&[u8]> = ids.iter().map(|id| &fetched[id][..]).collect();
                Bytes::from(parts.concat())
            }
        }))
    }

    /// The `wanted` segments that `bases` hold: the first range a
    /// layout names with a wanted id is hashed and kept iff the digest
    /// is the id. Layout lengths come from metadata, so a base is
    /// walked only once they are known to sum to its length. The
    /// ranges are collected first and hashed on up to
    /// `available_parallelism` scoped threads: pure hashing, no
    /// runtime call, so a simulated schedule does not see them.
    fn local_hits(
        &self,
        bases: &[LocalBase],
        wanted: &HashSet<SegmentId>,
    ) -> HashMap<SegmentId, Bytes> {
        let mut ranges = Vec::new();
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
                    ranges.push((*id, base.data.slice(offset..end)));
                }
                offset = end;
            }
        }
        let hits: HashMap<SegmentId, Bytes> = verified(&ranges).into_iter().collect();
        if !hits.is_empty() {
            let obs = &self.config.obs;
            obs.series_add("download.local_segments", "all", hits.len() as u64);
            let bytes = hits.values().map(|b| b.len() as u64).sum();
            obs.series_add("download.local_bytes", "all", bytes);
        }
        hits
    }

    /// Moves the live members of every sparse pack of `image` — one
    /// whose live members hold less than half its bytes — out of it: it
    /// fetches them (each pack once), packs them as a pass packs small
    /// files and uploads the result as one joined batch under `parent`.
    /// A member no fresh pack takes goes up on its own blocks. `None`
    /// when no pack is sparse, or when the fetch or an upload failed;
    /// what landed then stays, since a peer may upload and commit the
    /// same content-addressed blocks.
    pub(crate) fn repack(&self, image: &SyncFolderImage, parent: Option<SpanId>) -> Option<Repack> {
        let live = image.referenced();
        let mut packs: BTreeMap<SegmentId, (u64, Vec<(SegmentId, u64)>)> = BTreeMap::new();
        for (id, entry) in image.segments().filter(|(id, _)| live.contains(id)) {
            if let Some((pack, _)) = entry.packed {
                let (bytes, members) = packs.entry(pack).or_default();
                *bytes += entry.len;
                members.push((*id, entry.len));
            }
        }
        let sparse = packs.iter().filter(|(pack, (bytes, _))| {
            image.segment(pack).is_some_and(|p| 2 * bytes < p.len)
        });
        let members: Vec<(SegmentId, u64)> = sparse.flat_map(|(_, (_, m))| m.iter().copied()).collect();
        if members.is_empty() {
            return None;
        }
        let ids: Vec<SegmentId> = members.iter().map(|(id, _)| *id).collect();
        let files: Vec<&[SegmentId]> = ids.iter().map(std::slice::from_ref).collect();
        let locate = |id: &SegmentId| SegmentFetch::from_image(image, id);
        let data = self.download_files(&files, &[], locate, parent).ok()?;
        let segments: Vec<SegmentData> = ids.iter().zip(data).map(|(id, data)| SegmentData { id: *id, data, pack: false }).collect();
        let fresh = pack(segments.clone(), self.config.chunker.theta / PACK_DIVISOR);
        let mut slots: HashMap<SegmentId, PackSlot> = HashMap::new();
        let mut upload: Vec<SegmentData> = Vec::new();
        for (data, packed) in fresh {
            for (id, offset) in packed {
                slots.insert(id, PackSlot { pack: data.id, pack_len: data.data.len() as u64, offset });
            }
            upload.push(data);
        }
        upload.extend(segments.into_iter().filter(|s| !slots.contains_key(&s.id)));
        let batch = vec![FileUpload { path: "repack".into(), segments: upload }];
        let report = self.run_upload(batch, None, parent);
        if !report.all_available() {
            return None;
        }
        let moved = members.iter().map(|(id, len)| (*id, *len, slots.get(id).copied())).collect();
        Some(Repack { moved, blocks: report.blocks })
    }

    /// Deletes stored blocks of garbage-collected segments from the
    /// clouds: one delete per block, every cloud's
    /// connections working through that cloud's blocks in the order
    /// given, retried under [`DataPlaneConfig::retry`], joined before
    /// returning. Best effort: a block whose delete still fails stays
    /// behind. The batch span (label `gc`) is parented to `parent`.
    pub fn delete_blocks(
        &self,
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
        self.run_plan("gc", plan, parent);
    }

    /// Compares one `list(BLOCKS_DIR)` per cloud with `image`. A cloud
    /// whose listing fails is taken to hold what the image says.
    pub fn audit(&self, image: &SyncFolderImage) -> BlockAudit {
        let (rt, retry) = (Arc::clone(&self.rt), self.config.retry.clone());
        let mut listings = quorum::fan_out(&self.rt, &self.clouds, "block-audit", move |_, cloud| {
            match Retry::new(&rt, &retry).run(|| cloud.list(BLOCKS_DIR)) {
                Err(CloudError::NotFound { .. }) => Some(BTreeMap::new()),
                listed => listed.ok().map(|l| l.into_iter().map(|o| (o.name, o.size)).collect()),
            }
        });
        let fair = self.config.redundancy.fair_share();
        let live = image.referenced();
        let mut audit = BlockAudit::default();
        // A pack member's blocks are its pack's, audited as the pack's.
        for (id, entry) in image.segments().filter(|(_, e)| e.packed.is_none()) {
            let mut present = Vec::new();
            for b in &entry.blocks {
                let name = &block_path(id, b.index)[BLOCKS_DIR.len() + 1..];
                // An unlisted cloud holds it; a removed one does not.
                let listing = listings.get_mut(b.cloud as usize);
                match listing.is_some_and(|l| l.as_mut().is_none_or(|l| l.remove(name).is_some())) {
                    true => present.push(*b),
                    false => audit.missing.push((*id, *b)),
                }
            }
            let held = |cloud| present.iter().filter(|b| b.cloud as usize == cloud).count();
            let mut listed = listings.iter().enumerate().filter(|(_, l)| l.is_some());
            if live.contains(id) && listed.any(|(cloud, _)| held(cloud) < fair) {
                audit.short.push((*id, present));
            }
        }
        // What the image named is gone from the listings: the rest is
        // unnamed.
        for (cloud, listing) in listings.into_iter().enumerate() {
            let unnamed = listing.into_iter().flatten();
            audit.unnamed.extend(unnamed.map(|(name, size)| (cloud as u16, name, size)));
        }
        audit
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

/// `segments`, the new segments of a pass's small files in request
/// order, concatenated into packs of at most `cap` bytes: a pack closes
/// when the next segment would take it past `cap`. Each pack is
/// returned with its members' `(id, offset)`; a segment left alone in
/// its pack stays as it is and is in none. Packs are joined and hashed
/// on the caller's thread: a pass's packs hash in about a millisecond,
/// and buffers made on short-lived threads stay in their allocator
/// arenas (+10 MiB `peak_rss_mib` on `wire_small`).
fn pack(segments: Vec<SegmentData>, cap: usize) -> Vec<(SegmentData, Vec<(SegmentId, u64)>)> {
    let mut groups: Vec<Vec<SegmentData>> = Vec::new();
    let mut fill = 0;
    for segment in segments {
        let len = segment.data.len();
        match groups.last_mut() {
            Some(group) if fill + len <= cap => group.push(segment),
            _ => {
                groups.push(vec![segment]);
                fill = 0;
            }
        }
        fill += len;
    }
    groups.retain(|g| g.len() > 1);
    let joined = groups.into_iter().map(|group| {
        let mut data = Vec::with_capacity(group.iter().map(|s| s.data.len()).sum());
        let mut members = Vec::with_capacity(group.len());
        for s in group {
            members.push((s.id, data.len() as u64));
            data.extend_from_slice(&s.data);
        }
        let id = SegmentId(Sha1::digest(&data));
        (SegmentData { id, data: Bytes::from(data), pack: true }, members)
    });
    joined.collect()
}

/// The `ranges` whose SHA-1 is their id, hashed on up to
/// `available_parallelism` threads.
fn verified(ranges: &[(SegmentId, Bytes)]) -> Vec<(SegmentId, Bytes)> {
    let threads = cores().min(ranges.len());
    let hashed = on_threads(ranges, threads, |(id, range)| {
        (Sha1::digest(range) == id.0).then(|| (*id, range.clone()))
    });
    hashed.into_iter().flatten().collect()
}

/// The host's `available_parallelism`, 1 when it cannot say.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f` of every item, in item order, computed on up to `threads`
/// scoped threads that each take the next item not yet taken (on the
/// caller's thread when `threads` is at most one). There is no pool:
/// the threads end before this returns. `f` must not call the runtime.
fn on_threads<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        workers.into_iter().flat_map(|w| w.join().expect("scoped worker panicked")).collect()
    });
    results.sort_unstable_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
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
                previous: Vec::new(),
            }],
            &HashSet::new(),
            None,
            None,
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
                previous: Vec::new(),
            }],
            &HashSet::new(),
            None,
            None,
        );
        assert!(!first.blocks.is_empty());
        let known: HashSet<SegmentId> = segs[0].segments.iter().map(|(id, _)| *id).collect();
        let (second, _) = plane.upload_files(
            vec![UploadRequest {
                path: "b".into(),
                data,
                previous: Vec::new(),
            }],
            &known,
            None,
            None,
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
                previous: Vec::new(),
            }],
            &HashSet::new(),
            None,
            None,
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

    /// The audit of a real upload: a deleted block is missing and leaves
    /// its segment short on that cloud, a stray object is unnamed, and a
    /// cloud that cannot list is taken at the image's word.
    #[test]
    fn audit_finds_missing_unnamed_and_short_and_trusts_an_unlisted_cloud() {
        let sim = SimRuntime::new(8);
        let steady = SimCloudConfig::steady(2e6, 1e7);
        let handles: Vec<Arc<SimCloud>> = (0..5)
            .map(|i| Arc::new(SimCloud::new(&sim, format!("c{i}"), steady.clone())))
            .collect();
        let clouds = handles.iter().map(|c| Arc::clone(c) as Arc<dyn CloudStore>).collect();
        let redundancy = RedundancyConfig::new(5, 3, 3, 2).unwrap();
        let config = DataPlaneConfig::with_params(redundancy, 64 * 1024);
        let plane = DataPlane::new(sim.clone().as_runtime(), CloudSet::new(clouds), config);
        let file = UploadRequest { path: "f".into(), data: content(100_000, 5), previous: Vec::new() };
        let (report, segs) = plane.upload_files(vec![file], &HashSet::new(), None, None);
        let mut image = SyncFolderImage::new();
        for (id, len) in &segs[0].segments {
            image.ensure_segment(*id, *len);
        }
        for (id, b) in &report.blocks {
            image.record_block(*id, *b);
        }
        let segments = segs[0].segments.iter().map(|(id, _)| *id).collect();
        image.upsert_file("f", Snapshot { segments });
        let id = segs[0].segments[0].0;
        assert_eq!(plane.audit(&image), BlockAudit::default(), "the upload as recorded");

        let (lost, present): (Vec<BlockRef>, Vec<BlockRef>) =
            image.segment(&id).unwrap().blocks.iter().partition(|b| b.cloud == 1);
        for b in &lost {
            handles[1].delete(&block_path(&id, b.index)).unwrap();
        }
        handles[2].upload(&format!("{BLOCKS_DIR}/stray"), Bytes::from_static(b"x")).unwrap();
        handles[3].set_available(false);
        let audit = plane.audit(&image);
        assert_eq!(audit.missing, lost.iter().map(|b| (id, *b)).collect::<Vec<_>>());
        assert_eq!(audit.unnamed, vec![(2, "stray".to_owned(), 1)]);
        assert_eq!(audit.short, vec![(id, present)]);
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
    /// panic.
    #[test]
    fn snapshot_naming_an_unpooled_segment_is_an_error() {
        let (_sim, plane) = plane(6);
        let id = SegmentId(Sha1::digest(b"never pooled"));
        let snapshot = Snapshot { segments: vec![id] };
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
                previous: Vec::new(),
            }],
            &HashSet::new(),
            None,
            None,
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
            let before = registry.series_snapshot();
            let bases = [LocalBase {
                data: base,
                layout: layout.clone(),
            }];
            let locate = |id: &SegmentId| SegmentFetch::from_image(&image, id);
            let got: Vec<Bytes> = plane
                .download_files(&[&ids[..]], &bases, locate, None)
                .unwrap()
                .collect();
            assert_eq!(got, vec![data.clone()]);
            let after = registry.series_snapshot();
            let grew = |metric: &str| {
                let (a, b) = (after.merged(metric), before.merged(metric));
                (a.sum - b.sum, a.count - b.count)
            };
            (grew("download.local_segments").0, grew("download.block_ns").1)
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
    }

    #[test]
    fn ingest_emits_chunker_series() {
        // The chunker.* windowed series surface in obs_report's
        // sparkline digest; here we pin that ingest records them,
        // labelled `rabin`, with sane values.
        let registry = unidrive_obs::Registry::new();
        registry.set_clock(|| 1);
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
                previous: Vec::new(),
            }],
            &HashSet::new(),
            None,
            None,
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
                segments: segs[0].segments.iter().map(|(id, _)| *id).collect(),
            },
        );
        assert_eq!(plane.download_file(&image, "big.bin").unwrap(), data.to_vec());
    }
}
