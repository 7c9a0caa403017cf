//! The UniDrive client: ties the local folder, the data plane, the
//! quorum lock and the metadata store into Algorithm 1 (paper §5.2).
//!
//! One [`sync_once`](UniDriveClient::sync_once) call performs one pass:
//!
//! 1. scan the folder for local updates (the ChangedFileList);
//! 2. if any exist: upload their data blocks *first* (freely, without
//!    coordination — blocks are immutable), then take the quorum lock,
//!    merge with any pending cloud update, commit metadata (delta-sync,
//!    compacting when past λ), release;
//! 3. otherwise: check the small version file; if the cloud moved,
//!    download the cloud update and materialize it into the folder.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use unidrive_util::bytes::Bytes;
use unidrive_cloud::CloudSet;
use unidrive_meta::{
    diff, merge3, parse_block_name, BlockRef, DeltaRecord, LockConfig, MetaMode, MetaPlane,
    PlaneError, SegmentId, Snapshot, SyncFolderImage, VersionStamp,
};
use unidrive_obs::SpanId;
use unidrive_sim::{Runtime, SimRng, Time};

use crate::dataplane::{BlockAudit, DataPlane, LocalBase, UploadRequest};
use crate::upload::BlockSink;
use crate::folder::{LocalChange, LocalStat, SyncFolder};
use crate::lock_plane::LockPlane;
use crate::oplog_plane::OplogPlane;
use crate::plan::DataPlaneConfig;
use crate::rebalance::repair;
use crate::{DownloadError, SegmentFetch};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Device name (must be unique per device of the user).
    pub device: String,
    /// Passphrase the metadata key is derived from.
    pub passphrase: String,
    /// Data-plane parameters.
    pub data: DataPlaneConfig,
    /// Lock protocol parameters.
    pub lock: LockConfig,
    /// τ: how often [`run_for`](UniDriveClient::run_for) polls for cloud
    /// updates.
    pub poll_interval: Duration,
    /// Delta-sync compaction ratio (paper: 0.25 of the base size).
    pub delta_ratio: f64,
    /// Delta-sync compaction floor in bytes (paper: 10 KB).
    pub delta_floor: usize,
    /// Which metadata plane coordinates commits (default: the paper's
    /// quorum-locked plane).
    pub meta_mode: MetaMode,
}

impl ClientConfig {
    /// The paper's defaults for a device named `device`.
    pub fn paper_default(device: impl Into<String>) -> Self {
        ClientConfig {
            device: device.into(),
            passphrase: "unidrive-default".into(),
            data: DataPlaneConfig::paper_default(),
            lock: LockConfig::default(),
            poll_interval: Duration::from_secs(30),
            delta_ratio: 0.25,
            delta_floor: 10 * 1024,
            meta_mode: MetaMode::Lock,
        }
    }
}

/// Builds the metadata plane `config.meta_mode` selects, over `clouds`.
pub fn build_plane(
    rt: Arc<dyn Runtime>,
    clouds: CloudSet,
    config: &ClientConfig,
    rng: SimRng,
) -> Box<dyn MetaPlane> {
    match config.meta_mode {
        MetaMode::Lock => Box::new(LockPlane::new(rt, clouds, config, rng)),
        MetaMode::Oplog => Box::new(OplogPlane::new(rt, clouds, config, rng)),
    }
}

/// Error from a sync pass.
#[derive(Debug)]
pub enum SyncError {
    /// The metadata plane could not take its lock, reach a quorum of
    /// clouds, or read or commit the metadata.
    Plane(PlaneError),
    /// A cloud-update file could not be reconstructed.
    Download(DownloadError),
    /// Local folder I/O failed.
    Folder(crate::folder::FolderError),
    /// The pass committed, then could not bring the folder up to its
    /// commit: `report` names what it uploaded and deleted in the
    /// clouds, `cause` what failed. The next pass fetches the rest.
    Committed {
        /// What the pass committed (and fetched before `cause`).
        report: Box<SyncReport>,
        /// The download or folder error that cut the pass short.
        cause: Box<SyncError>,
    },
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Plane(
                e @ (PlaneError::Contended { .. } | PlaneError::QuorumUnreachable { .. }),
            ) => write!(f, "lock: {e}"),
            SyncError::Plane(e) => write!(f, "metadata: {e}"),
            SyncError::Download(e) => write!(f, "download: {e}"),
            SyncError::Folder(e) => write!(f, "folder: {e}"),
            SyncError::Committed { report, cause } => write!(
                f,
                "committed {} uploads and {} deletes, then {cause}",
                report.uploaded.len(),
                report.deleted_remotely.len()
            ),
        }
    }
}

impl std::error::Error for SyncError {}

impl From<PlaneError> for SyncError {
    fn from(e: PlaneError) -> Self {
        SyncError::Plane(e)
    }
}

/// What a conflict resolution keeps
/// ([`UniDriveClient::resolve_conflict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// The version that won the merge.
    Current,
    /// The copy at this place in [`UniDriveClient::conflict_copies`].
    Copy(usize),
}

/// What one sync pass did.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// Files whose content was uploaded and committed.
    pub uploaded: Vec<String>,
    /// Files written locally from a cloud update.
    pub downloaded: Vec<String>,
    /// Files deleted locally from a cloud update.
    pub deleted_locally: Vec<String>,
    /// Deletions committed to the cloud.
    pub deleted_remotely: Vec<String>,
    /// Paths with unresolved conflicts after this pass.
    pub conflicts: Vec<String>,
    /// Files whose upload did not finish (will retry next pass).
    pub deferred: Vec<String>,
}

impl SyncReport {
    /// Whether the pass changed nothing anywhere.
    pub fn is_noop(&self) -> bool {
        self.uploaded.is_empty()
            && self.downloaded.is_empty()
            && self.deleted_locally.is_empty()
            && self.deleted_remotely.is_empty()
            && self.deferred.is_empty()
    }
}

/// A UniDrive device: one sync folder synchronized through N clouds.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use unidrive_cloud::{CloudSet, CloudStore, SimCloud, SimCloudConfig};
/// use unidrive_core::{ClientConfig, DataPlaneConfig, MemFolder, SyncFolder, UniDriveClient};
/// use unidrive_erasure::RedundancyConfig;
/// use unidrive_sim::{SimRng, SimRuntime};
///
/// let sim = SimRuntime::new(7);
/// let clouds = CloudSet::new(
///     (0..5)
///         .map(|i| {
///             Arc::new(SimCloud::new(&sim, format!("c{i}"),
///                 SimCloudConfig::steady(2e6, 8e6))) as Arc<dyn CloudStore>
///         })
///         .collect(),
/// );
/// let folder = MemFolder::new();
/// let mut config = ClientConfig::paper_default("laptop");
/// config.data = DataPlaneConfig::with_params(
///     RedundancyConfig::new(5, 3, 3, 2).unwrap(), 64 * 1024);
/// let mut client = UniDriveClient::new(
///     sim.clone().as_runtime(), clouds,
///     folder.clone() as Arc<dyn SyncFolder>, config, SimRng::seed_from_u64(1));
///
/// folder.write("hello.txt", b"hi", 1).unwrap();
/// let report = client.sync_once().unwrap();
/// assert_eq!(report.uploaded, vec!["hello.txt"]);
/// assert!(client.sync_once().unwrap().is_noop());
/// ```
pub struct UniDriveClient {
    rt: Arc<dyn Runtime>,
    folder: Arc<dyn SyncFolder>,
    plane: DataPlane,
    /// The metadata coordination plane (quorum-locked or oplog).
    meta: Box<dyn MetaPlane>,
    config: ClientConfig,
    /// v_o: the image as of the last successful sync.
    original: SyncFolderImage,
    /// Local (size, mtime) of every path as of the last sync — the
    /// reference for change detection on *this* device.
    shadow: BTreeMap<String, LocalStat>,
    /// The `(segment id, length)` cut this device's own last ingest
    /// made of each path: the hint its next upload re-cuts from. Kept
    /// across a download of the path (a stale cut of this config is
    /// still a valid hint), dropped wherever the shadow drops the path,
    /// and per process (a restarted device rescans in full once).
    cuts: HashMap<String, Vec<(SegmentId, u64)>>,
    /// This device's commit counter.
    counter: u64,
    /// Paths whose conflict the user resolved since the last commit:
    /// the next pass commits the resolution like any local change.
    resolved: BTreeSet<String>,
    /// Placements reported by background reliability workers since the
    /// last commit ("set asynchronously via callback", §5.1).
    pending_blocks: BlockSink,
    /// When this device last audited the block objects, and what it
    /// found: a scrub acts only on what two audits ΔT apart agree on.
    scrubbed: (Time, BlockAudit),
}

impl std::fmt::Debug for UniDriveClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniDriveClient")
            .field("device", &self.config.device)
            .field("files", &self.original.file_count())
            .finish()
    }
}

impl UniDriveClient {
    /// Creates a client for `folder` over `clouds`.
    pub fn new(
        rt: Arc<dyn Runtime>,
        clouds: CloudSet,
        folder: Arc<dyn SyncFolder>,
        config: ClientConfig,
        rng: SimRng,
    ) -> Self {
        let plane = DataPlane::new(Arc::clone(&rt), clouds.clone(), config.data.clone());
        let meta = build_plane(Arc::clone(&rt), clouds, &config, rng);
        UniDriveClient {
            scrubbed: (rt.now(), BlockAudit::default()),
            rt,
            folder,
            plane,
            meta,
            config,
            original: SyncFolderImage::new(),
            shadow: BTreeMap::new(),
            cuts: HashMap::new(),
            counter: 0,
            resolved: BTreeSet::new(),
            pending_blocks: std::sync::Arc::new(unidrive_util::sync::Mutex::new(Vec::new())),
        }
    }

    /// The image as of the last successful sync.
    pub fn image(&self) -> &SyncFolderImage {
        &self.original
    }

    /// The device name.
    pub fn device(&self) -> &str {
        &self.config.device
    }

    /// The data plane (benchmarks use it directly).
    pub fn data_plane(&self) -> &DataPlane {
        &self.plane
    }

    /// Paths with unresolved conflicts in the current image, less those
    /// resolved since the last commit.
    pub fn conflicts(&self) -> Vec<String> {
        self.original
            .files()
            .filter(|(p, e)| !e.conflicts.is_empty() && !self.resolved.contains(*p))
            .map(|(p, _)| p.to_owned())
            .collect()
    }

    /// Fetches every conflict copy the image retains for `path` (the
    /// losing versions of concurrent edits), each with the device whose
    /// version it is, so the user can inspect them or restore one. The
    /// order is the image's; [`Keep::Copy`] names a copy by its place in
    /// it. Empty when the path holds no copy.
    ///
    /// # Errors
    ///
    /// [`DownloadError`] if a copy's blocks are unreachable.
    pub fn conflict_copies(&self, path: &str) -> Result<Vec<(String, Bytes)>, DownloadError> {
        let Some(entry) = self.original.file(path) else {
            return Ok(Vec::new());
        };
        entry
            .conflicts
            .iter()
            .map(|(device, snapshot)| {
                let data = self.plane.download_snapshot(&self.original, snapshot)?;
                Ok((device.clone(), data))
            })
            .collect()
    }

    /// Resolves the conflict on `path`. [`Keep::Current`] keeps the
    /// snapshot that won the merge; [`Keep::Copy`] restores that copy as
    /// the file's content (locally and, at the next sync pass, in the
    /// cloud metadata). Either way the next sync pass commits the
    /// resolution, which removes every copy this device's image shows on
    /// every device; a copy another device added since stays. Returns
    /// whether an unresolved conflict with the named copy existed.
    ///
    /// # Errors
    ///
    /// [`SyncError::Download`] if the kept copy's blocks are
    /// unreachable, [`SyncError::Folder`] on local write failures.
    pub fn resolve_conflict(&mut self, path: &str, keep: Keep) -> Result<bool, SyncError> {
        if !self.conflicts().iter().any(|p| p == path) {
            return Ok(false);
        }
        if let Keep::Copy(i) = keep {
            let entry = self.original.file(path).expect("conflict checked above");
            let Some((_, snapshot)) = entry.conflicts.iter().nth(i) else {
                return Ok(false);
            };
            let data = self
                .plane
                .download_snapshot(&self.original, snapshot)
                .map_err(SyncError::Download)?;
            let mtime = self.rt.now().as_nanos();
            self.folder
                .write(path, &data, mtime)
                .map_err(SyncError::Folder)?;
            // Leave the shadow stale so the next sync pass detects the
            // restored content as a local change and commits it.
            self.shadow.remove(path);
            self.cuts.remove(path);
        }
        self.resolved.insert(path.to_owned());
        Ok(true)
    }

    /// One pass of Algorithm 1. Returns what changed.
    ///
    /// # Errors
    ///
    /// [`SyncError`] on lock, metadata, download or folder failures. A
    /// pass that fails before its commit lands leaves the client state
    /// unchanged and can be retried. One that fails after it, fetching
    /// the cloud changes its commit merged in, returns
    /// [`SyncError::Committed`] with what it committed, and the client
    /// resumes from the image it committed against plus its own
    /// changes, so the next pass fetches only the cloud side's.
    pub fn sync_once(&mut self) -> Result<SyncReport, SyncError> {
        let t0 = self.rt.now();
        // Root of the causal chain: everything this pass does — lock
        // rounds, metadata reads/merges/commits, transfer batches and
        // their per-block spans — parents (transitively) to this span.
        let mut rspan = self.config.data.obs.span("sync.round", None);
        rspan.attr_str("device", self.config.device.as_str());
        let round = rspan.id();
        let result = self.sync_pass(round);
        let elapsed_ns = self.rt.now().saturating_duration_since(t0).as_nanos() as u64;
        let outcome = match &result {
            Ok(r) if !r.uploaded.is_empty() || !r.deleted_remotely.is_empty() => "committed",
            Ok(r) if !r.downloaded.is_empty() || !r.deleted_locally.is_empty() => "fetched",
            Ok(_) => "clean",
            Err(_) => "error",
        };
        rspan.attr_str("outcome", outcome);
        rspan.end();
        let obs = &self.config.data.obs;
        obs.series_add("client.sync_rounds", outcome, 1);
        obs.series_observe("client.sync_round_ns", self.config.device.as_str(), elapsed_ns);
        result
    }

    fn sync_pass(&mut self, round: Option<SpanId>) -> Result<SyncReport, SyncError> {
        let changes = self.scan_local_changes().map_err(SyncError::Folder)?;
        let has_pending_blocks = !self.pending_blocks.lock().is_empty();
        if !changes.is_empty() || has_pending_blocks || !self.resolved.is_empty() {
            // Dedup only against segments a snapshot still names. One a
            // peer collects after this image was read is caught inside
            // the transaction.
            let mut known = self.original.referenced();
            known.retain(|id| !self.original.blocks_of(id).is_empty());
            self.commit_local_update(changes, known, round)
        } else {
            self.check_cloud_update(round)
        }
    }

    /// Runs the client loop for `duration`, syncing every τ. Returns the
    /// merged reports of all passes.
    pub fn run_for(&mut self, duration: Duration) -> Vec<SyncReport> {
        let deadline = self.rt.now() + duration;
        let mut reports = Vec::new();
        loop {
            if let Ok(report) = self.sync_once() {
                if !report.is_noop() {
                    reports.push(report);
                }
            }
            if self.rt.now() + self.config.poll_interval >= deadline {
                break;
            }
            self.rt.sleep(self.config.poll_interval);
        }
        reports
    }

    fn scan_local_changes(
        &self,
    ) -> Result<Vec<(LocalChange, Option<Bytes>)>, crate::folder::FolderError> {
        let current = self.folder.scan()?;
        let mut out = Vec::new();
        for (path, stat) in &current {
            let unchanged = self.shadow.get(path) == Some(stat);
            if !unchanged {
                let data = self.folder.read(path)?;
                out.push((
                    LocalChange::Changed {
                        path: path.clone(),
                        stat: *stat,
                    },
                    Some(data),
                ));
            }
        }
        for path in self.shadow.keys() {
            if !current.contains_key(path) {
                out.push((
                    LocalChange::Deleted {
                        path: path.clone(),
                    },
                    None,
                ));
            }
        }
        Ok(out)
    }

    /// Commit path of Algorithm 1 (lines 2–14).
    fn commit_local_update(
        &mut self,
        changes: Vec<(LocalChange, Option<Bytes>)>,
        mut known: HashSet<SegmentId>,
        round: Option<SpanId>,
    ) -> Result<SyncReport, SyncError> {
        let mut report = SyncReport::default();

        // 1. Upload content data blocks first — no coordination needed,
        //    blocks are immutable (paper §5.2) — skipping the `known`
        //    segments, whose blocks the image already names.
        let mut requests = Vec::new();
        let mut stats: BTreeMap<String, LocalStat> = BTreeMap::new();
        for (change, data) in &changes {
            if let (LocalChange::Changed { path, stat }, Some(data)) = (change, data) {
                requests.push(UploadRequest {
                    path: path.clone(),
                    data: data.clone(),
                    previous: self.cuts.get(path).cloned().unwrap_or_default(),
                });
                stats.insert(path.clone(), *stat);
            }
        }
        let (upload, segmentations) = self.plane.upload_files(
            requests,
            &known,
            Some(Arc::clone(&self.pending_blocks)),
            round,
        );
        for segmentation in &segmentations {
            self.cuts.insert(segmentation.path.clone(), segmentation.segments.clone());
        }

        // 2. Build the local image v_l with the resolutions and the
        //    files whose uploads completed; defer the rest to the next
        //    pass.
        let mut local = self.original.clone();
        for path in &self.resolved {
            local.resolve_conflict(path);
        }
        let mut committed_stats: BTreeMap<String, Option<LocalStat>> = BTreeMap::new();
        let mut packed: Vec<(SegmentId, crate::dataplane::PackSlot)> = Vec::new();
        for (result, segmentation) in upload.files.iter().zip(&segmentations) {
            if result.available_at.is_none() {
                report.deferred.push(result.path.clone());
                continue;
            }
            segmentation.pool(&mut local);
            packed.extend(segmentation.packed.iter().copied());
            let stat = stats[&segmentation.path];
            let snapshot = Snapshot {
                segments: segmentation.segments.iter().map(|(id, _)| *id).collect(),
            };
            if local
                .file(&segmentation.path)
                .is_some_and(|e| e.snapshot == snapshot)
            {
                // A touch: the bytes are what the image holds already.
                self.shadow.insert(segmentation.path.clone(), stat);
                continue;
            }
            local.upsert_file(&segmentation.path, snapshot);
            report.uploaded.push(segmentation.path.clone());
            committed_stats.insert(segmentation.path.clone(), Some(stat));
        }
        for (change, _) in &changes {
            if let LocalChange::Deleted { path } = change {
                local.delete_file(path);
                report.deleted_remotely.push(path.clone());
                committed_stats.insert(path.clone(), None);
            }
        }
        let nothing = report.uploaded.is_empty() && report.deleted_remotely.is_empty();
        if nothing && self.resolved.is_empty() {
            // Only the sink can make this pass commit: a placement of a
            // segment `local` pools and does not name yet. Without one,
            // nothing became committable (e.g. total upload failure, or
            // a pass woken only by stragglers of collected segments):
            // the sink empties here, and the stragglers are deleted.
            let mut sink = self.pending_blocks.lock();
            let names = |(id, b): &(SegmentId, BlockRef)| {
                local.segment(id).is_some_and(|e| !e.blocks.contains(b))
            };
            if !sink.iter().any(names) {
                let stragglers = std::mem::take(&mut *sink);
                drop(sink);
                self.plane.delete_blocks(unpooled(&stragglers, &local), round);
                return Ok(report);
            }
        }

        // 3. Transact through the metadata plane (lines 4–14): the
        //    plane coordinates (quorum lock, or lock-free op append),
        //    reads the freshest remote image, and runs the merge +
        //    stamp below *inside* the transaction.
        let obs = self.config.data.obs.clone();
        let device = self.config.device.clone();
        let rt = Arc::clone(&self.rt);
        let ancestor = self.original.clone();
        let mut counter = self.counter;
        let sink = Arc::clone(&self.pending_blocks);
        let mut drained: Vec<(SegmentId, BlockRef)> = Vec::new();
        let mut unrecorded: Vec<(SegmentId, BlockRef)> = Vec::new();
        let mut garbage: Vec<(SegmentId, unidrive_meta::SegmentEntry)> = Vec::new();
        let mut collected: HashSet<SegmentId> = HashSet::new();
        let mut had_cloud_update = false;
        let transacted = self.meta.transact(&ancestor, round, &mut |remote| {
            // The sink is the one way a landed block reaches the image:
            // it holds this pass's placements and those background
            // reliability workers reported since the last commit.
            // Drained here, under the transaction, it also holds every
            // block that landed while the pass waited for the lock.
            drained = std::mem::take(&mut *sink.lock());
            let mut recorded = 0u64;
            unrecorded.clear();
            for &(id, block) in &drained {
                // Only record blocks for segments the metadata tracks.
                // One it does not track is a deferred file's or a
                // straggler of a segment GC has already dropped, which
                // no image will name again: `unpooled` deletes those
                // at the end of the pass.
                if local.segment(&id).is_some() {
                    recorded += u64::from(local.record_block(id, block));
                } else {
                    unrecorded.push((id, block));
                }
            }
            let placed: HashSet<(SegmentId, BlockRef)> = drained.iter().copied().collect();
            let mut merge_span = obs.span("meta.merge", round);
            merge_span.attr_str("device", device.as_str());
            merge_span.attr_u64("placements", recorded);
            let (merged, cloud_update) = match remote {
                // The merge triggers on image inequality (not stamp
                // inequality): under the lock the two are equivalent,
                // while oplog folds can differ in content at equal head
                // stamps.
                Some(image) if *image != ancestor => {
                    let out = merge3(&ancestor, &local, image, &device);
                    report.conflicts.extend(out.conflicts);
                    (out.image, true)
                }
                _ => (local.clone(), false),
            };
            merge_span.attr_bool("cloud_update", cloud_update);
            merge_span.attr_u64("conflicts", report.conflicts.len() as u64);
            merge_span.end();
            had_cloud_update = cloud_update;
            let mut to_commit = merged;
            // A segment the ancestor pooled and the remote image no
            // longer does was collected, with every block the ancestor
            // named, by the commit that dropped it; the merge brought
            // it back from our side. Only blocks this pass placed
            // survive that, in the image and among the garbage alike.
            let gone: Vec<(&SegmentId, _)> = match remote.filter(|_| cloud_update) {
                Some(remote) => {
                    let dropped = |(id, _): &(&SegmentId, _)| remote.segment(id).is_none();
                    ancestor.segments().filter(dropped).collect()
                }
                None => Vec::new(),
            };
            for (id, seen) in &gone {
                for b in seen.blocks.iter().filter(|b| !placed.contains(&(**id, **b))) {
                    to_commit.remove_block(id, *b);
                }
            }
            // A segment this pass packed that the pool kept on blocks of
            // its own lost them if those were collected: it reads from
            // its pack.
            for (id, slot) in packed.iter().filter(|(id, _)| gone.iter().any(|(g, _)| *g == id)) {
                let len = to_commit.segment(id).map_or(0, |e| e.len);
                to_commit.ensure_member(*id, len, slot.pack, slot.offset);
            }
            garbage = to_commit.collect_garbage();
            // One this pass deduplicated against and still references
            // lost the blocks it relied on: abort, and upload it again.
            collected = gone
                .iter()
                .filter(|(id, _)| known.contains(*id) && to_commit.segment(id).is_some())
                .map(|(id, _)| **id)
                .collect();
            if !collected.is_empty() {
                return None;
            }
            counter = counter
                .max(remote.map(|r| r.version.counter).unwrap_or(0))
                .max(ancestor.version.counter)
                + 1;
            let stamp = VersionStamp {
                device: device.clone(),
                counter,
                timestamp_ns: rt.now().as_nanos(),
            };
            to_commit.version = stamp.clone();
            Some((to_commit, stamp))
        });
        // The counter survives a failed commit: the stamp (and, in
        // oplog mode, the op seq) may have reached a minority of clouds
        // and must not be reused.
        self.counter = counter;
        let committed = match transacted {
            Ok(Some(committed)) => committed,
            not_committed => {
                // No image names the drained placements yet: back on
                // the sink they go, for the next commit to record.
                self.pending_blocks.lock().extend(drained);
                not_committed.map_err(SyncError::from)?;
                // A peer collected segments this pass deduplicated
                // against: transact again, uploading those from the
                // bytes in hand and none that went up just now, but for
                // packed ones: those are packed again. (Only ids the
                // ancestor pooled are ever collected, so each retry
                // shrinks that part of `known`.)
                known.retain(|id| !collected.contains(id));
                let available = segmentations.iter().filter(|s| !report.deferred.contains(&s.path));
                let sent = available.flat_map(|s| s.segments.iter().map(|(id, _)| *id));
                let sent = sent.filter(|id| packed.iter().all(|(p, _)| p != id));
                known.extend(sent.filter(|id| self.original.segment(id).is_none()));
                return self.commit_local_update(changes, known, round);
            }
        };

        // 4. Settle local state: adopt the committed image, apply any
        //    merged-in cloud changes to the folder, GC dead blocks. The
        //    diff baseline is `local` (what the folder holds now), so
        //    only the cloud side's contributions are materialized. The
        //    commit stands even if that fails: its garbage is deleted,
        //    and the folder is taken to hold `local`, so the next poll
        //    diffs from there.
        self.resolved.clear();
        for (path, stat) in committed_stats {
            match stat {
                Some(s) => {
                    self.shadow.insert(path, s);
                }
                None => {
                    self.shadow.remove(&path);
                    self.cuts.remove(&path);
                }
            }
        }
        let materialized = match had_cloud_update {
            true => self.materialize_cloud_changes(&local, &committed, &mut report, round),
            false => Ok(()),
        };
        let dead = garbage
            .iter()
            .flat_map(|(id, entry)| entry.blocks.iter().map(move |b| (*id, *b)));
        let dead = dead.chain(unpooled(&unrecorded, &committed));
        self.plane.delete_blocks(dead, round);
        if let Err(cause) = materialized {
            self.original = local;
            return Err(SyncError::Committed {
                report: Box::new(report),
                cause: Box::new(cause),
            });
        }
        self.original = committed;
        Ok(report)
    }

    /// Poll path of Algorithm 1 (lines 15–18).
    fn check_cloud_update(&mut self, round: Option<SpanId>) -> Result<SyncReport, SyncError> {
        let mut report = SyncReport::default();
        let Some(committed) = self
            .meta
            .poll(&self.original, round)
            .map_err(SyncError::from)?
        else {
            self.scrub(round);
            return Ok(report);
        };
        let previous = self.original.clone();
        self.materialize_cloud_changes(&previous, &committed, &mut report, round)?;
        self.original = committed;
        Ok(report)
    }

    /// Idle-pass maintenance, at most once per ΔT (`lock.stale_after`):
    /// audits the block objects and acts on what the previous audit also
    /// found, presuming, as the lock does, a device silent for ΔT dead.
    /// An unnamed object at a pooled segment's `block_path`, of the
    /// codec's length and under the per-cloud cap, is adopted and a
    /// short live segment repaired, both onto the sink for the next pass
    /// to commit. Other unnamed objects are counted, never deleted: no
    /// object is dated, and a live device's sink can hold one past ΔT.
    fn scrub(&mut self, round: Option<SpanId>) {
        let now = self.rt.now();
        if now.saturating_duration_since(self.scrubbed.0) < self.config.lock.stale_after {
            return;
        }
        let audit = self.plane.audit(&self.original);
        let (_, seen) = std::mem::replace(&mut self.scrubbed, (now, audit.clone()));
        let seen_unnamed: HashSet<_> = seen.unnamed.iter().collect();
        let (codec, cap) = (&self.plane.codec, self.plane.config.redundancy.per_cloud_cap());
        let mut adopted: Vec<(SegmentId, BlockRef)> = Vec::new();
        let mut orphans = vec![0; self.plane.clouds().len()];
        for (cloud, name, size) in audit.unnamed.iter().filter(|u| seen_unnamed.contains(u)) {
            let fits = |(id, _): &(SegmentId, u16)| {
                self.original.segment(id).filter(|e| e.packed.is_none()).is_some_and(|e| {
                    let ours = adopted.iter().filter(|(a, b)| a == id && b.cloud == *cloud);
                    let held = e.blocks_on(*cloud) + ours.count();
                    *size == codec.block_len(e.len as usize) as u64 && held < cap
                })
            };
            match parse_block_name(name).filter(fits) {
                Some((id, index)) => adopted.push((id, BlockRef { index, cloud: *cloud })),
                None => orphans[*cloud as usize] += 1,
            }
        }
        let seen_short: HashSet<_> = seen.short.iter().map(|(id, _)| id).collect();
        let short = audit.short.into_iter().filter(|(id, _)| seen_short.contains(id));
        let short: Vec<_> = short
            .map(|(id, mut present)| {
                present.extend(adopted.iter().filter(|(a, _)| *a == id).map(|(_, b)| *b));
                (id, self.original.segment(&id).map_or(0, |e| e.len), present)
            })
            .collect();
        let mut repaired = Vec::new();
        // A segment that cannot be rebuilt now stays short for the next.
        let _ = repair(&self.plane, short, &mut repaired, round);
        for (id, store) in self.plane.clouds().iter() {
            let on = |found: &[(SegmentId, BlockRef)]| {
                found.iter().filter(|(_, b)| b.cloud as usize == id.0).count() as u64
            };
            let obs = &self.config.data.obs;
            obs.series_add("scrub.adopted", store.name(), on(&adopted));
            obs.series_add("scrub.repaired", store.name(), on(&repaired));
            obs.series_add("scrub.orphans", store.name(), orphans[id.0]);
            obs.series_add("scrub.missing", store.name(), on(&audit.missing));
        }
        self.pending_blocks.lock().extend(adopted.into_iter().chain(repaired));
        self.repack(round);
    }

    /// Moves the live members of sparse packs into fresh ones
    /// ([`DataPlane::repack`]) and commits the move through the
    /// metadata plane, if no cloud update arrived meanwhile: the old
    /// packs are then garbage, deleted like any other. A commit given
    /// up or failed leaves the fresh blocks for the scrub to count: a
    /// fresh pack's id is its content, and a peer repacking from the
    /// same image makes the same pack, on the same block objects, and
    /// may have committed it.
    fn repack(&mut self, round: Option<SpanId>) {
        let Some(repack) = self.plane.repack(&self.original, round) else {
            return;
        };
        let ancestor = self.original.clone();
        let mut image = ancestor.clone();
        repack.apply(&mut image);
        let garbage = image.collect_garbage();
        let (device, rt, mut counter) = (self.config.device.clone(), Arc::clone(&self.rt), self.counter);
        let transacted = self.meta.transact(&ancestor, round, &mut |remote| {
            if remote != Some(&ancestor) {
                return None;
            }
            counter = counter.max(ancestor.version.counter) + 1;
            let stamp = VersionStamp {
                device: device.clone(),
                counter,
                timestamp_ns: rt.now().as_nanos(),
            };
            image.version = stamp.clone();
            Some((image.clone(), stamp))
        });
        self.counter = counter;
        if let Ok(Some(committed)) = transacted {
            let dead = garbage.iter().flat_map(|(id, e)| e.blocks.iter().map(move |b| (*id, *b)));
            self.plane.delete_blocks(dead, round);
            self.original = committed;
        }
    }

    /// Writes files changed between `from` and `to` into the local
    /// folder and deletes removed ones. Only the segments the folder
    /// lacks cross the wire: [`base_layout`] decides which paths have a
    /// local base, [`DataPlane::download_files`] verifies and uses it.
    fn materialize_cloud_changes(
        &mut self,
        from: &SyncFolderImage,
        to: &SyncFolderImage,
        report: &mut SyncReport,
        round: Option<SpanId>,
    ) -> Result<(), SyncError> {
        let delta = diff(from, to);
        // Every changed file goes into ONE download batch: the
        // scheduler then spreads all files across all connections
        // ("when k blocks are downloaded, all networking resources are
        // assigned to the next file", paper §6.2).
        let mut to_write: Vec<&str> = Vec::new();
        let mut segments: Vec<&[SegmentId]> = Vec::new();
        let mut bases: Vec<LocalBase> = Vec::new();
        for record in &delta {
            match record {
                DeltaRecord::UpsertFile { path, snapshot } => {
                    to_write.push(path);
                    segments.push(&snapshot.segments);
                    // A file `from` says shares content with its new
                    // version is offered as it stands in the folder;
                    // `download_files` takes from it only what hashes
                    // to a wanted id, so neither `from` nor the shadow
                    // has to be right about what is on disk.
                    if let Some(layout) = base_layout(from, to, path) {
                        if let Ok(data) = self.folder.read(path) {
                            bases.push(LocalBase { data, layout });
                        }
                    }
                }
                DeltaRecord::DeleteFile { path } => {
                    self.folder.remove(path).map_err(SyncError::Folder)?;
                    self.shadow.remove(path);
                    self.cuts.remove(path);
                    report.deleted_locally.push(path.to_owned());
                }
                // Conflict copies live in the image, not the folder.
                _ => {}
            }
        }
        if !to_write.is_empty() {
            let locate = |id: &SegmentId| SegmentFetch::from_image(to, id);
            let contents = self
                .plane
                .download_files(&segments, &bases, locate, round)
                .map_err(SyncError::Download)?;
            for (path, data) in to_write.into_iter().zip(contents) {
                let mtime = self.rt.now().as_nanos();
                self.folder
                    .write(path, &data, mtime)
                    .map_err(SyncError::Folder)?;
                self.shadow.insert(
                    path.to_owned(),
                    LocalStat {
                        size: data.len() as u64,
                        mtime_ns: mtime,
                    },
                );
                report.downloaded.push(path.to_owned());
            }
            // Disk-backed folders stamp their own mtimes; one scan after
            // the batch reconciles the shadow (a per-file scan here would
            // be O(n²) on large batches).
            if let Ok(scan) = self.folder.scan() {
                for path in &report.downloaded {
                    if let Some(stat) = scan.get(path.as_str()) {
                        self.shadow.insert(path.clone(), *stat);
                    }
                }
            }
        }
        for (path, entry) in to.files() {
            if !entry.conflicts.is_empty() && !report.conflicts.iter().any(|p| p == path) {
                report.conflicts.push(path.to_owned());
            }
        }
        Ok(())
    }
}

/// The `placements` whose segment `image` does not pool: block objects
/// no metadata names or ever will (the file was deleted and its
/// segments collected while the detached worker was still uploading),
/// so the pass that drains them deletes them.
fn unpooled<'a>(
    placements: &'a [(SegmentId, BlockRef)],
    image: &'a SyncFolderImage,
) -> impl Iterator<Item = (SegmentId, BlockRef)> + 'a {
    placements
        .iter()
        .filter(|(id, _)| image.segment(id).is_none())
        .copied()
}

/// Decide step of a materialization (pure: two images in, no I/O): if
/// `from`'s snapshot of `path` shares a segment id with `to`'s, the
/// `(id, length)` layout of that old snapshot per `from`'s pool — the
/// shape the bytes now in the folder should have. `None` when `path` is
/// new, when nothing is shared (a read and a hash would buy nothing),
/// or when `from`'s pool lacks one of the lengths.
fn base_layout(
    from: &SyncFolderImage,
    to: &SyncFolderImage,
    path: &str,
) -> Option<Vec<(SegmentId, u64)>> {
    let old = &from.file(path)?.snapshot.segments;
    let new: HashSet<&SegmentId> = to.file(path)?.snapshot.segments.iter().collect();
    if !old.iter().any(|id| new.contains(id)) {
        return None;
    }
    old.iter()
        .map(|id| Some((*id, from.segment(id)?.len)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decide step, case by case: a base exists exactly when the
    /// old snapshot can supply something, and it is the old snapshot's
    /// whole layout.
    #[test]
    fn base_layout_is_the_old_snapshot_when_it_shares_a_segment() {
        let id = |tag: &str| SegmentId(unidrive_crypto::Sha1::digest(tag.as_bytes()));
        let image = |files: &[(&str, &[(&str, u64)])]| {
            let mut image = SyncFolderImage::new();
            for (path, segments) in files {
                for (tag, len) in *segments {
                    image.ensure_segment(id(tag), *len);
                }
                let snapshot = Snapshot {
                    segments: segments.iter().map(|(tag, _)| id(tag)).collect(),
                };
                image.upsert_file(path, snapshot);
            }
            image
        };
        let old: &[(&str, u64)] = &[("a", 10), ("b", 20), ("a", 10)];
        let from = image(&[("f", old)]);
        let old_layout = Some(vec![(id("a"), 10), (id("b"), 20), (id("a"), 10)]);

        let check = |case: &str, path: &str, new: &[(&str, u64)], expected| {
            assert_eq!(base_layout(&from, &image(&[(path, new)]), path), expected, "{case}");
        };
        check("new path", "g", &[("a", 10)], None);
        check("identical snapshot", "f", old, old_layout.clone());
        check("one shared id", "f", &[("x", 5), ("b", 20), ("y", 7)], old_layout);
        check("no shared id", "f", &[("x", 5), ("y", 7)], None);

        // An image decoded from a cloud can name a segment its pool
        // lacks: no base then, not a panic. (The model never builds
        // one, so the bytes are written by hand.)
        let (magic, version) = (unidrive_meta::IMAGE_MAGIC, unidrive_meta::IMAGE_VERSION);
        let mut w = unidrive_meta::codec::Writer::with_header(magic, version);
        w.put_str("dev");
        w.put_u64(1);
        w.put_u64(0);
        w.put_varint(1); // files
        w.put_str("f");
        w.put_varint(3);
        for tag in ["a", "b", "a"] {
            w.put_fixed(id(tag).0.as_bytes());
        }
        w.put_varint(0); // no conflict copies
        w.put_varint(1); // segments: "a" only
        w.put_fixed(id("a").0.as_bytes());
        w.put_varint(10);
        w.put_u8(0); // stored on its own blocks
        w.put_varint(0); // blocks
        let holed = SyncFolderImage::decode(&w.finish()).unwrap();
        assert!(holed.file("f").is_some() && holed.segment(&id("b")).is_none());
        assert_eq!(base_layout(&holed, &image(&[("f", old)]), "f"), None);
    }

    /// Lock-shaped plane failures print under `lock:`, read and commit
    /// failures under `metadata:` — the texts logs are searched for.
    #[test]
    fn plane_errors_keep_their_lock_and_metadata_prefixes() {
        let shown = |e: PlaneError| SyncError::from(e).to_string();
        assert_eq!(
            shown(PlaneError::Contended { attempts: 12 }),
            "lock: failed to acquire quorum lock after 12 attempts"
        );
        assert_eq!(
            shown(PlaneError::QuorumUnreachable { reachable: 2, quorum: 3 }),
            "lock: only 2 clouds reachable, quorum of 3 required"
        );
        assert_eq!(
            shown(PlaneError::QuorumWriteFailed { acked: 2, quorum: 3 }),
            "metadata: metadata write reached 2 clouds, quorum is 3"
        );
        assert_eq!(
            shown(PlaneError::Unreadable),
            "metadata: no cloud serves a consistent metadata copy"
        );
    }
}
