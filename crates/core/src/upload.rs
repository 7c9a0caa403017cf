//! Upload scheduling: even normal-block placement, **over-provisioning**
//! onto idle fast clouds, and the **availability-first /
//! reliability-second** two-phase principle for batches (paper §6.2).
//!
//! The scheduler is pull-based: the shared [`TransferEngine`] runs one
//! worker per (cloud, connection) that asks this module's
//! [`TransferPolicy`] for its next block whenever it goes idle. Because
//! a faster cloud's connections go idle more often, it is handed more
//! blocks — the network utilization of each cloud ends up proportional
//! to its performance exactly as the paper intends, with every completed
//! transfer doubling as an in-channel bandwidth probe.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;
use unidrive_cloud::{CloudError, CloudId};
use unidrive_obs::{SpanGuard, SpanId};
use unidrive_erasure::Codec;
use unidrive_meta::{block_path, BlockRef, SegmentId};
use unidrive_sim::Time;

use crate::dataplane::DataPlane;
use crate::engine::{JobDesc, TransferEngine, TransferPolicy, WireOp};
use crate::plan::{normal_assignment, DataPlaneConfig, MAX_BLOCK_BOUNCES};

/// One file to upload, already segmented.
#[derive(Debug, Clone)]
pub(crate) struct FileUpload {
    /// Sync-folder-relative path (reporting only).
    pub path: String,
    /// The file's segments in order. Segments already present in the
    /// multi-cloud (dedup hits) are simply omitted by the caller.
    pub segments: Vec<SegmentData>,
}

/// One segment's plaintext, shared across upload workers.
#[derive(Debug, Clone)]
pub(crate) struct SegmentData {
    /// Content-addressed id.
    pub id: SegmentId,
    /// Plaintext bytes.
    pub data: Bytes,
}

/// Shared sink collecting `(segment, block)` placements that complete
/// *after* an upload call returned (paper §5.1: block locations are "set
/// asynchronously via callback"). The client drains it at its next
/// metadata commit.
pub type BlockSink = Arc<Mutex<Vec<(SegmentId, BlockRef)>>>;

/// Options controlling one upload batch.
#[derive(Debug, Clone, Default)]
pub struct UploadOptions {
    /// Return as soon as every file is *available* (k blocks per
    /// segment); the reliability-second work continues on background
    /// workers, reporting placements through `sink`.
    pub detach_after_availability: bool,
    /// Receives every successful placement (including those after
    /// detach).
    pub sink: Option<BlockSink>,
    /// Causal parent for this batch's `engine.batch` span (usually the
    /// client's `sync.round` span); `None` makes the batch a root span.
    pub parent_span: Option<SpanId>,
}

/// Outcome for one uploaded file.
#[derive(Debug, Clone)]
pub struct FileUploadResult {
    /// Path as supplied.
    pub path: String,
    /// When the file became *available* (k blocks of every segment in
    /// the multi-cloud), if it did.
    pub available_at: Option<Time>,
    /// Whether every cloud holds its fair share of every segment.
    pub reliable: bool,
}

/// Outcome of an upload batch.
#[derive(Debug, Clone)]
pub struct UploadReport {
    /// Per-file outcomes, in request order.
    pub files: Vec<FileUploadResult>,
    /// Every block successfully placed: feed these to
    /// [`SyncFolderImage::record_block`](unidrive_meta::SyncFolderImage::record_block).
    pub blocks: Vec<(SegmentId, BlockRef)>,
    /// Blocks that could not be placed anywhere (all candidate clouds
    /// dead or at their security cap).
    pub unplaced_blocks: usize,
    /// When the batch started.
    pub started: Time,
    /// When the batch finished.
    pub finished: Time,
    /// Availability timeline: `(time, file index)` per file, in
    /// completion order (drives the Fig. 12 cumulative plot).
    pub timeline: Vec<(Time, usize)>,
}

impl UploadReport {
    /// Whether every file became available.
    pub fn all_available(&self) -> bool {
        self.files.iter().all(|f| f.available_at.is_some())
    }

    /// Duration until the last file became available (the paper's
    /// *available time* metric), if all did.
    pub fn available_duration(&self) -> Option<Duration> {
        let last = self
            .files
            .iter()
            .map(|f| f.available_at)
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()?;
        Some(last.saturating_duration_since(self.started))
    }

    /// Total wall/virtual duration of the batch (availability +
    /// reliability phases).
    pub fn total_duration(&self) -> Duration {
        self.finished.saturating_duration_since(self.started)
    }
}

struct SegPlan {
    id: SegmentId,
    data: Bytes,
    /// Indices queued for each cloud (normal blocks initially).
    planned: Vec<VecDeque<u16>>,
    /// Blocks orphaned by dead clouds, waiting for a new home.
    reassign: VecDeque<u16>,
    /// Blocks currently in flight per cloud.
    inflight: Vec<usize>,
    /// Normal (fair-share) blocks among them, on any cloud.
    normal_inflight: usize,
    /// Successfully placed blocks.
    done: Vec<BlockRef>,
    /// Next over-provisioned index to mint.
    next_extra: u16,
    /// Total per-segment failure bounces (gives up eventually).
    bounces: u32,
    /// Files (by index) referencing this segment.
    files: Vec<usize>,
}

impl SegPlan {
    fn blocks_on(&self, cloud: usize) -> usize {
        self.done.iter().filter(|b| b.cloud as usize == cloud).count() + self.inflight[cloud]
    }

    fn available(&self, k: usize) -> bool {
        self.done.len() >= k
    }
}

struct UploadState {
    segs: Vec<SegPlan>,
    /// File index → (path, plan indices, available_at).
    files: Vec<(String, Vec<usize>, Option<Time>)>,
    cloud_alive: Vec<bool>,
    /// Block indices below this are normal; the rest are extras.
    normal_total: u16,
    finished: bool,
    unplaced: usize,
    timeline: Vec<(Time, usize)>,
    /// Live `engine.batch` span; dropped (= ended) when `finished`
    /// flips, so detached uploads stamp their true completion time.
    batch_guard: Option<SpanGuard>,
}

impl UploadState {
    /// Takes `job`, just finished on `cloud` either way, off the
    /// in-flight counts.
    fn landed(&mut self, job: &Job, cloud: usize) {
        let seg = &mut self.segs[job.seg];
        seg.inflight[cloud] -= 1;
        if job.index < self.normal_total {
            seg.normal_inflight -= 1;
        }
    }

    fn file_available(&self, file: usize, k: usize) -> bool {
        self.files[file]
            .1
            .iter()
            .all(|&p| self.segs[p].available(k))
    }

    fn all_available(&self, k: usize) -> bool {
        (0..self.files.len()).all(|f| self.files[f].2.is_some() || self.file_available(f, k))
    }

    /// Marks newly-available files, returning their indices.
    fn refresh_availability(&mut self, k: usize, now: Time) -> Vec<usize> {
        let mut newly = Vec::new();
        for f in 0..self.files.len() {
            if self.files[f].2.is_none() && self.file_available(f, k) {
                self.files[f].2 = Some(now);
                self.timeline.push((now, f));
                newly.push(f);
            }
        }
        newly
    }
}

/// A job handed to a worker: upload block `index` of segment `seg`.
struct Job {
    seg: usize,
    index: u16,
}

impl DataPlane {
    /// Runs one upload batch over the plane's clouds and returns the
    /// report. `uploads` are already segmented and deduplicated —
    /// [`upload_files`](DataPlane::upload_files) is the path from bytes.
    pub(crate) fn run_upload(
        &self,
        uploads: Vec<FileUpload>,
        options: UploadOptions,
    ) -> UploadReport {
        let (rt, config) = (&self.rt, &self.config);
        let started = rt.now();
        let n_clouds = self.clouds.len();
        let k = config.redundancy.k();
        let cap = config.redundancy.per_cloud_cap();
        let normal_total = config.redundancy.normal_block_count() as u16;

        // Build plans, sharing one plan per distinct segment.
        let mut files = Vec::new();
        let mut segs: Vec<SegPlan> = Vec::new();
        let mut seg_index: std::collections::HashMap<SegmentId, usize> = std::collections::HashMap::new();
        for (fi, file) in uploads.iter().enumerate() {
            let mut plan_ids = Vec::new();
            for seg in &file.segments {
                let idx = *seg_index.entry(seg.id).or_insert_with(|| {
                    let assignment = normal_assignment(&config.redundancy);
                    segs.push(SegPlan {
                        id: seg.id,
                        data: seg.data.clone(),
                        planned: assignment
                            .into_iter()
                            .map(|v| v.into_iter().collect())
                            .collect(),
                        reassign: VecDeque::new(),
                        inflight: vec![0; n_clouds],
                        normal_inflight: 0,
                        done: Vec::new(),
                        next_extra: normal_total,
                        bounces: 0,
                        files: Vec::new(),
                    });
                    segs.len() - 1
                });
                if !segs[idx].files.contains(&fi) {
                    segs[idx].files.push(fi);
                }
                plan_ids.push(idx);
            }
            files.push((file.path.clone(), plan_ids, None));
        }

        let mut batch_guard = config.obs.span("engine.batch", options.parent_span);
        batch_guard.attr_str("label", "upload");
        batch_guard.attr_u64("files", uploads.len() as u64);
        let mut params = self.engine.labelled("upload");
        params.batch_span = batch_guard.id();

        let mut st = UploadState {
            segs,
            files,
            cloud_alive: vec![true; n_clouds],
            normal_total,
            finished: false,
            unplaced: 0,
            timeline: Vec::new(),
            batch_guard: Some(batch_guard),
        };

        // Files with no segments (empty, or fully deduplicated) are
        // available immediately — and an empty batch must be born finished
        // (the engine's deadlock-safety invariant).
        st.refresh_availability(k, started);
        maybe_finish(&mut st, cap);

        let policy = UploadPolicy {
            st,
            config: config.clone(),
            codec: Arc::clone(&self.codec),
            sink: options.sink.clone(),
            k,
            cap,
        };
        let engine = TransferEngine::start(rt, &self.clouds, params, policy);

        let fair = config.redundancy.fair_share();
        if options.detach_after_availability {
            // Wait only until every file is available (or nothing more can
            // make progress); the reliability work continues on the detached
            // workers and reports through the sink.
            let rt2 = Arc::clone(rt);
            engine.wait_until(move |p| {
                let all_avail =
                    p.st.files.iter().all(|(_, _, at)| at.is_some()) || p.st.all_available(p.k);
                if all_avail {
                    // Stamp availability in case the check above hit the
                    // computed path.
                    let now = rt2.now();
                    p.st.refresh_availability(p.k, now);
                }
                all_avail
            });
            let finished = rt.now();
            let report = engine.with(|p| build_report(&p.st, n_clouds, fair, started, finished));
            engine.detach(); // tasks keep running on their own threads
            report
        } else {
            let policy = engine.join();
            let finished = rt.now();
            build_report(&policy.st, n_clouds, fair, started, finished)
        }
    }
}

fn build_report(
    st: &UploadState,
    n_clouds: usize,
    fair: usize,
    started: Time,
    finished: Time,
) -> UploadReport {
    let report_files = st
        .files
        .iter()
        .map(|(path, plan_ids, available_at)| {
            let reliable = plan_ids.iter().all(|&p| {
                let seg = &st.segs[p];
                (0..n_clouds).all(|c| {
                    !st.cloud_alive[c]
                        || seg.done.iter().filter(|b| b.cloud as usize == c).count() >= fair
                })
            });
            FileUploadResult {
                path: path.clone(),
                available_at: *available_at,
                reliable,
            }
        })
        .collect();
    let blocks = st
        .segs
        .iter()
        .flat_map(|s| s.done.iter().map(move |b| (s.id, *b)))
        .collect();
    UploadReport {
        files: report_files,
        blocks,
        unplaced_blocks: st.unplaced,
        started,
        finished,
        timeline: st.timeline.clone(),
    }
}

/// Upload-side scheduling brain: two-phase batching, fair-share
/// placement, and over-provisioning, driven by the shared engine.
struct UploadPolicy {
    st: UploadState,
    config: DataPlaneConfig,
    codec: Arc<Codec>,
    sink: Option<BlockSink>,
    k: usize,
    cap: usize,
}

impl TransferPolicy for UploadPolicy {
    type Token = Job;

    fn next_job(&mut self, cloud: CloudId) -> Option<JobDesc<Job>> {
        let job = next_job(&mut self.st, cloud.0, self.k, self.cap, &self.config)?;
        let seg = &self.st.segs[job.seg];
        Some(JobDesc {
            index: job.index,
            extra: job.index >= self.st.normal_total,
            // Every block parents to the engine's batch span.
            parent_span: None,
            op: block_upload(&self.codec, &seg.id, &seg.data, job.index),
            token: job,
        })
    }

    fn is_done(&self) -> bool {
        self.st.finished
    }

    fn on_success(&mut self, cloud: CloudId, job: Job, _data: Option<Bytes>, now: Time) {
        self.st.landed(&job, cloud.0);
        let placed = BlockRef {
            index: job.index,
            cloud: cloud.0 as u16,
        };
        self.st.segs[job.seg].done.push(placed);
        if let Some(sink) = &self.sink {
            sink.lock().push((self.st.segs[job.seg].id, placed));
        }
        self.st.refresh_availability(self.k, now);
        maybe_finish(&mut self.st, self.cap);
    }

    fn on_failure(&mut self, cloud: CloudId, job: Job, error: CloudError, _now: Time) {
        self.st.landed(&job, cloud.0);
        handle_failure(&mut self.st, job, cloud, error);
        maybe_finish(&mut self.st, self.cap);
    }
}

/// The upload of block `index` of segment `id`. Encoding runs when the
/// worker that took the job calls the payload, outside any policy lock.
pub(crate) fn block_upload(codec: &Arc<Codec>, id: &SegmentId, plain: &Bytes, index: u16) -> WireOp {
    let (codec, plain) = (Arc::clone(codec), plain.clone());
    WireOp::Upload {
        path: block_path(id, index),
        payload: Box::new(move || codec.encode_block(&plain, index as usize)),
    }
}

/// Picks the next block for an idle connection of `cloud` under the
/// two-phase + over-provisioning policy.
fn next_job(
    st: &mut UploadState,
    cloud: usize,
    k: usize,
    cap: usize,
    config: &DataPlaneConfig,
) -> Option<Job> {
    if !st.cloud_alive[cloud] {
        return None;
    }
    let all_avail = st.all_available(k);

    // Ablation mode (two_phase = false): file-at-a-time — finish ALL of
    // the earliest unfinished file's work (availability, reliability,
    // extras) before touching the next file. This is the natural
    // alternative the paper's availability-first principle improves on.
    if !config.two_phase {
        for f in 0..st.files.len() {
            let plan_ids = st.files[f].1.clone();
            let pending = plan_ids.iter().any(|&p| {
                let seg = &st.segs[p];
                (0..st.cloud_alive.len()).any(|c| !seg.planned[c].is_empty())
                    || !seg.reassign.is_empty()
                    || seg.inflight.iter().any(|&i| i > 0)
                    || !seg.available(k)
            });
            if !pending {
                continue;
            }
            for &p in &plan_ids {
                if let Some(job) = take_planned(st, p, cloud, cap) {
                    return Some(job);
                }
            }
            if config.overprovisioning {
                for &p in &plan_ids {
                    if st.segs[p].available(k) {
                        continue;
                    }
                    if let Some(job) = mint_extra(st, p, cloud, cap) {
                        return Some(job);
                    }
                }
            }
            // This file still has in-flight work: wait for it rather
            // than starting the next file.
            return None;
        }
        return None;
    }

    // Phase 1 — availability: earliest unavailable file first. This
    // cloud's planned (fair-share) blocks of *every* unavailable file
    // come first; only a cloud that has finished its fair share of the
    // batch receives over-provisioned extras (paper: extras are
    // "assigned on the fly to those clouds finished transferring their
    // fair share").
    let pending: Vec<usize> = (0..st.files.len())
        .filter(|&f| st.files[f].2.is_none())
        .flat_map(|f| st.files[f].1.clone())
        .filter(|&p| !st.segs[p].available(k))
        .collect();
    for &p in &pending {
        if let Some(job) = take_planned(st, p, cloud, cap) {
            return Some(job);
        }
    }
    if config.overprovisioning {
        for &p in &pending {
            if let Some(job) = mint_extra(st, p, cloud, cap) {
                return Some(job);
            }
        }
    }

    // Phase 2 — reliability: remaining fair-share blocks. Under the
    // two-phase principle this work only starts once ALL files are
    // available (the ablation switch returned above).
    if all_avail {
        for p in 0..st.segs.len() {
            if let Some(job) = take_planned(st, p, cloud, cap) {
                return Some(job);
            }
        }
        // Over-provisioning continues while the slowest cloud is still
        // pushing its fair share (paper §6.2: "the over-provisioning
        // process will stop when the slowest cloud finishes uploading
        // its fair share or when the maximally allowed blocks are
        // transferred") — an otherwise idle fast cloud keeps minting
        // extras, which is what lets Fig. 14 survive n = 3 outages. Only
        // normal blocks count: an extra in flight is not the slowest
        // cloud's fair share, and counting it would let extras mint
        // extras until every segment sits at its cap on every cloud.
        if config.overprovisioning {
            let slowest_still_pushing = st.segs.iter().any(|seg| {
                (0..st.cloud_alive.len()).any(|c| st.cloud_alive[c] && !seg.planned[c].is_empty())
                    || seg.reassign.iter().any(|&i| i < st.normal_total)
                    || seg.normal_inflight > 0
            });
            if slowest_still_pushing {
                for p in 0..st.segs.len() {
                    if let Some(job) = mint_extra(st, p, cloud, cap) {
                        return Some(job);
                    }
                }
            }
        }
    }
    None
}

fn take_planned(st: &mut UploadState, p: usize, cloud: usize, cap: usize) -> Option<Job> {
    let seg = &mut st.segs[p];
    // Our own queued normal blocks first, then orphans from dead clouds
    // if the security cap allows us to adopt.
    let index = match seg.planned[cloud].pop_front() {
        Some(index) => index,
        None if seg.blocks_on(cloud) < cap => seg.reassign.pop_front()?,
        None => return None,
    };
    seg.inflight[cloud] += 1;
    if index < st.normal_total {
        seg.normal_inflight += 1;
    }
    Some(Job { seg: p, index })
}

fn mint_extra(st: &mut UploadState, p: usize, cloud: usize, cap: usize) -> Option<Job> {
    let seg = &mut st.segs[p];
    if seg.blocks_on(cloud) >= cap {
        return None;
    }
    let n_max = seg
        .planned
        .len()
        .checked_mul(cap)
        .expect("cap fits") as u16;
    if seg.next_extra >= n_max {
        return None;
    }
    let index = seg.next_extra;
    seg.next_extra += 1;
    seg.inflight[cloud] += 1;
    Some(Job { seg: p, index })
}

fn handle_failure(st: &mut UploadState, job: Job, cloud: CloudId, error: CloudError) {
    let fatal = matches!(
        error,
        CloudError::Unavailable { .. } | CloudError::QuotaExceeded { .. }
    );
    if fatal {
        // Fail the cloud for this batch and orphan its queued blocks.
        st.cloud_alive[cloud.0] = false;
        for seg in &mut st.segs {
            let orphans: Vec<u16> = seg.planned[cloud.0].drain(..).collect();
            seg.reassign.extend(orphans);
        }
    }
    let seg = &mut st.segs[job.seg];
    seg.bounces += 1;
    if seg.bounces <= MAX_BLOCK_BOUNCES {
        seg.reassign.push_back(job.index);
    } else {
        st.unplaced += 1;
    }
}

/// Declares the batch finished when no work remains or none of what
/// remains is assignable (every candidate cloud is dead or at its
/// security cap). Permanently-stuck orphan blocks are counted as
/// unplaced so the report can surface degraded reliability.
fn maybe_finish(st: &mut UploadState, cap: usize) {
    if st.finished {
        return;
    }
    let n_clouds = st.cloud_alive.len();
    for p in 0..st.segs.len() {
        let seg = &st.segs[p];
        if seg.inflight.iter().any(|&i| i > 0) {
            return;
        }
        if (0..n_clouds).any(|c| st.cloud_alive[c] && !seg.planned[c].is_empty()) {
            return;
        }
        if !seg.reassign.is_empty() {
            let adoptable =
                (0..n_clouds).any(|c| st.cloud_alive[c] && seg.blocks_on(c) < cap);
            if adoptable {
                return;
            }
        }
    }
    // Nothing is in flight and nothing left is assignable: drain the
    // stuck orphans and finish.
    for seg in &mut st.segs {
        st.unplaced += seg.reassign.len();
        seg.reassign.clear();
    }
    st.finished = true;
    // Ending the batch span here — not when `run_upload` returns —
    // stamps the true completion time even for detached uploads whose
    // reliability phase outlives the call.
    st.batch_guard.take();
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_cloud::{CloudSet, CloudStore, SimCloud, SimCloudConfig};
    use unidrive_crypto::Sha1;
    use unidrive_erasure::RedundancyConfig;
    use unidrive_sim::SimRuntime;

    fn make_file(path: &str, size: usize, tag: u8) -> FileUpload {
        let data: Vec<u8> = (0..size).map(|i| (i as u8).wrapping_mul(tag)).collect();
        FileUpload {
            path: path.into(),
            segments: vec![SegmentData {
                id: unidrive_meta::SegmentId(Sha1::digest(&data)),
                data: Bytes::from(data),
            }],
        }
    }

    fn setup(seed: u64, rates: &[f64]) -> (Arc<SimRuntime>, DataPlane) {
        let sim = SimRuntime::new(seed);
        let clouds = CloudSet::new(
            rates
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    Arc::new(SimCloud::new(
                        &sim,
                        format!("c{i}"),
                        SimCloudConfig::steady(r, r * 5.0),
                    )) as Arc<dyn CloudStore>
                })
                .collect(),
        );
        let redundancy = RedundancyConfig::new(rates.len(), 3, 3, 2).unwrap();
        let config = DataPlaneConfig::with_params(redundancy, 64 * 1024);
        let plane = DataPlane::new(sim.clone().as_runtime(), clouds, config);
        (sim, plane)
    }

    #[test]
    fn upload_places_fair_share_everywhere() {
        let (_sim, plane) = setup(1, &[1e6; 5]);
        let report = plane.run_upload(vec![make_file("f", 300_000, 3)], UploadOptions::default());
        assert!(report.all_available());
        assert!(report.files[0].reliable);
        assert_eq!(report.unplaced_blocks, 0);
        // Every cloud holds at least fair share (1) and at most cap (2).
        for c in 0..5u16 {
            let on_c = report.blocks.iter().filter(|(_, b)| b.cloud == c).count();
            assert!((1..=2).contains(&on_c), "cloud {c} holds {on_c}");
        }
    }

    #[test]
    fn over_provisioning_gives_fast_clouds_more_blocks() {
        // Cloud 0 is 10x faster than the rest.
        let (_sim, plane) = setup(2, &[10e6, 1e6, 1e6, 1e6, 1e6]);
        let report = plane.run_upload(vec![make_file("f", 600_000, 5)], UploadOptions::default());
        assert!(report.all_available());
        let on_fast = report.blocks.iter().filter(|(_, b)| b.cloud == 0).count();
        let per_seg_cap = plane.config.redundancy.per_cloud_cap();
        let segs: std::collections::HashSet<_> =
            report.blocks.iter().map(|(s, _)| *s).collect();
        // The fast cloud should be saturated at its security cap.
        assert_eq!(on_fast, per_seg_cap * segs.len(), "fast cloud not saturated");
    }

    #[test]
    fn security_cap_never_exceeded() {
        let (_sim, plane) = setup(3, &[20e6, 1e6, 1e6, 1e6, 1e6]);
        let files = (0..4).map(|i| make_file(&format!("f{i}"), 200_000, i as u8 + 1)).collect();
        let report = plane.run_upload(files, UploadOptions::default());
        let cap = plane.config.redundancy.per_cloud_cap();
        let mut per_seg_cloud: std::collections::HashMap<(SegmentId, u16), usize> =
            std::collections::HashMap::new();
        for (seg, b) in &report.blocks {
            *per_seg_cloud.entry((*seg, b.cloud)).or_default() += 1;
        }
        for ((seg, cloud), count) in per_seg_cloud {
            assert!(
                count <= cap,
                "segment {seg} has {count} blocks on cloud {cloud} (cap {cap})"
            );
        }
    }

    fn files(count: usize, size: usize) -> Vec<FileUpload> {
        (0..count)
            .map(|i| make_file(&format!("f{i}"), size, i as u8 + 1))
            .collect()
    }

    #[test]
    fn equal_clouds_get_extras_only_after_their_fair_share() {
        // Every cloud finishes its fair share at about the same time, so
        // few extras are minted (at most 10 blocks per segment would be
        // 200), and availability is not held up by extras queued before
        // later files' normal blocks.
        let (_sim, plane) = setup(11, &[1e6; 5]);
        let report = plane.run_upload(files(20, 100_000), UploadOptions::default());
        assert!(report.all_available());
        assert!(report.blocks.len() <= 130, "{} blocks placed", report.blocks.len());
        let available = report.available_duration().unwrap();
        assert!(available <= Duration::from_millis(140), "available after {available:?}");
    }

    #[test]
    fn unequal_clouds_still_send_extras_to_the_fastest() {
        // Over-provisioning earns its keep here: the fast clouds take
        // extras while the slowest still pushes its fair share.
        let (_sim, plane) = setup(11, &[4e6, 2e6, 1e6, 0.5e6, 0.25e6]);
        let report = plane.run_upload(files(16, 1_000_000), UploadOptions::default());
        assert!(report.all_available());
        let normal = plane.config.redundancy.normal_block_count() as u16;
        let extras_on_fastest = report
            .blocks
            .iter()
            .filter(|(_, b)| b.cloud == 0 && b.index >= normal)
            .count();
        assert!(extras_on_fastest > 0, "the fastest cloud got no extra");
        let available = report.available_duration().unwrap();
        assert!(available <= Duration::from_millis(800), "available after {available:?}");
    }

    #[test]
    fn upload_survives_a_dead_cloud() {
        let sim = SimRuntime::new(4);
        let mut members: Vec<Arc<dyn CloudStore>> = Vec::new();
        let mut sim_clouds = Vec::new();
        for i in 0..5 {
            let c = Arc::new(SimCloud::new(
                &sim,
                format!("c{i}"),
                SimCloudConfig::steady(1e6, 5e6),
            ));
            sim_clouds.push(Arc::clone(&c));
            members.push(c);
        }
        sim_clouds[2].set_available(false);
        let plane = DataPlane::new(
            sim.clone().as_runtime(),
            CloudSet::new(members),
            DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), 64 * 1024),
        );
        let report = plane.run_upload(vec![make_file("f", 300_000, 7)], UploadOptions::default());
        assert!(report.all_available(), "upload must survive one outage");
        assert!(report
            .blocks
            .iter()
            .all(|(_, b)| b.cloud != 2), "no blocks on the dead cloud");
    }

    #[test]
    fn two_phase_batches_make_all_files_available_before_reliability() {
        let (_sim, plane) = setup(5, &[2e6, 1e6, 1e6, 1e6, 0.5e6]);
        let files: Vec<FileUpload> = (0..5)
            .map(|i| make_file(&format!("f{i}"), 150_000, i as u8 + 1))
            .collect();
        let report = plane.run_upload(files, UploadOptions::default());
        assert!(report.all_available());
        assert_eq!(report.timeline.len(), 5);
        // Availability of the last file precedes the end of the batch
        // (reliability work continues afterwards).
        let last_avail = report.timeline.iter().map(|(t, _)| *t).max().unwrap();
        assert!(last_avail <= report.finished);
    }

    #[test]
    fn empty_and_dedup_only_files_complete_instantly() {
        let (_sim, plane) = setup(6, &[1e6; 5]);
        let empty = FileUpload {
            path: "empty.txt".into(),
            segments: Vec::new(),
        };
        let report = plane.run_upload(vec![empty], UploadOptions::default());
        assert!(report.all_available());
        assert_eq!(report.blocks.len(), 0);
    }

    #[test]
    fn duplicate_segments_upload_once() {
        let (_sim, plane) = setup(7, &[1e6; 5]);
        let f1 = make_file("a", 100_000, 9);
        let mut f2 = f1.clone();
        f2.path = "b".into();
        let report = plane.run_upload(vec![f1, f2], UploadOptions::default());
        assert!(report.all_available());
        let seg_ids: std::collections::HashSet<_> =
            report.blocks.iter().map(|(s, _)| *s).collect();
        assert_eq!(seg_ids.len(), 1, "shared segment uploaded once");
    }
}
