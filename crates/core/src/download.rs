//! Download scheduling (paper §6.2, "Dynamic Scheduling for Download").
//!
//! Any `k` blocks reconstruct a segment, normal or over-provisioned,
//! from whichever clouds. The dispatcher is pull-based: an idle
//! connection of a cloud takes the next block *that cloud can supply*
//! for the earliest unfinished segment — so faster clouds, whose
//! connections go idle more often, naturally contribute more blocks
//! (and over-provisioned blocks give them more to contribute). With
//! in-channel probing enabled, an idle cloud *hedges* ("The Tail at
//! Scale", Dean and Barroso, CACM 2013): once a block of the segment
//! has been in flight as long as this cloud would take for the whole
//! block by its probed speed, it fetches a spare if the spare would
//! still land before that block is due, and the segment completes from
//! whichever k blocks arrive first. A spare that cannot win costs a
//! block of bytes and holds the batch open until it lands.
//!
//! The block that completes a segment's k hands its worker the decode
//! (an engine [`Work`]): the sorted first k blocks, shared handles, no
//! copy, are RS-decoded and the result SHA-1-checked against the id
//! with the scheduler's lock released, so the other connections keep
//! handing in blocks and taking the next segment's meanwhile ("all
//! networking resources are assigned to the next file"). While that
//! decode is out the segment takes no block and the batch stays open.
//!
//! A digest mismatch means one of the k blocks is corrupt, not which:
//! the blocks stay in hand, and the next decode takes the untried
//! k-subset that leaves out the blocks of failed decodes as far as it
//! can. Only when every k-subset in hand has failed does the segment
//! fetch one more block, and it gives up after k + 1 failed decodes,
//! so one corrupt block among k + 1 reachable ones never loses it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use unidrive_util::bytes::Bytes;
use unidrive_cloud::{CloudError, CloudId};
use unidrive_erasure::Codec;
use unidrive_meta::{block_path, BlockRef, SegmentId, SyncFolderImage};
use unidrive_obs::SpanId;
use unidrive_sim::Time;

use crate::dataplane::DataPlane;
use crate::engine::{run_batch, JobDesc, TransferPolicy, WireOp, Work};
use crate::plan::MAX_BLOCK_BOUNCES;
use crate::probe::BandwidthProbe;

/// One segment to fetch: its identity, plaintext length, and known
/// block locations (from the metadata's segment pool).
#[derive(Debug, Clone)]
pub struct SegmentFetch {
    /// Content-addressed id.
    pub id: SegmentId,
    /// Plaintext length (needed to size the decode).
    pub len: u64,
    /// Known `<Block-ID, Cloud-ID>` locations.
    pub blocks: Vec<BlockRef>,
}

impl SegmentFetch {
    /// The fetch for segment `id` per `image`'s segment pool; `None` if
    /// the pool has no such entry.
    pub fn from_image(image: &SyncFolderImage, id: &SegmentId) -> Option<Self> {
        image.segment(id).map(|entry| SegmentFetch {
            id: *id,
            len: entry.len,
            blocks: entry.blocks.clone(),
        })
    }
}

/// Error from a download batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownloadError {
    /// A segment could not gather `k` distinct blocks from reachable
    /// clouds — with fewer than `K_s` clouds reachable this is the
    /// *security property working as intended*; with at least `K_r` it
    /// is a genuine failure.
    NotEnoughBlocks {
        /// The segment that failed.
        segment: SegmentId,
        /// Blocks obtained.
        got: usize,
        /// Blocks needed.
        need: usize,
    },
    /// A downloaded segment did not hash to its id (corruption).
    IntegrityMismatch {
        /// The segment that failed verification.
        segment: SegmentId,
    },
    /// The metadata image has no file at the requested path.
    NoSuchFile {
        /// The path asked for.
        path: String,
    },
}

impl std::fmt::Display for DownloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DownloadError::NotEnoughBlocks { segment, got, need } => {
                write!(f, "segment {segment}: only {got} of {need} blocks reachable")
            }
            DownloadError::IntegrityMismatch { segment } => {
                write!(f, "segment {segment}: content does not match its hash")
            }
            DownloadError::NoSuchFile { path } => {
                write!(f, "no file {path:?} in the metadata image")
            }
        }
    }
}

impl std::error::Error for DownloadError {}

/// Outcome of a download batch.
#[derive(Debug)]
pub struct DownloadReport {
    /// Successfully reconstructed segments. Shared [`Bytes`] so callers
    /// can fan a segment out (file reassembly, re-encode, caching)
    /// without copying the plaintext again.
    pub segments: HashMap<SegmentId, Bytes>,
    /// Segments that failed, with the reason.
    pub failed: Vec<DownloadError>,
    /// When the batch started / finished.
    pub started: Time,
    /// When the batch finished.
    pub finished: Time,
    /// `(time, segment)` completion events in order.
    pub timeline: Vec<(Time, SegmentId)>,
}

impl DownloadReport {
    /// Whether every requested segment was reconstructed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// Total duration of the batch.
    pub fn total_duration(&self) -> Duration {
        self.finished.saturating_duration_since(self.started)
    }
}

struct FetchState {
    id: SegmentId,
    len: usize,
    /// Block indices available per cloud.
    candidates: Vec<Vec<u16>>,
    /// Indices requested at least once.
    requested: HashSet<u16>,
    /// Spare blocks requested beyond k (probing tail protection).
    over_requests: usize,
    /// Which cloud each in-flight request is on, and since when:
    /// index → (cloud, start).
    inflight: HashMap<u16, (usize, Time)>,
    /// Failed attempts per block index. A block whose holder keeps
    /// erroring without reporting itself unavailable (a deleted
    /// directory reads as `NotFound`, not `Unavailable`) would
    /// otherwise be re-queued forever.
    bounces: HashMap<u16, u32>,
    /// Blocks received.
    have: HashMap<u16, Bytes>,
    /// The k-subsets of `have` (sorted indices) whose decode failed
    /// the content hash: each holds a corrupt block.
    tried: Vec<Vec<u16>>,
    /// A worker is decoding k of `have`: the fetch takes no block and
    /// is not settled until the result is applied.
    decoding: bool,
    done: bool,
    exhausted: bool,
}

struct DownloadState {
    fetches: Vec<FetchState>,
    cloud_alive: Vec<bool>,
    finished: bool,
    timeline: Vec<(Time, SegmentId)>,
    /// When the last `next_job` that found nothing could find a hedge.
    hedge_due: Option<Time>,
}

struct Job {
    fetch: usize,
    index: u16,
}

impl DataPlane {
    /// Downloads and reconstructs the given segments, each from any `k`
    /// of its blocks, as one batch. The batch's `engine.batch` span is
    /// parented to `parent` (usually a client's `sync.round` span);
    /// `None` makes it a root.
    pub fn download_segments(
        &self,
        fetches: Vec<SegmentFetch>,
        parent: Option<SpanId>,
    ) -> DownloadReport {
        self.download_batch(fetches, HashMap::new(), parent)
    }

    /// [`download_segments`](Self::download_segments) with `local` —
    /// segments the caller already holds verified plaintext of — placed
    /// in the report beside the fetched ones; the batch span counts
    /// both (`local_hits`, `fetched`).
    pub(crate) fn download_batch(
        &self,
        fetches: Vec<SegmentFetch>,
        local: HashMap<SegmentId, Bytes>,
        parent: Option<SpanId>,
    ) -> DownloadReport {
        let started = self.rt.now();
        let fetched = fetches.len() as u64;
        let local_hits = local.len() as u64;
        let policy = DownloadPolicy::new(self, &fetches, local);
        let params = self.engine.labelled("download");
        let sizes = [
            ("segments", fetched + local_hits),
            ("local_hits", local_hits),
            ("fetched", fetched),
        ];
        let policy = run_batch(&self.rt, &self.clouds, params, parent, &sizes, policy);
        // Counted under the policy lock, recorded here: a series record
        // reads the clock, which under the simulator must not nest in
        // the scheduler's lock.
        let obs = &self.config.obs;
        let over_requests = policy.st.fetches.iter().map(|f| f.over_requests as u64).sum();
        if over_requests > 0 {
            obs.series_add("download.over_requests", "all", over_requests);
        }
        if policy.truncated_blocks > 0 {
            obs.series_add("download.truncated_blocks", "all", policy.truncated_blocks);
        }
        // Decodes run concurrently, so results apply out of landing
        // order under wall clock.
        let mut timeline = policy.st.timeline;
        timeline.sort_by_key(|(t, _)| *t);
        DownloadReport {
            segments: policy.segments,
            failed: policy.failures,
            started,
            finished: self.rt.now(),
            timeline,
        }
    }
}

/// Download-side scheduling brain: earliest-unfinished-segment
/// dispatch, probing-gated primaries, and hedged spares, driven by the
/// shared engine.
struct DownloadPolicy {
    st: DownloadState,
    segments: HashMap<SegmentId, Bytes>,
    failures: Vec<DownloadError>,
    codec: Arc<Codec>,
    probe: Arc<BandwidthProbe>,
    /// Blocks rejected for a wrong length (torn uploads).
    truncated_blocks: u64,
    k: usize,
    probing: bool,
}

impl TransferPolicy for DownloadPolicy {
    type Token = Job;

    fn next_job(&mut self, cloud: CloudId, now: Time) -> Option<JobDesc<Job>> {
        let (k, probing) = (self.k, self.probing);
        let job = next_job(&mut self.st, cloud.0, now, k, probing, &self.probe, &self.codec)?;
        let path = block_path(&self.st.fetches[job.fetch].id, job.index);
        Some(JobDesc {
            index: job.index,
            extra: false,
            // Every block parents to the engine's batch span.
            parent_span: None,
            op: WireOp::Download { path },
            token: job,
        })
    }

    fn wake_at(&self) -> Option<Time> {
        self.st.hedge_due
    }

    fn is_done(&self) -> bool {
        self.st.finished
    }

    fn on_success(
        &mut self,
        cloud: CloudId,
        job: Job,
        data: Option<Bytes>,
        now: Time,
    ) -> Option<Work<Self>> {
        let data = data.expect("download job completed without data");
        let fetch = &mut self.st.fetches[job.fetch];
        if fetch.inflight.get(&job.index).is_some_and(|(c, _)| *c == cloud.0) {
            fetch.inflight.remove(&job.index);
        }
        // Torn blocks must be surfaced, not masked: a block whose length
        // differs from the codec's share length (e.g. a torn upload that
        // persisted only a prefix) can never decode, and feeding it in
        // would burn an integrity retry on the whole combination. Reject
        // it here, stop chasing that index, and let the fetch proceed
        // from the remaining candidates.
        if data.len() != self.codec.block_len(fetch.len) {
            self.truncated_blocks += 1;
            for c in &mut fetch.candidates {
                c.retain(|i| *i != job.index);
            }
        } else {
            fetch.have.entry(job.index).or_insert(data);
        }
        let work = self.decode(job.fetch, now);
        finish_check(&mut self.st, self.k, &mut self.failures);
        work
    }

    fn on_failure(&mut self, cloud: CloudId, job: Job, error: CloudError, _now: Time) {
        let fetch = &mut self.st.fetches[job.fetch];
        if fetch.inflight.get(&job.index).is_some_and(|(c, _)| *c == cloud.0) {
            fetch.inflight.remove(&job.index);
        }
        let bounces = fetch.bounces.entry(job.index).or_insert(0);
        *bounces += 1;
        if *bounces >= MAX_BLOCK_BOUNCES {
            // The block's holder keeps failing without going
            // unavailable: stop chasing it so the batch can settle
            // (finish_check then completes from other blocks or
            // reports NotEnoughBlocks instead of looping forever).
            for c in &mut fetch.candidates {
                c.retain(|i| *i != job.index);
            }
        } else {
            fetch.requested.remove(&job.index);
        }
        if matches!(error, CloudError::Unavailable { .. }) {
            self.st.cloud_alive[cloud.0] = false;
        }
        finish_check(&mut self.st, self.k, &mut self.failures);
    }
}

impl DownloadPolicy {
    /// The policy of a batch fetching `fetches` on `plane`, with the
    /// `local` segments in its results from the start. A batch with
    /// nothing fetchable is born finished (engine deadlock-safety
    /// invariant: no work, nothing in flight, done).
    fn new(plane: &DataPlane, fetches: &[SegmentFetch], local: HashMap<SegmentId, Bytes>) -> Self {
        let n_clouds = plane.clouds.len();
        let k = plane.codec.k();
        let st = DownloadState {
            fetches: fetches
                .iter()
                .map(|f| {
                    let mut candidates = vec![Vec::new(); n_clouds];
                    for b in &f.blocks {
                        if (b.cloud as usize) < n_clouds {
                            candidates[b.cloud as usize].push(b.index);
                        }
                    }
                    FetchState {
                        id: f.id,
                        len: f.len as usize,
                        candidates,
                        requested: HashSet::new(),
                        over_requests: 0,
                        inflight: HashMap::new(),
                        bounces: HashMap::new(),
                        have: HashMap::new(),
                        tried: Vec::new(),
                        decoding: false,
                        done: false,
                        exhausted: false,
                    }
                })
                .collect(),
            cloud_alive: vec![true; n_clouds],
            finished: fetches.is_empty(),
            timeline: Vec::new(),
            hedge_due: None,
        };
        let mut policy = DownloadPolicy {
            st,
            segments: local,
            failures: Vec::new(),
            codec: Arc::clone(&plane.codec),
            probe: Arc::clone(&plane.probe),
            truncated_blocks: 0,
            k,
            probing: plane.config.probing,
        };
        finish_check(&mut policy.st, k, &mut policy.failures);
        policy
    }

    /// The decode of fetch `fi`, once it holds an untried k-subset of
    /// blocks and none is out (at first, the sorted first k: sorted so
    /// that the chosen subset, and replayed traces, do not vary with
    /// `HashMap` order), handed to a worker as shared handles. `now`,
    /// when the k-th block landed, is the segment's completion time.
    fn decode(&mut self, fi: usize, now: Time) -> Option<Work<Self>> {
        let fetch = &mut self.st.fetches[fi];
        if fetch.done || fetch.decoding {
            return None;
        }
        let used = untried(fetch, self.k)?;
        fetch.decoding = true;
        let shares: Vec<(u16, Bytes)> = used.iter().map(|i| (*i, fetch.have[i].clone())).collect();
        let (codec, id, len) = (Arc::clone(&self.codec), fetch.id, fetch.len);
        Some(Work {
            span: "download.decode",
            run: Box::new(move |span| {
                let result = decode_segment(&codec, id, len, &shares);
                span.attr_u64("bytes", len as u64);
                span.attr_bool("ok", result.is_ok());
                Box::new(move |policy: &mut Self| policy.decoded(fi, used, result, now))
            }),
        })
    }

    /// Applies the decode of fetch `fi` from blocks `used`.
    fn decoded(
        &mut self,
        fi: usize,
        used: Vec<u16>,
        result: Result<Bytes, DownloadError>,
        now: Time,
    ) -> Option<Work<Self>> {
        let fetch = &mut self.st.fetches[fi];
        fetch.decoding = false;
        let work = match result {
            Ok(plain) => {
                fetch.done = true;
                self.st.timeline.push((now, fetch.id));
                self.segments.insert(fetch.id, plain);
                None
            }
            Err(e @ DownloadError::IntegrityMismatch { .. }) => {
                // One of the k blocks the decode used is corrupt (we
                // cannot tell which), so k - 1 of them may be good: keep
                // them all and decode again from an untried subset in
                // hand. With none, `next_job` fetches one more block,
                // and its landing brings new subsets. Give up after
                // k + 1 failed decodes.
                fetch.tried.push(used);
                if fetch.tried.len() > self.k {
                    fetch.done = true;
                    self.failures.push(e);
                    None
                } else {
                    self.decode(fi, now)
                }
            }
            Err(e) => {
                fetch.done = true;
                self.failures.push(e);
                None
            }
        };
        finish_check(&mut self.st, self.k, &mut self.failures);
        work
    }
}

/// The next k blocks of `fetch` to decode, sorted, if a k-subset of
/// the blocks in hand has not failed yet: the first untried subset in
/// lexicographic order of the blocks ranked by how many failed decodes
/// used them (then by index), so that after a mismatch the next decode
/// leaves out the suspects as far as the blocks in hand allow. With no
/// failure yet that is the sorted first k.
fn untried(fetch: &FetchState, k: usize) -> Option<Vec<u16>> {
    let suspicion = |i: &u16| fetch.tried.iter().filter(|t| t.contains(i)).count();
    let mut ranked: Vec<u16> = fetch.have.keys().copied().collect();
    ranked.sort_unstable_by_key(|i| (suspicion(i), *i));
    let n = ranked.len();
    if n < k {
        return None;
    }
    let mut pick: Vec<usize> = (0..k).collect();
    loop {
        let mut subset: Vec<u16> = pick.iter().map(|&p| ranked[p]).collect();
        subset.sort_unstable();
        if !fetch.tried.contains(&subset) {
            return Some(subset);
        }
        // The next k-combination of positions in `ranked`.
        let i = (0..k).rev().find(|&i| pick[i] < n - k + i)?;
        pick[i] += 1;
        for j in i + 1..k {
            pick[j] = pick[j - 1] + 1;
        }
    }
}

/// Decodes segment `id` (`len` plaintext bytes) from the k `shares`
/// and verifies its content addressing end to end. Pure: runs in the
/// worker with no lock held.
fn decode_segment(
    codec: &Codec,
    id: SegmentId,
    len: usize,
    shares: &[(u16, Bytes)],
) -> Result<Bytes, DownloadError> {
    let slices: Vec<(usize, &[u8])> = shares.iter().map(|(i, b)| (*i as usize, b.as_ref())).collect();
    let plain = codec
        .decode(&slices, len)
        .map_err(|_| DownloadError::NotEnoughBlocks {
            segment: id,
            got: shares.len(),
            need: codec.k(),
        })?;
    if unidrive_crypto::Sha1::digest(&plain) != id.0 {
        return Err(DownloadError::IntegrityMismatch { segment: id });
    }
    Ok(Bytes::from(plain))
}

/// Picks the next block an idle connection of `cloud` should fetch at
/// `now`. Finding none, it leaves in `st.hedge_due` the earliest
/// instant a hedge of this cloud falls due.
fn next_job(
    st: &mut DownloadState,
    cloud: usize,
    now: Time,
    k: usize,
    probing: bool,
    probe: &BandwidthProbe,
    codec: &Codec,
) -> Option<Job> {
    st.hedge_due = None;
    if !st.cloud_alive[cloud] {
        return None;
    }
    let my_speed = probe.speed(unidrive_cloud::CloudId(cloud));
    let mut hedge_due: Option<Time> = None;
    for fi in 0..st.fetches.len() {
        let fetch = &st.fetches[fi];
        if fetch.done || fetch.exhausted || fetch.decoding {
            continue;
        }
        let has_candidate = |c: usize, fetch: &FetchState| {
            fetch.candidates[c]
                .iter()
                .any(|i| !fetch.requested.contains(i) && !fetch.have.contains_key(i))
        };
        let my_candidate = fetch.candidates[cloud]
            .iter()
            .find(|i| !fetch.requested.contains(i) && !fetch.have.contains_key(i))
            .copied();
        let Some(index) = my_candidate else {
            continue;
        };
        let outstanding = fetch.inflight.len();
        // Primary: fetch a block nobody has requested yet, as long as we
        // still need more than are in flight: k, or one more than in
        // hand once every k-subset in hand failed its decode (a fetch
        // that holds k with no decode out is in that state). With
        // probing enabled, "eligible clouds are kept sorted according
        // to their connection speed" (paper §6.2): a much slower cloud
        // leaves the block to the faster ones that also have candidates.
        if fetch.have.len() + outstanding < k.max(fetch.have.len() + 1) {
            let fastest_eligible = (0..st.cloud_alive.len())
                .filter(|&c| st.cloud_alive[c] && has_candidate(c, fetch))
                .map(|c| probe.speed(unidrive_cloud::CloudId(c)))
                .fold(0.0f64, f64::max);
            let gated = probing && my_speed * 4.0 < fastest_eligible;
            if !gated {
                let fetch = &mut st.fetches[fi];
                fetch.requested.insert(index);
                fetch.inflight.insert(index, (cloud, now));
                return Some(Job { fetch: fi, index });
            }
        }
        // Hedge: enough blocks are in flight, but one of them has been
        // in flight as long as this cloud would take for a *spare*
        // block (typically an over-provisioned one), and the spare can
        // still beat it; the segment completes from whichever k arrive
        // first. This is the download-side payoff of over-provisioning
        // (paper §6.2). A hedge not yet due is left in `hedge_due`.
        if probing && outstanding > 0 && fetch.over_requests < k {
            let len = codec.block_len(fetch.len) as f64;
            let whole = |c: usize| {
                Duration::from_secs_f64(len / probe.speed(unidrive_cloud::CloudId(c)).max(1.0))
            };
            let mine = whole(cloud);
            let due = fetch
                .inflight
                .values()
                .filter(|(c, _)| *c != cloud)
                .filter_map(|&(c, start)| hedge_at(start, now, mine, whole(c)))
                .min();
            match due {
                Some(due) if due <= now => {
                    let fetch = &mut st.fetches[fi];
                    fetch.over_requests += 1;
                    fetch.requested.insert(index);
                    fetch.inflight.insert(index, (cloud, now));
                    return Some(Job { fetch: fi, index });
                }
                Some(due) => hedge_due = Some(hedge_due.map_or(due, |d| d.min(due))),
                None => {}
            }
        }
    }
    st.hedge_due = hedge_due;
    None
}

/// The first instant, not before `now`, at which a spare that takes
/// `mine` should shadow a block in flight since `start` on a cloud that
/// takes `theirs` for it (both by the probe), if there is one. The spare
/// waits until the block has been in flight for the whole of `mine`, so
/// a block that lands about when expected costs nothing, and goes out
/// only while it can still win: while it would land before the block is
/// due (`elapsed + mine < theirs`). A block past its due time is not
/// shadowed: how much longer it takes, no estimate tells.
fn hedge_at(start: Time, now: Time, mine: Duration, theirs: Duration) -> Option<Time> {
    let last = start + theirs.checked_sub(mine)?;
    let first = start + mine;
    (first < last && now < last).then(|| first.max(now))
}

/// Detects completion: every fetch is done, or stuck fetches cannot make
/// progress (no reachable unrequested candidates, nothing in flight and
/// no decode out).
fn finish_check(st: &mut DownloadState, k: usize, failures: &mut Vec<DownloadError>) {
    if st.finished {
        return;
    }
    let n_clouds = st.cloud_alive.len();
    let mut all_settled = true;
    for fi in 0..st.fetches.len() {
        let fetch = &st.fetches[fi];
        if fetch.done || fetch.exhausted {
            continue;
        }
        if !fetch.inflight.is_empty() || fetch.decoding {
            all_settled = false;
            continue;
        }
        let has_candidate = (0..n_clouds).any(|c| {
            st.cloud_alive[c]
                && fetch.candidates[c]
                    .iter()
                    .any(|i| !fetch.requested.contains(i) && !fetch.have.contains_key(i))
        });
        if has_candidate {
            all_settled = false;
            continue;
        }
        // Stuck: record the failure — a corrupt block, if a decode
        // found one, else too few blocks.
        failures.push(match fetch.tried.is_empty() {
            true => DownloadError::NotEnoughBlocks {
                segment: fetch.id,
                got: fetch.have.len(),
                need: k,
            },
            false => DownloadError::IntegrityMismatch { segment: fetch.id },
        });
        st.fetches[fi].exhausted = true;
    }
    if all_settled {
        st.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DataPlaneConfig;
    use crate::upload::{FileUpload, SegmentData};
    use unidrive_cloud::{CloudSet, CloudStore, SimCloud, SimCloudConfig};
    use unidrive_crypto::Sha1;
    use unidrive_erasure::RedundancyConfig;
    use unidrive_obs::{Obs, Registry};
    use unidrive_sim::{RealRuntime, Runtime, SimRuntime};

    struct Rig {
        sim: Arc<SimRuntime>,
        sim_clouds: Vec<Arc<SimCloud>>,
        plane: DataPlane,
        registry: Arc<Registry>,
    }

    fn rig(seed: u64, rates: &[f64]) -> Rig {
        rig_with(seed, rates, Duration::ZERO)
    }

    /// Clouds of the given per-connection rates, each request paying
    /// 100 ms plus up to `jitter` of latency when `jitter` is not zero.
    fn rig_with(seed: u64, rates: &[f64], jitter: Duration) -> Rig {
        let sim = SimRuntime::new(seed);
        let mut sim_clouds = Vec::new();
        let members: Vec<Arc<dyn CloudStore>> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let mut config = SimCloudConfig::steady(r, r * 5.0);
                if !jitter.is_zero() {
                    let latency = Duration::from_millis(100);
                    config.up = config.up.with_latency(latency, jitter);
                    config.down = config.down.with_latency(latency, jitter);
                }
                let c = Arc::new(SimCloud::new(&sim, format!("c{i}"), config));
                sim_clouds.push(Arc::clone(&c));
                c as Arc<dyn CloudStore>
            })
            .collect();
        let registry = Registry::new();
        let plane = DataPlane::new(
            sim.clone().as_runtime(),
            CloudSet::new(members),
            plane_config(rates.len(), &registry),
        );
        Rig {
            sim,
            sim_clouds,
            plane,
            registry,
        }
    }

    fn plane_config(clouds: usize, registry: &Arc<Registry>) -> DataPlaneConfig {
        let redundancy = RedundancyConfig::new(clouds, 3, 3, 2).unwrap();
        let mut config = DataPlaneConfig::with_params(redundancy, 64 * 1024);
        config.obs = Obs::with_registry(Arc::clone(registry));
        config
    }

    /// Spares fetched so far by the rig's planes.
    fn spares(r: &Rig) -> u64 {
        r.registry.series_snapshot().merged("download.over_requests").sum
    }

    fn upload_one(plane: &DataPlane, size: usize, tag: u8) -> (SegmentId, Vec<u8>, Vec<BlockRef>) {
        let data: Vec<u8> = (0..size).map(|i| (i as u8).wrapping_mul(tag).wrapping_add(tag)).collect();
        let id = SegmentId(Sha1::digest(&data));
        let report = plane.run_upload(
            vec![FileUpload {
                path: "f".into(),
                segments: vec![SegmentData {
                    id,
                    data: Bytes::from(data.clone()),
                }],
            }],
            None,
            None,
        );
        assert!(report.all_available());
        let blocks = report
            .blocks
            .iter()
            .filter(|(s, _)| *s == id)
            .map(|(_, b)| *b)
            .collect();
        (id, data, blocks)
    }

    fn fetch_one(r: &Rig, id: SegmentId, len: usize, blocks: Vec<BlockRef>) -> DownloadReport {
        let fetch = SegmentFetch {
            id,
            len: len as u64,
            blocks,
        };
        r.plane.download_segments(vec![fetch], None)
    }

    #[test]
    fn round_trip_through_the_multicloud() {
        let r = rig(1, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 200_000, 3);
        let report = fetch_one(&r, id, data.len(), blocks);
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        assert_eq!(report.segments[&id], data);
    }

    #[test]
    fn download_succeeds_with_k_r_clouds_down() {
        let r = rig(2, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 200_000, 5);
        // K_r = 3: any 3 clouds must suffice, so kill 2.
        r.sim_clouds[1].set_available(false);
        r.sim_clouds[3].set_available(false);
        let report = fetch_one(&r, id, data.len(), blocks);
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        assert_eq!(report.segments[&id], data);
    }

    #[test]
    fn download_fails_securely_with_one_cloud_left() {
        let r = rig(3, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 200_000, 7);
        for i in 0..4 {
            r.sim_clouds[i].set_available(false);
        }
        let report = fetch_one(&r, id, data.len(), blocks);
        // One cloud holds at most cap = 2 < k = 3 blocks: K_s = 2 means
        // a single provider can never reconstruct.
        assert!(!report.is_complete());
        assert!(matches!(
            report.failed[0],
            DownloadError::NotEnoughBlocks { .. }
        ));
    }

    #[test]
    fn fast_cloud_supplies_most_blocks() {
        let r = rig(4, &[20e6, 1e6, 1e6, 1e6, 1e6]);
        let (id, data, blocks) = upload_one(&r.plane, 400_000, 9);
        // Warm the probe so ranking reflects reality.
        let report = fetch_one(&r, id, data.len(), blocks.clone());
        assert!(report.is_complete());
        // The fast cloud holds cap=2 blocks (over-provisioned during
        // upload); a correct dynamic scheduler uses them.
        let fast_has = blocks.iter().filter(|b| b.cloud == 0).count();
        assert_eq!(fast_has, 2, "upload should have over-provisioned cloud 0");
    }

    #[test]
    fn corrupted_block_fails_integrity() {
        let r = rig(5, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 100_000, 11);
        // Corrupt one stored block on cloud of the first block.
        let victim = blocks[0];
        let path = block_path(&id, victim.index);
        let cloud = r.plane.clouds().get(unidrive_cloud::CloudId(victim.cloud as usize));
        let mut corrupted = cloud.download(&path).unwrap().to_vec();
        corrupted[0] ^= 0xFF;
        cloud.upload(&path, Bytes::from(corrupted)).unwrap();
        // Kill enough clouds that the corrupted block must be used:
        // keep only the clouds that appear in `blocks`... simpler: fetch
        // with candidates restricted to k blocks including the victim.
        let mut restricted = vec![victim];
        restricted.extend(blocks.iter().filter(|b| **b != victim).take(2).copied());
        let report = fetch_one(&r, id, data.len(), restricted);
        // With only k candidate blocks and one of them corrupt, the
        // fetch must fail (after discarding the bad combination it has
        // nothing left to retry with) — never silently succeed.
        assert!(!report.is_complete());
    }

    #[test]
    fn corruption_fails_over_to_spare_blocks() {
        let r = rig(7, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 300_000, 13);
        assert!(blocks.len() > 3, "need spares for this test");
        eprintln!("DBG sim blocks {:?}", blocks);
        // Corrupt one stored block; the fetch should succeed from the
        // remaining candidates after the integrity retry discards the
        // poisoned combination.
        let victim = blocks[0];
        let path = block_path(&id, victim.index);
        let cloud = r.plane.clouds().get(unidrive_cloud::CloudId(victim.cloud as usize));
        let mut corrupted = cloud.download(&path).unwrap().to_vec();
        corrupted[10] ^= 0xAA;
        cloud.upload(&path, Bytes::from(corrupted)).unwrap();
        let report = fetch_one(&r, id, data.len(), blocks);
        assert!(
            report.is_complete(),
            "spares must absorb one corrupt block: {:?}",
            report.failed
        );
        assert_eq!(report.segments[&id], data);
    }

    /// A segment with exactly k + 1 blocks on its clouds, one of them
    /// corrupt, reads back byte-exact whichever block it is: a failed
    /// decode keeps the k - 1 good blocks it used, and a decode that
    /// leaves the corrupt one out follows.
    #[test]
    fn one_corrupt_block_among_k_plus_one_never_loses_the_segment() {
        let r = rig(14, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 200_000, 17);
        let k = r.plane.codec.k();
        assert!(blocks.len() > k, "need k + 1 blocks");
        let held = blocks[..k + 1].to_vec();
        for victim in &held {
            let path = block_path(&id, victim.index);
            let cloud = r.plane.clouds().get(unidrive_cloud::CloudId(victim.cloud as usize));
            let good = cloud.download(&path).unwrap();
            let mut corrupted = good.to_vec();
            corrupted[7] ^= 0x5A;
            cloud.upload(&path, Bytes::from(corrupted)).unwrap();
            let report = fetch_one(&r, id, data.len(), held.clone());
            assert!(report.is_complete(), "victim {victim:?}: {:?}", report.failed);
            assert_eq!(report.segments[&id], data, "victim {victim:?}");
            cloud.upload(&path, good).unwrap();
        }
    }

    /// `corruption_fails_over_to_spare_blocks` under wall clock, where
    /// blocks can land while a decode that fails runs: the same seven
    /// blocks, fetched fifty times over the simulated clouds' stores,
    /// each fetch complete and byte-exact.
    #[test]
    fn corruption_fails_over_to_spare_blocks_under_wall_clock() {
        let r = rig(7, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 300_000, 13);
        assert!(blocks.len() >= 6, "a poisoned combination must leave k spares");
        let stores = r.sim_clouds.iter().map(|c| c.backing() as Arc<dyn CloudStore>);
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let plane = DataPlane::new(rt, CloudSet::new(stores.collect()), plane_config(5, &r.registry));
        let victim = blocks[0];
        let path = block_path(&id, victim.index);
        let cloud = plane.clouds().get(unidrive_cloud::CloudId(victim.cloud as usize));
        let mut corrupted = cloud.download(&path).unwrap().to_vec();
        corrupted[10] ^= 0xAA;
        cloud.upload(&path, Bytes::from(corrupted)).unwrap();
        for round in 0..50 {
            let fetch = SegmentFetch {
                id,
                len: data.len() as u64,
                blocks: blocks.clone(),
            };
            let report = plane.download_segments(vec![fetch], None);
            assert!(report.is_complete(), "round {round}: {:?}", report.failed);
            assert_eq!(report.segments[&id], data, "round {round}");
        }
    }

    /// A fetch with k blocks in hand, no candidate left and nothing in
    /// flight keeps the batch open while its decode is out with a
    /// worker, and settles once the result is applied.
    #[test]
    fn a_decode_out_with_a_worker_keeps_the_batch_open() {
        let r = rig(12, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 100_000, 29);
        let fetch = SegmentFetch {
            id,
            len: data.len() as u64,
            blocks: blocks[..3].to_vec(),
        };
        let mut policy = DownloadPolicy::new(&r.plane, &[fetch], HashMap::new());
        let now = r.sim.now();
        let jobs: Vec<_> = blocks[..3]
            .iter()
            .map(|b| {
                let cloud = unidrive_cloud::CloudId(b.cloud as usize);
                (cloud, policy.next_job(cloud, now).expect("a block to fetch").token)
            })
            .collect();
        let mut work = None;
        for (cloud, job) in jobs {
            let data = r.plane.clouds().get(cloud).download(&block_path(&id, job.index)).unwrap();
            assert!(work.is_none(), "a decode before the k-th block");
            work = policy.on_success(cloud, job, Some(data), now);
        }
        let work = work.expect("the k-th block hands out the decode");
        assert!(!policy.is_done(), "the batch settled with the decode out");
        let apply = (work.run)(&mut Obs::noop().span(work.span, None));
        assert!(apply(&mut policy).is_none());
        assert!(policy.is_done());
        assert!(policy.failures.is_empty(), "{:?}", policy.failures);
        assert_eq!(policy.segments[&id], data);
    }

    #[test]
    fn missing_blocks_bounce_out_instead_of_looping() {
        // Deleting objects from a cloud makes its downloads fail with
        // NotFound — the cloud never reports Unavailable, so only the
        // bounce limit stops the scheduler from re-queuing those blocks
        // forever. The batch must terminate and reconstruct from the
        // surviving blocks.
        let r = rig(8, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 300_000, 17);
        // Erase every stored block on two clouds (ransack, not outage).
        for b in blocks.iter().filter(|b| b.cloud <= 1) {
            let cloud = r.plane.clouds().get(unidrive_cloud::CloudId(b.cloud as usize));
            cloud.delete(&block_path(&id, b.index)).unwrap();
        }
        let report = fetch_one(&r, id, data.len(), blocks);
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        assert_eq!(report.segments[&id], data);
    }

    #[test]
    fn unreachable_batch_terminates_with_failure() {
        // Erase so many blocks that reconstruction is impossible: the
        // batch must settle on NotEnoughBlocks, not hang.
        let r = rig(9, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r.plane, 200_000, 19);
        for b in blocks.iter().filter(|b| b.cloud <= 3) {
            let cloud = r.plane.clouds().get(unidrive_cloud::CloudId(b.cloud as usize));
            cloud.delete(&block_path(&id, b.index)).unwrap();
        }
        let report = fetch_one(&r, id, data.len(), blocks);
        assert!(!report.is_complete());
        assert!(matches!(
            report.failed[0],
            DownloadError::NotEnoughBlocks { .. }
        ));
    }

    /// Equal clouds whose requests pay 100–400 ms of latency: a spare
    /// could never land before the block it would shadow is due, so
    /// eight segments fetch with no spare. (The ratio rule this replaced
    /// fetched 7 here: the estimates of equal clouds swing apart with
    /// the latency draws.)
    #[test]
    fn equal_clouds_fetch_no_spare() {
        let r = rig_with(10, &[1e6; 5], Duration::from_millis(300));
        let uploads: Vec<_> = (0..8).map(|i| upload_one(&r.plane, 60_000, 21 + i)).collect();
        let fetches = uploads.iter().map(|(id, data, blocks)| SegmentFetch {
            id: *id,
            len: data.len() as u64,
            blocks: blocks.clone(),
        });
        let report = r.plane.download_segments(fetches.collect(), None);
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        for (id, data, _) in &uploads {
            assert_eq!(report.segments[id], data[..]);
        }
        assert_eq!(spares(&r), 0);
    }

    /// Cloud 0 serves 1 MB/s, the rest 10 MB/s. A reader whose probe
    /// has measured nothing rates every cloud alike, so cloud 0 takes a
    /// primary. Once cloud 1 has measured itself on its own primary, the
    /// block on cloud 0 is due long after a spare from cloud 1 would
    /// land: cloud 1 hedges, and the segment completes from the spare,
    /// as early as under the ratio rule this replaced (50 ms: it sent the
    /// same spare at the same instant).
    #[test]
    fn a_block_stuck_on_a_slow_cloud_is_hedged() {
        let r = rig(11, &[1e6, 1e7, 1e7, 1e7, 1e7]);
        let (id, data, blocks) = upload_one(&r.plane, 150_000, 23);
        let on = |cloud: u16| *blocks.iter().find(|b| b.cloud == cloud).expect("a block per cloud");
        // Cloud 1 also holds cloud 3's block: the spare it hedges with.
        let spare = on(3);
        let path = block_path(&id, spare.index);
        let copy = r.plane.clouds().get(unidrive_cloud::CloudId(3)).download(&path).unwrap();
        r.plane.clouds().get(unidrive_cloud::CloudId(1)).upload(&path, copy).unwrap();
        let spare = BlockRef { cloud: 1, ..spare };
        // One connection per cloud, and a probe that has measured nothing.
        let mut config = plane_config(5, &r.registry);
        config.connections_per_cloud = 1;
        let cold = DataPlane::new(r.sim.clone().as_runtime(), r.plane.clouds().clone(), config);
        let fetch = SegmentFetch {
            id,
            len: data.len() as u64,
            blocks: vec![on(0), on(1), on(2), spare],
        };
        let report = cold.download_segments(vec![fetch], None);
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        assert_eq!(report.segments[&id], data);
        assert_eq!(spares(&r), 1, "the block on the slow cloud was not hedged");
        let took = report.total_duration();
        assert!(took <= Duration::from_millis(50), "the segment took {took:?}");
    }

    /// The hedge's time rule, case by case, for a block in flight since
    /// 10 s: a spare of 2 s against a block due after 10 s may go out
    /// from 12 s (in flight as long as the spare takes) until 18 s (the
    /// last instant it lands first); against one due after 4 s or less,
    /// never.
    #[test]
    fn a_spare_goes_out_while_it_can_still_win() {
        let s = |secs: u64| Time::from_secs(secs);
        let d = Duration::from_secs;
        let case = |now: u64, theirs: u64, want: Option<Time>| {
            let got = hedge_at(s(10), s(now), d(2), d(theirs));
            assert_eq!(got, want, "now {now}, theirs {theirs}");
        };
        case(10, 10, Some(s(12)));
        case(11, 10, Some(s(12)));
        case(12, 10, Some(s(12)));
        case(17, 10, Some(s(17)));
        case(18, 10, None);
        case(30, 10, None);
        case(10, 4, None);
        case(10, 3, None);
        case(10, 5, Some(s(12)));
        case(12, 5, Some(s(12)));
        case(13, 5, None);
    }

    #[test]
    fn empty_fetch_list_finishes_immediately() {
        let r = rig(6, &[1e6; 5]);
        let t0 = r.sim.now();
        let report = r.plane.download_segments(vec![], None);
        assert!(report.is_complete());
        assert!(report.segments.is_empty());
        assert_eq!(r.sim.now(), t0);
    }
}
