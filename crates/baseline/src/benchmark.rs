//! The *multi-cloud benchmark* baseline (paper §7.1): a traditional
//! multi-cloud design in the style of RACS and DepSky — erasure-coded
//! blocks uniformly distributed across clouds (so it has UniDrive's
//! reliability and security), but **no over-provisioning and no dynamic
//! scheduling**: every cloud receives exactly its fair share, uploads
//! wait for the slowest assignment, and downloads fetch a statically
//! chosen set of `k` blocks.
//!
//! Both directions run on the shared transfer engine ([`run_batch`]); the policies
//! here encode the *static* plans (fixed block→cloud assignment, no
//! reaction to observed speed) that UniDrive's dynamic scheduling
//! improves on.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudId, CloudSet, RetryPolicy};
use unidrive_core::{run_batch, EngineParams, JobDesc, TransferPolicy, WireOp};
use unidrive_erasure::{Codec, RedundancyConfig};
use unidrive_meta::{block_path, BlockRef, SegmentId};
use unidrive_obs::Obs;
use unidrive_sim::{Runtime, Time};
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

/// Per-segment `(id, plaintext length, block locations)` — the client's
/// durable record of where a file's erasure-coded blocks live.
pub type SegmentManifest = Vec<(SegmentId, u64, Vec<BlockRef>)>;

/// Static erasure-coded multi-cloud client (RACS/DepSky-like).
pub struct MultiCloudBenchmark {
    rt: Arc<dyn Runtime>,
    clouds: CloudSet,
    redundancy: RedundancyConfig,
    codec: Arc<Codec>,
    chunk_size: usize,
    engine: EngineParams,
    /// name → per-segment (id, len, blocks).
    manifest: Mutex<HashMap<String, SegmentManifest>>,
}

impl std::fmt::Debug for MultiCloudBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCloudBenchmark")
            .field("clouds", &self.clouds)
            .finish()
    }
}

/// One statically planned block upload. Kept whole as the job token so
/// a failed block can be re-queued for one more persistent round.
struct BenchBlock {
    si: usize,
    path: String,
    bytes: Bytes,
    requeued: bool,
}

/// Fair-share static upload: per-cloud queues, per-segment ack counts,
/// availability stamped when every segment has `k` blocks durable.
struct BenchUploadPolicy {
    queues: Vec<VecDeque<BenchBlock>>,
    inflight: usize,
    acks: Vec<usize>,
    segs_ready: usize,
    k: usize,
    t0: Time,
    available: Option<Duration>,
    error: Option<CloudError>,
    done: bool,
}

impl BenchUploadPolicy {
    fn new(queues: Vec<VecDeque<BenchBlock>>, seg_count: usize, k: usize, t0: Time) -> Self {
        let mut p = BenchUploadPolicy {
            queues,
            inflight: 0,
            acks: vec![0; seg_count],
            segs_ready: 0,
            k,
            t0,
            available: None,
            error: None,
            done: false,
        };
        p.settle();
        p
    }

    fn settle(&mut self) {
        self.done = self.inflight == 0 && self.queues.iter().all(VecDeque::is_empty);
    }
}

impl TransferPolicy for BenchUploadPolicy {
    type Token = BenchBlock;

    fn next_job(&mut self, cloud: CloudId) -> Option<JobDesc<BenchBlock>> {
        let block = self.queues.get_mut(cloud.0)?.pop_front()?;
        self.inflight += 1;
        let path = block.path.clone();
        let bytes = block.bytes.clone();
        let index = (block.si % u16::MAX as usize) as u16;
        Some(JobDesc {
            token: block,
            index,
            extra: false,
            parent_span: None,
            op: WireOp::Upload {
                path,
                payload: Box::new(move || bytes),
            },
        })
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn on_success(&mut self, _cloud: CloudId, block: BenchBlock, _data: Option<Bytes>, now: Time) {
        self.inflight -= 1;
        self.acks[block.si] += 1;
        if self.acks[block.si] == self.k {
            self.segs_ready += 1;
            if self.segs_ready == self.acks.len() {
                self.available = Some(now.saturating_duration_since(self.t0));
            }
        }
        self.settle();
    }

    fn on_failure(&mut self, cloud: CloudId, mut block: BenchBlock, error: CloudError, _now: Time) {
        self.inflight -= 1;
        if block.requeued {
            // Persistent failure: two full retry rounds exhausted.
            if self.error.is_none() {
                self.error = Some(error);
            }
        } else {
            block.requeued = true;
            self.queues[cloud.0].push_back(block);
        }
        self.settle();
    }
}

/// Static k-of-n download: segments strictly in order; the first `k`
/// blocks of the current segment are fetched in parallel, falling back
/// to the remaining blocks only on hard errors, then decoded before the
/// next segment starts — no reassignment if a chosen cloud is slow.
struct BenchDownloadPolicy {
    segments: Vec<(SegmentId, u64, Vec<BlockRef>)>,
    codec: Arc<Codec>,
    k: usize,
    cur: usize,
    /// (share slot, block) waiting for an idle connection of its cloud.
    pending: Vec<(usize, BlockRef)>,
    fallback: Vec<BlockRef>,
    shares: Vec<Option<(u16, Bytes)>>,
    filled: usize,
    inflight: usize,
    out: Vec<u8>,
    error: Option<CloudError>,
    done: bool,
}

impl BenchDownloadPolicy {
    fn new(segments: Vec<(SegmentId, u64, Vec<BlockRef>)>, codec: Arc<Codec>, k: usize) -> Self {
        let mut p = BenchDownloadPolicy {
            segments,
            codec,
            k,
            cur: 0,
            pending: Vec::new(),
            fallback: Vec::new(),
            shares: Vec::new(),
            filled: 0,
            inflight: 0,
            out: Vec::new(),
            error: None,
            done: false,
        };
        if p.segments.is_empty() {
            p.done = true;
        } else {
            p.load_segment();
        }
        p
    }

    fn load_segment(&mut self) {
        let (_, _, blocks) = &self.segments[self.cur];
        self.pending = blocks.iter().take(self.k).copied().enumerate().collect();
        self.fallback = blocks.iter().skip(self.k).copied().collect();
        self.shares = vec![None; self.pending.len()];
        self.filled = 0;
    }

    fn fail(&mut self, error: CloudError) {
        if self.error.is_none() {
            self.error = Some(error);
        }
        // Stop dispatching; done once in-flight work drains.
        self.pending.clear();
        self.done = self.inflight == 0;
    }
}

impl TransferPolicy for BenchDownloadPolicy {
    type Token = (usize, BlockRef);

    fn next_job(&mut self, cloud: CloudId) -> Option<JobDesc<(usize, BlockRef)>> {
        let pos = self
            .pending
            .iter()
            .position(|(_, b)| b.cloud as usize == cloud.0)?;
        let (slot, block) = self.pending.remove(pos);
        self.inflight += 1;
        let id = self.segments[self.cur].0;
        Some(JobDesc {
            token: (slot, block),
            index: block.index,
            extra: false,
            parent_span: None,
            op: WireOp::Download {
                path: block_path(&id, block.index),
            },
        })
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn on_success(
        &mut self,
        _cloud: CloudId,
        (slot, block): (usize, BlockRef),
        data: Option<Bytes>,
        _now: Time,
    ) {
        self.inflight -= 1;
        if self.error.is_some() {
            self.done = self.inflight == 0;
            return;
        }
        self.shares[slot] = Some((block.index, data.expect("download job carries data")));
        self.filled += 1;
        if self.filled < self.shares.len() {
            return;
        }
        // Segment complete: decode, then move on (every slot is filled,
        // so nothing of this segment is still in flight).
        let collected: Vec<(usize, &[u8])> = self
            .shares
            .iter()
            .map(|s| {
                let (i, b) = s.as_ref().expect("filled == len");
                (*i as usize, b.as_ref())
            })
            .collect();
        let len = self.segments[self.cur].1 as usize;
        match self.codec.decode(&collected, len) {
            Ok(plain) => {
                self.out.extend_from_slice(&plain);
                self.cur += 1;
                if self.cur == self.segments.len() {
                    self.done = true;
                } else {
                    self.load_segment();
                }
            }
            Err(e) => self.fail(CloudError::transient(format!("decode failed: {e}"))),
        }
    }

    fn on_failure(
        &mut self,
        _cloud: CloudId,
        (slot, _block): (usize, BlockRef),
        error: CloudError,
        _now: Time,
    ) {
        self.inflight -= 1;
        if self.error.is_some() {
            self.done = self.inflight == 0;
            return;
        }
        // Hard failure: try a fallback block for the same share slot.
        match self.fallback.pop() {
            Some(b) => self.pending.push((slot, b)),
            None => self.fail(error),
        }
    }
}

impl MultiCloudBenchmark {
    /// Creates the baseline with the given redundancy and 4 MB fixed
    /// segments.
    pub fn new(
        rt: Arc<dyn Runtime>,
        clouds: CloudSet,
        redundancy: RedundancyConfig,
        connections: usize,
    ) -> Self {
        let codec = Arc::new(Codec::for_config(&redundancy).expect("validated config"));
        MultiCloudBenchmark {
            rt,
            clouds,
            redundancy,
            codec,
            chunk_size: 4 * 1024 * 1024,
            engine: EngineParams::new("bench", connections.max(1), RetryPolicy::new(), Obs::noop()),
            manifest: Mutex::new(HashMap::new()),
        }
    }

    /// Chunk size override (tests use smaller segments).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1024);
        self
    }

    /// Observability for transfer counters and retry traces
    /// (`bench.upload.*`, `bench.download.*`).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.engine.obs = obs;
        self
    }

    /// Uploads `data`: fixed-size segments, each erasure-coded into
    /// exactly the normal parity blocks, each cloud receiving its fair
    /// share — statically, with no reaction to cloud speed.
    ///
    /// Like DepSky/RACS writes, the operation *reports* the time at
    /// which every segment had `k` blocks acknowledged (the data is
    /// then durable and readable); pushing the remaining fair-share
    /// blocks continues before the call returns but is not counted —
    /// mirroring how the paper measures UniDrive's *available time*.
    ///
    /// # Errors
    ///
    /// The first block failure after retries (a failed block is retried
    /// with a second full backoff round; only persistent failure
    /// surfaces).
    pub fn upload(&self, name: &str, data: Bytes) -> Result<Duration, CloudError> {
        let t0 = self.rt.now();
        let n = self.clouds.len();
        let k = self.codec.k();
        let fair = self.redundancy.fair_share();
        let seg_count = data.chunks(self.chunk_size).count().max(1);
        let mut segments = Vec::new();
        // Static plan: per cloud, the queue of (segment, path, bytes).
        let mut queues: Vec<VecDeque<BenchBlock>> =
            (0..n).map(|_| VecDeque::new()).collect();
        for (si, chunk) in data.chunks(self.chunk_size).enumerate() {
            let id = SegmentId(unidrive_crypto::Sha1::digest(chunk));
            let mut blocks = Vec::new();
            for i in 0..(fair * n) as u16 {
                let cloud = (i as usize) % n;
                queues[cloud].push_back(BenchBlock {
                    si,
                    path: block_path(&id, i),
                    bytes: self.codec.encode_block(chunk, i as usize),
                    requeued: false,
                });
                blocks.push(BlockRef {
                    index: i,
                    cloud: cloud as u16,
                });
            }
            segments.push((id, chunk.len() as u64, blocks));
        }
        let policy = BenchUploadPolicy::new(queues, seg_count, k, t0);
        let params = self.engine.labelled("bench.upload");
        let size = ("segments", seg_count as u64);
        let done = run_batch(&self.rt, &self.clouds, params, None, &[size], policy);
        match (done.available, done.error) {
            // Availability reached: later failures only degrade
            // reliability, not the reported metric.
            (Some(d), _) => {
                self.manifest.lock().insert(name.to_owned(), segments);
                Ok(d)
            }
            (None, Some(e)) => Err(e),
            (None, None) => Ok(self.rt.now().saturating_duration_since(t0)),
        }
    }

    /// Downloads `name` by statically fetching the first `k` blocks of
    /// every segment (one per cloud, round-robin) — no reassignment if a
    /// chosen cloud happens to be slow, which is precisely the behaviour
    /// UniDrive's dynamic scheduling improves on. Falls back to the
    /// remaining blocks only on hard errors.
    ///
    /// # Errors
    ///
    /// [`CloudError::NotFound`] for unknown names, or a block failure
    /// when fallbacks are exhausted.
    pub fn download(&self, name: &str) -> Result<(Duration, Vec<u8>), CloudError> {
        let segments = self
            .manifest
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| CloudError::not_found(name))?;
        let t0 = self.rt.now();
        let seg_count = segments.len();
        let policy = BenchDownloadPolicy::new(segments, Arc::clone(&self.codec), self.codec.k());
        let params = self.engine.labelled("bench.download");
        let size = ("segments", seg_count as u64);
        let done = run_batch(&self.rt, &self.clouds, params, None, &[size], policy);
        if let Some(e) = done.error {
            return Err(e);
        }
        Ok((self.rt.now().saturating_duration_since(t0), done.out))
    }

    /// Known block locations of `name` (for harnesses that kill clouds).
    pub fn manifest_of(&self, name: &str) -> Option<SegmentManifest> {
        self.manifest.lock().get(name).cloned()
    }

    /// Adopts a manifest produced by another client over the same
    /// backing clouds (the sink side of a sync notification).
    pub fn adopt_manifest(&self, name: &str, manifest: SegmentManifest) {
        self.manifest.lock().insert(name.to_owned(), manifest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_cloud::{CloudStore, SimCloud, SimCloudConfig};
    use unidrive_sim::SimRuntime;

    fn set(sim: &Arc<SimRuntime>, rates: &[f64]) -> (CloudSet, Vec<Arc<SimCloud>>) {
        let mut handles = Vec::new();
        let members = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let c = Arc::new(SimCloud::new(
                    sim,
                    format!("c{i}"),
                    SimCloudConfig::steady(r, r * 5.0),
                ));
                handles.push(Arc::clone(&c));
                c as Arc<dyn CloudStore>
            })
            .collect();
        (CloudSet::new(members), handles)
    }

    fn content(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    #[test]
    fn round_trip() {
        let sim = SimRuntime::new(1);
        let (clouds, _) = set(&sim, &[1e6; 5]);
        let client = MultiCloudBenchmark::new(
            sim.clone().as_runtime(),
            clouds,
            RedundancyConfig::paper_default(),
            3,
        )
        .with_chunk_size(128 * 1024);
        let data = content(500_000);
        client.upload("f", data.clone()).unwrap();
        let (_, restored) = client.download("f").unwrap();
        assert_eq!(restored, data.to_vec());
    }

    #[test]
    fn survives_up_to_n_minus_kr_outages() {
        let sim = SimRuntime::new(2);
        let (clouds, handles) = set(&sim, &[1e6; 5]);
        let client = MultiCloudBenchmark::new(
            sim.clone().as_runtime(),
            clouds,
            RedundancyConfig::paper_default(),
            3,
        )
        .with_chunk_size(128 * 1024);
        let data = content(300_000);
        client.upload("f", data.clone()).unwrap();
        handles[0].set_available(false);
        handles[2].set_available(false);
        let (_, restored) = client.download("f").unwrap();
        assert_eq!(restored, data.to_vec());
    }

    #[test]
    fn upload_availability_waits_for_statically_chosen_clouds() {
        // The benchmark's weakness vs UniDrive: with exactly one block
        // per cloud and no over-provisioning, a segment becomes
        // available only when the k-th fastest cloud delivers. UniDrive
        // would mint extra blocks on the two fast clouds instead.
        let sim = SimRuntime::new(3);
        let (clouds, _) = set(&sim, &[10e6, 10e6, 0.5e6, 0.5e6, 0.5e6]);
        let client = MultiCloudBenchmark::new(
            sim.clone().as_runtime(),
            clouds,
            RedundancyConfig::paper_default(),
            3,
        )
        .with_chunk_size(512 * 1024);
        let data = content(3_000_000); // 6 segments, block ~171 KB
        let took = client.upload("f", data).unwrap();
        // The third block of each segment comes from a slow cloud
        // (6 blocks of ~171 KB over 3 connections at 0.5 MB/s each
        // ≈ 0.7 s) while the two fast clouds idle after ~35 ms.
        assert!(took.as_secs_f64() > 0.5, "took {took:?}");
    }
}
