//! The *multi-cloud benchmark* baseline (paper §7.1): a traditional
//! multi-cloud design in the style of RACS and DepSky — erasure-coded
//! blocks uniformly distributed across clouds (so it has UniDrive's
//! reliability and security), but **no over-provisioning and no dynamic
//! scheduling**: every cloud receives exactly its fair share, uploads
//! wait for the slowest assignment, and downloads fetch a statically
//! chosen set of `k` blocks.
//!
//! Both directions are [`StaticPlan`]s run by the shared transfer
//! engine ([`run_batch`]) — the same static policy the other two
//! baselines and UniDrive's GC and rebalancing use: a fixed
//! block→cloud assignment with no reaction to observed speed, which is
//! what UniDrive's dynamic scheduling improves on.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudId, CloudSet, RetryPolicy};
use unidrive_core::{run_batch, EngineParams, StaticPlan, WireOp};
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
    codec: Codec,
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

impl MultiCloudBenchmark {
    /// Creates the baseline with the given redundancy and 4 MB fixed
    /// segments.
    pub fn new(
        rt: Arc<dyn Runtime>,
        clouds: CloudSet,
        redundancy: RedundancyConfig,
        connections: usize,
    ) -> Self {
        let codec = Codec::for_config(&redundancy).expect("validated config");
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
    /// exactly the normal parity blocks, block `i` of every segment
    /// queued on cloud `i mod N` — statically, with no reaction to
    /// cloud speed.
    ///
    /// Like DepSky/RACS writes, the operation *reports* the time at
    /// which every segment had `k` blocks acknowledged (the data is
    /// then durable and readable); pushing the remaining fair-share
    /// blocks continues before the call returns but is not counted —
    /// mirroring how the paper measures UniDrive's *available time*.
    ///
    /// # Errors
    ///
    /// The first block failure after retries, if it left some segment
    /// with fewer than `k` blocks. A failure parks the rest of that
    /// cloud's queue: a static plan has no other cloud to send it to.
    pub fn upload(&self, name: &str, data: Bytes) -> Result<Duration, CloudError> {
        let t0 = self.rt.now();
        let n = self.clouds.len();
        let k = self.codec.k();
        let per_segment = self.redundancy.fair_share() * n;
        let mut plan = StaticPlan::new(n);
        let mut segments = Vec::new();
        for chunk in data.chunks(self.chunk_size) {
            let id = SegmentId(unidrive_crypto::Sha1::digest(chunk));
            let mut blocks = Vec::new();
            for i in 0..per_segment as u16 {
                let cloud = usize::from(i) % n;
                let bytes = self.codec.encode_block(chunk, usize::from(i));
                let op = WireOp::Upload {
                    path: block_path(&id, i),
                    payload: Box::new(move || bytes),
                };
                plan.push(CloudId(cloud), i, op);
                blocks.push(BlockRef {
                    index: i,
                    cloud: cloud as u16,
                });
            }
            segments.push((id, chunk.len() as u64, blocks));
        }
        let params = self.engine.labelled("bench.upload");
        let size = ("segments", segments.len() as u64);
        let done = run_batch(&self.rt, &self.clouds, params, None, &[size], plan);
        // Segment s owns result slots [s * per_segment, (s + 1) *
        // per_segment); it is available at its k-th landing, the file
        // once every segment is. Later failures only degrade
        // reliability, not the reported metric.
        let mut available = t0;
        for slots in done.landed.chunks(per_segment) {
            let mut times: Vec<Time> = slots.iter().flatten().copied().collect();
            if times.len() < k {
                return Err(done.error.expect("a block that did not land failed"));
            }
            times.sort_unstable();
            available = available.max(times[k - 1]);
        }
        self.manifest.lock().insert(name.to_owned(), segments);
        Ok(available.saturating_duration_since(t0))
    }

    /// Downloads `name` segment by segment: the first `k` blocks of a
    /// segment are fetched in parallel, one batch, with no reassignment
    /// if a chosen cloud happens to be slow — precisely the behaviour
    /// UniDrive's dynamic scheduling improves on. Blocks that failed
    /// are replaced by as many of the segment's remaining blocks in a
    /// second batch (and so on, while blocks remain); then the segment
    /// is decoded.
    ///
    /// # Errors
    ///
    /// [`CloudError::NotFound`] for unknown names, or a block failure
    /// when a segment's blocks are exhausted.
    pub fn download(&self, name: &str) -> Result<(Duration, Vec<u8>), CloudError> {
        let segments = self
            .manifest
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| CloudError::not_found(name))?;
        let t0 = self.rt.now();
        let k = self.codec.k();
        let mut out = Vec::new();
        for (id, len, blocks) in segments {
            let mut rest = blocks.iter();
            let mut shares: Vec<(usize, Bytes)> = Vec::with_capacity(k);
            let mut error = None;
            while shares.len() < k {
                let wanted: Vec<BlockRef> = rest.by_ref().take(k - shares.len()).copied().collect();
                if wanted.is_empty() {
                    return Err(error.unwrap_or_else(|| CloudError::not_found(name)));
                }
                let mut plan = StaticPlan::new(self.clouds.len());
                for b in &wanted {
                    let op = WireOp::Download {
                        path: block_path(&id, b.index),
                    };
                    plan.push(CloudId(usize::from(b.cloud)), b.index, op);
                }
                let params = self.engine.labelled("bench.download");
                let size = ("blocks", wanted.len() as u64);
                let done = run_batch(&self.rt, &self.clouds, params, None, &[size], plan);
                error = done.error;
                let fetched = wanted.iter().zip(done.data);
                shares.extend(fetched.filter_map(|(b, d)| Some((usize::from(b.index), d?))));
            }
            let collected: Vec<(usize, &[u8])> =
                shares.iter().map(|(i, b)| (*i, b.as_ref())).collect();
            let plain = self
                .codec
                .decode(&collected, len as usize)
                .map_err(|e| CloudError::transient(format!("decode failed: {e}")))?;
            out.extend_from_slice(&plain);
        }
        Ok((self.rt.now().saturating_duration_since(t0), out))
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

    /// Paper redundancy (N = 5, k = 3, one block per cloud), 3
    /// connections per cloud, 128 KiB segments.
    fn client(sim: &Arc<SimRuntime>, clouds: CloudSet) -> MultiCloudBenchmark {
        let rt = sim.clone().as_runtime();
        MultiCloudBenchmark::new(rt, clouds, RedundancyConfig::paper_default(), 3)
            .with_chunk_size(128 * 1024)
    }

    #[test]
    fn round_trip() {
        let sim = SimRuntime::new(1);
        let (clouds, _) = set(&sim, &[1e6; 5]);
        let client = client(&sim, clouds);
        let data = content(500_000);
        client.upload("f", data.clone()).unwrap();
        let (_, restored) = client.download("f").unwrap();
        assert_eq!(restored, data.to_vec());
    }

    #[test]
    fn survives_up_to_n_minus_kr_outages() {
        let sim = SimRuntime::new(2);
        let (clouds, handles) = set(&sim, &[1e6; 5]);
        let client = client(&sim, clouds);
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

    #[test]
    fn an_empty_file_round_trips() {
        let sim = SimRuntime::new(4);
        let (clouds, _) = set(&sim, &[1e6; 5]);
        let client = client(&sim, clouds);
        let took = client.upload("e", Bytes::from(Vec::new())).unwrap();
        assert_eq!(took, Duration::ZERO);
        let (_, restored) = client.download("e").unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn one_dead_cloud_still_reaches_availability() {
        let sim = SimRuntime::new(5);
        let (clouds, handles) = set(&sim, &[1e6; 5]);
        let client = client(&sim, clouds);
        handles[4].set_available(false);
        let data = content(500_000);
        client.upload("f", data.clone()).unwrap();
        let (_, restored) = client.download("f").unwrap();
        assert_eq!(restored, data.to_vec());
    }

    #[test]
    fn fewer_than_k_live_clouds_refuse_the_upload() {
        let sim = SimRuntime::new(6);
        let (clouds, handles) = set(&sim, &[1e6; 5]);
        let client = client(&sim, clouds);
        for dead in &handles[..3] {
            dead.set_available(false);
        }
        let err = client.upload("f", content(300_000)).unwrap_err();
        assert!(matches!(err, CloudError::Unavailable { .. }), "{err:?}");
        let err = client.download("f").unwrap_err();
        assert!(matches!(err, CloudError::NotFound { .. }), "{err:?}");
    }
}
