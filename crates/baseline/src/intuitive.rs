//! The *intuitive multi-cloud* baseline (paper §7.1): a file is chunked
//! into blocks and uniformly distributed into the local sync folders of
//! N native CCS apps, each of which syncs its share with its own logic.
//!
//! There is no redundancy: every part is needed, so the operation
//! completes only when the **slowest** cloud finishes — exactly the
//! degradation the paper observes for this design. The N native apps
//! are modelled as one shared transfer-engine run whose [`StaticPlan`]
//! assigns part `i`'s chunks to cloud `i` (same per-cloud chunking and
//! object paths a [`SingleCloudClient`](crate::SingleCloudClient) per
//! part would produce).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudId, CloudSet, RetryPolicy};
use unidrive_core::{run_batch, EngineParams, StaticPlan, WireOp};
use unidrive_obs::Obs;
use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

/// The intuitive multi-cloud: N native single-cloud apps, one file
/// part each.
pub struct IntuitiveMultiCloud {
    rt: Arc<dyn Runtime>,
    clouds: CloudSet,
    chunk_size: usize,
    engine: EngineParams,
    /// name → total length.
    manifest: Mutex<HashMap<String, u64>>,
}

impl std::fmt::Debug for IntuitiveMultiCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntuitiveMultiCloud")
            .field("clouds", &self.clouds.len())
            .finish()
    }
}

impl IntuitiveMultiCloud {
    /// Creates the baseline over `clouds` with `connections` per native
    /// app (1 MB chunks, matching the native client).
    pub fn new(rt: Arc<dyn Runtime>, clouds: &CloudSet, connections: usize) -> Self {
        IntuitiveMultiCloud {
            rt,
            clouds: clouds.clone(),
            chunk_size: 1024 * 1024,
            engine: EngineParams::new("intuitive", connections.max(1), RetryPolicy::new(), Obs::noop()),
            manifest: Mutex::new(HashMap::new()),
        }
    }

    /// Observability for transfer counters and retry traces
    /// (`intuitive.upload.*`, `intuitive.download.*`).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.engine.obs = obs;
        self
    }

    /// Runs a static plan over the N native apps as the batch `label`;
    /// the first native app failure fails it.
    fn run(
        &self,
        label: &str,
        size: (&'static str, u64),
        plan: StaticPlan,
    ) -> Result<StaticPlan, CloudError> {
        let params = self.engine.labelled(label);
        let mut done = run_batch(&self.rt, &self.clouds, params, None, &[size], plan);
        done.error.take().map_or(Ok(done), Err)
    }

    /// The per-part byte ranges of a `len`-byte file across N clouds.
    fn part_ranges(&self, len: usize) -> Vec<(usize, usize)> {
        let n = self.clouds.len();
        let part_len = len.div_ceil(n).max(1);
        (0..n)
            .map(|i| ((i * part_len).min(len), ((i + 1) * part_len).min(len)))
            .collect()
    }

    /// Splits `data` into N equal parts and uploads part `i` through
    /// cloud `i`'s native app, in parallel. Completes when every cloud
    /// finishes.
    ///
    /// # Errors
    ///
    /// The first native app failure.
    pub fn upload(&self, name: &str, data: Bytes) -> Result<Duration, CloudError> {
        let t0 = self.rt.now();
        let mut plan = StaticPlan::new(self.clouds.len());
        for (i, (start, end)) in self.part_ranges(data.len()).into_iter().enumerate() {
            for (j, chunk) in data[start..end].chunks(self.chunk_size).enumerate() {
                let chunk = Bytes::copy_from_slice(chunk);
                let op = WireOp::Upload {
                    path: format!("native/{name}.part{i}.{j}"),
                    payload: Box::new(move || chunk),
                };
                plan.push(CloudId(i), j as u16, op);
            }
        }
        self.run("intuitive.upload", ("files", 1), plan)?;
        self.manifest
            .lock()
            .insert(name.to_owned(), data.len() as u64);
        Ok(self.rt.now().saturating_duration_since(t0))
    }

    /// Registers `name` as already uploaded without moving traffic (the
    /// sink side of the native apps' change notifications).
    pub fn assume_uploaded(&self, name: &str, len: u64) {
        self.manifest.lock().insert(name.to_owned(), len);
    }

    /// Downloads all N parts in parallel; needs *every* cloud.
    ///
    /// # Errors
    ///
    /// The first native app failure (there is no redundancy).
    pub fn download(&self, name: &str) -> Result<(Duration, Vec<u8>), CloudError> {
        let Some(len) = self.manifest.lock().get(name).copied() else {
            return Err(CloudError::not_found(name));
        };
        let t0 = self.rt.now();
        let mut plan = StaticPlan::new(self.clouds.len());
        for (i, (start, end)) in self.part_ranges(len as usize).into_iter().enumerate() {
            for j in 0..(end - start).div_ceil(self.chunk_size) {
                let path = format!("native/{name}.part{i}.{j}");
                plan.push(CloudId(i), j as u16, WireOp::Download { path });
            }
        }
        let chunks = plan.landed.len() as u64;
        let done = self.run("intuitive.download", ("segments", chunks), plan)?;
        let mut out = Vec::with_capacity(len as usize);
        for chunk in &done.data {
            out.extend_from_slice(chunk.as_ref().expect("no error implies all chunks"));
        }
        Ok((self.rt.now().saturating_duration_since(t0), out))
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

    #[test]
    fn round_trip_preserves_content() {
        let sim = SimRuntime::new(1);
        let (clouds, _) = set(&sim, &[1e6; 5]);
        let client = IntuitiveMultiCloud::new(sim.clone().as_runtime(), &clouds, 2);
        let data = Bytes::from((0..3_000_000u32).map(|i| i as u8).collect::<Vec<_>>());
        client.upload("f", data.clone()).unwrap();
        let (_, restored) = client.download("f").unwrap();
        assert_eq!(restored, data.to_vec());
    }

    #[test]
    fn completion_dominated_by_slowest_cloud() {
        let sim = SimRuntime::new(2);
        // 4 fast clouds, one 10x slower.
        let (clouds, _) = set(&sim, &[10e6, 10e6, 10e6, 10e6, 1e6]);
        let client = IntuitiveMultiCloud::new(sim.clone().as_runtime(), &clouds, 2);
        let data = Bytes::from(vec![1u8; 10_000_000]);
        let took = client.upload("f", data).unwrap();
        // Each part is 2 MB over 2 connections; the slow cloud at
        // 1 MB/s per-connection (5 MB/s aggregate) needs ~1 s while the
        // fast clouds need ~0.1 s: the slow tail dominates.
        assert!(took.as_secs_f64() > 0.8, "took {took:?}");
    }

    #[test]
    fn any_outage_breaks_download() {
        let sim = SimRuntime::new(3);
        let (clouds, handles) = set(&sim, &[1e6; 5]);
        let client = IntuitiveMultiCloud::new(sim.clone().as_runtime(), &clouds, 2);
        client
            .upload("f", Bytes::from(vec![2u8; 1_000_000]))
            .unwrap();
        handles[3].set_available(false);
        assert!(client.download("f").is_err(), "no redundancy: must fail");
    }
}
