//! Single-cloud client: a stand-in for a native CCS app's transfer
//! engine (paper §7.1 "official native apps").
//!
//! Real native apps use private APIs, but their transfer behaviour —
//! chunked, multi-connection upload/download to one cloud — is what the
//! paper's comparison measures. `SingleCloudClient` reproduces that:
//! files are split into fixed-size chunks pushed over up to
//! `connections` parallel streams to a single cloud, driven by the
//! shared transfer engine with a one-cloud [`StaticPlan`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudId, CloudSet, CloudStore, RetryPolicy};
use unidrive_core::{run_batch, EngineParams, StaticPlan, WireOp};
use unidrive_obs::Obs;
use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

/// Chunked parallel transfer client bound to one cloud.
pub struct SingleCloudClient {
    rt: Arc<dyn Runtime>,
    cloud: Arc<dyn CloudStore>,
    chunk_size: usize,
    engine: EngineParams,
    /// name → (total length, chunk count).
    manifest: Mutex<HashMap<String, (u64, usize)>>,
}

impl std::fmt::Debug for SingleCloudClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleCloudClient")
            .field("cloud", &self.cloud.name())
            .field("connections", &self.engine.connections_per_cloud)
            .finish()
    }
}

impl SingleCloudClient {
    /// Creates a client with the given parallelism and 1 MB chunks.
    pub fn new(
        rt: Arc<dyn Runtime>,
        cloud: Arc<dyn CloudStore>,
        connections: usize,
    ) -> Self {
        SingleCloudClient {
            rt,
            cloud,
            chunk_size: 1024 * 1024,
            engine: EngineParams::new("single", connections.max(1), RetryPolicy::new(), Obs::noop()),
            manifest: Mutex::new(HashMap::new()),
        }
    }

    /// Observability for transfer counters and retry traces
    /// (`single.upload.*`, `single.download.*`).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.engine.obs = obs;
        self
    }

    /// Runs a one-cloud static plan as the batch `label`; the first
    /// chunk error after retries fails it.
    fn run(
        &self,
        label: &str,
        size: (&'static str, u64),
        plan: StaticPlan,
    ) -> Result<StaticPlan, CloudError> {
        let clouds = CloudSet::new(vec![Arc::clone(&self.cloud)]);
        let mut done = run_batch(&self.rt, &clouds, self.engine.labelled(label), None, &[size], plan);
        done.error.take().map_or(Ok(done), Err)
    }

    /// Uploads `data` as chunked objects under `name`.
    ///
    /// # Errors
    ///
    /// The first chunk error after retries.
    pub fn upload(&self, name: &str, data: Bytes) -> Result<Duration, CloudError> {
        let t0 = self.rt.now();
        let mut plan = StaticPlan::new(1);
        for (i, chunk) in data.chunks(self.chunk_size).enumerate() {
            let chunk = Bytes::copy_from_slice(chunk);
            let op = WireOp::Upload {
                path: format!("native/{name}.{i}"),
                payload: Box::new(move || chunk),
            };
            plan.push(CloudId(0), i as u16, op);
        }
        let chunk_count = plan.landed.len();
        self.run("single.upload", ("files", 1), plan)?;
        self.manifest
            .lock()
            .insert(name.to_owned(), (data.len() as u64, chunk_count));
        Ok(self.rt.now().saturating_duration_since(t0))
    }

    /// Registers `name` as already uploaded (len bytes) without moving
    /// traffic — the sink side of a native app's change notification.
    pub fn assume_uploaded(&self, name: &str, len: u64) {
        let chunk_count = (len as usize).div_ceil(self.chunk_size).max(1);
        self.manifest
            .lock()
            .insert(name.to_owned(), (len, chunk_count));
    }

    /// Downloads the chunks of `name` and reassembles them.
    ///
    /// # Errors
    ///
    /// [`CloudError::NotFound`] for unknown names, or the first chunk
    /// error after retries.
    pub fn download(&self, name: &str) -> Result<(Duration, Vec<u8>), CloudError> {
        let (len, chunk_count) = self
            .manifest
            .lock()
            .get(name)
            .copied()
            .ok_or_else(|| CloudError::not_found(name))?;
        let t0 = self.rt.now();
        let mut plan = StaticPlan::new(1);
        for i in 0..chunk_count {
            let path = format!("native/{name}.{i}");
            plan.push(CloudId(0), i as u16, WireOp::Download { path });
        }
        let done = self.run("single.download", ("segments", chunk_count as u64), plan)?;
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
    use unidrive_cloud::{SimCloud, SimCloudConfig};
    use unidrive_sim::SimRuntime;

    #[test]
    fn round_trip_and_parallel_speedup() {
        let sim = SimRuntime::new(1);
        // per-conn 1 MB/s, aggregate 4 MB/s: 4 connections help 4x.
        let cloud = Arc::new(SimCloud::new(
            &sim,
            "c",
            SimCloudConfig::steady(1e6, 4e6),
        ));
        let rt = sim.clone().as_runtime();
        let data = Bytes::from(vec![7u8; 8 * 1024 * 1024]);

        let serial = SingleCloudClient::new(rt.clone(), cloud.clone(), 1);
        let t_serial = serial.upload("a", data.clone()).unwrap();
        let parallel = SingleCloudClient::new(rt.clone(), cloud.clone(), 4);
        let t_parallel = parallel.upload("b", data.clone()).unwrap();
        assert!(
            t_serial.as_secs_f64() > 3.0 * t_parallel.as_secs_f64(),
            "serial {t_serial:?} vs parallel {t_parallel:?}"
        );

        let (_, restored) = parallel.download("b").unwrap();
        assert_eq!(restored, data.to_vec());
    }

    #[test]
    fn unknown_name_is_not_found() {
        let sim = SimRuntime::new(2);
        let cloud = Arc::new(SimCloud::new(
            &sim,
            "c",
            SimCloudConfig::steady(1e6, 1e6),
        ));
        let client = SingleCloudClient::new(sim.clone().as_runtime(), cloud, 2);
        assert!(matches!(
            client.download("ghost").unwrap_err(),
            CloudError::NotFound { .. }
        ));
    }

    #[test]
    fn outage_surfaces_as_error() {
        let sim = SimRuntime::new(3);
        let cloud = Arc::new(SimCloud::new(
            &sim,
            "c",
            SimCloudConfig::steady(1e6, 1e6),
        ));
        cloud.set_available(false);
        let client = SingleCloudClient::new(sim.clone().as_runtime(), cloud, 2);
        assert!(client
            .upload("f", Bytes::from(vec![0u8; 1024]))
            .is_err());
    }

    #[test]
    fn transfer_counters_flow_through_obs() {
        let sim = SimRuntime::new(4);
        let cloud = Arc::new(SimCloud::new(
            &sim,
            "c",
            SimCloudConfig::steady(1e6, 4e6),
        ));
        let registry = unidrive_obs::Registry::new();
        let client = SingleCloudClient::new(sim.clone().as_runtime(), cloud, 2)
            .with_obs(Obs::with_registry(Arc::clone(&registry)));
        client
            .upload("f", Bytes::from(vec![1u8; 3 * 1024 * 1024]))
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("single.upload.blocks_dispatched"), 3);
        assert_eq!(snap.counter("single.upload.blocks_completed"), 3);
        assert_eq!(snap.counter("single.upload.cloud.c.blocks"), 3);
    }
}
