//! Single-cloud client: a stand-in for a native CCS app's transfer
//! engine (paper §7.1 "official native apps").
//!
//! Real native apps use private APIs, but their transfer behaviour —
//! chunked, multi-connection upload/download to one cloud — is what the
//! paper's comparison measures. `SingleCloudClient` reproduces that:
//! files are split into fixed-size chunks pushed over up to
//! `connections` parallel streams to a single cloud, driven by the
//! shared [`TransferEngine`] with a one-cloud static plan.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudSet, CloudStore, RetryPolicy};
use unidrive_core::{EngineParams, TransferEngine};
use unidrive_obs::{Obs, SpanId};
use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

use crate::planned::{PlannedJob, PlannedPolicy};

/// Chunked parallel transfer client bound to one cloud.
pub struct SingleCloudClient {
    rt: Arc<dyn Runtime>,
    cloud: Arc<dyn CloudStore>,
    connections: usize,
    chunk_size: usize,
    retry: RetryPolicy,
    obs: Obs,
    /// name → (total length, chunk count).
    manifest: Mutex<HashMap<String, (u64, usize)>>,
}

impl std::fmt::Debug for SingleCloudClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleCloudClient")
            .field("cloud", &self.cloud.name())
            .field("connections", &self.connections)
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
            connections: connections.max(1),
            chunk_size: 1024 * 1024,
            retry: RetryPolicy::new(),
            obs: Obs::noop(),
            manifest: Mutex::new(HashMap::new()),
        }
    }

    /// Observability for transfer counters and retry traces
    /// (`single.upload.*`, `single.download.*`).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The cloud this client talks to.
    pub fn cloud_name(&self) -> &str {
        self.cloud.name()
    }

    fn engine_params(&self, label: &str, batch_span: Option<SpanId>) -> EngineParams {
        EngineParams {
            connections_per_cloud: self.connections,
            retry: self.retry.clone(),
            obs: self.obs.clone(),
            label: label.to_owned(),
            probe: None,
            batch_span,
            watchdog: None,
        }
    }

    /// Uploads `data` as chunked objects under `name`.
    ///
    /// # Errors
    ///
    /// The first chunk error after retries.
    pub fn upload(&self, name: &str, data: Bytes) -> Result<Duration, CloudError> {
        let t0 = self.rt.now();
        let queue: VecDeque<PlannedJob> = data
            .chunks(self.chunk_size)
            .map(Bytes::copy_from_slice)
            .enumerate()
            .map(|(i, chunk)| PlannedJob {
                path: format!("native/{name}.{i}"),
                data: Some(chunk),
                slot: i,
                index: i as u16,
            })
            .collect();
        let chunk_count = queue.len();
        let clouds = CloudSet::new(vec![Arc::clone(&self.cloud)]);
        let policy = PlannedPolicy::new(vec![queue], 0);
        let mut batch = self.obs.span("engine.batch", None);
        batch.attr_str("label", "single.upload");
        batch.attr_u64("files", 1);
        let done = TransferEngine::start(
            &self.rt,
            &clouds,
            self.engine_params("single.upload", batch.id()),
            policy,
        )
        .join();
        batch.end();
        if let Some(e) = done.error {
            return Err(e);
        }
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
        let queue: VecDeque<PlannedJob> = (0..chunk_count)
            .map(|i| PlannedJob {
                path: format!("native/{name}.{i}"),
                data: None,
                slot: i,
                index: i as u16,
            })
            .collect();
        let clouds = CloudSet::new(vec![Arc::clone(&self.cloud)]);
        let policy = PlannedPolicy::new(vec![queue], chunk_count);
        let mut batch = self.obs.span("engine.batch", None);
        batch.attr_str("label", "single.download");
        batch.attr_u64("segments", chunk_count as u64);
        let done = TransferEngine::start(
            &self.rt,
            &clouds,
            self.engine_params("single.download", batch.id()),
            policy,
        )
        .join();
        batch.end();
        if let Some(e) = done.error {
            return Err(e);
        }
        let mut out = Vec::with_capacity(len as usize);
        for chunk in &done.results {
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
