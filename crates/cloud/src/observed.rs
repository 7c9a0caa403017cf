//! [`ObservedCloud`]: the measurement decorator. Wraps any store,
//! times every one of the five Web API operations through a
//! [`Runtime`] clock, and records the outcomes in the obs windowed
//! series (`cloud.op_ns`, `cloud.ops`, `cloud.err`, `cloud.bytes_up`,
//! `cloud.bytes_down`, labeled by cloud name) so `--obs-out` exports
//! show per-cloud behavior over time. `cloud.ops` counts attempts and
//! `cloud.err` the failed ones among them; the availability lanes
//! `obs_report` prints are derived from those two
//! (`unidrive_obs::health_lanes`).
//!
//! Stack it *outermost* (e.g. `SimCloud → ChaosCloud → ObservedCloud`)
//! so injected faults and simulated latency are part of what it
//! measures, exactly as a client-side prober would see them.
//!
//! `NotFound` counts as a *successful* probe: the provider answered;
//! the object simply isn't there. Every other error marks the op
//! failed.

use std::sync::Arc;

use unidrive_obs::{Obs, SeriesHandle, SeriesKind};
use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;

use crate::{CloudError, CloudStore, ObjectInfo};

/// Measurement decorator over any [`CloudStore`]; see the module docs.
pub struct ObservedCloud {
    inner: Arc<dyn CloudStore>,
    rt: Arc<dyn Runtime>,
    op_ns: SeriesHandle,
    ops: SeriesHandle,
    err: SeriesHandle,
    bytes_up: SeriesHandle,
    bytes_down: SeriesHandle,
}

impl std::fmt::Debug for ObservedCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedCloud")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl ObservedCloud {
    /// Wraps `inner`, feeding the windowed series of `obs` (no-op
    /// handles when `obs` is; the handles hold everything needed, so
    /// `obs` itself is not retained).
    pub fn new(inner: Arc<dyn CloudStore>, rt: Arc<dyn Runtime>, obs: Obs) -> ObservedCloud {
        let label = inner.name().to_owned();
        ObservedCloud {
            op_ns: obs.series_handle("cloud.op_ns", &label, SeriesKind::Sample),
            ops: obs.series_handle("cloud.ops", &label, SeriesKind::Counter),
            err: obs.series_handle("cloud.err", &label, SeriesKind::Counter),
            bytes_up: obs.series_handle("cloud.bytes_up", &label, SeriesKind::Counter),
            bytes_down: obs.series_handle("cloud.bytes_down", &label, SeriesKind::Counter),
            inner,
            rt,
        }
    }

    fn measure<T>(&self, run: impl FnOnce() -> Result<T, CloudError>) -> Result<T, CloudError> {
        let t0 = self.rt.now().as_nanos();
        let result = run();
        let t1 = self.rt.now().as_nanos();
        // NotFound is an answered probe, not a provider failure.
        let ok = matches!(&result, Ok(_) | Err(CloudError::NotFound { .. }));
        self.op_ns.record(t1.saturating_sub(t0));
        self.ops.record(1);
        if !ok {
            self.err.record(1);
        }
        result
    }
}

impl CloudStore for ObservedCloud {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        let len = data.len() as u64;
        let r = self.measure(|| {
            self.inner
                .upload(path, data)
                .map_err(|e| e.with_op_context(crate::CloudOp::Upload, path))
        });
        if r.is_ok() {
            self.bytes_up.record(len);
        }
        r
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        let r = self.measure(|| {
            self.inner
                .download(path)
                .map_err(|e| e.with_op_context(crate::CloudOp::Download, path))
        });
        if let Ok(data) = &r {
            self.bytes_down.record(data.len() as u64);
        }
        r
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.measure(|| {
            self.inner
                .create_dir(path)
                .map_err(|e| e.with_op_context(crate::CloudOp::CreateDir, path))
        })
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        self.measure(|| {
            self.inner
                .list(path)
                .map_err(|e| e.with_op_context(crate::CloudOp::List, path))
        })
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.measure(|| {
            self.inner
                .delete(path)
                .map_err(|e| e.with_op_context(crate::CloudOp::Delete, path))
        })
    }

    fn caps(&self) -> crate::CloudCaps {
        // Observation is transparent.
        self.inner.caps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemCloud;
    use unidrive_obs::Registry;
    use unidrive_sim::SimRuntime;

    #[test]
    fn observed_cloud_passes_all_five_ops_and_counts_them() {
        let rt = SimRuntime::new(7).as_runtime();
        let reg = Registry::new();
        let rt_clock = Arc::clone(&rt);
        reg.set_clock(move || rt_clock.now().as_nanos());
        let obs = Obs::with_registry(Arc::clone(&reg));

        let inner: Arc<dyn CloudStore> = Arc::new(MemCloud::new("m0"));
        let c = ObservedCloud::new(Arc::clone(&inner), rt, obs);

        c.create_dir("d").unwrap();
        c.upload("d/f", Bytes::from_static(b"abc")).unwrap();
        assert_eq!(c.download("d/f").unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(c.list("d").unwrap().len(), 1);
        c.delete("d/f").unwrap();
        // NotFound counts as an answered (ok) probe.
        assert!(matches!(c.download("d/f"), Err(CloudError::NotFound { .. })));

        let snap = reg.series_snapshot();
        assert_eq!(snap.merged("cloud.ops").sum, 6);
        assert_eq!(snap.merged("cloud.bytes_up").sum, 3);
        assert_eq!(snap.merged("cloud.bytes_down").sum, 3);
        // No failures: the err cell exists (handles resolve eagerly)
        // but never saw a window.
        assert!(snap.entry("cloud.err", "m0").unwrap().windows.is_empty());
        let lanes = snap.health_lanes();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].1.windows, [(0, unidrive_obs::HealthState::Healthy)]);
    }
}
