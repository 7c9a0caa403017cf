//! Composable decorators over any [`CloudStore`].
//!
//! * [`ChaosCloud`](crate::ChaosCloud) (in [`fault`](crate::fault)) —
//!   deterministic scheduled fault injection over any store.
//! * [`ThrottledCloud`] — token-bucket bandwidth limiting under any
//!   [`Runtime`]; gives the real-directory examples cloud-like speeds.
//!
//! Traffic and operation accounting over any store is
//! [`ObservedCloud`](crate::ObservedCloud)'s byte/op series; Table 3
//! and Fig. 13 read [`TrafficSnapshot`](crate::TrafficSnapshot)s.

use std::sync::Arc;

use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

use crate::qps::{charge, TokenBucket};
use crate::{CloudError, CloudOp, CloudStore, ObjectInfo};

/// Wraps a store, limiting payload throughput with a token bucket.
///
/// Tokens are bytes: a [`TokenBucket`] refilling at `bytes_per_sec`
/// with one second of burst. A transfer that overdraws the bucket
/// sleeps out the deficit on the wrapped [`Runtime`], so this works
/// under both wall-clock and virtual time.
pub struct ThrottledCloud {
    inner: Arc<dyn CloudStore>,
    rt: Arc<dyn Runtime>,
    bucket: Mutex<TokenBucket>,
}

impl std::fmt::Debug for ThrottledCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThrottledCloud")
            .field("inner", &self.inner.name())
            .field("bytes_per_sec", &self.bucket.lock().rate_per_sec())
            .finish()
    }
}

impl ThrottledCloud {
    /// Wraps `inner` with a `bytes_per_sec` payload rate limit.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(inner: Arc<dyn CloudStore>, rt: Arc<dyn Runtime>, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "rate must be positive");
        let rate = bytes_per_sec as u64;
        ThrottledCloud {
            inner,
            rt,
            bucket: Mutex::new(TokenBucket::new(rate, rate)),
        }
    }
}

impl CloudStore for ThrottledCloud {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        charge(&self.rt, &self.bucket, data.len() as u64);
        self.inner
            .upload(path, data)
            .map_err(|e| e.with_op_context(CloudOp::Upload, path))
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        let data = self
            .inner
            .download(path)
            .map_err(|e| e.with_op_context(CloudOp::Download, path))?;
        charge(&self.rt, &self.bucket, data.len() as u64);
        Ok(data)
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.inner
            .create_dir(path)
            .map_err(|e| e.with_op_context(CloudOp::CreateDir, path))
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        self.inner
            .list(path)
            .map_err(|e| e.with_op_context(CloudOp::List, path))
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.inner
            .delete(path)
            .map_err(|e| e.with_op_context(CloudOp::Delete, path))
    }

    fn caps(&self) -> crate::CloudCaps {
        // Shaping doesn't change semantics.
        self.inner.caps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemCloud;
    use unidrive_sim::{RealRuntime, SimRuntime};

    fn mem() -> Arc<dyn CloudStore> {
        Arc::new(MemCloud::new("m"))
    }

    #[test]
    fn throttle_paces_virtual_time() {
        let sim = SimRuntime::new(13);
        let rt = sim.clone().as_runtime();
        let c = ThrottledCloud::new(mem(), rt, 1_000_000.0);
        let t0 = sim.now();
        // First MB rides the initial burst; next 2 MB take 2 s.
        for i in 0..3 {
            c.upload(&format!("f{i}"), Bytes::from(vec![0u8; 1_000_000]))
                .unwrap();
        }
        let elapsed = (sim.now() - t0).as_secs_f64();
        assert!((1.9..2.3).contains(&elapsed), "elapsed {elapsed}");
    }

    #[test]
    fn throttle_works_under_wall_clock() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let c = ThrottledCloud::new(mem(), Arc::clone(&rt), 10_000_000.0);
        let t0 = rt.now();
        // 10 MB burst + 10 MB at 10 MB/s ≈ 1 s.
        c.upload("a", Bytes::from(vec![0u8; 10_000_000])).unwrap();
        c.upload("b", Bytes::from(vec![0u8; 10_000_000])).unwrap();
        let took = (rt.now() - t0).as_secs_f64();
        assert!(took >= 0.9, "took {took}");
    }

    /// Drives all five ops through a wrapper and checks they reach the
    /// shared inner store with results intact.
    fn all_five_ops_pass_through(wrapped: &dyn CloudStore, inner: &Arc<dyn CloudStore>) {
        wrapped.create_dir("d/sub").unwrap();
        wrapped
            .upload("d/f.bin", Bytes::from_static(b"payload"))
            .unwrap();
        assert_eq!(
            wrapped.download("d/f.bin").unwrap(),
            Bytes::from_static(b"payload")
        );
        let names: Vec<String> = wrapped
            .list("d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.contains(&"f.bin".to_owned()) && names.contains(&"sub".to_owned()));
        wrapped.delete("d/f.bin").unwrap();
        assert!(matches!(
            inner.download("d/f.bin"),
            Err(CloudError::NotFound { .. })
        ));
        // The directory created through the wrapper is on the inner store.
        assert!(inner.list("d/sub").is_ok());
    }

    #[test]
    fn throttled_cloud_passes_all_five_ops_through() {
        let sim = SimRuntime::new(21);
        let rt = sim.clone().as_runtime();
        let inner = mem();
        let c = ThrottledCloud::new(Arc::clone(&inner), Arc::clone(&rt), 1e9);
        all_five_ops_pass_through(&c, &inner);
        // Metadata ops are unthrottled: they consume no tokens and no
        // virtual time.
        let t0 = sim.now();
        c.create_dir("meta").unwrap();
        c.list("").unwrap();
        c.delete("meta").unwrap();
        assert_eq!((sim.now() - t0).as_secs_f64(), 0.0);
    }
}
