//! The one statement of the paper's metadata rule (§5.2): replicate to
//! every cloud concurrently, count the answers, succeed on a majority.
//!
//! Lock files, the base/delta/version files, op objects and the oplog
//! base all travel through [`fan_out`], and every "did enough clouds
//! answer?" decision is [`require_reachable`] or [`require_acked`] — so
//! the quorum lock and both metadata planes share one replication loop
//! and report a shortfall through one error type, [`PlaneError`].

use std::sync::Arc;

use unidrive_cloud::{CloudId, CloudSet, CloudStore};
use unidrive_meta::PlaneError;
use unidrive_sim::Runtime;

/// Runs `op` against every cloud concurrently: one task named `label`
/// per cloud, spawned in [`CloudSet`] order and joined in that same
/// order, so the results come back indexed by [`CloudId`] however the
/// clouds' answers interleave. `op` wraps its cloud calls in
/// [`Retry`](unidrive_cloud::Retry) where the protocol retries them
/// (metadata files) and leaves them bare where it must not (lock
/// files, whose rounds are the retry).
pub(crate) fn fan_out<T, F>(rt: &Arc<dyn Runtime>, clouds: &CloudSet, label: &str, op: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(CloudId, &dyn CloudStore) -> T + Send + Sync + 'static,
{
    let op = Arc::new(op);
    let tasks: Vec<_> = clouds
        .iter()
        .map(|(id, cloud)| {
            let (cloud, op) = (Arc::clone(cloud), Arc::clone(&op));
            unidrive_sim::spawn(rt, label, move || op(id, cloud.as_ref()))
        })
        .collect();
    tasks.into_iter().map(|t| t.join()).collect()
}

/// Read side of the rule: `reachable` clouds answered completely.
///
/// # Errors
///
/// [`PlaneError::QuorumUnreachable`] below a majority — what was read
/// may be missing acknowledged writes.
pub(crate) fn require_reachable(clouds: &CloudSet, reachable: usize) -> Result<(), PlaneError> {
    let quorum = clouds.quorum();
    if reachable >= quorum {
        Ok(())
    } else {
        Err(PlaneError::QuorumUnreachable { reachable, quorum })
    }
}

/// Write side of the rule: counts the clouds whose `acks` entry says
/// they stored the whole update.
///
/// # Errors
///
/// [`PlaneError::QuorumWriteFailed`] below a majority — the write may
/// sit on a minority of clouds but does not count as committed.
pub(crate) fn require_acked(
    clouds: &CloudSet,
    acks: impl IntoIterator<Item = bool>,
) -> Result<(), PlaneError> {
    let acked = acks.into_iter().filter(|ok| *ok).count();
    let quorum = clouds.quorum();
    if acked >= quorum {
        Ok(())
    } else {
        Err(PlaneError::QuorumWriteFailed { acked, quorum })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use unidrive_cloud::{ChaosCloud, CloudError, FaultEvent, FaultKind, FaultPlan, MemCloud};
    use unidrive_sim::SimRuntime;
    use unidrive_util::bytes::Bytes;
    use unidrive_util::sync::Mutex;

    /// Cloud `i` answers after `(5 - i) × 100 ms`, so completion order
    /// is the reverse of `CloudSet` order, and cloud 1 is down.
    #[test]
    fn results_are_indexed_by_cloud_not_by_completion() {
        let sim = SimRuntime::new(31);
        let rt = sim.clone().as_runtime();
        let mut members: Vec<Arc<dyn CloudStore>> = Vec::new();
        for i in 0..5 {
            let mem: Arc<dyn CloudStore> = Arc::new(MemCloud::new(format!("c{i}")));
            mem.upload("f", Bytes::from(format!("body-{i}").into_bytes())).unwrap();
            if i == 1 {
                let plan =
                    FaultPlan::with_events(1, vec![FaultEvent::always("c1", FaultKind::Outage)]);
                members.push(Arc::new(ChaosCloud::new(mem, Arc::clone(&rt), &plan)));
            } else {
                members.push(mem);
            }
        }
        let clouds = CloudSet::new(members);
        let finished = Arc::new(Mutex::new(Vec::new()));
        let t0 = sim.now();
        let (rt2, finished2) = (Arc::clone(&rt), Arc::clone(&finished));
        let results = fan_out(&rt, &clouds, "test-read", move |id, cloud| {
            rt2.sleep(Duration::from_millis(100 * (5 - id.0 as u64)));
            let body = cloud.download("f");
            finished2.lock().push(id.0);
            body
        });
        assert_eq!(*finished.lock(), vec![4, 3, 2, 1, 0], "test premise: reverse completion");
        assert_eq!(results.len(), 5);
        for (i, result) in results.iter().enumerate() {
            match result {
                Err(e) => {
                    assert_eq!(i, 1, "only the down cloud fails");
                    assert!(matches!(e, CloudError::Unavailable { .. }), "{e}");
                }
                Ok(body) => assert_eq!(&body[..], format!("body-{i}").as_bytes()),
            }
        }
        // Concurrent, not sequential: the slowest cloud sets the time.
        assert_eq!(sim.now() - t0, Duration::from_millis(500));
    }
}
