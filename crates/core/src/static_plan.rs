//! The workspace's one *static* [`TransferPolicy`]: every wire
//! operation is assigned to its cloud up front, idle connections drain
//! their cloud's queue in order, and nothing ever reacts to observed
//! speed.
//!
//! That "non-policy" is what block garbage collection, repair and
//! add/remove-cloud re-homing need (the metadata already says which
//! cloud each block lives on or goes to), and it is exactly what
//! distinguishes the three baselines (single-cloud, intuitive and the
//! multi-cloud benchmark) from UniDrive's dynamic schedulers — so they
//! all share this type and differ only in how they build the plan.

use std::collections::VecDeque;

use unidrive_cloud::{CloudError, CloudId};
use unidrive_sim::Time;
use unidrive_util::bytes::Bytes;

use crate::engine::{JobDesc, TransferPolicy, WireOp, Work};

#[derive(Debug)]
struct PlannedJob {
    slot: usize,
    index: u16,
    op: WireOp,
}

/// Fixed per-cloud queues of wire operations with a per-job outcome;
/// no rescheduling. Build with [`new`](Self::new) +
/// [`push`](Self::push), run with [`run_batch`](crate::run_batch), then
/// read the public fields.
#[derive(Debug)]
pub struct StaticPlan {
    queues: Vec<VecDeque<PlannedJob>>,
    inflight: usize,
    /// By result slot: when the job's wire operation succeeded, if it
    /// did.
    pub landed: Vec<Option<Time>>,
    /// By result slot: the bytes a download job fetched.
    pub data: Vec<Option<Bytes>>,
    /// First hard failure (retries exhausted), if any.
    pub error: Option<CloudError>,
}

impl StaticPlan {
    /// An empty plan over `clouds` clouds.
    pub fn new(clouds: usize) -> Self {
        StaticPlan {
            queues: (0..clouds).map(|_| VecDeque::new()).collect(),
            inflight: 0,
            landed: Vec::new(),
            data: Vec::new(),
            error: None,
        }
    }

    /// Queues `op` behind `cloud`'s earlier jobs and returns its result
    /// slot (slots count up from 0 in push order). `index` is the block
    /// or chunk index reported on the job's `engine.block` span.
    ///
    /// # Panics
    ///
    /// Panics if `cloud` is outside the plan's cloud count.
    pub fn push(&mut self, cloud: CloudId, index: u16, op: WireOp) -> usize {
        let slot = self.landed.len();
        self.queues[cloud.0].push_back(PlannedJob { slot, index, op });
        self.landed.push(None);
        self.data.push(None);
        slot
    }
}

impl TransferPolicy for StaticPlan {
    /// `(result slot, whether the job is a delete)`.
    type Token = (usize, bool);

    fn next_job(&mut self, cloud: CloudId, _now: Time) -> Option<JobDesc<Self::Token>> {
        let job = self.queues.get_mut(cloud.0)?.pop_front()?;
        self.inflight += 1;
        Some(JobDesc {
            token: (job.slot, matches!(job.op, WireOp::Delete { .. })),
            index: job.index,
            extra: false,
            // Static plans carry no per-job span context: every block
            // parents to the engine's batch span.
            parent_span: None,
            op: job.op,
        })
    }

    fn is_done(&self) -> bool {
        self.inflight == 0 && self.queues.iter().all(VecDeque::is_empty)
    }

    fn on_success(
        &mut self,
        _: CloudId,
        (slot, _): Self::Token,
        data: Option<Bytes>,
        now: Time,
    ) -> Option<Work<Self>> {
        self.inflight -= 1;
        self.landed[slot] = Some(now);
        self.data[slot] = data;
        None
    }

    fn on_failure(&mut self, cloud: CloudId, (_, delete): Self::Token, error: CloudError, _: Time) {
        self.inflight -= 1;
        // A hard failure (retries exhausted) parks the rest of that
        // cloud's transfers: a static plan has no other cloud to bounce
        // work to, so more attempts only delay the error report.
        // Deletes are independent of each other and nobody waits on
        // their error, so only a cloud that is gone stops the rest.
        if !delete || matches!(error, CloudError::Unavailable { .. }) {
            self.queues[cloud.0].clear();
        }
        self.error.get_or_insert(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_batch, EngineParams};
    use std::sync::Arc;
    use std::time::Duration;
    use unidrive_cloud::{CloudSet, CloudStore, RetryPolicy, SimCloud, SimCloudConfig};
    use unidrive_obs::{Obs, Registry};
    use unidrive_sim::{Runtime, SimRuntime};

    struct Rig {
        sim: Arc<SimRuntime>,
        handles: Vec<Arc<SimCloud>>,
        clouds: CloudSet,
        registry: Arc<Registry>,
    }

    /// Fixed request latency of every rig cloud's upstream path, which
    /// a delete crosses with no payload.
    const LATENCY: Duration = Duration::from_millis(10);

    fn rig(n: usize) -> Rig {
        let sim = SimRuntime::new(1);
        let mut config = SimCloudConfig::steady(1e6, 4e6);
        config.up = config.up.with_latency(LATENCY, Duration::ZERO);
        let handles: Vec<Arc<SimCloud>> = (0..n)
            .map(|i| Arc::new(SimCloud::new(&sim, format!("c{i}"), config.clone())))
            .collect();
        let clouds = CloudSet::new(
            handles
                .iter()
                .map(|c| Arc::clone(c) as Arc<dyn CloudStore>)
                .collect(),
        );
        Rig {
            sim,
            handles,
            clouds,
            registry: Registry::new(),
        }
    }

    /// One connection per cloud, so a cloud's queue runs strictly in
    /// order.
    fn run(rig: &Rig, plan: StaticPlan) -> StaticPlan {
        let obs = Obs::with_registry(Arc::clone(&rig.registry));
        let params = EngineParams::new("gc", 1, RetryPolicy::new(), obs);
        let size = ("blocks", plan.landed.len() as u64);
        let rt = rig.sim.clone().as_runtime();
        run_batch(&rt, &rig.clouds, params, None, &[size], plan)
    }

    fn delete(path: &str) -> WireOp {
        WireOp::Delete { path: path.into() }
    }

    fn landed(plan: &StaticPlan) -> Vec<bool> {
        plan.landed.iter().map(Option::is_some).collect()
    }

    #[test]
    fn delete_lands_without_data_and_a_missing_object_counts_as_done() {
        let r = rig(1);
        r.handles[0].upload("blocks/a", Bytes::from_static(b"x")).unwrap();
        let mut plan = StaticPlan::new(1);
        assert_eq!(plan.push(CloudId(0), 0, delete("blocks/a")), 0);
        assert_eq!(plan.push(CloudId(0), 1, delete("blocks/ghost")), 1);
        let t0 = r.sim.now();
        let done = run(&r, plan);
        // One connection: slot i of the cloud lands at (i + 1) latencies.
        assert_eq!(done.landed, [Some(t0 + LATENCY), Some(t0 + 2 * LATENCY)]);
        assert_eq!(done.data, [None, None]);
        assert!(done.error.is_none(), "{:?}", done.error);
        assert!(!r.handles[0].exists("blocks/a").unwrap());
        let series = r.registry.series_snapshot();
        assert_eq!(series.merged("gc.block_ns").count, 2);
        assert_eq!(series.merged("gc.block_failures").sum, 0);
        let snap = r.registry.snapshot();
        assert_eq!(snap.span_count("engine.batch"), 1);
        assert_eq!(snap.span_count("engine.block"), 2);
    }

    #[test]
    fn an_unavailable_cloud_parks_its_own_deletes_only() {
        let r = rig(2);
        let mut plan = StaticPlan::new(2);
        for cloud in 0..2 {
            for index in 0..3u16 {
                let path = format!("blocks/{index}");
                r.handles[cloud].upload(&path, Bytes::from_static(b"x")).unwrap();
                plan.push(CloudId(cloud), index, delete(&path));
            }
        }
        r.handles[0].set_available(false);
        let done = run(&r, plan);
        assert_eq!(landed(&done), [false, false, false, true, true, true]);
        assert!(matches!(done.error, Some(CloudError::Unavailable { .. })));
        // One delete met the outage; the two behind it were never sent.
        let series = r.registry.series_snapshot();
        assert_eq!(series.merged("gc.blocks_dispatched").sum, 4);
        assert_eq!(series.merged("gc.block_failures").sum, 1);
    }

    #[test]
    fn a_failed_delete_does_not_park_the_queue_but_a_failed_transfer_does() {
        let r = rig(1);
        r.handles[0].upload("blocks/b", Bytes::from_static(b"x")).unwrap();
        // "/abs" is refused as `InvalidPath`: a hard failure of one job
        // that says nothing about the cloud.
        let mut plan = StaticPlan::new(1);
        plan.push(CloudId(0), 0, WireOp::Download { path: "/abs".into() });
        plan.push(CloudId(0), 1, WireOp::Download { path: "blocks/b".into() });
        let done = run(&r, plan);
        assert_eq!(landed(&done), [false, false]);
        assert!(matches!(done.error, Some(CloudError::InvalidPath { .. })));

        let mut plan = StaticPlan::new(1);
        plan.push(CloudId(0), 0, delete("/abs"));
        plan.push(CloudId(0), 1, delete("blocks/b"));
        let done = run(&r, plan);
        assert_eq!(landed(&done), [false, true]);
        assert!(matches!(done.error, Some(CloudError::InvalidPath { .. })));
        assert!(!r.handles[0].exists("blocks/b").unwrap());
    }

    #[test]
    fn downloads_come_back_by_slot() {
        let r = rig(2);
        r.handles[0].upload("x", Bytes::from_static(b"zero")).unwrap();
        r.handles[1].upload("y", Bytes::from_static(b"one")).unwrap();
        let mut plan = StaticPlan::new(2);
        plan.push(CloudId(1), 0, WireOp::Download { path: "y".into() });
        plan.push(CloudId(0), 0, WireOp::Download { path: "x".into() });
        let done = run(&r, plan);
        assert_eq!(done.data[0].as_deref(), Some(&b"one"[..]));
        assert_eq!(done.data[1].as_deref(), Some(&b"zero"[..]));
    }

    /// What keeps a commit that collects no garbage exactly as cheap as
    /// before GC ran on the engine.
    #[test]
    fn a_born_done_plan_spawns_nothing() {
        let r = rig(3);
        let done = run(&r, StaticPlan::new(3));
        assert!(done.landed.is_empty() && done.error.is_none());
        let snap = r.registry.snapshot();
        assert_eq!(snap.span_count("engine.batch"), 0);
        assert_eq!(snap.span_count("engine.worker"), 0);
        assert!(snap.spans.is_empty(), "{:?}", snap.spans);
    }
}
