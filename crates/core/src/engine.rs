//! The shared pull-based transfer engine (paper §6.2).
//!
//! The paper's data plane is one idea applied everywhere: an idle
//! (cloud, connection) pair *pulls* the next best block, so a faster
//! cloud — whose connections go idle more often — naturally receives
//! more work. This module implements that dispatch loop exactly once,
//! for all three things done to a block object — put, get and delete
//! ([`WireOp`]). What differs between upload, download, garbage
//! collection, rebalancing and the baseline clients is only *which*
//! block an idle connection should take and *what* to do when it lands:
//! that is a [`TransferPolicy`].
//!
//! The engine owns everything the former hand-rolled loops duplicated:
//! the worker pool (one actor per cloud connection), a traced [`Retry`]
//! around every wire call, `unidrive-obs` counters and `engine.*`
//! spans, feeding the [`BandwidthProbe`], and idle parking. Workers
//! park on a [`Notifier`] (an eventcount) instead of polling: each
//! completion or failure broadcasts, so an idle connection re-polls its
//! policy only when the schedulable state may actually have changed —
//! no timer churn in the simulator, no busy-wait under wall clock.
//!
//! Callers do not start engines: a batch that is joined before its
//! caller moves on goes through [`run_batch`], which also owns the
//! `engine.batch` span. [`TransferEngine::start`] has exactly one other
//! caller, the upload path, because it alone outlives its call
//! (`wait_until` availability, then `detach`).

use std::sync::Arc;

use unidrive_cloud::{CloudError, CloudId, CloudSet, Retry, RetryPolicy};
use unidrive_obs::{Obs, SpanId};
use unidrive_sim::{spawn, Notifier, Runtime, Task, Time};
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

use crate::probe::BandwidthProbe;

/// What the engine should do on the wire for one job.
pub enum WireOp {
    /// Upload `payload()` to `path`. The payload is produced lazily by
    /// the worker, outside the policy lock — block encoding is the CPU
    /// cost here and must not serialize the scheduler.
    Upload {
        /// Object path on the cloud.
        path: String,
        /// Produces the bytes to upload.
        payload: Box<dyn FnOnce() -> Bytes + Send>,
    },
    /// Download the object at `path`.
    Download {
        /// Object path on the cloud.
        path: String,
    },
    /// Delete the object at `path`. A cloud answering `NotFound` has
    /// done the job: the object is gone, which was the goal.
    Delete {
        /// Object path on the cloud.
        path: String,
    },
}

impl std::fmt::Debug for WireOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireOp::Upload { path, .. } => f.debug_struct("Upload").field("path", path).finish(),
            WireOp::Download { path } => f.debug_struct("Download").field("path", path).finish(),
            WireOp::Delete { path } => f.debug_struct("Delete").field("path", path).finish(),
        }
    }
}

/// One job handed out by a policy: the wire operation plus the
/// bookkeeping the policy needs back on completion.
#[derive(Debug)]
pub struct JobDesc<T> {
    /// Opaque policy state returned via `on_success`/`on_failure`.
    pub token: T,
    /// Block index (an `engine.block` span attribute).
    pub index: u16,
    /// Whether this is an over-provisioned extra (span + counter tag).
    pub extra: bool,
    /// Causal parent for this job's `engine.block` span — how span
    /// context crosses the policy-lock boundary: whichever worker ends
    /// up executing the job keeps parentage to the batch (or segment)
    /// span the policy minted it under. `None` falls back to the
    /// engine's batch span.
    pub parent_span: Option<SpanId>,
    /// What to do on the wire.
    pub op: WireOp,
}

/// The scheduling brain driven by the transfer engine ([`run_batch`]).
///
/// All methods are called under the engine's policy lock; they must not
/// block (no wire calls, no sleeps) — heavy work belongs in the
/// [`WireOp`] payload closure or in the caller.
///
/// Deadlock-safety invariant: whenever nothing is in flight and
/// `next_job` would return `None` for every cloud, `is_done` must be
/// `true` — the engine parks idle workers until a completion notifies
/// them, so a policy that is "not done" yet hands out no work with
/// nothing in flight would park everyone forever (under the simulator,
/// a run that does so panics as a virtual-time deadlock naming every
/// parked `{label}-{cloud}-{conn}` worker). Policies uphold this
/// by re-deriving their finished flag after every completion (and once
/// at construction, for empty batches).
pub trait TransferPolicy: Send + 'static {
    /// Per-job bookkeeping round-tripped through the engine.
    type Token: Send;

    /// Picks the next job for an idle connection of `cloud`, or `None`
    /// if that cloud has nothing useful to do right now.
    fn next_job(&mut self, cloud: CloudId) -> Option<JobDesc<Self::Token>>;

    /// Whether the batch is over (workers exit their loops).
    fn is_done(&self) -> bool;

    /// A job finished. `data` carries downloaded bytes (`None` for
    /// uploads and deletes); `now` is the runtime clock right after the
    /// wire call.
    fn on_success(&mut self, cloud: CloudId, token: Self::Token, data: Option<Bytes>, now: Time);

    /// A job failed after retries.
    fn on_failure(&mut self, cloud: CloudId, token: Self::Token, error: CloudError, now: Time);
}

/// Engine wiring shared by every policy.
#[derive(Debug, Clone)]
pub struct EngineParams {
    /// Worker actors per cloud.
    pub connections_per_cloud: usize,
    /// Retry policy wrapped around every wire call.
    pub retry: RetryPolicy,
    /// Observability handle (counters, spans, retry trace).
    pub obs: Obs,
    /// Counter namespace: counters are `{label}.blocks_dispatched`
    /// etc., retry traces `{label}:{cloud}`.
    pub label: String,
    /// Feed completed transfers into this probe as in-channel bandwidth
    /// measurements.
    pub probe: Option<Arc<BandwidthProbe>>,
    /// Batch-level span: parent for `engine.worker` spans and the
    /// fallback parent for `engine.block` spans whose [`JobDesc`]
    /// carries none.
    pub batch_span: Option<SpanId>,
}

impl EngineParams {
    /// The wiring every engine user has — connections, retries,
    /// observability — under counter namespace `label`; no probe, no
    /// batch span.
    pub fn new(
        label: impl Into<String>,
        connections_per_cloud: usize,
        retry: RetryPolicy,
        obs: Obs,
    ) -> Self {
        EngineParams {
            connections_per_cloud,
            retry,
            obs,
            label: label.into(),
            probe: None,
            batch_span: None,
        }
    }

    /// The same wiring under another counter namespace: a client keeps
    /// one `EngineParams` and labels it per batch.
    pub fn labelled(&self, label: &str) -> Self {
        let mut params = self.clone();
        params.label = label.to_owned();
        params
    }
}

/// Counter names formatted once per engine, not once per block.
struct CounterNames {
    dispatched: String,
    extra_dispatched: String,
    completed: String,
    block_bytes: String,
    block_elapsed: String,
    failures: String,
}

impl CounterNames {
    fn new(label: &str) -> Self {
        CounterNames {
            dispatched: format!("{label}.blocks_dispatched"),
            extra_dispatched: format!("{label}.extra_blocks_dispatched"),
            completed: format!("{label}.blocks_completed"),
            block_bytes: format!("{label}.block_bytes"),
            block_elapsed: format!("{label}.block_elapsed_ns"),
            failures: format!("{label}.block_failures"),
        }
    }
}

/// A running worker pool driving one [`TransferPolicy`].
///
/// Workers spawn on [`TransferEngine::start`] and run until the policy
/// reports done; the caller then either [`join`](TransferEngine::join)s
/// (returning the policy with all its results) or
/// [`detach`](TransferEngine::detach)es after
/// [`wait_until`](TransferEngine::wait_until) some milestone (the
/// availability-first upload path).
pub(crate) struct TransferEngine<P: TransferPolicy> {
    policy: Arc<Mutex<P>>,
    signal: Arc<dyn Notifier>,
    workers: Vec<Task<()>>,
}

impl<P: TransferPolicy> TransferEngine<P> {
    /// Spawns `connections_per_cloud` workers per cloud, each pulling
    /// jobs from `policy` until it is done. A policy that is born done
    /// (an empty batch) spawns nothing: there is no job to pull.
    pub fn start(
        rt: &Arc<dyn Runtime>,
        clouds: &CloudSet,
        params: EngineParams,
        policy: P,
    ) -> Self {
        let born_done = policy.is_done();
        let policy = Arc::new(Mutex::new(policy));
        let signal = rt.notifier();
        if born_done {
            return TransferEngine {
                policy,
                signal,
                workers: Vec::new(),
            };
        }
        let names = Arc::new(CounterNames::new(&params.label));
        let mut workers = Vec::new();
        for (cloud_id, cloud) in clouds.iter() {
            for conn in 0..params.connections_per_cloud {
                let rt2 = Arc::clone(rt);
                let cloud = Arc::clone(cloud);
                let policy = Arc::clone(&policy);
                let signal = Arc::clone(&signal);
                let params = params.clone();
                let names = Arc::clone(&names);
                let retry_label = format!("{}:{}", params.label, cloud.name());
                let cloud_blocks = format!("{}.cloud.{}.blocks", params.label, cloud.name());
                let ctx = WorkerCtx {
                    conn,
                    // Track 0 is the client/control lane; worker lanes
                    // start at 1 in (cloud, connection) order.
                    track: workers.len() as u32 + 1,
                };
                workers.push(spawn(
                    rt,
                    &format!("{}-{}-{}", params.label, cloud.name(), conn),
                    move || {
                        worker_loop(
                            &rt2,
                            cloud_id,
                            &*cloud,
                            &policy,
                            &signal,
                            &params,
                            &names,
                            &retry_label,
                            &cloud_blocks,
                            ctx,
                        );
                    },
                ));
            }
        }
        TransferEngine {
            policy,
            signal,
            workers,
        }
    }

    /// Runs `f` under the policy lock (snapshots, milestone stamps).
    pub fn with<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.policy.lock())
    }

    /// Blocks the calling actor until `cond` holds or the policy is
    /// done, re-checking on every completion broadcast.
    pub fn wait_until(&self, mut cond: impl FnMut(&mut P) -> bool) {
        loop {
            let seen = self.signal.generation();
            {
                let mut p = self.policy.lock();
                if cond(&mut p) || p.is_done() {
                    return;
                }
            }
            self.signal.wait(seen);
        }
    }

    /// Waits for every worker to exit and returns the policy.
    pub fn join(self) -> P {
        for w in self.workers {
            w.join();
        }
        Arc::try_unwrap(self.policy)
            .unwrap_or_else(|_| panic!("policy still shared after workers exited"))
            .into_inner()
    }

    /// Drops the worker handles; the pool keeps running on its own
    /// actors until the policy is done (reliability-second background
    /// work).
    pub fn detach(self) {
        drop(self.workers);
    }
}

/// Runs `policy` to completion as one batch: opens the `engine.batch`
/// span (labelled `params.label`, carrying each `sizes` pair as an
/// attribute name and count) under `parent`, starts the engine, joins
/// it, ends the span
/// and hands the policy back with its results. A policy that is born
/// done comes straight back — no worker, no span.
pub fn run_batch<P: TransferPolicy>(
    rt: &Arc<dyn Runtime>,
    clouds: &CloudSet,
    mut params: EngineParams,
    parent: Option<SpanId>,
    sizes: &[(&'static str, u64)],
    policy: P,
) -> P {
    if policy.is_done() {
        return policy;
    }
    let mut batch = params.obs.span("engine.batch", parent);
    batch.attr_str("label", params.label.as_str());
    for (key, count) in sizes {
        batch.attr_u64(key, *count);
    }
    params.batch_span = batch.id();
    TransferEngine::start(rt, clouds, params, policy).join()
}

/// Per-worker identity: connection number and span display lane.
struct WorkerCtx {
    conn: usize,
    track: u32,
}

/// The single dispatch loop every transfer in the workspace now runs.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P: TransferPolicy>(
    rt: &Arc<dyn Runtime>,
    cloud_id: CloudId,
    cloud: &dyn unidrive_cloud::CloudStore,
    policy: &Arc<Mutex<P>>,
    signal: &Arc<dyn Notifier>,
    params: &EngineParams,
    names: &CounterNames,
    retry_label: &str,
    cloud_blocks: &str,
    ctx: WorkerCtx,
) {
    let obs = &params.obs;
    let mut wspan = obs.span("engine.worker", params.batch_span);
    wspan.set_track(ctx.track);
    wspan.attr_str("label", params.label.as_str());
    wspan.attr_str("cloud", cloud.name());
    wspan.attr_u64("conn", ctx.conn as u64);
    let mut jobs_run = 0u64;
    loop {
        // Eventcount protocol: read the generation before polling the
        // policy so a completion landing between the poll and the wait
        // still wakes us (no lost wake-ups).
        let seen = signal.generation();
        let job = {
            let mut p = policy.lock();
            if p.is_done() {
                break;
            }
            p.next_job(cloud_id)
        };
        let Some(JobDesc {
            token,
            index,
            extra,
            parent_span,
            op,
        }) = job
        else {
            signal.wait(seen);
            continue;
        };
        jobs_run += 1;
        // Spans stamp through the obs registry clock (which reads the
        // sim engine state), so everything below runs lock-free with
        // respect to the policy.
        let mut bspan = obs.span("engine.block", parent_span.or(params.batch_span));
        bspan.set_track(ctx.track);
        bspan.attr_u64("cloud", cloud_id.0 as u64);
        bspan.attr_u64("index", index as u64);
        bspan.attr_bool("extra", extra);
        // Counts the dispatch and starts the transfer clock; hands back
        // the traced retry the wire call runs under.
        let begin = || {
            obs.inc(&names.dispatched);
            if extra {
                obs.inc(&names.extra_dispatched);
            }
            let t0 = rt.now();
            let retry = Retry::new(rt, &params.retry)
                .obs(obs, retry_label)
                .span(bspan.id(), ctx.track);
            (t0, retry)
        };
        let (t0, result, bytes_len) = match op {
            WireOp::Upload { path, payload } => {
                let data = payload();
                let (t0, retry) = begin();
                let r = retry.run(|| cloud.upload(&path, data.clone()));
                (t0, r.map(|()| None), data.len() as u64)
            }
            WireOp::Download { path } => {
                let (t0, retry) = begin();
                let r = retry.run(|| cloud.download(&path));
                let len = r.as_ref().map_or(0, |d| d.len() as u64);
                (t0, r.map(Some), len)
            }
            WireOp::Delete { path } => {
                let (t0, retry) = begin();
                let r = match retry.run(|| cloud.delete(&path)) {
                    Err(CloudError::NotFound { .. }) => Ok(()),
                    r => r,
                };
                (t0, r.map(|()| None), 0)
            }
        };
        let now = rt.now();
        let elapsed = now.saturating_duration_since(t0);
        bspan.attr_bool("ok", result.is_ok());
        bspan.attr_u64("bytes", bytes_len);
        bspan.end();
        match &result {
            Ok(_) => {
                if let Some(probe) = &params.probe {
                    probe.record(cloud_id, bytes_len, elapsed);
                }
                obs.inc(&names.completed);
                obs.add(&names.block_bytes, bytes_len);
                obs.inc(cloud_blocks);
                obs.observe(&names.block_elapsed, elapsed.as_nanos() as u64);
                obs.series_observe("engine.block_ns", cloud.name(), elapsed.as_nanos() as u64);
                obs.series_add("engine.block_bytes", cloud.name(), bytes_len);
            }
            Err(_) => {
                obs.inc(&names.failures);
                obs.series_add("engine.block_fail", cloud.name(), 1);
            }
        }
        {
            let mut p = policy.lock();
            match result {
                Ok(data) => p.on_success(cloud_id, token, data, now),
                Err(e) => p.on_failure(cloud_id, token, e, now),
            }
        }
        // The schedulable state changed: wake every parked connection
        // to re-poll (and to observe is_done on the final completion).
        signal.notify_all();
    }
    wspan.attr_u64("jobs", jobs_run);
}
