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
//! around every wire call, `unidrive-obs` block series and `engine.*`
//! spans, feeding the [`BandwidthProbe`], and idle parking. Workers
//! park on a [`Notifier`] (an eventcount) instead of polling: each
//! completion or failure broadcasts, so an idle connection re-polls its
//! policy only when the schedulable state may actually have changed —
//! no timer churn in the simulator, no busy-wait under wall clock. The
//! one other change is time itself: a policy that will have work at a
//! known instant says so ([`TransferPolicy::wake_at`]), and one alarm
//! actor broadcasts then.
//!
//! No kernel runs under the policy lock. CPU work is done by the worker
//! that needs it, outside the lock, in one of two places: before the
//! wire call, a [`WireOp::Upload`] payload closure encodes its block;
//! after it, a completion may hand its worker [`Work`] (the download
//! policy decodes and verifies a segment there), whose result the worker
//! applies under the lock again before it broadcasts.
//!
//! Callers do not start engines: a batch that is joined before its
//! caller moves on goes through [`run_batch`], which also owns the
//! `engine.batch` span. [`TransferEngine::start`] has exactly one other
//! caller, the upload path, because it alone outlives its call
//! (`wait_until` availability, then `detach`).

use std::sync::Arc;

use unidrive_cloud::{CloudError, CloudId, CloudSet, Retry, RetryPolicy};
use unidrive_obs::{Obs, SeriesHandle, SeriesKind, SpanGuard, SpanId};
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

/// CPU work a completion hands the worker that completed it
/// ([`TransferPolicy::on_success`]). The worker runs `run` after it has
/// released the policy lock, inside a span named `span` (parented to
/// the batch span, on the worker's lane; `run` may annotate it), then
/// applies what `run` returns under the lock, which may hand it more
/// work, and broadcasts once none is left.
pub struct Work<P> {
    /// Name of the span recorded around `run`.
    pub span: &'static str,
    /// The work itself: runs outside the lock.
    pub run: Run<P>,
}

/// The body of a [`Work`]: runs outside the lock, may annotate its span.
pub type Run<P> = Box<dyn FnOnce(&mut SpanGuard) -> Apply<P> + Send>;

/// The result of a [`Work`], applied to the policy under its lock.
pub type Apply<P> = Box<dyn FnOnce(&mut P) -> Option<Work<P>> + Send>;

impl<P> std::fmt::Debug for Work<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Work").field("span", &self.span).finish()
    }
}

/// The scheduling brain driven by the transfer engine ([`run_batch`]).
///
/// All methods are called under the engine's policy lock; they must not
/// block (no wire calls, no sleeps) and run no kernel: CPU work belongs
/// in the [`WireOp`] payload closure, in the [`Work`] a completion hands
/// its worker, or in the caller.
///
/// Deadlock-safety invariant: whenever nothing is in flight, no
/// [`Work`] is out and `next_job` would return `None` for every cloud,
/// `is_done` must be `true` — the engine parks idle workers until a
/// completion notifies them, so a policy that is "not done" yet hands
/// out no work with nothing in flight would park everyone forever
/// (under the simulator, a run that does so panics as a virtual-time
/// deadlock naming every parked `{label}-{cloud}-{conn}` worker).
/// Policies uphold this by re-deriving their finished flag after every
/// completion and applied [`Work`] (and once at construction, for
/// empty batches).
pub trait TransferPolicy: Send + Sized + 'static {
    /// Per-job bookkeeping round-tripped through the engine.
    type Token: Send;

    /// Picks the next job for an idle connection of `cloud`, or `None`
    /// if that cloud has nothing useful to do right now. `now` is the
    /// runtime clock, read by the worker before it took the policy
    /// lock: under the simulator a clock read must not nest in it.
    fn next_job(&mut self, cloud: CloudId, now: Time) -> Option<JobDesc<Self::Token>>;

    /// After a `next_job` that returned `None`: the instant at which
    /// it could return a job with no completion in between, if any.
    /// The engine wakes its parked workers then.
    fn wake_at(&self) -> Option<Time> {
        None
    }

    /// Whether the batch is over (workers exit their loops).
    fn is_done(&self) -> bool;

    /// A job finished. `data` carries downloaded bytes (`None` for
    /// uploads and deletes); `now` is the runtime clock right after the
    /// wire call. What the completion makes due to compute is returned
    /// as [`Work`] for this job's worker to run outside the lock.
    fn on_success(
        &mut self,
        cloud: CloudId,
        token: Self::Token,
        data: Option<Bytes>,
        now: Time,
    ) -> Option<Work<Self>>;

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
    /// Observability handle (block series, spans, retry trace).
    pub obs: Obs,
    /// Batch label: block series are `{label}.blocks_dispatched` etc.,
    /// labelled by cloud; retry traces `{label}:{cloud}`.
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
    /// observability — under batch label `label`; no probe, no batch
    /// span.
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

    /// The same wiring under another batch label: a client keeps one
    /// `EngineParams` and labels it per batch.
    pub fn labelled(&self, label: &str) -> Self {
        let mut params = self.clone();
        params.label = label.to_owned();
        params
    }
}

/// The series one worker records into. A worker serves one batch
/// label and one cloud, so it resolves them once, at spawn: per block
/// a dispatch (and an extra one), then the transfer time and bytes of
/// a completion or a failure, each labelled by the cloud. A completed
/// block is one sample of `{label}.block_ns`.
#[derive(Default)]
struct WorkerSeries {
    dispatched: SeriesHandle,
    extra_dispatched: SeriesHandle,
    block_ns: SeriesHandle,
    block_bytes: SeriesHandle,
    failures: SeriesHandle,
}

impl WorkerSeries {
    fn new(obs: &Obs, label: &str, cloud: &str) -> Self {
        if !obs.is_enabled() {
            return WorkerSeries::default();
        }
        let handle = |name: &str, kind| obs.series_handle(&format!("{label}.{name}"), cloud, kind);
        WorkerSeries {
            dispatched: handle("blocks_dispatched", SeriesKind::Counter),
            extra_dispatched: handle("extra_blocks_dispatched", SeriesKind::Counter),
            block_ns: handle("block_ns", SeriesKind::Sample),
            block_bytes: handle("block_bytes", SeriesKind::Counter),
            failures: handle("block_failures", SeriesKind::Counter),
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
    wakeups: Arc<Wakeups>,
    workers: Vec<Task<()>>,
}

/// The wake-ups of one pool: every completion broadcasts on `signal`,
/// and `alarm` is the instant an armed alarm actor broadcasts next.
struct Wakeups {
    signal: Arc<dyn Notifier>,
    alarm: Mutex<Option<Time>>,
}

impl Wakeups {
    /// Makes sure parked workers are woken at `at`: spawns one detached
    /// actor that sleeps until then and broadcasts, unless an armed one
    /// broadcasts no later. The actor is not a worker, so a batch that
    /// finishes first is joined without waiting for it.
    fn arm(self: &Arc<Self>, rt: &Arc<dyn Runtime>, name: &str, at: Time) {
        {
            let mut alarm = self.alarm.lock();
            if alarm.is_some_and(|armed| armed <= at) {
                return;
            }
            *alarm = Some(at);
        }
        let (rt2, wakeups) = (Arc::clone(rt), Arc::clone(self));
        rt.spawn_raw(
            name,
            Box::new(move || {
                rt2.sleep(at.saturating_duration_since(rt2.now()));
                {
                    let mut alarm = wakeups.alarm.lock();
                    if *alarm == Some(at) {
                        *alarm = None;
                    }
                }
                wakeups.signal.notify_all();
            }),
        );
    }
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
        let wakeups = Arc::new(Wakeups {
            signal: rt.notifier(),
            alarm: Mutex::new(None),
        });
        if born_done {
            return TransferEngine {
                policy,
                wakeups,
                workers: Vec::new(),
            };
        }
        let mut workers = Vec::new();
        for (cloud_id, cloud) in clouds.iter() {
            for conn in 0..params.connections_per_cloud {
                let rt2 = Arc::clone(rt);
                let cloud = Arc::clone(cloud);
                let policy = Arc::clone(&policy);
                let wakeups = Arc::clone(&wakeups);
                let params = params.clone();
                let retry_label = format!("{}:{}", params.label, cloud.name());
                let series = WorkerSeries::new(&params.obs, &params.label, cloud.name());
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
                            &wakeups,
                            &params,
                            &series,
                            &retry_label,
                            ctx,
                        );
                    },
                ));
            }
        }
        TransferEngine {
            policy,
            wakeups,
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
            let seen = self.wakeups.signal.generation();
            {
                let mut p = self.policy.lock();
                if cond(&mut p) || p.is_done() {
                    return;
                }
            }
            self.wakeups.signal.wait(seen);
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
    wakeups: &Arc<Wakeups>,
    params: &EngineParams,
    series: &WorkerSeries,
    retry_label: &str,
    ctx: WorkerCtx,
) {
    let obs = &params.obs;
    let mut wspan = obs.span("engine.worker", params.batch_span);
    wspan.set_track(ctx.track);
    wspan.attr_str("label", params.label.as_str());
    wspan.attr_str("cloud", cloud.name());
    wspan.attr_u64("conn", ctx.conn as u64);
    let signal = &wakeups.signal;
    let mut jobs_run = 0u64;
    loop {
        // Eventcount protocol: read the generation before polling the
        // policy so a completion landing between the poll and the wait
        // still wakes us (no lost wake-ups).
        let seen = signal.generation();
        let now = rt.now();
        let (job, wake) = {
            let mut p = policy.lock();
            if p.is_done() {
                break;
            }
            let job = p.next_job(cloud_id, now);
            let wake = if job.is_none() { p.wake_at() } else { None };
            (job, wake)
        };
        let Some(JobDesc {
            token,
            index,
            extra,
            parent_span,
            op,
        }) = job
        else {
            if let Some(at) = wake {
                wakeups.arm(rt, &format!("{}-alarm", params.label), at);
            }
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
            series.dispatched.record(1);
            if extra {
                series.extra_dispatched.record(1);
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
                series.block_ns.record(elapsed.as_nanos() as u64);
                series.block_bytes.record(bytes_len);
            }
            Err(_) => series.failures.record(1),
        }
        let mut work = {
            let mut p = policy.lock();
            match result {
                Ok(data) => p.on_success(cloud_id, token, data, now),
                Err(e) => {
                    p.on_failure(cloud_id, token, e, now);
                    None
                }
            }
        };
        // The completion's CPU work runs here, with the lock released,
        // so other workers hand in blocks and take jobs meanwhile.
        while let Some(Work { span, run }) = work {
            let mut kspan = obs.span(span, params.batch_span);
            kspan.set_track(ctx.track);
            let apply = run(&mut kspan);
            kspan.end();
            work = apply(&mut policy.lock());
        }
        // The schedulable state changed: wake every parked connection
        // to re-poll (and to observe is_done on the final completion).
        signal.notify_all();
    }
    wspan.attr_u64("jobs", jobs_run);
}

#[cfg(test)]
mod tests {
    //! A policy that breaks the engine's deadlock-safety invariant (never
    //! done, never hands out a job) must fail the run, not hang it: under
    //! the simulator every worker parks on the engine's notifier, the
    //! simulator finds nothing pending, and the joining caller panics with
    //! a diagnostic naming each parked worker.

    use super::*;
    use std::time::Duration;

    use unidrive_cloud::{CloudStore, MemCloud};
    use unidrive_sim::SimRuntime;

    /// Never done, never hands out work: the shape of a scheduler bug where
    /// workers park on the notifier with nothing in flight.
    struct StuckPolicy;

    impl TransferPolicy for StuckPolicy {
        type Token = ();

        fn next_job(&mut self, _cloud: CloudId, _now: Time) -> Option<JobDesc<()>> {
            None
        }

        fn is_done(&self) -> bool {
            false
        }

        fn on_success(&mut self, _: CloudId, _: (), _: Option<Bytes>, _: Time) -> Option<Work<Self>> {
            None
        }

        fn on_failure(&mut self, _: CloudId, _: (), _: CloudError, _: Time) {}
    }

    /// Has one delete to hand out, and only from `at` on: nothing that
    /// completes wakes the workers in between, only the alarm.
    struct LaterPolicy {
        at: Time,
        handed: bool,
        landed: Option<Time>,
    }

    impl TransferPolicy for LaterPolicy {
        type Token = ();

        fn next_job(&mut self, _cloud: CloudId, now: Time) -> Option<JobDesc<()>> {
            if self.handed || now < self.at {
                return None;
            }
            self.handed = true;
            let op = WireOp::Delete {
                path: "blocks/x".into(),
            };
            Some(JobDesc {
                token: (),
                index: 0,
                extra: false,
                parent_span: None,
                op,
            })
        }

        fn wake_at(&self) -> Option<Time> {
            (!self.handed).then_some(self.at)
        }

        fn is_done(&self) -> bool {
            self.landed.is_some()
        }

        fn on_success(&mut self, _: CloudId, _: (), _: Option<Bytes>, now: Time) -> Option<Work<Self>> {
            self.landed = Some(now);
            None
        }

        fn on_failure(&mut self, _: CloudId, _: (), _: CloudError, _: Time) {}
    }

    /// Every worker parks with nothing in flight; the one job is handed
    /// out at `at`, because the alarm `wake_at` armed wakes them then.
    #[test]
    fn an_idle_pool_is_polled_again_when_the_policy_said() {
        let sim = SimRuntime::new(7);
        let rt = sim.clone().as_runtime();
        let clouds = CloudSet::new(
            (0..2)
                .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                .collect(),
        );
        let params = EngineParams::new("later", 2, RetryPolicy::new(), Obs::noop());
        let at = rt.now() + Duration::from_secs(3);
        let policy = LaterPolicy {
            at,
            handed: false,
            landed: None,
        };
        let done = run_batch(&rt, &clouds, params, None, &[], policy);
        assert_eq!(done.landed, Some(at));
    }

    /// Whether A's work has started, and whether B has landed.
    type Gate = Arc<(std::sync::Mutex<(bool, bool)>, std::sync::Condvar)>;

    /// Waits on `gate` until `done` holds of it, for at most 5 s;
    /// returns whether it did.
    fn await_gate(gate: &Gate, done: impl Fn(&(bool, bool)) -> bool) -> bool {
        let (state, cv) = &**gate;
        let state = state.lock().unwrap();
        let (state, _) = cv
            .wait_timeout_while(state, Duration::from_secs(5), |s| !done(s))
            .unwrap();
        done(&state)
    }

    fn open_gate(gate: &Gate, open: impl FnOnce(&mut (bool, bool))) {
        open(&mut gate.0.lock().unwrap());
        gate.1.notify_all();
    }

    /// Job A (a delete on cloud 0) hands its worker work that waits
    /// until job B (an upload on cloud 1, whose payload waits until that
    /// work started) has landed; the applied result says whether it saw
    /// B land.
    struct OverlapPolicy {
        gate: Gate,
        handed: [bool; 2],
        landed: usize,
        saw_b: Option<bool>,
    }

    impl TransferPolicy for OverlapPolicy {
        type Token = usize;

        fn next_job(&mut self, cloud: CloudId, _now: Time) -> Option<JobDesc<usize>> {
            let job = cloud.0;
            if std::mem::replace(&mut self.handed[job], true) {
                return None;
            }
            let op = match job {
                0 => WireOp::Delete { path: "blocks/a".into() },
                _ => {
                    let gate = Arc::clone(&self.gate);
                    let payload = move || {
                        await_gate(&gate, |s| s.0);
                        Bytes::from(vec![1u8])
                    };
                    WireOp::Upload {
                        path: "blocks/b".into(),
                        payload: Box::new(payload),
                    }
                }
            };
            Some(JobDesc {
                token: job,
                index: 0,
                extra: false,
                parent_span: None,
                op,
            })
        }

        fn is_done(&self) -> bool {
            self.landed == 2 && self.saw_b.is_some()
        }

        fn on_success(&mut self, _: CloudId, job: usize, _: Option<Bytes>, _: Time) -> Option<Work<Self>> {
            self.landed += 1;
            if job == 1 {
                open_gate(&self.gate, |s| s.1 = true);
                return None;
            }
            let gate = Arc::clone(&self.gate);
            Some(Work {
                span: "test.work",
                run: Box::new(move |_| {
                    open_gate(&gate, |s| s.0 = true);
                    let saw = await_gate(&gate, |s| s.1);
                    Box::new(move |policy: &mut Self| {
                        policy.saw_b = Some(saw);
                        None
                    })
                }),
            })
        }

        fn on_failure(&mut self, _: CloudId, _: usize, error: CloudError, _: Time) {
            panic!("{error}");
        }
    }

    /// The work a completion hands its worker runs with the policy lock
    /// released: another worker's completion lands meanwhile. Were the
    /// lock held, B's `on_success` could not run and the work would give
    /// up after 5 s.
    #[test]
    fn work_after_a_completion_runs_outside_the_policy_lock() {
        let rt: Arc<dyn Runtime> = Arc::new(unidrive_sim::RealRuntime::new());
        let clouds = CloudSet::new(
            (0..2)
                .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                .collect(),
        );
        let params = EngineParams::new("overlap", 1, RetryPolicy::new(), Obs::noop());
        let policy = OverlapPolicy {
            gate: Arc::default(),
            handed: [false; 2],
            landed: 0,
            saw_b: None,
        };
        let done = run_batch(&rt, &clouds, params, None, &[], policy);
        assert_eq!(done.saw_b, Some(true), "the work held the policy lock");
    }

    #[test]
    fn a_stuck_policy_fails_the_run_naming_every_worker() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let rt = SimRuntime::new(7).as_runtime();
                let clouds = CloudSet::new(
                    (0..2)
                        .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                        .collect(),
                );
                let params = EngineParams::new("stuck", 2, RetryPolicy::new(), Obs::noop());
                run_batch(&rt, &clouds, params, None, &[], StuckPolicy);
            });
            let message = outcome.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("run_batch still blocked at the harness timeout")
            .expect("a stuck batch must panic");
        assert!(message.contains("virtual-time deadlock"), "{message}");
        for worker in ["stuck-c0-0", "stuck-c0-1", "stuck-c1-0", "stuck-c1-1"] {
            assert!(message.contains(worker), "{worker} not named: {message}");
        }
    }
}
