//! The virtual-time engine: [`SimRuntime`].
//!
//! # Model
//!
//! Every thread participating in a simulation is an **actor**. Actors run
//! real Rust code on real OS threads; only their *blocking* goes through
//! the engine (sleeps, notifier waits, network flows). The engine keeps
//! two global invariants:
//!
//! * **Cooperative serialization** — at most one actor *executes* at any
//!   moment. All other runnable actors wait in a FIFO queue for the
//!   execution token, which is handed over whenever the current actor
//!   blocks (or exits). Since every wake-up is enqueued in a
//!   deterministic order (timers by deadline then actor index, flows in
//!   link/flow order, notifier waiters FIFO), the entire interleaving —
//!   and therefore every scheduling decision made by client code — is a
//!   pure function of the seed. Same seed ⇒ byte-identical run.
//! * Virtual time advances **only when every live actor is blocked**.
//!   The last actor to block performs the advance inline:
//!
//!   1. find the earliest pending event (timer deadline, flow completion
//!      under current bandwidth sharing, or a link's multiplier
//!      re-sample),
//!   2. integrate all in-flight flows forward to that instant,
//!   3. fire everything due, enqueueing the affected actors.
//!
//! Because flow rates only change at events (a flow starting or ending, or
//! an epoch boundary), completions can be computed analytically and a
//! month of simulated transfers takes milliseconds of wall time.
//!
//! If every live actor is blocked and no event is pending, nothing can
//! ever wake them: a **virtual-time deadlock**. The engine then wakes
//! every parked actor and each panics with the same diagnostic, naming
//! the blocked actors and what each waits on, so the run fails instead
//! of hanging; the engine accepts no further blocking.
//!
//! # Rules for actor code
//!
//! * Never block through anything except this runtime's primitives
//!   ([`Runtime::sleep`], [`Notifier::wait`](crate::Notifier::wait),
//!   [`SimRuntime::transfer`], [`Task::join`](crate::Task::join)); an
//!   actor blocked in, say, `std::sync::mpsc::recv` looks *running* to the
//!   engine and time will never advance. The engine cannot detect this:
//!   a deadlock among engine waits panics, so a run that *hangs* has an
//!   actor blocked outside the runtime.
//! * Short critical sections under mutexes are fine; they are not
//!   "blocking" in the scheduling sense.
//! * The thread that calls [`SimRuntime::new`] is registered as the
//!   `main` actor and must itself obey these rules.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unidrive_obs::{FieldValue, Obs};
use unidrive_util::sync::{Condvar, Mutex};

use crate::link::{Flow, LinkId, LinkProfile, LinkState};
use crate::rng::SimRng;
use crate::{Notifier, Runtime, Time};

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (engine id, actor index) of the actor running on this thread.
    static CURRENT_ACTOR: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// Why a blocked actor was woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeReason {
    /// Its timer deadline fired.
    Timeout,
    /// Its network flow completed.
    FlowDone,
    /// A notifier it waited on was broadcast.
    Notified,
}

/// What an actor is currently blocked on (named in the deadlock
/// diagnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Sleep,
    Flow(u64),
    Notify(usize),
}

#[derive(Debug)]
struct Actor {
    name: String,
    /// Incremented every time the actor blocks; lets the engine discard
    /// stale timer registrations after an early wake.
    epoch: u64,
    running: bool,
    alive: bool,
    block: Option<BlockKind>,
    woken: Option<WakeReason>,
    cv: Arc<Condvar>,
}

impl Actor {
    /// A new actor: running (it holds or queues for the token), alive.
    fn new(name: &str) -> Self {
        Actor {
            name: name.to_owned(),
            epoch: 0,
            running: true,
            alive: true,
            block: None,
            woken: None,
            cv: Arc::new(Condvar::new()),
        }
    }
}

#[derive(Debug)]
struct NotifyState {
    generation: u64,
    /// Parked actors, in the order they started waiting.
    waiters: VecDeque<usize>,
}

#[derive(Debug)]
struct EngineState {
    now_ns: u64,
    actors: Vec<Actor>,
    /// The actor currently holding the execution token (at most one
    /// actor runs client code at a time; see the module docs).
    current: Option<usize>,
    /// Woken/ready actors awaiting the token, granted FIFO.
    runnable: VecDeque<usize>,
    /// Min-heap of (deadline ns, actor, actor-epoch).
    timers: BinaryHeap<Reverse<(u64, usize, u64)>>,
    notifies: Vec<NotifyState>,
    links: Vec<LinkState>,
    next_flow_id: u64,
    rng: SimRng,
    /// Set once every live actor is blocked with no pending event: the
    /// diagnostic each parked actor panics with (see the module docs).
    deadlock: Option<String>,
}

/// Deterministic virtual-time [`Runtime`].
///
/// See the module docs for the actor model. Construct with
/// [`SimRuntime::new`], which registers the calling thread as the main
/// actor.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use unidrive_sim::{spawn, Runtime, SimRuntime};
///
/// let sim = SimRuntime::new(42);
/// let rt = sim.clone().as_runtime();
/// let t = spawn(&rt, "sleeper", {
///     let rt = rt.clone();
///     move || {
///         rt.sleep(Duration::from_secs(3600)); // one virtual hour
///         rt.now()
///     }
/// });
/// let woke_at = t.join();
/// assert_eq!(woke_at.as_secs_f64(), 3600.0); // instant in wall time
/// ```
pub struct SimRuntime {
    id: u64,
    state: Mutex<EngineState>,
    /// Back-reference so spawned threads and notifiers can keep the
    /// engine alive without unsafe pointer juggling.
    weak_self: std::sync::Weak<SimRuntime>,
    /// Observability handle (no-op until [`SimRuntime::install_obs`]).
    /// Kept outside `state` so recording never nests inside the engine
    /// lock: the registry clock reads `state` and would deadlock.
    obs: Mutex<Obs>,
}

impl std::fmt::Debug for SimRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SimRuntime")
            .field("id", &self.id)
            .field("now", &Time::from_nanos(st.now_ns))
            .field("actors", &st.actors.len())
            .field("current", &st.current)
            .field("runnable", &st.runnable.len())
            .finish()
    }
}

impl SimRuntime {
    /// Creates a virtual-time runtime seeded with `seed` and registers the
    /// calling thread as the `main` actor.
    pub fn new(seed: u64) -> Arc<SimRuntime> {
        let id = NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed);
        let rt = Arc::new_cyclic(|weak| SimRuntime {
            id,
            state: Mutex::new(EngineState {
                now_ns: 0,
                actors: vec![Actor::new("main")],
                current: Some(0),
                runnable: VecDeque::new(),
                timers: BinaryHeap::new(),
                notifies: Vec::new(),
                links: Vec::new(),
                next_flow_id: 0,
                rng: SimRng::seed_from_u64(seed),
                deadlock: None,
            }),
            weak_self: weak.clone(),
            obs: Mutex::new(Obs::noop()),
        });
        CURRENT_ACTOR.with(|c| c.set(Some((id, 0))));
        rt
    }

    /// Installs an observability handle. When `obs` is backed by a
    /// registry, the registry clock is pointed at this engine's virtual
    /// time (through a weak reference, so the registry can outlive the
    /// engine), making every recorded event deterministic under a fixed
    /// seed. The engine then counts flows (`sim.flows_*`,
    /// `sim.flow_bytes`) and epoch re-samples (`sim.epoch_resamples`)
    /// and traces `sim.flow_started`/`sim.flow_finished` instants.
    pub fn install_obs(&self, obs: Obs) {
        if let Some(registry) = obs.registry() {
            let weak = self.weak_self.clone();
            registry.set_clock(move || {
                weak.upgrade().map_or(0, |rt| rt.state.lock().now_ns)
            });
        }
        *self.obs.lock() = obs;
    }

    /// The currently installed observability handle (cheap clone;
    /// no-op unless [`SimRuntime::install_obs`] was called).
    pub fn obs(&self) -> Obs {
        self.obs.lock().clone()
    }

    fn strong_self(&self) -> Arc<SimRuntime> {
        self.weak_self
            .upgrade()
            .expect("SimRuntime used after being dropped")
    }

    /// Upcasts to the `Runtime` trait object.
    pub fn as_runtime(self: Arc<Self>) -> Arc<dyn Runtime> {
        self
    }

    /// Derives an independent deterministic RNG stream from the engine
    /// seed; used by higher layers (failure injection, workload
    /// generation) so whole scenarios stay reproducible.
    pub fn fork_rng(&self) -> SimRng {
        self.state.lock().rng.fork()
    }

    /// Registers a directed network link; see [`LinkProfile`].
    pub fn add_link(&self, profile: LinkProfile) -> LinkId {
        let mut st = self.state.lock();
        let rng = st.rng.fork();
        st.links.push(LinkState::new(profile, rng));
        LinkId(st.links.len() - 1)
    }

    /// Blocks the calling actor while `bytes` flow over `link`, modeling
    /// request latency, processor-sharing bandwidth, and epoch
    /// fluctuation. Zero-byte transfers still pay the request latency
    /// (they model metadata/listing calls).
    pub fn transfer(&self, link: LinkId, bytes: u64) {
        let obs = self.obs();
        let latency = self.state.lock().links[link.0].sample_latency();
        if latency > Duration::ZERO {
            self.sleep(latency);
        }
        if bytes == 0 {
            return;
        }
        // Instants stamp through the registry clock (which reads engine
        // state), so they must be recorded while the state lock is free.
        let flow_attrs = || {
            vec![
                ("link", FieldValue::U(link.0 as u64)),
                ("bytes", FieldValue::U(bytes)),
            ]
        };
        obs.inc("sim.flows_started");
        obs.add("sim.flow_bytes", bytes);
        obs.instant("sim.flow_started", None, flow_attrs);
        let me = self.current_actor();
        let mut st = self.state.lock();
        let now = st.now_ns;
        let resampled = st.links[link.0].maybe_resample(now);
        let flow_id = st.next_flow_id;
        st.next_flow_id += 1;
        let epoch = {
            let a = &mut st.actors[me];
            a.epoch += 1;
            a.epoch
        };
        st.links[link.0].flows.push(Flow {
            remaining_bytes: bytes as f64,
            actor: me,
        });
        let reason = self.block_prepared(st, me, epoch, BlockKind::Flow(flow_id));
        debug_assert_eq!(reason, WakeReason::FlowDone);
        if resampled > 0 {
            obs.add("sim.epoch_resamples", resampled);
        }
        obs.inc("sim.flows_finished");
        obs.instant("sim.flow_finished", None, flow_attrs);
    }

    fn current_actor(&self) -> usize {
        CURRENT_ACTOR.with(|c| match c.get() {
            Some((eid, idx)) if eid == self.id => idx,
            _ => panic!(
                "thread '{}' is not registered with this SimRuntime; \
                 spawn it via Runtime::spawn_raw",
                std::thread::current().name().unwrap_or("?")
            ),
        })
    }

    /// Core blocking path. The caller must have already (under `st`)
    /// bumped the actor's epoch to `epoch` and registered whatever will
    /// eventually wake it (timer entry, notifier waiter, flow). Blocking
    /// releases the execution token; returning means the actor was both
    /// woken *and* granted the token again.
    ///
    /// # Panics
    ///
    /// Panics with the deadlock diagnostic once the engine has found a
    /// virtual-time deadlock, whether this actor was already parked or
    /// blocks afterwards.
    fn block_prepared(
        &self,
        mut st: unidrive_util::sync::MutexGuard<'_, EngineState>,
        me: usize,
        epoch: u64,
        kind: BlockKind,
    ) -> WakeReason {
        if let Some(diagnostic) = &st.deadlock {
            panic!("{diagnostic}");
        }
        {
            let a = &mut st.actors[me];
            debug_assert!(a.running, "actor blocking twice");
            debug_assert_eq!(a.epoch, epoch);
            a.running = false;
            a.block = Some(kind);
            a.woken = None;
        }
        debug_assert_eq!(st.current, Some(me), "blocking without the token");
        st.current = None;
        self.schedule_next(&mut st);
        let cv = Arc::clone(&st.actors[me].cv);
        loop {
            if st.current == Some(me) {
                let reason = st.actors[me]
                    .woken
                    .take()
                    .expect("token granted without a wake reason");
                debug_assert!(st.actors[me].running);
                return reason;
            }
            if let Some(diagnostic) = &st.deadlock {
                panic!("{diagnostic}");
            }
            cv.wait(&mut st);
        }
    }

    /// Hands the execution token to the next runnable actor, advancing
    /// virtual time first if everyone is blocked. Caller must have
    /// cleared `current`. Leaves `current == None` only when no live
    /// actor remains or the engine found a deadlock.
    fn schedule_next(&self, st: &mut EngineState) {
        debug_assert!(st.current.is_none());
        loop {
            if let Some(next) = st.runnable.pop_front() {
                st.current = Some(next);
                let cv = Arc::clone(&st.actors[next].cv);
                cv.notify_all();
                return;
            }
            if st.deadlock.is_some() || !st.actors.iter().any(|a| a.alive && !a.running) {
                return; // nothing left to run or wake
            }
            self.advance(st);
        }
    }

    /// Parks the calling thread until its actor holds the token.
    fn wait_for_grant(&self, idx: usize) {
        let mut st = self.state.lock();
        let cv = Arc::clone(&st.actors[idx].cv);
        while st.current != Some(idx) {
            cv.wait(&mut st);
        }
    }

    /// One engine step: move to the earliest event and fire it. With no
    /// event pending, declares the deadlock and wakes every parked actor
    /// to panic with its diagnostic.
    fn advance(&self, st: &mut EngineState) {
        let mut next: Option<u64> = None;
        let consider = |t: u64, next: &mut Option<u64>| {
            *next = Some(next.map_or(t, |n| n.min(t)));
        };

        // Timer candidates: pop stale heads eagerly.
        while let Some(&Reverse((t, actor, epoch))) = st.timers.peek() {
            if Self::timer_valid(st, actor, epoch) {
                consider(t, &mut next);
                break;
            }
            st.timers.pop();
        }

        // Flow completions and epoch boundaries on busy links.
        let now = Time::from_nanos(st.now_ns);
        for l in &st.links {
            if l.flows.is_empty() {
                continue;
            }
            if let Some(done) = l.earliest_completion(now) {
                consider(done.as_nanos(), &mut next);
            }
            consider(l.next_resample_ns.max(st.now_ns), &mut next);
        }

        let Some(t_next) = next else {
            let blocked: Vec<String> = st
                .actors
                .iter()
                .filter(|a| a.alive && !a.running)
                .map(|a| format!("{} ({:?})", a.name, a.block))
                .collect();
            st.deadlock = Some(format!(
                "virtual-time deadlock: all actors blocked with no pending \
                 events; blocked actors: [{}]",
                blocked.join(", ")
            ));
            for a in st.actors.iter().filter(|a| a.alive && !a.running) {
                a.cv.notify_all();
            }
            return;
        };
        let t_next = t_next.max(st.now_ns);
        let dt = Duration::from_nanos(t_next - st.now_ns);

        // Integrate flows up to the event instant.
        for l in &mut st.links {
            l.integrate(dt);
        }
        st.now_ns = t_next;

        // Fire due timers. Woken actors join the runnable queue in
        // deterministic heap order (deadline, then actor index).
        while let Some(&Reverse((t, actor, epoch))) = st.timers.peek() {
            if t > st.now_ns {
                break;
            }
            st.timers.pop();
            if Self::timer_valid(st, actor, epoch) {
                // Marking immediately also discards duplicate timers for
                // the same actor via the validity check.
                Self::mark_woken(st, actor, WakeReason::Timeout);
            }
        }

        // Epoch boundaries.
        let now_ns = st.now_ns;
        let mut resampled = 0;
        for l in &mut st.links {
            if !l.flows.is_empty() {
                resampled += l.maybe_resample(now_ns);
            }
        }
        if resampled > 0 {
            // Counter only — no clock access, so safe under the state
            // lock (the separate obs mutex never nests the other way).
            self.obs().add("sim.epoch_resamples", resampled);
        }

        // Flow completions, in link order then flow order — also
        // deterministic, because flow insertion order is itself a
        // function of the (serialized) actor schedule.
        const EPS_BYTES: f64 = 0.5;
        let mut finished: Vec<usize> = Vec::new();
        for l in &mut st.links {
            let mut i = 0;
            while i < l.flows.len() {
                if l.flows[i].remaining_bytes <= EPS_BYTES {
                    let f = l.flows.swap_remove(i);
                    finished.push(f.actor);
                } else {
                    i += 1;
                }
            }
        }
        for actor in finished {
            Self::mark_woken(st, actor, WakeReason::FlowDone);
        }
    }

    fn timer_valid(st: &EngineState, actor: usize, epoch: u64) -> bool {
        let a = &st.actors[actor];
        a.alive && !a.running && a.woken.is_none() && a.epoch == epoch
    }

    /// Wakes `actor`: records the reason and appends it to the runnable
    /// queue. The actual execution grant happens later in FIFO order via
    /// [`SimRuntime::schedule_next`].
    fn mark_woken(st: &mut EngineState, actor: usize, reason: WakeReason) {
        let a = &mut st.actors[actor];
        if a.woken.is_some() || a.running {
            return; // already woken this round
        }
        a.woken = Some(reason);
        a.running = true;
        a.block = None;
        st.runnable.push_back(actor);
    }

    fn notify_generation(&self, idx: usize) -> u64 {
        self.state.lock().notifies[idx].generation
    }

    /// Blocks the calling actor until the notifier's generation moves
    /// past `seen` (no-op if it already has). Waiters wake in FIFO
    /// registration order, keeping the schedule deterministic.
    fn notify_wait(&self, idx: usize, seen: u64) {
        let me = self.current_actor();
        let mut st = self.state.lock();
        if st.notifies[idx].generation != seen {
            return; // a broadcast already landed; never lose it
        }
        let epoch = {
            let a = &mut st.actors[me];
            a.epoch += 1;
            a.epoch
        };
        st.notifies[idx].waiters.push_back(me);
        let reason = self.block_prepared(st, me, epoch, BlockKind::Notify(idx));
        debug_assert_eq!(reason, WakeReason::Notified);
    }

    fn notify_broadcast(&self, idx: usize) {
        let mut st = self.state.lock();
        st.notifies[idx].generation += 1;
        // Wake everyone currently parked, FIFO.
        let waiters = std::mem::take(&mut st.notifies[idx].waiters);
        for actor in waiters {
            Self::mark_woken(&mut st, actor, WakeReason::Notified);
        }
    }
}

impl Runtime for SimRuntime {
    fn now(&self) -> Time {
        Time::from_nanos(self.state.lock().now_ns)
    }

    fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let me = self.current_actor();
        let mut st = self.state.lock();
        let epoch = {
            let a = &mut st.actors[me];
            a.epoch += 1;
            a.epoch
        };
        let deadline = st.now_ns + d.as_nanos() as u64;
        st.timers.push(Reverse((deadline, me, epoch)));
        let reason = self.block_prepared(st, me, epoch, BlockKind::Sleep);
        debug_assert_eq!(reason, WakeReason::Timeout);
    }

    fn spawn_raw(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
        // Register the actor *before* the thread starts so the engine
        // never advances past its birth. The new actor queues for the
        // execution token behind the spawner; its thread body waits for
        // the grant before running `f`, keeping the schedule serial and
        // deterministic regardless of OS thread startup timing.
        let idx = {
            let mut st = self.state.lock();
            st.actors.push(Actor::new(name));
            let idx = st.actors.len() - 1;
            st.runnable.push_back(idx);
            idx
        };
        let engine_id = self.id;
        let this = self.strong_self();
        std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                CURRENT_ACTOR.with(|c| c.set(Some((engine_id, idx))));
                this.wait_for_grant(idx);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                {
                    let mut st = this.state.lock();
                    st.actors[idx].alive = false;
                    st.actors[idx].running = false;
                    // After a deadlock nobody holds the token and nothing
                    // is scheduled again.
                    if st.deadlock.is_none() {
                        debug_assert_eq!(st.current, Some(idx));
                        st.current = None;
                        this.schedule_next(&mut st);
                    }
                }
                if let Err(payload) = result {
                    std::panic::resume_unwind(payload);
                }
            })
            .expect("failed to spawn OS thread");
    }

    fn notifier(&self) -> Arc<dyn Notifier> {
        let idx = {
            let mut st = self.state.lock();
            st.notifies.push(NotifyState {
                generation: 0,
                waiters: VecDeque::new(),
            });
            st.notifies.len() - 1
        };
        Arc::new(SimNotifier {
            engine: self.strong_self(),
            idx,
        })
    }
}

struct SimNotifier {
    engine: Arc<SimRuntime>,
    idx: usize,
}

impl Notifier for SimNotifier {
    fn generation(&self) -> u64 {
        self.engine.notify_generation(self.idx)
    }

    fn wait(&self, seen: u64) {
        self.engine.notify_wait(self.idx, seen);
    }

    fn notify_all(&self) {
        self.engine.notify_broadcast(self.idx);
    }
}
