//! The fleet engine: a discrete-event simulator over 100k+ lightweight
//! device actors, run as one sequential event loop.
//!
//! # Execution model
//!
//! One [`Calendar`] holds at most one pending event per device. The run
//! loop repeatedly pops a *window* `[t, t + LOOKAHEAD)` of due events
//! and handles each in `(time, device, seq)` order, directly against
//! the fleet state (device map, folders, per-cloud shapers, the
//! calendar itself). Every scheduling delay is clamped to at least
//! [`LOOKAHEAD_NS`], the model's minimum scheduling delay, so no event
//! handled in a window schedules another into the same window.
//!
//! Determinism rests on two rules:
//!
//! 1. **Per-device randomness** — every draw comes from a stream
//!    derived from `(seed, device, activation)`; nothing else feeds an
//!    RNG, and a handler reads and writes only its own device's
//!    [`ActiveDevice`] besides the shared folders, lanes and calendar.
//! 2. **Fixed draw sequences** — each event kind consumes the same
//!    draws from its device's own stream whatever the outcome, so a
//!    refused or lost round never shifts a later draw.
//!
//! # Session protocol
//!
//! A session is upload-then-commit, the shape a real sync client uses
//! so a slow transfer never holds the folder lock: `Arrive` starts the
//! erasure-coded upload of the payload shares (duration modeled from
//! per-site/provider rates, the fault plan, and QPS shaping); when the
//! upload lands, `Attempt` rounds contend for the folder's quorum lock
//! to commit the new version — the critical section is the short
//! metadata commit, not the transfer; `Release` publishes and folds
//! the device back to idle. A lost round whose lock file sorts first
//! keeps it up and takes the lock one list after the holder's release;
//! every other loser backs off.
//!
//! # Lazy materialization
//!
//! An idle device is one 32-byte calendar entry. Full per-device state
//! ([`ActiveDevice`]) exists only between `Arrive` and `Release`, in
//! one `HashMap` keyed by device id — so peak memory tracks the number
//! of *concurrent sessions*, not the population size.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Duration;

use unidrive_cloud::{CloudOp, FaultKind, FaultPlan, TokenBucket};
use unidrive_meta::{
    lock_verdict, LockConfig, LockVerdict, MetaMode, PROTOCOL_COSTS, STARVATION_AUDIT,
};
use unidrive_obs::SeriesBank;
use unidrive_sim::SimRng;
use unidrive_workload::{nominal_rates, DeviceClass, Provider, Zipf, EC2_SITES};

use crate::calendar::Calendar;
use crate::config::FleetConfig;
use crate::metrics::{CloudRow, FleetMetrics, FLEET_SERIES_WINDOW_NS};

/// Minimum scheduling delay: every event is scheduled at least this
/// far after the one that caused it, so a window of this width never
/// holds an event and its successor.
pub const LOOKAHEAD_NS: u64 = 250_000_000;

const NS_PER_SEC: u64 = 1_000_000_000;
/// Erasure split: n = 5 providers, k = 3 data shares → each cloud
/// carries `bytes / k` of a session payload.
const ERASURE_K: u64 = 3;
/// Quorum size for the lock protocol (majority of 5).
const QUORUM_K: usize = 3;
/// Request granularity: one upload/download op per 256 KiB chunk.
const OP_CHUNK_BYTES: u64 = 256 * 1024;
/// λ as an op count: a folder's accumulated ops trigger a base
/// compaction (the analytic mirror of `delta_ratio`/`delta_floor`).
/// The fleet's size model, not a call count — what a compaction costs
/// on the wire is `PROTOCOL_COSTS.oplog_compact`.
const OPLOG_COMPACT_EVERY: u64 = 64;
/// Escalation multiple (the constant the real oplog plane escalates
/// at): once a folder's pending-op backlog reaches
/// `OPLOG_COMPACT_ESCALATE × OPLOG_COMPACT_EVERY`, a committer stops
/// deferring to the advisory compaction lock and barges — waiting out
/// the holder's bounded window, then folding (the analytic mirror of
/// core's forced-compaction retries past its escalate threshold).
const OPLOG_COMPACT_ESCALATE: u64 = unidrive_meta::OPLOG_COMPACT_ESCALATE as u64;
/// How long an oplog commit takes: the fleet's time model for an
/// append, and for the hold of the fold that λ adds to one.
const COMMIT_NS: u64 = 500_000_000;
/// One sequential metadata call in the fleet's time model (a WAN round
/// trip plus the provider's service time).
const CALL_NS: u64 = 83_333_333;
/// How long a lock-plane commit holds the lock: the fleet's time model
/// for the `PROTOCOL_COSTS.lock_commit` sequential calls (version
/// download, delta upload, version upload, release delete), not a call
/// count — those are charged from `PROTOCOL_COSTS`.
const LOCK_COMMIT_NS: u64 = CALL_NS * PROTOCOL_COSTS.lock_commit;
/// Drain guard: give the fleet at most this many pull rounds.
const MAX_DRAIN_ROUNDS: u32 = 3;

/// Events a device can have pending. Exactly one per device at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// A sync session begins; `activation` derives the session stream.
    Arrive { activation: u32 },
    /// One quorum-lock commit round for the uploaded session.
    Attempt { attempt: u32 },
    /// Commit finished; publish and fold the device back to idle.
    Release,
    /// Drain-phase download of missed hot-folder writes.
    Pull { folder: u32 },
}

/// Materialized state of a device mid-session.
#[derive(Debug)]
struct ActiveDevice {
    /// The session's private random stream.
    rng: SimRng,
    /// Session arrival time (latency measurement origin).
    t0_ns: u64,
    /// When the upload landed and lock contention began.
    wait_start_ns: u64,
    /// Session payload, bytes.
    bytes: u64,
    /// Activity class (drawn once per session; stable per device).
    class: DeviceClass,
    /// Hot-folder rank, or `None` for a private folder.
    hot: Option<u32>,
    /// Activation counter (for the next `Arrive` derivation).
    activation: u32,
    /// Whether this session already tripped the starvation audit.
    starved: bool,
    /// Lock rounds of the current acquire, a head's lists included.
    rounds: u32,
    /// The lock file a waiting head keeps up: when it was uploaded, how
    /// many lists it has had, and when the last of them ran.
    kept: Option<(u64, u32, u64)>,
}

/// A shared hot folder: quorum-lock scope plus per-member sync
/// watermarks for the no-lost-acks and convergence invariants.
#[derive(Debug, Default)]
struct HotFolder {
    /// The lock holder's sort key `(acquire start, device)`.
    holder: Option<(u64, u64)>,
    /// When the holder's release lands.
    release_ns: u64,
    /// The waiting head's sort key: a contender that sorted first
    /// among the live lock files and kept its own up.
    head: Option<(u64, u64)>,
    cum_bytes: u64,
    /// Member device → cumulative bytes it has acknowledged.
    member_synced: HashMap<u64, u64>,
    /// Oplog mode: op objects ever appended here.
    appends: u64,
    /// Oplog mode: member device → `appends` when it last read the
    /// folder's op objects (its own append reads none).
    read_upto: HashMap<u64, u64>,
    /// Oplog mode: ops appended since the last base compaction — the
    /// op objects a listing of the folder shows (a compaction deletes
    /// the ones its base covers).
    pending_ops: u64,
    /// Oplog mode: compaction lock held until this virtual time
    /// (compaction is the only quorum-lock user in oplog mode; a
    /// contended attempt skips, matching core's best-effort policy).
    compact_lock_until_ns: u64,
}

/// Per-provider accounting lane.
#[derive(Debug)]
struct CloudLane {
    name: &'static str,
    bucket: TokenBucket,
    series: unidrive_cloud::QpsSeries,
    lock_ops: u64,
    transfer_ops: u64,
    throttle_delay_ns: u64,
}

/// Deterministic "diurnal" rate flux: provider throughput wobbles by
/// up to 22% across 10-minute slots, out of phase per provider. Pure
/// integer→float arithmetic — no trig, no platform variance.
fn rate_flux(provider_idx: usize, now_ns: u64) -> f64 {
    let slot = now_ns / (600 * NS_PER_SEC);
    let phase = (slot.wrapping_mul(7) + provider_idx as u64 * 5) % 13;
    1.0 - 0.22 * (phase as f64 / 12.0)
}

/// Stable site assignment: a multiplicative hash of the device id, so
/// the mapping is independent of every RNG stream.
fn site_of(device: u64) -> usize {
    (device.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % EC2_SITES.len()
}

/// Upload reachability of each provider at `now_ns` under `plan`:
/// an active `Outage` or `QuotaExhausted` window makes writes fail.
fn upload_reachability(plan: &FaultPlan, now_ns: u64) -> [bool; 5] {
    let mut ok = [true; 5];
    for (i, p) in Provider::ALL.iter().enumerate() {
        for ev in &plan.events {
            if ev.cloud == p.name()
                && ev.applies(now_ns, CloudOp::Upload)
                && matches!(ev.kind, FaultKind::Outage | FaultKind::QuotaExhausted)
            {
                ok[i] = false;
            }
        }
    }
    ok
}

/// What one metadata step costs each lane: `each` calls (a sum of
/// [`PROTOCOL_COSTS`] fields) on every reachable lane, plus `spread`
/// calls made once in total — op-object reads, each from one cloud
/// that lists it — dealt one at a time over the reachable lanes from
/// the `from`-th on.
fn meta_ops(reachable: &[bool; 5], each: u64, spread: u64, from: usize) -> [u64; 5] {
    let lanes: Vec<usize> = (0..reachable.len()).filter(|&i| reachable[i]).collect();
    let mut ops = [0; 5];
    for &i in &lanes {
        ops[i] = each;
    }
    for k in 0..spread as usize {
        ops[lanes[(from + k) % lanes.len()]] += 1;
    }
    ops
}

/// Charges one metadata step, `ops[i]` calls to lane `i` (0 on an
/// unreachable lane), at `t`: token bucket, QPS series, `lock_ops`,
/// shaper delay and `cloud.ops`. Returns the worst shaper delay,
/// which gates the step.
fn charge_meta(lanes: &mut [CloudLane], ops: &[u64; 5], t: u64, series: &mut SeriesBank) -> u64 {
    let mut worst = 0;
    for (lane, &ops) in lanes.iter_mut().zip(ops).filter(|(_, &ops)| ops > 0) {
        let d = lane.bucket.consume(t, ops);
        lane.series.record(t + d, ops);
        lane.lock_ops += ops;
        lane.throttle_delay_ns += d;
        worst = worst.max(d);
        series.add("cloud.ops", lane.name, t, ops);
    }
    worst
}

/// Charges one erasure-share transfer to `lane` at `t`: `share` bytes
/// up (or down) in `ops` requests, `secs` on the wire. Returns the
/// shaper delay.
fn charge_transfer(
    lane: &mut CloudLane,
    t: u64,
    ops: u64,
    share: u64,
    secs: f64,
    upload: bool,
    series: &mut SeriesBank,
) -> u64 {
    let d = lane.bucket.consume(t, ops);
    lane.transfer_ops += ops;
    lane.throttle_delay_ns += d;
    // Record at post-shaper times: the series reports when ops
    // actually clear, not the offered spike.
    let wire_ns = (secs * NS_PER_SEC as f64) as u64;
    let start = t + d;
    lane.series.record_spread(start, start + wire_ns, ops);
    series.add("cloud.ops", lane.name, t, ops);
    let bytes = if upload { "cloud.bytes_up" } else { "cloud.bytes_down" };
    series.add(bytes, lane.name, t, share);
    // The share transfer's latency sample includes the shaper delay.
    series.observe("cloud.op_ns", lane.name, t, wire_ns.saturating_add(d));
    d
}

/// Counts one refused attempt on every lane the event wanted but
/// could not reach: the provider was refusing writes, which is exactly
/// what a client-side prober would report. An attempt is an attempt,
/// so it lands in `cloud.ops` as well as `cloud.err`. Reachable lanes
/// are counted where ops are actually charged to them. Returns whether
/// a write quorum was reachable.
fn quorum_reachable(
    lanes: &[CloudLane],
    reachable: &[bool; 5],
    t: u64,
    series: &mut SeriesBank,
) -> bool {
    for (i, lane) in lanes.iter().enumerate() {
        if !reachable[i] {
            series.add("cloud.ops", lane.name, t, 1);
            series.add("cloud.err", lane.name, t, 1);
        }
    }
    reachable.iter().filter(|&&r| r).count() >= QUORUM_K
}

/// When a step that found no write quorum tries again: once the outage
/// window has had 30–35 s to end (`retry_u` is the jitter draw).
fn outage_retry_ns(retry_u: f64) -> u64 {
    30 * NS_PER_SEC + (retry_u * 5.0 * NS_PER_SEC as f64) as u64
}

/// The fleet simulator. Construct with a [`FleetConfig`], call
/// [`run`](FleetSim::run), inspect the returned [`FleetMetrics`].
#[derive(Debug)]
pub struct FleetSim {
    cfg: FleetConfig,
    /// The quorum lock's tunables: the product's defaults, which
    /// nothing sets.
    lock: LockConfig,
}

impl FleetSim {
    /// A simulator for `cfg`.
    pub fn new(cfg: FleetConfig) -> FleetSim {
        FleetSim {
            cfg,
            lock: LockConfig::default(),
        }
    }

    /// Runs the simulation to convergence and returns fleet metrics.
    /// Same config (including seed) ⇒ byte-identical metrics JSON.
    pub fn run(&self) -> FleetMetrics {
        Run::new(&self.cfg, &self.lock).run()
    }
}

/// The state one run's event handlers read and write.
struct Run<'a> {
    cfg: &'a FleetConfig,
    lock: &'a LockConfig,
    zipf: Zipf,
    /// Per-site × per-provider nominal rates, bytes/sec.
    rates: Vec<[(f64, f64); 5]>,
    horizon_ns: u64,
    calendar: Calendar<Ev>,
    /// Devices mid-session.
    active: HashMap<u64, ActiveDevice>,
    folders: Vec<HotFolder>,
    lanes: Vec<CloudLane>,
    /// Every event's record: the run's one metric store.
    series: SeriesBank,
    m: FleetMetrics,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a FleetConfig, lock: &'a LockConfig) -> Run<'a> {
        let horizon_ns = cfg.horizon_ns();
        let rates = EC2_SITES
            .iter()
            .map(|site| {
                let mut row = [(0.0, 0.0); 5];
                for (i, p) in Provider::ALL.iter().enumerate() {
                    row[i] = nominal_rates(*site, *p);
                }
                row
            })
            .collect();
        let lanes = Provider::ALL
            .iter()
            .map(|p| CloudLane {
                name: p.name(),
                bucket: TokenBucket::new(cfg.cloud_qps, cfg.cloud_burst),
                series: unidrive_cloud::QpsSeries::new(),
                lock_ops: 0,
                transfer_ops: 0,
                throttle_delay_ns: 0,
            })
            .collect();

        // Seed the calendar: each device's first arrival is uniform in
        // [LOOKAHEAD, horizon), from its own derived bootstrap stream.
        let mut calendar = Calendar::new();
        for d in 0..cfg.devices as u64 {
            let mut rng = SimRng::derive(cfg.seed, &format!("fleet/boot/{d}"));
            let t = ((rng.next_f64() * horizon_ns as f64) as u64).max(LOOKAHEAD_NS);
            if t < horizon_ns {
                calendar.push(t, d, Ev::Arrive { activation: 0 });
            }
        }

        Run {
            cfg,
            lock,
            zipf: Zipf::new(cfg.hot_folders.max(1) as usize, cfg.profile.hot_zipf_s),
            rates,
            horizon_ns,
            calendar,
            active: HashMap::new(),
            folders: (0..cfg.hot_folders).map(|_| HotFolder::default()).collect(),
            lanes,
            series: SeriesBank::new(FLEET_SERIES_WINDOW_NS),
            m: FleetMetrics::new(cfg),
        }
    }

    /// The event loop: one lookahead window at a time, each event
    /// handled in key order, until the calendar and the drain rounds
    /// run dry or a safety valve trips.
    fn run(mut self) -> FleetMetrics {
        let mut now_ns: u64 = 0;
        let mut drain_rounds: u32 = 0;
        // Safety valves — a logic bug must FAIL an invariant, not hang.
        let max_events: u64 = (self.cfg.devices as u64).saturating_mul(2_000).max(10_000_000);
        let max_virtual_ns = self.horizon_ns.saturating_mul(20);
        let mut overrun = false;

        loop {
            if self.calendar.is_empty() {
                // Drain: schedule catch-up pulls for lagging members.
                let mut pulls: Vec<(u64, u32)> = Vec::new();
                for (fi, f) in self.folders.iter().enumerate() {
                    let mut lagging: Vec<u64> = f
                        .member_synced
                        .iter()
                        .filter(|(_, &synced)| synced < f.cum_bytes)
                        .map(|(&d, _)| d)
                        .collect();
                    lagging.sort_unstable();
                    pulls.extend(lagging.into_iter().map(|d| (d, fi as u32)));
                }
                if pulls.is_empty() || drain_rounds >= MAX_DRAIN_ROUNDS {
                    if !pulls.is_empty() {
                        overrun = true;
                    }
                    break;
                }
                drain_rounds += 1;
                let at = now_ns + LOOKAHEAD_NS;
                for (d, folder) in pulls {
                    self.calendar.push(at, d, Ev::Pull { folder });
                }
            }

            let start = self.calendar.next_time().expect("calendar non-empty");
            now_ns = now_ns.max(start);
            if self.m.events_processed > max_events || now_ns > max_virtual_ns {
                overrun = true;
                break;
            }
            let window = self.calendar.pop_window(start + LOOKAHEAD_NS);
            self.m.windows += 1;
            self.m.events_processed += window.len() as u64;
            for e in window {
                let (t, device) = (e.at_ns, e.lane);
                match e.event {
                    Ev::Arrive { activation } => self.arrive(t, device, activation),
                    Ev::Attempt { attempt } => self.attempt(t, device, attempt),
                    Ev::Release => self.release(t, device),
                    Ev::Pull { folder } => self.pull(t, device, folder),
                }
            }
        }

        self.m.virtual_end_ns = now_ns;
        self.m.drain_rounds = drain_rounds;
        self.finish(overrun)
    }

    /// A session starts: materialize the device, then upload one
    /// erasure share per reachable cloud — or, short of a write quorum,
    /// retry the start once the outage window has a chance to end.
    fn arrive(&mut self, t: u64, device: u64, activation: u32) {
        let cfg = self.cfg;
        // Fixed draw sequence: session bytes, retry jitter, one coin
        // per provider. An unreachable-retry re-derives the same stream
        // and gets the same values — deterministic by construction.
        let mut rng = SimRng::derive(cfg.seed, &format!("fleet/dev/{device}/{activation}"));
        let class = cfg.profile.class_of(cfg.seed, device);
        let hot = cfg
            .profile
            .hot_membership(cfg.seed, device, &self.zipf)
            .map(|r| r as u32);
        let bytes = cfg.profile.session_bytes(class, &mut rng);
        let retry_u = rng.next_f64();
        let mut cloud_us = [0.0f64; 5];
        for u in &mut cloud_us {
            *u = rng.next_f64();
        }
        let series = &mut self.series;
        series.add("fleet.arrivals", class.as_str(), t, 1);
        series.observe("fleet.session_bytes", class.as_str(), t, bytes);
        // Preserve the original arrival time across retries so sync
        // latency covers the whole outage wait.
        let t0_ns = self.active.get(&device).map_or(t, |d| d.t0_ns);
        self.active.insert(
            device,
            ActiveDevice {
                rng,
                t0_ns,
                wait_start_ns: t0_ns,
                bytes,
                class,
                hot,
                activation,
                starved: false,
                rounds: 0,
                kept: None,
            },
        );

        let reachable = upload_reachability(&cfg.fault_plan, t);
        if !quorum_reachable(&self.lanes, &reachable, t, series) {
            // Not enough providers accept writes: the upload cannot
            // reach quorum durability.
            series.add("upload.unreachable_rounds", "fleet", t, 1);
            self.calendar
                .push(t + outage_retry_ns(retry_u), device, Ev::Arrive { activation });
            return;
        }
        series.add("fleet.sessions", "started", t, 1);
        if let Some(rank) = hot {
            let f = &mut self.folders[rank as usize];
            // A joining member snapshots the folder: history backfill
            // is out of band; lag accrues only for writes it
            // subsequently misses.
            if let Entry::Vacant(member) = f.member_synced.entry(device) {
                member.insert(f.cum_bytes);
                series.add("folders.members", "fleet", t, 1);
            }
        }

        // Erasure-coded upload of one share per reachable cloud; the
        // slowest share gates the transfer.
        let site = site_of(device);
        let share = bytes.div_ceil(ERASURE_K);
        let ops = share.div_ceil(OP_CHUNK_BYTES) + 2;
        let mut slowest = 0.0f64;
        let mut ack_extra_ns = 0u64;
        let mut qps_delay = 0u64;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if !reachable[i] {
                continue;
            }
            let up = self.rates[site][i].0 * rate_flux(i, t);
            let mut dur = share as f64 / up.max(1.0);
            for ev in &cfg.fault_plan.events {
                if ev.cloud != lane.name || !ev.applies(t, CloudOp::Upload) {
                    continue;
                }
                match ev.kind {
                    FaultKind::TransientBurst { probability } => {
                        // Retries inflate effective transfer time by
                        // the geometric mean 1/(1-p).
                        dur /= 1.0 - probability.min(0.8);
                        series.add("fault.burst_slowdowns", lane.name, t, 1);
                    }
                    FaultKind::LatencySpike { extra_ms } => {
                        dur += (extra_ms as f64 / 1_000.0) * ops as f64;
                    }
                    FaultKind::TornUpload { probability } => {
                        if cloud_us[i] < probability {
                            // Torn write detected by digest check; one
                            // repair pass.
                            dur *= 1.3;
                            series.add("fault.torn_repairs", lane.name, t, 1);
                        }
                    }
                    FaultKind::DelayedVisibility => {
                        ack_extra_ns = ack_extra_ns.max(2 * NS_PER_SEC);
                        series.add("fault.delayed_acks", lane.name, t, 1);
                    }
                    FaultKind::Outage | FaultKind::QuotaExhausted => {}
                }
            }
            slowest = slowest.max(dur);
            let d = charge_transfer(lane, t, ops, share, dur, true, series);
            qps_delay = qps_delay.max(d);
        }
        let duration = ((slowest * NS_PER_SEC as f64) as u64)
            .saturating_add(qps_delay)
            .saturating_add(ack_extra_ns)
            .max(LOOKAHEAD_NS);
        self.calendar
            .push(t + duration, device, Ev::Attempt { attempt: 0 });
    }

    /// One commit round for an uploaded session: an op append (oplog)
    /// or a quorum-lock round (lock); a lost round backs off, a won one
    /// holds the lock for the metadata commit.
    fn attempt(&mut self, t: u64, device: u64, attempt: u32) {
        let Run {
            cfg,
            lock,
            calendar,
            active,
            folders,
            lanes,
            series,
            ..
        } = self;
        let dev = active.get_mut(&device).expect("attempting device is active");
        if attempt == 0 && dev.kept.is_none() {
            // The upload just landed (or a deferred cycle starts); lock
            // waiting is measured from here, and the acquire's lock
            // files sort by it.
            dev.wait_start_ns = t;
            dev.rounds = 0;
        }
        // Fixed draw sequence: backoff, retry jitter.
        let backoff_u = dev.rng.next_f64();
        let retry_u = dev.rng.next_f64();
        let hot = dev.hot;
        series.add(
            "fleet.attempts",
            if hot.is_some() { "hot" } else { "private" },
            t,
            1,
        );

        let reachable = upload_reachability(&cfg.fault_plan, t);
        if !quorum_reachable(lanes, &reachable, t, series) {
            // Quorum unreachable: back off and retry the same round once
            // the outage window has a chance to end. A head gives up its
            // place, as the lock withdraws on an unreachable round.
            series.add("lock.unreachable_rounds", "fleet", t, 1);
            if let (Some(_), Some(rank)) = (dev.kept.take(), hot) {
                let f = &mut folders[rank as usize];
                if f.head.is_some_and(|(_, d)| d == device) {
                    f.head = None;
                }
            }
            calendar.push(t + outage_retry_ns(retry_u), device, Ev::Attempt { attempt });
            return;
        }

        // Oplog: list the oplog directory, read each op object the
        // device has not read that no compaction has covered — once, from
        // one of the clouds — and upload its own: no lock round, no
        // losers, every attempt commits on its first round; a private
        // folder shows only the device's own objects, which it never
        // reads. Lock: a round, then the commit under the won lock or
        // the lost round's withdraw.
        let c = PROTOCOL_COSTS;
        // Lists this event stands for: a waiting head's since its last.
        let mut lists_now = 1;
        let (outcome, ops, hold_ns) = match cfg.meta_mode {
            MetaMode::Oplog => {
                let mut unread = 0;
                // Set when this append folds the log: the wait for the
                // compaction lock and the op objects its base covers.
                let mut compaction: Option<(u64, u64)> = None;
                if let Some(rank) = hot {
                    let f = &mut folders[rank as usize];
                    let since = f.appends - f.read_upto.get(&device).copied().unwrap_or(0);
                    unread = since.min(f.pending_ops);
                    f.appends += 1;
                    f.read_upto.insert(device, f.appends);
                    f.pending_ops += 1;
                    if f.pending_ops >= OPLOG_COMPACT_EVERY {
                        let free = t >= f.compact_lock_until_ns;
                        if free
                            || f.pending_ops >= OPLOG_COMPACT_ESCALATE * OPLOG_COMPACT_EVERY
                        {
                            // λ tripped: fold the log into a new base
                            // under a short quorum lock held only for
                            // the rewrite. Past the escalate threshold a
                            // busy lock does not stop it: barge — wait
                            // out the remainder of the holder's bounded
                            // window, then fold. `oplog.compact_overdue`
                            // (a forced fold that still failed) cannot
                            // occur here, because the advisory hold is
                            // bounded by 2×COMMIT_NS; the counter is
                            // zero-initialized for schema parity with
                            // the core plane, which can time out.
                            let wait = f.compact_lock_until_ns.saturating_sub(t);
                            compaction = Some((wait, f.pending_ops));
                            f.pending_ops = 0;
                            f.compact_lock_until_ns = t + wait + 2 * COMMIT_NS;
                            series.add("oplog.compactions", "fleet", t, 1);
                            if !free {
                                series.add("oplog.compact_forced", "fleet", t, 1);
                            }
                        } else {
                            // Another device is compacting; the append
                            // stands, the fold waits.
                            series.add("oplog.compact_skipped", "fleet", t, 1);
                        }
                    }
                }
                series.add("oplog.appends", "fleet", t, 1);
                series.add("oplog.op_file_reads", "fleet", t, unread);
                let mut each = c.oplog_append;
                if let Some((_, covered)) = compaction {
                    series.add("oplog.op_deletes", "fleet", t, covered);
                    each += c.oplog_compact + covered * c.oplog_op_delete;
                }
                let ops = meta_ops(&reachable, each, unread * c.oplog_op_file, device as usize);
                let fold_ns = compaction.map_or(0, |(wait, _)| wait + COMMIT_NS);
                (LockVerdict::Hold, ops, COMMIT_NS + fold_ns)
            }
            MetaMode::Lock => {
                // A waiting head has listed its kept file every call
                // since its last event; any other round uploads one
                // first. Rounds do not collide here, so one listing of
                // quorum one stands for every cloud's: the holder, a head
                // other than us and ours, keyed `(acquire start, device)`.
                let polled = dev.kept.is_some();
                let (stamped, lists) = match dev.kept {
                    None => (t, 1),
                    Some((at, n, last)) => {
                        lists_now = (t - last).div_ceil(CALL_NS).max(1) as u32;
                        (at, n + lists_now)
                    }
                };
                let key = (dev.wait_start_ns, device);
                let outcome = match hot {
                    None => LockVerdict::Hold,
                    Some(rank) => {
                        let f = &mut folders[rank as usize];
                        let other_head = f.head.filter(|h| *h != key);
                        let live: Vec<_> =
                            f.holder.into_iter().chain(other_head).chain([key]).collect();
                        let age = Duration::from_nanos(t - stamped);
                        // A head out of lists or ΔT/2 withdraws: from here
                        // on `Head` is a head that waits.
                        let outcome = match lock_verdict(&[live], 1, &key).0 {
                            LockVerdict::Head if !lock.head_waits(lists, age) => LockVerdict::Lose,
                            verdict => verdict,
                        };
                        if outcome == LockVerdict::Hold {
                            f.holder = Some(key);
                        }
                        f.head = if outcome == LockVerdict::Head { Some(key) } else { other_head };
                        outcome
                    }
                };
                let listed = if polled {
                    series.add("lock.head_polls", "fleet", t, u64::from(lists_now));
                    u64::from(lists_now) * c.lock_poll
                } else {
                    c.lock_round
                };
                let step = match outcome {
                    LockVerdict::Hold => c.lock_commit,
                    LockVerdict::Head => 0,
                    LockVerdict::Lose => c.lock_withdraw,
                };
                dev.kept = (outcome == LockVerdict::Head).then_some((stamped, lists, t));
                (outcome, meta_ops(&reachable, listed + step, 0, 0), LOCK_COMMIT_NS)
            }
        };
        // The shaper's worst delay gates what follows.
        let qps_delay = charge_meta(lanes, &ops, t, series);

        dev.rounds += lists_now;
        let lost = lists_now - u32::from(outcome == LockVerdict::Hold);
        if lost > 0 {
            series.add("lock.contended", "fleet", t, u64::from(lost));
        }
        if outcome != LockVerdict::Hold {
            // Starvation audit, mirroring the core lock path: flag
            // (once) any acquire waiting past the bound.
            let waited = t.saturating_sub(dev.wait_start_ns);
            if waited >= STARVATION_AUDIT.as_nanos() as u64 && !dev.starved {
                dev.starved = true;
                series.add("lock.starved", "fleet", t, 1);
            }
            if let (LockVerdict::Head, Some(rank), Some((stamped, lists, _))) =
                (outcome, hot, dev.kept)
            {
                // The head lists every call until one shows the holder's
                // release, so it takes the lock at most one list after
                // the release lands — or until its lists or ΔT/2 run out.
                let f = &folders[rank as usize];
                let free = f.holder.map_or(t, |_| f.release_ns);
                let seen = t + free.saturating_sub(t).div_ceil(CALL_NS).max(1) * CALL_NS;
                let out_of_lists = t + u64::from(lock.max_attempts - lists) * CALL_NS;
                let too_old = stamped + lock.stale_after.as_nanos() as u64 / 2;
                let at = seen.min(out_of_lists).min(too_old);
                let at = at.max(t + qps_delay.max(LOOKAHEAD_NS));
                calendar.push(at, device, Ev::Attempt { attempt });
                return;
            }
            let next = attempt + 1;
            if next >= lock.max_attempts {
                // Exhausted: defer the commit and start a fresh acquire
                // cycle later.
                series.add("fleet.sessions", "deferred", t, 1);
                let defer = (60.0 * NS_PER_SEC as f64 * (1.0 + backoff_u)) as u64;
                calendar.push(t + defer, device, Ev::Attempt { attempt: 0 });
            } else {
                let cap_ns = lock.backoff_cap(attempt).as_nanos() as u64;
                let backoff = ((backoff_u * cap_ns as f64) as u64)
                    .saturating_add(qps_delay)
                    .max(LOOKAHEAD_NS);
                calendar.push(t + backoff, device, Ev::Attempt { attempt: next });
            }
            return;
        }

        // Committed: the lock (oplog: the compaction lock, when this
        // append folds) is held only for the metadata commit.
        let mode = cfg.meta_mode.as_str();
        let waited = t.saturating_sub(dev.wait_start_ns);
        series.observe("fleet.lock_wait_ns", mode, t, waited);
        series.observe("fleet.lock_rounds", mode, t, u64::from(dev.rounds));
        let release_ns = t + hold_ns.saturating_add(qps_delay).max(LOOKAHEAD_NS);
        if let (MetaMode::Lock, Some(rank)) = (cfg.meta_mode, hot) {
            folders[rank as usize].release_ns = release_ns;
        }
        calendar.push(release_ns, device, Ev::Release);
    }

    /// The commit landed: publish to the folder, fold the device back
    /// to an idle calendar entry and schedule its next session (or
    /// churn it).
    fn release(&mut self, t: u64, device: u64) {
        let cfg = self.cfg;
        let mut dev = self
            .active
            .remove(&device)
            .expect("releasing device is active");
        let next_gap_secs = cfg.profile.next_gap_secs(dev.class, &mut dev.rng);
        let series = &mut self.series;
        if let Some(rank) = dev.hot {
            let f = &mut self.folders[rank as usize];
            if cfg.meta_mode == MetaMode::Lock {
                // Oplog commits never held the folder lock, so the
                // holder invariant only applies here.
                if f.holder.map(|(_, d)| d) != Some(device) {
                    series.add("invariant.holder_violations", "fleet", t, 1);
                }
                f.holder = None;
            }
            series.add("folders.versions", "fleet", t, 1);
            f.cum_bytes += dev.bytes;
            // The writer trivially has its own write; a push implies a
            // pull-first in the sync protocol, so it is also caught up
            // on everything earlier.
            f.member_synced.insert(device, f.cum_bytes);
        }
        series.add("bytes.synced", "fleet", t, dev.bytes);
        let latency = t.saturating_sub(dev.t0_ns);
        series.observe("fleet.sync_latency_ns", cfg.meta_mode.as_str(), t, latency);

        match next_gap_secs {
            None => series.add("devices.churned", "fleet", t, 1),
            Some(gap) => {
                let at = t + ((gap * NS_PER_SEC as f64) as u64).max(LOOKAHEAD_NS);
                if at < self.horizon_ns {
                    let activation = dev.activation + 1;
                    self.calendar.push(at, device, Ev::Arrive { activation });
                }
            }
        }
    }

    /// Drain-phase catch-up: download the erasure share of the folder
    /// writes `device` missed from a read quorum.
    fn pull(&mut self, t: u64, device: u64, folder: u32) {
        let series = &mut self.series;
        series.add("fleet.pulls", "drain", t, 1);
        let f = &mut self.folders[folder as usize];
        let lag = f
            .cum_bytes
            .saturating_sub(*f.member_synced.get(&device).unwrap_or(&0));
        if lag > 0 {
            // All clouds reachable: drain runs after every fault window
            // has closed. The quorum rotates by device id so drain load
            // spreads across all five providers.
            let site = site_of(device);
            let share = lag.div_ceil(ERASURE_K);
            let ops = share.div_ceil(OP_CHUNK_BYTES) + 1;
            for j in 0..QUORUM_K {
                let i = (device as usize + j) % self.lanes.len();
                let down = self.rates[site][i].1 * rate_flux(i, t);
                let dur = share as f64 / down.max(1.0);
                charge_transfer(&mut self.lanes[i], t, ops, share, dur, false, series);
            }
            f.member_synced.insert(device, f.cum_bytes);
            series.add("drain.pulls", "fleet", t, 1);
            series.add("bytes.pulled", "fleet", t, lag);
        }
    }

    /// Final invariant evaluation and metric assembly.
    fn finish(self, overrun: bool) -> FleetMetrics {
        let Run {
            mut m,
            series,
            folders,
            lanes,
            active,
            ..
        } = self;
        m.series = series.snapshot();
        let held: usize = folders.iter().filter(|f| f.holder.is_some()).count();
        let lagging: usize = folders
            .iter()
            .map(|f| {
                f.member_synced
                    .values()
                    .filter(|&&s| s < f.cum_bytes)
                    .count()
            })
            .sum();
        let started = m.counter("sessions.started");
        let completed = m.counter("sessions.completed");
        let violations = m.counter("invariant.holder_violations");
        let residual_active = active.len();

        m.invariant(
            "single_lock_holder",
            violations == 0 && held == 0,
            format!("{violations} holder violations, {held} locks still held"),
        );
        m.invariant(
            "no_lost_acks",
            lagging == 0,
            format!("{lagging} members behind their folder head"),
        );
        m.invariant(
            "session_conservation",
            started == completed && residual_active == 0,
            format!("{started} started, {completed} completed, {residual_active} residual"),
        );
        m.invariant(
            "converged",
            !overrun,
            if overrun {
                "event/time/drain safety valve tripped".to_owned()
            } else {
                "calendar drained inside budget".to_owned()
            },
        );

        let bytes = |metric, lane: &CloudLane| {
            m.series
                .entry(metric, lane.name)
                .map_or(0, |e| e.merged().sum)
        };
        let clouds = lanes
            .iter()
            .map(|l| CloudRow {
                name: l.name.to_owned(),
                ops: l.lock_ops + l.transfer_ops,
                lock_ops: l.lock_ops,
                transfer_ops: l.transfer_ops,
                bytes_up: bytes("cloud.bytes_up", l),
                bytes_down: bytes("cloud.bytes_down", l),
                throttle_delay_ns: l.throttle_delay_ns,
                qps_peak: l.series.peak(),
                qps_mean: l.series.mean(),
            })
            .collect();
        m.clouds = clouds;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_obs::HealthState;

    #[test]
    fn site_assignment_is_stable_and_covers_sites() {
        let mut seen = [false; 7];
        for d in 0..1_000u64 {
            let s = site_of(d);
            assert_eq!(s, site_of(d));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "all sites used");
    }

    #[test]
    fn rate_flux_is_bounded_and_deterministic() {
        for p in 0..5 {
            for slot in 0..50u64 {
                let f = rate_flux(p, slot * 600 * NS_PER_SEC);
                assert!((0.78..=1.0).contains(&f), "flux {f}");
                assert_eq!(f, rate_flux(p, slot * 600 * NS_PER_SEC));
            }
        }
    }

    #[test]
    fn reachability_tracks_outage_windows() {
        let plan = crate::config::default_chaos_plan(1, 600);
        // Before any window: everything reachable.
        assert_eq!(upload_reachability(&plan, 0), [true; 5]);
        // Inside the outage window (h/6..h/3 on provider index 4).
        let mid = 150 * NS_PER_SEC;
        let ok = upload_reachability(&plan, mid);
        assert!(!ok[4], "outage provider unreachable");
        assert!(ok[0] && ok[1] && ok[2], "others still up");
    }

    #[test]
    fn tiny_fleet_runs_to_convergence() {
        let mut cfg = FleetConfig::quick(11);
        cfg.devices = 200;
        cfg.horizon = std::time::Duration::from_secs(120);
        cfg.hot_folders = 5;
        cfg.fault_plan = crate::config::default_chaos_plan(11, 120);
        let m = FleetSim::new(cfg).run();
        assert!(m.counter("sessions.started") > 0);
        assert_eq!(
            m.counter("sessions.started"),
            m.counter("sessions.completed")
        );
        assert!(m.invariants.iter().all(|i| i.pass), "{:?}", m.invariants);
    }

    #[test]
    fn oplog_fleet_converges_without_lock_contention() {
        let mut cfg = FleetConfig::quick(11);
        cfg.devices = 200;
        cfg.horizon = std::time::Duration::from_secs(120);
        cfg.hot_folders = 5;
        cfg.fault_plan = crate::config::default_chaos_plan(11, 120);
        cfg.meta_mode = MetaMode::Oplog;
        let m = FleetSim::new(cfg).run();
        assert!(m.counter("sessions.started") > 0);
        assert_eq!(
            m.counter("sessions.started"),
            m.counter("sessions.completed")
        );
        // Every commit is an op append; nothing ever loses a round.
        assert_eq!(m.counter("oplog.appends"), m.counter("sessions.completed"));
        assert_eq!(m.counter("lock.contended_rounds"), 0);
        assert_eq!(m.counter("lock.exhausted"), 0);
        assert!(m.invariants.iter().all(|i| i.pass), "{:?}", m.invariants);
    }

    #[test]
    fn oplog_fleet_is_deterministic() {
        let run = || {
            let mut cfg = FleetConfig::quick(23);
            cfg.devices = 150;
            cfg.horizon = std::time::Duration::from_secs(90);
            cfg.hot_folders = 3;
            cfg.fault_plan = crate::config::default_chaos_plan(23, 90);
            cfg.meta_mode = MetaMode::Oplog;
            let m = FleetSim::new(cfg).run();
            (m.to_json(), m.series_json())
        };
        let (json_a, series_a) = run();
        let (json_b, series_b) = run();
        assert_eq!(json_a, json_b);
        // The windowed series must be byte-identical across same-seed
        // runs too.
        assert_eq!(series_a, series_b);
        assert!(series_a.contains("\"series\": \"unidrive-obs-series/v2\""));
        assert!(series_a.contains("fleet.arrivals"));
    }

    #[test]
    fn chaos_outage_degrades_target_cloud_health_then_recovers() {
        let mut cfg = FleetConfig::quick(31);
        cfg.devices = 400;
        cfg.horizon = std::time::Duration::from_secs(600);
        cfg.hot_folders = 8;
        // Outage on Provider::ALL[4] over [h/6, h/3) = [100s, 200s).
        cfg.fault_plan = crate::config::default_chaos_plan(31, 600);
        let m = FleetSim::new(cfg).run();

        // The lanes are what `obs_report` derives from the exported
        // series: the fully refused window [120s, 180s) is `down`.
        let lanes = m.series.health_lanes();
        assert_eq!(lanes.len(), Provider::ALL.len());
        let lane = |p: Provider| &lanes.iter().find(|(name, _)| name == p.name()).expect("lane").1;
        let target = lane(Provider::ALL[4]);
        // The outage window must drive the cloud out of Healthy…
        assert!(
            target.transitions.iter().any(|t| t.2 != HealthState::Healthy),
            "no degradation recorded: {target:?}"
        );
        assert!(target.windows.contains(&(2, HealthState::Down)), "{target:?}");
        // …and flap damping must walk it back to Healthy by the end.
        assert_eq!(target.state(), HealthState::Healthy, "{target:?}");
        // Clouds outside the fault plan's outage stay healthy with no
        // Down transition.
        let calm = lane(Provider::ALL[0]);
        assert!(calm.transitions.iter().all(|t| t.2 != HealthState::Down), "{calm:?}");
    }
}
