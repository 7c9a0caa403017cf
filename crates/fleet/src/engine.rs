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
//! the device back to idle.
//!
//! # Lazy materialization
//!
//! An idle device is one 32-byte calendar entry. Full per-device state
//! ([`ActiveDevice`]) exists only between `Arrive` and `Release`, in
//! one `HashMap` keyed by device id — so peak memory tracks the number
//! of *concurrent sessions*, not the population size.

use std::collections::HashMap;

use unidrive_cloud::{CloudOp, FaultKind, FaultPlan, TokenBucket};
use unidrive_meta::{LockConfig, MetaMode, PROTOCOL_COSTS};
use unidrive_obs::Histogram;
use unidrive_sim::SimRng;
use unidrive_workload::{nominal_rates, DeviceClass, Provider, Zipf, EC2_SITES};

use crate::calendar::Calendar;
use crate::config::FleetConfig;
use crate::metrics::{CloudRow, FleetMetrics};

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
/// How long a metadata commit under the lock takes: the fleet's time
/// model for the six calls of `PROTOCOL_COSTS.lock_commit` (version
/// download, refresh upload + delete, delta upload, version upload,
/// release delete), not a call count — those are charged from
/// `PROTOCOL_COSTS`.
const COMMIT_NS: u64 = 500_000_000;
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
}

/// A shared hot folder: quorum-lock scope plus per-member sync
/// watermarks for the no-lost-acks and convergence invariants.
#[derive(Debug, Default)]
struct HotFolder {
    holder: Option<u64>,
    version: u64,
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
    bytes_up: u64,
    bytes_down: u64,
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

/// Charges one metadata step of `ops` calls (a sum of
/// [`PROTOCOL_COSTS`] fields) to every reachable lane at `t`: token
/// bucket, QPS series, `lock_ops`, shaper delay and `cloud.ops`.
/// Returns the worst shaper delay, which gates the step.
fn charge_meta(
    lanes: &mut [CloudLane],
    reachable: &[bool; 5],
    t: u64,
    ops: u64,
    m: &mut FleetMetrics,
) -> u64 {
    let mut worst = 0;
    for (lane, _) in lanes.iter_mut().zip(reachable).filter(|(_, &r)| r) {
        let d = lane.bucket.consume(t, ops);
        lane.series.record(t + d, ops);
        lane.lock_ops += ops;
        lane.throttle_delay_ns += d;
        worst = worst.max(d);
        m.series.add("cloud.ops", lane.name, t, ops);
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
    m: &mut FleetMetrics,
) -> u64 {
    let d = lane.bucket.consume(t, ops);
    lane.transfer_ops += ops;
    if upload {
        lane.bytes_up += share;
    } else {
        lane.bytes_down += share;
    }
    lane.throttle_delay_ns += d;
    // Record at post-shaper times: the series reports when ops
    // actually clear, not the offered spike.
    let wire_ns = (secs * NS_PER_SEC as f64) as u64;
    let start = t + d;
    lane.series.record_spread(start, start + wire_ns, ops);
    m.series.add("cloud.ops", lane.name, t, ops);
    let bytes = if upload { "cloud.bytes_up" } else { "cloud.bytes_down" };
    m.series.add(bytes, lane.name, t, share);
    // The share transfer's latency sample includes the shaper delay.
    m.series.observe("cloud.op_ns", lane.name, t, wire_ns.saturating_add(d));
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
    m: &mut FleetMetrics,
) -> bool {
    for (i, lane) in lanes.iter().enumerate() {
        if !reachable[i] {
            m.series.add("cloud.ops", lane.name, t, 1);
            m.series.add("cloud.err", lane.name, t, 1);
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
    m: FleetMetrics,
    sync_latency: Histogram,
    lock_wait: Histogram,
    lock_rounds: Histogram,
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
                bytes_up: 0,
                bytes_down: 0,
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
            m: FleetMetrics::new(cfg),
            sync_latency: Histogram::default(),
            lock_wait: Histogram::default(),
            lock_rounds: Histogram::default(),
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
        let m = &mut self.m;
        m.series.add("fleet.arrivals", class.as_str(), t, 1);
        m.series.observe("fleet.session_bytes", class.as_str(), t, bytes);
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
            },
        );

        let reachable = upload_reachability(&cfg.fault_plan, t);
        if !quorum_reachable(&self.lanes, &reachable, t, m) {
            // Not enough providers accept writes: the upload cannot
            // reach quorum durability.
            m.bump("upload.unreachable_rounds");
            self.calendar
                .push(t + outage_retry_ns(retry_u), device, Ev::Arrive { activation });
            return;
        }
        m.bump("sessions.started");
        m.series.add("fleet.sessions", "started", t, 1);
        if let Some(rank) = hot {
            let f = &mut self.folders[rank as usize];
            // A joining member snapshots the folder: history backfill
            // is out of band; lag accrues only for writes it
            // subsequently misses.
            f.member_synced.entry(device).or_insert(f.cum_bytes);
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
                        m.bump("fault.burst_slowdowns");
                    }
                    FaultKind::LatencySpike { extra_ms } => {
                        dur += (extra_ms as f64 / 1_000.0) * ops as f64;
                    }
                    FaultKind::TornUpload { probability } => {
                        if cloud_us[i] < probability {
                            // Torn write detected by digest check; one
                            // repair pass.
                            dur *= 1.3;
                            m.bump("fault.torn_repairs");
                        }
                    }
                    FaultKind::DelayedVisibility => {
                        ack_extra_ns = ack_extra_ns.max(2 * NS_PER_SEC);
                        m.bump("fault.delayed_acks");
                    }
                    FaultKind::Outage | FaultKind::QuotaExhausted => {}
                }
            }
            slowest = slowest.max(dur);
            let d = charge_transfer(lane, t, ops, share, dur, true, m);
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
            m,
            lock_wait,
            lock_rounds,
            ..
        } = self;
        let dev = active.get_mut(&device).expect("attempting device is active");
        if attempt == 0 {
            // The upload just landed (or a deferred cycle starts); lock
            // waiting is measured from here.
            dev.wait_start_ns = t;
        }
        // Fixed draw sequence: backoff, retry jitter.
        let backoff_u = dev.rng.next_f64();
        let retry_u = dev.rng.next_f64();
        let hot = dev.hot;
        m.series.add(
            "fleet.attempts",
            if hot.is_some() { "hot" } else { "private" },
            t,
            1,
        );

        let reachable = upload_reachability(&cfg.fault_plan, t);
        if !quorum_reachable(lanes, &reachable, t, m) {
            // Quorum unreachable: back off and retry the same round once
            // the outage window has a chance to end.
            m.bump("lock.unreachable_rounds");
            calendar.push(t + outage_retry_ns(retry_u), device, Ev::Attempt { attempt });
            return;
        }

        // Oplog: list the oplog directory, read each op object the
        // device has not read that no compaction has covered, and upload
        // its own — no lock round, no losers, every attempt commits on
        // its first round; a private folder shows only the device's own
        // objects, which it never reads. Lock: a round, then the commit
        // under the won lock or the lost round's withdraw.
        let c = PROTOCOL_COSTS;
        let (won, ops, compact_ns) = match cfg.meta_mode {
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
                            m.bump("oplog.compactions");
                            m.series.add("oplog.compactions", "fleet", t, 1);
                            if !free {
                                m.bump("oplog.compact_forced");
                                m.series.add("oplog.compact_forced", "fleet", t, 1);
                            }
                        } else {
                            // Another device is compacting; the append
                            // stands, the fold waits.
                            m.bump("oplog.compact_skipped");
                        }
                    }
                }
                m.bump("oplog.appends");
                m.add("oplog.op_file_reads", unread);
                m.series.add("oplog.appends", "fleet", t, 1);
                let mut ops = c.oplog_append + unread * c.oplog_op_file;
                if let Some((_, covered)) = compaction {
                    m.add("oplog.op_deletes", covered);
                    ops += c.oplog_compact + covered * c.oplog_op_delete;
                }
                (true, ops, compaction.map_or(0, |(wait, _)| wait + COMMIT_NS))
            }
            MetaMode::Lock => {
                let won = match hot {
                    None => true,
                    Some(rank) => {
                        let f = &mut folders[rank as usize];
                        if f.holder.is_none() {
                            f.holder = Some(device);
                            true
                        } else {
                            false
                        }
                    }
                };
                let step = if won { c.lock_commit } else { c.lock_withdraw };
                (won, c.lock_round + step, 0)
            }
        };
        // The shaper's worst delay gates what follows.
        let qps_delay = charge_meta(lanes, &reachable, t, ops, m);

        if !won {
            m.bump("lock.contended_rounds");
            m.series.add("lock.contended", "fleet", t, 1);
            // Starvation audit, mirroring the core lock path: flag
            // (once) any acquire waiting past the bound.
            let waited = t.saturating_sub(dev.wait_start_ns);
            if waited >= lock.starvation_audit.as_nanos() as u64 && !dev.starved {
                dev.starved = true;
                m.bump("lock.starved");
                m.series.add("lock.starved", "fleet", t, 1);
            }
            let next = attempt + 1;
            if next >= lock.max_attempts {
                // Exhausted: defer the commit and start a fresh acquire
                // cycle later.
                m.bump("lock.exhausted");
                m.bump("sessions.deferred");
                m.series.add("fleet.sessions", "deferred", t, 1);
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
        if cfg.meta_mode == MetaMode::Lock {
            m.bump("lock.acquired");
        }
        let waited = t.saturating_sub(dev.wait_start_ns);
        lock_wait.record(waited);
        lock_rounds.record(attempt as u64 + 1);
        m.series
            .observe("fleet.lock_wait_ns", cfg.meta_mode.as_str(), t, waited);
        let commit = COMMIT_NS.saturating_add(qps_delay).saturating_add(compact_ns);
        calendar.push(t + commit.max(LOOKAHEAD_NS), device, Ev::Release);
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
        let m = &mut self.m;
        if let Some(rank) = dev.hot {
            let f = &mut self.folders[rank as usize];
            if cfg.meta_mode == MetaMode::Lock {
                // Oplog commits never held the folder lock, so the
                // holder invariant only applies here.
                if f.holder != Some(device) {
                    m.bump("invariant.holder_violations");
                }
                f.holder = None;
            }
            f.version += 1;
            f.cum_bytes += dev.bytes;
            // The writer trivially has its own write; a push implies a
            // pull-first in the sync protocol, so it is also caught up
            // on everything earlier.
            f.member_synced.insert(device, f.cum_bytes);
        }
        m.bump("sessions.completed");
        m.add("bytes.synced", dev.bytes);
        let latency = t.saturating_sub(dev.t0_ns);
        self.sync_latency.record(latency);
        m.series.add("fleet.sessions", "completed", t, 1);
        m.series
            .observe("fleet.sync_latency_ns", cfg.meta_mode.as_str(), t, latency);

        match next_gap_secs {
            None => m.bump("devices.churned"),
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
        let m = &mut self.m;
        m.series.add("fleet.pulls", "drain", t, 1);
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
                charge_transfer(&mut self.lanes[i], t, ops, share, dur, false, m);
            }
            f.member_synced.insert(device, f.cum_bytes);
            m.bump("drain.pulls");
            m.add("bytes.pulled", lag);
        }
    }

    /// Final invariant evaluation and metric assembly.
    fn finish(self, overrun: bool) -> FleetMetrics {
        let Run {
            mut m,
            folders,
            lanes,
            active,
            ..
        } = self;
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
        let members: u64 = folders.iter().map(|f| f.member_synced.len() as u64).sum();
        let started = m.counter("sessions.started");
        let completed = m.counter("sessions.completed");
        let residual_active = active.len();

        m.set("folders.members", members);
        m.set(
            "folders.versions",
            folders.iter().map(|f| f.version).sum::<u64>(),
        );
        m.invariant(
            "single_lock_holder",
            m.counter("invariant.holder_violations") == 0 && held == 0,
            format!(
                "{} holder violations, {held} locks still held",
                m.counter("invariant.holder_violations")
            ),
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

        m.sync_latency = self.sync_latency.snapshot();
        m.lock_wait = self.lock_wait.snapshot();
        m.lock_rounds = self.lock_rounds.snapshot();

        m.clouds = lanes
            .iter()
            .map(|l| CloudRow {
                name: l.name.to_owned(),
                ops: l.lock_ops + l.transfer_ops,
                lock_ops: l.lock_ops,
                transfer_ops: l.transfer_ops,
                bytes_up: l.bytes_up,
                bytes_down: l.bytes_down,
                throttle_delay_ns: l.throttle_delay_ns,
                qps_peak: l.series.peak(),
                qps_mean: l.series.mean(),
            })
            .collect();
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
        let lanes = m.series.snapshot().health_lanes();
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
