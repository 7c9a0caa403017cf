//! The fleet engine: a conservative parallel discrete-event simulator
//! over 100k+ lightweight device actors.
//!
//! # Execution model
//!
//! One global [`Calendar`] holds at most one pending event per device.
//! The run loop repeatedly pops a *window* `[t, t + LOOKAHEAD)` of due
//! events, partitions it by `device % shards`, fans the shard lists out
//! on a [`WorkerPool`] (the parallel phase computes per-device
//! *intents* and touches only that shard's device map), then k-way
//! merges the intents back into `(time, device, seq)` order and
//! applies them sequentially against global state (folders, per-cloud
//! shapers, the calendar itself).
//!
//! Determinism rests on three rules:
//!
//! 1. **Lookahead** — every scheduling delay is clamped to at least
//!    [`LOOKAHEAD_NS`], so no event popped in a window can have been
//!    caused by another event in the same window. The parallel phase
//!    is therefore causally closed.
//! 2. **Shard-blind randomness** — every draw comes from a stream
//!    derived from `(seed, device, activation)`; shard identity and
//!    thread identity never feed an RNG. Shards are a pure work
//!    partition, so metrics are byte-identical at 1, 4, or 16 shards.
//! 3. **Fixed draws in the parallel phase only** — each event kind
//!    consumes a deterministic draw sequence from its device's own
//!    stream before the merge decides any outcome; the merge phase
//!    never draws.
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
//! ([`ActiveDevice`]) exists only between `Arrive` and `Release`, in a
//! per-shard `HashMap` keyed by device id — so peak memory tracks the
//! number of *concurrent sessions*, not the population size.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use unidrive_cloud::{CloudOp, FaultKind, FaultPlan, TokenBucket};
use unidrive_meta::{LockConfig, MetaMode, PROTOCOL_COSTS};
use unidrive_obs::{Histogram, SeriesBank};
use unidrive_sim::shard::{merge_by_key, partition_window, shard_of, Calendar, Entry};
use unidrive_sim::SimRng;
use unidrive_util::pool::WorkerPool;
use unidrive_workload::{nominal_rates, DeviceClass, Provider, Zipf, EC2_SITES};

use crate::config::FleetConfig;
use crate::metrics::{CloudRow, FleetMetrics, FLEET_SERIES_WINDOW_NS};

/// The total order intents are merged and applied in:
/// `(time_ns, lane, seq)` as produced by `Entry::key`.
type MergeKey = (u64, u64, u64);

/// Conservative lookahead: every scheduled delay is at least this, so
/// a window's events are causally independent of each other.
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
    /// Oplog mode: devices that have appended here — the op files a
    /// listing of the folder shows (the plane trims op files, never
    /// deletes them).
    op_files: HashSet<u64>,
    /// Oplog mode: ops appended since the last base compaction.
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

/// What the parallel phase hands to the merge phase for one event.
/// All random draws have already happened; the merge only combines
/// them with global state.
#[derive(Debug)]
enum Intent {
    Start {
        device: u64,
        hot: Option<u32>,
        bytes: u64,
        site: usize,
        activation: u32,
        /// Unreachable-retry jitter in `[0, 1)`.
        retry_u: f64,
        /// One draw per provider for per-cloud fault coin flips.
        cloud_us: [f64; 5],
        /// Upload reachability per provider at this instant.
        reachable: [bool; 5],
    },
    Attempt {
        device: u64,
        hot: Option<u32>,
        attempt: u32,
        wait_start_ns: u64,
        /// Backoff / defer-delay position in `[0, 1)`.
        backoff_u: f64,
        /// Unreachable-retry jitter in `[0, 1)`.
        retry_u: f64,
        /// Upload reachability per provider at this instant.
        reachable: [bool; 5],
    },
    Release {
        device: u64,
        hot: Option<u32>,
        bytes: u64,
        t0_ns: u64,
        activation: u32,
        /// Pre-drawn gap to the next session; `None` = permanent churn.
        next_gap_secs: Option<f64>,
    },
    Pull {
        device: u64,
        folder: u32,
        site: usize,
    },
}

/// Read-only context the parallel phase works against.
struct Shared<'a> {
    cfg: &'a FleetConfig,
    zipf: &'a Zipf,
    plan: &'a FaultPlan,
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
/// the mapping is independent of shard layout and of every RNG stream.
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
    /// Same config (including seed) ⇒ byte-identical metrics JSON,
    /// regardless of `shards` and `threads`.
    pub fn run(&self) -> FleetMetrics {
        let cfg = &self.cfg;
        let shards = cfg.shards.max(1);
        let horizon_ns = cfg.horizon_ns();
        let zipf = Zipf::new(cfg.hot_folders.max(1) as usize, cfg.profile.hot_zipf_s);
        let plan = &cfg.fault_plan;

        // Per-site × per-provider nominal rates, bytes/sec.
        let rates: Vec<[(f64, f64); 5]> = EC2_SITES
            .iter()
            .map(|site| {
                let mut row = [(0.0, 0.0); 5];
                for (i, p) in Provider::ALL.iter().enumerate() {
                    row[i] = nominal_rates(*site, *p);
                }
                row
            })
            .collect();

        let mut lanes: Vec<CloudLane> = Provider::ALL
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

        let mut folders: Vec<HotFolder> =
            (0..cfg.hot_folders).map(|_| HotFolder::default()).collect();

        let maps: Vec<Mutex<HashMap<u64, ActiveDevice>>> =
            (0..shards).map(|_| Mutex::new(HashMap::new())).collect();

        let mut metrics = FleetMetrics::new(cfg);
        let mut calendar: Calendar<Ev> = Calendar::new();

        // Seed the calendar: each device's first arrival is uniform in
        // [LOOKAHEAD, horizon), from its own derived bootstrap stream.
        for d in 0..cfg.devices as u64 {
            let mut rng = SimRng::derive(cfg.seed, &format!("fleet/boot/{d}"));
            let t = ((rng.next_f64() * horizon_ns as f64) as u64).max(LOOKAHEAD_NS);
            if t < horizon_ns {
                calendar.push(t, d, Ev::Arrive { activation: 0 });
            }
        }

        let pool = if cfg.threads == 0 {
            WorkerPool::auto()
        } else {
            WorkerPool::new(cfg.threads)
        };
        let shared = Shared {
            cfg,
            zipf: &zipf,
            plan,
        };

        let sync_latency = Histogram::default();
        let lock_wait = Histogram::default();
        let lock_rounds = Histogram::default();

        let mut now_ns: u64 = 0;
        let mut drain_rounds: u32 = 0;
        // Safety valves — a logic bug must FAIL an invariant, not hang.
        let max_events: u64 = (cfg.devices as u64).saturating_mul(2_000).max(10_000_000);
        let max_virtual_ns = horizon_ns.saturating_mul(20);
        let mut overrun = false;

        loop {
            if calendar.is_empty() {
                // Drain: schedule catch-up pulls for lagging members.
                let mut pulls: Vec<(u64, u32)> = Vec::new();
                for (fi, f) in folders.iter().enumerate() {
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
                    calendar.push(at, d, Ev::Pull { folder });
                }
            }

            let t = calendar.next_time().expect("calendar non-empty");
            now_ns = now_ns.max(t);
            if metrics.events_processed > max_events || now_ns > max_virtual_ns {
                overrun = true;
                break;
            }
            let window = calendar.pop_window(t + LOOKAHEAD_NS);
            metrics.windows += 1;
            metrics.events_processed += window.len() as u64;

            // Parallel phase: per-shard intent computation. Shard i
            // touches only maps[i]; all RNG draws happen here. Each
            // shard rolls its workload series into a private bank.
            let parts = partition_window(window, shards);
            let sharded: Vec<(Vec<(MergeKey, Intent)>, SeriesBank)> =
                pool.par_map_indexed(&parts, |si, part| {
                    let mut out = Vec::with_capacity(part.len());
                    let mut bank = SeriesBank::new(FLEET_SERIES_WINDOW_NS);
                    let mut map = maps[si].lock().expect("shard map poisoned");
                    for e in part {
                        out.push((e.key(), shard_phase(e, &mut map, &shared, &mut bank)));
                    }
                    (out, bank)
                });

            // Fold the per-shard banks into the global series at the
            // window boundary. Every window fold is commutative and
            // associative (sums, min/max, bucket unions keyed by
            // absolute window index), and sharding only partitions the
            // event set, so the merged content — and therefore the
            // exported bytes — is identical at any shard/thread count.
            let mut intents = Vec::with_capacity(sharded.len());
            for (list, bank) in sharded {
                metrics.series.merge_from(&bank);
                intents.push(list);
            }

            // Merge phase: apply intents in global (time, device, seq)
            // order against folders, lanes, calendar, metrics.
            for (key, intent) in merge_by_key(intents, |(k, _)| *k) {
                self.apply(
                    key.0,
                    intent,
                    &mut folders,
                    &mut lanes,
                    &mut calendar,
                    &maps,
                    &mut metrics,
                    &rates,
                    horizon_ns,
                    &sync_latency,
                    &lock_wait,
                    &lock_rounds,
                );
            }
        }

        metrics.virtual_end_ns = now_ns;
        metrics.drain_rounds = drain_rounds;
        self.finish(
            metrics,
            &folders,
            &maps,
            &lanes,
            overrun,
            sync_latency,
            lock_wait,
            lock_rounds,
        )
    }

    /// Merge-phase application of one intent. Sequential; no RNG.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        t: u64,
        intent: Intent,
        folders: &mut [HotFolder],
        lanes: &mut [CloudLane],
        calendar: &mut Calendar<Ev>,
        maps: &[Mutex<HashMap<u64, ActiveDevice>>],
        m: &mut FleetMetrics,
        rates: &[[(f64, f64); 5]],
        horizon_ns: u64,
        sync_latency: &Histogram,
        lock_wait: &Histogram,
        lock_rounds: &Histogram,
    ) {
        let cfg = &self.cfg;
        match intent {
            Intent::Start {
                device,
                hot,
                bytes,
                site,
                activation,
                retry_u,
                cloud_us,
                reachable,
            } => {
                if !quorum_reachable(lanes, &reachable, t, m) {
                    // Not enough providers accept writes: the upload
                    // cannot reach quorum durability. Retry the session
                    // start once the outage window has a chance to end.
                    m.bump("upload.unreachable_rounds");
                    calendar.push(t + outage_retry_ns(retry_u), device, Ev::Arrive { activation });
                    return;
                }
                m.bump("sessions.started");
                m.series.add("fleet.sessions", "started", t, 1);
                if let Some(rank) = hot {
                    let f = &mut folders[rank as usize];
                    // A joining member snapshots the folder: history
                    // backfill is out of band; lag accrues only for
                    // writes it subsequently misses.
                    f.member_synced.entry(device).or_insert(f.cum_bytes);
                }

                // Erasure-coded upload of one share per reachable
                // cloud; the slowest share gates the transfer.
                let share = bytes.div_ceil(ERASURE_K);
                let ops = share.div_ceil(OP_CHUNK_BYTES) + 2;
                let mut slowest = 0.0f64;
                let mut ack_extra_ns = 0u64;
                let mut qps_delay = 0u64;
                for (i, lane) in lanes.iter_mut().enumerate() {
                    if !reachable[i] {
                        continue;
                    }
                    let up = rates[site][i].0 * rate_flux(i, t);
                    let mut dur = share as f64 / up.max(1.0);
                    for ev in &self.cfg.fault_plan.events {
                        if ev.cloud != lane.name || !ev.applies(t, CloudOp::Upload) {
                            continue;
                        }
                        match ev.kind {
                            FaultKind::TransientBurst { probability } => {
                                // Retries inflate effective transfer
                                // time by the geometric mean 1/(1-p).
                                dur /= 1.0 - probability.min(0.8);
                                m.bump("fault.burst_slowdowns");
                            }
                            FaultKind::LatencySpike { extra_ms } => {
                                dur += (extra_ms as f64 / 1_000.0) * ops as f64;
                            }
                            FaultKind::TornUpload { probability } => {
                                if cloud_us[i] < probability {
                                    // Torn write detected by digest
                                    // check; one repair pass.
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
                calendar.push(t + duration, device, Ev::Attempt { attempt: 0 });
            }
            Intent::Attempt {
                device,
                hot,
                attempt,
                wait_start_ns,
                backoff_u,
                retry_u,
                reachable,
            } => {
                if !quorum_reachable(lanes, &reachable, t, m) {
                    // Quorum unreachable: back off and retry the same
                    // round once the outage window has a chance to end.
                    m.bump("lock.unreachable_rounds");
                    calendar.push(t + outage_retry_ns(retry_u), device, Ev::Attempt { attempt });
                    return;
                }

                // Oplog: list the oplog directory, read every op file it
                // shows and upload the device's own — no lock round, no
                // losers, every attempt commits on its first round; a
                // private folder shows only the device's own file. Lock:
                // a round, then the commit under the won lock or the lost
                // round's withdraw.
                let c = PROTOCOL_COSTS;
                let (won, ops, compact_ns) = match cfg.meta_mode {
                    MetaMode::Oplog => {
                        let mut listed = 1;
                        // Set when this append folds the log: the wait
                        // for the compaction lock.
                        let mut compaction: Option<u64> = None;
                        if let Some(rank) = hot {
                            let f = &mut folders[rank as usize];
                            listed = f.op_files.len() as u64;
                            f.op_files.insert(device);
                            f.pending_ops += 1;
                            if f.pending_ops >= OPLOG_COMPACT_EVERY {
                                let free = t >= f.compact_lock_until_ns;
                                if free
                                    || f.pending_ops
                                        >= OPLOG_COMPACT_ESCALATE * OPLOG_COMPACT_EVERY
                                {
                                    // λ tripped: fold the log into a new
                                    // base under a short quorum lock held
                                    // only for the rewrite. Past the
                                    // escalate threshold a busy lock does
                                    // not stop it: barge — wait out the
                                    // remainder of the holder's bounded
                                    // window, then fold.
                                    // `oplog.compact_overdue` (a forced
                                    // fold that still failed) cannot occur
                                    // here, because the advisory hold is
                                    // bounded by 2×COMMIT_NS; the counter
                                    // is zero-initialized for schema
                                    // parity with the core plane, which
                                    // can time out.
                                    let wait = f.compact_lock_until_ns.saturating_sub(t);
                                    f.pending_ops = 0;
                                    f.compact_lock_until_ns = t + wait + 2 * COMMIT_NS;
                                    compaction = Some(wait);
                                    m.bump("oplog.compactions");
                                    m.series.add("oplog.compactions", "fleet", t, 1);
                                    if !free {
                                        m.bump("oplog.compact_forced");
                                        m.series.add("oplog.compact_forced", "fleet", t, 1);
                                    }
                                } else {
                                    // Another device is compacting; the
                                    // append stands, the fold waits.
                                    m.bump("oplog.compact_skipped");
                                }
                            }
                        }
                        m.bump("oplog.appends");
                        m.add("oplog.op_file_reads", listed);
                        m.series.add("oplog.appends", "fleet", t, 1);
                        let ops = c.oplog_append
                            + listed * c.oplog_op_file
                            + compaction.map_or(0, |_| c.oplog_compact);
                        (true, ops, compaction.map_or(0, |wait| wait + COMMIT_NS))
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
                    // Starvation audit, mirroring the core lock path:
                    // flag (once) any acquire waiting past the bound.
                    let waited = t.saturating_sub(wait_start_ns);
                    if waited >= self.lock.starvation_audit.as_nanos() as u64 {
                        let mut map =
                            maps[shard_of(device, maps.len())].lock().expect("map");
                        let dev = map.get_mut(&device).expect("losing device is active");
                        if !dev.starved {
                            dev.starved = true;
                            m.bump("lock.starved");
                            m.series.add("lock.starved", "fleet", t, 1);
                        }
                    }
                    let next = attempt + 1;
                    if next >= self.lock.max_attempts {
                        // Exhausted: defer the commit and start a fresh
                        // acquire cycle later.
                        m.bump("lock.exhausted");
                        m.bump("sessions.deferred");
                        m.series.add("fleet.sessions", "deferred", t, 1);
                        let defer =
                            (60.0 * NS_PER_SEC as f64 * (1.0 + backoff_u)) as u64;
                        calendar.push(t + defer, device, Ev::Attempt { attempt: 0 });
                    } else {
                        let cap_ns = self.lock.backoff_cap(attempt).as_nanos() as u64;
                        let backoff = ((backoff_u * cap_ns as f64) as u64)
                            .saturating_add(qps_delay)
                            .max(LOOKAHEAD_NS);
                        calendar.push(t + backoff, device, Ev::Attempt { attempt: next });
                    }
                    return;
                }

                // Committed: the lock (oplog: the compaction lock, when
                // this append folds) is held only for the metadata commit.
                if cfg.meta_mode == MetaMode::Lock {
                    m.bump("lock.acquired");
                }
                lock_wait.record(t.saturating_sub(wait_start_ns));
                lock_rounds.record(attempt as u64 + 1);
                m.series.observe(
                    "fleet.lock_wait_ns",
                    cfg.meta_mode.as_str(),
                    t,
                    t.saturating_sub(wait_start_ns),
                );
                let commit = COMMIT_NS.saturating_add(qps_delay).saturating_add(compact_ns);
                calendar.push(t + commit.max(LOOKAHEAD_NS), device, Ev::Release);
            }
            Intent::Release {
                device,
                hot,
                bytes,
                t0_ns,
                activation,
                next_gap_secs,
            } => {
                if let Some(rank) = hot {
                    let f = &mut folders[rank as usize];
                    if cfg.meta_mode == MetaMode::Lock {
                        // Oplog commits never held the folder lock, so
                        // the holder invariant only applies here.
                        if f.holder != Some(device) {
                            m.bump("invariant.holder_violations");
                        }
                        f.holder = None;
                    }
                    f.version += 1;
                    f.cum_bytes += bytes;
                    // The writer trivially has its own write; a push
                    // implies a pull-first in the sync protocol, so it
                    // is also caught up on everything earlier.
                    f.member_synced.insert(device, f.cum_bytes);
                }
                m.bump("sessions.completed");
                m.add("bytes.synced", bytes);
                sync_latency.record(t.saturating_sub(t0_ns));
                m.series.add("fleet.sessions", "completed", t, 1);
                m.series.observe(
                    "fleet.sync_latency_ns",
                    cfg.meta_mode.as_str(),
                    t,
                    t.saturating_sub(t0_ns),
                );

                maps[shard_of(device, maps.len())]
                    .lock()
                    .expect("map")
                    .remove(&device);

                match next_gap_secs {
                    None => m.bump("devices.churned"),
                    Some(gap) => {
                        let gap_ns =
                            ((gap * NS_PER_SEC as f64) as u64).max(LOOKAHEAD_NS);
                        let at = t + gap_ns;
                        if at < horizon_ns {
                            calendar.push(
                                at,
                                device,
                                Ev::Arrive {
                                    activation: activation + 1,
                                },
                            );
                        }
                    }
                }
            }
            Intent::Pull {
                device,
                folder,
                site,
            } => {
                let f = &mut folders[folder as usize];
                let lag = f
                    .cum_bytes
                    .saturating_sub(*f.member_synced.get(&device).unwrap_or(&0));
                if lag > 0 {
                    // Download the erasure share of the missed bytes
                    // from a read quorum (all clouds reachable: drain
                    // runs after every fault window has closed). The
                    // quorum rotates by device id so drain load spreads
                    // across all five providers.
                    let share = lag.div_ceil(ERASURE_K);
                    let ops = share.div_ceil(OP_CHUNK_BYTES) + 1;
                    for j in 0..QUORUM_K {
                        let i = (device as usize + j) % lanes.len();
                        let down = rates[site][i].1 * rate_flux(i, t);
                        let dur = share as f64 / down.max(1.0);
                        charge_transfer(&mut lanes[i], t, ops, share, dur, false, m);
                    }
                    f.member_synced.insert(device, f.cum_bytes);
                    m.bump("drain.pulls");
                    m.add("bytes.pulled", lag);
                }
            }
        }
    }

    /// Final invariant evaluation and metric assembly.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        mut m: FleetMetrics,
        folders: &[HotFolder],
        maps: &[Mutex<HashMap<u64, ActiveDevice>>],
        lanes: &[CloudLane],
        overrun: bool,
        sync_latency: Histogram,
        lock_wait: Histogram,
        lock_rounds: Histogram,
    ) -> FleetMetrics {
        let residual_active: usize =
            maps.iter().map(|mx| mx.lock().expect("map").len()).sum();
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

        m.sync_latency = sync_latency.snapshot();
        m.lock_wait = lock_wait.snapshot();
        m.lock_rounds = lock_rounds.snapshot();

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

/// Parallel phase for one event: all RNG draws for the event happen
/// here, against the device's own stream; global state is read-only.
/// Workload-shaped series (arrivals by class, session sizes, attempt
/// and pull volume) roll into the shard's private `bank`, merged into
/// the global series at the window boundary.
fn shard_phase(
    e: &Entry<Ev>,
    map: &mut HashMap<u64, ActiveDevice>,
    ctx: &Shared<'_>,
    bank: &mut SeriesBank,
) -> Intent {
    let cfg = ctx.cfg;
    let device = e.lane;
    match &e.event {
        Ev::Arrive { activation } => {
            // Fixed draw sequence: session bytes, retry jitter, one
            // coin per provider. An unreachable-retry re-derives the
            // same stream and gets the same values — deterministic by
            // construction.
            let mut rng =
                SimRng::derive(cfg.seed, &format!("fleet/dev/{device}/{activation}"));
            let class = cfg.profile.class_of(cfg.seed, device);
            let hot = cfg
                .profile
                .hot_membership(cfg.seed, device, ctx.zipf)
                .map(|r| r as u32);
            let bytes = cfg.profile.session_bytes(class, &mut rng);
            let retry_u = rng.next_f64();
            let mut cloud_us = [0.0f64; 5];
            for u in &mut cloud_us {
                *u = rng.next_f64();
            }
            bank.add("fleet.arrivals", class.as_str(), e.at_ns, 1);
            bank.observe("fleet.session_bytes", class.as_str(), e.at_ns, bytes);
            // Preserve the original arrival time across retries so
            // sync latency covers the whole outage wait.
            let t0_ns = map.get(&device).map_or(e.at_ns, |d| d.t0_ns);
            map.insert(
                device,
                ActiveDevice {
                    rng,
                    t0_ns,
                    wait_start_ns: t0_ns,
                    bytes,
                    class,
                    hot,
                    activation: *activation,
                    starved: false,
                },
            );
            Intent::Start {
                device,
                hot,
                bytes,
                site: site_of(device),
                activation: *activation,
                retry_u,
                cloud_us,
                reachable: upload_reachability(ctx.plan, e.at_ns),
            }
        }
        Ev::Attempt { attempt } => {
            let dev = map.get_mut(&device).expect("attempting device is active");
            if *attempt == 0 {
                // The upload just landed (or a deferred cycle starts);
                // lock waiting is measured from here.
                dev.wait_start_ns = e.at_ns;
            }
            // Fixed draw sequence: backoff, retry jitter.
            let backoff_u = dev.rng.next_f64();
            let retry_u = dev.rng.next_f64();
            bank.add(
                "fleet.attempts",
                if dev.hot.is_some() { "hot" } else { "private" },
                e.at_ns,
                1,
            );
            Intent::Attempt {
                device,
                hot: dev.hot,
                attempt: *attempt,
                wait_start_ns: dev.wait_start_ns,
                backoff_u,
                retry_u,
                reachable: upload_reachability(ctx.plan, e.at_ns),
            }
        }
        Ev::Release => {
            let dev = map.get_mut(&device).expect("releasing device is active");
            let next_gap_secs = cfg.profile.next_gap_secs(dev.class, &mut dev.rng);
            Intent::Release {
                device,
                hot: dev.hot,
                bytes: dev.bytes,
                t0_ns: dev.t0_ns,
                activation: dev.activation,
                next_gap_secs,
            }
        }
        Ev::Pull { folder } => {
            bank.add("fleet.pulls", "drain", e.at_ns, 1);
            Intent::Pull {
                device,
                folder: *folder,
                site: site_of(device),
            }
        }
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
    fn oplog_fleet_is_deterministic_across_shards_and_threads() {
        let run = |shards: usize, threads: usize| {
            let mut cfg = FleetConfig::quick(23);
            cfg.devices = 150;
            cfg.horizon = std::time::Duration::from_secs(90);
            cfg.hot_folders = 3;
            cfg.shards = shards;
            cfg.threads = threads;
            cfg.fault_plan = crate::config::default_chaos_plan(23, 90);
            cfg.meta_mode = MetaMode::Oplog;
            let m = FleetSim::new(cfg).run();
            (m.to_json(), m.series_json())
        };
        let (json_a, series_a) = run(1, 1);
        let (json_b, series_b) = run(8, 8);
        assert_eq!(json_a, json_b);
        // The windowed series (per-shard banks merged at window
        // boundaries) must also be byte-identical across layouts.
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
