//! **Chaos soak** — N rounds of multi-device sync under seeded,
//! randomized [`FaultPlan`]s, with Jepsen-style invariant checks after
//! every round (§3.2, §7.3: UniDrive must stay correct while individual
//! CCSs fail):
//!
//! * **durability** — every device's folder (path → bytes, conflict
//!   copies included) is the one the folder spec
//!   (`unidrive_bench::spec`) gives for the commits acknowledged in the
//!   soak and the convergence passes, and for those a failed pass may
//!   have made as far as device 0 shows them;
//! * **lock** — at most one quorum-lock holder at any instant (scanned
//!   from the `lock.acquire`/`lock.release`/`lock.break` spans);
//! * **convergence** — once the fault horizon closes, a pass in which
//!   every device syncs a no-op *and* all images carry one version stamp
//!   (a pass that commits only block placements is a no-op that moves
//!   the stamp).
//!
//! The randomized plans draw only from *masked* fault kinds (transient
//! bursts, outages, latency spikes, quota, torn uploads, and one window
//! in which one cloud — a minority by construction — serves its
//! metadata rolled back), so every soak round must pass, on both
//! metadata planes (torn uploads landing on op objects mid-append
//! included). A final **lethal** round, on the lock
//! plane, schedules what the protocol cannot absorb (delayed visibility
//! on a lock quorum breaks the lock's read-after-write assumption,
//! which the oplog plane absorbs by construction) and must *fail*; the
//! failing schedule is then greedily minimized by dropping events and
//! replaying, and the smallest still-failing plan is emitted as JSON
//! alongside a flight record of the failing round.
//!
//! Everything runs in virtual time from fixed seeds: same-seed runs
//! produce byte-identical verdict files (checked in CI, like fig11).
//!
//! A final **health** round drives a targeted single-cloud outage with
//! every device frontend wrapped in an `ObservedCloud`, so each
//! provider's attempts and failures land in the `cloud.ops` /
//! `cloud.err` series. The availability lanes derived from those
//! series ([`unidrive_obs::health_lanes`], what `obs_report` prints
//! from the `--obs-out` bundle) must show the targeted cloud leaving
//! `healthy` during the fault window and back to `healthy` after it
//! closes, and no untargeted cloud going `down`. The lanes are
//! embedded in the verdict.
//!
//! Usage: `chaos_soak [quick] [--out verdict.json] [--obs-out OBS.json]`,
//! or `chaos_soak --replay plan.json`. `--replay` runs one lock-plane
//! round under a plan an earlier run wrote (`*.minplan.json`), prints
//! the invariants it violates and exits 1 if there are any.

use std::sync::Arc;
use std::time::Duration;

use unidrive_bench::plan::read_fault_plan;
use unidrive_bench::spec::{self, Change, Commit, Entry, Folder, Plane};
use unidrive_bench::{arg_value, obs_out, paper_client, quick_arg};
use unidrive_cloud::{
    ChaosCloud, CloudBuilder, CloudSet, CloudStore, FaultEvent, FaultKind, FaultPlan, MemCloud,
    SimCloud, SimCloudConfig,
};
use unidrive_core::{MemFolder, SyncError, SyncFolder, SyncReport, UniDriveClient};
use unidrive_meta::{MetaMode, OPLOG_DIR, ROOT_DIR};
use unidrive_obs::{
    bundle_json, lane_span, FieldValue, HealthLane, HealthState, Obs, Registry, SpanRecord,
};
use unidrive_sim::{spawn, Runtime, SimRng, SimRuntime};

const CLOUDS: usize = 5;
const DEVICES: usize = 3;
/// Per-device sync instants (seconds). Devices 0 and 1 write and sync
/// at the *same* instant so their lock acquisitions genuinely race.
const SYNC_TIMES: [[u64; 5]; DEVICES] = [
    [5, 65, 125, 185, 245],
    [5, 67, 123, 187, 243],
    [20, 80, 140, 200, 260],
];
/// All fault windows close before this (seconds); convergence runs after.
const HORIZON_SECS: u64 = 300;

/// What one soak round observed.
struct RoundOutcome {
    /// Invariants violated (empty = round passed).
    failed: Vec<&'static str>,
    /// Changes acknowledged during the soak and convergence.
    acked: usize,
    /// `sync_once` errors tolerated during the soak + convergence.
    sync_errors: usize,
    /// Faults the chaos layer injected.
    injected: u64,
    /// Of those, reads a rollback window answered from its snapshot
    /// with something other than the live store held.
    rollbacks: usize,
    /// Canonicalized obs trace of the round, when requested.
    flight: Option<String>,
}

fn deterministic_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SimRng::derive(seed, "chaos_soak/payload");
    (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
}

/// The soak's world, seeded by `plan.seed`: five providers, each one
/// shared backing store with a per-device network frontend — faults are
/// injected per device handle, so a visibility anomaly hides *other*
/// devices' writes, not your own — and one folder per device, all
/// recording into one registry. `observed` wraps every frontend in an
/// `ObservedCloud`.
struct World {
    rt: Arc<dyn Runtime>,
    obs: Obs,
    clouds: Vec<CloudSet>,
    folders: Vec<Arc<MemFolder>>,
    chaos: Vec<Arc<ChaosCloud>>,
}

fn world(plan: &FaultPlan, observed: bool) -> World {
    let sim = SimRuntime::new(plan.seed);
    let rt = sim.clone().as_runtime();
    let obs = Obs::with_registry(Registry::with_trace_capacity(obs_out::EXPORT_SPAN_CAPACITY));
    sim.install_obs(obs.clone());
    let backings: Vec<Arc<MemCloud>> = (0..CLOUDS)
        .map(|i| Arc::new(MemCloud::new(format!("b{i}"))))
        .collect();
    let mut chaos = Vec::new();
    let mut clouds = Vec::new();
    for d in 0..DEVICES {
        let members: Vec<Arc<dyn CloudStore>> = (0..CLOUDS)
            .map(|i| {
                let inner = Arc::new(SimCloud::with_backing(
                    &sim,
                    format!("c{i}"),
                    SimCloudConfig::steady(2e6, 8e6),
                    Arc::clone(&backings[i]),
                ));
                inner.install_obs(obs.clone());
                let mut builder = CloudBuilder::new(&rt, inner as Arc<dyn CloudStore>)
                    .chaos(plan, &format!("dev{d}"));
                if observed {
                    builder = builder.observed();
                }
                let built = builder.obs(&obs).build();
                chaos.push(built.chaos.expect("chaos stage configured"));
                built.store
            })
            .collect();
        clouds.push(CloudSet::new(members));
    }
    let folders = (0..DEVICES).map(|_| MemFolder::new()).collect();
    World { rt, obs, clouds, folders, chaos }
}

/// A commit one pass may have made: its device, whether the pass
/// acknowledged it, and its changes.
type Ack = (usize, bool, Vec<Change<Vec<u8>>>);

/// What [`soak`] returns: the clients, the commits and the sync errors.
type Soaked = (Vec<UniDriveClient>, Vec<Ack>, usize);

/// What one pass of device `d` committed: an `Ok` pass, the uploads and
/// deletes its report names; a failed pass, which may have committed
/// before a later step failed, every file the device wrote (`dev<d>/`).
fn commit_of(d: usize, folder: &MemFolder, pass: &Result<SyncReport, SyncError>) -> Option<Ack> {
    let upsert = |p: &String| Change::Upsert(p.clone(), folder.read(p).expect("listed file").to_vec());
    let changes: Vec<_> = match pass {
        Ok(report) => {
            let deletes = report.deleted_remotely.iter().map(|p| Change::Delete(p.clone()));
            report.uploaded.iter().map(upsert).chain(deletes).collect()
        }
        Err(_) => {
            let own = folder.scan().expect("mem scan").into_keys();
            own.filter(|p| p.starts_with(&format!("dev{d}/"))).map(|p| upsert(&p)).collect()
        }
    };
    (!changes.is_empty()).then(|| (d, pass.is_ok(), changes))
}

/// Sleeps until virtual second `secs`, if it is still ahead.
fn sleep_until(rt: &Arc<dyn Runtime>, secs: u64) {
    let (target, now) = (secs * 1_000_000_000, rt.now().as_nanos());
    if target > now {
        rt.sleep(Duration::from_nanos(target - now));
    }
}

/// The soak phase: each device syncs on its own schedule in a spawned
/// task, with its client's RNG drawn from `chaos_soak/<label><d>`;
/// devices 0 and 1 write fresh files before their first two rounds. A
/// sync error under faults is tolerated (the daemon just retries next
/// round), but every commit a pass made or may have made is recorded
/// for the durability check. Returns once the fault horizon has passed.
fn soak(world: &World, plan: &FaultPlan, mode: MetaMode, label: &str) -> Soaked {
    let mut tasks = Vec::new();
    for (d, (clouds, folder)) in world.clouds.iter().zip(&world.folders).enumerate() {
        let mut c = UniDriveClient::new(
            world.rt.clone(),
            clouds.clone(),
            Arc::clone(folder) as Arc<dyn SyncFolder>,
            paper_client(&format!("dev{d}"), 64 * 1024, &world.obs, mode),
            SimRng::derive(plan.seed, &format!("chaos_soak/{label}{d}")),
        );
        let folder = Arc::clone(folder);
        let rt = world.rt.clone();
        let seed = plan.seed;
        tasks.push(spawn(&world.rt, &format!("{label}-dev{d}"), move || {
            let (mut acks, mut errors) = (Vec::new(), 0usize);
            for (i, &t) in SYNC_TIMES[d].iter().enumerate() {
                sleep_until(&rt, t);
                if d < 2 && i < 2 {
                    let data = deterministic_bytes(seed ^ ((d as u64) << 8) ^ i as u64, 96 * 1024 + d * 4096);
                    folder.write(&format!("dev{d}/f{i}.bin"), &data, (i + 1) as u64).expect("mem write");
                }
                let pass = c.sync_once();
                errors += usize::from(pass.is_err());
                acks.extend(commit_of(d, &folder, &pass));
            }
            (c, acks, errors)
        }));
    }
    let (mut clients, mut acks, mut sync_errors) = (Vec::new(), Vec::new(), 0);
    for t in tasks {
        let (c, a, e) = t.join();
        clients.push(c);
        acks.extend(a);
        sync_errors += e;
    }
    sleep_until(&world.rt, HORIZON_SECS);
    (clients, acks, sync_errors)
}

/// A device's folder as the spec states it: every file's bytes, and
/// the conflict copies its image holds for the file, fetched from the
/// clouds (none if they cannot be, so a lost copy fails the check).
fn folder_of(client: &UniDriveClient, folder: &MemFolder) -> Folder<Vec<u8>> {
    let entry = |path: String| {
        let copies = client.conflict_copies(&path).unwrap_or_default();
        let copies = copies.into_iter().map(|(device, bytes)| (device, bytes.to_vec())).collect();
        let content = folder.read(&path).expect("scanned file").to_vec();
        (path, Entry { content, copies })
    };
    folder.scan().expect("mem scan").into_keys().map(entry).collect()
}

/// Runs one full soak round under `plan` with the given metadata
/// plane: builds a fresh [`world`], soaks it through the fault horizon,
/// converges, and checks every invariant. The lock invariant stays
/// armed in oplog mode: base compaction still takes the quorum lock,
/// so two simultaneous holders would be a real violation there too.
fn run_round(plan: &FaultPlan, mode: MetaMode, want_flight: bool) -> RoundOutcome {
    let world = world(plan, false);
    let (mut clients, mut acks, mut sync_errors) = soak(&world, plan, mode, "client");

    // Convergence phase: all fault windows have closed; poll every
    // device until one full pass where everyone reports a no-op sync
    // at one version stamp.
    let converged = (0..15).any(|_| {
        let mut all_noop = true;
        for (d, c) in clients.iter_mut().enumerate() {
            let pass = c.sync_once();
            sync_errors += usize::from(pass.is_err());
            all_noop &= pass.as_ref().is_ok_and(SyncReport::is_noop);
            acks.extend(commit_of(d, &world.folders[d], &pass));
        }
        let settled = all_noop && clients.windows(2).all(|w| w[0].image().version == w[1].image().version);
        if !settled {
            world.rt.sleep(Duration::from_secs(10));
        }
        settled
    });

    // Invariant checks. The soak's devices write disjoint paths, each
    // once, so no change is contested and any order and base give one
    // folder: the spec applies the commits as recorded, each on top of
    // all before it, the unacknowledged ones as far as device 0 shows.
    let mut failed = if converged { vec![] } else { vec!["convergence"] };
    let folders: Vec<_> = clients.iter().zip(&world.folders).map(|(c, f)| folder_of(c, f)).collect();
    let mut commits: Vec<Commit<Vec<u8>>> = Vec::new();
    let mut acked = 0;
    for (d, ok, mut changes) in acks {
        acked += if ok { changes.len() } else { 0 };
        changes.retain(|c| ok || folders[0].contains_key(c.path()));
        let base = (0..commits.len()).collect();
        commits.push(Commit { device: format!("dev{d}"), base, changes });
    }
    let plane = if mode == MetaMode::Lock { Plane::Lock } else { Plane::Oplog };
    let (want, _) = spec::run(&Folder::new(), &commits, plane);
    if folders.iter().any(|f| *f != want) {
        failed.push("durability");
    }
    let snap = world.obs.snapshot().expect("registry snapshot");
    // An evicted `lock.*` span would blind the audit below.
    assert_eq!(snap.dropped_spans, 0, "span ring too small for a soak round");
    failed.extend(lock_invariant(&snap.spans));
    let rollbacks = snap
        .spans
        .iter()
        .filter(|s| s.name == "chaos.fault" && s.attr("kind") == Some(&FieldValue::S("rollback".into())))
        .count();

    let flight = want_flight.then(|| {
        let mut snap = snap;
        snap.canonicalize();
        bundle_json(Some(&snap), None)
    });
    RoundOutcome {
        failed,
        acked,
        sync_errors,
        injected: world.chaos.iter().map(|h| h.injected_faults()).sum(),
        rollbacks,
        flight,
    }
}

/// The mutual-exclusion audit: `Some("lock")` if two devices ever held
/// the quorum lock at once. `spans` must be in ring order, which is
/// span-*end* order: a won `lock.acquire` (`ok` = true) ends the
/// instant its device holds the lock, a `lock.release` once the
/// device's lock files are withdrawn, a `lock.break` once the
/// `victim`'s stale file is deleted.
fn lock_invariant(spans: &[SpanRecord]) -> Option<&'static str> {
    fn attr<'a>(s: &'a SpanRecord, key: &str) -> &'a str {
        match s.attr(key) {
            Some(FieldValue::S(v)) => v,
            other => panic!("{} span without a string {key}: {other:?}", s.name),
        }
    }
    let mut holders: Vec<&str> = Vec::new();
    for s in spans {
        match s.name {
            "lock.acquire" if s.attr("ok") == Some(&FieldValue::B(true)) => {
                let device = attr(s, "device");
                if !holders.contains(&device) {
                    if !holders.is_empty() {
                        return Some("lock");
                    }
                    holders.push(device);
                }
            }
            "lock.release" => holders.retain(|h| *h != attr(s, "device")),
            "lock.break" => holders.retain(|h| *h != attr(s, "victim")),
            _ => {}
        }
    }
    None
}

/// Cloud targeted by the [`health_round`] outage.
const HEALTH_TARGET: &str = "c2";
/// Outage window (seconds) for the health round.
const HEALTH_OUTAGE: (u64, u64) = (60, 160);

/// What the targeted-outage health round observed.
struct HealthOutcome {
    /// The targeted cloud left `healthy` during the outage window.
    dipped: bool,
    /// ... and was back to `healthy` once the window closed.
    recovered: bool,
    /// No *untargeted* cloud ever went `down`.
    others_clean: bool,
    /// One JSON object per cloud, sorted by name: final state and the
    /// `H d X .` lane over the round's windows.
    rows: Vec<String>,
}

/// Targeted health round: a fixed outage on [`HEALTH_TARGET`] while
/// the usual soak workload runs, with every device frontend wrapped in
/// an `ObservedCloud` recording into one registry (the series are
/// labeled by provider, so a lane scores the provider, not one
/// device's view of it). This is the observability acceptance check:
/// the fault window must demonstrably move the targeted cloud's
/// derived lane out of `healthy` and the close of the window must
/// bring it back. When `bundle_path` is set, the round's obs bundle —
/// trace and windowed series — is written there: virtual-time
/// deterministic, same seed ⇒ byte-identical.
fn health_round(bundle_path: Option<&str>) -> HealthOutcome {
    let plan = FaultPlan::with_events(
        0x4ea17,
        vec![FaultEvent::always(HEALTH_TARGET, FaultKind::Outage)
            .window_secs(HEALTH_OUTAGE.0, HEALTH_OUTAGE.1)],
    );
    let world = world(&plan, true);
    let (mut clients, ..) = soak(&world, &plan, MetaMode::Lock, "health");

    // Cool-down past the horizon: a few no-op sync passes give every
    // cloud clean active windows so recovery streaks can complete.
    for _ in 0..4 {
        for c in &mut clients {
            let _ = c.sync_once();
        }
        world.rt.sleep(Duration::from_secs(15));
    }

    let series = world.obs.series_snapshot().expect("registry series");
    if let Some(path) = bundle_path {
        let spans = world.obs.snapshot().expect("registry snapshot");
        obs_out::write_bundle(path, spans, &series.to_json());
    }

    let lanes = series.health_lanes();
    let (dipped, recovered, others_clean) = health_verdict(&lanes);
    let (lo, hi) = lane_span(&lanes);
    HealthOutcome {
        dipped,
        recovered,
        others_clean,
        rows: lanes
            .iter()
            .map(|(cloud, lane)| {
                format!(
                    "{{\"cloud\": \"{cloud}\", \"state\": \"{}\", \"lane\": \"{}\"}}",
                    lane.state().as_str(),
                    lane.ascii(lo, hi)
                )
            })
            .collect(),
    }
}

/// `(dipped, recovered, others_clean)` of the round's derived lanes
/// (see [`HealthOutcome`]). `recovered` is the target's *final* state:
/// a cloud that was healthy before its outage and ends `down` has not
/// recovered.
fn health_verdict(lanes: &[(String, HealthLane)]) -> (bool, bool, bool) {
    let target = lanes
        .iter()
        .find(|(cloud, _)| cloud == HEALTH_TARGET)
        .map(|(_, lane)| lane);
    let dipped =
        target.is_some_and(|l| l.windows.iter().any(|&(_, s)| s != HealthState::Healthy));
    let recovered = target.is_some_and(|l| l.state() == HealthState::Healthy);
    let others_clean = lanes
        .iter()
        .filter(|(cloud, _)| cloud != HEALTH_TARGET)
        .all(|(_, l)| l.transitions.iter().all(|t| t.2 != HealthState::Down));
    (dipped, recovered, others_clean)
}

/// A randomized per-round schedule drawn only from fault kinds the
/// protocol is supposed to mask, ending with one rollback window on one
/// cloud over both planes' metadata (not the lock files, not the
/// blocks): it opens before the devices' second writes (65 s) and spans
/// a sync period, so the rolled-back cloud hides commits from readers.
/// `DelayedVisibility` is
/// deliberately excluded: it breaks the quorum lock's read-after-write
/// assumption (that is what the lethal round is for).
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = SimRng::derive(seed, "chaos_soak/plan");
    let mut plan = FaultPlan::new(seed);
    let events = 3 + rng.below(3);
    for _ in 0..events {
        let cloud = format!("c{}", rng.below(CLOUDS as u64));
        let start = rng.below(230);
        let end = (start + 10 + rng.below(40)).min(280);
        let kind = match rng.below(5) {
            0 => FaultKind::TransientBurst {
                probability: 0.3 + 0.4 * rng.next_f64(),
            },
            1 => FaultKind::Outage,
            2 => FaultKind::QuotaExhausted,
            3 => FaultKind::LatencySpike {
                extra_ms: 200 + rng.below(1800),
            },
            _ => FaultKind::TornUpload {
                probability: 0.5 + 0.5 * rng.next_f64(),
            },
        };
        plan.push(FaultEvent::always(cloud, kind).window_secs(start, end));
    }
    let cloud = format!("c{}", rng.below(CLOUDS as u64));
    let start = rng.below(60);
    let prefixes = vec![format!("{ROOT_DIR}/meta."), format!("{OPLOG_DIR}/")];
    let rollback = FaultEvent::always(cloud, FaultKind::Rollback { prefixes });
    plan.push(rollback.window_secs(start, (start + 60 + rng.below(40)).min(280)));
    plan
}

/// The deliberately lethal schedule: delayed visibility on three of
/// five clouds lets two devices each assemble a 3/5 lock quorum that
/// cannot see the other's lock files, while cloud 3 tears every upload
/// and cloud 4 flaps — quorum-lock loss plus torn uploads.
fn lethal_plan(seed: u64) -> FaultPlan {
    FaultPlan::with_events(
        seed,
        vec![
            FaultEvent::always("c0", FaultKind::DelayedVisibility).window_secs(0, 280),
            FaultEvent::always("c1", FaultKind::DelayedVisibility).window_secs(0, 280),
            FaultEvent::always("c2", FaultKind::DelayedVisibility).window_secs(0, 280),
            FaultEvent::always("c3", FaultKind::TornUpload { probability: 1.0 })
                .window_secs(0, 280),
            FaultEvent::always("c3", FaultKind::LatencySpike { extra_ms: 800 })
                .window_secs(0, 280),
            FaultEvent::always("c4", FaultKind::TransientBurst { probability: 0.4 })
                .window_secs(0, 280),
        ],
    )
}

/// Greedy schedule minimization: repeatedly try dropping each event and
/// replaying the round from the same seed; keep any removal that still
/// violates an invariant. Returns the minimal plan and replay count.
/// Always replays under the lock plane — the lethal schedule targets it.
fn minimize(plan: &FaultPlan) -> (FaultPlan, usize) {
    let mut best = plan.clone();
    let mut replays = 0usize;
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < best.events.len() {
            let candidate = best.without_event(i);
            replays += 1;
            if run_round(&candidate, MetaMode::Lock, false).failed.is_empty() {
                i += 1;
            } else {
                best = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            break;
        }
    }
    (best, replays)
}

fn json_str_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// `--replay PLAN.json`: one round under the plan an earlier run wrote.
fn replay(path: &str) -> ! {
    let plan = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| read_fault_plan(&text))
        .unwrap_or_else(|e| {
            eprintln!("chaos_soak: cannot replay {path}: {e}");
            std::process::exit(2);
        });
    let outcome = run_round(&plan, MetaMode::Lock, false);
    println!(
        "replay {path} (seed {}, {} events, lock plane): invariants violated: {}",
        plan.seed,
        plan.events.len(),
        json_str_list(&outcome.failed),
    );
    std::process::exit(if outcome.failed.is_empty() { 0 } else { 1 });
}

fn main() {
    if let Some(path) = arg_value("--replay") {
        replay(&path);
    }
    let quick = quick_arg();
    let out = arg_value("--out");
    let obs_path = arg_value("--obs-out");
    let rounds = if quick { 3 } else { 8 };
    println!(
        "Chaos soak: {rounds} randomized rounds x 2 meta planes + 1 lethal round, {DEVICES} devices x {CLOUDS} clouds\n"
    );

    let mut soak_json = Vec::new();
    let mut soak_ok = true;
    println!("{:>5}  {:>5}  {:>10}  {:>6}  {:>5}  {:>8}  {:>9}  {:>6}  failed", "round", "mode", "seed", "events", "acked", "injected", "rollbacks", "errors");
    for round in 0..rounds {
        let plan = random_plan(0x0ddba11 + round as u64);
        for mode in [MetaMode::Lock, MetaMode::Oplog] {
            let outcome = run_round(&plan, mode, false);
            soak_ok &= outcome.failed.is_empty();
            println!(
                "{round:>5}  {mode:>5}  {:>10}  {:>6}  {:>5}  {:>8}  {:>9}  {:>6}  {}",
                plan.seed,
                plan.events.len(),
                outcome.acked,
                outcome.injected,
                outcome.rollbacks,
                outcome.sync_errors,
                if outcome.failed.is_empty() { "-".to_owned() } else { outcome.failed.join(",") },
            );
            soak_json.push(format!(
                "{{\"seed\":{},\"mode\":\"{mode}\",\"events\":{},\"acked\":{},\"injected\":{},\"rollbacks\":{},\"sync_errors\":{},\"failed\":{}}}",
                plan.seed,
                plan.events.len(),
                outcome.acked,
                outcome.injected,
                outcome.rollbacks,
                outcome.sync_errors,
                json_str_list(&outcome.failed),
            ));
        }
    }

    // The lethal round must fail, and its minimized schedule must still
    // fail — that is the evidence the invariant checker has teeth. It
    // runs the lock plane: the schedule is built to break quorum-lock
    // read-after-write, which the oplog plane sidesteps.
    let lethal = lethal_plan(0xdead);
    let lethal_outcome = run_round(&lethal, MetaMode::Lock, true);
    println!(
        "\nlethal round (seed {}): {} events, invariants violated: {}",
        lethal.seed,
        lethal.events.len(),
        if lethal_outcome.failed.is_empty() { "NONE (expected a failure!)".to_owned() } else { lethal_outcome.failed.join(",") },
    );
    let (minimized, replays) = if lethal_outcome.failed.is_empty() {
        (lethal.clone(), 0)
    } else {
        minimize(&lethal)
    };
    let minimized_outcome = run_round(&minimized, MetaMode::Lock, false);
    println!(
        "minimized to {} events in {replays} replays; still failing: {}",
        minimized.events.len(),
        if minimized_outcome.failed.is_empty() { "NO".to_owned() } else { minimized_outcome.failed.join(",") },
    );

    // Health round: targeted outage must visibly move the derived lane.
    let health = health_round(obs_path.as_deref());
    println!(
        "\nhealth round: outage on {HEALTH_TARGET} [{}s,{}s): dipped={} recovered={} others_clean={}",
        HEALTH_OUTAGE.0, HEALTH_OUTAGE.1, health.dipped, health.recovered, health.others_clean,
    );
    let health_ok = health.dipped && health.recovered && health.others_clean;

    let pass = soak_ok
        && !lethal_outcome.failed.is_empty()
        && !minimized_outcome.failed.is_empty()
        && health_ok;
    let verdict = format!(
        "{{\n\"chaos_soak\": \"unidrive/v1\",\n\"mode\": \"{}\",\n\"soak_rounds\": [{}],\n\"soak_ok\": {},\n\"lethal\": {{\"seed\": {}, \"initial_events\": {}, \"failed\": {}, \"minimize_replays\": {}, \"minimized_failed\": {}, \"minimized_plan\": {}}},\n\"health\": {{\"target\": \"{}\", \"outage_secs\": [{}, {}], \"dipped\": {}, \"recovered\": {}, \"others_clean\": {}, \"clouds\": [{}]}},\n\"verdict\": \"{}\"\n}}\n",
        if quick { "quick" } else { "full" },
        soak_json.join(","),
        soak_ok,
        lethal.seed,
        lethal.events.len(),
        json_str_list(&lethal_outcome.failed),
        replays,
        json_str_list(&minimized_outcome.failed),
        minimized.to_json(),
        HEALTH_TARGET,
        HEALTH_OUTAGE.0,
        HEALTH_OUTAGE.1,
        health.dipped,
        health.recovered,
        health.others_clean,
        health.rows.join(","),
        if pass { "PASS" } else { "FAIL" },
    );
    println!("\nchaos_soak verdict: {}", if pass { "PASS" } else { "FAIL" });

    if let Some(path) = out {
        let stem = path.strip_suffix(".json").unwrap_or(&path);
        let minplan_path = format!("{stem}.minplan.json");
        let flight_path = format!("{stem}.flight.json");
        let mut writes = vec![
            (path.clone(), verdict.clone()),
            (minplan_path, minimized.to_json()),
        ];
        if let Some(flight) = &lethal_outcome.flight {
            writes.push((flight_path, flight.clone()));
        }
        for (p, body) in writes {
            match std::fs::write(&p, body) {
                Ok(()) => println!("written {p}"),
                Err(e) => eprintln!("failed to write {p}: {e}"),
            }
        }
    } else {
        println!("\n{verdict}");
    }
    if !pass {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_obs::health_lane;

    /// A lane fed one window per entry: `true` = ten clean attempts,
    /// `false` = ten failed ones.
    fn lane(name: &str, windows: &[bool]) -> (String, HealthLane) {
        let rows: Vec<(u64, u64, u64)> = windows
            .iter()
            .enumerate()
            .map(|(w, &ok)| (w as u64, 10, if ok { 0 } else { 10 }))
            .collect();
        (name.to_owned(), health_lane(&rows, windows.len() as u64))
    }

    /// A `lock.*` span ending at `end_ns` (the audit reads ring = end
    /// order, so the tests list spans by ascending end).
    fn lock_span(name: &'static str, end_ns: u64, attrs: &[(&'static str, &str)]) -> SpanRecord {
        SpanRecord {
            id: end_ns,
            parent: 0,
            name,
            track: 0,
            start_ns: end_ns.saturating_sub(5),
            end_ns,
            attrs: attrs
                .iter()
                .map(|(k, v)| (*k, FieldValue::S((*v).to_owned())))
                .collect(),
        }
    }

    fn acquire(end_ns: u64, device: &str, ok: bool) -> SpanRecord {
        let mut span = lock_span("lock.acquire", end_ns, &[("device", device)]);
        span.attrs.push(("ok", FieldValue::B(ok)));
        span
    }

    fn release(end_ns: u64, device: &str) -> SpanRecord {
        lock_span("lock.release", end_ns, &[("device", device)])
    }

    #[test]
    fn overlapping_holds_by_two_devices_break_the_lock_invariant() {
        // dev0 holds [10, 40); dev1 wins at 20, inside that interval.
        let spans = [
            acquire(10, "dev0", true),
            acquire(20, "dev1", true),
            release(40, "dev0"),
            release(50, "dev1"),
        ];
        assert_eq!(lock_invariant(&spans), Some("lock"));
        // The same holds back to back are fine, and a lost acquisition
        // (`ok` = false) holds nothing.
        let spans = [
            acquire(10, "dev0", true),
            acquire(20, "dev1", false),
            release(40, "dev0"),
            acquire(45, "dev1", true),
            release(50, "dev1"),
        ];
        assert_eq!(lock_invariant(&spans), None);
    }

    #[test]
    fn breaking_a_stale_lock_then_acquiring_is_not_a_violation() {
        // dev0 crashed holding the lock: it never releases. dev1 breaks
        // the stale file, then wins.
        let spans = [
            acquire(10, "dev0", true),
            lock_span("lock.break", 90, &[("device", "dev1"), ("victim", "dev0")]),
            acquire(95, "dev1", true),
            release(99, "dev1"),
        ];
        assert_eq!(lock_invariant(&spans), None);
        // Without the break the same acquisition overlaps dev0's hold.
        assert_eq!(
            lock_invariant(&[spans[0].clone(), spans[2].clone()]),
            Some("lock")
        );
    }

    #[test]
    fn the_health_verdict_case_by_case() {
        // (target windows, another cloud's windows, verdict)
        type Case<'a> = (&'a [bool], &'a [bool], (bool, bool, bool));
        let cases: [Case; 4] = [
            // Dips and climbs back: recovered.
            (&[true, false, true, true, true, true], &[true; 6], (true, true, true)),
            // Healthy before its outage but down at the end: the
            // earlier `H` windows must not count as recovery.
            (&[true, true, false, false], &[true; 4], (true, false, true)),
            // An untargeted cloud going down is not clean, and a target
            // that never left healthy has not dipped.
            (&[true; 4], &[true, false, true, true], (false, true, false)),
            // An empty outage window moves nothing.
            (&[true; 4], &[true; 4], (false, true, true)),
        ];
        for (target, other, want) in cases {
            let lanes = [lane("c0", other), lane(HEALTH_TARGET, target)];
            assert_eq!(health_verdict(&lanes), want, "{target:?} / {other:?}");
        }
        // No lane for the target at all: neither dipped nor recovered.
        assert_eq!(health_verdict(&[lane("c0", &[true])]), (false, false, true));
    }
}
