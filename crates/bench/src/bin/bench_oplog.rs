//! **Oplog bench** — N-writer commit scaling on one hot shared folder,
//! lock plane vs oplog plane, through the *real* `UniDriveClient` sync
//! protocol (not the analytic fleet model).
//!
//! Each cell of the matrix builds a fresh 5-cloud world (shared
//! [`MemCloud`] backings, one [`SimCloud`] network frontend per
//! device), spawns N writer clients against the same folder namespace,
//! and has every writer commit `rounds` fresh files back-to-back. The
//! measured quantity is aggregate commit throughput in *virtual* time:
//! `N × rounds / (virtual seconds until the last writer finishes)`.
//!
//! Shape target (the tentpole claim): in **lock** mode every commit
//! serializes behind the folder's quorum lock, so adding writers adds
//! contention rounds and randomized backoff — aggregate throughput
//! flattens, then collapses as deferred commits pile up. In **oplog**
//! mode a commit is an uncoordinated append of the writer's own op
//! file, so aggregate throughput scales with N; only the occasional
//! λ-triggered base compaction takes the lock, and contended
//! compactions are skipped, never serialized.
//!
//! Everything runs in virtual time from fixed seeds: same-seed runs
//! emit byte-identical `BENCH_oplog.json` (CI runs quick mode twice
//! and byte-compares, like fig11 and bench_fleet).
//!
//! Each cell runs against its own virtual-time-clocked obs registry,
//! so the metadata plane's own counters land in the report: per-cell
//! `lock_starved` (starvation audits under contention — lock plane),
//! `compact_forced` and `compact_overdue` (λ-compaction escalation —
//! oplog plane). `--obs-out` exports the obs bundle (trace, snapshot,
//! windowed series) of the hottest cell (top writer count, last plane).
//!
//! Usage: `bench_oplog [quick] [--meta-mode {lock,oplog}]
//! [--out BENCH_oplog.json] [--obs-out OBS.json]`.
//! Without `--meta-mode` both planes run (that is the point); with it,
//! only the selected plane's rows are produced.

use std::sync::Arc;
use std::time::{Duration, Instant};

use unidrive_bench::{arg_value, meta_mode_arg, obs_out, paper_client, quick_arg};
use unidrive_cloud::{CloudSet, CloudStore, MemCloud, SimCloud, SimCloudConfig};
use unidrive_core::{MemFolder, SyncFolder, UniDriveClient};
use unidrive_meta::MetaMode;
use unidrive_obs::{Obs, Registry, Snapshot, DEFAULT_SERIES_WINDOW_NS};
use unidrive_sim::{spawn, Runtime, SimRng, SimRuntime};
use unidrive_workload::TextTable;

const CLOUDS: usize = 5;
const WRITER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One matrix cell's measurements, all derived from virtual time.
struct Cell {
    mode: MetaMode,
    writers: usize,
    rounds: usize,
    commits: usize,
    retries: usize,
    failures: usize,
    virtual_secs: f64,
    commits_per_min: f64,
    /// Lock rounds where a starvation audit fired (lock plane earns
    /// these under contention; the oplog plane should stay near zero).
    lock_starved: u64,
    /// λ-compactions escalated to forced retries (oplog plane only).
    compact_forced: u64,
    /// Forced compactions that *still* failed — backlog left overdue.
    compact_overdue: u64,
    /// This cell's registry snapshot and windowed series document,
    /// when its export was requested.
    export: Option<(Snapshot, String)>,
}

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SimRng::derive(seed, "bench_oplog/payload");
    (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
}

/// Runs one cell: `writers` clients hammering commits of fresh files
/// into the same shared folder, `rounds` commits each, no think time —
/// the pure hot-folder contention case.
fn run_cell(mode: MetaMode, writers: usize, rounds: usize, seed: u64, want_export: bool) -> Cell {
    let sim = SimRuntime::new(seed);
    let rt = sim.clone().as_runtime();
    // Per-cell registry: the lock/oplog planes feed their counters and
    // windowed series here (virtual-time clocked via install_obs).
    let registry = Registry::with_trace_capacity(obs_out::EXPORT_SPAN_CAPACITY);
    registry.enable_series(DEFAULT_SERIES_WINDOW_NS);
    let obs = Obs::with_registry(Arc::clone(&registry));
    sim.install_obs(obs.clone());

    // Shared provider backings; per-writer network frontends so one
    // writer's transfers never queue behind another's (contention in
    // this bench must come from the metadata plane, nothing else).
    let backings: Vec<Arc<MemCloud>> = (0..CLOUDS)
        .map(|i| Arc::new(MemCloud::new(format!("b{i}"))))
        .collect();
    let device_set = |_d: usize| {
        let members: Vec<Arc<dyn CloudStore>> = (0..CLOUDS)
            .map(|i| {
                Arc::new(SimCloud::with_backing(
                    &sim,
                    format!("c{i}"),
                    SimCloudConfig::steady(2e6, 8e6),
                    Arc::clone(&backings[i]),
                )) as Arc<dyn CloudStore>
            })
            .collect();
        CloudSet::new(members)
    };

    let t0 = sim.now();
    let mut tasks = Vec::new();
    for d in 0..writers {
        let set = device_set(d);
        let rt2 = rt.clone();
        let folder = MemFolder::new();
        let mut client = UniDriveClient::new(
            rt.clone(),
            set,
            Arc::clone(&folder) as Arc<dyn SyncFolder>,
            paper_client(&format!("w{d}"), 64 * 1024, &obs, mode),
            SimRng::derive(seed, &format!("bench_oplog/client{d}")),
        );
        tasks.push(spawn(&rt, &format!("writer-{d}"), move || {
            let mut commits = 0usize;
            let mut retries = 0usize;
            let mut failures = 0usize;
            for r in 0..rounds {
                let path = format!("w{d}/f{r}.bin");
                let data = payload(seed ^ ((d as u64) << 16) ^ r as u64, 8 * 1024);
                folder.write(&path, &data, (r + 1) as u64).expect("mem write");
                // Commit, retrying on contention like the sync daemon
                // would; a commit that cannot land within the budget is
                // a failure (lock mode earns these under load).
                let mut landed = false;
                for attempt in 0..24 {
                    match client.sync_once() {
                        Ok(report) if report.uploaded.iter().any(|p| p == &path) => {
                            landed = true;
                            break;
                        }
                        Ok(_) => {}
                        Err(_) => retries += 1,
                    }
                    rt2.sleep(Duration::from_secs(1 + attempt % 3));
                }
                if landed {
                    commits += 1;
                } else {
                    failures += 1;
                }
            }
            (commits, retries, failures)
        }));
    }

    let mut commits = 0usize;
    let mut retries = 0usize;
    let mut failures = 0usize;
    for t in tasks {
        let (c, r, f) = t.join();
        commits += c;
        retries += r;
        failures += f;
    }
    let virtual_secs = (sim.now() - t0).as_secs_f64();
    let snap = obs.snapshot().expect("registry snapshot");
    Cell {
        mode,
        writers,
        rounds,
        commits,
        retries,
        failures,
        virtual_secs,
        commits_per_min: commits as f64 * 60.0 / virtual_secs.max(1e-9),
        lock_starved: snap.counter("lock.starved"),
        compact_forced: snap.counter("meta.oplog.compact_forced"),
        compact_overdue: snap.counter("meta.oplog.compact_overdue"),
        export: want_export.then(|| (snap, registry.series_snapshot().to_json())),
    }
}

/// Locale-free fixed-precision float: deterministic across hosts.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0.000".to_owned()
    }
}

fn main() {
    let quick = quick_arg();
    let out = arg_value("--out");
    let only_mode = meta_mode_arg();
    let obs_path = arg_value("--obs-out");
    let rounds = if quick { 4 } else { 8 };
    let modes: Vec<MetaMode> = match only_mode {
        Some(m) => vec![m],
        None => vec![MetaMode::Lock, MetaMode::Oplog],
    };

    println!(
        "Oplog bench ({}): N writers x {rounds} commits each on one hot shared folder, {CLOUDS} clouds\n",
        if quick { "quick" } else { "full" }
    );

    let wall = Instant::now();
    let top = *WRITER_COUNTS.last().expect("non-empty");
    let mut cells: Vec<Cell> = Vec::new();
    for &mode in &modes {
        for &writers in &WRITER_COUNTS {
            // Same seed for every cell: both planes face the identical
            // world; only the metadata plane differs. The obs export
            // (when asked for) comes from the hottest cell of the last
            // plane — the most contended world in the matrix.
            let want_export = obs_path.is_some() && writers == top && Some(&mode) == modes.last();
            cells.push(run_cell(mode, writers, rounds, 0x9106, want_export));
        }
    }
    let elapsed = wall.elapsed();

    let mut table = TextTable::new(&[
        "mode",
        "writers",
        "commits",
        "retries",
        "failed",
        "starved",
        "forced",
        "virtual_s",
        "commits/min",
        "scaling",
    ]);
    for c in &cells {
        let base = cells
            .iter()
            .find(|b| b.mode == c.mode && b.writers == 1)
            .map(|b| b.commits_per_min)
            .unwrap_or(c.commits_per_min);
        table.row(vec![
            c.mode.to_string(),
            c.writers.to_string(),
            c.commits.to_string(),
            c.retries.to_string(),
            c.failures.to_string(),
            c.lock_starved.to_string(),
            c.compact_forced.to_string(),
            format!("{:.1}", c.virtual_secs),
            format!("{:.1}", c.commits_per_min),
            format!("{:.2}x", c.commits_per_min / base.max(1e-9)),
        ]);
    }
    println!("{}", table.render());
    println!("wall-clock {:.2}s (virtual time only in the report)", elapsed.as_secs_f64());

    // Headline: throughput ratio oplog/lock at the highest writer count.
    let at = |mode: MetaMode, writers: usize| {
        cells
            .iter()
            .find(|c| c.mode == mode && c.writers == writers)
            .map(|c| c.commits_per_min)
    };
    let top = *WRITER_COUNTS.last().expect("non-empty");
    if let (Some(lock), Some(oplog)) = (at(MetaMode::Lock, top), at(MetaMode::Oplog, top)) {
        println!(
            "\nat {top} writers: oplog {:.1} commits/min vs lock {:.1} — {:.2}x",
            oplog,
            lock,
            oplog / lock.max(1e-9)
        );
    }

    if let (Some(path), Some((snap, series))) =
        (&obs_path, cells.iter_mut().find_map(|c| c.export.take()))
    {
        obs_out::write_bundle(path, snap, &series);
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"commits\": {}, \"commits_per_min\": {}, \"compact_forced\": {}, \"compact_overdue\": {}, \"failed\": {}, \"lock_starved\": {}, \"mode\": \"{}\", \"retries\": {}, \"rounds\": {}, \"virtual_secs\": {}, \"writers\": {}}}",
                c.commits,
                fmt_f64(c.commits_per_min),
                c.compact_forced,
                c.compact_overdue,
                c.failures,
                c.lock_starved,
                c.mode,
                c.retries,
                c.rounds,
                fmt_f64(c.virtual_secs),
                c.writers
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench_oplog\": \"unidrive/v1\",\n  \"config\": {{\"clouds\": {CLOUDS}, \"mode_filter\": \"{}\", \"rounds\": {rounds}, \"scale\": \"{}\", \"writer_counts\": [{}]}},\n  \"rows\": [\n{}\n  ]\n}}\n",
        only_mode.map(|m| m.to_string()).unwrap_or_else(|| "both".to_owned()),
        if quick { "quick" } else { "full" },
        WRITER_COUNTS
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        rows.join(",\n"),
    );
    match &out {
        Some(path) => match std::fs::write(path, &json) {
            Ok(()) => println!("\noplog report written to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        },
        None => println!("\n{json}"),
    }
}
