//! One workload, one process: repeated set-ups, the measured rounds,
//! the end-of-run checks, and the metrics computed from them.

use std::path::PathBuf;
use std::time::Instant;

use unidrive_workload::{Provider, EC2_SITES};

use crate::host::usage;
use crate::layers::{http_costs, replay, HttpCosts, Replay};
use crate::ledger;
use crate::meter::Counts;
use crate::run::{restore, RoundSample, Stage};
use crate::spec::{Clock, Workload, END_TO_END, PER_LAYER, SETUP_REPEATS, WARMUP_ROUNDS};
use crate::stats::{median, share};
use crate::trace::chrome_json;
use crate::world::{cloud_set, sim_frontends, wan_cloud_config};

/// Traced rounds whose inputs are also replayed through the layers'
/// public functions (the replay costs about as much CPU as the round).
const REPLAY_ROUNDS: usize = 6;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json`.
    pub trace_dir: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    /// `(name, unit, value)` of every end-to-end metric.
    pub end_to_end: Vec<(&'static str, &'static str, f64)>,
    /// The same for the per-layer ledger; empty for an untraced run.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
}

/// The any-K_r promise: a fresh device that reaches only three of the
/// five providers restores the whole folder. (`CloudSet::try_with_removed`
/// renumbers the members the block metadata refers to, so the two lost
/// providers are modelled as outages of the new device's frontends.)
fn restore_from_three_clouds(stage: &Stage) -> bool {
    let world = &stage.world;
    let sim = world
        .sim
        .as_ref()
        .expect("the restore check runs under the simulator");
    let frontends = sim_frontends(sim, &world.backings, |i| {
        wan_cloud_config(EC2_SITES[1], Provider::ALL[i])
    });
    // Lose the two providers that are fastest from this site.
    frontends[0].set_available(false);
    frontends[2].set_available(false);
    let mut fresh = world.join_device(world.devices.len(), cloud_set(&frontends));
    restore(&mut fresh, &world.rt, stage.clock(), &stage.model)
}

pub fn measure(opts: &Options, process_start: Instant) -> Outcome {
    let workload = opts.workload;
    // Set up several times and report the median; the last world is the
    // one measured. The previous world is torn down outside the timing.
    let (repeats, warmup) = if opts.quick {
        (1, 1)
    } else {
        (SETUP_REPEATS, WARMUP_ROUNDS)
    };
    let mut setups = Vec::new();
    let mut stage = None;
    for rep in 0..repeats {
        drop(stage.take());
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        stage = Some(Stage::set_up(workload, opts.seed, warmup));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");

    let rounds = workload.rounds(opts.seconds, opts.quick);
    let http0 = stage.world.http_requests();
    let clock0 = stage.world.tracer.now_ns();
    let wall0 = Instant::now();
    let mut samples: Vec<RoundSample> = Vec::with_capacity(rounds);
    let mut replays: Vec<Replay> = Vec::new();
    for r in 0..rounds {
        // Traced runs record every other pair of rounds, so each writer
        // is seen both ways and the pairs give the tracing overhead.
        let record = opts.trace && (r / 2) % 2 == 1;
        let replaying = record && replays.len() < REPLAY_ROUNDS;
        let writer = stage.next_writers()[0];
        let before = replaying.then(|| stage.world.device(writer).client.image().clone());
        let (sample, plan) = stage.run_round(record);
        samples.push(sample);
        if let Some(before) = before {
            let changes = &plan
                .iter()
                .find(|(w, _)| *w == writer)
                .expect("writer has a plan")
                .1;
            let dev = stage.world.device(writer);
            replays.push(replay(
                dev,
                changes,
                &before,
                &stage.world.config.passphrase,
            ));
        }
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let clock_s = (stage.world.tracer.now_ns() - clock0) as f64 / 1e9;
    // Cloud calls inside the rounds' timed windows only (not the oracle's
    // reads, nor the unmeasured clean-up rounds).
    let counts = samples
        .iter()
        .fold(Counts::default(), |acc, s| acc.plus(&s.counts));
    let http_requests = stage.world.http_requests() - http0;
    let stored = stage.world.stored_bytes();
    let live: u64 = stage.model.values().map(|d| d.len() as u64).sum();

    if workload == Workload::WanBatch {
        stage.attempted += 1;
        if !restore_from_three_clouds(&stage) {
            stage.failed += 1;
        }
    }

    let all = |f: fn(&RoundSample) -> &[f64]| {
        samples
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect::<Vec<_>>()
    };
    let converge: Vec<f64> = samples.iter().map(|s| s.converge_s).collect();
    let per_round = |f: fn(&RoundSample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let payload: u64 = samples.iter().map(|s| s.payload_bytes).sum();
    let value_of = |name: &str| match name {
        "setup_s" => median(&setups),
        "sync_up_s" => median(&all(|s| &s.up_s)),
        "sync_down_s" => median(&all(|s| &s.down_s)),
        "converge_s" => median(&converge),
        // Counts are totals over the rounds: a round's count depends on
        // which device wrote, and a median would flip between the two.
        "cloud_ops_per_round" => counts.total_ops() as f64 / samples.len() as f64,
        "wire_bytes_per_payload_byte" => share(counts.wire_bytes() as f64, payload as f64),
        "stored_bytes_per_live_byte" => share(stored as f64, live as f64),
        "cpu_ms_per_round" => median(&per_round(|s| (s.usage.user_s + s.usage.sys_s) * 1e3)),
        "peak_rss_mib" => usage().max_rss_kib as f64 / 1024.0,
        other => unreachable!("no definition for end-to-end metric {other}"),
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value_of(m.name)))
        .collect();

    let mut per_layer = Vec::new();
    if opts.trace {
        let spans = stage.world.tracer.take_spans();
        let http = match workload.clock() {
            Clock::Wall => http_costs(&stage.world.rt),
            Clock::Virtual => HttpCosts::default(),
        };
        let rows = ledger::rows(&ledger::Inputs {
            samples: &samples,
            spans: &spans,
            counts,
            replays: &replays,
            http,
            http_requests,
            wall_s,
            clock_s,
            sim_traffic: stage.world.sim.is_some().then(|| stage.world.sim_traffic()),
        });
        per_layer = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    *rows
                        .get(m.name)
                        .unwrap_or_else(|| panic!("ledger lacks {}", m.name)),
                )
            })
            .collect();
        if let Some(dir) = &opts.trace_dir {
            std::fs::create_dir_all(dir).expect("create the trace directory");
            let path = dir.join(format!("{}.trace.json", workload.name()));
            std::fs::write(&path, chrome_json(workload.name(), &spans))
                .expect("write the Chrome trace");
            println!("trace written to {}", path.display());
        }
    }

    Outcome {
        correct: stage.failed == 0,
        attempted: stage.attempted,
        failed: stage.failed,
        rounds,
        end_to_end,
        per_layer,
    }
}
