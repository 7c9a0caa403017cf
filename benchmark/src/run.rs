//! The closed-loop driver: set-up, warm-up, measured rounds with the
//! barrier between them, and the correctness oracle after every round.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unidrive_core::SyncFolder;
use unidrive_sim::{spawn, Runtime};

use crate::host::{usage, Usage};
use crate::meter::{Counts, Kind, Phase};
use crate::script::{apply, Change, Model, Script};
use crate::spec::{Clock, Workload};
use crate::world::{Device, World};

/// `sync_once` calls a commit, fetch or settle may take before it
/// counts as a failed operation.
const PASS_BUDGET: u32 = 24;

/// What one round measured. Times are seconds on the workload's clock.
#[derive(Debug, Clone, Default)]
pub struct RoundSample {
    pub recorded: bool,
    /// Per writer: local change → its commit landed.
    pub up_s: Vec<f64>,
    /// Per reader: all commits landed → its folder holds them.
    pub down_s: Vec<f64>,
    /// Local change → every device identical and every writer settled.
    pub converge_s: f64,
    pub wall_s: f64,
    pub usage: UsageDelta,
    pub commits: u32,
    pub commit_passes: u32,
    pub commit_misses: u32,
    /// Logical bytes of the files written this round.
    pub payload_bytes: u64,
    /// Cloud calls and bytes of all devices during the round.
    pub counts: Counts,
    /// Bytes the five providers hold after the round.
    pub stored_bytes: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct UsageDelta {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub ctx_switches: u64,
}

impl UsageDelta {
    fn between(a: &Usage, b: &Usage) -> UsageDelta {
        UsageDelta {
            user_s: b.user_s - a.user_s,
            sys_s: b.sys_s - a.sys_s,
            minor_faults: b.minor_faults - a.minor_faults,
            ctx_switches: b.ctx_switches - a.ctx_switches,
        }
    }
}

enum Job {
    /// Sync until every path of the device's own change is committed.
    Commit(Vec<String>),
    /// Sync until the folder holds the other devices' changes.
    Fetch(Vec<Change>),
    /// Sync until a pass is a no-op and the round's files are reliably
    /// placed (the detached reliability uploads are committed).
    Settle(Vec<String>),
}

struct Outcome {
    ok: bool,
    /// Clock reading when the job's condition first held.
    done_ns: u64,
    passes: u32,
    /// Passes that failed or did not finish the job.
    misses: u32,
}

/// How long a device waits after a pass that did not finish its job:
/// wall-clock devices re-poll quickly, simulated ones like the daemon.
fn pause(clock: Clock, attempt: u32) -> Duration {
    match clock {
        Clock::Wall => Duration::from_millis(20),
        Clock::Virtual => Duration::from_secs(1 + u64::from(attempt % 3)),
    }
}

/// Polling interval while detached uploads drain.
fn drain_poll(clock: Clock) -> Duration {
    match clock {
        Clock::Wall => Duration::from_millis(2),
        Clock::Virtual => Duration::from_millis(500),
    }
}

fn sync_pass(dev: &mut Device) -> Result<unidrive_core::SyncReport, unidrive_core::SyncError> {
    let pass = dev.meter.begin_pass();
    let result = dev.client.sync_once();
    dev.meter.end_pass(pass);
    result
}

fn holds(dev: &Device, expect: &[Change]) -> bool {
    expect.iter().all(|change| match change {
        Change::Put { path, data } => dev.folder.read(path).is_ok_and(|have| have == *data),
        Change::Delete { path } => dev.folder.read(path).is_err(),
    })
}

/// Whether every segment of `paths` has its fair share of blocks on
/// every cloud in the device's committed image.
fn reliably_placed(dev: &Device, paths: &[String]) -> bool {
    let image = dev.client.image();
    let redundancy = &dev.client.data_plane().config().redundancy;
    paths.iter().all(|path| {
        image.file(path).is_none_or(|entry| {
            entry.snapshot.segments.iter().all(|id| {
                image.segment(id).is_some_and(|seg| {
                    (0..redundancy.clouds())
                        .all(|c| seg.blocks_on(c as u16) >= redundancy.fair_share())
                })
            })
        })
    })
}

fn run_job(dev: &mut Device, rt: &Arc<dyn Runtime>, clock: Clock, job: &Job) -> Outcome {
    let now = || rt.now().as_nanos();
    let mut out = Outcome {
        ok: false,
        done_ns: now(),
        passes: 0,
        misses: 0,
    };
    match job {
        Job::Commit(paths) => {
            let mut pending: HashSet<&str> = paths.iter().map(String::as_str).collect();
            for attempt in 0..PASS_BUDGET {
                out.passes += 1;
                if let Ok(report) = sync_pass(dev) {
                    for path in report.uploaded.iter().chain(&report.deleted_remotely) {
                        pending.remove(path.as_str());
                    }
                }
                out.done_ns = now();
                if pending.is_empty() {
                    out.ok = true;
                    break;
                }
                out.misses += 1;
                rt.sleep(pause(clock, attempt));
            }
        }
        Job::Fetch(expect) => {
            for attempt in 0..=PASS_BUDGET {
                // Checked before the first pass too: a writer's own
                // commit may already have merged the others' changes in.
                if holds(dev, expect) {
                    out.ok = true;
                    break;
                }
                if attempt == PASS_BUDGET {
                    break;
                }
                if attempt > 0 {
                    out.misses += 1;
                    rt.sleep(pause(clock, attempt));
                }
                out.passes += 1;
                let _ = sync_pass(dev);
                out.done_ns = now();
            }
        }
        Job::Settle(paths) => {
            let poll = drain_poll(clock);
            for attempt in 0..PASS_BUDGET {
                while dev.meter.inflight() > 0 {
                    rt.sleep(poll);
                }
                out.passes += 1;
                let result = sync_pass(dev);
                out.done_ns = now();
                match result {
                    Ok(report) if report.is_noop() => {
                        if reliably_placed(dev, paths) && dev.meter.inflight() == 0 {
                            out.ok = true;
                            break;
                        }
                        // Not every block landed where planned. If nothing
                        // moves for a while either, no upload is left that
                        // could still report: settled as far as it goes.
                        let before = dev.meter.counts().total_ops();
                        rt.sleep(poll * 4);
                        if dev.meter.inflight() == 0 && dev.meter.counts().total_ops() == before {
                            out.ok = true;
                            out.done_ns = now();
                            break;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        out.misses += 1;
                        rt.sleep(pause(clock, attempt));
                    }
                }
            }
        }
    }
    out
}

/// A world with its script and oracle, ready to run rounds.
pub struct Stage {
    pub workload: Workload,
    pub world: World,
    script: Script,
    pub model: Model,
    pub attempted: u64,
    pub failed: u64,
    /// Rounds run so far, warm-up included; the trace's round id.
    round: u32,
}

impl Stage {
    /// Builds the world, commits the seeded corpus from device 0, brings
    /// every other device up to date and runs `warmup_rounds` rounds.
    pub fn set_up(workload: Workload, seed: u64, warmup_rounds: usize) -> Stage {
        let mut script = Script::new(workload, seed);
        let world = World::build(workload, script.devices(), seed);
        let corpus = script.corpus();
        let mut stage = Stage {
            workload,
            world,
            script,
            model: Model::new(),
            attempted: 0,
            failed: 0,
            round: 0,
        };
        stage.run_round_with(&[(0, corpus)], false);
        for _ in 0..warmup_rounds {
            stage.run_round(false);
        }
        stage
    }

    pub fn clock(&self) -> Clock {
        self.workload.clock()
    }

    pub fn counts(&self) -> Counts {
        (0..self.world.devices.len())
            .map(|i| self.world.device(i).meter.counts())
            .fold(Counts::default(), |acc, c| acc.plus(&c))
    }

    /// Runs `jobs` to completion, each on its device: inline when there
    /// is one, otherwise one runtime thread per device (actors under the
    /// simulator) joined before returning.
    fn phase(&mut self, phase: Phase, jobs: Vec<(usize, Job)>) -> Vec<(usize, Outcome)> {
        let clock = self.clock();
        let rt = Arc::clone(&self.world.rt);
        let run = move |mut dev: Device, job: Job, rt: &Arc<dyn Runtime>| {
            let start_ns = dev.meter.tracer().now_ns();
            dev.meter.set_phase(Some(phase));
            let outcome = run_job(&mut dev, rt, clock, &job);
            dev.meter.record(Kind::Phase, 0, start_ns);
            dev.meter.set_phase(None);
            (dev, outcome)
        };
        let take =
            |world: &mut World, i: usize| world.devices[i].take().expect("device in use twice");
        let mut done = Vec::new();
        if jobs.len() == 1 {
            let (index, job) = jobs.into_iter().next().expect("one job");
            let (dev, outcome) = run(take(&mut self.world, index), job, &rt);
            self.world.devices[index] = Some(dev);
            done.push((index, outcome));
        } else {
            let tasks: Vec<_> = jobs
                .into_iter()
                .map(|(index, job)| {
                    let dev = take(&mut self.world, index);
                    let rt2 = Arc::clone(&rt);
                    (
                        index,
                        spawn(&rt, &format!("device-{index}"), move || run(dev, job, &rt2)),
                    )
                })
                .collect();
            for (index, task) in tasks {
                let (dev, outcome) = task.join();
                self.world.devices[index] = Some(dev);
                done.push((index, outcome));
            }
        }
        for (_, outcome) in &done {
            self.attempted += 1;
            self.failed += u64::from(!outcome.ok);
        }
        done
    }

    /// The devices that will write in the next round.
    pub fn next_writers(&self) -> Vec<usize> {
        self.script.writers()
    }

    /// Runs the script's next round; also returns what each writer
    /// changed in it.
    pub fn run_round(&mut self, record: bool) -> (RoundSample, Vec<(usize, Vec<Change>)>) {
        let plan = self.script.next_round(&self.model);
        let sample = self.run_round_with(&plan, record);
        if let Some(cleanup) = self.script.cleanup() {
            self.run_round_with(&[cleanup], false);
        }
        (sample, plan)
    }

    fn run_round_with(&mut self, plan: &[(usize, Vec<Change>)], record: bool) -> RoundSample {
        self.round += 1;
        let tracer = Arc::clone(&self.world.tracer);
        tracer.set_round(self.round, record);
        let mut sample = RoundSample {
            recorded: record,
            ..RoundSample::default()
        };

        // Every writer's local change happens at the same instant.
        for (writer, changes) in plan {
            let folder = &self.world.device(*writer).folder;
            for change in changes {
                match change {
                    Change::Put { path, data } => {
                        sample.payload_bytes += data.len() as u64;
                        folder
                            .write(path, data, self.script.next_mtime())
                            .expect("mem write");
                    }
                    Change::Delete { path } => folder.remove(path).expect("mem remove"),
                }
            }
            apply(&mut self.model, changes);
        }
        let counts0 = self.counts();
        let usage0 = usage();
        let wall0 = Instant::now();
        let t0 = tracer.now_ns();
        let secs_since = |t: u64, from: u64| t.saturating_sub(from) as f64 / 1e9;

        let paths_of = |changes: &[Change]| {
            changes
                .iter()
                .map(|c| c.path().to_owned())
                .collect::<Vec<_>>()
        };
        let commits = plan
            .iter()
            .map(|(w, changes)| (*w, Job::Commit(paths_of(changes))))
            .collect();
        let ups = self.phase(Phase::Up, commits);
        let landed_ns = ups.iter().map(|(_, o)| o.done_ns).max().unwrap_or(t0);
        for (_, outcome) in &ups {
            sample.up_s.push(secs_since(outcome.done_ns, t0));
            sample.commits += 1;
            sample.commit_passes += outcome.passes;
            sample.commit_misses += outcome.misses;
        }

        // Every device fetches what the others changed.
        let fetches: Vec<(usize, Job)> = (0..self.world.devices.len())
            .filter_map(|reader| {
                let expect: Vec<Change> = plan
                    .iter()
                    .filter(|(writer, _)| *writer != reader)
                    .flat_map(|(_, changes)| changes.iter().cloned())
                    .collect();
                (!expect.is_empty()).then_some((reader, Job::Fetch(expect)))
            })
            .collect();
        for (_, outcome) in self.phase(Phase::Down, fetches) {
            sample.down_s.push(secs_since(outcome.done_ns, landed_ns));
        }

        let settles = plan
            .iter()
            .map(|(w, changes)| {
                let puts = changes.iter().filter(|c| matches!(c, Change::Put { .. }));
                (*w, Job::Settle(puts.map(|c| c.path().to_owned()).collect()))
            })
            .collect();
        self.phase(Phase::Settle, settles);

        sample.converge_s = secs_since(tracer.now_ns(), t0);
        sample.wall_s = wall0.elapsed().as_secs_f64();
        sample.usage = UsageDelta::between(&usage0, &usage());
        sample.counts = self.counts().minus(&counts0);
        sample.stored_bytes = self.world.stored_bytes();
        self.world.device(0).meter.record(Kind::Round, 0, t0);
        tracer.set_round(self.round, false);

        self.attempted += 1;
        if !self.devices_match_model() {
            self.failed += 1;
        }
        sample
    }

    /// The oracle: every device's folder equals the model byte for byte.
    pub fn devices_match_model(&self) -> bool {
        (0..self.world.devices.len())
            .all(|i| folder_matches(&*self.world.device(i).folder, &self.model))
    }
}

pub fn folder_matches(folder: &dyn SyncFolder, model: &Model) -> bool {
    let Ok(scan) = folder.scan() else {
        return false;
    };
    scan.len() == model.len()
        && model.iter().all(|(path, want)| {
            scan.contains_key(path) && folder.read(path).is_ok_and(|have| have == *want)
        })
}

/// Syncs `dev` until its folder equals `model` (a restore), within the
/// pass budget.
pub fn restore(dev: &mut Device, rt: &Arc<dyn Runtime>, clock: Clock, model: &Model) -> bool {
    for attempt in 0..PASS_BUDGET {
        let _ = sync_pass(dev);
        if folder_matches(&*dev.folder, model) {
            return true;
        }
        rt.sleep(pause(clock, attempt));
    }
    false
}
