//! `syncbench`: the repository's sync-round benchmark. See README.md.
//!
//! `--workload W` runs one workload in this process and ends with the
//! one-line JSON result the benchmark driver reads. Without it the
//! whole suite runs, every workload in a child process of its own so
//! that CPU and peak memory are per workload.

mod host;
mod layers;
mod ledger;
mod measure;
mod meter;
mod report;
mod run;
mod script;
mod spec;
mod stats;
mod trace;
mod world;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use measure::{measure, Options};
use report::{suite_json, validate, Manifest, WorkloadResult, STAMP_PREFIX};
use spec::{Workload, NOMINAL_SECONDS};
use stats::{median, quartile_spread};

const USAGE: &str =
    "usage: syncbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR] [--quick]
                 [--out FILE] [--aa N [--vary-seed]] [--validate FILE] [--manifest BENCHMARK.json]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    /// `None` = untraced; `Some(None)` = traced; `Some(Some(dir))` =
    /// traced, and Chrome traces written to `dir`.
    trace: Option<Option<PathBuf>>,
    quick: bool,
    out: Option<PathBuf>,
    aa: Option<usize>,
    vary_seed: bool,
    validate: Option<PathBuf>,
    manifest: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: None,
        quick: false,
        out: None,
        aa: None,
        vary_seed: false,
        validate: None,
        manifest: Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    dir => Some(Some(PathBuf::from(dir))),
                }
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--aa" => cli.aa = Some(number(value()?)?.max(2) as usize),
            "--vary-seed" => cli.vary_seed = true,
            "--validate" => cli.validate = Some(PathBuf::from(value()?)),
            "--manifest" => cli.manifest = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn run_one(cli: &Cli, workload: Workload, started: Instant) -> ExitCode {
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
        trace: cli.trace.is_some(),
        trace_dir: cli.trace.clone().flatten(),
    };
    let outcome = measure(&opts, started);
    println!(
        "workload {} seed {} rounds {}",
        workload.name(),
        cli.seed,
        outcome.rounds
    );
    for (name, unit, value) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!(
        "  ops_attempted {} ops_failed {}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{STAMP_PREFIX}{{\"host\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"rounds\": {}}}",
        host::stamp_json(),
        cli.seed,
        cli.seconds,
        cli.quick,
        outcome.rounds
    );
    println!("{}", report::result_line(&outcome, opts.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "syncbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process and parses its result.
fn run_child(cli: &Cli, workload: Workload, seed: u64) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()]);
    cmd.args([
        "--seed",
        &seed.to_string(),
        "--seconds",
        &cli.seconds.to_string(),
    ]);
    match &cli.trace {
        None => cmd.args(["--trace", "0"]),
        Some(None) => cmd.args(["--trace", "1"]),
        Some(Some(dir)) => cmd.arg("--trace").arg(dir),
    };
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = WorkloadResult::parse(&stdout).map_err(|e| {
        format!(
            "{}: {e}\n{}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() {
        return Err(format!(
            "{}: exited with {}",
            workload.name(),
            output.status
        ));
    }
    Ok(result)
}

fn write_out(cli: &Cli, text: &str) -> Result<(), String> {
    match &cli.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display())),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn suite(cli: &Cli) -> Result<(), String> {
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let t = Instant::now();
        let result = run_child(cli, workload, cli.seed)?;
        println!(
            "{} ({:.1} s): {} ops, {} failed",
            workload.name(),
            t.elapsed().as_secs_f64(),
            result.attempted,
            result.failed
        );
        for (name, (value, unit)) in &result.metrics {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        results.push((workload.name().to_owned(), result));
    }
    let report = suite_json(&results);
    validate(&report, &Manifest::load(&cli.manifest)?)?;
    write_out(cli, &report)
}

/// The suite `n` times; per workload and end-to-end metric the largest
/// relative deviation from the median and the interquartile range as a
/// share of the median, each held against the manifest's bound.
fn aa(cli: &Cli, n: usize) -> Result<(), String> {
    let manifest = Manifest::load(&cli.manifest)?;
    let mut lines = Vec::new();
    let mut worst = 0.0f64;
    for workload in Workload::ALL {
        let mut runs: Vec<WorkloadResult> = Vec::new();
        for i in 0..n {
            let seed = if cli.vary_seed {
                cli.seed + i as u64
            } else {
                cli.seed
            };
            runs.push(run_child(cli, workload, seed)?);
        }
        println!("{}: {n} runs", workload.name());
        for (name, unit, bound) in &manifest.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.metrics.get(name).map_or(f64::NAN, |(v, _)| *v))
                .collect();
            let mid = median(&values);
            let max_dev = values
                .iter()
                .map(|v| (v - mid).abs() / mid)
                .fold(0.0, f64::max);
            let iqr = quartile_spread(&values) / mid;
            // Ten seeds are held to the driver's rule (interquartile range
            // within the bound), one seed to the stricter one (no run
            // further from the median than the bound). `setup_s` is gated
            // on its median only (see README).
            let gated = match (name.as_str(), cli.vary_seed) {
                ("setup_s", _) => 0.0,
                (_, true) => iqr,
                (_, false) => max_dev,
            };
            worst = worst.max(gated / bound);
            let verdict = if gated > *bound { "EXCEEDS" } else { "ok" };
            println!(
                "  {name:<30} median {mid:>14.6} {unit:<6} max dev {:>6.2} %  iqr {:>6.2} %  bound {:>5.1} %  {verdict}",
                max_dev * 100.0,
                iqr * 100.0,
                bound * 100.0
            );
            let listed: Vec<String> = values.iter().map(f64::to_string).collect();
            lines.push(format!(
                "  {{\"workload\": \"{}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \"median\": {mid}, \
                 \"max_dev\": {max_dev}, \"iqr_share\": {iqr}, \"bound\": {bound}, \"values\": [{}]}}",
                workload.name(),
                listed.join(", ")
            ));
        }
    }
    let report = format!(
        "{{\"syncbench_aa\": \"v1\", \"runs\": {n}, \"vary_seed\": {}, \"seed\": {}, \"host\": {}, \"rows\": [\n{}\n]}}\n",
        cli.vary_seed,
        cli.seed,
        host::stamp_json(),
        lines.join(",\n")
    );
    write_out(cli, &report)?;
    if worst > 1.0 {
        return Err(format!(
            "A/A spread reaches {:.0} % of a bound",
            worst * 100.0
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("syncbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(file) = &cli.validate {
        std::fs::read_to_string(file)
            .map_err(|e| format!("{}: {e}", file.display()))
            .and_then(|text| validate(&text, &Manifest::load(&cli.manifest)?))
            .map(|()| println!("{}: matches {}", file.display(), cli.manifest.display()))
    } else if let Some(n) = cli.aa {
        aa(&cli, n)
    } else if let Some(workload) = cli.workload {
        return run_one(&cli, workload, started);
    } else {
        suite(&cli)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("syncbench: {e}");
            ExitCode::FAILURE
        }
    }
}
