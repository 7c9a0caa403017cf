//! Convenience runner: executes every experiment binary in sequence
//! (with whatever scale argument was passed through) and prints each
//! one's output with a banner. Useful for regenerating EXPERIMENTS.md.
//!
//! `--obs-out <path>` is treated as a base path: each experiment
//! writes to its own derived file (the experiment name is inserted
//! before the extension, e.g. `out.json` →
//! `out.fig11_batch_sync.json`), so the exports don't clobber each
//! other.
//!
//! ```sh
//! cargo run --release -p unidrive-bench --bin run_all quick
//! ```

use std::process::Command;

/// `out.json` + `fig11_batch_sync` → `out.fig11_batch_sync.json`.
fn derive_path(base: &str, name: &str) -> String {
    match base.rfind('.') {
        // Only treat a dot in the final component as an extension.
        Some(pos) if !base[pos..].contains('/') => {
            format!("{}.{name}{}", &base[..pos], &base[pos..])
        }
        _ => format!("{base}.{name}"),
    }
}

const EXPERIMENTS: [&str; 20] = [
    "fig01_spatial",
    "fig02_filesize_throughput",
    "fig03_temporal",
    "fig04_failure_rate",
    "tab01_failure_correlation",
    "fig08_micro",
    "fig09_sizes",
    "fig10_hourly",
    "fig11_batch_sync",
    "fig12_cumulative",
    "tab02_variance",
    "tab03_overhead",
    "fig13_delta_sync",
    "fig14_reliability",
    "fig15_trial_throughput",
    "fig16_trial_daily",
    "ablations",
    "chaos_soak",
    "bench_fleet",
    "bench_oplog",
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Pull the output flag out of the passthrough; its path becomes
    // the per-experiment base.
    let mut passthrough = Vec::new();
    let mut obs_base = None;
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--obs-out" {
            obs_base = it.next();
        } else {
            passthrough.push(arg);
        }
    }
    let this_exe = std::env::current_exe().expect("own path");
    let bin_dir = this_exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n================ {name} ================\n");
        let mut args = passthrough.clone();
        if let Some(base) = &obs_base {
            args.push("--obs-out".into());
            args.push(derive_path(base, name));
        }
        let status = Command::new(bin_dir.join(name)).args(&args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(name);
            }
            Err(e) => {
                eprintln!("{name} failed to start: {e} (build with `cargo build --release -p unidrive-bench --bins` first)");
                failures.push(name);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::derive_path;

    #[test]
    fn derive_path_inserts_name_before_extension() {
        assert_eq!(derive_path("out.json", "fig11"), "out.fig11.json");
        assert_eq!(derive_path("a/b/out.csv", "tab03"), "a/b/out.tab03.csv");
        assert_eq!(derive_path("noext", "fig11"), "noext.fig11");
        // A dot in a directory name is not an extension.
        assert_eq!(derive_path("a.b/out", "fig11"), "a.b/out.fig11");
    }
}
