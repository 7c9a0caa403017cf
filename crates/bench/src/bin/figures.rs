//! The paper's evaluation, one binary over the table of experiments in
//! [`unidrive_bench::figures`]:
//!
//! ```sh
//! figures <id>... [quick] [--meta-mode lock|oplog] [--obs-out PATH]
//! figures all [quick] ...     # every row, in table order
//! figures list                # the ids, one per line
//! ```
//!
//! The process arguments are read once, here, into a [`Ctx`]; no
//! experiment looks at them. A run of one experiment prints exactly
//! what the experiment prints. A run of several prints a banner before
//! each, treats `--obs-out` as a base path (the id is inserted before
//! the extension, `out.json` → `out.fig11_batch_sync.json`, so the
//! bundles don't clobber each other), and catches a panicking
//! experiment: it is named, counted as failed, and the rest still run.
//! An experiment that records nothing under `--obs-out` (the §3.2
//! probes, the pure-metadata fig13, the ones that pass `Obs::noop()`)
//! leaves a valid, empty bundle. Exit code: 0 done, 1 an experiment
//! failed, 2 usage.

use unidrive_bench::figures::{Ctx, Experiment, EXPERIMENTS};
use unidrive_bench::{arg_value, meta_mode_arg, obs_out, quick_arg, ExperimentScale};
use unidrive_meta::MetaMode;

/// The ids of [`EXPERIMENTS`], one per line: what `figures list`
/// prints, and what an unknown id is answered with.
fn list() -> String {
    EXPERIMENTS
        .iter()
        .map(|(id, _)| format!("{id}\n"))
        .collect()
}

/// The rows `names` ask for, in the order asked (`all` is every row in
/// table order); `Err` names the first id the table does not have.
fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    let mut rows = Vec::new();
    for name in names {
        if name == "all" {
            rows.extend_from_slice(EXPERIMENTS);
        } else {
            let row = EXPERIMENTS.iter().find(|(id, _)| id == name);
            rows.push(*row.ok_or_else(|| name.clone())?);
        }
    }
    Ok(rows)
}

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

fn main() {
    // Everything that is not `quick`, a flag or a flag's value names
    // an experiment.
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--meta-mode" | "--obs-out" => drop(args.next()),
            "quick" | "--quick" => {}
            _ => names.push(arg),
        }
    }
    if names == ["list"] {
        print!("{}", list());
        return;
    }
    let rows = match select(&names) {
        Ok(rows) if !rows.is_empty() => rows,
        Ok(_) => {
            eprint!(
                "usage: figures <id>...|all|list [quick] [--meta-mode lock|oplog] [--obs-out PATH]; ids:\n{}",
                list()
            );
            std::process::exit(2);
        }
        Err(unknown) => {
            eprint!("no experiment '{unknown}'; ids:\n{}", list());
            std::process::exit(2);
        }
    };
    let scale = if quick_arg() {
        ExperimentScale::quick()
    } else {
        ExperimentScale::paper()
    };
    let meta_mode = meta_mode_arg().unwrap_or(MetaMode::Lock);
    let obs_base = arg_value("--obs-out");
    let several = rows.len() > 1;

    let mut failed = Vec::new();
    for (id, run) in &rows {
        if several {
            println!("\n================ {id} ================\n");
        }
        let metrics = obs_out::to_path(obs_base.as_ref().map(|base| {
            if several {
                derive_path(base, id)
            } else {
                base.clone()
            }
        }));
        let cx = Ctx {
            scale: scale.clone(),
            meta_mode,
            obs: metrics.obs.clone(),
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&cx))) {
            Ok(()) => metrics.write(),
            Err(_) => {
                eprintln!("{id} panicked");
                failed.push(*id);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("\nfailed: {failed:?}");
        std::process::exit(1);
    }
    if several {
        println!("\nall {} experiments completed", rows.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_refused_and_the_list_names_every_id() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            select(&names(&["fig08_micro", "fig99_nope"])).unwrap_err(),
            "fig99_nope"
        );
        let picked = select(&names(&["tab03_overhead", "fig01_spatial"])).unwrap();
        assert_eq!(
            picked.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ["tab03_overhead", "fig01_spatial"]
        );
        assert_eq!(select(&names(&["all"])).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(list().lines().count(), EXPERIMENTS.len());
        assert!(list()
            .lines()
            .zip(EXPERIMENTS)
            .all(|(line, (id, _))| line == *id));
    }

    #[test]
    fn derive_path_inserts_name_before_extension() {
        assert_eq!(derive_path("out.json", "fig11"), "out.fig11.json");
        assert_eq!(derive_path("a/b/out.csv", "tab03"), "a/b/out.tab03.csv");
        assert_eq!(derive_path("noext", "fig11"), "noext.fig11");
        // A dot in a directory name is not an extension.
        assert_eq!(derive_path("a.b/out", "fig11"), "a.b/out.fig11");
    }
}
