//! The paper's evaluation as one table: every table, figure and the
//! design ablations is a row of [`EXPERIMENTS`], a `fn(&Ctx)` in a
//! module of its own under `figures/`. The `figures` binary
//! (`src/bin/figures.rs`) is the one `main` over them; it reads the
//! process arguments once into a [`Ctx`], and no experiment looks at
//! them.

mod ablations;
mod fig01_spatial;
mod fig02_filesize_throughput;
mod fig03_temporal;
mod fig04_failure_rate;
mod fig08_micro;
mod fig09_sizes;
mod fig10_hourly;
mod fig11_batch_sync;
mod fig12_cumulative;
mod fig13_delta_sync;
mod fig14_reliability;
mod fig15_trial_throughput;
mod fig16_trial_daily;
mod tab01_failure_correlation;
mod tab02_variance;
mod tab03_overhead;

use unidrive_meta::MetaMode;
use unidrive_obs::Obs;

use crate::ExperimentScale;

/// What an experiment is handed in place of the process arguments.
#[derive(Debug)]
pub struct Ctx {
    /// Paper scale, or the reduced one under `quick`.
    pub scale: ExperimentScale,
    /// `--meta-mode` (default `lock`, the paper's plane).
    pub meta_mode: MetaMode,
    /// Recording under `--obs-out`, a no-op otherwise.
    pub obs: Obs,
}

/// A row of the table: `(id, run)`.
pub type Experiment = (&'static str, fn(&Ctx));

/// Every experiment, in the paper's order (the order of
/// `EXPERIMENTS.md`).
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig01_spatial", fig01_spatial::run),
    ("fig02_filesize_throughput", fig02_filesize_throughput::run),
    ("fig03_temporal", fig03_temporal::run),
    ("fig04_failure_rate", fig04_failure_rate::run),
    ("tab01_failure_correlation", tab01_failure_correlation::run),
    ("fig08_micro", fig08_micro::run),
    ("fig09_sizes", fig09_sizes::run),
    ("fig10_hourly", fig10_hourly::run),
    ("fig11_batch_sync", fig11_batch_sync::run),
    ("fig12_cumulative", fig12_cumulative::run),
    ("tab02_variance", tab02_variance::run),
    ("tab03_overhead", tab03_overhead::run),
    ("fig13_delta_sync", fig13_delta_sync::run),
    ("fig14_reliability", fig14_reliability::run),
    ("fig15_trial_throughput", fig15_trial_throughput::run),
    ("fig16_trial_daily", fig16_trial_daily::run),
    ("ablations", ablations::run),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The backticked word a table cell starts with, if it does.
    fn leading_id(cell: &str) -> Option<&str> {
        cell.trim().strip_prefix('`')?.split('`').next()
    }

    #[test]
    fn ids_are_unique_and_in_experiments_md_order() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");

        let doc = include_str!("../../../EXPERIMENTS.md");
        // Document → table: the Id cell of every row names a row here.
        for line in doc.lines().filter(|l| l.starts_with("| ")) {
            let id_cell = line.split('|').nth(2).expect("a second column");
            if let Some(id) = leading_id(id_cell) {
                assert!(
                    ids.contains(&id),
                    "EXPERIMENTS.md row names unknown id `{id}`"
                );
            }
        }
        // Table → document: ids are first mentioned in table order.
        let mentions: Vec<usize> = ids
            .iter()
            .map(|id| {
                doc.find(&format!("`{id}`"))
                    .unwrap_or_else(|| panic!("EXPERIMENTS.md never mentions `{id}`"))
            })
            .collect();
        assert!(
            mentions.windows(2).all(|w| w[0] < w[1]),
            "EXPERIMENTS.md lists the experiments in another order than {ids:?}"
        );
    }
}
