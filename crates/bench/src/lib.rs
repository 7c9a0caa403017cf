//! # unidrive-bench
//!
//! Harness that regenerates every table and figure of the UniDrive
//! paper's evaluation (§3.2 measurement study, §7 experiments, §7.3
//! trial). One binary, `figures`, runs them: each experiment is a row
//! of [`figures::EXPERIMENTS`] (`figures <id>`, `figures all`,
//! `figures list`); see `EXPERIMENTS.md` at the repository root for
//! the index and recorded outcomes. The paper's parameters are stated
//! once, in [`paper_plane`] / [`paper_client`]. Wall-clock kernel
//! throughput is `bench_kernels`' job (the workspace's only timing
//! loop); what a sync round costs end to end and per layer is measured
//! by `syncbench` in `benchmark/`.
//!
//! All experiments run under deterministic virtual time, so a "month" of
//! half-hourly probes takes seconds of wall time; run the binaries with
//! `--release` (debug-mode Reed-Solomon is ~20× slower).

#![warn(missing_docs)]

pub mod figures;
pub mod json;
pub mod plan;
pub mod spec;

use std::sync::Arc;
use std::time::Duration;

use unidrive_baseline::{
    IntuitiveMultiCloud, MultiCloudBenchmark, SingleCloudClient, UniDriveTransfer,
};
use unidrive_cloud::{CloudSet, SimCloud};
use unidrive_core::{ClientConfig, DataPlaneConfig};
use unidrive_erasure::RedundancyConfig;
use unidrive_meta::MetaMode;
use unidrive_obs::Obs;
use unidrive_sim::SimRuntime;
use unidrive_workload::{build_multicloud, Provider, Site};

/// Evaluation parameters shared by the experiments.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Repetitions per measured point.
    pub repeats: usize,
    /// The "32 MB" micro-benchmark file size.
    pub large_file: usize,
    /// The batch-sync workload: `(count, size)` (paper: 100 × 1 MB).
    pub batch: (usize, usize),
    /// Segment size θ.
    pub theta: usize,
}

impl ExperimentScale {
    /// Paper-faithful sizes (slow in debug builds; use `--release`).
    pub fn paper() -> Self {
        ExperimentScale {
            repeats: 5,
            large_file: 32 * 1024 * 1024,
            batch: (100, 1024 * 1024),
            theta: 4 * 1024 * 1024,
        }
    }

    /// Reduced sizes preserving every ratio the figures depend on; used
    /// when `figures` is invoked with `quick`.
    pub fn quick() -> Self {
        ExperimentScale {
            repeats: 3,
            large_file: 8 * 1024 * 1024,
            batch: (30, 512 * 1024),
            theta: 1024 * 1024,
        }
    }
}

/// The value following flag `name` in the process arguments
/// (`--out PATH` → `PATH`): the one flag reader the binaries share.
/// `None` when the flag is absent. A flag given without a value — the
/// last argument, or followed by another `--…` flag — exits 2 with
/// `<flag> needs a value`: a dropped value must not silently change the
/// run.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    args.find(|arg| arg == name)?;
    match args.next() {
        Some(value) if !value.starts_with("--") => Some(value),
        _ => {
            eprintln!("{name} needs a value");
            std::process::exit(2);
        }
    }
}

/// Whether the process arguments ask for the reduced-scale run
/// (`quick` or `--quick`).
pub fn quick_arg() -> bool {
    std::env::args().any(|arg| arg == "quick" || arg == "--quick")
}

/// `--meta-mode {lock,oplog}` from the process arguments, if given. An
/// unknown value aborts with a usage message — a typo must not
/// silently benchmark the wrong plane.
pub fn meta_mode_arg() -> Option<MetaMode> {
    arg_value("--meta-mode").map(|value| {
        MetaMode::parse(&value).unwrap_or_else(|| {
            eprintln!("--meta-mode must be 'lock' or 'oplog', got '{value}'");
            std::process::exit(2);
        })
    })
}

/// The paper's data plane (N = 5, k = 3, K_r = 3, K_s = 2, ≤ 5
/// connections per cloud, every mechanism on) at segment size `theta`,
/// reporting to `obs`: the one statement of the evaluation's data-plane
/// parameters. A run that departs from them says so as a struct update
/// on top of this.
pub fn paper_plane(theta: usize, obs: &Obs) -> DataPlaneConfig {
    DataPlaneConfig {
        obs: obs.clone(),
        ..DataPlaneConfig::with_params(RedundancyConfig::paper_default(), theta)
    }
}

/// The paper's client for `device` over [`paper_plane`], committing
/// through the `meta_mode` metadata plane.
pub fn paper_client(device: &str, theta: usize, obs: &Obs, meta_mode: MetaMode) -> ClientConfig {
    let mut config = ClientConfig::paper_default(device);
    config.meta_mode = meta_mode;
    config.data = paper_plane(theta, obs);
    config
}

/// The four systems under comparison at one site (paper §7.1).
pub struct Systems {
    /// UniDrive proper.
    pub unidrive: UniDriveTransfer,
    /// RACS/DepSky-like benchmark.
    pub benchmark: MultiCloudBenchmark,
    /// Parts-to-native-apps baseline.
    pub intuitive: IntuitiveMultiCloud,
    /// One native single-cloud client per provider.
    pub natives: Vec<(Provider, SingleCloudClient)>,
    /// The cloud handles (outage/traffic control).
    pub handles: Vec<Arc<SimCloud>>,
    /// The underlying cloud set.
    pub clouds: CloudSet,
}

impl std::fmt::Debug for Systems {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Systems")
            .field("clouds", &self.clouds)
            .finish()
    }
}

/// Builds all comparison systems over the same five simulated clouds at
/// `site`, with the paper's parameters ([`paper_plane`]).
///
/// `obs` is threaded through the UniDrive data plane and installed on
/// every simulated cloud (which also points the registry clock at
/// `sim`'s virtual time), so the run can be exported with `--obs-out`
/// (see [`obs_out`]); pass [`Obs::noop`] for an unobserved run.
pub fn systems_at(sim: &Arc<SimRuntime>, site: Site, theta: usize, obs: &Obs) -> Systems {
    let (clouds, handles) = build_multicloud(sim, site);
    for handle in &handles {
        handle.install_obs(obs.clone());
    }
    let config = paper_plane(theta, obs);
    let redundancy = config.redundancy;
    let rt = sim.clone().as_runtime();
    let unidrive = UniDriveTransfer::new(rt.clone(), clouds.clone(), config);
    let benchmark =
        MultiCloudBenchmark::new(rt.clone(), clouds.clone(), redundancy, 5).with_chunk_size(theta);
    let intuitive = IntuitiveMultiCloud::new(rt.clone(), &clouds, 5);
    let natives = Provider::ALL
        .iter()
        .zip(clouds.iter())
        .map(|(&p, (_, cloud))| (p, SingleCloudClient::new(rt.clone(), Arc::clone(cloud), 5)))
        .collect();
    Systems {
        unidrive,
        benchmark,
        intuitive,
        natives,
        handles,
        clouds,
    }
}

/// `--obs-out <path>` support shared by the bench binaries: when
/// the flag is present the binary records the run into a
/// registry-backed [`Obs`] and on exit writes the one run artefact —
/// [`unidrive_obs::bundle_json`]: Perfetto-loadable `traceEvents` and
/// the windowed `series`, the run's metrics — to that path;
/// `obs_report` digests and validates it. Without the flag the
/// returned handle is a no-op and the run pays only an `Option` branch
/// per instrumentation site.
pub mod obs_out {
    use unidrive_obs::{bundle_json, HistogramSnapshot, Obs, Registry, SeriesKind, Snapshot};

    /// Span-ring capacity used for exported runs: large enough that a
    /// full figure run keeps every span and instant, so the export
    /// reports `droppedSpans: 0`, every parent id resolves, and the
    /// same-seed determinism check never depends on what was evicted.
    pub const EXPORT_SPAN_CAPACITY: usize = 1 << 17;

    /// `--obs-out` state; obtain via [`to_path`].
    pub struct ObsOut {
        /// Handle to thread through [`crate::systems_at`] or
        /// `DataPlaneConfig.obs` / `SimCloud::install_obs` directly.
        pub obs: Obs,
        path: Option<String>,
    }

    impl std::fmt::Debug for ObsOut {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ObsOut").field("path", &self.path).finish()
        }
    }

    /// An export to `path` (the value of `--obs-out`): a real
    /// registry; `None`, the flag absent, is the no-op handle.
    pub fn to_path(path: Option<String>) -> ObsOut {
        let obs = path.as_ref().map_or_else(Obs::noop, |_| {
            Obs::with_registry(Registry::with_trace_capacity(EXPORT_SPAN_CAPACITY))
        });
        ObsOut { obs, path }
    }

    /// `p50/p95/p99` of a latency histogram, rendered in milliseconds.
    pub fn fmt_quantiles_ms(h: &HistogramSnapshot) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "p50={:.1}ms p95={:.1}ms p99={:.1}ms (n={})",
            ms(h.p50()),
            ms(h.p95()),
            ms(h.p99()),
            h.count
        )
    }

    /// Writes the run artefact — the trace in `snapshot`, canonicalized,
    /// plus the `series` document — to `path` and announces it on stdout. An
    /// I/O error is reported on stderr, not fatal: the figure output
    /// already printed.
    pub fn write_bundle(path: &str, mut snapshot: Snapshot, series: &str) {
        snapshot.canonicalize();
        match std::fs::write(path, bundle_json(Some(&snapshot), Some(series))) {
            Ok(()) => println!("obs bundle written to {path}"),
            Err(e) => eprintln!("failed to write --obs-out {path}: {e}"),
        }
    }

    impl ObsOut {
        /// Prints a `p50/p95/p99` summary of every latency series and
        /// writes the registry — trace and windowed series — to the
        /// `--obs-out` path.
        pub fn write(&self) {
            if let Some(registry) = self.obs.registry() {
                self.write_with_series(&registry.series_snapshot().to_json());
            }
        }

        /// [`write`](ObsOut::write) with `series` in place of the
        /// registry's own series document, for binaries whose series
        /// come from a deterministic source of their own (the fleet
        /// bench's `SeriesBank`).
        pub fn write_with_series(&self, series: &str) {
            let (Some(registry), Some(path)) = (self.obs.registry(), &self.path) else {
                return;
            };
            // A latency is a sample series named `*_ns`; its whole-run
            // distribution merges every window and label.
            let own = registry.series_snapshot();
            let mut latencies: Vec<&str> = own
                .entries
                .iter()
                .filter(|e| e.kind == SeriesKind::Sample && e.metric.ends_with("_ns"))
                .map(|e| e.metric.as_str())
                .collect();
            latencies.dedup();
            for metric in latencies {
                let h = own.merged(metric);
                if h.count > 0 {
                    println!("{metric}: {}", fmt_quantiles_ms(&h));
                }
            }
            write_bundle(path, registry.snapshot(), series);
        }
    }
}

/// Throughput in Mbit/s for `bytes` over `d`.
pub fn mbps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 * 8.0 / 1e6 / d.as_secs_f64().max(1e-9)
}
