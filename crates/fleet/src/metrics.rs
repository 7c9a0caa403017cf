//! Fleet-wide metrics, invariants, and the deterministic
//! `BENCH_fleet.json` serialization.
//!
//! Everything in the JSON is a function of the *virtual* run only —
//! seed, population, and fault plan — never of wall-clock time or the
//! host. That is what lets CI assert byte-identical output across
//! same-seed runs and against the checked-in documents.
//!
//! The run's windowed series are its one metric store: the report's
//! `counters` and `hist` sections are read back from them through the
//! `COUNTERS` and `HISTS` tables, so a new fleet metric is one record
//! in a handler plus one table row.

use std::collections::BTreeMap;

use unidrive_obs::{histogram_json, HistogramSnapshot, SeriesSnapshot};

use crate::config::FleetConfig;

/// Window width of the fleet's time-series rollups: one minute of
/// virtual time per window.
pub const FLEET_SERIES_WINDOW_NS: u64 = 60 * 1_000_000_000;

/// Which whole-run number of a series a report key reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stat {
    /// The total of a counter series.
    Sum,
    /// The number of samples of a sample series.
    Count,
}

/// Whether a report key is written when its series was never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Presence {
    /// Written at 0: the key set stays stable across meta modes and
    /// fault plans (CI and `bench_compare` key off it).
    Always,
    /// Written iff the series exists (an add of 0 creates it).
    IfRecorded,
}

use Presence::{Always, IfRecorded};
use Stat::{Count, Sum};

/// The report's `counters` section, the one map from a key to what it
/// reads: `(key, metric, label, stat, presence)`, where a `None` label
/// merges every label of the metric. A count a sample series already
/// carries is read from it, not recorded twice.
#[rustfmt::skip]
const COUNTERS: [(&str, &str, Option<&str>, Stat, Presence); 27] = [
    ("bytes.pulled", "bytes.pulled", None, Sum, IfRecorded),
    ("bytes.synced", "bytes.synced", None, Sum, IfRecorded),
    ("devices.churned", "devices.churned", None, Sum, IfRecorded),
    ("drain.pulls", "drain.pulls", None, Sum, IfRecorded),
    ("fault.burst_slowdowns", "fault.burst_slowdowns", None, Sum, IfRecorded),
    ("fault.delayed_acks", "fault.delayed_acks", None, Sum, IfRecorded),
    ("fault.torn_repairs", "fault.torn_repairs", None, Sum, IfRecorded),
    ("folders.members", "folders.members", None, Sum, Always),
    ("folders.versions", "folders.versions", None, Sum, Always),
    ("invariant.holder_violations", "invariant.holder_violations", None, Sum, IfRecorded),
    ("lock.acquired", "fleet.lock_wait_ns", Some("lock"), Count, IfRecorded),
    ("lock.contended_rounds", "lock.contended", None, Sum, IfRecorded),
    ("lock.exhausted", "fleet.sessions", Some("deferred"), Sum, IfRecorded),
    ("lock.head_polls", "lock.head_polls", None, Sum, IfRecorded),
    ("lock.starved", "lock.starved", None, Sum, Always),
    ("lock.unreachable_rounds", "lock.unreachable_rounds", None, Sum, IfRecorded),
    ("oplog.appends", "oplog.appends", None, Sum, IfRecorded),
    ("oplog.compact_forced", "oplog.compact_forced", None, Sum, Always),
    ("oplog.compact_overdue", "oplog.compact_overdue", None, Sum, Always),
    ("oplog.compact_skipped", "oplog.compact_skipped", None, Sum, IfRecorded),
    ("oplog.compactions", "oplog.compactions", None, Sum, IfRecorded),
    ("oplog.op_deletes", "oplog.op_deletes", None, Sum, IfRecorded),
    ("oplog.op_file_reads", "oplog.op_file_reads", None, Sum, IfRecorded),
    ("sessions.completed", "fleet.sync_latency_ns", None, Count, IfRecorded),
    ("sessions.deferred", "fleet.sessions", Some("deferred"), Sum, IfRecorded),
    ("sessions.started", "fleet.sessions", Some("started"), Sum, IfRecorded),
    ("upload.unreachable_rounds", "upload.unreachable_rounds", None, Sum, IfRecorded),
];

/// The report's `hist` section: each key and the sample series (every
/// label merged) whose distribution it prints.
const HISTS: [(&str, &str); 3] = [
    ("lock_rounds", "fleet.lock_rounds"),
    ("lock_wait_ns", "fleet.lock_wait_ns"),
    ("sync_latency_ns", "fleet.sync_latency_ns"),
];

/// One invariant verdict, named and explained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    /// Stable invariant name.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// Per-provider accounting surfaced in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudRow {
    /// Provider name.
    pub name: String,
    /// Total API operations charged.
    pub ops: u64,
    /// Operations spent on metadata steps (lock rounds, commits,
    /// appends, compactions), priced at `unidrive_meta::PROTOCOL_COSTS`.
    pub lock_ops: u64,
    /// Operations spent on share transfers.
    pub transfer_ops: u64,
    /// Bytes uploaded (erasure shares): the `cloud.bytes_up` series.
    pub bytes_up: u64,
    /// Bytes downloaded (drain pulls): the `cloud.bytes_down` series.
    pub bytes_down: u64,
    /// Cumulative shaper-imposed delay, nanoseconds.
    pub throttle_delay_ns: u64,
    /// Highest single-second operation rate.
    pub qps_peak: u64,
    /// Mean ops/s over the active span.
    pub qps_mean: f64,
}

/// The result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// Seed echo.
    pub seed: u64,
    /// Population size echo.
    pub devices: u32,
    /// Hot-folder count echo.
    pub hot_folders: u32,
    /// Arrival horizon echo, seconds.
    pub horizon_secs: u64,
    /// Metadata-plane mode echo (`"lock"` or `"oplog"`).
    pub meta_mode: String,
    /// Scheduled fault events in the plan.
    pub fault_events: usize,
    /// Per-provider accounting.
    pub clouds: Vec<CloudRow>,
    /// Chaos-soak invariant verdicts.
    pub invariants: Vec<Invariant>,
    /// Total events processed.
    pub events_processed: u64,
    /// Windows executed.
    pub windows: u64,
    /// Virtual time at which the fleet converged, ns.
    pub virtual_end_ns: u64,
    /// Drain rounds needed after the horizon.
    pub drain_rounds: u32,
    /// Every event the run recorded, as windowed series
    /// ([`FLEET_SERIES_WINDOW_NS`] grid): the one metric store, of
    /// which the report's `counters` and `hist` sections and the cloud
    /// rows' bytes are views.
    pub series: SeriesSnapshot,
}

impl FleetMetrics {
    /// An empty metrics value echoing `cfg`.
    pub fn new(cfg: &FleetConfig) -> FleetMetrics {
        FleetMetrics {
            seed: cfg.seed,
            devices: cfg.devices,
            hot_folders: cfg.hot_folders,
            horizon_secs: cfg.horizon.as_secs(),
            meta_mode: cfg.meta_mode.as_str().to_owned(),
            fault_events: cfg.fault_plan.events.len(),
            clouds: Vec::new(),
            invariants: Vec::new(),
            events_processed: 0,
            windows: 0,
            virtual_end_ns: 0,
            drain_rounds: 0,
            series: SeriesSnapshot::empty(FLEET_SERIES_WINDOW_NS),
        }
    }

    /// Deterministic windowed-series export
    /// (`unidrive-obs-series/v2`). Like
    /// [`to_json`](FleetMetrics::to_json), the bytes depend only on the
    /// virtual run: same seed ⇒ identical output (CI `cmp`-gates this).
    pub fn series_json(&self) -> String {
        self.series.to_json()
    }

    /// The `counters` section: every [`COUNTERS`] key that is always
    /// present or whose series exists, with the number it reads.
    fn counters(&self) -> BTreeMap<&'static str, u64> {
        COUNTERS
            .iter()
            .filter_map(|&(key, metric, label, stat, presence)| {
                let recorded = match label {
                    Some(label) => self.series.entry(metric, label).map(|e| e.merged()),
                    None => self
                        .series
                        .entries
                        .iter()
                        .any(|e| e.metric == metric)
                        .then(|| self.series.merged(metric)),
                };
                let value = match (recorded, stat) {
                    (Some(h), Sum) => h.sum,
                    (Some(h), Count) => h.count,
                    (None, _) if presence == Always => 0,
                    (None, _) => return None,
                };
                Some((key, value))
            })
            .collect()
    }

    /// Reads report key `name` of the `counters` section (0 when its
    /// series was never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters().get(name).copied().unwrap_or(0)
    }

    /// The distribution report key `name` of the `hist` section prints
    /// (empty when its series was never recorded).
    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        HISTS
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, metric)| self.series.merged(metric))
            .unwrap_or_default()
    }

    /// Records an invariant verdict.
    pub fn invariant(&mut self, name: &str, pass: bool, detail: String) {
        self.invariants.push(Invariant {
            name: name.to_owned(),
            pass,
            detail,
        });
    }

    /// True when every invariant held.
    pub fn all_pass(&self) -> bool {
        self.invariants.iter().all(|i| i.pass)
    }

    /// Deterministic JSON report: schema `"bench_fleet": "unidrive/v1"`,
    /// sorted keys, no wall-clock or host-dependent data. Same seed ⇒
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"bench_fleet\": \"unidrive/v1\",\n");

        out.push_str("  \"config\": {");
        out.push_str(&format!(
            "\"devices\": {}, \"fault_events\": {}, \"horizon_secs\": {}, \"hot_folders\": {}, \"meta_mode\": \"{}\", \"seed\": {}",
            self.devices, self.fault_events, self.horizon_secs, self.hot_folders, self.meta_mode, self.seed
        ));
        out.push_str("},\n");

        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": {v}"));
        }
        out.push_str("},\n");

        out.push_str("  \"clouds\": [\n");
        for (i, c) in self.clouds.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"bytes_down\": {}, \"bytes_up\": {}, \"lock_ops\": {}, \"name\": \"{}\", \"ops\": {}, \"qps_mean\": {}, \"qps_peak\": {}, \"throttle_delay_ms\": {}, \"transfer_ops\": {}}}",
                c.bytes_down,
                c.bytes_up,
                c.lock_ops,
                c.name,
                c.ops,
                fmt_f64(c.qps_mean),
                c.qps_peak,
                c.throttle_delay_ns / 1_000_000,
                c.transfer_ops
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"hist\": {");
        for (i, (key, _)) in HISTS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{key}\": {}",
                histogram_json(&self.hist(key))
            ));
        }
        out.push_str("\n  },\n");

        out.push_str("  \"invariants\": [\n");
        for (i, inv) in self.invariants.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"detail\": \"{}\", \"name\": \"{}\", \"pass\": {}}}",
                inv.detail.replace('"', "'"),
                inv.name,
                inv.pass
            ));
        }
        out.push_str("\n  ],\n");

        out.push_str(&format!(
            "  \"run\": {{\"drain_rounds\": {}, \"events\": {}, \"virtual_end_secs\": {}, \"windows\": {}}}\n",
            self.drain_rounds,
            self.events_processed,
            fmt_f64(self.virtual_end_ns as f64 / 1e9),
            self.windows
        ));
        out.push_str("}\n");
        out
    }
}

/// Fixed-precision float formatting: locale-free, deterministic.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0.000".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use unidrive_cloud::{FaultEvent, FaultKind};
    use unidrive_meta::MetaMode;
    use unidrive_obs::SeriesBank;
    use unidrive_workload::Provider;

    use crate::{default_chaos_plan, FleetSim};

    fn sample() -> FleetMetrics {
        let cfg = FleetConfig::quick(5);
        let mut m = FleetMetrics::new(&cfg);
        let mut bank = SeriesBank::new(FLEET_SERIES_WINDOW_NS);
        bank.add("fleet.sessions", "started", 0, 1);
        bank.add("bytes.synced", "fleet", 0, 1024);
        m.series = bank.snapshot();
        m.invariant("converged", true, "ok".to_owned());
        m.clouds.push(CloudRow {
            name: "dropbox".to_owned(),
            ops: 12,
            lock_ops: 4,
            transfer_ops: 8,
            bytes_up: 4096,
            bytes_down: 0,
            throttle_delay_ns: 2_000_000,
            qps_peak: 3,
            qps_mean: 1.5,
        });
        m
    }

    #[test]
    fn json_is_deterministic_and_schema_tagged() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"bench_fleet\": \"unidrive/v1\""));
        assert!(a.contains("\"sessions.started\": 1"));
        // Schema counters are present (at zero) even when never hit.
        assert!(a.contains("\"lock.starved\": 0"));
        assert!(a.contains("\"oplog.compact_forced\": 0"));
        assert!(a.contains("\"oplog.compact_overdue\": 0"));
        assert!(a.contains("\"qps_mean\": 1.500"));
        assert!(a.contains("\"throttle_delay_ms\": 2"));
        assert!(a.contains("\"pass\": true"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn counters_and_invariants_round_trip() {
        let mut m = sample();
        assert_eq!(m.counter("sessions.started"), 1);
        assert_eq!(m.counter("bytes.synced"), 1024);
        assert_eq!(m.counter("missing"), 0);
        assert!(m.all_pass());
        m.invariant("broken", false, "nope".to_owned());
        assert!(!m.all_pass());
    }

    /// Every row of the report tables names a series a tiny fleet
    /// records in one meta mode or the other: a mistyped name would
    /// otherwise print 0 or drop its key, which only the full-scale
    /// byte gate catches.
    #[test]
    fn every_report_row_is_fed() {
        let runs: Vec<FleetMetrics> = [MetaMode::Lock, MetaMode::Oplog]
            .into_iter()
            .map(|mode| {
                let mut cfg = FleetConfig::quick(11);
                // One hot folder: the lock run exhausts acquires; the
                // oplog run is larger, since a fold is skipped only when
                // 64 appends land inside the previous fold's hold.
                cfg.devices = match mode {
                    MetaMode::Lock => 3_000,
                    MetaMode::Oplog => 30_000,
                };
                cfg.horizon = Duration::from_secs(300);
                cfg.hot_folders = 1;
                cfg.meta_mode = mode;
                cfg.fault_plan = default_chaos_plan(11, 300);
                // Three clouds dark at once leave no write quorum.
                for p in &Provider::ALL[..3] {
                    let dark = FaultEvent::always(p.name(), FaultKind::Outage);
                    cfg.fault_plan.push(dark.window_secs(200, 240));
                }
                FleetSim::new(cfg).run()
            })
            .collect();
        for (key, metric, ..) in COUNTERS.iter().filter(|row| row.4 == IfRecorded) {
            if *key == "invariant.holder_violations" {
                // Only a second lock holder records it, and the lock
                // run's invariant says there was none.
                let lock = &runs[0].invariants;
                let held = lock.iter().find(|i| i.name == "single_lock_holder");
                assert!(held.is_some_and(|i| i.pass), "{lock:?}");
                continue;
            }
            assert!(
                runs.iter().any(|m| m.counters().contains_key(key)),
                "{key}: neither run recorded {metric}"
            );
        }
        for (key, metric) in HISTS {
            for m in &runs {
                let mode = &m.meta_mode;
                let count = m.hist(key).count;
                assert!(count > 0, "{key}: {mode} run recorded no {metric}");
            }
        }
    }
}
