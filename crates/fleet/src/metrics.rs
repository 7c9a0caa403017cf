//! Fleet-wide metrics, invariants, and the deterministic
//! `BENCH_fleet.json` serialization.
//!
//! Everything in the JSON is a function of the *virtual* run only —
//! seed, population, and fault plan — never of wall-clock time or the
//! host. That is what lets CI assert byte-identical output across
//! same-seed runs and against the checked-in documents.

use std::collections::BTreeMap;

use unidrive_obs::{histogram_json, Histogram, HistogramSnapshot, SeriesBank};

use crate::config::FleetConfig;

/// Window width of the fleet's time-series rollups: one minute of
/// virtual time per window.
pub const FLEET_SERIES_WINDOW_NS: u64 = 60 * 1_000_000_000;

/// Counters that must appear in every report even when zero, so the
/// JSON schema is stable across meta modes and fault plans (CI and
/// `bench_compare` key off their presence).
const SCHEMA_COUNTERS: [&str; 3] =
    ["lock.starved", "oplog.compact_forced", "oplog.compact_overdue"];

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
    /// Bytes uploaded (erasure shares).
    pub bytes_up: u64,
    /// Bytes downloaded (drain pulls).
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
    /// Named counters (sessions, locks, faults, drain).
    pub counters: BTreeMap<String, u64>,
    /// End-to-end session latency (arrival → publish), ns.
    pub sync_latency: HistogramSnapshot,
    /// Lock wait (upload landed → lock granted), ns.
    pub lock_wait: HistogramSnapshot,
    /// Lock rounds needed per successful acquire.
    pub lock_rounds: HistogramSnapshot,
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
    /// Windowed time-series rollups ([`FLEET_SERIES_WINDOW_NS`] grid),
    /// recorded by the event handlers as they run.
    pub series: SeriesBank,
}

impl FleetMetrics {
    /// An empty metrics value echoing `cfg`.
    pub fn new(cfg: &FleetConfig) -> FleetMetrics {
        let empty = || Histogram::default().snapshot();
        let mut counters = BTreeMap::new();
        for name in SCHEMA_COUNTERS {
            counters.insert(name.to_owned(), 0);
        }
        FleetMetrics {
            seed: cfg.seed,
            devices: cfg.devices,
            hot_folders: cfg.hot_folders,
            horizon_secs: cfg.horizon.as_secs(),
            meta_mode: cfg.meta_mode.as_str().to_owned(),
            fault_events: cfg.fault_plan.events.len(),
            counters,
            sync_latency: empty(),
            lock_wait: empty(),
            lock_rounds: empty(),
            clouds: Vec::new(),
            invariants: Vec::new(),
            events_processed: 0,
            windows: 0,
            virtual_end_ns: 0,
            drain_rounds: 0,
            series: SeriesBank::new(FLEET_SERIES_WINDOW_NS),
        }
    }

    /// Deterministic windowed-series export
    /// (`unidrive-obs-series/v2`). Like
    /// [`to_json`](FleetMetrics::to_json), the bytes depend only on the
    /// virtual run: same seed ⇒ identical output (CI `cmp`-gates this).
    pub fn series_json(&self) -> String {
        self.series.snapshot().to_json()
    }

    /// Increments counter `name`.
    pub fn bump(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Sets counter `name` to `n`.
    pub fn set(&mut self, name: &str, n: u64) {
        self.counters.insert(name.to_owned(), n);
    }

    /// Reads counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
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
        for (i, (k, v)) in self.counters.iter().enumerate() {
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

        out.push_str("  \"hist\": {\n");
        out.push_str(&format!(
            "    \"lock_rounds\": {},\n",
            histogram_json(&self.lock_rounds)
        ));
        out.push_str(&format!(
            "    \"lock_wait_ns\": {},\n",
            histogram_json(&self.lock_wait)
        ));
        out.push_str(&format!(
            "    \"sync_latency_ns\": {}\n",
            histogram_json(&self.sync_latency)
        ));
        out.push_str("  },\n");

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

    fn sample() -> FleetMetrics {
        let cfg = FleetConfig::quick(5);
        let mut m = FleetMetrics::new(&cfg);
        m.bump("sessions.started");
        m.add("bytes.synced", 1024);
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
        assert_eq!(m.counter("missing"), 0);
        assert!(m.all_pass());
        m.invariant("broken", false, "nope".to_owned());
        assert!(!m.all_pass());
    }
}
