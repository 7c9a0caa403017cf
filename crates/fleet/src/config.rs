//! Fleet run configuration and presets.

use std::time::Duration;

use unidrive_cloud::{CloudOp, FaultEvent, FaultKind, FaultPlan};
use unidrive_meta::MetaMode;
use unidrive_workload::{PopulationProfile, Provider};

/// Configuration of one fleet simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Seed deriving every random stream in the run.
    pub seed: u64,
    /// Device population size.
    pub devices: u32,
    /// Arrival horizon: no new sessions start after this much virtual
    /// time. In-flight sessions drain to completion afterwards.
    pub horizon: Duration,
    /// Population behavior model.
    pub profile: PopulationProfile,
    /// Number of shared hot folders contended across the fleet.
    pub hot_folders: u32,
    /// Per-cloud sustained request-rate ceiling, ops/s.
    pub cloud_qps: u64,
    /// Per-cloud burst allowance, ops.
    pub cloud_burst: u64,
    /// Metadata-plane mode for hot-folder commits: `Lock` contends a
    /// quorum lock per commit; `Oplog` appends one op object per commit and
    /// locks only for periodic base compaction.
    pub meta_mode: MetaMode,
    /// Scheduled fault plan evaluated analytically against every
    /// device's cloud operations.
    pub fault_plan: FaultPlan,
}

impl FleetConfig {
    /// The `--quick` CI preset: ≈10k devices, 10 virtual minutes.
    pub fn quick(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            devices: 10_000,
            horizon: Duration::from_secs(600),
            profile: PopulationProfile::consumer(),
            hot_folders: 50,
            cloud_qps: 1_500,
            cloud_burst: 3_000,
            meta_mode: MetaMode::Lock,
            fault_plan: default_chaos_plan(seed, 600),
        }
    }

    /// The full acceptance run: 100k devices, 30 virtual minutes,
    /// five clouds, chaos enabled.
    pub fn full(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            devices: 100_000,
            horizon: Duration::from_secs(1_800),
            profile: PopulationProfile::consumer(),
            hot_folders: 200,
            cloud_qps: 4_000,
            cloud_burst: 8_000,
            meta_mode: MetaMode::Lock,
            fault_plan: default_chaos_plan(seed, 1_800),
        }
    }

    /// Horizon in virtual nanoseconds.
    pub fn horizon_ns(&self) -> u64 {
        self.horizon.as_nanos() as u64
    }
}

/// The standard fleet chaos schedule, scaled to `horizon_secs`: one
/// provider outage, a transient burst, a latency spike, a quota
/// window, a torn-upload window, and a delayed-visibility window —
/// every [`FaultKind`] exercised, all windows closed well before the
/// horizon so the fleet can drain and converge.
pub fn default_chaos_plan(seed: u64, horizon_secs: u64) -> FaultPlan {
    let h = horizon_secs.max(60);
    let secs = |s: u64| s * 1_000_000_000;
    let mut plan = FaultPlan::new(seed);
    let names: Vec<&str> = Provider::ALL.iter().map(|p| p.name()).collect();
    plan.push(FaultEvent {
        cloud: names[4].to_owned(), // the weakest provider goes dark
        ops: Vec::new(),
        start_ns: secs(h / 6),
        end_ns: secs(h / 3),
        kind: FaultKind::Outage,
    });
    plan.push(FaultEvent {
        cloud: names[1].to_owned(),
        ops: Vec::new(),
        start_ns: secs(h / 4),
        end_ns: secs(h / 2),
        kind: FaultKind::TransientBurst { probability: 0.25 },
    });
    plan.push(FaultEvent {
        cloud: names[2].to_owned(),
        ops: Vec::new(),
        start_ns: secs(h / 3),
        end_ns: secs(2 * h / 3),
        kind: FaultKind::LatencySpike { extra_ms: 400 },
    });
    plan.push(FaultEvent {
        cloud: names[3].to_owned(),
        ops: vec![CloudOp::Upload],
        start_ns: secs(h / 2),
        end_ns: secs(2 * h / 3),
        kind: FaultKind::QuotaExhausted,
    });
    plan.push(FaultEvent {
        cloud: names[0].to_owned(),
        ops: vec![CloudOp::Upload],
        start_ns: secs(h / 5),
        end_ns: secs(2 * h / 5),
        kind: FaultKind::TornUpload { probability: 0.15 },
    });
    plan.push(FaultEvent {
        cloud: names[1].to_owned(),
        ops: Vec::new(),
        start_ns: secs(3 * h / 5),
        end_ns: secs(4 * h / 5),
        kind: FaultKind::DelayedVisibility,
    });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let q = FleetConfig::quick(1);
        assert_eq!(q.devices, 10_000);
        assert!(q.hot_folders >= 1);
        let f = FleetConfig::full(1);
        assert_eq!(f.devices, 100_000);
        assert_eq!(f.horizon_ns(), 1_800 * 1_000_000_000);
    }

    #[test]
    fn chaos_plan_covers_all_kinds_and_closes_before_horizon() {
        let plan = default_chaos_plan(7, 600);
        assert_eq!(plan.events.len(), 6);
        let horizon_ns = 600 * 1_000_000_000;
        for ev in &plan.events {
            assert!(ev.end_ns <= horizon_ns, "window past horizon");
            assert!(ev.start_ns < ev.end_ns);
        }
        let kinds: std::collections::HashSet<&str> = plan
            .events
            .iter()
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(kinds.len(), 6, "every FaultKind exercised");
    }
}
