//! Fleet determinism and chaos-soak properties.
//!
//! The load-bearing guarantees of the fleet harness: a run's metrics
//! JSON is a pure function of `(seed, population config)` — identical
//! across repeat runs — and the chaos-soak invariants hold at
//! population scale.

use std::time::Duration;

use unidrive_cloud::FaultPlan;
use unidrive_fleet::{default_chaos_plan, FleetConfig, FleetSim};
use unidrive_meta::{MetaMode, PROTOCOL_COSTS};

/// A population small enough for test time, large enough to exercise
/// contention, churn, faults, and the drain phase.
fn test_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::quick(seed);
    cfg.devices = 2_000;
    cfg.horizon = Duration::from_secs(300);
    cfg.hot_folders = 20;
    cfg.fault_plan = default_chaos_plan(seed, 300);
    cfg
}

#[test]
fn same_seed_same_bytes() {
    let a = FleetSim::new(test_config(42)).run().to_json();
    let b = FleetSim::new(test_config(42)).run().to_json();
    assert_eq!(a, b, "same seed must reproduce byte-identical JSON");
}

#[test]
fn different_seed_different_run() {
    let a = FleetSim::new(test_config(42)).run().to_json();
    let b = FleetSim::new(test_config(43)).run().to_json();
    assert_ne!(a, b, "the seed must actually drive the run");
}

#[test]
fn chaos_soak_invariants_hold_at_population_scale() {
    let m = FleetSim::new(test_config(1)).run();
    assert!(
        m.all_pass(),
        "chaos invariants failed: {:?}",
        m.invariants
            .iter()
            .filter(|i| !i.pass)
            .collect::<Vec<_>>()
    );
    // The run must have actually exercised the interesting paths.
    assert!(m.counter("sessions.started") > 1_000, "arrivals happened");
    assert!(
        m.counter("lock.contended_rounds") > 0,
        "hot folders contended"
    );
    assert!(
        m.counter("fault.burst_slowdowns") + m.counter("fault.torn_repairs") > 0,
        "chaos plan touched transfers"
    );
    assert!(m.counter("folders.members") > 0, "hot membership formed");
    assert_eq!(
        m.counter("sessions.started"),
        m.counter("sessions.completed"),
        "no session lost"
    );
}

/// With no fault plan every cloud is reachable on every step, so the
/// lanes' metadata ops are the run's counters priced at
/// `PROTOCOL_COSTS` — the fleet charges the one statement of the
/// protocol's cost and nothing else. Every step is charged on each
/// lane, except an oplog append's op-object reads: one per unread
/// object in total, dealt over the lanes.
#[test]
fn lanes_are_charged_the_protocol_costs() {
    let c = PROTOCOL_COSTS;
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let mut cfg = test_config(13);
        cfg.hot_folders = 2;
        cfg.fault_plan = FaultPlan::new(13);
        cfg.meta_mode = mode;
        let m = FleetSim::new(cfg).run();
        let n = |name| m.counter(name);
        let (priced, spread, exercised) = match mode {
            MetaMode::Lock => {
                // Every round but a head's further list uploads a lock
                // file, and every uploaded file is won or withdrawn.
                let polls = n("lock.head_polls");
                let uploads = n("lock.acquired") + n("lock.contended_rounds") - polls;
                (
                    uploads * c.lock_round
                        + polls * c.lock_poll
                        + n("lock.acquired") * c.lock_commit
                        + (uploads - n("lock.acquired")) * c.lock_withdraw,
                    0,
                    polls,
                )
            }
            MetaMode::Oplog => (
                n("oplog.appends") * c.oplog_append
                    + n("oplog.compactions") * c.oplog_compact
                    + n("oplog.op_deletes") * c.oplog_op_delete,
                n("oplog.op_file_reads") * c.oplog_op_file,
                n("oplog.compactions"),
            ),
        };
        assert!(exercised > 0, "{mode}: a head polled or the run compacted");
        let lanes = m.clouds.len() as u64;
        let charged: u64 = m.clouds.iter().map(|cloud| cloud.lock_ops).sum();
        assert_eq!(charged, lanes * priced + spread, "{mode}");
        for cloud in &m.clouds {
            // Dealt one read at a time, no lane takes much more than
            // its share of the reads.
            let share = cloud.lock_ops - priced;
            let fair = spread / lanes;
            assert!(share.abs_diff(fair) <= fair / 4 + 1, "{mode}: {}", cloud.name);
        }
    }
}

#[test]
fn quick_preset_json_has_schema_and_headline_fields() {
    let mut cfg = test_config(3);
    cfg.devices = 500;
    let json = FleetSim::new(cfg).run().to_json();
    for needle in [
        "\"bench_fleet\": \"unidrive/v1\"",
        "\"sync_latency_ns\"",
        "\"lock_wait_ns\"",
        "\"lock_rounds\"",
        "\"qps_peak\"",
        "\"invariants\"",
        "\"p99\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}
