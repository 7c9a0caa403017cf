//! Integration tests of the observability subsystem wired through a
//! full two-device sync: five simulated clouds behind deterministic
//! failure injection, one registry shared by both clients, and the
//! snapshot reconciled against ground truth (injected fault counts,
//! lock round-trips, block completions).

use std::sync::Arc;

use unidrive::cloud::{
    CloudBuilder, CloudSet, CloudStore, FaultEvent, FaultKind, FaultPlan, SimCloud, SimCloudConfig,
};
use unidrive::core::{ClientConfig, DataPlaneConfig, MemFolder, SyncFolder, UniDriveClient};
use unidrive::erasure::RedundancyConfig;
use unidrive::core::SyncReport;
use unidrive::obs::{bundle_json, Obs, Registry, Snapshot};
use unidrive::sim::{Runtime, SimRng, SimRuntime};

const FAILURE_PROB: f64 = 0.08;

struct RunResult {
    /// Canonicalized export of the whole run (trace + metrics).
    json: String,
    /// Ground truth: failures the wrappers actually injected.
    injected: u64,
    snapshot: Snapshot,
}

/// One full scenario: device A commits a multi-segment file through
/// faulty clouds, device B pulls it, everything records into a single
/// registry clocked by the sim.
fn run_scenario(seed: u64) -> RunResult {
    let sim = SimRuntime::new(seed);
    let obs = Obs::with_registry(Registry::with_trace_capacity(1 << 16));
    let mut faulty = Vec::new();
    let members: Vec<Arc<dyn CloudStore>> = (0..5u64)
        .map(|i| {
            let name = format!("cloud{i}");
            let inner = Arc::new(SimCloud::new(
                &sim,
                name.clone(),
                SimCloudConfig::steady(2e6, 8e6),
            ));
            inner.install_obs(obs.clone());
            let rt = sim.clone().as_runtime();
            let flat = FaultKind::TransientBurst { probability: FAILURE_PROB };
            let plan = FaultPlan::with_events(seed * 31 + i, vec![FaultEvent::always(name, flat)]);
            let built = CloudBuilder::new(&rt, inner as Arc<dyn CloudStore>)
                .chaos(&plan, "")
                .obs(&obs)
                .build();
            faulty.push(built.chaos.expect("chaos stage configured"));
            built.store
        })
        .collect();
    let clouds = CloudSet::new(members);

    let client = |device: &str, folder: &Arc<MemFolder>, cseed: u64| {
        let mut config = ClientConfig::paper_default(device);
        config.data = DataPlaneConfig {
            obs: obs.clone(),
            ..DataPlaneConfig::with_params(
                RedundancyConfig::new(5, 3, 3, 2).unwrap(),
                64 * 1024, // small θ: many blocks, many chances to fail
            )
        };
        UniDriveClient::new(
            sim.clone().as_runtime(),
            clouds.clone(),
            Arc::clone(folder) as Arc<dyn SyncFolder>,
            config,
            SimRng::seed_from_u64(cseed),
        )
    };

    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client("device-a", &folder_a, 1);
    let mut b = client("device-b", &folder_b, 2);

    // A burst of injected failures can cost a whole sync round (e.g.
    // the lock quorum appears unreachable); retry like the real client
    // daemon would. Determinism is unaffected — the retries themselves
    // are part of the seeded schedule.
    let sync_until = |c: &mut UniDriveClient, what: &str| -> SyncReport {
        for _ in 0..10 {
            match c.sync_once() {
                Ok(rep) => return rep,
                Err(_) => sim.sleep(std::time::Duration::from_secs(5)),
            }
        }
        panic!("{what} failed 10 sync rounds in a row");
    };

    let data: Vec<u8> = (0..600_000).map(|i| (i % 251) as u8).collect();
    folder_a.write("big.bin", &data, 1).unwrap();
    let up = sync_until(&mut a, "A commit");
    assert_eq!(up.uploaded, vec!["big.bin"]);
    let down = sync_until(&mut b, "B fetch");
    assert_eq!(down.downloaded, vec!["big.bin"]);
    assert_eq!(folder_b.read("big.bin").unwrap().to_vec(), data);
    // Overwriting the file makes A's next commit collect the first
    // version's segments: a `gc` batch on the transfer engine.
    let edited: Vec<u8> = data.iter().map(|b| b ^ 0x5a).collect();
    folder_a.write("big.bin", &edited, 2).unwrap();
    let up = sync_until(&mut a, "A overwrite");
    assert_eq!(up.uploaded, vec!["big.bin"]);

    let mut snapshot = obs.snapshot().unwrap();
    snapshot.canonicalize();
    RunResult {
        json: bundle_json(Some(&snapshot), None),
        injected: faulty.iter().map(|f| f.injected_faults()).sum(),
        snapshot,
    }
}

#[test]
fn two_device_sync_records_lock_block_and_retry_metrics() {
    let r = run_scenario(0xb5);
    let s = &r.snapshot;

    // The commit path took (and released) the quorum lock, and the
    // wait-latency histogram saw every acquisition.
    assert!(s.counter("lock.acquired") > 0, "no lock acquisitions");
    assert_eq!(s.counter("lock.acquired"), s.counter("lock.released"));
    assert_eq!(
        s.histogram("lock.acquire_wait_ns").expect("lock hist").count,
        s.counter("lock.acquired"),
    );

    // Both directions of the data plane moved blocks.
    assert!(s.counter("upload.blocks_completed") > 0, "no uploads");
    assert!(s.counter("download.blocks_completed") > 0, "no downloads");
    assert!(s.counter("client.sync_rounds.committed") > 0);
    assert!(s.counter("client.sync_rounds.fetched") > 0);
    assert_eq!(
        s.counter("client.sync_rounds"),
        s.counter_sum("client.sync_rounds."),
        "every sync round has exactly one outcome label"
    );

    // Retry accounting reconciles with the faults actually injected:
    // the registry saw exactly the wrappers' count, and every observed
    // data-plane retry was caused by one of them.
    assert!(r.injected > 0, "scenario injected no failures; raise prob");
    let observed_injected: u64 = s
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("chaos.") && name.ends_with(".injected"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(observed_injected, r.injected);
    assert!(s.counter("retry.attempts") > 0, "faults but no retries");
    assert!(s.counter("retry.attempts") <= r.injected);
    assert!(s.counter("retry.recovered") > 0, "no retried op recovered");

    // The virtual clock stamped the trace (nothing at wall time zero
    // only), and nothing was silently dropped at this capacity.
    assert_eq!(s.dropped_spans, 0);
    assert!(s.spans.iter().any(|sp| sp.start_ns > 0), "unclocked trace");
}

#[test]
fn same_seed_two_device_sync_exports_identical_snapshots() {
    let first = run_scenario(0xb5);
    let second = run_scenario(0xb5);
    assert_eq!(first.injected, second.injected);
    assert!(
        first.json.contains("\"traceEvents\": [\n{"),
        "export carries no trace"
    );
    assert_eq!(first.json, second.json, "same-seed exports diverged");
}

#[test]
fn spans_form_a_causal_tree_rooted_at_sync_rounds() {
    let r = run_scenario(0xb5);
    let s = &r.snapshot;
    assert_eq!(s.dropped_spans, 0, "span ring evicted; raise capacity");

    let by_id: std::collections::HashMap<u64, &unidrive::obs::SpanRecord> =
        s.spans.iter().map(|sp| (sp.id, sp)).collect();
    let parent_name = |sp: &unidrive::obs::SpanRecord| -> &'static str {
        by_id
            .get(&sp.parent)
            .unwrap_or_else(|| panic!("{} span {} has unrecorded parent {}", sp.name, sp.id, sp.parent))
            .name
    };

    // Every block attempt parents to a transfer batch, every batch to
    // the sync round that issued it, and every wire attempt to its
    // block — the full causal chain of Algorithm 1's data path.
    let mut blocks = 0;
    for sp in &s.spans {
        match sp.name {
            "engine.block" => {
                blocks += 1;
                assert_eq!(parent_name(sp), "engine.batch");
                let batch = by_id[&sp.parent];
                assert_eq!(parent_name(batch), "sync.round");
            }
            "engine.batch" => assert_eq!(parent_name(sp), "sync.round"),
            "engine.worker" => assert_eq!(parent_name(sp), "engine.batch"),
            "wire.attempt" => assert_eq!(parent_name(sp), "engine.block"),
            "lock.acquire" | "meta.read" | "meta.merge" | "meta.commit" => {
                assert_eq!(parent_name(sp), "sync.round");
            }
            "lock.refresh" | "lock.release" | "lock.break" | "lock.contended" => {
                assert_eq!(parent_name(sp), "lock.acquire");
            }
            "sync.round" => assert_eq!(sp.parent, 0, "sync.round must be a root"),
            // Instants from below the client: no span context reaches
            // the simulator, the cloud or the fault injector.
            "sim.flow_started" | "sim.flow_finished" | "cloud.op_failed" | "chaos.fault" => {
                assert_eq!(
                    (sp.parent, sp.duration_ns()),
                    (0, 0),
                    "{} is a root instant",
                    sp.name
                );
            }
            other => panic!("span name {other} missing from the taxonomy check"),
        }
        assert!(sp.end_ns >= sp.start_ns, "{} runs backwards", sp.name);
    }
    assert!(blocks > 0, "scenario moved no blocks");
    // Upload, download and garbage collection all ran as batches of the
    // one engine (each parented to its sync round, checked above).
    for label in ["upload", "download", "gc"] {
        let wanted = unidrive::obs::FieldValue::S(label.to_owned());
        assert!(
            s.spans
                .iter()
                .any(|sp| sp.name == "engine.batch" && sp.attr("label") == Some(&wanted)),
            "no {label} batch in the trace"
        );
    }
    assert!(s.span_count("sync.round") >= 2, "both devices synced");
    assert!(s.span_count("meta.merge") > 0, "commit path never merged");
}
