//! Integration tests of the observability subsystem wired through a
//! full two-device sync: five simulated clouds behind deterministic
//! failure injection, one registry shared by both clients, and its
//! series reconciled against ground truth (injected fault counts) and
//! against the span trace (lock acquisitions, sync rounds).

use std::sync::Arc;

use unidrive::cloud::{
    CloudBuilder, CloudSet, CloudStore, FaultEvent, FaultKind, FaultPlan, SimCloud, SimCloudConfig,
};
use unidrive::core::{ClientConfig, DataPlaneConfig, MemFolder, SyncFolder, UniDriveClient};
use unidrive::erasure::RedundancyConfig;
use unidrive::core::SyncReport;
use unidrive::meta::MetaMode;
use unidrive::obs::{bundle_json, FieldValue, Obs, Registry, SeriesSnapshot, Snapshot};
use unidrive::sim::{Runtime, SimRng, SimRuntime};

const FAILURE_PROB: f64 = 0.08;

struct RunResult {
    /// Canonicalized export of the whole run (trace + series).
    json: String,
    /// Ground truth: failures the wrappers actually injected.
    injected: u64,
    snapshot: Snapshot,
    series: SeriesSnapshot,
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
    // A pass returns once its files are available; its detached
    // reliability uploads (one may be retrying an injected fault) land
    // after it. Let them, so the trace holds finished work only.
    sim.sleep(std::time::Duration::from_secs(60));

    let mut snapshot = obs.snapshot().unwrap();
    snapshot.canonicalize();
    let series = obs.series_snapshot().unwrap();
    RunResult {
        json: bundle_json(Some(&snapshot), Some(&series.to_json())),
        injected: faulty.iter().map(|f| f.injected_faults()).sum(),
        snapshot,
        series,
    }
}

#[test]
fn two_device_sync_records_lock_block_and_retry_metrics() {
    let r = run_scenario(0xb5);
    let s = &r.snapshot;
    let total = |metric| r.series.merged(metric);
    let outcome = |label| r.series.entry("client.sync_rounds", label).map_or(0, |e| e.merged().sum);

    // The commit path took (and released) the quorum lock: one wait
    // sample per acquisition the trace shows succeeding.
    let acquired = s
        .spans
        .iter()
        .filter(|sp| sp.name == "lock.acquire" && sp.attr("ok") == Some(&FieldValue::B(true)))
        .count() as u64;
    assert!(acquired > 0, "no lock acquisitions");
    assert_eq!(total("lock.wait_ns").count, acquired);
    assert_eq!(total("lock.released").sum, acquired);

    // Both directions of the data plane moved blocks.
    assert!(total("upload.block_ns").count > 0, "no uploads");
    assert!(total("download.block_ns").count > 0, "no downloads");
    assert!(outcome("committed") > 0);
    assert!(outcome("fetched") > 0);
    assert_eq!(
        total("client.sync_rounds").sum,
        s.span_count("sync.round") as u64,
        "every sync round is counted under exactly one outcome label"
    );

    // Retry accounting reconciles with the faults actually injected:
    // the registry saw exactly the wrappers' count, and every observed
    // data-plane retry (one backoff sample each) was caused by one of
    // them.
    assert!(r.injected > 0, "scenario injected no failures; raise prob");
    assert_eq!(total("chaos.injected").sum, r.injected);
    let retries = total("retry.backoff_ns").count;
    assert!(retries > 0, "faults but no retries");
    assert!(retries <= r.injected);
    assert!(total("retry.recovered").sum > 0, "no retried op recovered");

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
            "download.decode" => {
                let batch = by_id[&sp.parent];
                assert_eq!(batch.name, "engine.batch");
                assert_eq!(batch.attr("label"), Some(&FieldValue::S("download".to_owned())));
                assert!(matches!(sp.attr("bytes"), Some(FieldValue::U(n)) if *n > 0));
                assert!(matches!(sp.attr("members"), Some(FieldValue::U(_))), "decode without members");
                assert_eq!(sp.attr("ok"), Some(&FieldValue::B(true)), "no block was corrupt");
                assert!(sp.track > 0, "decoded off the worker lanes");
            }
            "upload.ingest" => {
                assert_eq!(parent_name(sp), "sync.round");
                for attr in ["files", "bytes", "reused_bytes", "threads", "packed_files", "packs"] {
                    assert!(matches!(sp.attr(attr), Some(FieldValue::U(_))), "ingest without {attr}");
                }
            }
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
    // The worker that completes a segment's k blocks decodes it: one
    // decode per fetched segment, each recorded by that worker.
    let fetched: u64 = s
        .spans
        .iter()
        .filter(|sp| sp.name == "engine.batch")
        .filter_map(|sp| match sp.attr("fetched") {
            Some(FieldValue::U(n)) => Some(*n),
            _ => None,
        })
        .sum();
    assert!(fetched > 0, "no segment was fetched");
    assert_eq!(s.span_count("download.decode") as u64, fetched);
    // A pass that uploads cuts and hashes its files first: one ingest
    // span per upload batch, under the same round, ended before the
    // batch begins.
    let upload_batches: Vec<_> = s
        .spans
        .iter()
        .filter(|sp| sp.name == "engine.batch")
        .filter(|sp| sp.attr("label") == Some(&FieldValue::S("upload".to_owned())))
        .collect();
    assert_eq!(s.span_count("upload.ingest"), upload_batches.len());
    for batch in upload_batches {
        let ingest = s
            .spans
            .iter()
            .find(|sp| sp.name == "upload.ingest" && sp.parent == batch.parent)
            .expect("an upload batch without its ingest");
        assert!(ingest.end_ns <= batch.start_ns, "ingest overlaps its batch");
    }
    assert!(s.span_count("sync.round") >= 2, "both devices synced");
    assert!(s.span_count("meta.merge") > 0, "commit path never merged");
}

/// A pass of small files says what it packed: its ingest span counts
/// the files it packed and the packs it made, and each pack's decode
/// on the reader counts the members wanted out of it.
#[test]
fn a_small_file_pass_reports_its_packs_and_their_members() {
    let sim = SimRuntime::new(0x5a);
    let obs = Obs::with_registry(Registry::with_trace_capacity(1 << 16));
    let clouds = CloudSet::new(
        (0..5)
            .map(|i| {
                let cloud = SimCloud::new(&sim, format!("cloud{i}"), SimCloudConfig::steady(2e6, 8e6));
                Arc::new(cloud) as Arc<dyn CloudStore>
            })
            .collect(),
    );
    let client = |device: &str, folder: &Arc<MemFolder>, seed: u64| {
        let mut config = ClientConfig::paper_default(device);
        config.data = DataPlaneConfig {
            obs: obs.clone(),
            // θ = 64 KiB: files under 1 KiB are small, packs hold 2 KiB.
            ..DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), 64 * 1024)
        };
        let sync_folder = Arc::clone(folder) as Arc<dyn SyncFolder>;
        UniDriveClient::new(sim.clone().as_runtime(), clouds.clone(), sync_folder, config, SimRng::seed_from_u64(seed))
    };
    let (folder_a, folder_b) = (MemFolder::new(), MemFolder::new());
    let (mut a, mut b) = (client("a", &folder_a, 1), client("b", &folder_b, 2));
    for i in 0..8u8 {
        let data: Vec<u8> = (0..400 + 20 * usize::from(i % 4)).map(|j| (j as u8) ^ i).collect();
        folder_a.write(&format!("s/f{i}"), &data, 1).unwrap();
    }
    assert_eq!(a.sync_once().unwrap().uploaded.len(), 8);
    assert_eq!(b.sync_once().unwrap().downloaded.len(), 8);

    let s = obs.snapshot().unwrap();
    let u = |sp: &unidrive::obs::SpanRecord, attr: &str| match sp.attr(attr) {
        Some(FieldValue::U(n)) => *n,
        other => panic!("{} {attr}: {other:?}", sp.name),
    };
    let ingests: Vec<_> = s.spans.iter().filter(|sp| sp.name == "upload.ingest").collect();
    assert_eq!(ingests.len(), 1);
    assert_eq!((u(ingests[0], "packed_files"), u(ingests[0], "packs")), (8, 2));
    let decodes: Vec<u64> =
        s.spans.iter().filter(|sp| sp.name == "download.decode").map(|sp| u(sp, "members")).collect();
    assert_eq!(decodes, vec![4, 4], "one decode per pack, four members each");
}

/// On the oplog plane every fold span says how many op objects its pass
/// downloaded: a reader's first pass reads the writer's one op object
/// once over all five clouds, and its next pass reads nothing.
#[test]
fn an_oplog_fold_span_counts_its_op_object_downloads() {
    let sim = SimRuntime::new(0xf0);
    let obs = Obs::with_registry(Registry::with_trace_capacity(1 << 14));
    let members: Vec<Arc<dyn CloudStore>> = (0..5)
        .map(|i| {
            let cloud = SimCloud::new(&sim, format!("cloud{i}"), SimCloudConfig::steady(2e6, 8e6));
            Arc::new(cloud) as Arc<dyn CloudStore>
        })
        .collect();
    let clouds = CloudSet::new(members);
    let client = |device: &str, folder: &Arc<MemFolder>, seed: u64| {
        let mut config = ClientConfig::paper_default(device);
        config.meta_mode = MetaMode::Oplog;
        config.data.obs = obs.clone();
        UniDriveClient::new(
            sim.clone().as_runtime(),
            clouds.clone(),
            Arc::clone(folder) as Arc<dyn SyncFolder>,
            config,
            SimRng::seed_from_u64(seed),
        )
    };
    let (folder_a, folder_b) = (MemFolder::new(), MemFolder::new());
    let mut a = client("device-a", &folder_a, 1);
    let mut b = client("device-b", &folder_b, 2);
    folder_a.write("f.txt", b"one op object", 1).unwrap();
    a.sync_once().expect("A commits");
    b.sync_once().expect("B fetches");
    b.sync_once().expect("B polls");
    assert_eq!(folder_b.read("f.txt").unwrap().to_vec(), b"one op object");

    let s = obs.snapshot().unwrap();
    let downloads: Vec<u64> = s
        .spans
        .iter()
        .filter(|sp| sp.name == "meta.oplog.fold")
        .filter(|sp| sp.attr("device") == Some(&FieldValue::S("device-b".to_owned())))
        .map(|sp| match sp.attr("downloads") {
            Some(FieldValue::U(n)) => *n,
            other => panic!("a fold span without downloads: {other:?}"),
        })
        .collect();
    assert_eq!(downloads, [1, 0]);
}
