//! End-to-end checks of the `syncbench` binary in `--quick` mode. Run
//! them optimised (`cargo test --release`): a debug build of the
//! product crates makes the quick suite several times slower.

use std::path::{Path, PathBuf};
use std::process::Command;

use unidrive_bench::json::{parse_json, Json};

fn syncbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_syncbench"))
        .args(args)
        .output()
        .expect("run syncbench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// The metrics of the result line (the last line of stdout).
fn metrics(stdout: &str) -> Vec<(String, f64)> {
    let line = stdout.lines().last().expect("a result line");
    let doc = parse_json(line).expect("the result line is JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    doc.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).expect("a value"),
            )
        })
        .collect()
}

/// The metrics that are read from the virtual clock or counted, and so
/// must repeat to the last bit for a given seed.
const EXACT: [&str; 6] = [
    "sync_up_s",
    "sync_down_s",
    "converge_s",
    "cloud_ops_per_round",
    "wire_bytes_per_payload_byte",
    "stored_bytes_per_live_byte",
];

fn exact_metrics(workload: &str, seed: &str) -> Vec<(String, f64)> {
    let (ok, stdout) = syncbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--quick",
        "--trace",
        "0",
    ]);
    assert!(ok, "{workload} failed:\n{stdout}");
    metrics(&stdout)
        .into_iter()
        .filter(|(name, _)| EXACT.contains(&name.as_str()))
        .collect()
}

#[test]
fn virtual_time_workloads_repeat_exactly_and_follow_the_seed() {
    for workload in ["wan_batch", "hot_lock", "hot_oplog"] {
        let first = exact_metrics(workload, "7");
        assert_eq!(first.len(), EXACT.len());
        assert_eq!(
            first,
            exact_metrics(workload, "7"),
            "{workload}: same seed, different numbers"
        );
        assert_ne!(
            first,
            exact_metrics(workload, "8"),
            "{workload}: another seed, same numbers"
        );
    }
}

#[test]
fn quick_suite_report_validates_against_the_manifest() {
    let report = scratch("suite").join("report.json");
    let report = report.to_str().expect("utf-8 path");
    let (ok, stdout) = syncbench(&["--quick", "--out", report]);
    assert!(ok, "quick suite failed:\n{stdout}");
    let (ok, stdout) = syncbench(&["--validate", report]);
    assert!(ok, "report does not validate:\n{stdout}");

    // A report that lacks a workload must not validate.
    let text = std::fs::read_to_string(report).expect("read report");
    let cut = text.find("  \"hot_oplog\"").expect("hot_oplog row");
    let broken = format!("{}}}}}\n", text[..cut].trim_end().trim_end_matches(','));
    let broken_path = scratch("suite").join("broken.json");
    std::fs::write(&broken_path, broken).expect("write broken report");
    let (ok, _) = syncbench(&["--validate", broken_path.to_str().expect("utf-8 path")]);
    assert!(!ok, "a report without hot_oplog validated");
}

#[test]
fn traced_run_writes_a_loadable_trace_whose_pass_time_adds_up() {
    let dir = scratch("trace");
    let (ok, stdout) = syncbench(&[
        "--workload",
        "wire_small",
        "--quick",
        "--trace",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert!(ok, "traced wire_small failed:\n{stdout}");
    let ledger: std::collections::BTreeMap<String, f64> = metrics(&stdout).into_iter().collect();
    let parts = ledger["client.self_ms_per_round"]
        + ledger["client.wire_ms_per_round"]
        + ledger["folder.scan_ms_per_round"]
        + ledger["folder.read_ms_per_round"]
        + ledger["folder.write_ms_per_round"];
    let pass = ledger["client.pass_ms_per_round"];
    assert!(
        pass > 0.0 && (parts - pass).abs() <= 0.02 * pass,
        "parts {parts} ms, pass {pass} ms"
    );
    assert!(ledger["trace.spans"] > 0.0 && ledger["http.requests_per_cloud_op"] > 0.0);

    let trace = std::fs::read_to_string(dir.join("wire_small.trace.json")).expect("trace file");
    let doc = parse_json(&trace).expect("the trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .count()
    };
    assert!(
        named("round") >= 2 && named("sync_once") >= 4,
        "rounds and passes are in the trace"
    );
    for event in events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
    {
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(
                event.get(key).and_then(Json::as_f64).is_some(),
                "complete event lacks {key}"
            );
        }
    }
}
