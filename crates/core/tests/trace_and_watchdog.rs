//! Regression tests for the engine's stall watchdog and flight
//! recorder (the PR 2 bounce-loop class of hang): a policy that parks
//! every worker forever must not hang `join`, and a hard block failure
//! must leave a flight record behind for post-mortem analysis.

use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudId, CloudSet, CloudStore, MemCloud, RetryPolicy};
use unidrive_core::{
    EngineParams, JobDesc, TransferEngine, TransferPolicy, WatchdogConfig, WireOp,
};
use unidrive_obs::Obs;
use unidrive_sim::{SimRuntime, Time};
use unidrive_util::bytes::Bytes;

fn dump_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("unidrive-flight-{tag}-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn params(label: &str, connections: usize) -> EngineParams {
    EngineParams::new(label, connections, RetryPolicy::new(), Obs::noop())
}

fn mem_clouds(n: usize) -> CloudSet {
    CloudSet::new(
        (0..n)
            .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
            .collect(),
    )
}

/// Never done, never hands out work: the exact shape of a scheduler
/// bug where workers park on the notifier with nothing in flight.
struct StuckPolicy;

impl TransferPolicy for StuckPolicy {
    type Token = ();

    fn next_job(&mut self, _cloud: CloudId) -> Option<JobDesc<()>> {
        None
    }

    fn is_done(&self) -> bool {
        false
    }

    fn on_success(&mut self, _: CloudId, _: (), _: Option<Bytes>, _: Time) {}

    fn on_failure(&mut self, _: CloudId, _: (), _: CloudError, _: Time) {}
}

#[test]
fn watchdog_unsticks_a_stalled_batch_and_dumps_a_flight_record() {
    let sim = SimRuntime::new(7);
    let rt = sim.clone().as_runtime();
    let clouds = mem_clouds(2);
    let path = dump_path("stall");
    let _ = std::fs::remove_file(&path);

    let mut params = params("stall-test", 2);
    params.watchdog = Some(WatchdogConfig {
        deadline: Duration::from_secs(5),
        dump_path: path.clone(),
    });
    let engine = TransferEngine::start(&rt, &clouds, params, StuckPolicy);
    // Without the watchdog this join never returns: every worker is
    // parked on the notifier and nothing will ever notify.
    engine.join();

    assert!(
        rt.now() >= Time::from_nanos(0) + Duration::from_secs(5),
        "watchdog fired before its deadline"
    );
    let record = std::fs::read_to_string(&path).expect("flight record written");
    assert!(record.contains("\"reason\": \"stall\""), "{record}");
    assert!(record.contains("\"label\": \"stall-test\""), "{record}");
    // All four (cloud, connection) worker slots are reported.
    assert_eq!(record.matches("\"conn\":").count(), 4, "{record}");
    let _ = std::fs::remove_file(&path);
}

/// Dispatches exactly one download of an object that does not exist
/// (a non-retryable hard failure), then finishes.
struct OneShotMissing {
    dispatched: bool,
    done: bool,
}

impl TransferPolicy for OneShotMissing {
    type Token = ();

    fn next_job(&mut self, _cloud: CloudId) -> Option<JobDesc<()>> {
        if self.dispatched {
            return None;
        }
        self.dispatched = true;
        Some(JobDesc {
            token: (),
            index: 0,
            extra: false,
            parent_span: None,
            op: WireOp::Download {
                path: "seg/missing-block".to_owned(),
            },
        })
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn on_success(&mut self, _: CloudId, _: (), _: Option<Bytes>, _: Time) {
        self.done = true;
    }

    fn on_failure(&mut self, _: CloudId, _: (), _: CloudError, _: Time) {
        self.done = true;
    }
}

#[test]
fn hard_block_failure_dumps_a_flight_record_before_the_batch_ends() {
    let sim = SimRuntime::new(11);
    let rt = sim.clone().as_runtime();
    let clouds = mem_clouds(1);
    let path = dump_path("failure");
    let _ = std::fs::remove_file(&path);

    let mut params = params("failure-test", 1);
    params.watchdog = Some(WatchdogConfig {
        // Generous deadline: the dump below must come from the failed
        // block, not from a stall.
        deadline: Duration::from_secs(3600),
        dump_path: path.clone(),
    });
    let engine = TransferEngine::start(
        &rt,
        &clouds,
        params,
        OneShotMissing {
            dispatched: false,
            done: false,
        },
    );
    let policy = engine.join();
    assert!(policy.is_done());

    let record = std::fs::read_to_string(&path).expect("flight record written");
    assert!(record.contains("\"reason\": \"block_failure\""), "{record}");
    assert!(record.contains("\"failed\": 1"), "{record}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn no_watchdog_means_no_dump_file() {
    let sim = SimRuntime::new(13);
    let rt = sim.clone().as_runtime();
    let clouds = mem_clouds(1);
    let path = dump_path("absent");
    let _ = std::fs::remove_file(&path);

    let engine = TransferEngine::start(
        &rt,
        &clouds,
        params("plain-test", 1),
        OneShotMissing {
            dispatched: false,
            done: false,
        },
    );
    let policy = engine.join();
    assert!(policy.is_done());
    assert!(
        !std::path::Path::new(&path).exists(),
        "dump written without a watchdog configured"
    );
}
