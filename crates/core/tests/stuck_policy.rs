//! A policy that breaks the engine's deadlock-safety invariant (never
//! done, never hands out a job) must fail the run, not hang it: under
//! the simulator every worker parks on the engine's notifier, the
//! simulator finds nothing pending, and the joining caller panics with
//! a diagnostic naming each parked worker.

use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudId, CloudSet, CloudStore, MemCloud, RetryPolicy};
use unidrive_core::{run_batch, EngineParams, JobDesc, TransferPolicy};
use unidrive_obs::Obs;
use unidrive_sim::{SimRuntime, Time};
use unidrive_util::bytes::Bytes;

/// Never done, never hands out work: the shape of a scheduler bug where
/// workers park on the notifier with nothing in flight.
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
fn a_stuck_policy_fails_the_run_naming_every_worker() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            let rt = SimRuntime::new(7).as_runtime();
            let clouds = CloudSet::new(
                (0..2)
                    .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                    .collect(),
            );
            let params = EngineParams::new("stuck", 2, RetryPolicy::new(), Obs::noop());
            run_batch(&rt, &clouds, params, None, &[], StuckPolicy);
        });
        let message = outcome.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        });
        let _ = tx.send(message);
    });
    let message = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("run_batch still blocked at the harness timeout")
        .expect("a stuck batch must panic");
    assert!(message.contains("virtual-time deadlock"), "{message}");
    for worker in ["stuck-c0-0", "stuck-c0-1", "stuck-c1-0", "stuck-c1-1"] {
        assert!(message.contains(worker), "{worker} not named: {message}");
    }
}
