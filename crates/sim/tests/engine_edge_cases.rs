//! Edge-case tests of the virtual-time engine: deadlock detection,
//! panicking tasks, flow conservation under churn, and timers.
//!
//! A test that could block forever runs its body through
//! [`panic_message_within`], so it fails at the harness timeout instead
//! of hanging the suite.

use std::sync::Arc;
use std::time::Duration;

use unidrive_sim::{spawn, LinkProfile, RealRuntime, Runtime, SimRng, SimRuntime};

const HARNESS_TIMEOUT: Duration = Duration::from_secs(10);

/// Runs `f` on a fresh thread and returns its panic message (`None` if
/// it returned). Fails the test if `f` is still blocked after
/// [`HARNESS_TIMEOUT`].
fn panic_message_within(f: impl FnOnce() + Send + 'static) -> Option<String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let _ = tx.send(outcome.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }));
    });
    rx.recv_timeout(HARNESS_TIMEOUT)
        .expect("still blocked at the harness timeout")
}

#[test]
fn deadlock_is_detected_and_reported() {
    // An actor waiting on a notifier nobody will ever notify, with no
    // timers and no flows: the engine must panic with a diagnostic
    // rather than hang.
    let message = panic_message_within(|| {
        let rt = SimRuntime::new(1).as_runtime();
        rt.notifier().wait(0);
    })
    .expect("deadlock must panic");
    assert!(
        message.contains("virtual-time deadlock"),
        "diagnostic missing: {message}"
    );
}

#[test]
fn a_deadlock_fails_every_parked_actor() {
    // Two actors park on a notifier nobody notifies while main joins
    // the first. The last actor to block finds the deadlock; main, parked
    // earlier, must panic with the same diagnostic instead of staying
    // parked.
    let message = panic_message_within(|| {
        let sim = SimRuntime::new(2);
        let rt = sim.clone().as_runtime();
        let cell = rt.notifier();
        let parked: Vec<_> = ["left", "right"]
            .into_iter()
            .map(|name| {
                let cell = Arc::clone(&cell);
                spawn(&rt, name, move || cell.wait(0))
            })
            .collect();
        for task in parked {
            task.join();
        }
    })
    .expect("the joining main actor must panic");
    assert!(message.contains("virtual-time deadlock"), "{message}");
    for actor in ["main (", "left (", "right ("] {
        assert!(message.contains(actor), "{actor} not listed: {message}");
    }
}

#[test]
fn joining_a_panicked_task_panics_under_the_sim() {
    let message = panic_message_within(|| {
        let rt = SimRuntime::new(3).as_runtime();
        spawn(&rt, "doomed", || -> u32 { panic!("task body fails") }).join();
    })
    .expect("join must panic");
    assert!(message.contains("task panicked"), "{message}");
}

#[test]
fn joining_a_panicked_task_panics_under_wall_clock() {
    let message = panic_message_within(|| {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        spawn(&rt, "doomed", || -> u32 { panic!("task body fails") }).join();
    })
    .expect("join must panic");
    assert!(message.contains("task panicked"), "{message}");
}

#[test]
fn flows_conserve_bytes_under_churn() {
    // Many staggered flows on one link: total virtual time must equal
    // total bytes / capacity when the link is saturated throughout.
    let sim = SimRuntime::new(3);
    let link = sim.add_link(LinkProfile::steady(10e6, 2e6)); // agg-limited
    let rt = sim.clone().as_runtime();
    let tasks: Vec<_> = (0..10)
        .map(|i| {
            let sim2 = sim.clone();
            spawn(&rt, &format!("f{i}"), move || {
                sim2.transfer(link, 1_000_000);
            })
        })
        .collect();
    for t in tasks {
        t.join();
    }
    // 10 MB over a 2 MB/s aggregate = 5 s exactly.
    assert!((sim.now().as_secs_f64() - 5.0).abs() < 0.01);
}

#[test]
fn zero_duration_sleep_returns_immediately() {
    let sim = SimRuntime::new(5);
    let before = sim.now();
    sim.sleep(Duration::ZERO);
    assert_eq!(sim.now(), before);
}

#[test]
fn many_links_advance_independently() {
    let sim = SimRuntime::new(6);
    let fast = sim.add_link(LinkProfile::steady(8e6, 8e6));
    let slow = sim.add_link(LinkProfile::steady(1e6, 1e6));
    let rt = sim.clone().as_runtime();
    let sim_a = sim.clone();
    let a = spawn(&rt, "fast", move || {
        sim_a.transfer(fast, 8_000_000);
        sim_a.now()
    });
    let sim_b = sim.clone();
    let b = spawn(&rt, "slow", move || {
        sim_b.transfer(slow, 8_000_000);
        sim_b.now()
    });
    assert_eq!(a.join().as_secs_f64(), 1.0);
    assert_eq!(b.join().as_secs_f64(), 8.0);
}

#[test]
fn rng_forks_are_deterministic_per_seed() {
    let draws = |seed: u64| {
        let sim = SimRuntime::new(seed);
        let mut rng = sim.fork_rng();
        (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draws(42), draws(42));
    assert_ne!(draws(42), draws(43));
    let _ = SimRng::seed_from_u64(1);
}
