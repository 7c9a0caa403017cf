//! # unidrive-sim
//!
//! Deterministic virtual-time runtime used throughout the UniDrive
//! reproduction (Middleware 2015).
//!
//! The UniDrive paper evaluates its multi-cloud sync client against five
//! commercial consumer cloud storage services from globally distributed
//! PlanetLab and EC2 nodes. This crate supplies the substitute substrate:
//! an engine under which the *unchanged* client code — real threads, real
//! blocking calls — executes against simulated network links whose
//! bandwidth fluctuates the way the paper measured, while a month of
//! experiments finishes in milliseconds.
//!
//! Two [`Runtime`] implementations exist:
//!
//! * [`SimRuntime`] — virtual time; threads are *actors* and time advances
//!   only when all actors are blocked; if nothing is pending then, every
//!   parked actor panics with a deadlock diagnostic. Network transfers
//!   are analytic flows with processor-sharing bandwidth
//!   ([`LinkProfile`]).
//! * [`RealRuntime`] — wall-clock time; used when syncing real
//!   directories in the examples.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use unidrive_sim::{spawn, LinkProfile, Runtime, SimRuntime};
//!
//! let sim = SimRuntime::new(7);
//! // 1 MB/s per connection, 2 MB/s aggregate.
//! let link = sim.add_link(LinkProfile::steady(1e6, 2e6));
//! let rt = sim.clone().as_runtime();
//!
//! let sim2 = sim.clone();
//! let t = spawn(&rt, "uploader", move || {
//!     sim2.transfer(link, 4_000_000); // 4 MB at 1 MB/s
//!     sim2.now()
//! });
//! assert_eq!(t.join().as_secs_f64(), 4.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod link;
mod real;
mod rng;
mod runtime;
mod time;

pub use engine::SimRuntime;
pub use link::{LinkId, LinkProfile};
pub use real::RealRuntime;
pub use rng::{SimRng, SplitMix64};
pub use runtime::{spawn, Notifier, Runtime, Task};
pub use time::Time;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn virtual_sleep_advances_clock_instantly() {
        let sim = SimRuntime::new(1);
        let wall = std::time::Instant::now();
        sim.sleep(Duration::from_secs(86_400));
        assert_eq!(sim.now(), Time::from_secs(86_400));
        assert!(wall.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn sleepers_wake_in_deadline_order() {
        let sim = SimRuntime::new(2);
        let rt = sim.clone().as_runtime();
        let order = Arc::new(unidrive_util::sync::Mutex::new(Vec::new()));
        let mut tasks = Vec::new();
        for (name, secs) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let rt2 = rt.clone();
            let order2 = Arc::clone(&order);
            tasks.push(spawn(&rt, name, move || {
                rt2.sleep(Duration::from_secs(secs));
                order2.lock().push(secs);
            }));
        }
        for t in tasks {
            t.join();
        }
        assert_eq!(*order.lock(), vec![10, 20, 30]);
    }

    #[test]
    fn two_flows_share_aggregate_capacity() {
        let sim = SimRuntime::new(3);
        // per-conn 2 MB/s, aggregate 2 MB/s: two flows get 1 MB/s each.
        let link = sim.add_link(LinkProfile::steady(2e6, 2e6));
        let rt = sim.clone().as_runtime();
        let mut tasks = Vec::new();
        for i in 0..2 {
            let sim2 = sim.clone();
            tasks.push(spawn(&rt, &format!("flow{i}"), move || {
                sim2.transfer(link, 2_000_000);
                sim2.now()
            }));
        }
        for t in tasks {
            // 2 MB at 1 MB/s (shared) = 2 s.
            assert_eq!(t.join().as_secs_f64(), 2.0);
        }
    }

    #[test]
    fn flow_speeds_up_when_competitor_finishes() {
        let sim = SimRuntime::new(4);
        let link = sim.add_link(LinkProfile::steady(2e6, 2e6));
        let rt = sim.clone().as_runtime();
        let sim_a = sim.clone();
        let a = spawn(&rt, "small", move || {
            sim_a.transfer(link, 1_000_000);
            sim_a.now()
        });
        let sim_b = sim.clone();
        let b = spawn(&rt, "large", move || {
            sim_b.transfer(link, 3_000_000);
            sim_b.now()
        });
        // Shared phase: both at 1 MB/s. Small (1 MB) done at t=1.
        assert_eq!(a.join().as_secs_f64(), 1.0);
        // Large: 1 MB in shared phase, 2 MB remaining alone at 2 MB/s => t=2.
        assert_eq!(b.join().as_secs_f64(), 2.0);
    }

    #[test]
    fn notifier_wakes_waiters_in_fifo_order() {
        // Same shape twice: the wake (and therefore append) order of
        // parked waiters must be their registration order, every run.
        let run = |seed| {
            let sim = SimRuntime::new(seed);
            let rt = sim.clone().as_runtime();
            let cell = rt.notifier();
            let order = Arc::new(unidrive_util::sync::Mutex::new(Vec::new()));
            let mut tasks = Vec::new();
            for i in 0..8u32 {
                let cell2 = Arc::clone(&cell);
                let order2 = Arc::clone(&order);
                tasks.push(spawn(&rt, &format!("w{i}"), move || {
                    let seen = cell2.generation();
                    cell2.wait(seen);
                    order2.lock().push(i);
                }));
            }
            // Broadcast from an actor behind a virtual-time sleep:
            // virtual time only advances once every waiter is parked,
            // so the single broadcast is guaranteed to find all eight
            // registered, in spawn order.
            let cell3 = Arc::clone(&cell);
            let rt2 = rt.clone();
            tasks.push(spawn(&rt, "poker", move || {
                rt2.sleep(Duration::from_secs(1));
                cell3.notify_all();
            }));
            for t in tasks {
                t.join();
            }
            Arc::try_unwrap(order).unwrap().into_inner()
        };
        assert_eq!(run(41), (0..8).collect::<Vec<_>>());
        assert_eq!(run(42), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn notifier_never_loses_a_wakeup() {
        // A broadcast that lands between reading the generation and
        // calling wait() must make wait() return immediately.
        let sim = SimRuntime::new(43);
        let rt = sim.clone().as_runtime();
        let cell = rt.notifier();
        let seen = cell.generation();
        cell.notify_all(); // no waiters parked: only the generation moves
        cell.wait(seen); // must not block — a block here would deadlock
        assert_eq!(cell.generation(), seen + 1);
    }

    #[test]
    fn notifier_works_under_real_runtime() {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let cell = rt.notifier();
        let seen = cell.generation();
        cell.notify_all();
        cell.wait(seen); // already notified: returns immediately
        let seen = cell.generation();
        let cell2 = Arc::clone(&cell);
        let t = spawn(&rt, "poker", move || cell2.notify_all());
        cell.wait(seen); // robust whether the poker beats us here or not
        t.join();
    }

    #[test]
    fn latency_is_charged_per_request() {
        let sim = SimRuntime::new(9);
        let profile = LinkProfile::steady(1e6, 1e6)
            .with_latency(Duration::from_millis(100), Duration::ZERO);
        let link = sim.add_link(profile);
        let t0 = sim.now();
        sim.transfer(link, 0); // pure-latency metadata op
        assert_eq!(sim.now() - t0, Duration::from_millis(100));
        sim.transfer(link, 1_000_000);
        assert_eq!(sim.now() - t0, Duration::from_millis(100 + 100 + 1000));
    }

    #[test]
    fn fluctuating_link_changes_transfer_times() {
        let sim = SimRuntime::new(10);
        let profile = LinkProfile::new(1e6, 5e6)
            .with_fluctuation(0.8, 0.1)
            .with_epoch(Duration::from_secs(30))
            .with_latency(Duration::ZERO, Duration::ZERO);
        let link = sim.add_link(profile);
        let mut times = Vec::new();
        for _ in 0..20 {
            let t0 = sim.now();
            sim.transfer(link, 8_000_000);
            times.push((sim.now() - t0).as_secs_f64());
            sim.sleep(Duration::from_secs(120));
        }
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.5, "expected fluctuation, min {min} max {max}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let sim = SimRuntime::new(seed);
            let profile = LinkProfile::new(1e6, 5e6).with_fluctuation(0.6, 0.05);
            let link = sim.add_link(profile);
            let mut trace = Vec::new();
            for _ in 0..10 {
                let t0 = sim.now();
                sim.transfer(link, 4_000_000);
                trace.push((sim.now() - t0).as_nanos());
                sim.sleep(Duration::from_secs(600));
            }
            trace
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn tasks_join_with_results() {
        let sim = SimRuntime::new(11);
        let rt = sim.clone().as_runtime();
        let tasks: Vec<_> = (0..8u64)
            .map(|i| {
                let rt2 = rt.clone();
                spawn(&rt, &format!("t{i}"), move || {
                    rt2.sleep(Duration::from_secs(i));
                    i * 2
                })
            })
            .collect();
        let total: u64 = tasks.into_iter().map(|t| t.join()).sum();
        assert_eq!(total, (0..8).map(|i| i * 2).sum());
    }

    #[test]
    fn many_concurrent_actors_make_progress() {
        let sim = SimRuntime::new(12);
        let link = sim.add_link(LinkProfile::steady(1e6, 4e6));
        let rt = sim.clone().as_runtime();
        let tasks: Vec<_> = (0..32)
            .map(|i| {
                let sim2 = sim.clone();
                spawn(&rt, &format!("w{i}"), move || {
                    for _ in 0..5 {
                        sim2.transfer(link, 500_000);
                    }
                })
            })
            .collect();
        for t in tasks {
            t.join();
        }
        // 32 workers * 5 transfers * 0.5 MB = 80 MB at 4 MB/s aggregate
        // >= 20 s total (per-conn limits can only slow it down).
        assert!(sim.now().as_secs_f64() >= 20.0);
    }
}
