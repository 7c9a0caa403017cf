//! # unidrive-fleet
//!
//! Fleet-scale deterministic simulation: 100k+ lightweight device
//! actors syncing through five consumer clouds, with chaos plans,
//! Zipf-hot shared folders, and per-cloud QPS shaping.
//!
//! The [`SimRuntime`](unidrive_sim::SimRuntime) used by the protocol
//! tests runs one OS thread per actor — perfect for exercising the
//! *real* `QuorumLock`/`SyncEngine` code, hopeless for populations.
//! This crate trades code-path fidelity for scale: devices are
//! analytic state machines driven by derived per-device RNG streams
//! and handled one event at a time by a single event loop, so a run's
//! metrics are a pure function of `(seed, config)`.
//!
//! * [`FleetConfig`] — population, horizon, QPS ceilings, metadata
//!   mode, and a [`FaultPlan`](unidrive_cloud::FaultPlan) chaos
//!   schedule ([`default_chaos_plan`] exercises every
//!   [`FaultKind`](unidrive_cloud::FaultKind)).
//! * [`FleetSim`] — the discrete-event engine (one sequential loop
//!   over lookahead windows, lazy device materialization,
//!   upload-then-commit sessions against quorum-locked hot folders,
//!   the product's `LockConfig` defaults, metadata steps charged at
//!   `unidrive_meta::PROTOCOL_COSTS`).
//! * [`FleetMetrics`] — counters, latency/wait/round histograms,
//!   per-cloud accounting, chaos-soak invariants, and the
//!   deterministic `BENCH_fleet.json` serialization.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
mod config;
mod engine;
mod metrics;

pub use config::{default_chaos_plan, FleetConfig};
pub use engine::{FleetSim, LOOKAHEAD_NS};
pub use metrics::{CloudRow, FleetMetrics, Invariant};
