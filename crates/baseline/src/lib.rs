//! # unidrive-baseline
//!
//! The three comparison systems of the UniDrive evaluation (paper §7.1):
//!
//! * [`SingleCloudClient`] — a native CCS app's transfer engine: chunked
//!   multi-connection transfer to one cloud.
//! * [`IntuitiveMultiCloud`] — file parts handed to N native apps; no
//!   redundancy, completion dominated by the slowest cloud.
//! * [`MultiCloudBenchmark`] — RACS/DepSky-style: erasure-coded, evenly
//!   distributed, statically scheduled (no over-provisioning, no dynamic
//!   scheduling).
//! * [`UniDriveTransfer`] — UniDrive's own data plane behind the same
//!   interface so the harness can compare all four uniformly.
//!
//! All three baselines run on the same pull-based transfer engine as
//! UniDrive's own data plane, each batch a
//! [`StaticPlan`](unidrive_core::StaticPlan) (the same static policy
//! UniDrive's own GC and rebalancing use) through
//! [`run_batch`](unidrive_core::run_batch) — they differ only in how
//! they build the plan. That keeps the comparison about *scheduling*,
//! not about transfer-loop plumbing, and gives them the same retry and
//! observability wiring for free.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod benchmark;
mod intuitive;
mod single;
mod unidrive_transfer;

pub use benchmark::{MultiCloudBenchmark, SegmentManifest};
pub use intuitive::IntuitiveMultiCloud;
pub use single::SingleCloudClient;
pub use unidrive_transfer::UniDriveTransfer;
