//! # unidrive-cloud
//!
//! The minimal consumer-cloud-storage abstraction UniDrive builds on:
//! a [`CloudStore`] trait with exactly the five public RESTful Web API
//! operations every CCS offers third-party apps (paper §4) — upload,
//! download, create directory, list, delete — plus the backends and
//! decorators the reproduction needs:
//!
//! * [`MemCloud`] — instantaneous in-memory store (tests).
//! * [`SimCloud`] — a cloud behind a simulated network with fluctuating
//!   bandwidth, latency, size-dependent transient failures, degraded
//!   windows, quotas, and outage switches (the evaluation substrate).
//! * [`LocalDirCloud`] — a directory on disk (real-bytes examples).
//! * [`ChaosCloud`] / [`FaultPlan`] — deterministic scheduled fault
//!   injection (transient bursts, outages, quota exhaustion, latency
//!   spikes, torn uploads, delayed visibility) over any store.
//! * [`ObservedCloud`] — the measurement decorator (per-op timing,
//!   attempt/error/byte series over any store).
//! * [`Retry`] / [`RetryPolicy`] — bounded-backoff retries for
//!   transient Web API failures, applied per call site.
//! * [`TokenBucket`] / [`QpsSeries`] — deterministic per-cloud
//!   request-rate shaping and accounting for the fleet simulator.
//! * [`CloudBuilder`] — composes the fault-injection and measurement
//!   decorators in one canonical order (base → chaos → observed).
//! * [`S3Cloud`] / [`MockS3`] — a real HTTP backend speaking the
//!   S3-compatible REST dialect over the std-only pooled
//!   [`http::HttpClient`], plus the in-process server the integration
//!   tests run it against.
//!
//! See the crate-level example on [`CloudStore`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
pub mod contract;
mod error;
pub mod fault;
pub mod http;
mod local;
mod mem;
mod mock_s3;
mod observed;
mod qps;
mod retry;
mod s3;
mod sim_cloud;
mod store;

pub use builder::{BuiltCloud, CloudBuilder};
pub use error::{CloudError, CloudOp};
pub use fault::{ChaosCloud, FaultEvent, FaultKind, FaultPlan};
pub use local::LocalDirCloud;
pub use mem::MemCloud;
pub use mock_s3::MockS3;
pub use observed::ObservedCloud;
pub use qps::{QpsSeries, TokenBucket};
pub use retry::{Retry, RetryPolicy};
pub use s3::{S3Cloud, S3Endpoint};
pub use sim_cloud::{FailureProfile, SimCloud, SimCloudConfig, TrafficSnapshot};
pub use store::{
    split_path, validate_path, CloudCaps, CloudId, CloudSet, CloudStore, ObjectInfo,
};
