//! # unidrive
//!
//! Facade crate for the UniDrive reproduction (Middleware 2015):
//! *UniDrive: Synergize Multiple Consumer Cloud Storage Services*.
//!
//! UniDrive is a server-less, client-centric consumer cloud storage (CCS)
//! app that synergizes multiple clouds using only five public RESTful file
//! APIs, achieving better sync performance, reliability and security than
//! any single CCS through erasure coding, quorum-locked metadata, block
//! over-provisioning and dynamic scheduling.
//!
//! This crate re-exports the whole workspace; see the individual crates
//! for details:
//!
//! * [`sim`] — deterministic virtual-time runtime and network model
//! * [`cloud`] — the five-op cloud storage abstraction and backends
//! * [`erasure`] — GF(2⁸) non-systematic Reed-Solomon coding
//! * [`chunker`] — content-defined segmentation (Rabin rolling hash)
//! * [`crypto`] — SHA-1 and DES-CBC (as named by the paper)
//! * [`meta`] — SyncFolderImage metadata model with delta-sync
//! * [`core`] — quorum lock, sync protocol, the over-provisioning
//!   scheduler, and [`core::UniDriveClient`]
//! * [`baseline`] — single-cloud and multi-cloud baselines from the paper
//! * [`workload`] — network profiles and evaluation workloads
//! * [`obs`] — virtual-time-aware metrics registry and span trace
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete two-device sync over five
//! simulated clouds.

pub use unidrive_baseline as baseline;
pub use unidrive_chunker as chunker;
pub use unidrive_cloud as cloud;
pub use unidrive_core as core;
pub use unidrive_crypto as crypto;
pub use unidrive_erasure as erasure;
pub use unidrive_meta as meta;
pub use unidrive_obs as obs;
pub use unidrive_sim as sim;
pub use unidrive_util as util;
pub use unidrive_workload as workload;
