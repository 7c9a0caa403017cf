//! # unidrive-core
//!
//! The UniDrive system itself (Middleware 2015): a server-less,
//! client-centric consumer-cloud-storage app that synergizes multiple
//! clouds through five public file-access operations.
//!
//! * **Control plane** — [`QuorumLock`] (empty-lock-file majority
//!   locking with ΔT lock breaking), the two
//!   [`MetaPlane`](unidrive_meta::MetaPlane)s — [`LockPlane`]
//!   (DES-encrypted base + delta + version files replicated to all
//!   clouds under the lock) and [`OplogPlane`] (one write-once op
//!   object per append, lock only for compaction) — and
//!   [`UniDriveClient::sync_once`] implementing the paper's Algorithm 1
//!   with three-way merge and conflict retention. Every metadata
//!   operation replicates through one per-cloud fan-out and fails
//!   through one error, [`PlaneError`](unidrive_meta::PlaneError).
//! * **Data plane** — [`DataPlane`]: content-defined segmentation,
//!   non-systematic Reed-Solomon blocks, even fair-share placement,
//!   **over-provisioning** onto idle fast clouds, the
//!   availability-first / reliability-second two-phase batch principle,
//!   pull-based download with in-channel probing, and add/remove-cloud
//!   rebalancing. `DataPlane` is the one door to block storage: every
//!   block put, get and delete — upload, download, garbage collection,
//!   [`remove_cloud`]/[`add_cloud`] and an idle pass's repair — is one
//!   batch of the one transfer engine, under a scheduling policy that
//!   is dynamic for upload and download and the static [`StaticPlan`]
//!   for the rest (outside this crate a batch is a `StaticPlan` run by
//!   [`run_batch`]). [`DataPlane::upload_files`] given a [`BlockSink`]
//!   returns once every file is available and reports each placement
//!   to the sink, the one way the client learns where a block landed.
//!   [`DataPlane::audit`] compares the block objects the clouds list
//!   with an image; the client's idle-pass scrub acts on it.
//!
//! The same code runs under wall-clock or deterministic virtual time —
//! see [`unidrive_sim`].
//!
//! # Example: two devices syncing through five simulated clouds
//!
//! See `examples/quickstart.rs` in the repository root.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod control;
mod dataplane;
mod download;
mod engine;
mod folder;
mod lock;
mod lock_plane;
mod oplog_plane;
mod plan;
mod probe;
mod quorum;
mod rebalance;
mod static_plan;
mod upload;

pub use client::{build_plane, ClientConfig, Keep, SyncError, SyncReport, UniDriveClient};
pub use control::newer;
pub use dataplane::{BlockAudit, DataPlane, FileSegmentation, LocalBase, PackSlot, UploadRequest};
pub use download::{DownloadError, DownloadReport, Member, SegmentFetch};
pub use engine::{run_batch, EngineParams, WireOp};
pub use folder::{DirFolder, FolderError, LocalChange, LocalStat, MemFolder, SyncFolder};
pub use lock::{LockGuard, QuorumLock};
pub use lock_plane::LockPlane;
pub use oplog_plane::OplogPlane;
pub use plan::{s3_cloud_set, DataPlaneConfig};
pub use probe::BandwidthProbe;
pub use rebalance::{add_cloud, remove_cloud, RebalanceError, RebalanceOutcome};
pub use static_plan::StaticPlan;
pub use unidrive_meta::LockConfig;
pub use upload::{BlockSink, FileUploadResult, UploadReport};
