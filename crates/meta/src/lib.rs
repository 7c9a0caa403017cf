//! # unidrive-meta
//!
//! The UniDrive metadata layer (paper §5): the single
//! [`SyncFolderImage`] metadata file with its deduplicating segment
//! pool, tree diff and three-way [`merge3`] with conflict retention,
//! the log-structured [`DeltaLog`] for Delta-sync, [`VersionStamp`]
//! version files, and the cloud-side object [`layout`](block_path).
//! Serialization uses a from-scratch checksummed binary [`codec`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod delta;
mod diff;
mod layout;
mod model;
mod op;
mod plane;

pub use delta::{compaction_threshold, DeltaLog, DeltaRecord, OPLOG_COMPACT_ESCALATE};
pub use diff::{diff, merge3, MergeOutcome};
pub use layout::{
    base_mark_path, block_path, lock_file_name, lock_file_path, op_file_path, op_object_path,
    parse_base_mark_name, parse_block_name, parse_lock_name, parse_op_object_name, BASE_PATH,
    BLOCKS_DIR, DELTA_PATH, LOCK_DIR, OPLOG_BASE_PATH, OPLOG_DIR, OP_FILE_PREFIX, ROOT_DIR,
    VERSION_PATH,
};
pub use model::{
    BlockRef, FileEntry, SegmentEntry, SegmentId, Snapshot, SyncFolderImage, VersionStamp,
    IMAGE_MAGIC, IMAGE_VERSION,
};
pub use op::{compact, fold, op_id, FoldOutcome, MetaOp, OplogBase};
pub use plane::{
    lock_verdict, LockConfig, LockVerdict, MergeFn, MetaMode, MetaPlane, PlaneError,
    ProtocolCosts, PROTOCOL_COSTS, STARVATION_AUDIT,
};
