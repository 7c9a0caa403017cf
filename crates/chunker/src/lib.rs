//! # unidrive-chunker
//!
//! Content-based file segmentation for UniDrive (paper §6.1): a
//! rolling hash finds content-defined cut points, and
//! [`segment_bytes`] produces SHA-1-addressed segments whose sizes
//! honour the paper's `(0.5 θ, 1.5 θ)` constraint. Stable boundaries
//! mean a local edit re-uploads only the touched segments, and
//! identical content dedups across files.
//!
//! The cut points come from one rolling hash, the paper's LBFS-style
//! [`RabinHash`] over a 48-byte [`WINDOW`], whose tables are
//! compile-time constants. A file is cut by one serial scan on the
//! caller's thread that skips the minimum-size region after each cut.
//! [`ChunkerConfig`] is θ alone.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chunker;
mod rabin;

pub use chunker::{cut_points, segment_bytes, ChunkerConfig, Segment};
pub use rabin::{RabinHash, DEFAULT_POLY, WINDOW};
