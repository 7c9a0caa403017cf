//! # unidrive-chunker
//!
//! Content-based file segmentation for UniDrive (paper §6.1): a
//! rolling hash finds content-defined cut points, and
//! [`segment_bytes`] produces SHA-1-addressed segments whose sizes
//! honour the paper's `(0.5 θ, 1.5 θ)` constraint. Stable boundaries
//! mean a local edit re-uploads only the touched segments, and
//! identical content dedups across files.
//!
//! Two interchangeable rolling hashes (selected by [`ChunkerKind`]):
//! the paper-faithful LBFS-style [`RabinHash`], and the FastCDC-style
//! [`GearHash`] whose single shift+add update, wide unrolled scan, and
//! skip-ahead over the minimum-size region make it several times
//! faster on the same core. Either way a file is cut by one serial
//! scan on the caller's thread.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chunker;
mod gear;
mod rabin;

pub use chunker::{cut_points, segment_bytes, ChunkerConfig, ChunkerKind, Segment};
pub use gear::{GearHash, GEAR_TABLE, GEAR_WINDOW};
pub use rabin::{RabinHash, DEFAULT_POLY};
