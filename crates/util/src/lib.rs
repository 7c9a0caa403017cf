//! # unidrive-util
//!
//! Dependency-free building blocks shared by every other crate in the
//! workspace. The repo builds with **zero external crates** so it stays
//! compilable in sealed/offline environments; this crate supplies the
//! two pieces of third-party API the codebase leans on:
//!
//! - [`crate::bytes::Bytes`] — an immutable, cheaply-cloneable byte buffer
//!   over an adopted `Arc<Vec<u8>>` (or a borrowed `&'static` slice)
//!   with zero-copy `slice()`.
//! - [`sync`] — `Mutex`/`RwLock`/`Condvar` wrappers over `std::sync`
//!   with the ergonomics the code was written against: `lock()` returns
//!   the guard directly (poisoning is transparently ignored — a
//!   panicked holder does not poison unrelated readers) and
//!   `Condvar::wait` takes the guard by `&mut`.

#![warn(missing_docs)]

pub mod bytes;
pub mod sync;
