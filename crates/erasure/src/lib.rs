//! # unidrive-erasure
//!
//! From-scratch GF(2⁸) Reed-Solomon erasure coding for UniDrive
//! (Middleware 2015, §6.1).
//!
//! * [`gf256`] — field arithmetic with compile-time log/exp tables.
//! * [`Matrix`] — dense GF(2⁸) matrices (Vandermonde, inversion).
//! * [`Codec`] — `(n, k)` Reed-Solomon, non-systematic by default so
//!   stored blocks carry no plaintext semantics; blocks are generated
//!   lazily by index for over-provisioning.
//! * [`RedundancyConfig`] — the paper's (N, k, K_r, K_s) parameter
//!   algebra: fair shares and per-cloud caps.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod gf256;
mod matrix;
mod rs;

pub use config::{ConfigError, RedundancyConfig};
pub use matrix::Matrix;
pub use rs::{Codec, CodecError};
