//! Redundancy parameter algebra (paper §6.1, "Data Block Generation").
//!
//! A user enrolls `N` clouds and sets two requirements:
//!
//! * **Reliability** `K_r`: the data must survive with only `K_r` clouds
//!   reachable, so each cloud must permanently hold a *fair share* of
//!   `⌈k/K_r⌉` blocks.
//! * **Security** `K_s`: no coalition of `K_s − 1` clouds may reconstruct
//!   a file, so each cloud may hold at most `⌈k/(K_s−1)⌉ − 1` blocks
//!   (or all `k` when `K_s = 1`, i.e. no security requirement).
//!
//! [`RedundancyConfig`] validates `1 ≤ K_s ≤ K_r ≤ N`, checks the two
//! constraints are jointly satisfiable, and derives the block counts the
//! scheduler uses.

use std::fmt;

/// Validated redundancy parameters of a multi-cloud deployment.
///
/// # Examples
///
/// The paper's evaluation setting — 5 clouds, tolerate 2 down, no 1 cloud
/// can read the data, 3 data blocks per segment:
///
/// ```
/// use unidrive_erasure::RedundancyConfig;
///
/// # fn main() -> Result<(), unidrive_erasure::ConfigError> {
/// let cfg = RedundancyConfig::new(5, 3, 3, 2)?;
/// assert_eq!(cfg.fair_share(), 1);       // ⌈3/3⌉ blocks per cloud
/// assert_eq!(cfg.per_cloud_cap(), 2);    // ⌈3/1⌉ − 1
/// assert_eq!(cfg.normal_block_count(), 5);
/// assert_eq!(cfg.max_block_count(), 10); // over-provisioning budget: 5
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RedundancyConfig {
    clouds: usize,
    k: usize,
    k_r: usize,
    k_s: usize,
}

/// Error constructing a [`RedundancyConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Violates `1 ≤ K_s ≤ K_r ≤ N` or `k ≥ 1`.
    InvalidOrdering {
        /// Human-readable description of the violated relation.
        detail: String,
    },
    /// The security cap forbids even the fair share per cloud, so the two
    /// requirements cannot be met together.
    Infeasible {
        /// Required blocks per cloud.
        fair_share: usize,
        /// Allowed blocks per cloud.
        cap: usize,
    },
    /// More than 255 total blocks would be needed (GF(2⁸) limit).
    TooManyBlocks {
        /// Blocks the configuration implies.
        needed: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidOrdering { detail } => {
                write!(f, "invalid redundancy parameters: {detail}")
            }
            ConfigError::Infeasible { fair_share, cap } => write!(
                f,
                "reliability needs {fair_share} blocks per cloud but security allows {cap}"
            ),
            ConfigError::TooManyBlocks { needed } => {
                write!(f, "configuration implies {needed} blocks, limit is 255")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

impl RedundancyConfig {
    /// Creates and validates a configuration: `clouds` = N, `k` data
    /// blocks per segment, reliability `k_r`, security `k_s`.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn new(clouds: usize, k: usize, k_r: usize, k_s: usize) -> Result<Self, ConfigError> {
        let bad = |detail: String| Err(ConfigError::InvalidOrdering { detail });
        if k == 0 {
            return bad("k must be at least 1".into());
        }
        if k_s < 1 {
            return bad("K_s must be at least 1".into());
        }
        if k_s > k_r {
            return bad(format!("K_s ({k_s}) must not exceed K_r ({k_r})"));
        }
        if k_r > clouds {
            return bad(format!("K_r ({k_r}) must not exceed N ({clouds})"));
        }
        let cfg = RedundancyConfig {
            clouds,
            k,
            k_r,
            k_s,
        };
        if cfg.fair_share() > cfg.per_cloud_cap() {
            return Err(ConfigError::Infeasible {
                fair_share: cfg.fair_share(),
                cap: cfg.per_cloud_cap(),
            });
        }
        if cfg.max_block_count() > 255 {
            return Err(ConfigError::TooManyBlocks {
                needed: cfg.max_block_count(),
            });
        }
        Ok(cfg)
    }

    /// The paper's evaluation defaults: N = 5, k = 3, K_r = 3, K_s = 2.
    pub fn paper_default() -> Self {
        RedundancyConfig::new(5, 3, 3, 2).expect("paper defaults are valid")
    }

    /// Number of enrolled clouds (N).
    pub fn clouds(&self) -> usize {
        self.clouds
    }

    /// Data blocks per segment (k).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Reliability parameter: any `K_r` clouds suffice to reconstruct.
    pub fn k_r(&self) -> usize {
        self.k_r
    }

    /// Security parameter: no `K_s − 1` clouds can reconstruct.
    pub fn k_s(&self) -> usize {
        self.k_s
    }

    /// Blocks every cloud must eventually hold: `⌈k/K_r⌉`.
    pub fn fair_share(&self) -> usize {
        ceil_div(self.k, self.k_r)
    }

    /// Most blocks any cloud may ever hold: `⌈k/(K_s−1)⌉ − 1`, or `k`
    /// when `K_s = 1`.
    pub fn per_cloud_cap(&self) -> usize {
        if self.k_s == 1 {
            self.k
        } else {
            ceil_div(self.k, self.k_s - 1) - 1
        }
    }

    /// Normal (deterministically scheduled) parity blocks: fair share on
    /// every cloud.
    pub fn normal_block_count(&self) -> usize {
        self.fair_share() * self.clouds
    }

    /// Total blocks the code must be able to produce, including
    /// over-provisioned ones: per-cloud cap on every cloud.
    pub fn max_block_count(&self) -> usize {
        self.per_cloud_cap() * self.clouds
    }

    /// Re-derives the configuration for a different cloud count, keeping
    /// k, K_r, K_s (used when the user adds or removes a CCS).
    ///
    /// # Errors
    ///
    /// Same as [`RedundancyConfig::new`] — in particular removing clouds
    /// below `K_r` is invalid.
    pub fn with_clouds(&self, clouds: usize) -> Result<Self, ConfigError> {
        RedundancyConfig::new(clouds, self.k, self.k_r, self.k_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_compute_paper_numbers() {
        let cfg = RedundancyConfig::paper_default();
        assert_eq!(cfg.fair_share(), 1);
        assert_eq!(cfg.per_cloud_cap(), 2);
        assert_eq!(cfg.normal_block_count(), 5);
        assert_eq!(cfg.max_block_count(), 10);
    }

    #[test]
    fn ordering_violations_rejected() {
        assert!(RedundancyConfig::new(5, 3, 2, 3).is_err()); // Ks > Kr
        assert!(RedundancyConfig::new(3, 3, 4, 2).is_err()); // Kr > N
        assert!(RedundancyConfig::new(5, 0, 3, 2).is_err()); // k = 0
        assert!(RedundancyConfig::new(5, 3, 3, 0).is_err()); // Ks = 0
    }

    #[test]
    fn infeasible_combination_detected() {
        // k=4, Kr=4 -> fair share 1. k=4, Ks=3 -> cap ⌈4/2⌉-1 = 1. Feasible.
        assert!(RedundancyConfig::new(5, 4, 4, 3).is_ok());
        // k=2, Ks=3 -> cap ⌈2/2⌉-1 = 0 < fair share 1. Infeasible.
        let err = RedundancyConfig::new(5, 2, 3, 3).unwrap_err();
        assert!(matches!(err, ConfigError::Infeasible { fair_share: 1, cap: 0 }));
    }

    #[test]
    fn security_property_holds_for_valid_configs() {
        // (K_s − 1) × cap < k for every accepted configuration: no K_s−1
        // clouds can gather k blocks.
        for n in 1..=8 {
            for k in 1..=12 {
                for k_r in 1..=n {
                    for k_s in 1..=k_r {
                        if let Ok(cfg) = RedundancyConfig::new(n, k, k_r, k_s) {
                            assert!(
                                (k_s - 1) * cfg.per_cloud_cap() < k,
                                "security violated for N={n} k={k} Kr={k_r} Ks={k_s}"
                            );
                            assert!(
                                k_r * cfg.fair_share() >= k,
                                "reliability violated for N={n} k={k} Kr={k_r} Ks={k_s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_security_requirement_allows_full_replication() {
        let cfg = RedundancyConfig::new(3, 4, 1, 1).unwrap();
        assert_eq!(cfg.per_cloud_cap(), 4);
        assert_eq!(cfg.fair_share(), 4);
    }

    #[test]
    fn gf_block_limit_enforced() {
        // 200 clouds x cap 2 = 400 blocks > 255.
        assert!(matches!(
            RedundancyConfig::new(200, 3, 3, 2).unwrap_err(),
            ConfigError::TooManyBlocks { .. }
        ));
    }

    #[test]
    fn with_clouds_revalidates() {
        let cfg = RedundancyConfig::paper_default();
        assert!(cfg.with_clouds(6).is_ok());
        assert!(cfg.with_clouds(2).is_err()); // below K_r
    }

    #[test]
    fn storage_efficiency_beats_replication() {
        // The paper's intro example: 3 clouds, tolerate 1 down. With
        // erasure coding across clouds, storing D bytes costs
        // fair_share × N / k = 1.5 D (k=2, Kr=2) versus 2 D with
        // replication on two clouds.
        let cfg = RedundancyConfig::new(3, 2, 2, 1).unwrap();
        let stored_fraction =
            cfg.normal_block_count() as f64 / cfg.k() as f64;
        assert_eq!(stored_fraction, 1.5);
    }
}
