//! Shared data-plane configuration and block-assignment planning.

use unidrive_chunker::ChunkerConfig;
use unidrive_cloud::RetryPolicy;
use unidrive_erasure::RedundancyConfig;
use unidrive_obs::Obs;

/// Both schedulers give up on a block after this many failed transfers
/// across the batch (each failure first re-queues it elsewhere), so a
/// holder that keeps failing without going unavailable cannot keep a
/// batch from settling.
pub(crate) const MAX_BLOCK_BOUNCES: u32 = 8;

/// Configuration of the data plane (paper §6, plus ablation switches).
#[derive(Debug, Clone)]
pub struct DataPlaneConfig {
    /// Erasure-coding and placement parameters (N, k, K_r, K_s).
    pub redundancy: RedundancyConfig,
    /// Content-defined segmentation parameters (θ; the cut points come
    /// from the paper's Rabin scan).
    pub chunker: ChunkerConfig,
    /// Concurrent connections per cloud (the paper uses up to 5).
    pub connections_per_cloud: usize,
    /// Retry policy for transient Web API failures.
    pub retry: RetryPolicy,
    /// Enable over-provisioned parity blocks (paper §6.2). Disabling
    /// reduces UniDrive to the "multi-cloud benchmark" upload behaviour.
    pub overprovisioning: bool,
    /// Enable the availability-first / reliability-second two-phase
    /// batch principle. Disabling interleaves both kinds of work.
    pub two_phase: bool,
    /// Enable in-channel probing (download tail duplication onto faster
    /// clouds). Disabling reduces downloads to plain idle-pull.
    pub probing: bool,
    /// Observability handle threaded through the schedulers, retries,
    /// and the bandwidth probe (no-op by default; see `unidrive-obs`).
    pub obs: Obs,
}

impl DataPlaneConfig {
    /// The paper's evaluation configuration: N = 5, k = 3, K_r = 3,
    /// K_s = 2, θ = 4 MB, 5 connections per cloud, everything enabled.
    pub fn paper_default() -> Self {
        DataPlaneConfig {
            redundancy: RedundancyConfig::paper_default(),
            chunker: ChunkerConfig::paper_default(),
            connections_per_cloud: 5,
            retry: RetryPolicy::new(),
            overprovisioning: true,
            two_phase: true,
            probing: true,
            obs: Obs::noop(),
        }
    }

    /// Same as [`paper_default`](DataPlaneConfig::paper_default) but with
    /// the given redundancy and segment size (handy in tests, which use
    /// smaller θ).
    pub fn with_params(redundancy: RedundancyConfig, theta: usize) -> Self {
        DataPlaneConfig {
            redundancy,
            chunker: ChunkerConfig::new(theta),
            ..DataPlaneConfig::paper_default()
        }
    }
}

/// Deterministic even assignment of the normal parity blocks: block `i`
/// of a segment goes to cloud `i mod N`, so every cloud receives exactly
/// its fair share `⌈k/K_r⌉` (paper §6.2, "Basic Upload Scheduling").
pub(crate) fn normal_assignment(redundancy: &RedundancyConfig) -> Vec<Vec<u16>> {
    let n = redundancy.clouds();
    let total = redundancy.normal_block_count();
    let mut per_cloud: Vec<Vec<u16>> = vec![Vec::new(); n];
    for i in 0..total {
        per_cloud[i % n].push(i as u16);
    }
    per_cloud
}

/// Builds the user's multi-cloud from S3-compatible HTTP endpoints:
/// one [`S3Cloud`](unidrive_cloud::S3Cloud) per endpoint, each with a
/// connection pool sized by
/// [`connections_per_cloud`](DataPlaneConfig::connections_per_cloud)
/// (the paper's "up to 5 TCP connections to each cloud", §6.1).
///
/// The stores are returned bare: the sync engine already applies
/// [`DataPlaneConfig::retry`] around every Web API call, exactly as it
/// does for simulated or in-memory members. Compose
/// [`CloudBuilder`](unidrive_cloud::CloudBuilder) stages around the
/// members first if a deployment wants fault injection or observation.
pub fn s3_cloud_set(
    rt: &std::sync::Arc<dyn unidrive_sim::Runtime>,
    endpoints: &[unidrive_cloud::S3Endpoint],
    config: &DataPlaneConfig,
) -> unidrive_cloud::CloudSet {
    use std::sync::Arc;
    use unidrive_cloud::{CloudStore, S3Cloud};
    unidrive_cloud::CloudSet::new(
        endpoints
            .iter()
            .map(|ep| {
                Arc::new(S3Cloud::connect(rt, ep, config.connections_per_cloud))
                    as Arc<dyn CloudStore>
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_assignment_is_even_and_complete() {
        let cfg = RedundancyConfig::paper_default(); // fair share 1, N=5
        let a = normal_assignment(&cfg);
        assert_eq!(a.len(), 5);
        for (c, blocks) in a.iter().enumerate() {
            assert_eq!(blocks.len(), cfg.fair_share(), "cloud {c}");
        }
        let mut all: Vec<u16> = a.concat();
        all.sort();
        assert_eq!(all, (0..cfg.normal_block_count() as u16).collect::<Vec<_>>());
    }

    #[test]
    fn normal_assignment_with_larger_fair_share() {
        let cfg = RedundancyConfig::new(4, 6, 3, 1).unwrap(); // fair share 2
        let a = normal_assignment(&cfg);
        for blocks in &a {
            assert_eq!(blocks.len(), 2);
        }
    }
}
