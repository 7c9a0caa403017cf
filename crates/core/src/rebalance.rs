//! Adding and removing CCSs (paper §6.2, "Adding or Removing CCSs").
//!
//! Because every client holds the full metadata (and can fetch any
//! content), membership changes reduce to block rebalancing:
//!
//! * **Remove**: the departing cloud's fair share is re-uploaded to the
//!   remaining clouds (blocks are identifiable from the metadata), then
//!   its references are dropped.
//! * **Add**: the new cloud's fair share is computed and uploaded;
//!   other clouds keep their blocks (extra blocks become reclaimable
//!   over-provisioned copies that the next GC can trim).

use std::sync::Arc;

use unidrive_cloud::{CloudId, CloudSet};
use unidrive_erasure::{Codec, ConfigError, RedundancyConfig};
use unidrive_meta::{block_path, BlockRef, SegmentId, SyncFolderImage};
use unidrive_sim::Runtime;

use crate::download::SegmentFetch;
use crate::plan::DataPlaneConfig;
use crate::probe::BandwidthProbe;

/// Error during a membership change.
#[derive(Debug)]
pub enum RebalanceError {
    /// The resulting configuration is invalid (e.g. fewer clouds than
    /// K_r).
    Config(ConfigError),
    /// A segment could not be reconstructed to mint new blocks.
    Fetch(crate::DownloadError),
    /// A cloud id is not a member of the deployment being changed (or
    /// removing it would empty the deployment).
    Membership {
        /// The offending id.
        id: CloudId,
    },
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::Config(e) => write!(f, "invalid membership change: {e}"),
            RebalanceError::Fetch(e) => write!(f, "cannot rebuild segment: {e}"),
            RebalanceError::Membership { id } => {
                write!(f, "{id} is not a removable member of this deployment")
            }
        }
    }
}

impl std::error::Error for RebalanceError {}

/// Outcome of a rebalance: the updated image and the new cloud set /
/// redundancy config the client should switch to.
#[derive(Debug)]
pub struct RebalanceOutcome {
    /// Image with updated block locations.
    pub image: SyncFolderImage,
    /// New cloud membership.
    pub clouds: CloudSet,
    /// Re-validated redundancy config for the new N.
    pub redundancy: RedundancyConfig,
    /// Blocks uploaded during the change.
    pub blocks_moved: usize,
}

/// Removes the cloud at `victim` from the deployment: every segment's
/// blocks stored there are re-homed onto the remaining clouds (under
/// their security caps), then dropped from the metadata.
///
/// # Errors
///
/// [`RebalanceError::Config`] if removing would violate `K_r ≤ N`;
/// [`RebalanceError::Fetch`] if some segment cannot be reconstructed to
/// mint replacement blocks.
pub fn remove_cloud(
    rt: &Arc<dyn Runtime>,
    clouds: &CloudSet,
    config: &DataPlaneConfig,
    image: &SyncFolderImage,
    victim: CloudId,
) -> Result<RebalanceOutcome, RebalanceError> {
    // Fail fast on a bad victim id, before any block moves.
    let remaining = clouds
        .try_with_removed(victim)
        .ok_or(RebalanceError::Membership { id: victim })?;
    let new_redundancy = config
        .redundancy
        .with_clouds(clouds.len() - 1)
        .map_err(RebalanceError::Config)?;
    let codec = Arc::new(Codec::for_config(&config.redundancy).expect("validated"));
    let probe = Arc::new(BandwidthProbe::new(clouds.len(), 1e6));
    let cap = new_redundancy.per_cloud_cap();

    let mut out = image.clone();
    let mut blocks_moved = 0usize;

    // Map old cloud indices to new ones (victim removed, others shift).
    let remap = |old: u16| -> Option<u16> {
        match (old as usize).cmp(&victim.0) {
            std::cmp::Ordering::Less => Some(old),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(old - 1),
        }
    };

    let segments: Vec<(SegmentId, unidrive_meta::SegmentEntry)> = image
        .segments()
        .map(|(id, e)| (*id, e.clone()))
        .collect();
    for (id, entry) in segments {
        let lost: Vec<BlockRef> = entry
            .blocks
            .iter()
            .filter(|b| b.cloud as usize == victim.0)
            .copied()
            .collect();
        if lost.is_empty() {
            // Just remap indices.
            rewrite_locations(&mut out, &id, &entry.blocks, &remap);
            continue;
        }
        // Reconstruct the segment from surviving blocks, then mint
        // replacement blocks on the surviving clouds.
        let survivors: Vec<BlockRef> = entry
            .blocks
            .iter()
            .filter(|b| b.cloud as usize != victim.0)
            .copied()
            .collect();
        let report = crate::download::run_download(
            rt,
            clouds,
            &codec,
            config,
            &probe,
            vec![SegmentFetch {
                id,
                len: entry.len,
                blocks: survivors.clone(),
            }],
            None,
        );
        let plain = report
            .segments
            .get(&id)
            .cloned()
            .ok_or_else(|| {
                RebalanceError::Fetch(crate::DownloadError::NotEnoughBlocks {
                    segment: id,
                    got: 0,
                    need: codec.k(),
                })
            })?;
        // Place each lost block on the surviving cloud with the fewest
        // blocks of this segment (respecting the new cap). The block
        // index is reused: the data is identical wherever it lives.
        let mut counts: Vec<(usize, usize)> = clouds
            .iter()
            .filter(|(cid, _)| cid.0 != victim.0)
            .map(|(cid, _)| {
                (
                    cid.0,
                    survivors.iter().filter(|b| b.cloud as usize == cid.0).count(),
                )
            })
            .collect();
        let mut new_blocks = survivors.clone();
        for block in lost {
            counts.sort_by_key(|&(_, count)| count);
            let Some(slot) = counts.iter_mut().find(|(_, count)| *count < cap) else {
                break; // cap-saturated; reliability is degraded but valid
            };
            let data = codec.encode_block(&plain, block.index as usize);
            // Slots were built from this set's own ids, but stay
            // fallible: an unknown id cannot host the block.
            let Some(target) = clouds.try_get(CloudId(slot.0)) else {
                return Err(RebalanceError::Membership { id: CloudId(slot.0) });
            };
            if target.upload(&block_path(&id, block.index), data).is_ok() {
                slot.1 += 1;
                blocks_moved += 1;
                new_blocks.push(BlockRef {
                    index: block.index,
                    cloud: slot.0 as u16,
                });
            }
        }
        rewrite_locations(&mut out, &id, &new_blocks, &remap);
        // The departing cloud's objects die with the account; no
        // explicit cleanup is needed.
    }

    Ok(RebalanceOutcome {
        image: out,
        clouds: remaining,
        redundancy: new_redundancy,
        blocks_moved,
    })
}

/// Adds `cloud` to the deployment: computes its fair share for every
/// segment and uploads it (minting previously unused block indices).
///
/// # Errors
///
/// [`RebalanceError`] as for [`remove_cloud`].
pub fn add_cloud(
    rt: &Arc<dyn Runtime>,
    clouds: &CloudSet,
    config: &DataPlaneConfig,
    image: &SyncFolderImage,
    cloud: Arc<dyn unidrive_cloud::CloudStore>,
) -> Result<RebalanceOutcome, RebalanceError> {
    let new_clouds = clouds.with_added(cloud);
    let new_redundancy = config
        .redundancy
        .with_clouds(new_clouds.len())
        .map_err(RebalanceError::Config)?;
    // The codec must be able to mint indices for the grown deployment.
    let grown_codec =
        Arc::new(Codec::for_config(&new_redundancy).expect("validated config"));
    let old_codec = Arc::new(Codec::for_config(&config.redundancy).expect("validated"));
    let probe = Arc::new(BandwidthProbe::new(clouds.len(), 1e6));
    let fair = new_redundancy.fair_share();
    let newcomer = (new_clouds.len() - 1) as u16;

    let mut out = image.clone();
    let mut blocks_moved = 0usize;
    let segments: Vec<(SegmentId, unidrive_meta::SegmentEntry)> = image
        .segments()
        .map(|(id, e)| (*id, e.clone()))
        .collect();
    for (id, entry) in segments {
        let report = crate::download::run_download(
            rt,
            clouds,
            &old_codec,
            config,
            &probe,
            vec![SegmentFetch {
                id,
                len: entry.len,
                blocks: entry.blocks.clone(),
            }],
            None,
        );
        let plain = report.segments.get(&id).cloned().ok_or_else(|| {
            RebalanceError::Fetch(crate::DownloadError::NotEnoughBlocks {
                segment: id,
                got: 0,
                need: old_codec.k(),
            })
        })?;
        let used: std::collections::HashSet<u16> =
            entry.blocks.iter().map(|b| b.index).collect();
        let mut minted = 0usize;
        for index in 0..grown_codec.n() as u16 {
            if minted >= fair {
                break;
            }
            if used.contains(&index) {
                continue;
            }
            let data = grown_codec.encode_block(&plain, index as usize);
            // `newcomer` indexes the cloud just appended to
            // `new_clouds`, but stay fallible like every other lookup.
            let Some(target) = new_clouds.try_get(CloudId(newcomer as usize)) else {
                return Err(RebalanceError::Membership {
                    id: CloudId(newcomer as usize),
                });
            };
            if target.upload(&block_path(&id, index), data).is_ok() {
                out.record_block(
                    id,
                    BlockRef {
                        index,
                        cloud: newcomer,
                    },
                );
                minted += 1;
                blocks_moved += 1;
            }
        }
    }

    Ok(RebalanceOutcome {
        image: out,
        clouds: new_clouds,
        redundancy: new_redundancy,
        blocks_moved,
    })
}

fn rewrite_locations(
    image: &mut SyncFolderImage,
    id: &SegmentId,
    blocks: &[BlockRef],
    remap: &dyn Fn(u16) -> Option<u16>,
) {
    let old: Vec<BlockRef> = image
        .segment(id)
        .map(|e| e.blocks.clone())
        .unwrap_or_default();
    for b in old {
        image.remove_block(id, b);
    }
    for b in blocks {
        if let Some(new_cloud) = remap(b.cloud) {
            image.record_block(
                *id,
                BlockRef {
                    index: b.index,
                    cloud: new_cloud,
                },
            );
        }
    }
}
