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

use std::collections::HashSet;
use std::sync::Arc;

use unidrive_cloud::{CloudId, CloudSet, CloudStore};
use unidrive_erasure::ConfigError;
use unidrive_meta::{BlockRef, SegmentId, SyncFolderImage};
use unidrive_util::bytes::Bytes;

use crate::dataplane::DataPlane;
use crate::download::SegmentFetch;
use crate::static_plan::StaticPlan;
use crate::upload::block_upload;

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

/// Outcome of a rebalance: the updated image and the data plane the
/// client should switch to.
#[derive(Debug)]
pub struct RebalanceOutcome {
    /// Image with updated block locations.
    pub image: SyncFolderImage,
    /// The data plane over the new membership: its cloud set, and the
    /// old plane's settings with the redundancy config re-validated for
    /// the new N.
    pub plane: DataPlane,
    /// Blocks uploaded during the change — exactly those whose upload
    /// landed (and is recorded in `image`).
    pub blocks_moved: usize,
}

/// `plane`'s successor over `clouds`, its membership after a change.
fn with_membership(plane: &DataPlane, clouds: CloudSet) -> Result<DataPlane, RebalanceError> {
    let mut config = plane.config.clone();
    config.redundancy = config
        .redundancy
        .with_clouds(clouds.len())
        .map_err(RebalanceError::Config)?;
    Ok(DataPlane::new(Arc::clone(&plane.rt), clouds, config))
}

/// Reconstructs one segment through `plane` — one segment per batch, so
/// a membership change holds one plaintext in memory at a time.
fn rebuild(plane: &DataPlane, fetch: SegmentFetch) -> Result<Bytes, RebalanceError> {
    let id = fetch.id;
    let mut report = plane.download_segments(vec![fetch], None);
    match report.failed.pop() {
        Some(e) => Err(RebalanceError::Fetch(e)),
        None => Ok(report.segments.remove(&id).expect("a complete batch holds its segment")),
    }
}

/// Removes the cloud at `victim` from `plane`'s deployment: every
/// segment's blocks stored there are re-homed onto the remaining clouds
/// (under their security caps), then dropped from the metadata.
///
/// # Errors
///
/// [`RebalanceError::Membership`] if `victim` is not a member,
/// [`RebalanceError::Config`] if removing would violate `K_r ≤ N`;
/// [`RebalanceError::Fetch`] if some segment cannot be reconstructed to
/// mint replacement blocks. A replacement whose upload still fails
/// after retries is not an error: it is left out of the image and of
/// `blocks_moved` (reliability degraded, metadata truthful).
pub fn remove_cloud(
    plane: &DataPlane,
    image: &SyncFolderImage,
    victim: CloudId,
) -> Result<RebalanceOutcome, RebalanceError> {
    // Fail fast on a bad victim id, before any block moves.
    let remaining = plane
        .clouds
        .try_with_removed(victim)
        .ok_or(RebalanceError::Membership { id: victim })?;
    let shrunk = with_membership(plane, remaining)?;
    let cap = shrunk.config.redundancy.per_cloud_cap();

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

    for (id, entry) in image.segments() {
        let (lost, mut blocks): (Vec<BlockRef>, Vec<BlockRef>) = entry
            .blocks
            .iter()
            .partition(|b| b.cloud as usize == victim.0);
        if !lost.is_empty() {
            // Reconstruct the segment from surviving blocks, then mint
            // replacement blocks on the surviving clouds.
            let from_survivors = SegmentFetch {
                id: *id,
                len: entry.len,
                blocks: blocks.clone(),
            };
            let plain = rebuild(plane, from_survivors)?;
            // Place each lost block on the surviving cloud with the
            // fewest blocks of this segment (respecting the new cap).
            // The block index is reused: the data is identical wherever
            // it lives.
            let mut counts: Vec<(usize, usize)> = (0..plane.clouds.len())
                .filter(|&c| c != victim.0)
                .map(|c| (c, blocks.iter().filter(|b| b.cloud as usize == c).count()))
                .collect();
            let mut plan = StaticPlan::new(plane.clouds.len());
            let mut homes = Vec::new();
            for block in lost {
                counts.sort_by_key(|&(_, count)| count);
                let Some(home) = counts.iter_mut().find(|(_, count)| *count < cap) else {
                    break; // cap-saturated; reliability is degraded but valid
                };
                home.1 += 1;
                let op = block_upload(&plane.codec, id, &plain, block.index);
                plan.push(CloudId(home.0), block.index, op);
                homes.push(BlockRef {
                    index: block.index,
                    cloud: home.0 as u16,
                });
            }
            let done = plane.run_plan("rebalance", plan, None);
            let survivors = blocks.len();
            let landed = homes.iter().zip(&done.landed).filter(|(_, ok)| **ok);
            blocks.extend(landed.map(|(home, _)| *home));
            blocks_moved += blocks.len() - survivors;
        }
        rewrite_locations(&mut out, id, &blocks, &remap);
        // The departing cloud's objects die with the account; no
        // explicit cleanup is needed.
    }

    Ok(RebalanceOutcome {
        image: out,
        plane: shrunk,
        blocks_moved,
    })
}

/// Adds `cloud` to `plane`'s deployment: computes its fair share for
/// every segment and uploads it (minting previously unused block
/// indices).
///
/// # Errors
///
/// [`RebalanceError`] as for [`remove_cloud`].
pub fn add_cloud(
    plane: &DataPlane,
    image: &SyncFolderImage,
    cloud: Arc<dyn CloudStore>,
) -> Result<RebalanceOutcome, RebalanceError> {
    // The grown plane's codec can mint indices for the grown deployment.
    let grown = with_membership(plane, plane.clouds.with_added(cloud))?;
    let fair = grown.config.redundancy.fair_share();
    let newcomer = grown.clouds.len() - 1;

    let mut out = image.clone();
    let mut blocks_moved = 0usize;
    for (id, entry) in image.segments() {
        let known = SegmentFetch {
            id: *id,
            len: entry.len,
            blocks: entry.blocks.clone(),
        };
        let plain = rebuild(plane, known)?;
        let used: HashSet<u16> = entry.blocks.iter().map(|b| b.index).collect();
        let fresh: Vec<u16> = (0..grown.codec.n() as u16)
            .filter(|index| !used.contains(index))
            .take(fair)
            .collect();
        let mut plan = StaticPlan::new(grown.clouds.len());
        for &index in &fresh {
            let op = block_upload(&grown.codec, id, &plain, index);
            plan.push(CloudId(newcomer), index, op);
        }
        let done = grown.run_plan("rebalance", plan, None);
        for (&index, _) in fresh.iter().zip(&done.landed).filter(|(_, ok)| **ok) {
            out.record_block(
                *id,
                BlockRef {
                    index,
                    cloud: newcomer as u16,
                },
            );
            blocks_moved += 1;
        }
    }

    Ok(RebalanceOutcome {
        image: out,
        plane: grown,
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
