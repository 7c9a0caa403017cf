//! Storage maintenance: trimming over-provisioned parity blocks.
//!
//! Over-provisioned blocks exist to accelerate transfers; once a file
//! has been synced everywhere they only consume quota, so the paper
//! reclaims them: "over-provisioned parity blocks will be cleaned to
//! reclaim storage space when the corresponding file is sync'ed to all
//! devices" (§6.2). Trimming never drops below each cloud's fair share,
//! so the reliability requirement stays intact.

use unidrive_erasure::RedundancyConfig;
use unidrive_meta::{BlockRef, SegmentId, SyncFolderImage};

/// Plan of blocks that can be reclaimed without violating reliability:
/// for every segment, each cloud keeps its fair share and any block
/// beyond it is surplus.
///
/// Returns `(segment, block)` pairs to delete; apply with
/// [`trim_overprovisioned`], or [`DataPlane::delete_blocks`](crate::DataPlane::delete_blocks)
/// plus [`SyncFolderImage::remove_block`] on the image the caller then
/// commits.
pub fn trim_plan(
    image: &SyncFolderImage,
    redundancy: &RedundancyConfig,
) -> Vec<(SegmentId, BlockRef)> {
    let fair = redundancy.fair_share();
    let mut plan = Vec::new();
    for (id, entry) in image.segments() {
        if entry.refcount == 0 {
            continue; // garbage collection handles orphans wholesale
        }
        let mut per_cloud: std::collections::BTreeMap<u16, Vec<BlockRef>> = Default::default();
        for b in &entry.blocks {
            per_cloud.entry(b.cloud).or_default().push(*b);
        }
        for (_, mut blocks) in per_cloud {
            if blocks.len() > fair {
                // Keep the lowest-indexed blocks (the deterministic
                // normal assignment), trim the over-provisioned rest.
                blocks.sort_by_key(|b| b.index);
                for b in blocks.split_off(fair) {
                    plan.push((*id, b));
                }
            }
        }
    }
    plan
}

/// Executes a trim: deletes the surplus blocks from the clouds (best
/// effort, one engine batch labelled `trim`) and removes them from
/// `image`. Returns how many blocks were reclaimed.
pub fn trim_overprovisioned(
    plane: &crate::DataPlane,
    image: &mut SyncFolderImage,
    redundancy: &RedundancyConfig,
) -> usize {
    let plan = trim_plan(image, redundancy);
    plane.delete_labelled("trim", plan.iter().copied(), None);
    for (id, block) in &plan {
        image.remove_block(id, *block);
    }
    plan.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_crypto::Sha1;
    use unidrive_meta::Snapshot;

    fn image_with_blocks(blocks: &[(u16, u16)]) -> (SyncFolderImage, SegmentId) {
        let id = SegmentId(Sha1::digest(b"seg"));
        let mut image = SyncFolderImage::new();
        image.ensure_segment(id, 100);
        image.upsert_file(
            "f",
            Snapshot {
                mtime_ns: 0,
                size: 100,
                segments: vec![id],
            },
        );
        for &(index, cloud) in blocks {
            image.record_block(id, BlockRef { index, cloud });
        }
        (image, id)
    }

    #[test]
    fn trims_only_beyond_fair_share() {
        let redundancy = RedundancyConfig::paper_default(); // fair share 1
        // Cloud 0 holds two blocks (one over-provisioned), cloud 1 one.
        let (image, id) = image_with_blocks(&[(0, 0), (5, 0), (1, 1)]);
        let plan = trim_plan(&image, &redundancy);
        assert_eq!(plan, vec![(id, BlockRef { index: 5, cloud: 0 })]);
    }

    #[test]
    fn fair_share_only_layout_is_untouched() {
        let redundancy = RedundancyConfig::paper_default();
        let (image, _) = image_with_blocks(&[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert!(trim_plan(&image, &redundancy).is_empty());
    }

    #[test]
    fn orphan_segments_are_left_to_gc() {
        let redundancy = RedundancyConfig::paper_default();
        let (mut image, _) = image_with_blocks(&[(0, 0), (5, 0)]);
        image.delete_file("f"); // refcount -> 0
        assert!(trim_plan(&image, &redundancy).is_empty());
    }

    #[test]
    fn trim_preserves_reliability_end_to_end() {
        use std::collections::HashSet;
        use std::sync::Arc;
        use unidrive_cloud::{CloudSet, CloudStore, SimCloud, SimCloudConfig};
        use unidrive_sim::SimRuntime;

        let sim = SimRuntime::new(77);
        let mut handles = Vec::new();
        let clouds = CloudSet::new(
            (0..5)
                .map(|i| {
                    // Uneven speeds force over-provisioning.
                    let c = Arc::new(SimCloud::new(
                        &sim,
                        format!("c{i}"),
                        SimCloudConfig::steady(0.2e6 * (i + 1) as f64, 4e6),
                    ));
                    handles.push(Arc::clone(&c));
                    c as Arc<dyn CloudStore>
                })
                .collect(),
        );
        let redundancy = RedundancyConfig::paper_default();
        let plane = crate::DataPlane::new(
            sim.clone().as_runtime(),
            clouds,
            crate::DataPlaneConfig::with_params(redundancy, 128 * 1024),
        );
        let data: unidrive_util::bytes::Bytes = (0..400_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>().into();
        let (report, segs) = plane.upload_files(
            vec![crate::UploadRequest {
                path: "f".into(),
                data: data.clone(),
            }],
            &HashSet::new(),
            crate::UploadOptions::default(),
        );
        assert!(report.all_available());
        let mut image = SyncFolderImage::new();
        for (id, len) in &segs[0].segments {
            image.ensure_segment(*id, *len);
        }
        for (id, b) in &report.blocks {
            image.record_block(*id, *b);
        }
        image.upsert_file(
            "f",
            Snapshot {
                mtime_ns: 0,
                size: segs[0].size,
                segments: segs[0].segments.iter().map(|(id, _)| *id).collect(),
            },
        );
        let before: usize = image.segments().map(|(_, e)| e.blocks.len()).sum();
        let trimmed = trim_overprovisioned(&plane, &mut image, &redundancy);
        assert!(trimmed > 0, "uneven clouds should have produced extras");
        let after: usize = image.segments().map(|(_, e)| e.blocks.len()).sum();
        assert_eq!(after, before - trimmed);
        // Every cloud still holds exactly its fair share.
        for (_, entry) in image.segments() {
            for cloud in 0..5u16 {
                assert_eq!(entry.blocks_on(cloud), redundancy.fair_share());
            }
        }
        // And the file still reconstructs.
        assert_eq!(plane.download_file(&image, "f").unwrap(), data.to_vec());
    }
}
