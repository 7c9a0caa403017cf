//! Tree comparison and three-way merge of metadata images
//! (paper §5.2, "Conflicting Local and Cloud Updates").
//!
//! To commit a local update when a cloud update also exists, UniDrive
//! computes ΔL = diff(original, local) and ΔC = diff(original, cloud)
//! and applies ΔL to the cloud image under the one conflict rule both
//! metadata planes share (`apply_commit` in `delta.rs`): a path only
//! the local side changed takes its change, and a path the cloud side
//! changed too (its snapshot, or a copy added) keeps the cloud's
//! version, with the local one added to its conflict copies for the
//! user to resolve later.

use std::collections::{BTreeMap, BTreeSet};

use crate::delta::apply_commit;
use crate::{DeltaRecord, SyncFolderImage};

/// Compares two images, returning the records that turn `from`'s files
/// into `to`'s: upserts and deletes of current snapshots in path order,
/// then an `AttachConflict` for each conflict copy `to` holds and the
/// file as `from` left it does not (an upsert clears a file's copies),
/// then a `ResolveConflict` for each copy removed while its file's
/// current snapshot stayed the same.
pub fn diff(from: &SyncFolderImage, to: &SyncFolderImage) -> Vec<DeltaRecord> {
    let mut changes = BTreeMap::new();
    let (mut attached, mut resolved) = (Vec::new(), Vec::new());
    let none = BTreeSet::new();
    for (path, entry) in to.files() {
        let old = from.file(path).filter(|e| e.snapshot == entry.snapshot);
        if old.is_none() {
            let snapshot = entry.snapshot.clone();
            changes.insert(path, DeltaRecord::UpsertFile { path: path.to_owned(), snapshot });
        }
        let old_copies = old.map_or(&none, |e| &e.conflicts);
        for (device, snapshot) in entry.conflicts.difference(old_copies) {
            attached.push(DeltaRecord::AttachConflict {
                path: path.to_owned(),
                device: device.clone(),
                snapshot: snapshot.clone(),
            });
        }
        for (device, snapshot) in old_copies.difference(&entry.conflicts) {
            resolved.push(DeltaRecord::ResolveConflict {
                path: path.to_owned(),
                device: device.clone(),
                snapshot: snapshot.clone(),
            });
        }
    }
    for (path, _) in from.files() {
        if to.file(path).is_none() {
            changes.insert(path, DeltaRecord::DeleteFile { path: path.to_owned() });
        }
    }
    changes.into_values().chain(attached).chain(resolved).collect()
}

/// Result of a three-way merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The merged image (cloud version wins contested entries; local
    /// snapshots are added to their conflict copies).
    pub image: SyncFolderImage,
    /// Contested paths, in path order: both sides changed them, and
    /// differently.
    pub conflicts: Vec<String>,
}

/// Merges a local image and a cloud image against their common original
/// (Algorithm 1, line 7): `apply_commit` of ΔL onto the cloud image,
/// where a path is contested when the cloud holds a version of it the
/// original did not show — ΔC changed its current snapshot or added a
/// copy. `local_device` labels retained conflict copies.
///
/// The segment pool is the union of both pools (block locations are
/// additive because blocks are immutable), so every snapshot either
/// side names stays resolvable; what no snapshot names any more is the
/// committer's garbage. A pack pointer the local side set (one the
/// original did not show, or of a segment the cloud no longer pools)
/// is applied as its `EnsureSegment` record would be: a segment the
/// cloud stores on blocks of its own keeps them. Any other pointer is
/// the cloud's, which may have moved the member to a fresh pack.
pub fn merge3(
    original: &SyncFolderImage,
    local: &SyncFolderImage,
    cloud: &SyncFolderImage,
    local_device: &str,
) -> MergeOutcome {
    let mut image = cloud.clone();
    for (id, entry) in local.segments() {
        if let Some((pack, offset)) = entry.packed {
            let set_here = original.segment(id).is_none_or(|o| o.packed != entry.packed);
            if set_here || image.segment(id).is_none() {
                image.ensure_member(*id, entry.len, pack, offset);
            }
            continue;
        }
        image.ensure_segment(*id, entry.len);
        for b in &entry.blocks {
            image.record_block(*id, *b);
        }
    }
    let cloud_changes = diff(original, cloud);
    let contested = cloud_changes
        .iter()
        .filter_map(|record| match record {
            DeltaRecord::AttachConflict { path, .. } => Some(path.as_str()),
            other => other.file_path(),
        })
        .collect();
    let conflicts = apply_commit(&mut image, &diff(original, local), local_device, &contested);
    MergeOutcome { image, conflicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SegmentId, Snapshot};
    use unidrive_crypto::Sha1;

    fn seg(tag: &str) -> SegmentId {
        SegmentId(Sha1::digest(tag.as_bytes()))
    }

    fn snap(tag: &str) -> Snapshot {
        Snapshot {
            segments: vec![seg(tag)],
        }
    }

    fn put(img: &mut SyncFolderImage, path: &str, tag: &str) {
        img.ensure_segment(seg(tag), 10);
        img.upsert_file(path, snap(tag));
    }

    fn base() -> SyncFolderImage {
        let mut img = SyncFolderImage::new();
        put(&mut img, "common.txt", "common");
        put(&mut img, "doomed.txt", "doomed");
        img
    }

    #[test]
    fn diff_detects_adds_edits_deletes() {
        let original = base();
        let mut changed = original.clone();
        put(&mut changed, "new.txt", "new");
        put(&mut changed, "common.txt", "edited");
        changed.delete_file("doomed.txt");
        let upsert = |path: &str, tag: &str| DeltaRecord::UpsertFile {
            path: path.into(),
            snapshot: snap(tag),
        };
        assert_eq!(
            diff(&original, &changed),
            vec![
                upsert("common.txt", "edited"),
                DeltaRecord::DeleteFile {
                    path: "doomed.txt".into()
                },
                upsert("new.txt", "new"),
            ]
        );
    }

    #[test]
    fn diff_reports_attached_then_resolved_copies() {
        let original = base();
        let mut attached = original.clone();
        put(&mut attached, "theirs", "theirs");
        attached.attach_conflict("common.txt", "phone", snap("theirs"));
        let d = diff(&original, &attached);
        assert_eq!(
            d.last(),
            Some(&DeltaRecord::AttachConflict {
                path: "common.txt".into(),
                device: "phone".into(),
                snapshot: snap("theirs"),
            })
        );
        let mut resolved = attached.clone();
        resolved.resolve_conflict("common.txt");
        assert_eq!(
            diff(&attached, &resolved),
            vec![DeltaRecord::ResolveConflict {
                path: "common.txt".into(),
                device: "phone".into(),
                snapshot: snap("theirs"),
            }]
        );
        // A copy cleared by an edit of its file is the edit, no more.
        let mut edited = attached.clone();
        put(&mut edited, "common.txt", "edited");
        assert!(matches!(
            diff(&attached, &edited)[..],
            [DeltaRecord::UpsertFile { .. }]
        ));
    }

    #[test]
    fn diff_of_identical_images_is_empty() {
        let img = base();
        assert!(diff(&img, &img.clone()).is_empty());
    }

    #[test]
    fn disjoint_changes_merge_cleanly() {
        let original = base();
        let mut local = original.clone();
        put(&mut local, "mine.txt", "mine");
        let mut cloud = original.clone();
        put(&mut cloud, "theirs.txt", "theirs");
        cloud.delete_file("doomed.txt");

        let out = merge3(&original, &local, &cloud, "laptop");
        assert!(out.conflicts.is_empty());
        assert!(out.image.file("mine.txt").is_some());
        assert!(out.image.file("theirs.txt").is_some());
        assert!(out.image.file("doomed.txt").is_none());
        assert!(out.image.file("common.txt").is_some());
    }

    #[test]
    fn identical_changes_do_not_conflict() {
        let original = base();
        let mut local = original.clone();
        put(&mut local, "same.txt", "samecontent");
        let mut cloud = original.clone();
        put(&mut cloud, "same.txt", "samecontent");
        let out = merge3(&original, &local, &cloud, "laptop");
        assert!(out.conflicts.is_empty());
        assert!(out.image.file("same.txt").unwrap().conflicts.is_empty());
    }

    #[test]
    fn divergent_edits_retain_both_versions() {
        let original = base();
        let mut local = original.clone();
        put(&mut local, "common.txt", "local-edit");
        let mut cloud = original.clone();
        put(&mut cloud, "common.txt", "cloud-edit");

        let out = merge3(&original, &local, &cloud, "laptop");
        assert_eq!(out.conflicts, vec!["common.txt"]);
        let entry = out.image.file("common.txt").unwrap();
        // Cloud wins the main slot.
        assert_eq!(entry.snapshot.segments, vec![seg("cloud-edit")]);
        // Local copy retained, attributed to the device.
        let (device, retained) = entry.conflicts.first().unwrap();
        assert_eq!(device, "laptop");
        assert_eq!(retained.segments, vec![seg("local-edit")]);
        // Both contents stay referenced so neither is garbage-collected.
        let live = out.image.referenced();
        assert!(live.contains(&seg("cloud-edit")) && live.contains(&seg("local-edit")));
    }

    /// A copy the cloud added since the original contests its path: a
    /// local edit that never saw it is added beside it, not over it, and
    /// a local resolve removes only the copy the original showed.
    #[test]
    fn a_copy_the_original_never_showed_survives_an_edit_and_a_resolve() {
        let mut original = base();
        for tag in ["seen", "unseen"] {
            original.ensure_segment(seg(tag), 10);
        }
        original.attach_conflict("common.txt", "phone", snap("seen"));
        let mut cloud = original.clone();
        cloud.attach_conflict("common.txt", "tablet", snap("unseen"));

        let mut edited = original.clone();
        put(&mut edited, "common.txt", "mine");
        let out = merge3(&original, &edited, &cloud, "laptop");
        assert_eq!(out.conflicts, vec!["common.txt"]);
        let entry = out.image.file("common.txt").unwrap();
        assert_eq!(entry.snapshot, snap("common"));
        let devices: Vec<&str> = entry.conflicts.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(devices, ["laptop", "phone", "tablet"]);

        let mut resolved = original.clone();
        resolved.resolve_conflict("common.txt");
        let out = merge3(&original, &resolved, &cloud, "laptop");
        let entry = out.image.file("common.txt").unwrap();
        let devices: Vec<&str> = entry.conflicts.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(devices, ["tablet"]);
    }

    #[test]
    fn local_edit_beats_cloud_delete() {
        let original = base();
        let mut local = original.clone();
        put(&mut local, "doomed.txt", "rescued");
        let mut cloud = original.clone();
        cloud.delete_file("doomed.txt");
        let out = merge3(&original, &local, &cloud, "laptop");
        assert_eq!(out.conflicts.len(), 1);
        assert_eq!(
            out.image.file("doomed.txt").unwrap().snapshot.segments,
            vec![seg("rescued")]
        );
    }

    #[test]
    fn cloud_edit_beats_local_delete() {
        let original = base();
        let mut local = original.clone();
        local.delete_file("common.txt");
        let mut cloud = original.clone();
        put(&mut cloud, "common.txt", "cloud-edit");
        let out = merge3(&original, &local, &cloud, "laptop");
        assert_eq!(out.conflicts.len(), 1);
        assert_eq!(
            out.image.file("common.txt").unwrap().snapshot.segments,
            vec![seg("cloud-edit")]
        );
    }

    #[test]
    fn merged_pool_contains_both_sides_block_locations() {
        use crate::BlockRef;
        let original = base();
        let mut local = original.clone();
        put(&mut local, "mine.txt", "mine");
        local.record_block(seg("mine"), BlockRef { index: 0, cloud: 1 });
        let mut cloud = original.clone();
        cloud.record_block(seg("common"), BlockRef { index: 2, cloud: 3 });

        let out = merge3(&original, &local, &cloud, "laptop");
        assert_eq!(
            out.image.segment(&seg("mine")).unwrap().blocks,
            vec![BlockRef { index: 0, cloud: 1 }]
        );
        assert_eq!(
            out.image.segment(&seg("common")).unwrap().blocks,
            vec![BlockRef { index: 2, cloud: 3 }]
        );
    }
}
