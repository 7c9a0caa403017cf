//! Tree comparison and three-way merge of metadata images
//! (paper §5.2, "Conflicting Local and Cloud Updates").
//!
//! To commit a local update when a cloud update also exists, UniDrive
//! computes ΔL = diff(original, local) and ΔC = diff(original, cloud),
//! merges entries touched by only one side directly, and for entries
//! touched by both retains *both* versions — the cloud's wins the main
//! slot, the local snapshot is attached as a conflict copy for the user
//! to resolve later.

use std::collections::BTreeMap;

use crate::{Snapshot, SyncFolderImage};

/// Per-path change between two images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryChange {
    /// The path was created or its snapshot replaced.
    Upsert(Snapshot),
    /// The path was removed.
    Delete,
}

/// The result of a tree comparison: path → change.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TreeDelta {
    changes: BTreeMap<String, EntryChange>,
}

impl TreeDelta {
    /// Number of changed paths.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Change for one path, if any.
    pub fn get(&self, path: &str) -> Option<&EntryChange> {
        self.changes.get(path)
    }

    /// Iterates over `(path, change)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &EntryChange)> {
        self.changes.iter().map(|(p, c)| (p.as_str(), c))
    }
}

/// Compares two images, returning the changes that turn `from` into
/// `to`. Only the *current* snapshots are compared (conflict copies are
/// bookkeeping, not content).
pub fn diff(from: &SyncFolderImage, to: &SyncFolderImage) -> TreeDelta {
    let mut changes = BTreeMap::new();
    for (path, entry) in to.files() {
        match from.file(path) {
            Some(old) if old.snapshot == entry.snapshot => {}
            _ => {
                changes.insert(path.to_owned(), EntryChange::Upsert(entry.snapshot.clone()));
            }
        }
    }
    for (path, _) in from.files() {
        if to.file(path).is_none() {
            changes.insert(path.to_owned(), EntryChange::Delete);
        }
    }
    TreeDelta { changes }
}

/// One unresolved conflict produced by [`merge3`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The contested path.
    pub path: String,
    /// What the local side wanted.
    pub local: EntryChange,
    /// What the cloud side committed.
    pub cloud: EntryChange,
}

/// Result of a three-way merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The merged image (cloud version wins contested entries; local
    /// snapshots are retained as conflict copies).
    pub image: SyncFolderImage,
    /// Entries needing user attention.
    pub conflicts: Vec<Conflict>,
}

/// Merges a local image and a cloud image against their common original
/// (Algorithm 1, line 7). `local_device` labels retained conflict
/// copies.
///
/// Outcome properties:
///
/// * paths changed on only one side take that side's change;
/// * identical changes on both sides merge silently;
/// * divergent changes keep the cloud snapshot as current and attach the
///   local one as a conflict copy (with its content segments retained);
/// * the segment pool is the union of both pools (block locations are
///   additive because blocks are immutable); what no snapshot names any
///   more is the committer's garbage.
pub fn merge3(
    original: &SyncFolderImage,
    local: &SyncFolderImage,
    cloud: &SyncFolderImage,
    local_device: &str,
) -> MergeOutcome {
    let delta_local = diff(original, local);
    let delta_cloud = diff(original, cloud);

    // Start from the cloud image: it is the committed truth.
    let mut image = cloud.clone();

    // Union the segment pools so every snapshot either side references
    // stays resolvable.
    for (id, entry) in local.segments() {
        image.ensure_segment(*id, entry.len);
        for b in &entry.blocks {
            image.record_block(*id, *b);
        }
    }

    let mut conflicts = Vec::new();
    for (path, local_change) in delta_local.iter() {
        match delta_cloud.get(path) {
            None => {
                // Only we touched it: apply our change.
                match local_change {
                    EntryChange::Upsert(snapshot) => {
                        image.upsert_file(path, snapshot.clone());
                    }
                    EntryChange::Delete => {
                        image.delete_file(path);
                    }
                }
            }
            Some(cloud_change) if cloud_change == local_change => {
                // Coincidental identical change: nothing to do.
            }
            Some(cloud_change) => {
                // Divergent: cloud wins the main slot; retain ours.
                conflicts.push(Conflict {
                    path: path.to_owned(),
                    local: local_change.clone(),
                    cloud: cloud_change.clone(),
                });
                match (local_change, cloud_change) {
                    (EntryChange::Upsert(ours), EntryChange::Upsert(_)) => {
                        image.attach_conflict(path, local_device, ours.clone());
                    }
                    (EntryChange::Upsert(ours), EntryChange::Delete) => {
                        // Cloud deleted, we edited: resurrect our version
                        // as the current snapshot (nothing to conflict
                        // against) — matching SVN/Git "modify beats
                        // delete" practice.
                        image.upsert_file(path, ours.clone());
                    }
                    (EntryChange::Delete, EntryChange::Upsert(_)) => {
                        // We deleted, cloud edited: keep the cloud file.
                    }
                    (EntryChange::Delete, EntryChange::Delete) => unreachable!("equal changes"),
                }
            }
        }
    }
    MergeOutcome { image, conflicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentId;
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
        let d = diff(&original, &changed);
        assert_eq!(d.len(), 3);
        assert!(matches!(d.get("new.txt"), Some(EntryChange::Upsert(_))));
        assert!(matches!(d.get("common.txt"), Some(EntryChange::Upsert(_))));
        assert_eq!(d.get("doomed.txt"), Some(&EntryChange::Delete));
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
        assert!(out.image.file("same.txt").unwrap().conflict.is_none());
    }

    #[test]
    fn divergent_edits_retain_both_versions() {
        let original = base();
        let mut local = original.clone();
        put(&mut local, "common.txt", "local-edit");
        let mut cloud = original.clone();
        put(&mut cloud, "common.txt", "cloud-edit");

        let out = merge3(&original, &local, &cloud, "laptop");
        assert_eq!(out.conflicts.len(), 1);
        assert_eq!(out.conflicts[0].path, "common.txt");
        let entry = out.image.file("common.txt").unwrap();
        // Cloud wins the main slot.
        assert_eq!(entry.snapshot.segments, vec![seg("cloud-edit")]);
        // Local copy retained, attributed to the device.
        let (device, retained) = entry.conflict.as_ref().unwrap();
        assert_eq!(device, "laptop");
        assert_eq!(retained.segments, vec![seg("local-edit")]);
        // Both contents stay referenced so neither is garbage-collected.
        let live = out.image.referenced();
        assert!(live.contains(&seg("cloud-edit")) && live.contains(&seg("local-edit")));
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
