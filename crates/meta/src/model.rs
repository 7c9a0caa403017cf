//! The UniDrive metadata data model (paper §5.1).
//!
//! All metadata lives in a single **SyncFolderImage**: the file-hierarchy
//! image (one [`FileEntry`] per file, each holding a [`Snapshot`]), and
//! the **segment pool** mapping content-addressed segments to their
//! `<Block-ID, Cloud-ID>` locations with reference counts for
//! deduplication. A compact [`VersionStamp`] identifies each committed
//! metadata version without global clock synchronization.

use std::collections::BTreeMap;

use unidrive_util::bytes::Bytes;
use unidrive_crypto::Digest;

use crate::codec::{DecodeError, Reader, Writer};

const IMAGE_MAGIC: [u8; 4] = *b"UDIM";
const IMAGE_VERSION: u8 = 1;

/// Content-addressed identity of a segment: the SHA-1 of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub Digest);

impl SegmentId {
    /// Hex form used in cloud object names.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Location of one erasure-coded block: which block index of the segment
/// lives on which cloud (the paper's `<Block-ID, Cloud-ID>` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Block index within the segment's code (0-based).
    pub index: u16,
    /// Cloud holding the block ([`CloudId`](unidrive_cloud::CloudId)
    /// index in the user's cloud set).
    pub cloud: u16,
}

/// Pool entry for one segment: its plaintext length, where its blocks
/// are, and how many snapshots reference it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentEntry {
    /// Plaintext segment length in bytes.
    pub len: u64,
    /// Known block locations, updated asynchronously as uploads finish.
    pub blocks: Vec<BlockRef>,
    /// Number of snapshot references (deduplication refcount).
    pub refcount: u32,
}

impl SegmentEntry {
    /// Adds a block location if not already present; returns whether it
    /// was new.
    pub fn add_block(&mut self, block: BlockRef) -> bool {
        if self.blocks.contains(&block) {
            false
        } else {
            self.blocks.push(block);
            self.blocks.sort();
            true
        }
    }

    /// Removes a block location; returns whether it was present.
    pub fn remove_block(&mut self, block: BlockRef) -> bool {
        if let Some(i) = self.blocks.iter().position(|b| *b == block) {
            self.blocks.remove(i);
            true
        } else {
            false
        }
    }

    /// Distinct block count currently stored on `cloud`.
    pub fn blocks_on(&self, cloud: u16) -> usize {
        self.blocks.iter().filter(|b| b.cloud == cloud).count()
    }
}

/// Point-in-time summary of one file: its size, timestamp and ordered
/// segment list (paper Fig. 6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Snapshot {
    /// Modification time in nanoseconds of runtime time (device-local;
    /// only compared on the same device).
    pub mtime_ns: u64,
    /// File size in bytes.
    pub size: u64,
    /// Ordered segments whose concatenation is the file content.
    pub segments: Vec<SegmentId>,
}

/// One file in the hierarchy image, with an optional retained conflict
/// version (paper §5.2, "Conflicting Local and Cloud Updates").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// The current (winning) snapshot.
    pub snapshot: Snapshot,
    /// A conflicting snapshot retained for user resolution, tagged with
    /// the device that produced it.
    pub conflict: Option<(String, Snapshot)>,
}

/// Identifies a committed metadata version: `(device, counter)` with a
/// device-local timestamp — comparable for equality without any global
/// clock (paper §5.2, "version file").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VersionStamp {
    /// Device that committed this version.
    pub device: String,
    /// Device-local commit counter.
    pub counter: u64,
    /// Device-local timestamp (informational).
    pub timestamp_ns: u64,
}

impl VersionStamp {
    const MAGIC: [u8; 4] = *b"UDVS";

    /// Encodes to the small version file uploaded beside the metadata.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_header(Self::MAGIC, 1);
        w.put_str(&self.device);
        w.put_u64(self.counter);
        w.put_u64(self.timestamp_ns);
        w.finish()
    }

    /// Decodes a version file.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::with_header(data, Self::MAGIC, 1)?;
        Ok(VersionStamp {
            device: r.get_str("device")?,
            counter: r.get_u64("counter")?,
            timestamp_ns: r.get_u64("timestamp")?,
        })
    }
}

impl std::fmt::Display for VersionStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.device, self.counter)
    }
}

/// The single metadata file capturing the whole sync folder (paper §4):
/// file hierarchy, snapshots, and the segment pool.
///
/// # Examples
///
/// ```
/// use unidrive_meta::{SegmentId, SyncFolderImage, Snapshot};
/// use unidrive_crypto::Sha1;
///
/// let mut image = SyncFolderImage::new();
/// let seg = SegmentId(Sha1::digest(b"content"));
/// image.ensure_segment(seg, 7);
/// image.upsert_file(
///     "docs/a.txt",
///     Snapshot { mtime_ns: 1, size: 7, segments: vec![seg] },
/// );
/// assert_eq!(image.segment(&seg).unwrap().refcount, 1);
/// let restored = SyncFolderImage::decode(&image.encode()).unwrap();
/// assert_eq!(restored, image);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SyncFolderImage {
    /// Version of the last commit this image reflects.
    pub version: VersionStamp,
    files: BTreeMap<String, FileEntry>,
    segments: BTreeMap<SegmentId, SegmentEntry>,
}

impl SyncFolderImage {
    /// Creates an empty image (version zero).
    pub fn new() -> Self {
        SyncFolderImage::default()
    }

    /// Number of files in the hierarchy.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Looks up one file.
    pub fn file(&self, path: &str) -> Option<&FileEntry> {
        self.files.get(path)
    }

    /// Iterates over `(path, entry)` in path order.
    pub fn files(&self) -> impl Iterator<Item = (&str, &FileEntry)> {
        self.files.iter().map(|(p, e)| (p.as_str(), e))
    }

    /// Looks up one segment pool entry.
    pub fn segment(&self, id: &SegmentId) -> Option<&SegmentEntry> {
        self.segments.get(id)
    }

    /// Iterates over the segment pool.
    pub fn segments(&self) -> impl Iterator<Item = (&SegmentId, &SegmentEntry)> {
        self.segments.iter()
    }

    /// Registers a segment in the pool (refcount 0) if absent; updates
    /// the length if it was a placeholder.
    pub fn ensure_segment(&mut self, id: SegmentId, len: u64) -> &mut SegmentEntry {
        let entry = self.segments.entry(id).or_default();
        entry.len = len;
        entry
    }

    /// Records an uploaded block's location (the scheduler's completion
    /// callback, paper §6.2). Creates the pool entry if needed.
    pub fn record_block(&mut self, id: SegmentId, block: BlockRef) -> bool {
        self.segments.entry(id).or_default().add_block(block)
    }

    /// Forgets a block location (over-provisioned block cleanup, cloud
    /// removal).
    pub fn remove_block(&mut self, id: &SegmentId, block: BlockRef) -> bool {
        self.segments
            .get_mut(id)
            .map(|e| e.remove_block(block))
            .unwrap_or(false)
    }

    /// Inserts or replaces a file's snapshot, maintaining segment
    /// refcounts. Returns segments whose refcount dropped to zero (their
    /// blocks may be garbage-collected from the clouds).
    ///
    /// # Panics
    ///
    /// Panics if a referenced segment was not registered via
    /// [`ensure_segment`](SyncFolderImage::ensure_segment) or
    /// [`record_block`](SyncFolderImage::record_block).
    pub fn upsert_file(&mut self, path: &str, snapshot: Snapshot) -> Vec<SegmentId> {
        for id in &snapshot.segments {
            assert!(
                self.segments.contains_key(id),
                "segment {id} referenced before registration"
            );
        }
        let old = self.files.insert(
            path.to_owned(),
            FileEntry {
                snapshot: snapshot.clone(),
                conflict: None,
            },
        );
        for id in &snapshot.segments {
            self.segments
                .get_mut(id)
                .expect("checked above")
                .refcount += 1;
        }
        let mut garbage = Vec::new();
        if let Some(old) = old {
            garbage.extend(self.release_entry(&old));
        }
        garbage
    }

    /// Removes a file, returning newly-orphaned segments.
    pub fn delete_file(&mut self, path: &str) -> Vec<SegmentId> {
        match self.files.remove(path) {
            Some(entry) => self.release_entry(&entry),
            None => Vec::new(),
        }
    }

    /// Attaches a conflict snapshot to an existing file (both versions
    /// retained per the paper's resolution policy). The conflict's
    /// segments gain references so their data is preserved.
    ///
    /// # Panics
    ///
    /// Panics if the file does not exist or a segment is unregistered.
    pub fn attach_conflict(&mut self, path: &str, origin_device: &str, snapshot: Snapshot) {
        for id in &snapshot.segments {
            assert!(
                self.segments.contains_key(id),
                "segment {id} referenced before registration"
            );
        }
        for id in &snapshot.segments {
            self.segments.get_mut(id).expect("checked").refcount += 1;
        }
        let entry = self
            .files
            .get_mut(path)
            .expect("attach_conflict on missing file");
        if let Some((_, old)) = entry
            .conflict
            .replace((origin_device.to_owned(), snapshot))
        {
            // Release the previously retained conflict.
            let ids = old.segments.clone();
            for id in ids {
                if let Some(e) = self.segments.get_mut(&id) {
                    e.refcount = e.refcount.saturating_sub(1);
                }
            }
        }
    }

    /// Clears a file's conflict (user resolved it), returning orphaned
    /// segments.
    pub fn resolve_conflict(&mut self, path: &str) -> Vec<SegmentId> {
        let Some(entry) = self.files.get_mut(path) else {
            return Vec::new();
        };
        let Some((_, snap)) = entry.conflict.take() else {
            return Vec::new();
        };
        let mut garbage = Vec::new();
        for id in snap.segments {
            if let Some(e) = self.segments.get_mut(&id) {
                e.refcount = e.refcount.saturating_sub(1);
                if e.refcount == 0 {
                    garbage.push(id);
                }
            }
        }
        garbage
    }

    /// Drops zero-refcount segments from the pool, returning them with
    /// their block locations (for cloud-side deletion).
    pub fn collect_garbage(&mut self) -> Vec<(SegmentId, SegmentEntry)> {
        let dead: Vec<SegmentId> = self
            .segments
            .iter()
            .filter(|(_, e)| e.refcount == 0)
            .map(|(id, _)| *id)
            .collect();
        dead.into_iter()
            .map(|id| {
                let entry = self.segments.remove(&id).expect("listed above");
                (id, entry)
            })
            .collect()
    }

    /// Drops one segment from the pool if no snapshot references it.
    pub fn drop_unreferenced_segment(&mut self, id: &SegmentId) {
        if self.segments.get(id).is_some_and(|e| e.refcount == 0) {
            self.segments.remove(id);
        }
    }

    /// Recomputes every segment refcount from the file entries (used
    /// after three-way merges).
    pub fn recompute_refcounts(&mut self) {
        for entry in self.segments.values_mut() {
            entry.refcount = 0;
        }
        let bump = |segments: &[SegmentId], pool: &mut BTreeMap<SegmentId, SegmentEntry>| {
            for id in segments {
                pool.entry(*id).or_default().refcount += 1;
            }
        };
        let files: Vec<(Vec<SegmentId>, Option<Vec<SegmentId>>)> = self
            .files
            .values()
            .map(|e| {
                (
                    e.snapshot.segments.clone(),
                    e.conflict.as_ref().map(|(_, s)| s.segments.clone()),
                )
            })
            .collect();
        for (main, conflict) in files {
            bump(&main, &mut self.segments);
            if let Some(c) = conflict {
                bump(&c, &mut self.segments);
            }
        }
    }

    fn release_entry(&mut self, entry: &FileEntry) -> Vec<SegmentId> {
        let mut ids = entry.snapshot.segments.clone();
        if let Some((_, c)) = &entry.conflict {
            ids.extend(c.segments.iter().copied());
        }
        let mut garbage = Vec::new();
        for id in ids {
            if let Some(e) = self.segments.get_mut(&id) {
                e.refcount = e.refcount.saturating_sub(1);
                if e.refcount == 0 {
                    garbage.push(id);
                }
            }
        }
        garbage
    }

    /// Serializes the whole image (the metadata *base* file).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_header(IMAGE_MAGIC, IMAGE_VERSION);
        w.put_str(&self.version.device);
        w.put_u64(self.version.counter);
        w.put_u64(self.version.timestamp_ns);
        w.put_u32(self.files.len() as u32);
        for (path, entry) in &self.files {
            w.put_str(path);
            encode_snapshot(&mut w, &entry.snapshot);
            match &entry.conflict {
                None => w.put_u8(0),
                Some((device, snap)) => {
                    w.put_u8(1);
                    w.put_str(device);
                    encode_snapshot(&mut w, snap);
                }
            }
        }
        w.put_u32(self.segments.len() as u32);
        for (id, entry) in &self.segments {
            w.put_fixed(id.0.as_bytes());
            w.put_u64(entry.len);
            w.put_u32(entry.refcount);
            w.put_u32(entry.blocks.len() as u32);
            for b in &entry.blocks {
                w.put_u16(b.index);
                w.put_u16(b.cloud);
            }
        }
        w.finish()
    }

    /// Deserializes an image.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on corruption or version mismatch.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::with_header(data, IMAGE_MAGIC, IMAGE_VERSION)?;
        let version = VersionStamp {
            device: r.get_str("version.device")?,
            counter: r.get_u64("version.counter")?,
            timestamp_ns: r.get_u64("version.timestamp")?,
        };
        let file_count = r.get_u32("file count")?;
        let mut files = BTreeMap::new();
        for _ in 0..file_count {
            let path = r.get_str("file path")?;
            let snapshot = decode_snapshot(&mut r)?;
            let conflict = match r.get_u8("conflict flag")? {
                0 => None,
                _ => {
                    let device = r.get_str("conflict device")?;
                    Some((device, decode_snapshot(&mut r)?))
                }
            };
            files.insert(path, FileEntry { snapshot, conflict });
        }
        let seg_count = r.get_u32("segment count")?;
        let mut segments = BTreeMap::new();
        for _ in 0..seg_count {
            let raw = r.get_fixed::<20>("segment id")?;
            let id = SegmentId(Digest(raw));
            let len = r.get_u64("segment len")?;
            let refcount = r.get_u32("segment refcount")?;
            let block_count = r.get_u32("block count")?;
            let mut blocks = Vec::with_capacity(block_count.min(1 << 20) as usize);
            for _ in 0..block_count {
                blocks.push(BlockRef {
                    index: r.get_u16("block index")?,
                    cloud: r.get_u16("block cloud")?,
                });
            }
            segments.insert(
                id,
                SegmentEntry {
                    len,
                    blocks,
                    refcount,
                },
            );
        }
        Ok(SyncFolderImage {
            version,
            files,
            segments,
        })
    }
}

pub(crate) fn encode_snapshot(w: &mut Writer, s: &Snapshot) {
    w.put_u64(s.mtime_ns);
    w.put_u64(s.size);
    w.put_u32(s.segments.len() as u32);
    for id in &s.segments {
        w.put_fixed(id.0.as_bytes());
    }
}

pub(crate) fn decode_snapshot(r: &mut Reader<'_>) -> Result<Snapshot, DecodeError> {
    let mtime_ns = r.get_u64("snapshot mtime")?;
    let size = r.get_u64("snapshot size")?;
    let count = r.get_u32("snapshot segment count")?;
    let mut segments = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        segments.push(SegmentId(Digest(r.get_fixed::<20>("snapshot segment")?)));
    }
    Ok(Snapshot {
        mtime_ns,
        size,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_crypto::Sha1;

    fn seg(tag: &str) -> SegmentId {
        SegmentId(Sha1::digest(tag.as_bytes()))
    }

    fn snap(tag: &str, size: u64) -> Snapshot {
        Snapshot {
            mtime_ns: 1,
            size,
            segments: vec![seg(tag)],
        }
    }

    fn image_with(paths: &[(&str, &str)]) -> SyncFolderImage {
        let mut img = SyncFolderImage::new();
        for (path, tag) in paths {
            img.ensure_segment(seg(tag), 10);
            img.upsert_file(path, snap(tag, 10));
        }
        img
    }

    /// A count read from a cloud is clamped before it sizes a buffer:
    /// a well-formed (checksum-valid) image claiming `u32::MAX` blocks
    /// runs out of input instead of reserving 16 GiB up front.
    #[test]
    fn a_huge_claimed_block_count_is_eof_not_an_allocation() {
        let mut w = Writer::with_header(IMAGE_MAGIC, IMAGE_VERSION);
        w.put_str("dev");
        w.put_u64(1);
        w.put_u64(1);
        w.put_u32(0); // files
        w.put_u32(1); // segments
        w.put_fixed(seg("s").0.as_bytes());
        w.put_u64(10);
        w.put_u32(1);
        w.put_u32(u32::MAX); // blocks claimed, none present
        assert_eq!(
            SyncFolderImage::decode(&w.finish()),
            Err(DecodeError::UnexpectedEof {
                context: "block index"
            })
        );
    }

    #[test]
    fn refcounts_track_shared_segments() {
        let mut img = SyncFolderImage::new();
        img.ensure_segment(seg("shared"), 10);
        img.upsert_file("a", snap("shared", 10));
        img.upsert_file("b", snap("shared", 10));
        assert_eq!(img.segment(&seg("shared")).unwrap().refcount, 2);
        let garbage = img.delete_file("a");
        assert!(garbage.is_empty());
        let garbage = img.delete_file("b");
        assert_eq!(garbage, vec![seg("shared")]);
    }

    #[test]
    fn replacing_a_file_releases_old_segments() {
        let mut img = SyncFolderImage::new();
        img.ensure_segment(seg("v1"), 10);
        img.upsert_file("f", snap("v1", 10));
        img.ensure_segment(seg("v2"), 12);
        let garbage = img.upsert_file("f", snap("v2", 12));
        assert_eq!(garbage, vec![seg("v1")]);
        assert_eq!(img.segment(&seg("v2")).unwrap().refcount, 1);
    }

    #[test]
    fn block_recording_is_idempotent() {
        let mut img = SyncFolderImage::new();
        let b = BlockRef { index: 3, cloud: 1 };
        assert!(img.record_block(seg("s"), b));
        assert!(!img.record_block(seg("s"), b));
        assert_eq!(img.segment(&seg("s")).unwrap().blocks, vec![b]);
        assert!(img.remove_block(&seg("s"), b));
        assert!(!img.remove_block(&seg("s"), b));
    }

    #[test]
    fn blocks_on_counts_per_cloud() {
        let mut e = SegmentEntry::default();
        e.add_block(BlockRef { index: 0, cloud: 2 });
        e.add_block(BlockRef { index: 1, cloud: 2 });
        e.add_block(BlockRef { index: 2, cloud: 0 });
        assert_eq!(e.blocks_on(2), 2);
        assert_eq!(e.blocks_on(0), 1);
        assert_eq!(e.blocks_on(9), 0);
    }

    #[test]
    fn conflicts_retain_segment_references() {
        let mut img = image_with(&[("f", "main")]);
        img.ensure_segment(seg("theirs"), 10);
        img.attach_conflict("f", "laptop", snap("theirs", 10));
        assert_eq!(img.segment(&seg("theirs")).unwrap().refcount, 1);
        // Resolving frees the conflict copy.
        let garbage = img.resolve_conflict("f");
        assert_eq!(garbage, vec![seg("theirs")]);
        assert!(img.file("f").unwrap().conflict.is_none());
    }

    #[test]
    fn deleting_a_conflicted_file_releases_both_versions() {
        let mut img = image_with(&[("f", "main")]);
        img.ensure_segment(seg("theirs"), 10);
        img.attach_conflict("f", "laptop", snap("theirs", 10));
        let mut garbage = img.delete_file("f");
        garbage.sort();
        let mut expect = vec![seg("main"), seg("theirs")];
        expect.sort();
        assert_eq!(garbage, expect);
    }

    #[test]
    fn garbage_collection_drops_orphans_with_locations() {
        let mut img = image_with(&[("f", "v1")]);
        img.record_block(seg("v1"), BlockRef { index: 0, cloud: 0 });
        img.ensure_segment(seg("v2"), 10);
        img.upsert_file("f", snap("v2", 10));
        let collected = img.collect_garbage();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].0, seg("v1"));
        assert_eq!(collected[0].1.blocks.len(), 1);
        assert!(img.segment(&seg("v1")).is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut img = image_with(&[("a/b.txt", "s1"), ("c.bin", "s2")]);
        img.record_block(seg("s1"), BlockRef { index: 2, cloud: 4 });
        img.attach_conflict("c.bin", "phone", snap("s1", 10));
        img.version = VersionStamp {
            device: "laptop".into(),
            counter: 9,
            timestamp_ns: 1234,
        };
        let decoded = SyncFolderImage::decode(&img.encode()).unwrap();
        assert_eq!(decoded, img);
    }

    #[test]
    fn version_stamp_round_trip() {
        let v = VersionStamp {
            device: "dev-α".into(),
            counter: 42,
            timestamp_ns: 7,
        };
        assert_eq!(VersionStamp::decode(&v.encode()).unwrap(), v);
        assert!(VersionStamp::decode(b"junk").is_err());
    }

    #[test]
    fn recompute_refcounts_matches_incremental() {
        let mut img = image_with(&[("a", "s1"), ("b", "s1"), ("c", "s2")]);
        let incremental: Vec<u32> = img.segments().map(|(_, e)| e.refcount).collect();
        img.recompute_refcounts();
        let recomputed: Vec<u32> = img.segments().map(|(_, e)| e.refcount).collect();
        assert_eq!(incremental, recomputed);
    }

    #[test]
    #[should_panic(expected = "referenced before registration")]
    fn unregistered_segment_rejected() {
        let mut img = SyncFolderImage::new();
        img.upsert_file("f", snap("ghost", 10));
    }
}
