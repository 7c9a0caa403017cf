//! The UniDrive metadata data model (paper §5.1).
//!
//! All metadata lives in a single **SyncFolderImage**: the file-hierarchy
//! image (one [`FileEntry`] per file, each holding a [`Snapshot`]), and
//! the **segment pool** mapping content-addressed segments to their
//! `<Block-ID, Cloud-ID>` locations. The paper's pool is
//! reference-counted for deduplication; here the count is not stored
//! but computed from the snapshots ([`SyncFolderImage::referenced`]).
//! A compact [`VersionStamp`] identifies each committed metadata
//! version without global clock synchronization.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use unidrive_util::bytes::Bytes;
use unidrive_crypto::Digest;

use crate::codec::{DecodeError, Reader, Writer};

/// The magic tag of an encoded [`SyncFolderImage`] (the base file).
pub const IMAGE_MAGIC: [u8; 4] = *b"UDIM";
/// The format version of an encoded [`SyncFolderImage`].
pub const IMAGE_VERSION: u8 = 4;

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

/// Pool entry for one segment: its plaintext length and where its
/// blocks are.
///
/// A small file's segment can be a *pack member* (DESIGN §4, decision
/// 19): its bytes lie at `offset` in a pack, a segment of its own that
/// the writer made by concatenating a pass's small segments and coded
/// as one stripe. A member stores no block of its own: its `blocks` are
/// empty, and a reader finds them through `packed`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentEntry {
    /// Plaintext segment length in bytes.
    pub len: u64,
    /// Known block locations, updated asynchronously as uploads finish;
    /// none for a pack member.
    pub blocks: Vec<BlockRef>,
    /// For a pack member: the pack's id and the member's offset in it.
    pub packed: Option<(SegmentId, u64)>,
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

/// Point-in-time summary of one file: its ordered segment list (paper
/// Fig. 6). Two snapshots are equal exactly when the contents are, so
/// a rewrite with the same bytes is no change; a file's timestamps are
/// the device's own business and stay out of the shared image.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Snapshot {
    /// Ordered segments whose concatenation is the file content.
    pub segments: Vec<SegmentId>,
}

/// One file in the hierarchy image, with the conflict versions
/// retained beside it (paper §5.2, "Conflicting Local and Cloud
/// Updates": both versions are kept and flagged for the user).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// The current (winning) snapshot.
    pub snapshot: Snapshot,
    /// The conflict copies retained for user resolution, each keyed by
    /// the device whose version lost and that version. A set: a race of
    /// any number of writers keeps every version, and a resolution
    /// removes only the copies it names.
    pub conflicts: BTreeSet<(String, Snapshot)>,
}

impl FileEntry {
    /// Whether `snapshot` is this file's current version or one of its
    /// copies.
    pub(crate) fn holds(&self, snapshot: &Snapshot) -> bool {
        self.snapshot == *snapshot || self.conflicts.iter().any(|(_, s)| s == snapshot)
    }
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
/// image.upsert_file("docs/a.txt", Snapshot { segments: vec![seg] });
/// assert!(image.referenced().contains(&seg));
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

    /// Registers a segment in the pool if absent; updates the length if
    /// it was a placeholder. A pack member stays one.
    pub fn ensure_segment(&mut self, id: SegmentId, len: u64) {
        self.segments.entry(id).or_default().len = len;
    }

    /// Registers `id` as the member of `pack` at `offset`, or moves it
    /// there from another pack, unless the pool stores it on blocks of
    /// its own: those stand, and only the length is updated. Returns
    /// whether `id` is now `pack`'s member.
    pub fn ensure_member(&mut self, id: SegmentId, len: u64, pack: SegmentId, offset: u64) -> bool {
        let entry = self.segments.entry(id).or_default();
        entry.len = len;
        if !entry.blocks.is_empty() {
            return false;
        }
        entry.packed = Some((pack, offset));
        true
    }

    /// The blocks segment `id` reads from: its own, or its pack's for a
    /// pack member. Empty when the pool lacks either.
    pub fn blocks_of(&self, id: &SegmentId) -> &[BlockRef] {
        let Some(entry) = self.segments.get(id) else {
            return &[];
        };
        match entry.packed {
            Some((pack, _)) => self.segments.get(&pack).map_or(&[], |p| &p.blocks),
            None => &entry.blocks,
        }
    }

    /// Records an uploaded block's location (the scheduler's completion
    /// callback, paper §6.2). Creates the pool entry if needed. A block
    /// of a pack member's own makes it a segment stored on its own
    /// blocks, no longer its pack's member.
    pub fn record_block(&mut self, id: SegmentId, block: BlockRef) -> bool {
        let entry = self.segments.entry(id).or_default();
        entry.packed = None;
        entry.add_block(block)
    }

    /// Forgets a block location (over-provisioned block cleanup, cloud
    /// removal).
    pub fn remove_block(&mut self, id: &SegmentId, block: BlockRef) -> bool {
        self.segments
            .get_mut(id)
            .map(|e| e.remove_block(block))
            .unwrap_or(false)
    }

    /// Inserts or replaces a file's snapshot (and drops its conflict
    /// copies). Segments the old version alone named become garbage for
    /// [`collect_garbage`](SyncFolderImage::collect_garbage).
    ///
    /// # Panics
    ///
    /// Panics if a referenced segment was not registered via
    /// [`ensure_segment`](SyncFolderImage::ensure_segment) or
    /// [`record_block`](SyncFolderImage::record_block).
    pub fn upsert_file(&mut self, path: &str, snapshot: Snapshot) {
        self.assert_pooled(&snapshot);
        self.files.insert(
            path.to_owned(),
            FileEntry {
                snapshot,
                conflicts: BTreeSet::new(),
            },
        );
    }

    /// Removes a file, both its versions included.
    pub fn delete_file(&mut self, path: &str) {
        self.files.remove(path);
    }

    /// Adds a conflict copy to an existing file's set (every version
    /// retained per the paper's resolution policy). A version the file
    /// holds already, as its snapshot or as a copy, adds nothing: an op
    /// can attach against a fold that lacked a concurrent write of the
    /// same bytes.
    ///
    /// # Panics
    ///
    /// Panics if the file does not exist or a segment is unregistered.
    pub fn attach_conflict(&mut self, path: &str, origin_device: &str, snapshot: Snapshot) {
        self.assert_pooled(&snapshot);
        let entry = self
            .files
            .get_mut(path)
            .expect("attach_conflict on missing file");
        if !entry.holds(&snapshot) {
            entry.conflicts.insert((origin_device.to_owned(), snapshot));
        }
    }

    /// Removes one conflict copy from a file's set, if it holds it.
    pub(crate) fn remove_conflict(&mut self, path: &str, device: &str, snapshot: &Snapshot) {
        if let Some(entry) = self.files.get_mut(path) {
            entry
                .conflicts
                .retain(|(d, s)| d != device || s != snapshot);
        }
    }

    /// Clears every conflict copy of a file (the user resolved it).
    pub fn resolve_conflict(&mut self, path: &str) {
        if let Some(entry) = self.files.get_mut(path) {
            entry.conflicts.clear();
        }
    }

    /// Every segment a current or conflict snapshot names, and the pack
    /// of each of those that is a pack member: the live part of the
    /// pool. Computed, never stored, so no image read from a cloud can
    /// claim a live segment dead.
    pub fn referenced(&self) -> HashSet<SegmentId> {
        let named: HashSet<SegmentId> = self
            .snapshots()
            .flat_map(|s| s.segments.iter().copied())
            .collect();
        let packs = named.iter().filter_map(|id| Some(self.segments.get(id)?.packed?.0));
        let packs: Vec<SegmentId> = packs.collect();
        named.into_iter().chain(packs).collect()
    }

    /// Drops the segments [`referenced`](Self::referenced) leaves out
    /// from the pool, returning them with their block locations (for
    /// cloud-side deletion): a pack goes only with its last live
    /// member, and a member has no block of its own.
    pub fn collect_garbage(&mut self) -> Vec<(SegmentId, SegmentEntry)> {
        let live = self.referenced();
        let (kept, dead) = std::mem::take(&mut self.segments)
            .into_iter()
            .partition(|(id, _)| live.contains(id));
        self.segments = kept;
        dead.into_iter().collect()
    }

    /// Drops one segment from the pool if no snapshot names it now, nor
    /// a member of it that a snapshot names.
    pub fn drop_unreferenced_segment(&mut self, id: &SegmentId) {
        let named = |s: &SegmentId| self.snapshots().any(|snap| snap.segments.contains(s));
        let mut members = self.segments.iter().filter(|(_, e)| e.packed.is_some_and(|(p, _)| p == *id));
        if !named(id) && !members.any(|(m, _)| named(m)) {
            self.segments.remove(id);
        }
    }

    fn snapshots(&self) -> impl Iterator<Item = &Snapshot> {
        self.files
            .values()
            .flat_map(|e| std::iter::once(&e.snapshot).chain(e.conflicts.iter().map(|(_, s)| s)))
    }

    fn assert_pooled(&self, snapshot: &Snapshot) {
        for id in &snapshot.segments {
            assert!(
                self.segments.contains_key(id),
                "segment {id} referenced before registration"
            );
        }
    }

    /// Serializes the whole image (the metadata *base* file). Counts
    /// and lengths are varints, a block location is two bytes, and a
    /// pack member is its pack and offset, never its pack's blocks.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_header(IMAGE_MAGIC, IMAGE_VERSION);
        w.put_str(&self.version.device);
        w.put_u64(self.version.counter);
        w.put_u64(self.version.timestamp_ns);
        w.put_varint(self.files.len() as u64);
        for (path, entry) in &self.files {
            w.put_str(path);
            encode_snapshot(&mut w, &entry.snapshot);
            w.put_varint(entry.conflicts.len() as u64);
            for (device, snap) in &entry.conflicts {
                w.put_str(device);
                encode_snapshot(&mut w, snap);
            }
        }
        w.put_varint(self.segments.len() as u64);
        for (id, entry) in &self.segments {
            w.put_fixed(id.0.as_bytes());
            w.put_varint(entry.len);
            encode_packed(&mut w, entry.packed);
            w.put_varint(entry.blocks.len() as u64);
            for b in &entry.blocks {
                encode_block(&mut w, *b);
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
        let file_count = r.get_varint("file count")?;
        let mut files = BTreeMap::new();
        for _ in 0..file_count {
            let path = r.get_str("file path")?;
            let snapshot = decode_snapshot(&mut r)?;
            let mut conflicts = BTreeSet::new();
            for _ in 0..r.get_varint("conflict count")? {
                let device = r.get_str("conflict device")?;
                conflicts.insert((device, decode_snapshot(&mut r)?));
            }
            files.insert(
                path,
                FileEntry {
                    snapshot,
                    conflicts,
                },
            );
        }
        let seg_count = r.get_varint("segment count")?;
        let mut segments = BTreeMap::new();
        for _ in 0..seg_count {
            let id = SegmentId(Digest(r.get_fixed::<20>("segment id")?));
            let len = r.get_varint("segment len")?;
            let packed = decode_packed(&mut r)?;
            let count = r.get_varint("block count")?;
            let mut blocks = Vec::with_capacity(count.min(1 << 10) as usize);
            for _ in 0..count {
                blocks.push(decode_block(&mut r)?);
            }
            segments.insert(id, SegmentEntry { len, blocks, packed });
        }
        Ok(SyncFolderImage {
            version,
            files,
            segments,
        })
    }
}

/// Encodes a pool entry's pack pointer: flag 1, the pack's id and the
/// offset for a pack member, flag 0 otherwise.
pub(crate) fn encode_packed(w: &mut Writer, packed: Option<(SegmentId, u64)>) {
    match packed {
        Some((pack, offset)) => {
            w.put_u8(1);
            w.put_fixed(pack.0.as_bytes());
            w.put_varint(offset);
        }
        None => w.put_u8(0),
    }
}

pub(crate) fn decode_packed(r: &mut Reader<'_>) -> Result<Option<(SegmentId, u64)>, DecodeError> {
    match r.get_u8("pack flag")? {
        0 => Ok(None),
        1 => {
            let pack = SegmentId(Digest(r.get_fixed::<20>("pack id")?));
            Ok(Some((pack, r.get_varint("pack offset")?)))
        }
        other => Err(DecodeError::BadVersion { found: other }),
    }
}

/// One block location as two bytes: its index (RS over GF(2^8) codes at
/// most 255 blocks) and its cloud.
pub(crate) fn encode_block(w: &mut Writer, b: BlockRef) {
    w.put_u8(u8::try_from(b.index).expect("a block index fits a byte"));
    w.put_u8(u8::try_from(b.cloud).expect("a cloud index fits a byte"));
}

pub(crate) fn decode_block(r: &mut Reader<'_>) -> Result<BlockRef, DecodeError> {
    Ok(BlockRef {
        index: u16::from(r.get_u8("block index")?),
        cloud: u16::from(r.get_u8("block cloud")?),
    })
}

pub(crate) fn encode_snapshot(w: &mut Writer, s: &Snapshot) {
    w.put_varint(s.segments.len() as u64);
    for id in &s.segments {
        w.put_fixed(id.0.as_bytes());
    }
}

pub(crate) fn decode_snapshot(r: &mut Reader<'_>) -> Result<Snapshot, DecodeError> {
    let count = r.get_varint("snapshot segment count")?;
    let mut segments = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        segments.push(SegmentId(Digest(r.get_fixed::<20>("snapshot segment")?)));
    }
    Ok(Snapshot { segments })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_crypto::Sha1;

    fn seg(tag: &str) -> SegmentId {
        SegmentId(Sha1::digest(tag.as_bytes()))
    }

    fn snap(tag: &str) -> Snapshot {
        Snapshot {
            segments: vec![seg(tag)],
        }
    }

    fn image_with(paths: &[(&str, &str)]) -> SyncFolderImage {
        let mut img = SyncFolderImage::new();
        for (path, tag) in paths {
            img.ensure_segment(seg(tag), 10);
            img.upsert_file(path, snap(tag));
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
        w.put_varint(0); // files
        w.put_varint(1); // segments
        w.put_fixed(seg("s").0.as_bytes());
        w.put_varint(10);
        w.put_u8(0); // stored on its own blocks
        w.put_varint(u64::from(u32::MAX)); // blocks claimed, none present
        assert_eq!(
            SyncFolderImage::decode(&w.finish()),
            Err(DecodeError::UnexpectedEof {
                context: "block index"
            })
        );
    }

    fn collected(img: &mut SyncFolderImage) -> Vec<SegmentId> {
        img.collect_garbage()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn a_shared_segment_lives_while_any_file_names_it() {
        let mut img = SyncFolderImage::new();
        img.ensure_segment(seg("shared"), 10);
        img.upsert_file("a", snap("shared"));
        img.upsert_file("b", snap("shared"));
        img.delete_file("a");
        assert!(collected(&mut img).is_empty());
        img.delete_file("b");
        assert_eq!(collected(&mut img), vec![seg("shared")]);
    }

    #[test]
    fn replacing_a_file_releases_old_segments() {
        let mut img = SyncFolderImage::new();
        img.ensure_segment(seg("v1"), 10);
        img.upsert_file("f", snap("v1"));
        img.ensure_segment(seg("v2"), 12);
        img.upsert_file("f", snap("v2"));
        assert_eq!(img.referenced(), HashSet::from([seg("v2")]));
        assert_eq!(collected(&mut img), vec![seg("v1")]);
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
        img.attach_conflict("f", "laptop", snap("theirs"));
        assert!(img.referenced().contains(&seg("theirs")));
        // Resolving frees the conflict copy.
        img.resolve_conflict("f");
        assert!(img.file("f").unwrap().conflicts.is_empty());
        assert_eq!(collected(&mut img), vec![seg("theirs")]);
    }

    #[test]
    fn deleting_a_conflicted_file_releases_both_versions() {
        let mut img = image_with(&[("f", "main")]);
        img.ensure_segment(seg("theirs"), 10);
        img.attach_conflict("f", "laptop", snap("theirs"));
        img.delete_file("f");
        let mut garbage = collected(&mut img);
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
        img.upsert_file("f", snap("v2"));
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
        img.attach_conflict("c.bin", "phone", snap("s1"));
        img.version = VersionStamp {
            device: "laptop".into(),
            counter: 9,
            timestamp_ns: 1234,
        };
        let decoded = SyncFolderImage::decode(&img.encode()).unwrap();
        assert_eq!(decoded, img);
    }

    #[test]
    fn every_copy_round_trips_and_a_resolve_removes_only_its_own() {
        let mut img = image_with(&[("f", "cur"), ("g", "s1")]);
        for tag in ["b", "c"] {
            img.ensure_segment(seg(tag), 10);
        }
        img.attach_conflict("f", "phone", snap("b"));
        img.attach_conflict("f", "tablet", snap("c"));
        img.attach_conflict("f", "laptop", snap("b"));
        img.attach_conflict("f", "laptop", snap("cur"));
        assert_eq!(
            img.file("f").unwrap().conflicts.len(),
            2,
            "a held version adds nothing"
        );
        assert_eq!(SyncFolderImage::decode(&img.encode()).unwrap(), img);
        img.remove_conflict("f", "phone", &snap("b"));
        let left: Vec<_> = img.file("f").unwrap().conflicts.iter().cloned().collect();
        assert_eq!(left, vec![("tablet".to_owned(), snap("c"))]);
        assert_eq!(collected(&mut img), vec![seg("b")]);
    }

    /// The copy count is a varint, so a file with no copy or with one
    /// pays one byte for it, as the one-slot format's flag byte did: the
    /// first copy adds only its device and snapshot. The lengths are
    /// those of image version 4 (varint counts and lengths, two-byte
    /// block locations), which took the first image from 179 bytes to
    /// 147; a pack member costs its pack's id and a varint offset.
    #[test]
    fn files_with_at_most_one_copy_encode_to_the_one_slot_length() {
        let mut img = image_with(&[("a/b.txt", "s1"), ("c.bin", "s2")]);
        img.record_block(seg("s1"), BlockRef { index: 2, cloud: 4 });
        // Header 5, stamp 20, files 1 + 33 + 31, pool 1 + 25 + 23,
        // checksum 8.
        assert_eq!(img.encode().len(), 147);
        img.attach_conflict("c.bin", "phone", snap("s1"));
        assert_eq!(img.encode().len(), 147 + (4 + 5) + (1 + 20));
        img.ensure_segment(seg("s3"), 10);
        img.attach_conflict("c.bin", "tablet", snap("s3"));
        // The pool entry of s3, then the copy's device and snapshot.
        assert_eq!(img.encode().len(), 177 + 23 + (4 + 6) + (1 + 20));
        img.ensure_member(seg("m"), 10, seg("s1"), 3);
        assert_eq!(img.encode().len(), 231 + 20 + 1 + (1 + 20 + 1) + 1);
        assert!(img.segment(&seg("m")).unwrap().blocks.is_empty());
        assert_eq!(img.blocks_of(&seg("m")), [BlockRef { index: 2, cloud: 4 }]);
        assert_eq!(SyncFolderImage::decode(&img.encode()).unwrap(), img);
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
    #[should_panic(expected = "referenced before registration")]
    fn unregistered_segment_rejected() {
        let mut img = SyncFolderImage::new();
        img.upsert_file("f", snap("ghost"));
    }
}
