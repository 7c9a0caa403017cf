//! Oplog metadata plane model: append-only [`MetaOp`] records and
//! their deterministic fold into a [`SyncFolderImage`].
//!
//! Where the lock plane serializes writers behind one quorum lock over
//! the whole image, the oplog plane lets every device append serialized
//! ops to its **own** per-device op file on every cloud (the device is
//! the file's only writer, so appends never race). Readers collect all
//! visible op files, dedup ops by their deterministic id — derived from
//! `(folder, device, seq)` — and fold them over the compacted base in
//! the total `(lamport, device, seq)` order, so every reader that sees
//! the same op set computes byte-identical metadata (strong eventual
//! consistency, in the style of log-replicated sync engines).
//!
//! Ops that raced in the log resolve under the one conflict rule both
//! planes share (`apply_commit` in `delta.rs`, also called by
//! `merge3`): an op's change to a path is contested when one of the
//! path's writers — the op that last set its content, or one that
//! added a copy since — is another device's op that the op's `base`
//! (the watermark of the fold it was built on) does not cover. The op
//! first in the total order keeps the slot; a later op's upsert of
//! other content is added to the file's conflict copies, and its delete
//! loses to the modify.
//!
//! The quorum lock survives only for **compaction**: when the folded
//! log outgrows λ, the compactor folds everything into a new
//! [`OplogBase`] whose watermark records, per device, the highest seq
//! already folded — ops at or below the watermark are skipped forever
//! after and the compactor deletes their op objects.

use std::collections::{BTreeMap, BTreeSet};

use unidrive_util::bytes::Bytes;
use unidrive_crypto::{Digest, Sha1};

use crate::codec::{DecodeError, Reader, Writer};
use crate::delta::{apply_commit, decode_record, encode_record};
use crate::{DeltaRecord, SyncFolderImage, VersionStamp};

const OP_MAGIC: [u8; 4] = *b"UDOP";
const OP_VERSION: u8 = 6;
const OPLOG_BASE_MAGIC: [u8; 4] = *b"UDOB";
const OPLOG_BASE_VERSION: u8 = 5;

/// One committed metadata operation: a batch of [`DeltaRecord`]s from
/// one device's sync pass, stamped for the total fold order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaOp {
    /// Committing device; with `seq` it names the op object the op is
    /// stored in (`ops_<device>_<seq>`).
    pub device: String,
    /// Per-device commit sequence number, starting at 1; the ops of a
    /// device a cloud shows always form a run `w+1..=k` of its log above
    /// the base watermark `w` (objects reach each cloud in seq order).
    pub seq: u64,
    /// Lamport clock at commit: `max(folded head, own last) + 1`.
    pub lamport: u64,
    /// The watermark of the fold the device built this op on: per
    /// device, the highest seq it had folded. An op covers another when
    /// its base holds the other's seq; two ops are concurrent when
    /// neither covers the other. (A lamport bound cannot say this: an
    /// op with a lower lamport than the base's head may still be one
    /// the device never saw.)
    pub base: BTreeMap<String, u64>,
    /// Device-local commit time (informational, carried into the
    /// version stamp).
    pub stamp_ns: u64,
    /// The metadata changes, in commit order.
    pub records: Vec<DeltaRecord>,
}

impl MetaOp {
    /// Deterministic op id: every replica derives the same digest from
    /// `(folder, device, seq)`, so duplicates — replays, retried
    /// uploads, the same op visible on five clouds — dedup exactly.
    pub fn id(&self, folder: &str) -> Digest {
        op_id(folder, &self.device, self.seq)
    }

    /// The version stamp a fold ending at this op reports.
    pub fn stamp(&self) -> VersionStamp {
        VersionStamp {
            device: self.device.clone(),
            counter: self.lamport,
            timestamp_ns: self.stamp_ns,
        }
    }

    /// Serializes the op (magic `UDOP`).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_header(OP_MAGIC, OP_VERSION);
        w.put_str(&self.device);
        w.put_u64(self.seq);
        w.put_u64(self.lamport);
        w.put_u32(self.base.len() as u32);
        for (device, seq) in &self.base {
            w.put_str(device);
            w.put_u64(*seq);
        }
        w.put_u64(self.stamp_ns);
        w.put_u32(self.records.len() as u32);
        for r in &self.records {
            encode_record(&mut w, r);
        }
        w.finish()
    }

    /// Deserializes an op.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on corruption or unknown record kinds.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::with_header(data, OP_MAGIC, OP_VERSION)?;
        let device = r.get_str("op device")?;
        let seq = r.get_u64("op seq")?;
        let lamport = r.get_u64("op lamport")?;
        let n = r.get_u32("op base count")?;
        let mut base = BTreeMap::new();
        for _ in 0..n {
            let device = r.get_str("op base device")?;
            base.insert(device, r.get_u64("op base seq")?);
        }
        let stamp_ns = r.get_u64("op stamp")?;
        let count = r.get_u32("op record count")?;
        let mut records = Vec::with_capacity(count.min(1 << 20) as usize);
        for _ in 0..count {
            records.push(decode_record(&mut r)?);
        }
        Ok(MetaOp {
            device,
            seq,
            lamport,
            base,
            stamp_ns,
            records,
        })
    }
}

/// Deterministic op id from `(folder, device, seq)`.
pub fn op_id(folder: &str, device: &str, seq: u64) -> Digest {
    let mut buf = Vec::with_capacity(folder.len() + device.len() + 10);
    buf.extend_from_slice(folder.as_bytes());
    buf.push(0);
    buf.extend_from_slice(device.as_bytes());
    buf.push(0);
    buf.extend_from_slice(&seq.to_le_bytes());
    Sha1::digest(&buf)
}

/// The oplog plane's compacted state: the folded image plus the fold
/// frontier (watermark and per-path writer info), written under the
/// quorum lock. A fresh multi-cloud starts from [`OplogBase::new`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OplogBase {
    /// The folded image as of the watermark.
    pub image: SyncFolderImage,
    /// Per device, the highest seq folded into `image`; ops at or
    /// below it are skipped by every subsequent fold.
    pub watermark: BTreeMap<String, u64>,
    /// Per live path, the `(device, seq)` of each op whose version it
    /// holds: the one that last set its content, and every one that
    /// added a copy since — carried so concurrency detection survives
    /// compaction and `fold(compact(log)) == fold(log)` holds exactly.
    pub writers: BTreeMap<String, BTreeSet<(String, u64)>>,
}

impl OplogBase {
    /// An empty base: nothing folded yet.
    pub fn new() -> Self {
        OplogBase::default()
    }

    /// Serializes the base (magic `UDOB`).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_header(OPLOG_BASE_MAGIC, OPLOG_BASE_VERSION);
        w.put_u32(self.watermark.len() as u32);
        for (device, seq) in &self.watermark {
            w.put_str(device);
            w.put_u64(*seq);
        }
        // One flat entry per writer: a path with one writer costs one
        // entry.
        let entries = self
            .writers
            .iter()
            .flat_map(|(path, ws)| ws.iter().map(move |w| (path, w)));
        w.put_u32(entries.clone().count() as u32);
        for (path, (device, seq)) in entries {
            w.put_str(path);
            w.put_str(device);
            w.put_u64(*seq);
        }
        w.put_bytes(&self.image.encode());
        w.finish()
    }

    /// Deserializes a base.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on corruption.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::with_header(data, OPLOG_BASE_MAGIC, OPLOG_BASE_VERSION)?;
        let n = r.get_u32("watermark count")?;
        let mut watermark = BTreeMap::new();
        for _ in 0..n {
            let device = r.get_str("watermark device")?;
            let seq = r.get_u64("watermark seq")?;
            watermark.insert(device, seq);
        }
        let n = r.get_u32("writer count")?;
        let mut writers: BTreeMap<String, BTreeSet<(String, u64)>> = BTreeMap::new();
        for _ in 0..n {
            let path = r.get_str("writer path")?;
            let device = r.get_str("writer device")?;
            let seq = r.get_u64("writer seq")?;
            writers.entry(path).or_default().insert((device, seq));
        }
        let image = SyncFolderImage::decode(r.get_bytes("base image")?)?;
        Ok(OplogBase {
            image,
            watermark,
            writers,
        })
    }
}

/// What one fold computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldOutcome {
    /// The advanced base: folded image, watermark, writer info. Its
    /// `image.version` is the stamp of the last op in fold order (or
    /// the input base's version when no op applied).
    pub base: OplogBase,
    /// Ops applied.
    pub applied: usize,
    /// Ops dropped as duplicates of an op already in the batch.
    pub duplicates: usize,
    /// Ops skipped because the watermark already covered them.
    pub filtered: usize,
    /// Contested changes that met a different one (added as a conflict
    /// copy, or a delete that lost to a modify).
    pub conflicts: usize,
}

/// Folds `ops` over `base` in total `(lamport, device, seq)` order,
/// dedup'd by op id. Pure and deterministic: any permutation or
/// duplication of `ops` yields the same outcome, which is what makes
/// every reader of the same op set converge byte-identically.
pub fn fold(base: &OplogBase, ops: &[MetaOp], folder: &str) -> FoldOutcome {
    let mut seen: BTreeSet<Digest> = BTreeSet::new();
    let mut batch: Vec<&MetaOp> = Vec::with_capacity(ops.len());
    let mut duplicates = 0usize;
    let mut filtered = 0usize;
    for op in ops {
        if !seen.insert(op.id(folder)) {
            duplicates += 1;
            continue;
        }
        if base.watermark.get(&op.device).copied().unwrap_or(0) >= op.seq {
            filtered += 1;
            continue;
        }
        batch.push(op);
    }
    batch.sort_by(|a, b| {
        (a.lamport, &a.device, a.seq).cmp(&(b.lamport, &b.device, b.seq))
    });

    let mut out = base.clone();
    let mut conflicts = 0usize;
    let applied = batch.len();
    for op in &batch {
        // A path is contested when one of its writers is another
        // device's op the op's base does not cover. Where it is not, the
        // op's change takes the slot and the op becomes the path's one
        // writer; an op that adds a copy joins the writers.
        let contested: BTreeSet<&str> = op
            .records
            .iter()
            .filter_map(DeltaRecord::file_path)
            .filter(|path| {
                out.writers.get(*path).is_some_and(|writers| {
                    writers.iter().any(|(device, seq)| {
                        device != &op.device && op.base.get(device).copied().unwrap_or(0) < *seq
                    })
                })
            })
            .collect();
        let met = apply_commit(&mut out.image, &op.records, &op.device, &contested);
        conflicts += met.len();
        let writer = (op.device.clone(), op.seq);
        for record in &op.records {
            match record {
                DeltaRecord::UpsertFile { path, .. } if !contested.contains(path.as_str()) => {
                    out.writers
                        .insert(path.clone(), BTreeSet::from([writer.clone()]));
                }
                // An upsert that became a copy, or a copy the committer's
                // own merge attached against the fold it committed on.
                DeltaRecord::UpsertFile { path, .. } if met.contains(path) => {
                    out.writers
                        .entry(path.clone())
                        .or_default()
                        .insert(writer.clone());
                }
                DeltaRecord::AttachConflict { path, .. } if out.image.file(path).is_some() => {
                    out.writers
                        .entry(path.clone())
                        .or_default()
                        .insert(writer.clone());
                }
                DeltaRecord::DeleteFile { path } if !contested.contains(path.as_str()) => {
                    out.writers.remove(path);
                }
                _ => {}
            }
        }
        out.watermark.insert(op.device.clone(), op.seq);
    }
    if let Some(last) = batch.last() {
        out.image.version = last.stamp();
    }
    // Ops the watermark already covered still advance it (a compaction
    // may have folded them from another cloud's copy of the same file).
    for op in ops {
        let w = out.watermark.entry(op.device.clone()).or_insert(0);
        *w = (*w).max(op.seq);
    }
    FoldOutcome {
        base: out,
        applied,
        duplicates,
        filtered,
        conflicts,
    }
}

/// Compacts `ops` into a new base: exactly [`fold`], serialized under
/// the quorum lock by the compactor. Folding any suffix of the log
/// over the result equals folding the whole log over the old base.
pub fn compact(base: &OplogBase, ops: &[MetaOp], folder: &str) -> OplogBase {
    fold(base, ops, folder).base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockRef, SegmentId, Snapshot};

    fn seg(tag: &str) -> SegmentId {
        SegmentId(Sha1::digest(tag.as_bytes()))
    }

    fn snap(tag: &str) -> Snapshot {
        Snapshot {
            segments: vec![seg(tag)],
        }
    }

    fn upsert(path: &str, tag: &str) -> Vec<DeltaRecord> {
        vec![
            DeltaRecord::EnsureSegment {
                id: seg(tag),
                len: 10,
                packed: None,
            },
            DeltaRecord::AddBlock {
                id: seg(tag),
                block: BlockRef { index: 0, cloud: 1 },
            },
            DeltaRecord::UpsertFile {
                path: path.into(),
                snapshot: snap(tag),
            },
        ]
    }

    fn copies(entry: &crate::FileEntry) -> Vec<(String, Snapshot)> {
        entry.conflicts.iter().cloned().collect()
    }

    fn op(device: &str, seq: u64, lamport: u64, base: &[(&str, u64)], records: Vec<DeltaRecord>) -> MetaOp {
        MetaOp {
            device: device.into(),
            seq,
            lamport,
            base: base.iter().map(|(d, s)| ((*d).to_owned(), *s)).collect(),
            stamp_ns: lamport * 100,
            records,
        }
    }

    #[test]
    fn op_encode_decode_round_trip() {
        let o = op("laptop", 3, 9, &[("laptop", 2), ("phone", 5)], upsert("a.txt", "s1"));
        assert_eq!(MetaOp::decode(&o.encode()).unwrap(), o);
    }

    #[test]
    fn op_ids_are_distinct_per_folder_device_seq() {
        let o = op("d", 1, 1, &[], Vec::new());
        assert_ne!(o.id("root"), o.id("other"));
        assert_ne!(op_id("f", "d", 1), op_id("f", "d", 2));
        assert_ne!(op_id("f", "d1", 1), op_id("f", "d", 11));
    }

    #[test]
    fn base_encode_decode_round_trip() {
        let folded = fold(
            &OplogBase::new(),
            &[op("a", 1, 1, &[], upsert("x", "s"))],
            "root",
        );
        let base = folded.base;
        assert_eq!(OplogBase::decode(&base.encode()).unwrap(), base);
    }

    #[test]
    fn fold_applies_in_lamport_device_seq_order() {
        // b's op sorts after a's at the same lamport; both after the
        // lamport-1 op regardless of arrival order.
        let ops = vec![
            op("b", 1, 2, &[], upsert("f", "from-b")),
            op("a", 2, 2, &[("a", 1)], upsert("f", "from-a2")),
            op("a", 1, 1, &[], upsert("f", "from-a1")),
        ];
        let out = fold(&OplogBase::new(), &ops, "root");
        assert_eq!(out.applied, 3);
        // Total order: a@1, a2@2, b@2. a's second op overwrites its
        // first; b had folded neither, so a2 keeps the slot and b's
        // version is its conflict copy.
        let entry = out.base.image.file("f").unwrap();
        assert_eq!(entry.snapshot, snap("from-a2"));
        assert_eq!(copies(entry), [("b".into(), snap("from-b"))]);
        assert_eq!(out.base.image.version, ops[0].stamp());
        assert_eq!(out.base.watermark["a"], 2);
        assert_eq!(out.base.watermark["b"], 1);
    }

    #[test]
    fn duplicate_ops_fold_once() {
        let o = op("a", 1, 1, &[], upsert("f", "s"));
        let out = fold(&OplogBase::new(), &[o.clone(), o.clone(), o], "root");
        assert_eq!(out.applied, 1);
        assert_eq!(out.duplicates, 2);
    }

    #[test]
    fn watermarked_ops_are_filtered() {
        let first = fold(&OplogBase::new(), &[op("a", 1, 1, &[], upsert("f", "s"))], "root");
        let again = fold(
            &first.base,
            &[
                op("a", 1, 1, &[], upsert("f", "s")),
                op("a", 2, 2, &[("a", 1)], upsert("g", "t")),
            ],
            "root",
        );
        assert_eq!(again.filtered, 1);
        assert_eq!(again.applied, 1);
        assert!(again.base.image.file("g").is_some());
    }

    #[test]
    fn concurrent_upserts_retain_loser_as_conflict_copy() {
        // Neither device folded the other's op (empty bases): the
        // earlier op in total order keeps the slot, the later survives
        // as a conflict copy tagged with its device, as in merge3.
        let ops = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("b", 1, 1, &[], upsert("f", "from-b")),
        ];
        let out = fold(&OplogBase::new(), &ops, "root");
        assert_eq!(out.conflicts, 1);
        let entry = out.base.image.file("f").unwrap();
        assert_eq!(entry.snapshot, snap("from-a"));
        assert_eq!(copies(entry), [("b".into(), snap("from-b"))]);
    }

    #[test]
    fn sequential_overwrite_is_not_a_conflict() {
        // b folded a's op (its base covers a's seq 1): plain
        // overwrite, no conflict copy.
        let ops = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("b", 1, 2, &[("a", 1)], upsert("f", "from-b")),
        ];
        let out = fold(&OplogBase::new(), &ops, "root");
        assert_eq!(out.conflicts, 0);
        assert!(out.base.image.file("f").unwrap().conflicts.is_empty());
    }

    #[test]
    fn an_unfolded_write_below_the_base_head_stays_contested() {
        // a and c commit at lamport 1 without seeing each other; b
        // folded only c's op (head lamport 1) and writes f at 2. b's
        // base does not cover a's write, so it is contested: a keeps
        // the slot and b's version is the copy. (A lamport bound of 1
        // counted a's lamport-1 write as seen, and a's version was
        // gone.)
        let ops = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("c", 1, 1, &[], upsert("g", "from-c")),
            op("b", 1, 2, &[("c", 1)], upsert("f", "from-b")),
        ];
        let out = fold(&OplogBase::new(), &ops, "root");
        let entry = out.base.image.file("f").unwrap();
        assert_eq!(entry.snapshot, snap("from-a"));
        assert_eq!(copies(entry), [("b".into(), snap("from-b"))]);
        assert_eq!(out.conflicts, 1);
    }

    #[test]
    fn concurrent_delete_loses_to_modify() {
        let ops = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("b", 1, 1, &[], vec![DeltaRecord::DeleteFile { path: "f".into() }]),
        ];
        let out = fold(&OplogBase::new(), &ops, "root");
        assert!(out.base.image.file("f").is_some(), "modify beats delete");
        // A causal delete (b saw a's op) goes through.
        let ops = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("b", 1, 2, &[("a", 1)], vec![DeltaRecord::DeleteFile { path: "f".into() }]),
        ];
        let out = fold(&OplogBase::new(), &ops, "root");
        assert!(out.base.image.file("f").is_none());
    }

    #[test]
    fn a_losing_delete_never_drops_the_segment_the_modify_kept() {
        // a writes f, then appends to it (the new version still names
        // s); b deletes f having folded only a's first op, and its
        // commit collected s. Modify beats delete, so when b's
        // DropSegment applies s is still named: the fold keeps it, with
        // the block locations the log gave it — blocks b's committer
        // has already deleted from the clouds.
        let grown = Snapshot {
            segments: vec![seg("s"), seg("t")],
        };
        let delete = |seen: u64| {
            op(
                "b",
                1,
                3,
                &[("a", seen)],
                vec![
                    DeltaRecord::DeleteFile { path: "f".into() },
                    DeltaRecord::DropSegment { id: seg("s") },
                ],
            )
        };
        let write = op("a", 1, 1, &[], upsert("f", "s"));
        let grow = op(
            "a",
            2,
            2,
            &[("a", 1)],
            vec![
                DeltaRecord::EnsureSegment {
                    id: seg("t"),
                    len: 10,
                    packed: None,
                },
                DeltaRecord::UpsertFile {
                    path: "f".into(),
                    snapshot: grown.clone(),
                },
            ],
        );
        let out = fold(&OplogBase::new(), &[write.clone(), grow.clone(), delete(1)], "root");
        assert_eq!(out.base.image.file("f").unwrap().snapshot, grown);
        let kept = out.base.image.segment(&seg("s")).expect("segment kept");
        assert_eq!(kept.blocks, vec![BlockRef { index: 0, cloud: 1 }]);
        assert!(out.base.image.referenced().contains(&seg("s")));

        // A delete that saw the append goes through, and s leaves the
        // pool with it.
        let out = fold(&OplogBase::new(), &[write, grow, delete(2)], "root");
        assert!(out.base.image.file("f").is_none());
        assert!(out.base.image.segment(&seg("s")).is_none());
    }

    /// a, b and c write f from the empty log: a keeps the slot, and b's
    /// and c's versions are copies. d folded a and b only, so c's copy
    /// contests its edit, which joins the copies; e folded all three and
    /// replaces them.
    #[test]
    fn a_copy_an_op_never_folded_contests_the_path() {
        let race = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("b", 1, 1, &[], upsert("f", "from-b")),
            op("c", 1, 1, &[], upsert("f", "from-c")),
        ];
        let out = fold(&OplogBase::new(), &race, "root");
        assert_eq!(out.conflicts, 2);
        assert_eq!(copies(out.base.image.file("f").unwrap()).len(), 2);
        let then = |last: MetaOp| {
            let ops: Vec<MetaOp> = race.iter().cloned().chain([last]).collect();
            fold(&OplogBase::new(), &ops, "root").base
        };
        let base = then(op("d", 1, 2, &[("a", 1), ("b", 1)], upsert("f", "from-d")));
        let entry = base.image.file("f").unwrap();
        assert_eq!(entry.snapshot, snap("from-a"));
        assert_eq!(copies(entry).len(), 3);
        assert_eq!(base.writers["f"].len(), 4);
        assert_eq!(OplogBase::decode(&base.encode()).unwrap(), base);
        let all = [("a", 1), ("b", 1), ("c", 1)];
        let base = then(op("e", 1, 2, &all, upsert("f", "from-e")));
        let entry = base.image.file("f").unwrap();
        assert_eq!(entry.snapshot, snap("from-e"));
        assert!(entry.conflicts.is_empty());
        assert_eq!(base.writers["f"], BTreeSet::from([("e".to_owned(), 1)]));
    }

    /// A client merges against its fold before it appends, so an op can
    /// carry the copy its own merge made as an `AttachConflict`. That
    /// makes the op a writer too: d never folded b's op, and its edit
    /// joins b's copy instead of clearing it.
    #[test]
    fn an_attached_copy_makes_its_op_a_writer() {
        let mut attach = upsert("f", "from-b");
        attach[2] = DeltaRecord::AttachConflict {
            path: "f".into(),
            device: "b".into(),
            snapshot: snap("from-b"),
        };
        let ops = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("b", 1, 2, &[("a", 1)], attach),
            op("d", 1, 3, &[("a", 1)], upsert("f", "from-d")),
        ];
        let out = fold(&OplogBase::new(), &ops, "root");
        let entry = out.base.image.file("f").unwrap();
        assert_eq!(entry.snapshot, snap("from-a"));
        let devices: Vec<&str> = entry.conflicts.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(devices, ["b", "d"]);
    }

    #[test]
    fn compact_then_fold_suffix_equals_full_fold() {
        let prefix = vec![
            op("a", 1, 1, &[], upsert("f", "from-a")),
            op("b", 1, 1, &[], upsert("f", "from-b")),
        ];
        let suffix = vec![
            // Concurrent with a's prefix op — the conflict must still
            // be detected after compaction ate the prefix.
            op("c", 1, 1, &[], upsert("f", "from-c")),
            op("a", 2, 3, &[("a", 1), ("b", 1)], upsert("g", "g1")),
        ];
        let all: Vec<MetaOp> = prefix.iter().chain(&suffix).cloned().collect();
        let direct = fold(&OplogBase::new(), &all, "root");
        let compacted = compact(&OplogBase::new(), &prefix, "root");
        let resumed = fold(&compacted, &suffix, "root");
        assert_eq!(resumed.base, direct.base);
    }
}
