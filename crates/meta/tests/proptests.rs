//! Randomized property tests of the metadata layer: codec round-trips,
//! delta-log reconstruction, and three-way merge invariants. Driven by
//! the workspace's deterministic `SimRng` (seeded, so failures
//! reproduce exactly).

use unidrive_crypto::{Digest, Sha1};
use unidrive_meta::{
    compact, diff, fold, merge3, BlockRef, DeltaLog, MetaOp, OplogBase, SegmentId, Snapshot,
    SyncFolderImage, VersionStamp,
};
use unidrive_sim::SimRng;

/// A small random image: up to 12 files with short random paths, each
/// with up to 3 random segment tags. A segment's length follows from
/// its tag, as content addressing has it, and each registration places
/// up to 3 random blocks.
fn random_image(rng: &mut SimRng) -> SyncFolderImage {
    let mut image = SyncFolderImage::new();
    let n_files = rng.below(12) as usize;
    for _ in 0..n_files {
        let path = random_path(rng);
        let mtime = rng.below(u16::MAX as u64 + 1);
        let size = 1 + rng.below(999_999);
        let n_segs = 1 + rng.below(3) as usize;
        let tags: Vec<u8> = (0..n_segs).map(|_| rng.next_u64() as u8).collect();
        let segments: Vec<SegmentId> = tags.iter().map(|t| SegmentId(Sha1::digest(&[*t]))).collect();
        for (id, tag) in segments.iter().zip(&tags) {
            image.ensure_segment(*id, 1 + u64::from(*tag));
            for _ in 0..rng.below(4) {
                let block = BlockRef {
                    index: rng.below(10) as u16,
                    cloud: rng.below(5) as u16,
                };
                image.record_block(*id, block);
            }
        }
        image.upsert_file(
            &path,
            Snapshot {
                mtime_ns: mtime,
                size,
                segments,
            },
        );
    }
    image
}

fn random_path(rng: &mut SimRng) -> String {
    let segment = |rng: &mut SimRng| {
        let len = 1 + rng.below(8) as usize;
        (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect::<String>()
    };
    let depth = rng.below(3);
    let mut path = segment(rng);
    for _ in 0..depth {
        path.push('/');
        path.push_str(&segment(rng));
    }
    path
}

/// encode/decode round-trips arbitrary images.
#[test]
fn image_codec_round_trips() {
    let mut rng = SimRng::seed_from_u64(0x4E01);
    for _ in 0..48 {
        let image = random_image(&mut rng);
        let restored = SyncFolderImage::decode(&image.encode()).unwrap();
        assert_eq!(restored, image);
    }
}

/// Any single-byte corruption of the encoded image is rejected.
#[test]
fn image_codec_rejects_bitflips() {
    let mut rng = SimRng::seed_from_u64(0x4E02);
    for _ in 0..48 {
        let image = random_image(&mut rng);
        let mut bytes = image.encode().to_vec();
        let idx = rng.below(bytes.len() as u64) as usize;
        let flip = 1 + rng.below(255) as u8;
        bytes[idx] ^= flip;
        // Either the checksum catches it (virtually always) or the
        // decode differs; it must never silently equal the original.
        match SyncFolderImage::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, image),
        }
    }
}

/// Applying records_for(from, to) onto `from` reproduces `to`'s files
/// and its whole segment pool: ids, lengths, block lists, refcounts —
/// a segment `to` collected leaves the rebuilt pool too.
#[test]
fn delta_records_reconstruct() {
    let mut rng = SimRng::seed_from_u64(0x4E03);
    for _ in 0..48 {
        let from = random_image(&mut rng);
        let to = random_image(&mut rng);
        let mut log = DeltaLog::new(from.version.clone());
        log.append(DeltaLog::records_for(&from, &to), to.version.clone());
        let mut rebuilt = from.clone();
        log.apply_to(&mut rebuilt);
        // Compare the file trees.
        let files = |img: &SyncFolderImage| {
            img.files()
                .map(|(p, e)| (p.to_owned(), e.snapshot.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(files(&rebuilt), files(&to));
        let pool = |img: &SyncFolderImage| {
            img.segments()
                .map(|(id, e)| (*id, e.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pool(&rebuilt), pool(&to));
    }
}

/// diff(x, x) is empty; diff(a, b) marks exactly the paths whose
/// snapshots differ.
#[test]
fn diff_is_sound() {
    let mut rng = SimRng::seed_from_u64(0x4E04);
    for _ in 0..48 {
        let a = random_image(&mut rng);
        let b = random_image(&mut rng);
        assert!(diff(&a, &a.clone()).is_empty());
        let d = diff(&a, &b);
        for (path, _) in b.files() {
            let same = a
                .file(path)
                .is_some_and(|e| e.snapshot == b.file(path).unwrap().snapshot);
            assert_eq!(d.get(path).is_none(), same);
        }
    }
}

/// Merge with an unchanged cloud side applies exactly the local
/// changes (no conflicts).
#[test]
fn merge_with_unchanged_cloud_is_local() {
    let mut rng = SimRng::seed_from_u64(0x4E05);
    for _ in 0..48 {
        let original = random_image(&mut rng);
        let local = random_image(&mut rng);
        let out = merge3(&original, &local, &original, "dev");
        assert!(out.conflicts.is_empty());
        let files = |img: &SyncFolderImage| {
            img.files()
                .map(|(p, e)| (p.to_owned(), e.snapshot.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(files(&out.image), files(&local));
    }
}

/// Merge never loses a file that only one side touched, and refcounts
/// always cover every referenced segment.
#[test]
fn merge_preserves_disjoint_changes() {
    let mut rng = SimRng::seed_from_u64(0x4E06);
    for _ in 0..48 {
        let original = random_image(&mut rng);
        let local = random_image(&mut rng);
        let cloud = random_image(&mut rng);
        let out = merge3(&original, &local, &cloud, "dev");
        let dl = diff(&original, &local);
        let dc = diff(&original, &cloud);
        for (path, change) in dl.iter() {
            if dc.get(path).is_none() {
                match change {
                    unidrive_meta::EntryChange::Upsert(snap) => {
                        assert_eq!(&out.image.file(path).unwrap().snapshot, snap);
                    }
                    unidrive_meta::EntryChange::Delete => {
                        assert!(out.image.file(path).is_none());
                    }
                }
            }
        }
        // Pool covers every snapshot reference with a positive refcount.
        for (_, entry) in out.image.files() {
            for id in &entry.snapshot.segments {
                assert!(out.image.segment(id).unwrap().refcount > 0);
            }
        }
    }
}

/// Version files round-trip.
#[test]
fn version_stamp_round_trips() {
    let mut rng = SimRng::seed_from_u64(0x4E07);
    for _ in 0..64 {
        let name_len = 1 + rng.below(16) as usize;
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
        let device: String = (0..name_len)
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char)
            .collect();
        let v = VersionStamp {
            device,
            counter: rng.next_u64(),
            timestamp_ns: rng.next_u64(),
        };
        assert_eq!(VersionStamp::decode(&v.encode()).unwrap(), v);
    }
}

const FOLDER: &str = "root";

/// Random per-device op chains over random image transitions: each
/// device writes `per_device` ops with strictly increasing `seq` and
/// a fleet-wide drifting lamport clock, the shape the oplog plane
/// folds in production.
fn random_ops(rng: &mut SimRng, devices: usize, per_device: usize) -> Vec<MetaOp> {
    let mut ops = Vec::new();
    let mut lamport = 0u64;
    for d in 0..devices {
        let device = format!("dev{d}");
        let mut prev = SyncFolderImage::new();
        for seq in 1..=per_device as u64 {
            let next = random_image(rng);
            lamport += 1 + rng.below(3);
            ops.push(MetaOp {
                device: device.clone(),
                seq,
                lamport,
                base_lamport: lamport.saturating_sub(1 + rng.below(4)),
                stamp_ns: rng.next_u64() >> 12,
                records: DeltaLog::records_for(&prev, &next),
            });
            prev = next;
        }
    }
    ops
}

fn shuffled(rng: &mut SimRng, ops: &[MetaOp]) -> Vec<MetaOp> {
    let mut out = ops.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

/// Folding the same op set in any delivery order produces the same
/// image, byte for byte — the oplog plane's convergence property.
#[test]
fn op_fold_is_permutation_invariant() {
    let mut rng = SimRng::seed_from_u64(0x4E09);
    for _ in 0..32 {
        let devices = 1 + rng.below(4) as usize;
        let per_device = 1 + rng.below(4) as usize;
        let ops = random_ops(&mut rng, devices, per_device);
        let base = OplogBase::new();
        let reference = fold(&base, &ops, FOLDER);
        for _ in 0..4 {
            let permuted = shuffled(&mut rng, &ops);
            let outcome = fold(&base, &permuted, FOLDER);
            assert_eq!(outcome.base.image.encode(), reference.base.image.encode());
            assert_eq!(outcome.base.watermark, reference.base.watermark);
            assert_eq!(outcome.applied, reference.applied);
        }
    }
}

/// Delivering every op twice (and thrice) changes nothing: dedup by
/// deterministic op id makes redelivery harmless.
#[test]
fn op_fold_dedup_is_idempotent() {
    let mut rng = SimRng::seed_from_u64(0x4E0A);
    for _ in 0..32 {
        let devices = 1 + rng.below(3) as usize;
        let per_device = 1 + rng.below(4) as usize;
        let ops = random_ops(&mut rng, devices, per_device);
        let base = OplogBase::new();
        let once = fold(&base, &ops, FOLDER);
        let mut doubled = ops.clone();
        doubled.extend(ops.iter().cloned());
        doubled.extend(ops.iter().cloned());
        let tripled = fold(&base, &shuffled(&mut rng, &doubled), FOLDER);
        assert_eq!(tripled.base.image.encode(), once.base.image.encode());
        assert_eq!(tripled.applied, once.applied);
        assert_eq!(tripled.duplicates, 2 * ops.len());
    }
}

/// Compacting a log then folding nothing equals folding the log
/// directly — and replaying the compacted-away ops is a no-op (the
/// watermark filters every one of them).
#[test]
fn fold_of_compacted_log_matches_fold_of_log() {
    let mut rng = SimRng::seed_from_u64(0x4E0B);
    for _ in 0..32 {
        let devices = 1 + rng.below(4) as usize;
        let per_device = 1 + rng.below(4) as usize;
        let ops = random_ops(&mut rng, devices, per_device);
        let base = OplogBase::new();
        let direct = fold(&base, &ops, FOLDER);
        let compacted = compact(&base, &ops, FOLDER);
        assert_eq!(compacted.image.encode(), direct.base.image.encode());
        let replayed = fold(&compacted, &ops, FOLDER);
        assert_eq!(replayed.applied, 0, "all ops below the base watermark");
        assert_eq!(replayed.base.image.encode(), direct.base.image.encode());
        // The compacted base round-trips through its codec.
        let restored = OplogBase::decode(&compacted.encode()).unwrap();
        assert_eq!(restored.image.encode(), compacted.image.encode());
        assert_eq!(restored.watermark, compacted.watermark);
    }
}

/// Block add/remove on segment entries is idempotent and consistent.
#[test]
fn block_bookkeeping() {
    let mut rng = SimRng::seed_from_u64(0x4E08);
    for _ in 0..48 {
        let mut image = SyncFolderImage::new();
        let id = SegmentId(Digest([7; 20]));
        image.ensure_segment(id, 1);
        let mut model: std::collections::BTreeSet<(u16, u16)> = Default::default();
        let n_ops = rng.below(32) as usize;
        for _ in 0..n_ops {
            let op = rng.next_u64() as u8;
            let index = rng.below(8) as u16;
            let cloud = rng.below(4) as u16;
            let block = BlockRef { index, cloud };
            if op.is_multiple_of(2) {
                assert_eq!(image.record_block(id, block), model.insert((index, cloud)));
            } else {
                assert_eq!(image.remove_block(&id, block), model.remove(&(index, cloud)));
            }
        }
        let stored: std::collections::BTreeSet<(u16, u16)> = image
            .segment(&id)
            .unwrap()
            .blocks
            .iter()
            .map(|b| (b.index, b.cloud))
            .collect();
        assert_eq!(stored, model);
    }
}
