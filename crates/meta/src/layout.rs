//! Cloud-side object layout shared by every UniDrive client.
//!
//! All coordination is done through files (paper §4): the encrypted
//! metadata base and delta, the tiny version file, empty lock files in a
//! dedicated lock directory (footnote 3: a separate directory keeps
//! `list` traffic small), and the erasure-coded blocks named by segment
//! hash and block index.
//!
//! # The oplog directory
//!
//! [`OPLOG_DIR`] holds three kinds of object: one immutable *op object*
//! per append (`ops_<device>_<seq>`, [`op_object_path`]; the sequence
//! number zero-padded to 20 digits, so lexical order is seq order), the
//! compacted base ([`OPLOG_BASE_PATH`], rewritten in place under the
//! quorum lock) and empty *base marks* (`base_<sha1>`,
//! [`base_mark_path`]) — the lock file's idiom, a datum in a file name.
//!
//! An op object is written once and never rewritten. A writer uploads
//! its objects to each cloud in seq order, stopping at the first
//! failure, so a cloud never shows seq `n` of a device without every
//! seq between the base watermark and `n`. A reader lists the directory
//! on every pass and downloads only the names its adopted base does not
//! cover and that it has not already read from that cloud. A
//! compaction lists the directory under the quorum lock and, once its
//! base is quorum-acked, deletes the listed names the new base covers
//! on the clouds that acked it.
//!
//! A compaction follows each cloud's base upload with a mark named by
//! SHA-1 of the base *plaintext*, then deletes the marks it found
//! there; a cloud acks only when base and mark both landed. The marks
//! tell a reader which base a cloud holds before it pays for the
//! download.
//!
//! # The read rule
//!
//! Both metadata planes read a body by one rule. A pass reads a
//! metadata body only from a cloud whose pointer names something the
//! plane does not hold yet, from one such cloud at a time, and falls
//! over to the next cloud that names it. Whatever decodes is weighed by
//! the plane's own freshness order — the version stamp on the lock
//! plane, watermark coverage on the oplog plane; a body is never
//! trusted because of its name.
//!
//! - *Lock plane.* The pointer is the version file ([`VERSION_PATH`]).
//!   A read downloads the delta, and the base unless it holds it, only
//!   from the clouds whose version file shows the newest stamp, in
//!   cloud order; a lagging cloud is never asked for a body. A writer
//!   can commit between the version read and the delta read, so the
//!   delta's base and stamp are still checked.
//! - *Oplog plane.* The pointers are the listing's names. The first
//!   read task whose listing shows a mark the plane has not itself
//!   decoded claims it and downloads its own cloud's base, at most once
//!   per pass; a mark left unserved (the download failed, or the body's
//!   id is not the mark) goes to the next cloud listing it, as an op
//!   object does. A base no mark names is never read: a cloud acks a
//!   compaction only with base and mark, so that base is unacked, and
//!   the ops it would cover are still in the log.
//!
//! The id is not an acceptance test. With N = 5 and quorum 3 an acked
//! compaction's mark can sit on only one cloud of a read quorum, and a
//! later, unacked compaction can overwrite the base on every cloud that
//! lists an acked mark (its base upload lands, its mark upload fails):
//! a reader that dropped that body on an id mismatch would fold without
//! a base over a log whose covered ops are already deleted. Coverage
//! decides, whatever the id.
//!
//! Per cloud, with `A` the older base and `B` the newer:
//!
//! | object | listing shows | reader has decoded | download? |
//! |---|---|---|---|
//! | base A | {A} | A | no |
//! | base B, mark not yet up | {A} | A | no — this cloud has not acked B; one that has shows {A,B} or {B} |
//! | base B | {A,B} or {B} | A | once, from the first cloud to list B; afterwards no |
//! | torn base | {B} | B | no; with B unknown, yes: it fails to decode, and the next cloud listing B is read |
//! | base with no mark | {} | anything | no — the fold comes from the log |
//! | absent base | {} | anything | no |
//! | op object `n` | `ops_d_n` | the base covers `n` | no |
//! | op object `n` | `ops_d_n` | `n` or later of `d` read from this cloud | no |
//! | op object `n` | `ops_d_n` | neither | yes; once decoded, never again from this cloud |
//! | torn op object | `ops_d_n` | neither | yes, every pass until its writer heals it |
//!
//! Every confusion costs a download, never skips one a quorum-acked
//! write depends on: an acked cloud lists the new base's mark, and it
//! holds every acked op object whole. The oplog plane's tests set up
//! each base row as cloud state and count its downloads
//! (`the_base_read_table_row_by_row`).

use unidrive_crypto::Digest;

use crate::SegmentId;

/// Root directory UniDrive uses on every cloud.
pub const ROOT_DIR: &str = "unidrive";

/// The encrypted metadata base file.
pub const BASE_PATH: &str = "unidrive/meta.base";

/// The encrypted metadata delta file.
pub const DELTA_PATH: &str = "unidrive/meta.delta";

/// The small version file checked on every poll.
pub const VERSION_PATH: &str = "unidrive/meta.version";

/// The dedicated lock directory.
pub const LOCK_DIR: &str = "unidrive/locks";

/// Directory holding erasure-coded blocks.
pub const BLOCKS_DIR: &str = "unidrive/blocks";

/// Directory holding the oplog metadata plane: per-append op objects
/// plus the compacted base (separate from the lock plane's files so
/// the two modes never alias each other's objects).
pub const OPLOG_DIR: &str = "unidrive/oplog";

/// The oplog plane's compacted base image (encrypted, with the fold
/// watermark), written only under the quorum lock.
pub const OPLOG_BASE_PATH: &str = "unidrive/oplog/base";

/// Prefix of op objects inside [`OPLOG_DIR`].
pub const OP_FILE_PREFIX: &str = "ops_";

/// Prefix of base marks inside [`OPLOG_DIR`] (see the module doc).
const BASE_MARK_PREFIX: &str = "base_";

/// Cloud path of one erasure-coded block: the segment id concatenated
/// with the block's sequence number (paper §5.1).
///
/// # Examples
///
/// ```
/// use unidrive_crypto::Sha1;
/// use unidrive_meta::{block_path, SegmentId};
///
/// let id = SegmentId(Sha1::digest(b"x"));
/// let path = block_path(&id, 4);
/// assert!(path.starts_with("unidrive/blocks/"));
/// assert!(path.ends_with(".4"));
/// ```
pub fn block_path(segment: &SegmentId, index: u16) -> String {
    format!("{BLOCKS_DIR}/{}.{index}", segment.to_hex())
}

/// Parses a block object's name within [`BLOCKS_DIR`] back into
/// `(segment, index)`.
///
/// Returns `None` for any name [`block_path`] does not produce.
pub fn parse_block_name(name: &str) -> Option<(SegmentId, u16)> {
    let (hex, index) = name.split_once('.')?;
    let parsed = (SegmentId(Digest::from_hex(hex)?), index.parse().ok()?);
    (block_path(&parsed.0, parsed.1) == format!("{BLOCKS_DIR}/{name}")).then_some(parsed)
}

/// Name of a lock file for `device` stamped with the device-local
/// time `t` (paper §5.2: `lock_<d>_<t>`).
pub fn lock_file_name(device: &str, t_ns: u64) -> String {
    format!("lock_{device}_{t_ns}")
}

/// Full cloud path of a lock file.
pub fn lock_file_path(device: &str, t_ns: u64) -> String {
    format!("{LOCK_DIR}/{}", lock_file_name(device, t_ns))
}

/// Cloud path every op object of `device` starts with;
/// [`op_object_path`] appends the sequence number.
pub fn op_file_path(device: &str) -> String {
    format!("{OPLOG_DIR}/{OP_FILE_PREFIX}{device}")
}

/// Full cloud path of `device`'s op object number `seq`. The device is
/// the object's only writer and writes it once.
pub fn op_object_path(device: &str, seq: u64) -> String {
    format!("{}_{seq:020}", op_file_path(device))
}

/// Parses an op object name back into `(device, seq)`. The seq is
/// after the *last* underscore, so device names may contain them.
///
/// Returns `None` for files that are not op objects.
pub fn parse_op_object_name(name: &str) -> Option<(&str, u64)> {
    let rest = name.strip_prefix(OP_FILE_PREFIX)?;
    let sep = rest.rfind('_')?;
    let (device, digits) = (&rest[..sep], &rest[sep + 1..]);
    if device.is_empty() || digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((device, digits.parse().ok()?))
}

/// Full cloud path of the mark saying "the base stored here is the
/// one whose plaintext hashes to `id`".
pub fn base_mark_path(id: &Digest) -> String {
    format!("{OPLOG_DIR}/{BASE_MARK_PREFIX}{}", id.to_hex())
}

/// Parses a base mark's name back into the base id.
///
/// Returns `None` for files that are not base marks (the base itself
/// included).
pub fn parse_base_mark_name(name: &str) -> Option<Digest> {
    let hex = name.strip_prefix(BASE_MARK_PREFIX)?;
    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Digest::from_hex(hex)
}

/// Parses a lock file name back into `(device, t)`.
///
/// Returns `None` for files that are not lock files.
pub fn parse_lock_name(name: &str) -> Option<(&str, u64)> {
    let rest = name.strip_prefix("lock_")?;
    let sep = rest.rfind('_')?;
    let device = &rest[..sep];
    if device.is_empty() {
        return None;
    }
    let t = rest[sep + 1..].parse().ok()?;
    Some((device, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_crypto::Sha1;

    #[test]
    fn block_paths_are_unique_per_index() {
        let id = SegmentId(Sha1::digest(b"seg"));
        assert_ne!(block_path(&id, 0), block_path(&id, 1));
        assert!(block_path(&id, 7).contains(&id.to_hex()));
        let name = &block_path(&id, 7)[BLOCKS_DIR.len() + 1..];
        assert_eq!(parse_block_name(name), Some((id, 7)));
        let hex = id.to_hex();
        let upper = format!("{}.7", hex.to_uppercase());
        for bad in [hex.clone(), format!("{hex}.07"), format!("{hex}.x"), upper] {
            assert_eq!(parse_block_name(&bad), None, "{bad}");
        }
    }

    #[test]
    fn lock_name_round_trip() {
        let name = lock_file_name("laptop-2", 123456789);
        assert_eq!(parse_lock_name(&name), Some(("laptop-2", 123456789)));
    }

    #[test]
    fn lock_name_with_underscored_device_round_trips() {
        // Device names may contain underscores; the timestamp is after
        // the LAST underscore.
        let name = lock_file_name("my_home_pc", 42);
        assert_eq!(parse_lock_name(&name), Some(("my_home_pc", 42)));
    }

    #[test]
    fn non_lock_names_rejected() {
        assert_eq!(parse_lock_name("meta.base"), None);
        assert_eq!(parse_lock_name("lock_"), None);
        assert_eq!(parse_lock_name("lock_dev_notanumber"), None);
        assert_eq!(parse_lock_name("lock__77"), None);
    }

    #[test]
    fn layout_paths_are_coherent() {
        assert!(BASE_PATH.starts_with(ROOT_DIR));
        assert!(DELTA_PATH.starts_with(ROOT_DIR));
        assert!(VERSION_PATH.starts_with(ROOT_DIR));
        assert!(LOCK_DIR.starts_with(ROOT_DIR));
        assert!(BLOCKS_DIR.starts_with(ROOT_DIR));
        assert!(OPLOG_DIR.starts_with(ROOT_DIR));
        assert!(OPLOG_BASE_PATH.starts_with(OPLOG_DIR));
    }

    #[test]
    fn op_object_name_round_trip() {
        let path = op_object_path("my_home_pc", 42);
        assert_eq!(path, "unidrive/oplog/ops_my_home_pc_00000000000000000042");
        assert!(path.starts_with(&op_file_path("my_home_pc")));
        let name = path.strip_prefix("unidrive/oplog/").expect("inside the oplog dir");
        assert_eq!(parse_op_object_name(name), Some(("my_home_pc", 42)));
        let top = op_object_path("d", u64::MAX);
        assert_eq!(parse_op_object_name(&top["unidrive/oplog/".len()..]), Some(("d", u64::MAX)));
    }

    #[test]
    fn op_object_names_sort_in_seq_order() {
        let mut names: Vec<String> = [10, 9, 100, 1].iter().map(|&s| op_object_path("d", s)).collect();
        names.sort();
        let seqs: Vec<u64> = names
            .iter()
            .map(|n| parse_op_object_name(&n["unidrive/oplog/".len()..]).expect("op object").1)
            .collect();
        assert_eq!(seqs, [1, 9, 10, 100]);
    }

    #[test]
    fn base_mark_round_trip() {
        let id = Sha1::digest(b"base plaintext");
        let path = base_mark_path(&id);
        let name = path.strip_prefix("unidrive/oplog/").expect("inside the oplog dir");
        assert_eq!(parse_base_mark_name(name), Some(id));
        assert_eq!(parse_op_object_name(name), None);
    }

    #[test]
    fn non_base_mark_names_rejected() {
        assert_eq!(parse_base_mark_name("base"), None);
        assert_eq!(parse_base_mark_name("base_"), None);
        assert_eq!(parse_base_mark_name("base_1234"), None);
        assert_eq!(parse_base_mark_name("ops_base_0"), None);
        // 40 bytes after the prefix, but not 40 hex digits.
        assert_eq!(parse_base_mark_name(&format!("base_+{}", "a".repeat(39))), None);
        assert_eq!(parse_base_mark_name(&format!("base_{}é", "a".repeat(38))), None);
    }

    #[test]
    fn non_op_object_names_rejected() {
        assert_eq!(parse_op_object_name("base"), None);
        assert_eq!(parse_op_object_name("ops_"), None);
        assert_eq!(parse_op_object_name("ops_dev"), None, "a device with no seq");
        assert_eq!(parse_op_object_name("ops__00000000000000000001"), None);
        assert_eq!(parse_op_object_name("ops_dev_1"), None, "not zero-padded");
        assert_eq!(parse_op_object_name("ops_dev_+0000000000000000001"), None);
        assert_eq!(parse_op_object_name("ops_dev_99999999999999999999"), None, "past u64");
        assert_eq!(parse_op_object_name("lock_dev_00000000000000000001"), None);
    }
}
