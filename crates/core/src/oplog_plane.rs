//! [`OplogPlane`]: the append-only [`MetaPlane`]. It removes the
//! per-commit lock of the paper's plane: each device appends
//! encrypted [`MetaOp`] frames to its own op file on every cloud and
//! readers fold every visible op in the total `(lamport, device, seq)`
//! order (see `unidrive_meta::fold`). A commit is one quorum-acked
//! upload of the device's own file — no coordination with other
//! writers — so N concurrent writers of a hot folder scale instead of
//! serializing. The quorum lock survives only for base compaction,
//! triggered when the live log outgrows λ (the same ratio/floor the
//! delta plane uses).
//!
//! The op file is always uploaded as a full replace of the device's
//! retained frame tail, never as a download-modify-append: a torn
//! upload then persists a *prefix of valid frames* (salvaged by
//! `unframe_chunks`) and the next replace self-heals, whereas
//! read-modify-write could embed a torn tail mid-file and lose acked
//! ops.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use unidrive_util::bytes::Bytes;
use unidrive_cloud::{CloudError, CloudSet, Retry, RetryPolicy};
use unidrive_crypto::{Digest, MetadataCipher, Sha1};
use unidrive_meta::{
    base_mark_path, compact, compaction_threshold, fold, frame_chunks, op_file_path,
    parse_base_mark_name, parse_op_file_name, unframe_chunks, DeltaLog, MergeFn, MetaOp,
    MetaPlane, OplogBase, PlaneError, SyncFolderImage, OPLOG_BASE_PATH, OPLOG_COMPACT_ESCALATE,
    OPLOG_DIR,
};
use unidrive_obs::{Obs, SpanId};
use unidrive_sim::{Runtime, SimRng};

use crate::client::ClientConfig;
use crate::lock::QuorumLock;
use crate::quorum;

/// The folder label mixed into op ids. One client syncs one folder, so
/// a constant suffices; it namespaces op ids against other uses of the
/// same passphrase.
const OPLOG_FOLDER: &str = "root";

/// Extra blocking compaction attempts once past the escalation cap
/// (each is a full [`QuorumLock::acquire`] with its own backoff).
const OPLOG_COMPACT_FORCED_RETRIES: usize = 2;

/// `a` covers `b` when `a`'s watermark is a pointwise superset: every
/// op folded into `b` is also folded into `a`. Replacing `b` with `a`
/// can then never lose an op, even one already trimmed from its
/// writer's op file. Coverage — not the version stamp — is the order
/// bases advance in: a base folding strictly more ops can still carry
/// an older stamp when the extra ops sort early in the total order.
fn covers(a: &OplogBase, b: &OplogBase) -> bool {
    b.watermark
        .iter()
        .all(|(device, seq)| a.watermark.get(device).copied().unwrap_or(0) >= *seq)
}

/// Whether a read pass must download a cloud's `base`, decided from
/// the listing it already paid for (the table in `unidrive_meta`'s
/// layout doc): yes when a base is listed and its marks do not vouch
/// for it — there are none (a base written before marks existed, or
/// whose mark upload failed), or one names a base this plane has not
/// itself decoded. All marks known means the cloud holds a base the
/// plane has already weighed, or an unacked newer one that an acked
/// cloud shows under an unknown mark.
fn base_wanted(base_listed: bool, marks: &[Digest], known: &BTreeSet<Digest>) -> bool {
    base_listed && (marks.is_empty() || marks.iter().any(|id| !known.contains(id)))
}

/// Decrypts and decodes a stored base; its id is SHA-1 of the
/// plaintext, what the base's mark is named after.
fn decode_base(cipher: &MetadataCipher, ct: &[u8]) -> Option<(OplogBase, Digest)> {
    let pt = cipher.decrypt(ct).ok()?;
    let base = OplogBase::decode(&pt).ok()?;
    Some((base, Sha1::digest(&pt)))
}

/// The append-only oplog metadata plane: per-device op files, total
/// `(lamport, device, seq)` fold order, quorum lock only for
/// compaction.
pub struct OplogPlane {
    rt: Arc<dyn Runtime>,
    clouds: CloudSet,
    device: String,
    cipher: MetadataCipher,
    retry: RetryPolicy,
    obs: Obs,
    lock: QuorumLock,
    delta_ratio: f64,
    delta_floor: usize,
    /// Retained tail of our own log: ops the compacted base's watermark
    /// does not cover yet, with their encrypted frames. The device's op
    /// file body is exactly `frame_chunks(my_frames)`.
    my_ops: Vec<MetaOp>,
    my_frames: Vec<Bytes>,
    /// Next op sequence number. Never reused, even after a failed
    /// append: the op may have landed on a minority of clouds, and two
    /// different ops must never share an id.
    next_seq: u64,
    /// Whether `next_seq` and the retained tail have been recovered
    /// from cloud state (done by the first fetch that reaches a read
    /// quorum). A restarted plane must not restart at seq 1: its old
    /// process's ops are quorum-acked under the same `(device, seq)`
    /// ids, so a reused id is silently deduped/filtered (the new commit
    /// never enters any fold) and reuses the id-derived encryption
    /// nonce for a different plaintext. Commits are refused until
    /// recovery has run.
    recovered: bool,
    /// Every op this plane has ever observed that its adopted base does
    /// not cover yet, keyed by op id with the framed size each occupies
    /// in an op file. Folds always include this cache, which makes them
    /// *monotone*: a writer that compacted may trim its op file before
    /// the new base is visible on the clouds we happen to read, and
    /// without the cache that read would fold old-base + trimmed-log —
    /// a regressed image whose missing files look like remote deletes
    /// (and whose garbage collection would destroy live segments).
    seen_ops: BTreeMap<[u8; 20], (MetaOp, usize)>,
    /// The freshest base this plane has ever decoded, with its
    /// ciphertext size and id. Monotone under version-stamp comparison,
    /// for the same reason as `seen_ops`.
    adopted_base: Option<(OplogBase, usize, Digest)>,
    /// Ids of the bases this plane has itself decrypted and decoded
    /// (in `fetch`, in the under-lock re-read, as its own compaction) —
    /// never a mark it merely saw listed. A cloud whose marks are all
    /// in here is not asked for its base again ([`base_wanted`]).
    /// Pruned every fetch to the ids some cloud still lists plus the
    /// adopted one, so it is bounded by the cloud count.
    known_ids: BTreeSet<Digest>,
}

impl std::fmt::Debug for OplogPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OplogPlane")
            .field("device", &self.device)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// Everything one oplog read pass learned from the clouds.
struct OplogFetch {
    /// `fold(base, ops)`: the up-to-date folded state.
    folded: OplogBase,
    /// All distinct visible ops (including this device's in-memory
    /// tail), in deterministic id order.
    ops: Vec<MetaOp>,
    /// Ciphertext size of the stored base (drives the λ test).
    base_bytes: usize,
    /// Framed bytes of live ops (not covered by the base watermark).
    log_bytes: usize,
    /// Clouds whose oplog directory could be listed.
    reachable: usize,
}

impl OplogPlane {
    /// Creates the oplog plane for `config.device` over `clouds`.
    pub fn new(rt: Arc<dyn Runtime>, clouds: CloudSet, config: &ClientConfig, rng: SimRng) -> Self {
        let obs = config.data.obs.clone();
        let lock = QuorumLock::new(
            Arc::clone(&rt),
            clouds.clone(),
            config.device.as_str(),
            config.lock.clone(),
            rng,
        )
        .with_obs(obs.clone());
        OplogPlane {
            rt,
            clouds,
            device: config.device.clone(),
            cipher: MetadataCipher::from_passphrase(&config.passphrase),
            retry: config.data.retry.clone(),
            obs,
            lock,
            delta_ratio: config.delta_ratio,
            delta_floor: config.delta_floor,
            my_ops: Vec::new(),
            my_frames: Vec::new(),
            next_seq: 1,
            recovered: false,
            seen_ops: BTreeMap::new(),
            adopted_base: None,
            known_ids: BTreeSet::new(),
        }
    }

    /// Makes `base` this plane's adopted base: drops covered ops from
    /// the cache (what bounds it to the compaction cadence), trims the
    /// covered prefix of our retained tail so the next append rewrites
    /// a smaller file, and never hands out a seq the watermark proves
    /// was already committed.
    fn adopt_base(&mut self, base: OplogBase, base_bytes: usize, id: Digest) {
        self.seen_ops
            .retain(|_, (op, _)| op.seq > base.watermark.get(&op.device).copied().unwrap_or(0));
        let covered = base.watermark.get(&self.device).copied().unwrap_or(0);
        if covered > 0 {
            let mut frames = self.my_frames.iter();
            let mut kept = Vec::new();
            self.my_ops.retain(|op| {
                let frame = frames.next().expect("frames parallel to ops");
                if op.seq > covered {
                    kept.push(frame.clone());
                    true
                } else {
                    false
                }
            });
            self.my_frames = kept;
        }
        self.next_seq = self.next_seq.max(covered + 1);
        self.known_ids.insert(id);
        self.adopted_base = Some((base, base_bytes, id));
    }

    /// Downloads every op file, and the base where [`base_wanted`]
    /// says so, from every cloud (concurrently per cloud), decodes and
    /// dedups, folds.
    ///
    /// A cloud counts as reachable only when everything it advertised
    /// could actually be read: a listing that succeeds while a base or
    /// op-file download fails would otherwise pass the quorum gate with
    /// acked ops missing from the fold, and the regressed image would
    /// present as spurious remote deletes.
    fn fetch(&mut self, round: Option<SpanId>) -> OplogFetch {
        let mut span = self.obs.span("meta.oplog.fold", round);
        span.attr_str("device", self.device.as_str());
        // One task per cloud: list the oplog dir, then download the
        // base (unless its marks say we have decoded it before) and
        // each op file. A missing directory is a fresh cloud
        // (reachable, empty); a failing listing — or a listed file the
        // cloud then refuses to serve — is unreachable.
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let known = self.known_ids.clone();
        let reads = quorum::fan_out(&self.rt, &self.clouds, "oplog-read", move |_, cloud| {
            let entries = match Retry::new(&rt, &retry).run(|| cloud.list(OPLOG_DIR)) {
                Ok(entries) => entries,
                Err(CloudError::NotFound { .. }) => Vec::new(),
                Err(_) => return None,
            };
            let mut names: Vec<String> = entries
                .into_iter()
                .filter(|e| !e.is_dir)
                .map(|e| e.name)
                .collect();
            names.sort();
            let marks: Vec<Digest> =
                names.iter().filter_map(|name| parse_base_mark_name(name)).collect();
            let base_listed = names.iter().any(|name| name == "base");
            let want_base = base_wanted(base_listed, &marks, &known);
            let mut base_ct: Option<Bytes> = None;
            let mut bodies: Vec<Bytes> = Vec::new();
            for name in names {
                let is_base = name == "base";
                let wanted = if is_base { want_base } else { parse_op_file_name(&name).is_some() };
                if !wanted {
                    continue;
                }
                let path = format!("{OPLOG_DIR}/{name}");
                match Retry::new(&rt, &retry).run(|| cloud.download(&path)) {
                    Ok(body) if is_base => base_ct = Some(body),
                    Ok(body) => bodies.push(body),
                    // Listed-then-gone: as absent as unlisted.
                    Err(CloudError::NotFound { .. }) => {}
                    Err(_) => return None,
                }
            }
            Some((base_ct, marks, bodies))
        });

        let mut reachable = 0usize;
        // The freshest base starts from what we already adopted — a
        // read that races a compaction's base uploads must not regress
        // to a base we have moved past. "Freshest" is watermark
        // coverage (see [`covers`]), with the version stamp only as a
        // tie-break between equal-coverage copies.
        let mut best_base = self.adopted_base.clone();
        let mut listed: BTreeSet<Digest> = BTreeSet::new();
        let mut base_reads = 0u64;
        // Our own ops as stored on the clouds, for seq/tail recovery.
        let mut own: BTreeMap<u64, (MetaOp, Bytes)> = BTreeMap::new();
        for (base_ct, marks, bodies) in reads.into_iter().flatten() {
            reachable += 1;
            listed.extend(marks);
            if let Some(ct) = base_ct {
                base_reads += 1;
                if let Some((base, id)) = decode_base(&self.cipher, &ct) {
                    self.known_ids.insert(id);
                    let replace = match &best_base {
                        None => true,
                        Some((best, ..)) => {
                            covers(&base, best)
                                && (!covers(best, &base)
                                    || crate::control::newer(
                                        &base.image.version,
                                        &best.image.version,
                                    ))
                        }
                    };
                    if replace {
                        best_base = Some((base, ct.len(), id));
                    }
                }
            }
            for body in bodies {
                for frame in unframe_chunks(&body) {
                    let Ok(pt) = self.cipher.decrypt(&frame) else {
                        continue;
                    };
                    let Ok(op) = MetaOp::decode(&pt) else {
                        continue;
                    };
                    if !self.recovered && op.device == self.device {
                        own.entry(op.seq).or_insert_with(|| (op.clone(), frame.clone()));
                    }
                    // Dedup by id into the persistent cache (same op ⇒
                    // same deterministic ciphertext ⇒ same framed size).
                    let id = *op.id(OPLOG_FOLDER).as_bytes();
                    self.seen_ops.entry(id).or_insert((op, 4 + frame.len()));
                }
            }
        }
        // First fetch with a read quorum: recover where our own log
        // left off. A restarted device re-learns its surviving frames —
        // so the next full-replace upload preserves them instead of
        // clobbering the old process's acked ops — and resumes `seq`
        // after the highest committed one (ids are never reused; the
        // dedup and the id-derived nonce both depend on it).
        if !self.recovered && quorum::require_reachable(&self.clouds, reachable).is_ok() {
            for (op, frame) in self.my_ops.iter().zip(&self.my_frames) {
                own.entry(op.seq).or_insert_with(|| (op.clone(), frame.clone()));
            }
            self.my_ops = Vec::with_capacity(own.len());
            self.my_frames = Vec::with_capacity(own.len());
            for (op, frame) in own.values() {
                self.my_ops.push(op.clone());
                self.my_frames.push(frame.clone());
            }
            let committed = own.keys().next_back().copied().unwrap_or(0);
            self.next_seq = self.next_seq.max(committed + 1);
            self.recovered = true;
        }
        // Our own unacked/partially-replicated tail is always visible
        // to ourselves, whatever the clouds returned.
        for (op, frame) in self.my_ops.iter().zip(&self.my_frames) {
            let id = *op.id(OPLOG_FOLDER).as_bytes();
            self.seen_ops
                .entry(id)
                .or_insert((op.clone(), 4 + frame.len()));
        }

        let (base, base_bytes) = match best_base {
            Some((base, base_bytes, id)) => {
                self.adopt_base(base.clone(), base_bytes, id);
                // What no cloud lists any more will not be asked about.
                self.known_ids.retain(|known| *known == id || listed.contains(known));
                (base, base_bytes)
            }
            None => (OplogBase::new(), 0),
        };

        let mut ops = Vec::with_capacity(self.seen_ops.len());
        let mut log_bytes = 0usize;
        for (op, framed) in self.seen_ops.values() {
            // Everything left in the cache is live (uncovered) by the
            // retain in `adopt_base`.
            log_bytes += framed;
            ops.push(op.clone());
        }
        let outcome = fold(&base, &ops, OPLOG_FOLDER);
        span.attr_u64("reachable", reachable as u64);
        span.attr_u64("base_reads", base_reads);
        span.attr_u64("ops", ops.len() as u64);
        span.attr_u64("applied", outcome.applied as u64);
        span.attr_u64("conflicts", outcome.conflicts as u64);
        span.end();
        self.obs.inc("meta.oplog.folds");
        OplogFetch {
            folded: outcome.base,
            ops,
            base_bytes,
            log_bytes,
            reachable,
        }
    }

    /// Replicates `body` as this device's op file on every cloud
    /// (concurrently); `Ok` when a quorum acked.
    ///
    /// Every cloud gets the whole file, every time: a full replace is
    /// idempotent under retries and heals a torn or stale copy, where
    /// an append of only the new frames could embed a previously torn
    /// tail mid-file or, retried after a failed-but-applied attempt,
    /// leave duplicate frames. The file stays small because
    /// `adopt_base` trims what a compaction covered.
    fn replicate_op_file(&self, body: &Bytes) -> Result<(), PlaneError> {
        let path = op_file_path(&self.device);
        let (rt, retry, body) = (Arc::clone(&self.rt), self.retry.clone(), body.clone());
        let acks = quorum::fan_out(&self.rt, &self.clouds, "oplog-append", move |_, cloud| {
            Retry::new(&rt, &retry)
                .run(|| cloud.upload(&path, body.clone()))
                .is_ok()
        });
        quorum::require_acked(&self.clouds, acks)
    }

    /// Folds everything live into a fresh base and replicates it, under
    /// the quorum lock. Best-effort: a contended lock, an unreadable
    /// stored base, or a failed quorum write just leaves the old base —
    /// the log keeps working, only longer. Returns whether a new base
    /// was committed.
    ///
    /// The base to upload is derived *under the lock*: the stored base
    /// is re-downloaded and the fold restarts from it whenever it has
    /// advanced past what this plane had adopted before acquiring.
    /// Without that, two devices compacting in close succession (B
    /// folds, A compacts and releases, B acquires and uploads) would
    /// let B overwrite A's base with one whose watermark covers fewer
    /// ops — and once a third device trims its op file against A's
    /// base, those ops exist in neither the base nor the log: a fresh
    /// reader folds a regressed image whose missing files look like
    /// remote deletes (and whose garbage collection destroys live
    /// segments). The invariant is that every base ever uploaded
    /// [`covers`] the stored base it replaces, so stored bases form a
    /// coverage chain.
    fn try_compact(&mut self, round: Option<SpanId>) -> bool {
        let Ok(guard) = self.lock.acquire(round) else {
            self.obs.inc("meta.oplog.compact_skipped");
            return false;
        };
        let mut span = self.obs.span("meta.oplog.compact", round);
        span.attr_str("device", self.device.as_str());
        // Re-read the stored base under the lock — from every cloud,
        // whatever its marks say: skipping a known id here would let us
        // overwrite an unacked newer copy that some reader has already
        // adopted and trimmed against, and break the coverage chain. A
        // cloud is base-readable when it serves a decodable base or has
        // none at all; a quorum of base-readable clouds is required so
        // this read intersects the write quorum of whatever compaction
        // most recently succeeded (an undecodable copy — a torn base
        // upload — cannot be ruled newer, so it does not count as read).
        // The same task lists the marks our own will supersede: taken
        // under the lock, the list cannot hold a mark newer than ours.
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let reads = quorum::fan_out(&self.rt, &self.clouds, "oplog-base-read", move |_, cloud| {
            let stored = match Retry::new(&rt, &retry).run(|| cloud.download(OPLOG_BASE_PATH)) {
                Ok(ct) => Some(ct),
                Err(CloudError::NotFound { .. }) => None,
                Err(_) => return (None, Vec::new()),
            };
            // A failed listing only leaves its marks to the next
            // compaction.
            let marks: Vec<Digest> = Retry::new(&rt, &retry)
                .run(|| cloud.list(OPLOG_DIR))
                .unwrap_or_default()
                .iter()
                .filter_map(|entry| parse_base_mark_name(&entry.name))
                .collect();
            (Some(stored), marks)
        });
        let mut base_readable = 0usize;
        let mut stored: Vec<OplogBase> = Vec::new();
        let mut marks: Vec<Vec<Digest>> = Vec::new();
        for (read, listed) in reads {
            marks.push(listed);
            match read {
                Some(Some(ct)) => {
                    if let Some((base, id)) = decode_base(&self.cipher, &ct) {
                        base_readable += 1;
                        self.known_ids.insert(id);
                        stored.push(base);
                    }
                }
                Some(None) => base_readable += 1,
                None => {}
            }
        }
        let mut working: Option<OplogBase> = self.adopted_base.as_ref().map(|(b, ..)| b.clone());
        let mut abort = quorum::require_reachable(&self.clouds, base_readable).is_err();
        if !abort {
            for base in stored {
                let ours_covers = working.as_ref().is_some_and(|w| covers(w, &base));
                if ours_covers {
                    continue;
                }
                let stored_covers = working.as_ref().is_none_or(|w| covers(&base, w));
                if !stored_covers {
                    // Incomparable watermarks: something outside the
                    // coverage chain wrote this base. Leave the stored
                    // state alone rather than guess which ops survive.
                    abort = true;
                    break;
                }
                // The stored base moved past us while we were folding:
                // restart the fold from it.
                working = Some(base);
            }
        }
        if abort {
            span.attr_bool("ok", false);
            span.end();
            self.obs.inc("meta.oplog.compact_aborted");
            guard.release();
            return false;
        }
        let base = working.unwrap_or_default();
        // Fold every cached op; ones the working base already covers
        // are filtered by its watermark inside `compact`.
        let live: Vec<MetaOp> = self.seen_ops.values().map(|(op, _)| op.clone()).collect();
        let new_base = compact(&base, &live, OPLOG_FOLDER);
        let pt = new_base.encode();
        // Deterministic nonce: same folded state ⇒ same ciphertext, so
        // a retried compaction is byte-identical.
        let digest = Sha1::digest(&pt);
        let nonce = u64::from_le_bytes(digest.as_bytes()[..8].try_into().expect("8 bytes"));
        let ct = Bytes::from(self.cipher.encrypt(&pt, nonce));
        span.attr_u64("bytes", ct.len() as u64);
        // Base, then its mark: a cloud acks only with both, so a
        // quorum-acked compaction shows its mark on every read quorum.
        let (rt, retry, upload) = (Arc::clone(&self.rt), self.retry.clone(), ct.clone());
        let mark_path = base_mark_path(&digest);
        let acks = quorum::fan_out(&self.rt, &self.clouds, "oplog-base", move |_, cloud| {
            Retry::new(&rt, &retry)
                .run(|| cloud.upload(OPLOG_BASE_PATH, upload.clone()))
                .and_then(|()| Retry::new(&rt, &retry).run(|| cloud.upload(&mark_path, Bytes::new())))
                .is_ok()
        });
        let ok = quorum::require_acked(&self.clouds, acks.iter().copied()).is_ok();
        span.attr_bool("ok", ok);
        span.end();
        guard.release();
        if ok {
            self.obs.inc("meta.oplog.compactions");
            self.obs.series_add("meta.oplog.compactions", &self.device, 1);
            // Adopt our own base immediately: the next fold must not
            // pick an older cloud copy while the uploads settle. The
            // new base covers our whole tail, so this also trims it;
            // shrink our op file to match (best-effort; the watermark
            // filters either way).
            self.adopt_base(new_base, ct.len(), digest);
            let body = frame_chunks(&self.my_frames);
            let _ = self.replicate_op_file(&body);
        }
        // Where ours landed, the marks listed under the lock are stale.
        // Clearing them needs no lock and no retry: one that stays is
        // listed, and cleared, by the next compaction.
        for (listed, acked) in marks.iter_mut().zip(acks) {
            listed.retain(|id| acked && *id != digest);
        }
        if marks.iter().any(|stale| !stale.is_empty()) {
            quorum::fan_out(&self.rt, &self.clouds, "oplog-mark-clear", move |id, cloud| {
                for stale in &marks[id.0] {
                    let _ = cloud.delete(&base_mark_path(stale));
                }
            });
        }
        ok
    }
}

impl MetaPlane for OplogPlane {
    fn poll(
        &mut self,
        current: &SyncFolderImage,
        round: Option<SpanId>,
    ) -> Result<Option<SyncFolderImage>, PlaneError> {
        let fetched = self.fetch(round);
        if quorum::require_reachable(&self.clouds, fetched.reachable).is_err() {
            // Partial visibility could be missing acked ops; never
            // regress the local state on it.
            return Ok(None);
        }
        if fetched.folded.image == *current {
            return Ok(None);
        }
        Ok(Some(fetched.folded.image))
    }

    fn transact(
        &mut self,
        _current: &SyncFolderImage,
        round: Option<SpanId>,
        build: &mut MergeFn<'_>,
    ) -> Result<Option<SyncFolderImage>, PlaneError> {
        let fetched = self.fetch(round);
        // A fold over fewer clouds could miss acked ops: committing
        // against it would manufacture spurious conflicts.
        quorum::require_reachable(&self.clouds, fetched.reachable)?;
        if !self.recovered {
            // An unrecovered plane could reuse a (device, seq) id. The
            // fetch that reaches a read quorum recovers, so this only
            // holds the line should that ever stop being true.
            return Err(PlaneError::QuorumUnreachable {
                reachable: fetched.reachable,
                quorum: self.clouds.quorum(),
            });
        }
        let folded_image = &fetched.folded.image;
        let remote = if fetched.base_bytes > 0 || !fetched.ops.is_empty() {
            Some(folded_image)
        } else {
            None
        };
        let Some((to_commit, stamp)) = build(remote) else {
            return Ok(None);
        };

        // Derive the op from exactly the folded state the merge saw.
        let records = DeltaLog::records_for(folded_image, &to_commit);
        let op = MetaOp {
            device: self.device.clone(),
            seq: self.next_seq,
            lamport: stamp.counter,
            base_lamport: folded_image.version.counter,
            stamp_ns: stamp.timestamp_ns,
            records,
        };
        // Per-op encryption with an id-derived nonce: a retried upload
        // of the same op is byte-identical, so duplicates dedup at the
        // byte level too.
        let id = op.id(OPLOG_FOLDER);
        let nonce = u64::from_le_bytes(id.as_bytes()[..8].try_into().expect("8 bytes"));
        let frame = Bytes::from(self.cipher.encrypt(&op.encode(), nonce));
        let frame_len = 4 + frame.len();
        self.my_ops.push(op.clone());
        // The new op is live by definition: folds (and the compaction
        // size accounting) must see it like any other uncovered op.
        self.seen_ops.insert(*id.as_bytes(), (op.clone(), frame_len));
        self.my_frames.push(frame);
        self.next_seq += 1;

        let body = frame_chunks(&self.my_frames);
        let mut span = self.obs.span("meta.oplog.append", round);
        span.attr_str("device", self.device.as_str());
        span.attr_u64("ops", self.my_frames.len() as u64);
        span.attr_u64("bytes", body.len() as u64);
        let replicated = self.replicate_op_file(&body);
        span.attr_bool("ok", replicated.is_ok());
        span.end();
        // On failure the op stays in our retained tail (it may sit on a
        // minority cloud already and its seq must never be reused); the
        // caller retries the pass and the next fold absorbs it.
        replicated?;
        self.obs.inc("meta.oplog.appends");
        self.obs.series_add("meta.oplog.appends", &self.device, 1);

        // The adopted image is the fold including our op — it can
        // differ from `to_commit` by conflict attachments and retained
        // segments, and adopting it keeps every reader byte-identical.
        let adopted = compact(&fetched.folded, std::slice::from_ref(&op), OPLOG_FOLDER);

        // λ: compact when the live log outgrows the base, mirroring the
        // delta plane's threshold. Best-effort until the log reaches
        // OPLOG_COMPACT_ESCALATE × λ; past that, deferring further
        // would let the op cache and the full-replace op-file body grow
        // without bound under sustained contention, so the plane keeps
        // retrying the lock (each attempt a full backoff cycle) and
        // flags the log as overdue if even that fails.
        let live = fetched.log_bytes + frame_len;
        let threshold =
            compaction_threshold(fetched.base_bytes, self.delta_ratio, self.delta_floor);
        if live > threshold {
            let mut compacted = self.try_compact(round);
            if !compacted && live > threshold.saturating_mul(OPLOG_COMPACT_ESCALATE) {
                self.obs.inc("meta.oplog.compact_forced");
                self.obs.series_add("meta.oplog.compact_forced", &self.device, 1);
                for _ in 0..OPLOG_COMPACT_FORCED_RETRIES {
                    compacted = self.try_compact(round);
                    if compacted {
                        break;
                    }
                }
                if !compacted {
                    self.obs.inc("meta.oplog.compact_overdue");
                    self.obs.series_add("meta.oplog.compact_overdue", &self.device, 1);
                }
            }
        }
        Ok(Some(adopted.image))
    }
}

#[cfg(test)]
pub(crate) mod tests;
