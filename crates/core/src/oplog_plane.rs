//! [`OplogPlane`]: the append-only [`MetaPlane`]. It removes the
//! per-commit lock of the paper's plane: each device stores every
//! encrypted [`MetaOp`] as a write-once op object of its own on every
//! cloud, and readers fold every visible op in the total
//! `(lamport, device, seq)` order (see `unidrive_meta::fold`). A commit
//! is one quorum-acked upload of the new object — no coordination with
//! other writers — so N concurrent writers of a hot folder scale
//! instead of serializing. The quorum lock survives only for base
//! compaction, triggered when the live log outgrows λ (the same
//! ratio/floor the delta plane uses).
//!
//! A read costs what changed. The listing names every op object, and a
//! pass downloads only those its adopted base does not cover and that
//! it has not already read from that cloud. An object is never
//! rewritten, so a torn upload damages only the object being written:
//! the cloud did not ack it, its writer uploads it again before
//! anything newer to that cloud, and a reader that cannot decode it
//! reads it again on its next pass.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use unidrive_util::bytes::Bytes;
use unidrive_cloud::{CloudError, CloudId, CloudSet, Retry, RetryPolicy};
use unidrive_crypto::{Digest, MetadataCipher, Sha1};
use unidrive_meta::{
    base_mark_path, compact, compaction_threshold, fold, op_object_path, parse_base_mark_name,
    parse_op_object_name, DeltaLog, MergeFn, MetaOp, MetaPlane, OplogBase, PlaneError,
    SyncFolderImage, OPLOG_BASE_PATH, OPLOG_COMPACT_ESCALATE, OPLOG_DIR,
};
use unidrive_obs::{Obs, SpanId};
use unidrive_sim::{Runtime, SimRng, Task};

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
/// can then never lose an op, even one whose op object a compaction
/// has already deleted. Coverage — not the version stamp — is the
/// order bases advance in: a base folding strictly more ops can still
/// carry an older stamp when the extra ops sort early in the total
/// order.
fn covers(a: &OplogBase, b: &OplogBase) -> bool {
    b.watermark
        .iter()
        .all(|(device, seq)| a.watermark.get(device).copied().unwrap_or(0) >= *seq)
}

/// Whether a read pass must download a cloud's `base` itself, decided
/// from the listing it already paid for (the table in `unidrive_meta`'s
/// layout doc): yes when a base is listed and its marks do not vouch
/// for it — there are none (a base written before marks existed, or
/// whose mark upload failed), or one names a base this plane has not
/// itself decoded. All marks known means the cloud holds a base the
/// plane has already weighed, or an unacked newer one that an acked
/// cloud shows under an unknown mark. A mark a quorum of listings
/// show is fetched from one cloud before this is asked.
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

/// The append-only oplog metadata plane: per-append op objects, total
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
    /// Next op sequence number. Never reused, even after a failed
    /// append: the op may have landed on a minority of clouds, and two
    /// different ops must never share an id.
    next_seq: u64,
    /// Whether `next_seq` has been recovered from cloud state (done by
    /// the first fetch that reaches a read quorum, from the own seqs
    /// its listings show). A restarted plane must not restart at seq 1:
    /// its old process's ops are quorum-acked under the same
    /// `(device, seq)` ids, so a reused id is silently deduped/filtered
    /// (the new commit never enters any fold) and reuses the
    /// id-derived encryption nonce for a different plaintext. Commits
    /// are refused until recovery has run.
    recovered: bool,
    /// Every op this plane has ever observed, its own included, that
    /// its adopted base does not cover yet, keyed by op id with the
    /// size of its op object. Folds always include this cache, which
    /// makes them *monotone*: a compaction may delete op objects before
    /// the new base is visible on the clouds we happen to read, and
    /// without the cache that read would fold old-base + shortened
    /// log — a regressed image whose missing files look like remote
    /// deletes (and whose garbage collection would destroy live
    /// segments).
    seen_ops: BTreeMap<[u8; 20], (MetaOp, usize)>,
    /// Per cloud (by [`CloudId`]), per device: the highest seq this
    /// plane has read from that cloud — for its own device, the
    /// highest that cloud acked. A listed op object at or below it is
    /// not downloaded from that cloud again, and an append uploads to
    /// a cloud only the own ops above its entry.
    read: Vec<BTreeMap<String, u64>>,
    /// The freshest base this plane has ever decoded, with its
    /// ciphertext size and id. Monotone under version-stamp comparison,
    /// for the same reason as `seen_ops`.
    adopted_base: Option<(OplogBase, usize, Digest)>,
    /// Ids of the bases this plane has itself decrypted and decoded
    /// (in `fetch`, in the under-lock re-read, as its own compaction) —
    /// never a mark it merely saw listed. A mark in here is not fetched
    /// again ([`base_wanted`]). Pruned every fetch to the ids some
    /// cloud still lists plus the adopted one, so it is bounded by the
    /// cloud count.
    known_ids: BTreeSet<Digest>,
    /// The deletes of the last compaction's stale names, running in the
    /// background; joined before the next compaction lists them again.
    clearing: Option<Task<()>>,
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
    /// All distinct visible ops (including this device's own), in
    /// deterministic id order.
    ops: Vec<MetaOp>,
    /// Ciphertext size of the stored base (drives the λ test).
    base_bytes: usize,
    /// Bytes of the live ops' objects (not covered by the base
    /// watermark).
    log_bytes: usize,
    /// Clouds whose oplog directory could be listed and whose every
    /// advertised object could be read.
    reachable: usize,
}

/// What one cloud's read task brought back.
struct CloudRead {
    /// The base marks its listing shows.
    marks: Vec<Digest>,
    /// Whether its listing shows a base.
    base_listed: bool,
    /// Its base, downloaded only when no mark vouches for it.
    base: Option<Bytes>,
    /// The op objects downloaded, `(device, seq, ciphertext)`.
    objects: Vec<(String, u64, Bytes)>,
    /// The highest seq of the reading device its listing shows.
    own_top: u64,
}

/// What the listing under the compaction lock showed on one cloud.
#[derive(Default)]
struct LockedListing {
    marks: Vec<Digest>,
    objects: Vec<(String, u64)>,
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
        let read = vec![BTreeMap::new(); clouds.len()];
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
            next_seq: 1,
            recovered: false,
            seen_ops: BTreeMap::new(),
            read,
            adopted_base: None,
            known_ids: BTreeSet::new(),
            clearing: None,
        }
    }

    /// Makes `base` this plane's adopted base: drops covered ops from
    /// the cache (what bounds it, and the own ops an append may still
    /// owe a cloud, to the compaction cadence), and never hands out a
    /// seq the watermark proves was already committed.
    fn adopt_base(&mut self, base: OplogBase, base_bytes: usize, id: Digest) {
        self.seen_ops
            .retain(|_, (op, _)| op.seq > base.watermark.get(&op.device).copied().unwrap_or(0));
        let covered = base.watermark.get(&self.device).copied().unwrap_or(0);
        self.next_seq = self.next_seq.max(covered + 1);
        self.known_ids.insert(id);
        self.adopted_base = Some((base, base_bytes, id));
    }

    /// Encrypts `op` as the body of its op object. The nonce derives
    /// from the op id, so every upload of the same op is byte-identical.
    fn seal(&self, op: &MetaOp) -> Bytes {
        let id = op.id(OPLOG_FOLDER);
        let nonce = u64::from_le_bytes(id.as_bytes()[..8].try_into().expect("8 bytes"));
        Bytes::from(self.cipher.encrypt(&op.encode(), nonce))
    }

    /// The highest own seq cloud `c` is known to hold.
    fn held(&self, c: usize) -> u64 {
        self.read[c].get(&self.device).copied().unwrap_or(0)
    }

    /// This device's uncovered ops that some cloud is not known to
    /// hold, in seq order: what the next append uploads there before
    /// its own op.
    fn my_ops(&self) -> Vec<&MetaOp> {
        let everywhere = (0..self.read.len()).map(|c| self.held(c)).min().unwrap_or(0);
        let mut mine: Vec<&MetaOp> = self
            .seen_ops
            .values()
            .map(|(op, _)| op)
            .filter(|op| op.device == self.device && op.seq > everywhere)
            .collect();
        mine.sort_by_key(|op| op.seq);
        mine
    }

    /// Weighs a decoded base against the freshest one this pass holds.
    /// "Freshest" is watermark coverage (see [`covers`]), with the
    /// version stamp only as a tie-break between equal-coverage copies.
    fn weigh(best: &mut Option<(OplogBase, usize, Digest)>, base: OplogBase, size: usize, id: Digest) {
        let replace = match best {
            None => true,
            Some((held, ..)) => {
                covers(&base, held)
                    && (!covers(held, &base)
                        || crate::control::newer(&base.image.version, &held.image.version))
            }
        };
        if replace {
            *best = Some((base, size, id));
        }
    }

    /// One read pass: lists the oplog directory on every cloud
    /// (concurrently) and downloads each op object neither the adopted
    /// base nor an earlier read from that cloud accounts for; then
    /// fetches the bases the listings say are new (see the layout
    /// doc's table), decodes, dedups, folds.
    ///
    /// A cloud counts as reachable only when everything it advertised
    /// could actually be read: a listing that succeeds while a base or
    /// op-object download fails would otherwise pass the quorum gate
    /// with acked ops missing from the fold, and the regressed image
    /// would present as spurious remote deletes.
    fn fetch(&mut self, round: Option<SpanId>) -> OplogFetch {
        let mut span = self.obs.span("meta.oplog.fold", round);
        span.attr_str("device", self.device.as_str());
        // One task per cloud: list the oplog dir, download a base no
        // mark vouches for, and each unread op object. A missing
        // directory is a fresh cloud (reachable, empty); a failing
        // listing — or a listed object the cloud then refuses to
        // serve — is unreachable.
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let covered = self
            .adopted_base
            .as_ref()
            .map(|(base, ..)| base.watermark.clone())
            .unwrap_or_default();
        let (read, own) = (self.read.clone(), self.device.clone());
        let reads = quorum::fan_out(&self.rt, &self.clouds, "oplog-read", move |id, cloud| {
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
            let mut got = CloudRead {
                base: None,
                objects: Vec::new(),
                own_top: 0,
                base_listed,
                marks,
            };
            // A base no mark vouches for has no other source than this
            // cloud; one under an unknown mark waits for every listing.
            if base_listed && got.marks.is_empty() {
                match Retry::new(&rt, &retry).run(|| cloud.download(OPLOG_BASE_PATH)) {
                    Ok(body) => got.base = Some(body),
                    Err(CloudError::NotFound { .. }) => {}
                    Err(_) => return None,
                }
            }
            let seen = |device: &str| {
                let base = covered.get(device).copied().unwrap_or(0);
                base.max(read[id.0].get(device).copied().unwrap_or(0))
            };
            for name in &names {
                let Some((device, seq)) = parse_op_object_name(name) else {
                    continue;
                };
                if device == own {
                    got.own_top = got.own_top.max(seq);
                }
                if seq <= seen(device) {
                    continue;
                }
                let path = format!("{OPLOG_DIR}/{name}");
                match Retry::new(&rt, &retry).run(|| cloud.download(&path)) {
                    Ok(body) => got.objects.push((device.to_owned(), seq, body)),
                    // Listed-then-gone (a compaction deleted it): as
                    // absent as unlisted.
                    Err(CloudError::NotFound { .. }) => {}
                    Err(_) => return None,
                }
            }
            Some(got)
        });

        // The freshest base starts from what we already adopted — a
        // read that races a compaction's base uploads must not regress
        // to a base we have moved past.
        let mut best_base = self.adopted_base.clone();
        let mut base_reads = 0u64;
        let mut listed: BTreeSet<Digest> = BTreeSet::new();
        for (c, got) in reads.iter().enumerate() {
            let Some(got) = got else { continue };
            listed.extend(got.marks.iter().copied());
            if let Some(ct) = &got.base {
                base_reads += 1;
                if let Some((base, id)) = decode_base(&self.cipher, ct) {
                    self.known_ids.insert(id);
                    Self::weigh(&mut best_base, base, ct.len(), id);
                }
            }
            for (device, seq, body) in &got.objects {
                let Ok(pt) = self.cipher.decrypt(body) else {
                    continue;
                };
                // A torn or foreign object is skipped, and read again
                // next pass: the watermark moves only past what
                // decoded as the op its name promises.
                let Ok(op) = MetaOp::decode(&pt) else {
                    continue;
                };
                if op.device != *device || op.seq != *seq {
                    continue;
                }
                let top = self.read[c].entry(op.device.clone()).or_insert(0);
                *top = (*top).max(op.seq);
                // Dedup by id into the persistent cache (same op ⇒
                // same deterministic ciphertext ⇒ same size).
                let id = *op.id(OPLOG_FOLDER).as_bytes();
                self.seen_ops.entry(id).or_insert((op, body.len()));
            }
        }

        // A new mark a quorum of listings show belongs to a
        // quorum-acked compaction: fetch its base from one cloud, the
        // lowest-indexed one listing it, and accept it only as the
        // base its mark names. A failed download, a failed decode or
        // a mismatch moves on to the next cloud listing the mark.
        let mut holders: BTreeMap<Digest, Vec<usize>> = BTreeMap::new();
        for (c, got) in reads.iter().enumerate() {
            for mark in got.iter().flat_map(|got| &got.marks) {
                if !self.known_ids.contains(mark) {
                    holders.entry(*mark).or_default().push(c);
                }
            }
        }
        let mut tried = vec![false; reads.len()];
        let mut failed = vec![false; reads.len()];
        for (mark, showing) in &holders {
            if showing.len() < self.clouds.quorum() {
                continue;
            }
            for &c in showing {
                tried[c] = true;
                let cloud = self.clouds.get(CloudId(c));
                match Retry::new(&self.rt, &self.retry).run(|| cloud.download(OPLOG_BASE_PATH)) {
                    Ok(ct) => {
                        base_reads += 1;
                        if let Some((base, id)) = decode_base(&self.cipher, &ct) {
                            self.known_ids.insert(id);
                            Self::weigh(&mut best_base, base, ct.len(), id);
                            if id == *mark {
                                break;
                            }
                        }
                    }
                    Err(CloudError::NotFound { .. }) => {}
                    Err(_) => failed[c] = true,
                }
            }
        }
        // Every other cloud whose marks still leave its base unknown —
        // a minority mark, or a quorum mark no holder could serve to
        // the others — is read from itself, concurrently.
        let wanted: Vec<bool> = reads
            .iter()
            .zip(&tried)
            .map(|(got, tried)| {
                got.as_ref().is_some_and(|got| {
                    !tried
                        && !got.marks.is_empty()
                        && base_wanted(got.base_listed, &got.marks, &self.known_ids)
                })
            })
            .collect();
        if wanted.contains(&true) {
            let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
            let bases = quorum::fan_out(&self.rt, &self.clouds, "oplog-read-base", move |id, cloud| {
                if !wanted[id.0] {
                    return Ok(None);
                }
                match Retry::new(&rt, &retry).run(|| cloud.download(OPLOG_BASE_PATH)) {
                    Ok(ct) => Ok(Some(ct)),
                    Err(CloudError::NotFound { .. }) => Ok(None),
                    Err(e) => Err(e),
                }
            });
            for (c, base) in bases.into_iter().enumerate() {
                match base {
                    Ok(Some(ct)) => {
                        base_reads += 1;
                        if let Some((base, id)) = decode_base(&self.cipher, &ct) {
                            self.known_ids.insert(id);
                            Self::weigh(&mut best_base, base, ct.len(), id);
                        }
                    }
                    Ok(None) => {}
                    Err(_) => failed[c] = true,
                }
            }
        }
        // A cloud whose base read failed is unreachable unless another
        // cloud served the base its marks name.
        let reachable = reads
            .iter()
            .zip(&failed)
            .filter(|(got, failed)| {
                got.as_ref().is_some_and(|got| {
                    !**failed || got.marks.iter().all(|mark| self.known_ids.contains(mark))
                })
            })
            .count();

        // First fetch with a read quorum: resume `seq` after the
        // highest own one any listing shows (ids are never reused; the
        // dedup and the id-derived nonce both depend on it). The own
        // ops themselves were read like anyone else's, which also told
        // each cloud's entry in `read` what that cloud holds.
        if !self.recovered && quorum::require_reachable(&self.clouds, reachable).is_ok() {
            let top = reads.iter().flatten().map(|got| got.own_top).max().unwrap_or(0);
            self.next_seq = self.next_seq.max(top + 1);
            self.recovered = true;
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
        for (op, size) in self.seen_ops.values() {
            // Everything left in the cache is live (uncovered) by the
            // retain in `adopt_base`.
            log_bytes += size;
            ops.push(op.clone());
        }
        let outcome = fold(&base, &ops, OPLOG_FOLDER);
        span.attr_u64("reachable", reachable as u64);
        span.attr_u64("base_reads", base_reads);
        span.attr_u64("ops", ops.len() as u64);
        span.attr_u64("applied", outcome.applied as u64);
        span.attr_u64("conflicts", outcome.conflicts as u64);
        span.end();
        self.obs.series_add("meta.oplog.folds", &self.device, 1);
        OplogFetch {
            folded: outcome.base,
            ops,
            base_bytes,
            log_bytes,
            reachable,
        }
    }

    /// Uploads to every cloud (concurrently) the own op objects it is
    /// not known to hold, in seq order, stopping at that cloud's first
    /// failure — so no cloud ever shows an op without the uncovered
    /// ones before it. `Ok` when a quorum holds them all, the newest
    /// op included.
    ///
    /// Each object is written once per cloud: a cloud that acked it is
    /// never sent it again, so a torn retry can never damage an acked
    /// op, and a torn object heals on the writer's next append there.
    fn replicate_own(&mut self) -> Result<(), PlaneError> {
        let sealed: Vec<(u64, String, Bytes)> = self
            .my_ops()
            .into_iter()
            .map(|op| (op.seq, op_object_path(&self.device, op.seq), self.seal(op)))
            .collect();
        let newest = sealed.last().map_or(0, |(seq, ..)| *seq);
        let held: Vec<u64> = (0..self.read.len()).map(|c| self.held(c)).collect();
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let tops = quorum::fan_out(&self.rt, &self.clouds, "oplog-append", move |id, cloud| {
            let mut top = held[id.0];
            for (seq, path, body) in sealed.iter().filter(|(seq, ..)| *seq > held[id.0]) {
                if Retry::new(&rt, &retry).run(|| cloud.upload(path, body.clone())).is_err() {
                    break;
                }
                top = *seq;
            }
            top
        });
        for (read, top) in self.read.iter_mut().zip(&tops) {
            read.insert(self.device.clone(), *top);
        }
        quorum::require_acked(&self.clouds, tops.iter().map(|top| *top >= newest))
    }

    /// Folds everything live into a fresh base and replicates it, under
    /// the quorum lock. Best-effort: a contended lock, an unreadable
    /// stored base, or a failed quorum write just leaves the old base —
    /// the log keeps working, only longer. Returns whether the live log
    /// is back within λ: a new base was committed, or the stored base
    /// found under the lock already folds all but λ of it.
    ///
    /// The base to upload is derived *under the lock*: the stored base
    /// is re-downloaded and the fold restarts from it whenever it has
    /// advanced past what this plane had adopted before acquiring.
    /// Without that, two devices compacting in close succession (B
    /// folds, A compacts and releases, B acquires and uploads) would
    /// let B overwrite A's base with one whose watermark covers fewer
    /// ops — and once A's compaction has deleted the op objects its
    /// base covers, those ops exist in neither the base nor the log: a
    /// fresh reader folds a regressed image whose missing files look
    /// like remote deletes (and whose garbage collection destroys live
    /// segments). The invariant is that every base ever uploaded
    /// [`covers`] the stored base it replaces, so stored bases form a
    /// coverage chain.
    ///
    /// Once the new base is quorum-acked, the op objects it covers are
    /// deleted from the clouds that acked it, in the background: one
    /// delete per append and cloud, which the compactor's pass does not
    /// wait for. A name left behind (a cloud that did not ack, a
    /// refused delete) is listed, and deleted, by the next compaction.
    fn try_compact(&mut self, round: Option<SpanId>) -> bool {
        if let Some(clearing) = self.clearing.take() {
            clearing.join();
        }
        let Ok(guard) = self.lock.acquire(round) else {
            self.obs.series_add("meta.oplog.compact_skipped", &self.device, 1);
            return false;
        };
        let mut span = self.obs.span("meta.oplog.compact", round);
        span.attr_str("device", self.device.as_str());
        // Re-read the stored base under the lock — from every cloud,
        // whatever its marks say: skipping a known id here would let us
        // overwrite an unacked newer copy that some reader has already
        // adopted, and break the coverage chain. A cloud is
        // base-readable when it serves a decodable base or has none at
        // all; a quorum of base-readable clouds is required so this
        // read intersects the write quorum of whatever compaction most
        // recently succeeded (an undecodable copy — a torn base upload
        // — cannot be ruled newer, so it does not count as read). The
        // same task lists the marks our own will supersede and the op
        // objects it may cover: taken under the lock, the list cannot
        // hold a mark newer than ours.
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let reads = quorum::fan_out(&self.rt, &self.clouds, "oplog-base-read", move |_, cloud| {
            let stored = match Retry::new(&rt, &retry).run(|| cloud.download(OPLOG_BASE_PATH)) {
                Ok(ct) => Some(ct),
                Err(CloudError::NotFound { .. }) => None,
                Err(_) => return (None, LockedListing::default()),
            };
            // A failed listing only leaves its names to the next
            // compaction.
            let mut listing = LockedListing::default();
            for entry in Retry::new(&rt, &retry).run(|| cloud.list(OPLOG_DIR)).unwrap_or_default() {
                if let Some(mark) = parse_base_mark_name(&entry.name) {
                    listing.marks.push(mark);
                } else if let Some((device, seq)) = parse_op_object_name(&entry.name) {
                    listing.objects.push((device.to_owned(), seq));
                }
            }
            (Some(stored), listing)
        });
        let mut base_readable = 0usize;
        let mut stored: Vec<(OplogBase, usize, Digest)> = Vec::new();
        let mut listings: Vec<LockedListing> = Vec::new();
        for (read, listing) in reads {
            listings.push(listing);
            match read {
                Some(Some(ct)) => {
                    if let Some((base, id)) = decode_base(&self.cipher, &ct) {
                        base_readable += 1;
                        self.known_ids.insert(id);
                        stored.push((base, ct.len(), id));
                    }
                }
                Some(None) => base_readable += 1,
                None => {}
            }
        }
        let mut working = self.adopted_base.clone();
        let mut abort = quorum::require_reachable(&self.clouds, base_readable).is_err();
        if !abort {
            for (base, size, id) in stored {
                let ours_covers = working.as_ref().is_some_and(|(w, ..)| covers(w, &base));
                if ours_covers {
                    continue;
                }
                let stored_covers = working.as_ref().is_none_or(|(w, ..)| covers(&base, w));
                if !stored_covers {
                    // Incomparable watermarks: something outside the
                    // coverage chain wrote this base. Leave the stored
                    // state alone rather than guess which ops survive.
                    abort = true;
                    break;
                }
                // The stored base moved past us while we were folding:
                // restart the fold from it.
                working = Some((base, size, id));
            }
        }
        if abort {
            span.attr_bool("ok", false);
            span.end();
            self.obs.series_add("meta.oplog.compact_aborted", &self.device, 1);
            guard.release();
            return false;
        }
        // λ again, over the stored base: a compaction that landed while
        // we waited for the lock may already have folded the log, and
        // then this one would only rewrite the base for a handful of
        // ops. Adopt that base instead.
        let (base_bytes, covered) = working
            .as_ref()
            .map_or((0, BTreeMap::new()), |(base, size, _)| (*size, base.watermark.clone()));
        let live: usize = self
            .seen_ops
            .values()
            .filter(|(op, _)| op.seq > covered.get(&op.device).copied().unwrap_or(0))
            .map(|(_, size)| size)
            .sum();
        if live <= compaction_threshold(base_bytes, self.delta_ratio, self.delta_floor) {
            span.attr_bool("ok", true);
            span.end();
            guard.release();
            if let Some((base, size, id)) = working {
                self.adopt_base(base, size, id);
            }
            return true;
        }
        let base = working.map(|(base, ..)| base).unwrap_or_default();
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
        // Where ours landed, the marks listed under the lock are stale;
        // once a quorum holds it, so are the op objects it covers.
        // Clearing them needs no lock and no retry: a name that stays
        // is listed, and cleared, by the next compaction.
        let stale: Vec<Vec<String>> = listings
            .into_iter()
            .zip(acks)
            .map(|(listing, acked)| {
                if !acked {
                    return Vec::new();
                }
                let marks = listing.marks.into_iter().filter(|id| *id != digest);
                let objects = listing.objects.into_iter().filter(|(device, seq)| {
                    ok && *seq <= new_base.watermark.get(device).copied().unwrap_or(0)
                });
                marks
                    .map(|id| base_mark_path(&id))
                    .chain(objects.map(|(device, seq)| op_object_path(&device, seq)))
                    .collect()
            })
            .collect();
        if ok {
            self.obs.series_add("meta.oplog.compactions", &self.device, 1);
            // Adopt our own base immediately: the next fold must not
            // pick an older cloud copy while the uploads settle.
            self.adopt_base(new_base, ct.len(), digest);
        }
        if stale.iter().any(|paths| !paths.is_empty()) {
            let (rt, clouds) = (Arc::clone(&self.rt), self.clouds.clone());
            self.clearing = Some(unidrive_sim::spawn(&self.rt, "oplog-clear", move || {
                quorum::fan_out(&rt, &clouds, "oplog-clear", move |id, cloud| {
                    for path in &stale[id.0] {
                        let _ = cloud.delete(path);
                    }
                });
            }));
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
            base: fetched.folded.watermark.clone(),
            stamp_ns: stamp.timestamp_ns,
            records,
        };
        let size = self.seal(&op).len();
        // The new op is live by definition: folds (and the compaction
        // size accounting) must see it like any other uncovered op.
        self.seen_ops.insert(*op.id(OPLOG_FOLDER).as_bytes(), (op.clone(), size));
        self.next_seq += 1;

        let mut span = self.obs.span("meta.oplog.append", round);
        span.attr_str("device", self.device.as_str());
        span.attr_u64("ops", self.my_ops().len() as u64);
        span.attr_u64("bytes", size as u64);
        let replicated = self.replicate_own();
        span.attr_bool("ok", replicated.is_ok());
        span.end();
        // On failure the op stays in the cache (it may sit on a
        // minority cloud already and its seq must never be reused);
        // the caller retries the pass, and the next append uploads it
        // first to every cloud that lacks it.
        replicated?;
        self.obs.series_add("meta.oplog.appends", &self.device, 1);

        // The adopted image is the fold including our op — it can
        // differ from `to_commit` by conflict attachments and retained
        // segments, and adopting it keeps every reader byte-identical.
        let adopted = compact(&fetched.folded, std::slice::from_ref(&op), OPLOG_FOLDER);

        // λ: compact when the live log outgrows the base, mirroring the
        // delta plane's threshold. Best-effort until the log reaches
        // OPLOG_COMPACT_ESCALATE × λ; past that, deferring further
        // would let the op cache and the op objects grow without bound
        // under sustained contention, so the plane keeps retrying the
        // lock (each attempt a full backoff cycle) and flags the log as
        // overdue if even that fails.
        let live = fetched.log_bytes + size;
        let threshold =
            compaction_threshold(fetched.base_bytes, self.delta_ratio, self.delta_floor);
        if live > threshold {
            let mut compacted = self.try_compact(round);
            if !compacted && live > threshold.saturating_mul(OPLOG_COMPACT_ESCALATE) {
                self.obs.series_add("meta.oplog.compact_forced", &self.device, 1);
                for _ in 0..OPLOG_COMPACT_FORCED_RETRIES {
                    compacted = self.try_compact(round);
                    if compacted {
                        break;
                    }
                }
                if !compacted {
                    self.obs.series_add("meta.oplog.compact_overdue", &self.device, 1);
                }
            }
        }
        Ok(Some(adopted.image))
    }
}

#[cfg(test)]
pub(crate) mod tests;
