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
//! pass downloads each one the fold lacks (neither its adopted base
//! covers it nor its op cache holds it) once, from the first cloud
//! whose listing shows it: the clouds' read tasks share one claim set,
//! so a pass's new ops spread over the clouds as their listings return
//! and arrive one round trip after the listing. A download that fails,
//! or a body that is not the op its name promises, is read from the
//! next cloud listing it in the same pass. The device's own objects
//! are the exception: they are read from each cloud that lists them
//! above what that cloud is known to hold, which is how a restarted
//! plane learns what each cloud holds. A base is read by the same rule
//! (the layout doc's read rule): the first cloud whose listing shows a
//! mark the plane has not decoded downloads its own base, once, and a
//! mark it did not serve goes to the next cloud listing it; a base no
//! mark names is never read. An object is never rewritten,
//! so a torn upload damages only the object being written: the cloud
//! did not ack it, its writer uploads it again before anything newer
//! to that cloud, and a reader that no cloud serves it to reads it
//! again on its next pass.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;
use unidrive_cloud::{CloudError, CloudSet, CloudStore, Retry, RetryPolicy};
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
    /// The data plane's `connections_per_cloud`: how many deletes a
    /// compaction's clearing keeps in flight on one cloud.
    connections: usize,
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
    /// Per cloud (by [`CloudId`]): the highest own seq that cloud is
    /// known to hold — it acked the upload, or a read from it decoded
    /// the object. An own op object it lists above this is read from
    /// that cloud, and an append uploads to it only the own ops above
    /// this. Other devices' ops need no per-cloud entry: one read from
    /// any cloud puts them in `seen_ops`.
    held: Vec<u64>,
    /// The freshest base this plane has ever decoded, with its
    /// ciphertext size and id. Monotone under version-stamp comparison,
    /// for the same reason as `seen_ops`.
    adopted_base: Option<(OplogBase, usize, Digest)>,
    /// Ids of the bases this plane has itself decrypted and decoded
    /// (in `fetch`, in the under-lock re-read, as its own compaction) —
    /// never a mark it merely saw listed. A mark in here is never
    /// claimed, so its base is not read again. Pruned every fetch to
    /// the ids some cloud still lists plus the adopted one, so it is
    /// bounded by the cloud count.
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
    /// Clouds whose oplog directory could be listed and that lost the
    /// pass nothing it advertised: every op object and base mark it
    /// lists was served by some cloud (or by none that did not fail).
    reachable: usize,
}

/// An op object's name, `(device, seq)`.
type OpName = (String, u64);

/// What a pass reads by the name a listing shows: an op object, or the
/// base a mark names.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Name {
    Op(OpName),
    Base(Digest),
}

/// Why one cloud did not serve a name its listing showed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Miss {
    /// As absent as unlisted: `NotFound` (a compaction deleted it after
    /// the listing), or a body that is not what its name promises (a
    /// torn upload the cloud never acked, a foreign object, a base
    /// other than the one a mark names).
    Absent,
    /// The download failed.
    Failed,
}

/// One cloud's read of one op object: the op and the size of its
/// object, or why the cloud did not serve it.
type OpRead = Result<(MetaOp, usize), Miss>;

/// One cloud's read of its base: the base, the size of its ciphertext
/// and its id, or why the cloud served none.
type BaseRead = Result<(OplogBase, usize, Digest), Miss>;

/// What a read task needs to download and decode op objects and bases.
#[derive(Clone)]
struct OpReader {
    rt: Arc<dyn Runtime>,
    retry: RetryPolicy,
    cipher: MetadataCipher,
}

impl OpReader {
    /// Downloads op object `name` from `cloud` and decodes it as the op
    /// its name promises: the op and the size of its object.
    fn read(&self, cloud: &dyn CloudStore, (device, seq): &OpName) -> OpRead {
        let path = op_object_path(device, *seq);
        let body = match Retry::new(&self.rt, &self.retry).run(|| cloud.download(&path)) {
            Ok(body) => body,
            Err(CloudError::NotFound { .. }) => return Err(Miss::Absent),
            Err(_) => return Err(Miss::Failed),
        };
        let op = self.cipher.decrypt(&body).ok().and_then(|pt| MetaOp::decode(&pt).ok());
        match op {
            Some(op) if op.device == *device && op.seq == *seq => Ok((op, body.len())),
            _ => Err(Miss::Absent),
        }
    }

    /// Downloads `cloud`'s base and decodes whatever it holds.
    fn base(&self, cloud: &dyn CloudStore) -> BaseRead {
        let body = match Retry::new(&self.rt, &self.retry).run(|| cloud.download(OPLOG_BASE_PATH)) {
            Ok(body) => body,
            Err(CloudError::NotFound { .. }) => return Err(Miss::Absent),
            Err(_) => return Err(Miss::Failed),
        };
        let (base, id) = decode_base(&self.cipher, &body).ok_or(Miss::Absent)?;
        Ok((base, body.len(), id))
    }
}

/// What a pass's downloads came to.
#[derive(Default)]
struct PassReads {
    downloads: u64,
    base_reads: u64,
    /// Per name no cloud has served yet (other devices' op objects,
    /// marks of bases the plane has not decoded): the clouds that tried
    /// it and why each did not serve it.
    missed: BTreeMap<Name, Vec<(usize, Miss)>>,
}

/// What one cloud's read task brought back.
struct CloudRead {
    /// The base marks its listing shows.
    marks: Vec<Digest>,
    /// Its base, read when this task was the first to list an unknown
    /// mark.
    base: Option<BaseRead>,
    /// Every other device's op object its listing shows above the
    /// adopted base's watermark: where a claim that failed elsewhere
    /// can still be served.
    listed: BTreeSet<OpName>,
    /// The op objects it downloaded — the ones it claimed and its own
    /// unread ones — and how each read went.
    reads: Vec<(OpName, OpRead)>,
    /// The highest seq of the reading device its listing shows.
    own_top: u64,
}

impl CloudRead {
    /// Whether its listing shows `name`.
    fn lists(&self, name: &Name) -> bool {
        match name {
            Name::Op(op) => self.listed.contains(op),
            Name::Base(mark) => self.marks.contains(mark),
        }
    }
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
        let held = vec![0; clouds.len()];
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
            connections: config.data.connections_per_cloud.max(1),
            next_seq: 1,
            recovered: false,
            seen_ops: BTreeMap::new(),
            held,
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

    /// This device's uncovered ops that some cloud is not known to
    /// hold, in seq order: what the next append uploads there before
    /// its own op.
    fn my_ops(&self) -> Vec<&MetaOp> {
        let everywhere = self.held.iter().copied().min().unwrap_or(0);
        let mut mine: Vec<&MetaOp> = self
            .seen_ops
            .values()
            .map(|(op, _)| op)
            .filter(|op| op.device == self.device && op.seq > everywhere)
            .collect();
        mine.sort_by_key(|op| op.seq);
        mine
    }

    /// Records one op-object download from cloud `c`: a decoded op
    /// joins the cache (and, if it is our own, what `c` holds); a
    /// failed read of another device's op waits for another cloud.
    fn take_read(&mut self, pass: &mut PassReads, c: usize, name: OpName, read: OpRead) {
        pass.downloads += 1;
        match read {
            Ok((op, size)) => {
                if op.device == self.device {
                    self.held[c] = self.held[c].max(op.seq);
                }
                pass.missed.remove(&Name::Op(name));
                // Dedup by id into the persistent cache (same op ⇒
                // same deterministic ciphertext ⇒ same size).
                self.seen_ops.entry(*op.id(OPLOG_FOLDER).as_bytes()).or_insert((op, size));
            }
            Err(miss) if name.0 != self.device => {
                pass.missed.entry(Name::Op(name)).or_default().push((c, miss));
            }
            Err(_) => {}
        }
    }

    /// Records the download of cloud `c`'s base, whose listing showed
    /// `marks`: whatever decodes is weighed and its id becomes known;
    /// every other unknown mark `c` lists waits for another cloud.
    fn take_base(
        &mut self,
        pass: &mut PassReads,
        best: &mut Option<(OplogBase, usize, Digest)>,
        c: usize,
        marks: &[Digest],
        read: BaseRead,
    ) {
        pass.base_reads += 1;
        let miss = match read {
            Ok((base, size, id)) => {
                self.known_ids.insert(id);
                pass.missed.remove(&Name::Base(id));
                Self::weigh(best, base, size, id);
                Miss::Absent
            }
            Err(miss) => miss,
        };
        for mark in marks.iter().filter(|mark| !self.known_ids.contains(mark)) {
            pass.missed.entry(Name::Base(*mark)).or_default().push((c, miss));
        }
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
    /// (concurrently) and downloads each name the plane lacks once, from
    /// the first cloud whose listing shows it — an op object the fold
    /// lacks, or the base a mark it has not decoded names (the read
    /// rule of `unidrive_meta`'s layout doc); then decodes, dedups,
    /// folds.
    ///
    /// A cloud counts as reachable only when the pass lost nothing it
    /// advertised: a listing that succeeds while the op objects it
    /// names cannot be read would otherwise pass the quorum gate with
    /// acked ops missing from the fold, and the regressed image would
    /// present as spurious remote deletes. A name that another listing
    /// cloud served costs the cloud that failed it nothing.
    fn fetch(&mut self, round: Option<SpanId>) -> OplogFetch {
        let mut span = self.obs.span("meta.oplog.fold", round);
        span.attr_str("device", self.device.as_str());
        // One task per cloud: list the oplog dir, download its own
        // unread op objects, its base if it is first to list a mark
        // not yet decoded, then each op object it is first to claim. A
        // missing directory is a fresh cloud (reachable, empty); a
        // failing listing, or a failed read only this cloud could
        // serve, is unreachable — and ends the task before it claims
        // anything.
        let reader = OpReader {
            rt: Arc::clone(&self.rt),
            retry: self.retry.clone(),
            cipher: self.cipher.clone(),
        };
        let covered = self
            .adopted_base
            .as_ref()
            .map(|(base, ..)| base.watermark.clone())
            .unwrap_or_default();
        // The claim set starts as what the plane already holds; a task
        // claims a name by being the first to add it.
        let mut held_names: BTreeSet<Name> =
            self.seen_ops.values().map(|(op, _)| Name::Op((op.device.clone(), op.seq))).collect();
        held_names.extend(self.known_ids.iter().map(|id| Name::Base(*id)));
        let claims = Arc::new(Mutex::new(held_names));
        let (held, own, task_reader) = (self.held.clone(), self.device.clone(), reader.clone());
        let mut reads = quorum::fan_out(&self.rt, &self.clouds, "oplog-read", move |id, cloud| {
            let reader = &task_reader;
            let entries = match Retry::new(&reader.rt, &reader.retry).run(|| cloud.list(OPLOG_DIR)) {
                Ok(entries) => entries,
                Err(CloudError::NotFound { .. }) => Vec::new(),
                Err(_) => return None,
            };
            let mut got = CloudRead {
                marks: Vec::new(),
                base: None,
                listed: BTreeSet::new(),
                reads: Vec::new(),
                own_top: 0,
            };
            let mut own_unread = Vec::new();
            for entry in entries.iter().filter(|e| !e.is_dir) {
                if let Some(mark) = parse_base_mark_name(&entry.name) {
                    got.marks.push(mark);
                } else if let Some((device, seq)) = parse_op_object_name(&entry.name) {
                    let above = seq > covered.get(device).copied().unwrap_or(0);
                    if device == own {
                        got.own_top = got.own_top.max(seq);
                        if above && seq > held[id.0] {
                            own_unread.push((own.clone(), seq));
                        }
                    } else if above {
                        got.listed.insert((device.to_owned(), seq));
                    }
                }
            }
            own_unread.sort();
            for name in own_unread {
                let read = reader.read(cloud, &name);
                if matches!(read, Err(Miss::Failed)) {
                    return None;
                }
                got.reads.push((name, read));
            }
            // The first task to list a mark the plane has not decoded
            // reads its own base; a base no mark names is unacked, and
            // never read.
            let mut claimed = false;
            for mark in &got.marks {
                claimed |= claims.lock().insert(Name::Base(*mark));
            }
            if claimed {
                got.base = Some(reader.base(cloud));
            }
            // Claim one name at a time, so a task whose listing
            // returns while this one downloads takes the next.
            for name in &got.listed {
                if claims.lock().insert(Name::Op(name.clone())) {
                    got.reads.push((name.clone(), reader.read(cloud, name)));
                }
            }
            Some(got)
        });

        // The freshest base starts from what we already adopted — a
        // read that races a compaction's base uploads must not regress
        // to a base we have moved past.
        let mut best_base = self.adopted_base.clone();
        let mut listed: BTreeSet<Digest> = BTreeSet::new();
        let mut pass = PassReads::default();
        for (c, got) in reads.iter_mut().enumerate() {
            let Some(got) = got else { continue };
            listed.extend(got.marks.iter().copied());
            if let Some(read) = got.base.take() {
                self.take_base(&mut pass, &mut best_base, c, &got.marks, read);
            }
            for (name, read) in std::mem::take(&mut got.reads) {
                self.take_read(&mut pass, c, name, read);
            }
        }
        // A name left unserved is read, in the same pass, from the next
        // cloud that lists it and has not tried it, every such name at
        // once: one more round trip per cloud that failed it. A cloud
        // reads its base at most once per pass, for all its marks.
        loop {
            let mut assigned: Vec<Vec<Name>> = vec![Vec::new(); reads.len()];
            for (name, tried) in &pass.missed {
                let next = reads.iter().enumerate().find(|(c, got)| {
                    got.as_ref().is_some_and(|got| got.lists(name)) && tried.iter().all(|(t, _)| t != c)
                });
                if let Some((c, _)) = next {
                    assigned[c].push(name.clone());
                }
            }
            if assigned.iter().all(Vec::is_empty) {
                break;
            }
            let reader = reader.clone();
            let retried = quorum::fan_out(&self.rt, &self.clouds, "oplog-read-op", move |id, cloud| {
                let names = &assigned[id.0];
                let base = names.iter().any(|name| matches!(name, Name::Base(_))).then(|| reader.base(cloud));
                let ops: Vec<(OpName, OpRead)> = names
                    .iter()
                    .filter_map(|name| match name {
                        Name::Op(op) => Some((op.clone(), reader.read(cloud, op))),
                        Name::Base(_) => None,
                    })
                    .collect();
                (base, ops)
            });
            for (c, (base, ops)) in retried.into_iter().enumerate() {
                if let (Some(read), Some(got)) = (base, &reads[c]) {
                    self.take_base(&mut pass, &mut best_base, c, &got.marks, read);
                }
                for (name, read) in ops {
                    self.take_read(&mut pass, c, name, read);
                }
            }
        }
        // A name no listing cloud served costs each cloud whose download
        // of it failed its place in the read quorum. Gone everywhere is
        // compacted away, and a copy that did not decode was never
        // acked there: both are as absent as unlisted.
        let mut lost = vec![false; reads.len()];
        for (c, miss) in pass.missed.values().flatten() {
            lost[*c] |= *miss == Miss::Failed;
        }
        let reachable = reads.iter().zip(&lost).filter(|(got, lost)| got.is_some() && !**lost).count();

        // First fetch with a read quorum: resume `seq` after the
        // highest own one any listing shows (ids are never reused; the
        // dedup and the id-derived nonce both depend on it). The own
        // ops themselves were read from each cloud listing them, which
        // also told `held` what each cloud holds.
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
        span.attr_u64("base_reads", pass.base_reads);
        span.attr_u64("downloads", pass.downloads);
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
        let held = self.held.clone();
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
        self.held.clone_from(&tops);
        quorum::require_acked(&self.clouds, tops.iter().map(|top| *top >= newest))
    }

    /// Folds everything live into a fresh base and replicates it, under
    /// the quorum lock. Best-effort: a contended lock, an unreadable
    /// stored base, or a failed quorum write just leaves the old base —
    /// the log keeps working, only longer. Returns whether the live log
    /// is back within λ: a new base was committed, or the stored base
    /// found under the lock already folds all but λ of it.
    ///
    /// Unless `forced`, the lock is only tried: one lock upload, and a
    /// busy lock (some other device is compacting) skips the
    /// compaction — the append stands. A `forced` compaction, past the
    /// escalation cap, runs the full [`QuorumLock::acquire`].
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
    fn try_compact(&mut self, round: Option<SpanId>, forced: bool) -> bool {
        if let Some(clearing) = self.clearing.take() {
            clearing.join();
        }
        let acquire = if forced { QuorumLock::acquire } else { QuorumLock::try_acquire };
        let Ok(guard) = acquire(&self.lock, round) else {
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
            self.clearing = Some(self.clear(stale));
        }
        ok
    }

    /// Deletes `stale[c]` from each cloud `c` in the background, on at
    /// most `connections_per_cloud` concurrent requests per cloud: that
    /// many tasks per cloud, each taking the next path.
    fn clear(&self, stale: Vec<Vec<String>>) -> Task<()> {
        let (rt, clouds) = (Arc::clone(&self.rt), self.clouds.clone());
        let connections = self.connections;
        unidrive_sim::spawn(&self.rt, "oplog-clear", move || {
            let mut lanes = Vec::new();
            for ((_, cloud), paths) in clouds.iter().zip(stale) {
                let n = connections.min(paths.len());
                let queue = Arc::new(Mutex::new(VecDeque::from(paths)));
                for _ in 0..n {
                    let (cloud, queue) = (Arc::clone(cloud), Arc::clone(&queue));
                    lanes.push(unidrive_sim::spawn(&rt, "oplog-clear", move || loop {
                        let Some(path) = queue.lock().pop_front() else { break };
                        let _ = cloud.delete(&path);
                    }));
                }
            }
            for lane in lanes {
                lane.join();
            }
        })
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
        // OPLOG_COMPACT_ESCALATE × λ: a busy lock skips it. Past that,
        // deferring further would let the op cache and the op objects
        // grow without bound under sustained contention, so the plane
        // keeps retrying the lock (each attempt a full backoff cycle)
        // and flags the log as overdue if even that fails.
        let live = fetched.log_bytes + size;
        let threshold =
            compaction_threshold(fetched.base_bytes, self.delta_ratio, self.delta_floor);
        if live > threshold {
            let mut compacted = self.try_compact(round, false);
            if !compacted && live > threshold.saturating_mul(OPLOG_COMPACT_ESCALATE) {
                self.obs.series_add("meta.oplog.compact_forced", &self.device, 1);
                for _ in 0..OPLOG_COMPACT_FORCED_RETRIES {
                    compacted = self.try_compact(round, true);
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
