//! Tests of [`OplogPlane`](super::OplogPlane); a file of their own
//! only to keep `oplog_plane.rs` readable in one sitting. The
//! `FailingDownloads` and `Counting` doubles are shared with the lock
//! plane's store tests.

use super::*;
use crate::lock_plane::tests::{clouds, commit_file, config, plane, try_commit_file};
use unidrive_cloud::{ChaosCloud, CloudStore, FaultEvent, FaultKind, FaultPlan, MemCloud, ObjectInfo};
use unidrive_meta::{MetaMode, SegmentId, Snapshot, VersionStamp, LOCK_DIR, PROTOCOL_COSTS};
use unidrive_sim::{RealRuntime, SimRuntime};
use unidrive_util::sync::Mutex;

/// Delegates to `inner` but fails `download` of any path containing
/// `only` with a non-NotFound error — a cloud that lists fine yet
/// cannot serve (some of) what it advertised.
pub(crate) struct FailingDownloads {
    pub(crate) inner: Arc<dyn CloudStore>,
    pub(crate) only: &'static str,
}

impl CloudStore for FailingDownloads {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), unidrive_cloud::CloudError> {
        self.inner.upload(path, data)
    }
    fn download(&self, path: &str) -> Result<Bytes, unidrive_cloud::CloudError> {
        if path.contains(self.only) {
            return Err(CloudError::Unavailable {
                cloud: self.inner.name().to_owned(),
                op: None,
                path: Some(path.to_owned()),
            });
        }
        self.inner.download(path)
    }
    fn create_dir(&self, path: &str) -> Result<(), unidrive_cloud::CloudError> {
        self.inner.create_dir(path)
    }
    fn list(
        &self,
        path: &str,
    ) -> Result<Vec<unidrive_cloud::ObjectInfo>, unidrive_cloud::CloudError> {
        self.inner.list(path)
    }
    fn delete(&self, path: &str) -> Result<(), unidrive_cloud::CloudError> {
        self.inner.delete(path)
    }
}

/// Delegates to `inner` and keeps a log of every call as
/// `(operation, path)`; `refuse_delete` makes the next delete of a
/// path containing it fail, once, and `refuse_upload` every upload of
/// a path containing it, until cleared.
pub(crate) struct Counting {
    inner: Arc<dyn CloudStore>,
    log: Mutex<Vec<(&'static str, String)>>,
    refuse_delete: Mutex<Option<&'static str>>,
    refuse_upload: Mutex<Option<&'static str>>,
}

impl Counting {
    pub(crate) fn new(inner: Arc<dyn CloudStore>) -> Arc<Counting> {
        Arc::new(Counting {
            inner,
            log: Mutex::new(Vec::new()),
            refuse_delete: Mutex::new(None),
            refuse_upload: Mutex::new(None),
        })
    }

    fn note(&self, op: &'static str, path: &str) {
        self.log.lock().push((op, path.to_owned()));
    }

    pub(crate) fn downloads_of(&self, path: &str) -> usize {
        let log = self.log.lock();
        log.iter().filter(|(op, p)| *op == "download" && p == path).count()
    }

    /// The operations called since the last [`forget`](Self::forget),
    /// in order.
    pub(crate) fn calls(&self) -> Vec<&'static str> {
        self.log.lock().iter().map(|(op, _)| *op).collect()
    }

    /// The paths uploaded since the last [`forget`](Self::forget), in
    /// order.
    fn uploads(&self) -> Vec<String> {
        let log = self.log.lock();
        log.iter().filter(|(op, _)| *op == "upload").map(|(_, p)| p.clone()).collect()
    }

    pub(crate) fn forget(&self) {
        self.log.lock().clear();
    }

    fn marks(&self) -> Vec<Digest> {
        let entries = self.inner.list(OPLOG_DIR).expect("oplog dir listed");
        entries.iter().filter_map(|e| parse_base_mark_name(&e.name)).collect()
    }

    /// The `(device, seq)` of every op object the cloud holds.
    fn op_objects(&self) -> Vec<(String, u64)> {
        let entries = self.inner.list(OPLOG_DIR).expect("oplog dir listed");
        entries
            .iter()
            .filter_map(|e| parse_op_object_name(&e.name).map(|(d, seq)| (d.to_owned(), seq)))
            .collect()
    }
}

impl CloudStore for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        self.note("upload", path);
        if self.refuse_upload.lock().is_some_and(|part| path.contains(part)) {
            return Err(CloudError::Unavailable {
                cloud: self.inner.name().to_owned(),
                op: None,
                path: Some(path.to_owned()),
            });
        }
        self.inner.upload(path, data)
    }
    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.note("download", path);
        self.inner.download(path)
    }
    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.note("create_dir", path);
        self.inner.create_dir(path)
    }
    fn list(&self, path: &str) -> Result<Vec<unidrive_cloud::ObjectInfo>, CloudError> {
        self.note("list", path);
        self.inner.list(path)
    }
    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.note("delete", path);
        let mut refuse = self.refuse_delete.lock();
        if refuse.is_some_and(|part| path.contains(part)) {
            *refuse = None;
            return Err(CloudError::Unavailable {
                cloud: self.inner.name().to_owned(),
                op: None,
                path: Some(path.to_owned()),
            });
        }
        self.inner.delete(path)
    }
}

/// Wraps each cloud in a [`Counting`] double: the set a plane syncs
/// over, and the doubles to question afterwards. Planes built over the
/// same set share its log.
pub(crate) fn counted(
    clouds: impl Iterator<Item = Arc<dyn CloudStore>>,
) -> (CloudSet, Vec<Arc<Counting>>) {
    let doubles: Vec<Arc<Counting>> = clouds.map(Counting::new).collect();
    let members = doubles.iter().map(|c| Arc::clone(c) as Arc<dyn CloudStore>).collect();
    (CloudSet::new(members), doubles)
}

fn counting_clouds(n: usize) -> (CloudSet, Vec<Arc<Counting>>) {
    counted((0..n).map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>))
}

/// A second view of the same clouds with a log of its own, so one
/// device's traffic can be counted apart from another's.
fn recount(doubles: &[Arc<Counting>]) -> (CloudSet, Vec<Arc<Counting>>) {
    counted(doubles.iter().map(|c| Arc::clone(c) as Arc<dyn CloudStore>))
}

fn base_downloads(doubles: &[Arc<Counting>]) -> Vec<usize> {
    doubles.iter().map(|c| c.downloads_of(OPLOG_BASE_PATH)).collect()
}

fn oplog_plane(set: CloudSet, device: &str, floor: usize, seed: u64) -> OplogPlane {
    OplogPlane::new(
        Arc::new(RealRuntime::new()),
        set,
        &config(device, floor),
        SimRng::seed_from_u64(seed),
    )
}

#[test]
fn oplog_writers_converge_without_locking() {
    let set = clouds(5);
    let mut a = plane(MetaMode::Oplog, set.clone(), "dev-a", 1);
    let mut b = plane(MetaMode::Oplog, set.clone(), "dev-b", 2);
    let img_a = commit_file(a.as_mut(), &SyncFolderImage::new(), "dev-a", "a.txt", 1);
    assert!(img_a.file("b.txt").is_none());
    // dev-b's transaction folds dev-a's already-replicated op into
    // the image it adopts — no lock, no lost update.
    let img_b = commit_file(b.as_mut(), &SyncFolderImage::new(), "dev-b", "b.txt", 1);
    assert!(img_b.file("a.txt").is_some());
    assert!(img_b.file("b.txt").is_some());
    // Any reader folds both ops to the same bytes.
    let mut r = plane(MetaMode::Oplog, set, "dev-c", 3);
    let merged = r
        .poll(&SyncFolderImage::new(), None)
        .expect("poll")
        .expect("both visible");
    assert_eq!(merged.encode(), img_b.encode());
    // dev-a converges on its next poll; dev-b is already current.
    let next_a = a.as_mut().poll(&img_a, None).expect("poll").expect("sees b");
    assert_eq!(next_a.encode(), img_b.encode());
    assert!(b.as_mut().poll(&img_b, None).expect("poll").is_none());
}

/// Commits `path` = `tag` on top of what the transaction folded, with
/// the client's counter rule (one above the folded head).
fn commit_tag(p: &mut OplogPlane, device: &str, path: &str, tag: &str) -> SyncFolderImage {
    p.transact(&SyncFolderImage::new(), None, &mut |remote| Some(upserted(remote, device, path, tag)))
        .expect("transact")
        .expect("committed")
}

fn upserted(
    remote: Option<&SyncFolderImage>,
    device: &str,
    path: &str,
    tag: &str,
) -> (SyncFolderImage, VersionStamp) {
    let mut img = remote.cloned().unwrap_or_else(SyncFolderImage::new);
    let seg = SegmentId(Sha1::digest(tag.as_bytes()));
    img.ensure_segment(seg, 3);
    img.upsert_file(path, Snapshot { segments: vec![seg] });
    let counter = remote.map_or(0, |r| r.version.counter) + 1;
    img.version = VersionStamp { device: device.to_owned(), counter, timestamp_ns: counter };
    let stamp = img.version.clone();
    (img, stamp)
}

/// a builds f on the empty log. Before its append lands, c commits g,
/// and b, having folded c's op only, commits f as well. a's op and
/// c's both carry lamport 1 and b's 2, so b's head covers a's lamport
/// but not a's write: b's version must be the copy, and a's, whose
/// commit returned, must keep the slot.
#[test]
fn a_write_the_committer_never_folded_survives_below_its_head() {
    let set = clouds(5);
    let mut a = oplog_plane(set.clone(), "dev-a", 10 * 1024, 1);
    let mut b = oplog_plane(set.clone(), "dev-b", 10 * 1024, 2);
    let mut c = oplog_plane(set.clone(), "dev-c", 10 * 1024, 3);
    a.transact(&SyncFolderImage::new(), None, &mut |remote| {
        assert!(remote.is_none(), "a folds the empty log");
        commit_tag(&mut c, "dev-c", "g", "from-c");
        let seen = commit_tag(&mut b, "dev-b", "f", "from-b");
        assert!(seen.file("g").is_some() && seen.version.counter == 2);
        Some(upserted(remote, "dev-a", "f", "from-a"))
    })
    .expect("transact")
    .expect("committed");
    let mut r = oplog_plane(set, "dev-r", 10 * 1024, 4);
    let folded = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    let seg = |tag: &str| SegmentId(Sha1::digest(tag.as_bytes()));
    let f = folded.file("f").expect("f");
    assert_eq!(f.snapshot.segments, [seg("from-a")], "the first write keeps the slot");
    let (device, copy) = f.conflicts.first().expect("the later write is the copy");
    assert_eq!((device.as_str(), &copy.segments[..]), ("dev-b", &[seg("from-b")][..]));
}

#[test]
fn oplog_compaction_preserves_fold() {
    let set = clouds(3);
    let mut w = plane(MetaMode::Oplog, set.clone(), "dev-a", 1);
    // Tiny floor forces compaction almost immediately.
    let mut w_small = oplog_plane(set.clone(), "dev-b", 1, 9);
    let mut current = SyncFolderImage::new();
    for i in 1..=4u64 {
        current = commit_file(&mut w_small, &current, "dev-b", &format!("f{i}.txt"), i);
    }
    // The base must exist now, and a fresh reader folds to the same
    // state the writer adopted.
    let base_ct = set
        .get(unidrive_cloud::CloudId(0))
        .download(OPLOG_BASE_PATH)
        .expect("compacted base written");
    assert!(!base_ct.is_empty());
    let polled = w
        .poll(&SyncFolderImage::new(), None)
        .expect("poll")
        .expect("visible");
    assert_eq!(polled.encode(), current.encode());
    for i in 1..=4 {
        assert!(polled.file(&format!("f{i}.txt")).is_some());
    }
}

#[test]
fn oplog_unreachable_majority_fails_commit_but_not_poll() {
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    let set = crate::lock::tests::clouds_with_dead(&rt, 5, 3);
    let mut p = plane(MetaMode::Oplog, set, "dev-a", 1);
    assert!(p.poll(&SyncFolderImage::new(), None).expect("poll").is_none());
    let err = p
        .transact(&SyncFolderImage::new(), None, &mut |_| {
            panic!("build must not run without a readable quorum")
        })
        .unwrap_err();
    assert!(matches!(err, PlaneError::QuorumUnreachable { reachable: 2, quorum: 3 }));
}

/// A compactor holding a pre-lock fold must not overwrite a base
/// that advanced while it waited: dev-a's compaction deletes the op
/// objects it covers, so a stale base from dev-b would lose those ops
/// in both the base and the log.
#[test]
fn stale_compactor_cannot_regress_the_stored_base() {
    let set = clouds(3);
    // dev-a commits one op; the large floor defers compaction.
    let mut a = oplog_plane(set.clone(), "dev-a", 10 * 1024, 1);
    let img1 = commit_file(&mut a, &SyncFolderImage::new(), "dev-a", "a1.txt", 1);
    // dev-b folds the pre-compaction world and goes stale.
    let mut b = oplog_plane(set.clone(), "dev-b", 10 * 1024, 2);
    assert!(b.poll(&SyncFolderImage::new(), None).expect("poll").is_some());
    // dev-a (restarted) compacts: base watermark {dev-a: 2}, both its
    // op objects deleted — a2's op now lives only in the base.
    let mut a2 = oplog_plane(set.clone(), "dev-a", 1, 3);
    let _ = commit_file(&mut a2, &img1, "dev-a", "a2.txt", 2);
    // dev-b compacts from its stale fold. The under-lock re-read
    // must restart from the stored base instead of unwinding it.
    assert!(b.try_compact(None, false));
    let cipher = MetadataCipher::from_passphrase("test-passphrase");
    let after_ct = set
        .get(unidrive_cloud::CloudId(0))
        .download(OPLOG_BASE_PATH)
        .expect("base present");
    let after = OplogBase::decode(&cipher.decrypt(&after_ct).unwrap()).unwrap();
    assert!(
        after.watermark.get("dev-a").copied().unwrap_or(0) >= 2,
        "stale compactor unwound dev-a's compaction"
    );
    // A fresh reader still sees both files.
    let mut r = plane(MetaMode::Oplog, set, "dev-r", 9);
    let merged = r
        .poll(&SyncFolderImage::new(), None)
        .expect("poll")
        .expect("visible");
    assert!(merged.file("a1.txt").is_some());
    assert!(merged.file("a2.txt").is_some());
}

/// A plane recreated for an existing device (process restart) must
/// resume its sequence past the quorum-acked ops — a reused
/// `(device, seq)` id is silently deduped away — and keep every op the
/// old process committed.
#[test]
fn restarted_device_resumes_sequence_and_preserves_log() {
    let set = clouds(3);
    let mut w1 = oplog_plane(set.clone(), "dev-a", 10 * 1024, 1);
    let img1 = commit_file(&mut w1, &SyncFolderImage::new(), "dev-a", "f1.txt", 1);
    let img2 = commit_file(&mut w1, &img1, "dev-a", "f2.txt", 2);
    assert_eq!(w1.next_seq, 3);
    drop(w1);
    let mut w2 = oplog_plane(set.clone(), "dev-a", 10 * 1024, 2);
    let img3 = commit_file(&mut w2, &img2, "dev-a", "f3.txt", 3);
    assert_eq!(w2.next_seq, 4, "seq resumed after the committed ops");
    assert_eq!(w2.my_ops().len(), 0, "every cloud holds every own op");
    assert!(img3.file("f1.txt").is_some() && img3.file("f2.txt").is_some());
    let mut r = plane(MetaMode::Oplog, set, "dev-r", 9);
    let merged = r
        .poll(&SyncFolderImage::new(), None)
        .expect("poll")
        .expect("visible");
    for f in ["f1.txt", "f2.txt", "f3.txt"] {
        assert!(merged.file(f).is_some(), "{f} lost across the restart");
    }
}

/// `inners` as a reader sees them when every download from the first
/// `failing` of them fails.
fn failing_first(inners: &[Arc<Counting>], failing: usize) -> CloudSet {
    let wrapped = inners.iter().enumerate().map(|(i, c)| {
        let inner = Arc::clone(c) as Arc<dyn CloudStore>;
        if i < failing {
            Arc::new(FailingDownloads { inner, only: "" }) as Arc<dyn CloudStore>
        } else {
            inner
        }
    });
    CloudSet::new(wrapped.collect())
}

/// A cloud whose listing succeeds but whose downloads fail must not
/// count toward the read quorum when no other listing cloud serves
/// what it lists: the fold would silently miss acked ops. Here the op
/// sits on clouds 0–2 only, and all three refuse to serve it.
#[test]
fn listed_but_undownloadable_cloud_is_unreachable() {
    let (set, doubles) = counting_clouds(5);
    for cloud in &doubles[3..] {
        *cloud.refuse_upload.lock() = Some("oplog/ops_");
    }
    let mut w = plane(MetaMode::Oplog, set, "dev-a", 1);
    commit_file(w.as_mut(), &SyncFolderImage::new(), "dev-a", "f.txt", 1);
    let mut r = plane(MetaMode::Oplog, failing_first(&doubles, 3), "dev-b", 2);
    assert!(
        r.poll(&SyncFolderImage::new(), None).expect("poll").is_none(),
        "partial fold must not be presented"
    );
    let err = r
        .transact(&SyncFolderImage::new(), None, &mut |_| {
            panic!("build must not run when downloads fail below quorum")
        })
        .unwrap_err();
    assert!(matches!(err, PlaneError::QuorumUnreachable { reachable: 2, quorum: 3 }));
}

/// The same failing clouds cost nothing when another cloud that lists
/// the op serves it: the fold is complete, and presented, in one pass.
#[test]
fn an_op_a_failing_cloud_lists_is_read_from_another() {
    let (set, doubles) = counting_clouds(5);
    let mut w = plane(MetaMode::Oplog, set, "dev-a", 1);
    let image = commit_file(w.as_mut(), &SyncFolderImage::new(), "dev-a", "f.txt", 1);
    let mut r = oplog_plane(failing_first(&doubles, 3), "dev-b", 10 * 1024, 2);
    let fetched = r.fetch(None);
    assert_eq!(fetched.reachable, 5);
    assert_eq!(fetched.folded.image.encode(), image.encode());
}

/// When compaction keeps failing past the escalation cap, the plane
/// retries it as blocking work and surfaces the overdue log on the
/// counters — commits themselves keep succeeding.
#[test]
fn overdue_compaction_escalates_with_counters() {
    // Base downloads always fail (non-NotFound), so every
    // compaction attempt aborts its stored-base re-read.
    let members: Vec<Arc<dyn CloudStore>> = (0..3)
        .map(|i| {
            Arc::new(FailingDownloads {
                inner: Arc::new(MemCloud::new(format!("c{i}"))),
                only: "oplog/base",
            }) as Arc<dyn CloudStore>
        })
        .collect();
    let registry = unidrive_obs::Registry::new();
    let mut config = config("dev-a", 1);
    config.data.obs = Obs::with_registry(Arc::clone(&registry));
    let mut w = OplogPlane::new(
        Arc::new(RealRuntime::new()),
        CloudSet::new(members),
        &config,
        SimRng::seed_from_u64(1),
    );
    let img = commit_file(&mut w, &SyncFolderImage::new(), "dev-a", "f.txt", 1);
    assert!(img.file("f.txt").is_some(), "commit survives a stuck compaction");
    let series = registry.series_snapshot();
    let total = |metric| series.merged(metric).sum;
    assert!(total("meta.oplog.compact_aborted") >= 3, "initial try + forced retries");
    assert_eq!(total("meta.oplog.compact_forced"), 1);
    assert_eq!(total("meta.oplog.compact_overdue"), 1);
    assert_eq!(total("meta.oplog.compactions"), 0);
}

/// Waits for the deletes `p`'s last compaction left running.
fn settle(p: &mut OplogPlane) {
    if let Some(clearing) = p.clearing.take() {
        clearing.join();
    }
}

/// Commits `files` one by one on a plane whose λ floor of one byte
/// makes every commit compact, waiting out each compaction's deletes.
fn commit_and_compact(
    w: &mut OplogPlane,
    mut current: SyncFolderImage,
    device: &str,
    files: std::ops::RangeInclusive<u64>,
) -> SyncFolderImage {
    for i in files {
        current = commit_file(w, &current, device, &format!("f{i}.txt"), i);
        settle(w);
    }
    current
}

/// (a) A poll that finds the marks it knows downloads no base.
#[test]
fn idle_poll_downloads_no_base() {
    let (set, doubles) = counting_clouds(5);
    let mut w = oplog_plane(set, "dev-w", 1, 1);
    let image = commit_and_compact(&mut w, SyncFolderImage::new(), "dev-w", 1..=3);
    let (reader_set, reads) = recount(&doubles);
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let polled = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(polled.encode(), image.encode());
    let total = || base_downloads(&reads).iter().sum::<usize>();
    assert_eq!(total(), 1, "a fresh reader reads the base once, from the first cloud listing its mark");
    assert!(r.poll(&polled, None).expect("poll").is_none());
    assert!(r.poll(&polled, None).expect("poll").is_none());
    assert_eq!(total(), 1, "nothing new, no base read again");
}

/// A reader polling an idle folder makes one call per cloud — the
/// listing — however many op objects it lists.
#[test]
fn idle_poll_over_listed_op_objects_is_one_list_per_cloud() {
    let (set, doubles) = counting_clouds(5);
    let mut w = oplog_plane(set, "dev-w", 10 * 1024, 1);
    let mut image = SyncFolderImage::new();
    for i in 1..=3 {
        image = commit_file(&mut w, &image, "dev-w", &format!("f{i}.txt"), i);
    }
    let (reader_set, reads) = recount(&doubles);
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let polled = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(polled.encode(), image.encode());
    reads.iter().for_each(|cloud| cloud.forget());
    assert!(r.poll(&polled, None).expect("poll").is_none());
    for (i, cloud) in reads.iter().enumerate() {
        assert_eq!(cloud.calls(), ["list"], "cloud {i}");
        assert_eq!(doubles[i].op_objects().len(), 3, "test premise: cloud {i} lists 3");
    }
}

/// (b) Another device's compaction costs each reader one base download
/// in total, from the first cloud listing its mark — and costs the
/// compactor `PROTOCOL_COSTS.oplog_compact` calls per cloud plus
/// `oplog_op_delete` per op object its base covers there.
#[test]
fn a_compaction_is_downloaded_once_in_total() {
    let (set, doubles) = counting_clouds(5);
    let mut w = oplog_plane(set, "dev-w", 1, 1);
    let first = commit_and_compact(&mut w, SyncFolderImage::new(), "dev-w", 1..=2);
    let (reader_set, reads) = recount(&doubles);
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let seen = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(seen.encode(), first.encode());
    let before = base_downloads(&reads);

    let second = commit_and_compact(&mut w, first, "dev-w", 3..=3);
    let seen = r.poll(&seen, None).expect("poll").expect("the new file");
    assert_eq!(seen.encode(), second.encode());
    for _ in 0..3 {
        assert!(r.poll(&seen, None).expect("poll").is_none());
    }
    let after = base_downloads(&reads);
    assert_eq!(after.iter().sum::<usize>() - before.iter().sum::<usize>(), 1, "the new base, once");

    // What one uncontended compaction asks of one cloud in the steady
    // state: a previous compaction's mark in place, a new op to fold.
    let mut x = oplog_plane(recount(&doubles).0, "dev-x", 10 * 1024, 3);
    let third = commit_file(&mut x, &second, "dev-x", "x.txt", 4);
    assert_eq!(w.poll(&second, None).expect("poll").expect("x's file").encode(), third.encode());
    doubles[0].forget();
    assert!(w.try_compact(None, false));
    settle(&mut w);
    let calls = doubles[0].calls();
    let covered = 1; // dev-x's op object
    assert_eq!(
        calls.len() as u64,
        PROTOCOL_COSTS.oplog_compact + covered * PROTOCOL_COSTS.oplog_op_delete
    );
    assert_eq!(
        calls,
        [
            "upload",   // lock file
            "list",     // lock directory
            "download", // stored base, re-read under the lock
            "list",     // marks to supersede, op objects to delete
            "upload",   // base
            "upload",   // base mark
            "delete",   // lock file
            "delete",   // superseded mark
            "delete",   // dev-x's op object, now covered
        ]
    );
    assert_eq!(doubles[0].marks().len(), 1);
    assert!(doubles[0].op_objects().is_empty());
}

/// An append lists the oplog directory and uploads its own op object
/// on each cloud (`PROTOCOL_COSTS.oplog_append` per cloud), and
/// downloads each op object its fold lacks once, from one cloud that
/// lists it (`oplog_op_file` per unread object, over all clouds).
/// Three devices appending in turn read 0, 1 and 2 objects; in the
/// next round each reads the two the others appended since — never
/// its own, never one it read before.
#[test]
fn an_append_costs_its_listing_plus_one_read_per_op_file() {
    let (set, doubles) = counting_clouds(3);
    let devices = ["dev-a", "dev-b", "dev-c"];
    let mut planes: Vec<OplogPlane> = (0..3u64)
        .map(|i| oplog_plane(set.clone(), devices[i as usize], 10 * 1024, i))
        .collect();
    let mut current = SyncFolderImage::new();
    let mut counter = 0;
    for (round, unread) in [[0, 1, 2], [2, 2, 2]].into_iter().enumerate() {
        for ((p, device), unread) in planes.iter_mut().zip(devices).zip(unread) {
            counter += 1;
            doubles.iter().for_each(|cloud| cloud.forget());
            current = commit_file(p, &current, device, &format!("f{counter}.txt"), counter);
            let calls: Vec<&str> = doubles.iter().flat_map(|cloud| cloud.calls()).collect();
            let count = |op: &str| calls.iter().filter(|c| **c == op).count();
            let what = format!("round {round}, {device}: {unread} unread");
            assert_eq!((count("list"), count("download"), count("upload")), (3, unread, 3), "{what}");
            let cost = 3 * PROTOCOL_COSTS.oplog_append + unread as u64 * PROTOCOL_COSTS.oplog_op_file;
            assert_eq!(calls.len() as u64, cost, "{what}");
            for cloud in &doubles {
                assert_eq!(cloud.calls().first(), Some(&"list"), "{what}: listed first");
                assert_eq!(cloud.calls().last(), Some(&"upload"), "{what}: appended last");
            }
        }
    }
}

/// A reader that finds three new op objects on each of five clouds
/// downloads three objects in all, and a pass after it none.
#[test]
fn a_pass_reads_each_new_op_once() {
    let (set, doubles) = counting_clouds(5);
    let mut w = oplog_plane(set, "dev-w", 10 * 1024, 1);
    let mut image = SyncFolderImage::new();
    for i in 1..=3 {
        image = commit_file(&mut w, &image, "dev-w", &format!("f{i}.txt"), i);
    }
    let (reader_set, reads) = recount(&doubles);
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let downloads = || reads.iter().flat_map(|c| c.calls()).filter(|c| *c == "download").count();
    let polled = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(polled.encode(), image.encode());
    assert_eq!(downloads(), 3);
    assert!(r.poll(&polled, None).expect("poll").is_none());
    assert_eq!(downloads(), 3, "nothing new, nothing read");
}

/// An append that reached only a minority is uploaded again, ahead of
/// the next op, to every cloud that lacks it — so no cloud shows the
/// newer seq without the older one — and the compaction that follows
/// folds it instead of skipping past it.
#[test]
fn a_minority_append_is_uploaded_first_by_the_next() {
    let (set, doubles) = counting_clouds(5);
    let mut w = oplog_plane(set, "dev-w", 10 * 1024, 1);
    for cloud in &doubles[1..] {
        *cloud.refuse_upload.lock() = Some("oplog/ops_");
    }
    let refused = try_commit_file(&mut w, &SyncFolderImage::new(), "dev-w", "f1.txt", 1);
    assert!(matches!(refused, Err(PlaneError::QuorumWriteFailed { acked: 1, quorum: 3 })));
    for cloud in &doubles {
        *cloud.refuse_upload.lock() = None;
        cloud.forget();
    }
    let image = commit_file(&mut w, &SyncFolderImage::new(), "dev-w", "f2.txt", 2);
    assert!(image.file("f1.txt").is_some(), "the refused op is still the writer's own");
    let (first, second) = (op_object_path("dev-w", 1), op_object_path("dev-w", 2));
    assert_eq!(doubles[0].uploads(), [second.as_str()], "cloud 0 acked seq 1 already");
    for (i, cloud) in doubles.iter().enumerate().skip(1) {
        assert_eq!(cloud.uploads(), [first.as_str(), second.as_str()], "cloud {i}");
    }
    // Another device folds both into a base; a fresh reader of it
    // still has f1.
    let mut x = oplog_plane(recount(&doubles).0, "dev-x", 1, 2);
    let compacted = commit_file(&mut x, &image, "dev-x", "x.txt", 3);
    settle(&mut x);
    let stored = x.adopted_base.as_ref().expect("x compacted");
    assert_eq!(stored.0.watermark.get("dev-w"), Some(&2));
    assert!(doubles.iter().all(|cloud| cloud.op_objects().is_empty()), "all covered");
    let mut r = oplog_plane(recount(&doubles).0, "dev-r", 10 * 1024, 3);
    let folded = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(folded.encode(), compacted.encode());
    assert!(folded.file("f1.txt").is_some());
}

/// Delegates to `inner`, but while `frozen` holds a listing, answers
/// `list` with it: a reader whose listing was taken before the writes
/// and deletes that land while it downloads.
struct StaleListing {
    inner: Arc<dyn CloudStore>,
    frozen: Mutex<Option<Vec<ObjectInfo>>>,
}

impl CloudStore for StaleListing {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        self.inner.upload(path, data)
    }
    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.inner.download(path)
    }
    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.inner.create_dir(path)
    }
    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        match &*self.frozen.lock() {
            Some(entries) => Ok(entries.clone()),
            None => self.inner.list(path),
        }
    }
    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.inner.delete(path)
    }
}

/// A reader whose listing predates a compaction finds the op objects
/// it names deleted: the pass folds what it had, never less, and the
/// next pass adopts the new base.
#[test]
fn a_read_racing_a_compactions_deletes_never_regresses() {
    let inners: Vec<Arc<dyn CloudStore>> = (0..3)
        .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
        .collect();
    let stale: Vec<Arc<StaleListing>> = inners
        .iter()
        .map(|inner| Arc::new(StaleListing { inner: Arc::clone(inner), frozen: Mutex::new(None) }))
        .collect();
    let set = CloudSet::new(inners.clone());
    let mut w = oplog_plane(set.clone(), "dev-w", 10 * 1024, 1);
    let mut image = SyncFolderImage::new();
    for i in 1..=2 {
        image = commit_file(&mut w, &image, "dev-w", &format!("f{i}.txt"), i);
    }
    let reader_set = CloudSet::new(stale.iter().map(|s| Arc::clone(s) as Arc<dyn CloudStore>).collect());
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let seen = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(seen.encode(), image.encode());
    let image = commit_file(&mut w, &image, "dev-w", "f3.txt", 3);
    for s in &stale {
        *s.frozen.lock() = Some(s.inner.list(OPLOG_DIR).expect("listed"));
    }
    // dev-x folds everything into a base and deletes every op object.
    let mut x = oplog_plane(set, "dev-x", 1, 3);
    let compacted = commit_file(&mut x, &image, "dev-x", "x.txt", 4);
    settle(&mut x);
    assert!(inners.iter().all(|c| c.list(OPLOG_DIR).expect("listed").len() == 2), "base + mark");
    let polled = r.poll(&seen, None).expect("poll");
    assert!(polled.is_none(), "what the listing named is gone: the fold stands where it was");
    for s in &stale {
        *s.frozen.lock() = None;
    }
    let polled = r.poll(&seen, None).expect("poll").expect("the new base");
    assert_eq!(polled.encode(), compacted.encode());
}

/// (c) A cloud rolled back to an older base, mark and op objects neither
/// regresses the fold nor is asked for its base on every pass.
#[test]
fn rolled_back_cloud_is_rejected_once() {
    let (set, doubles) = counting_clouds(3);
    let mut w = oplog_plane(set, "dev-w", 1, 1);
    let old = commit_and_compact(&mut w, SyncFolderImage::new(), "dev-w", 1..=2);
    let snapshot: Vec<(String, Bytes)> = doubles[0]
        .inner
        .list(OPLOG_DIR)
        .expect("listed")
        .into_iter()
        .map(|e| {
            let path = format!("{OPLOG_DIR}/{}", e.name);
            let body = doubles[0].inner.download(&path).expect("readable");
            (path, body)
        })
        .collect();
    let (reader_set, reads) = recount(&doubles);
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let seen = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(seen.encode(), old.encode());
    let new = commit_and_compact(&mut w, old, "dev-w", 3..=4);
    let seen = r.poll(&seen, None).expect("poll").expect("newer files");
    assert_eq!(seen.encode(), new.encode());

    // Cloud 0 goes back in time: everything it lists is what it listed
    // at the snapshot.
    for e in doubles[0].inner.list(OPLOG_DIR).expect("listed") {
        doubles[0].inner.delete(&format!("{OPLOG_DIR}/{}", e.name)).expect("deleted");
    }
    for (path, body) in snapshot {
        doubles[0].inner.upload(&path, body).expect("restored");
    }
    let before = base_downloads(&reads);
    for _ in 0..4 {
        assert!(r.poll(&seen, None).expect("poll").is_none(), "the fold must not regress");
    }
    let after = base_downloads(&reads);
    assert!(after[0] - before[0] <= 1, "the old base is weighed once, not every pass");
    assert_eq!(after[1..], before[1..]);
    let (fresh_set, _) = recount(&doubles);
    let mut fresh = oplog_plane(fresh_set, "dev-f", 10 * 1024, 3);
    let folded = fresh.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(folded.encode(), new.encode(), "a fresh reader beside it converges");
}

/// (d) A stale mark whose delete was refused is cleared by the next
/// compaction.
#[test]
fn leaked_stale_mark_is_cleared_by_the_next_compaction() {
    let (set, doubles) = counting_clouds(3);
    let mut w = oplog_plane(set, "dev-w", 1, 1);
    let image = commit_and_compact(&mut w, SyncFolderImage::new(), "dev-w", 1..=1);
    *doubles[0].refuse_delete.lock() = Some("oplog/base_");
    let image = commit_and_compact(&mut w, image, "dev-w", 2..=2);
    assert_eq!(doubles[0].marks().len(), 2, "test premise: one mark leaked");
    assert_eq!(doubles[1].marks().len(), 1);
    let image = commit_and_compact(&mut w, image, "dev-w", 3..=3);
    for (i, cloud) in doubles.iter().enumerate() {
        assert_eq!(cloud.marks().len(), 1, "cloud {i}");
    }
    let mut r = oplog_plane(recount(&doubles).0, "dev-r", 10 * 1024, 2);
    let folded = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(folded.encode(), image.encode());
}

/// A covered op object left on a cloud that did not ack the base is
/// deleted by the next compaction, like a leaked mark.
#[test]
fn covered_op_object_left_behind_is_deleted_by_the_next_compaction() {
    let (set, doubles) = counting_clouds(3);
    let mut w = oplog_plane(set, "dev-w", 1, 1);
    let image = commit_and_compact(&mut w, SyncFolderImage::new(), "dev-w", 1..=1);
    *doubles[0].refuse_upload.lock() = Some("oplog/base");
    let image = commit_and_compact(&mut w, image, "dev-w", 2..=2);
    assert_eq!(doubles[0].op_objects(), [("dev-w".to_owned(), 2)], "test premise: left behind");
    assert!(doubles[1].op_objects().is_empty());
    *doubles[0].refuse_upload.lock() = None;
    let image = commit_and_compact(&mut w, image, "dev-w", 3..=3);
    for (i, cloud) in doubles.iter().enumerate() {
        assert!(cloud.op_objects().is_empty(), "cloud {i}");
        assert_eq!(cloud.marks().len(), 1, "cloud {i}");
    }
    let mut r = oplog_plane(recount(&doubles).0, "dev-r", 10 * 1024, 2);
    let folded = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(folded.encode(), image.encode());
}

/// A writer whose every commit compacts and a reader with a log of its
/// own, over five clouds: what a row of the base-read table is set up
/// in.
struct Table {
    w: OplogPlane,
    r: OplogPlane,
    doubles: Vec<Arc<Counting>>,
    reads: Vec<Arc<Counting>>,
    image: SyncFolderImage,
    next: u64,
}

impl Table {
    fn new() -> Table {
        let (set, doubles) = counting_clouds(5);
        let (reader_set, reads) = recount(&doubles);
        Table {
            w: oplog_plane(set, "dev-w", 1, 1),
            r: oplog_plane(reader_set, "dev-r", 10 * 1024, 2),
            doubles,
            reads,
            image: SyncFolderImage::new(),
            next: 1,
        }
    }

    /// The writer commits `n` more files, each compacting.
    fn commit(&mut self, n: u64) {
        let files = self.next..=self.next + n - 1;
        self.image = commit_and_compact(&mut self.w, self.image.clone(), "dev-w", files);
        self.next += n;
    }

    /// Every later upload to clouds `clouds` of a path containing `part`
    /// fails.
    fn refuse(&self, clouds: std::ops::Range<usize>, part: &'static str) {
        self.doubles[clouds].iter().for_each(|cloud| *cloud.refuse_upload.lock() = Some(part));
    }

    /// The writer's compactions so far, then a pass of the reader: base
    /// A marked on every cloud and decoded by the reader.
    fn a_decoded(&mut self) {
        self.commit(2);
        self.r.fetch(None);
    }

    /// Bases torn on clouds 0-3 by a later compaction's upload.
    fn tear(&self) {
        for cloud in &self.doubles[..4] {
            cloud.inner.upload(OPLOG_BASE_PATH, Bytes::from(b"torn".to_vec())).expect("torn");
        }
    }
}

/// The layout doc's base-read table, each row set up as real cloud
/// state on five clouds (A the older base, B the newer): the base
/// downloads of the reader's next two passes, bounded by what three
/// separate read paths made (one cloud for a mark a quorum lists, every
/// cloud for a minority mark, every cloud on every pass for a base no
/// mark names). Which task lists an unknown mark first is a race, so a
/// row states a range. Every pass folds the writer's image.
#[test]
fn the_base_read_table_row_by_row() {
    // (row, its setup, downloads per pass, with three read paths)
    type Row = (&'static str, fn(&mut Table), [std::ops::RangeInclusive<usize>; 2], [usize; 2]);
    let rows: [Row; 8] = [
        ("A, {A}, A decoded", Table::a_decoded, [0..=0, 0..=0], [0, 0]),
        (
            "B, mark not yet up, {A}",
            |t| {
                t.a_decoded();
                t.refuse(0..5, "oplog/base_");
                t.commit(1);
            },
            [0..=0, 0..=0],
            [0, 0],
        ),
        (
            "B, {A,B} on every cloud",
            |t| {
                t.a_decoded();
                t.doubles.iter().for_each(|cloud| *cloud.refuse_delete.lock() = Some("oplog/base_"));
                t.commit(1);
            },
            [1..=1, 0..=0],
            [1, 0],
        ),
        (
            "B, {B} on every cloud",
            |t| {
                t.a_decoded();
                t.commit(1);
            },
            [1..=1, 0..=0],
            [1, 0],
        ),
        (
            "torn over B on 4 of 5, {B}, B decoded",
            |t| {
                t.commit(3);
                t.r.fetch(None);
                t.tear();
            },
            [0..=0, 0..=0],
            [0, 0],
        ),
        (
            "torn over B on 4 of 5, {B}, A decoded",
            |t| {
                t.a_decoded();
                t.commit(1);
                t.tear();
            },
            [1..=5, 0..=0],
            [5, 0],
        ),
        (
            "absent base, {}",
            |t| {
                t.refuse(0..5, "oplog/base");
                t.commit(2);
            },
            [0..=0, 0..=0],
            [0, 0],
        ),
        (
            "base with no mark, {}",
            |t| {
                t.refuse(0..5, "oplog/base_");
                t.commit(2);
            },
            [0..=0, 0..=0],
            [5, 5],
        ),
    ];
    for (row, setup, now, paths) in rows {
        let mut t = Table::new();
        setup(&mut t);
        t.reads.iter().for_each(|cloud| cloud.forget());
        for (pass, (now, paths)) in now.iter().zip(paths).enumerate() {
            let fetched = t.r.fetch(None);
            let reads: usize = base_downloads(&t.reads).iter().sum();
            t.reads.iter().for_each(|cloud| cloud.forget());
            assert!(now.contains(&reads) && reads <= paths, "{row}, pass {pass}: {reads} base downloads");
            assert_eq!(fetched.reachable, 5, "{row}, pass {pass}");
            assert_eq!(fetched.folded.image.encode(), t.image.encode(), "{row}, pass {pass}");
        }
    }
}

/// A new mark two of five listings show (the compaction reached only
/// clouds 0 and 1) is downloaded once in all, by the first of the two
/// to list it, not once from each.
#[test]
fn a_mark_two_of_five_clouds_list_is_downloaded_once() {
    let mut t = Table::new();
    t.a_decoded();
    t.refuse(2..5, "oplog/base");
    t.commit(1);
    assert_eq!(t.doubles.iter().map(|cloud| cloud.marks().len()).sum::<usize>(), 5, "premise");
    assert!(t.doubles[..2].iter().all(|cloud| cloud.marks() != t.doubles[2].marks()), "premise");
    t.reads.iter().for_each(|cloud| cloud.forget());
    let fetched = t.r.fetch(None);
    assert_eq!(fetched.folded.image.encode(), t.image.encode());
    assert_eq!(base_downloads(&t.reads).iter().sum::<usize>(), 1);
}

/// `inner` behind a fixed extra latency of `ms` on every call, in
/// `rt`'s time.
fn slowed(rt: &Arc<dyn Runtime>, inner: Arc<dyn CloudStore>, ms: u64) -> Arc<dyn CloudStore> {
    let spike = FaultKind::LatencySpike { extra_ms: ms };
    let plan = FaultPlan::with_events(0, vec![FaultEvent::always(inner.name(), spike)]);
    Arc::new(ChaosCloud::new(inner, Arc::clone(rt), &plan))
}

fn mem_clouds(n: usize) -> Vec<Arc<dyn CloudStore>> {
    (0..n).map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>).collect()
}

/// A torn copy of an op on the cloud whose listing returns first is
/// replaced in the same pass by the next cloud that lists the op.
#[test]
fn a_torn_copy_on_the_first_cloud_to_list_is_replaced_in_the_same_pass() {
    let sim = SimRuntime::new(40);
    let rt = sim.clone().as_runtime();
    let inners = mem_clouds(5);
    let mut w = oplog_plane(CloudSet::new(inners.clone()), "dev-w", 10 * 1024, 1);
    let image = commit_file(&mut w, &SyncFolderImage::new(), "dev-w", "f.txt", 1);
    let path = op_object_path("dev-w", 1);
    inners[0].upload(&path, Bytes::from(b"torn".to_vec())).expect("torn copy");
    // Clouds 1-4 answer 100 ms after cloud 0, so cloud 0 claims the op.
    let (set, reads) = counted(inners.iter().enumerate().map(|(i, inner)| match i {
        0 => Arc::clone(inner),
        _ => slowed(&rt, Arc::clone(inner), 100),
    }));
    let mut r = OplogPlane::new(rt, set, &config("dev-r", 10 * 1024), SimRng::seed_from_u64(2));
    let polled = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("read in one pass");
    assert_eq!(polled.encode(), image.encode());
    let downloads: Vec<usize> = reads.iter().map(|cloud| cloud.downloads_of(&path)).collect();
    assert_eq!(downloads, [1, 1, 0, 0, 0]);
}

/// A cloud that fails a read only it could serve — here the reader's
/// own op object, which a restarted plane reads from every cloud — is
/// unreachable and claims nothing: the other device's op it lists is
/// read from another cloud in the same pass.
#[test]
fn a_cloud_that_fails_its_own_reads_claims_nothing() {
    let sim = SimRuntime::new(43);
    let rt = sim.clone().as_runtime();
    let inners = mem_clouds(5);
    let mut w = oplog_plane(CloudSet::new(inners.clone()), "dev-w", 10 * 1024, 1);
    let image = commit_file(&mut w, &SyncFolderImage::new(), "dev-w", "w.txt", 1);
    let mut x = oplog_plane(CloudSet::new(inners.clone()), "dev-x", 10 * 1024, 2);
    let image = commit_file(&mut x, &image, "dev-x", "x.txt", 2);
    // Cloud 0 answers first and cannot serve dev-w's objects.
    let members = inners.iter().enumerate().map(|(i, inner)| match i {
        0 => {
            let inner = Arc::clone(inner);
            Arc::new(FailingDownloads { inner, only: "ops_dev-w" }) as Arc<dyn CloudStore>
        }
        _ => slowed(&rt, Arc::clone(inner), 100),
    });
    let set = CloudSet::new(members.collect());
    let config = config("dev-w", 10 * 1024);
    let mut restarted = OplogPlane::new(rt, set, &config, SimRng::seed_from_u64(3));
    let fetched = restarted.fetch(None);
    assert_eq!(fetched.reachable, 4);
    assert_eq!(fetched.folded.image.encode(), image.encode());
}

/// An op object every listing cloud answers `NotFound` for — a
/// compaction deleted it after the listings — is as absent as
/// unlisted: no cloud loses its place in the read quorum.
#[test]
fn an_op_gone_from_every_listing_cloud_leaves_the_read_quorum_whole() {
    let inners = mem_clouds(3);
    let stale: Vec<Arc<StaleListing>> = inners
        .iter()
        .map(|inner| Arc::new(StaleListing { inner: Arc::clone(inner), frozen: Mutex::new(None) }))
        .collect();
    let mut w = oplog_plane(CloudSet::new(inners.clone()), "dev-w", 10 * 1024, 1);
    let image = commit_file(&mut w, &SyncFolderImage::new(), "dev-w", "f1.txt", 1);
    commit_file(&mut w, &image, "dev-w", "f2.txt", 2);
    for (s, inner) in stale.iter().zip(&inners) {
        *s.frozen.lock() = Some(s.inner.list(OPLOG_DIR).expect("listed"));
        inner.delete(&op_object_path("dev-w", 2)).expect("deleted");
    }
    let reader_set = CloudSet::new(stale.iter().map(|s| Arc::clone(s) as Arc<dyn CloudStore>).collect());
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let fetched = r.fetch(None);
    assert_eq!(fetched.reachable, 3);
    assert_eq!(fetched.folded.image.encode(), image.encode(), "f1 only");
}

/// Two planes cross λ at the same instant: one compacts, and the
/// other, finding the lock busy, makes one lock upload per cloud and
/// returns with its append standing. Its forced compaction, past the
/// escalation cap, waits out a holder and acquires.
#[test]
fn a_busy_lock_skips_the_compaction_but_not_a_forced_one() {
    let sim = SimRuntime::new(41);
    let rt = sim.clone().as_runtime();
    let (set, doubles) = counted(mem_clouds(5).into_iter().map(|inner| slowed(&rt, inner, 50)));
    let registry = unidrive_obs::Registry::new();
    let plane_of = |device: &str, floor, seed| {
        let mut config = config(device, floor);
        config.data.obs = Obs::with_registry(Arc::clone(&registry));
        OplogPlane::new(Arc::clone(&rt), set.clone(), &config, SimRng::seed_from_u64(seed))
    };
    let mut w = plane_of("dev-w", 10 * 1024, 1);
    commit_file(&mut w, &SyncFolderImage::new(), "dev-w", "f.txt", 1);
    let (mut a, mut b) = (plane_of("dev-a", 1, 2), plane_of("dev-b", 1, 3));
    for p in [&mut a, &mut b] {
        assert!(p.poll(&SyncFolderImage::new(), None).expect("poll").is_some());
    }
    doubles.iter().for_each(|cloud| cloud.forget());
    let ta = unidrive_sim::spawn(&rt, "dev-a", move || {
        let compacted = a.try_compact(None, false);
        (a, compacted)
    });
    let tb = unidrive_sim::spawn(&rt, "dev-b", move || {
        let compacted = b.try_compact(None, false);
        (b, compacted)
    });
    let ((a, a_compacted), (b, b_compacted)) = (ta.join(), tb.join());
    assert!(a_compacted ^ b_compacted, "exactly one compacts");
    let mut loser = if a_compacted { b } else { a };
    let lock_uploads = |cloud: &Counting, device: &str| {
        let uploads = cloud.uploads();
        uploads.iter().filter(|p| p.starts_with(LOCK_DIR) && p.contains(device)).count()
    };
    for (i, cloud) in doubles.iter().enumerate() {
        assert_eq!(lock_uploads(cloud, &loser.device), 1, "cloud {i}");
    }
    let series = registry.series_snapshot();
    assert_eq!(series.merged("meta.oplog.compact_skipped").sum, 1);

    // A holder keeps the lock for 2 s; the forced path waits it out.
    let holder_set = set.clone();
    let holder_rt = Arc::clone(&rt);
    let holder = unidrive_sim::spawn(&rt, "dev-z", move || {
        let (config, rng) = (unidrive_meta::LockConfig::default(), SimRng::seed_from_u64(9));
        let lock = QuorumLock::new(Arc::clone(&holder_rt), holder_set, "dev-z", config, rng);
        let guard = lock.acquire(None).expect("free");
        holder_rt.sleep(std::time::Duration::from_secs(2));
        guard.release();
    });
    sim.sleep(std::time::Duration::from_secs(1));
    let t0 = sim.now();
    assert!(!loser.try_compact(None, false), "busy: skipped");
    assert!(loser.try_compact(None, true), "forced: acquired");
    assert!(sim.now() - t0 > std::time::Duration::from_secs(1), "it waited for the holder");
    holder.join();
}

/// A compaction's clearing keeps `connections_per_cloud` deletes in
/// flight on each cloud: 20 covered objects per cloud, over clouds
/// whose every call takes 100 ms, clear in ⌈20 / c⌉ round trips.
#[test]
fn clearing_runs_a_clouds_deletes_on_every_connection() {
    let sim = SimRuntime::new(42);
    let rt = sim.clone().as_runtime();
    let inners = mem_clouds(3);
    let set = CloudSet::new(inners.iter().map(|inner| slowed(&rt, Arc::clone(inner), 100)).collect());
    let config = config("dev-w", 1);
    let p = OplogPlane::new(Arc::clone(&rt), set, &config, SimRng::seed_from_u64(1));
    let paths: Vec<String> = (1..=20).map(|seq| op_object_path("dev-w", seq)).collect();
    for inner in &inners {
        for path in &paths {
            inner.upload(path, Bytes::from(b"op".to_vec())).expect("planted");
        }
    }
    let t0 = sim.now();
    p.clear(vec![paths; 3]).join();
    let took = sim.now() - t0;
    let trips = 20u32.div_ceil(config.data.connections_per_cloud as u32);
    assert!(trips < 20, "test premise: more than one connection");
    let trip = std::time::Duration::from_millis(100);
    assert!(took >= trip * trips && took < trip * (trips + 1), "{took:?} for {trips} round trips");
    for inner in &inners {
        assert!(inner.list(OPLOG_DIR).expect("listed").is_empty());
    }
}
