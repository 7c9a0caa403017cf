//! Tests of [`OplogPlane`](super::OplogPlane); a file of their own
//! only to keep `oplog_plane.rs` readable in one sitting. The
//! `FailingDownloads` and `Counting` doubles are shared with the lock
//! plane's store tests.

use super::*;
use crate::lock_plane::tests::{clouds, commit_file, config, plane, try_commit_file};
use unidrive_cloud::{CloudStore, MemCloud, ObjectInfo};
use unidrive_meta::{MetaMode, PROTOCOL_COSTS};
use unidrive_sim::RealRuntime;
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

/// The per-cloud states a compaction from base A to base B passes
/// through, as a reader that has decoded A (and later B) meets them.
#[test]
fn base_wanted_over_the_states_of_a_compaction() {
    let (a, b) = (Sha1::digest(b"base A"), Sha1::digest(b"base B"));
    let knows_a = BTreeSet::from([a]);
    let knows_both = BTreeSet::from([a, b]);
    let knows_none = BTreeSet::new();
    // (base A, {A}): settled, already decoded.
    assert!(!base_wanted(true, &[a], &knows_a));
    assert!(base_wanted(true, &[a], &knows_none), "a fresh reader reads it");
    // (base B, {A}): B's upload landed, its mark has not — this cloud
    // has not acked B; an acked cloud shows B's mark.
    assert!(!base_wanted(true, &[a], &knows_a));
    // (base B, {A, B}): acked, stale mark not yet cleared.
    assert!(base_wanted(true, &[a, b], &knows_a));
    assert!(!base_wanted(true, &[a, b], &knows_both));
    // (base B, {B}): settled again.
    assert!(base_wanted(true, &[b], &knows_a));
    assert!(!base_wanted(true, &[b], &knows_both));
    // (base B, {}): the mark upload failed, or the base predates marks.
    assert!(base_wanted(true, &[], &knows_both));
    assert!(base_wanted(true, &[], &knows_none));
    // (torn base, {B}): a later compaction's upload tore over B; with B
    // decoded there is nothing to learn, without it the download is
    // paid and fails to decode.
    assert!(!base_wanted(true, &[b], &knows_both));
    assert!(base_wanted(true, &[b], &knows_a));
    // (no base, {}): nothing to download — nor with a mark left behind.
    assert!(!base_wanted(false, &[], &knows_none));
    assert!(!base_wanted(false, &[a], &knows_none));
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
    assert!(b.try_compact(None));
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

/// A cloud whose listing succeeds but whose downloads fail must not
/// count toward the read quorum: the fold would silently miss acked
/// ops.
#[test]
fn listed_but_undownloadable_cloud_is_unreachable() {
    let inners: Vec<Arc<dyn CloudStore>> = (0..5)
        .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
        .collect();
    let mut w = plane(MetaMode::Oplog, CloudSet::new(inners.clone()), "dev-a", 1);
    commit_file(w.as_mut(), &SyncFolderImage::new(), "dev-a", "f.txt", 1);
    let wrapped: Vec<Arc<dyn CloudStore>> = inners
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if i < 3 {
                Arc::new(FailingDownloads {
                    inner: Arc::clone(c),
                    only: "",
                }) as Arc<dyn CloudStore>
            } else {
                Arc::clone(c)
            }
        })
        .collect();
    let mut r = plane(MetaMode::Oplog, CloudSet::new(wrapped), "dev-b", 2);
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
    let snap = registry.snapshot();
    assert!(snap.counter("meta.oplog.compact_aborted") >= 3, "initial try + forced retries");
    assert_eq!(snap.counter("meta.oplog.compact_forced"), 1);
    assert_eq!(snap.counter("meta.oplog.compact_overdue"), 1);
    assert_eq!(snap.counter("meta.oplog.compactions"), 0);
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
    assert_eq!(
        base_downloads(&reads),
        [1, 0, 0, 0, 0],
        "a fresh reader reads the base once, from the first cloud listing its mark"
    );
    assert!(r.poll(&polled, None).expect("poll").is_none());
    assert!(r.poll(&polled, None).expect("poll").is_none());
    assert_eq!(base_downloads(&reads), [1, 0, 0, 0, 0], "nothing new, no base read again");
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
    let new: Vec<usize> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    assert_eq!(new, [1, 0, 0, 0, 0], "the new base, once");

    // What one uncontended compaction asks of one cloud in the steady
    // state: a previous compaction's mark in place, a new op to fold.
    let mut x = oplog_plane(recount(&doubles).0, "dev-x", 10 * 1024, 3);
    let third = commit_file(&mut x, &second, "dev-x", "x.txt", 4);
    assert_eq!(w.poll(&second, None).expect("poll").expect("x's file").encode(), third.encode());
    doubles[0].forget();
    assert!(w.try_compact(None));
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

/// An append lists the oplog directory, downloads each op object it
/// has not read from that cloud and uploads its own:
/// `PROTOCOL_COSTS.oplog_append` plus `oplog_op_file` per unread
/// object, on each cloud. Three devices appending in turn read 0, 1
/// and 2 objects; in the next round each reads the two the others
/// appended since — never its own, never one it read before.
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
            doubles[0].forget();
            current = commit_file(p, &current, device, &format!("f{counter}.txt"), counter);
            let calls = doubles[0].calls();
            let mut expected = vec!["list"];
            expected.extend(std::iter::repeat_n("download", unread));
            expected.push("upload");
            assert_eq!(calls, expected, "round {round}, {device}: {unread} unread");
            let cost = PROTOCOL_COSTS.oplog_append + unread as u64 * PROTOCOL_COSTS.oplog_op_file;
            assert_eq!(calls.len() as u64, cost);
        }
    }
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

/// (e) A base with no mark — every deployment and fixture older than
/// the marks — folds as before: it is simply downloaded.
#[test]
fn unmarked_base_still_folds() {
    let (set, doubles) = counting_clouds(3);
    let mut w = oplog_plane(set, "dev-w", 1, 1);
    let image = commit_and_compact(&mut w, SyncFolderImage::new(), "dev-w", 1..=3);
    for cloud in &doubles {
        for id in cloud.marks() {
            cloud.inner.delete(&base_mark_path(&id)).expect("mark deleted");
        }
    }
    let (reader_set, reads) = recount(&doubles);
    let mut r = oplog_plane(reader_set, "dev-r", 10 * 1024, 2);
    let folded = r.poll(&SyncFolderImage::new(), None).expect("poll").expect("visible");
    assert_eq!(folded.encode(), image.encode());
    assert!(r.poll(&folded, None).expect("poll").is_none());
    assert_eq!(base_downloads(&reads), [2; 3], "no mark vouches for it: read on every pass");
}
