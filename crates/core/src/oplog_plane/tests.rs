//! Tests of [`OplogPlane`](super::OplogPlane); a file of their own
//! only to keep `oplog_plane.rs` readable in one sitting.

use super::*;
use crate::lock_plane::tests::{clouds, commit_file, config, plane};
use unidrive_cloud::{CloudStore, MemCloud};
use unidrive_sim::RealRuntime;

/// Delegates to `inner` but fails `download` of any path containing
/// `only` with a non-NotFound error — a cloud that lists fine yet
/// cannot serve (some of) what it advertised.
struct FailingDownloads {
    inner: Arc<dyn CloudStore>,
    only: &'static str,
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
    let mut members: Vec<Arc<dyn CloudStore>> = Vec::new();
    for i in 0..5 {
        let inner: Arc<dyn CloudStore> = Arc::new(MemCloud::new(format!("c{i}")));
        if i < 3 {
            let chaos = unidrive_cloud::ChaosCloud::new(
                inner,
                Arc::clone(&rt),
                &unidrive_cloud::FaultPlan::new(i as u64),
            );
            chaos.set_flat_probability(1.0);
            members.push(Arc::new(chaos));
        } else {
            members.push(inner);
        }
    }
    let set = CloudSet::new(members);
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
/// that advanced while it waited: dev-a's second compaction trims
/// its op file, so a stale base from dev-b would lose those ops in
/// both the base and the log.
#[test]
fn stale_compactor_cannot_regress_the_stored_base() {
    let set = clouds(3);
    // dev-a commits one op; the large floor defers compaction.
    let mut a = oplog_plane(set.clone(), "dev-a", 10 * 1024, 1);
    let img1 = commit_file(&mut a, &SyncFolderImage::new(), "dev-a", "a1.txt", 1);
    // dev-b folds the pre-compaction world and goes stale.
    let mut b = oplog_plane(set.clone(), "dev-b", 10 * 1024, 2);
    assert!(b.poll(&SyncFolderImage::new(), None).expect("poll").is_some());
    // dev-a (restarted) compacts: base watermark {dev-a: 2}, its op
    // file trimmed empty — a2's op now lives only in the base.
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
/// `(device, seq)` id is silently deduped away — and its first
/// full-replace upload must carry the surviving frames instead of
/// clobbering them.
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
    assert_eq!(w2.my_ops.len(), 3, "surviving frames recovered");
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
