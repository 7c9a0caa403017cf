//! Both metadata planes against the one statement of folder semantics
//! (`unidrive_bench::spec`), over random scripts: 2–4 devices commit
//! upserts, deletes and resolutions to a pool of four paths with five
//! contents, on top of a folder that may already hold copies, and each
//! commits from a random view of the others' commits.
//!
//! - **Lock plane:** the test serializes the commits; each device's
//!   ancestor is the shared image at some point at or after its last
//!   sync, and its commit is `merge3` onto the shared image, garbage
//!   collected as the client does. The final image's folder must be the
//!   spec's in that order.
//! - **Oplog plane:** each device folds its earlier view plus a random
//!   share of the ops committed so far, closed under what those had
//!   folded, and appends an op with the product's lamport and base
//!   (the fold's watermark). The fold of every op must be the spec's in
//!   `(lamport, device, seq)` order.
//!
//! Contents share segments pairwise (an edit that keeps part of a
//! file), so a delete's collected segment can be one a concurrent
//! modify still names: in every image and view, every segment a
//! snapshot names must be pooled.

use std::collections::{BTreeSet, HashMap};

use unidrive_bench::spec::{self, Change, Commit, Entry, Folder, Plane, Tally};
use unidrive_crypto::Sha1;
use unidrive_meta::{
    fold, merge3, DeltaLog, MetaOp, OplogBase, SegmentId, Snapshot, SyncFolderImage,
};
use unidrive_sim::SimRng;

const SCRIPTS: u64 = 512;
const PATHS: [&str; 4] = ["a", "b", "c", "d/e"];
const TAGS: u8 = 5;
const FOLDER: &str = "root";

#[derive(Debug, Clone, Copy)]
enum Action {
    Upsert(&'static str, u8),
    Delete(&'static str),
    Resolve(&'static str),
}

/// A random initial folder and one list of actions per commit, in the
/// order devices make them.
#[derive(Debug)]
struct Script {
    initial: Folder<u8>,
    commits: Vec<(usize, Vec<Action>)>,
}

fn script(rng: &mut SimRng) -> Script {
    let mut initial = Folder::new();
    for path in PATHS {
        if rng.below(3) > 0 {
            let content = 1 + rng.below(u64::from(TAGS)) as u8;
            let copies = (rng.below(3) == 0)
                .then(|| ("x".to_owned(), content % TAGS + 1))
                .into_iter()
                .collect();
            initial.insert(path.to_owned(), Entry { content, copies });
        }
    }
    let devices = 2 + rng.below(3) as usize;
    let mut left: Vec<u64> = (0..devices).map(|_| 1 + rng.below(3)).collect();
    let mut commits = Vec::new();
    while left.iter().any(|&n| n > 0) {
        let device = rng.below(devices as u64) as usize;
        if left[device] == 0 {
            continue;
        }
        left[device] -= 1;
        let actions = (0..1 + rng.below(3))
            .map(|_| {
                let path = PATHS[rng.below(PATHS.len() as u64) as usize];
                match rng.below(4) {
                    0 | 1 => Action::Upsert(path, 1 + rng.below(u64::from(TAGS)) as u8),
                    2 => Action::Delete(path),
                    _ => Action::Resolve(path),
                }
            })
            .collect();
        commits.push((device, actions));
    }
    Script { initial, commits }
}

/// Content tag ↔ snapshot. Tag t names segments `half{t/2}` and
/// `tag{t}`, so tags 2 and 3 (and 4 and 5) share a segment.
struct Contents {
    snapshots: Vec<Snapshot>,
    tags: HashMap<Snapshot, u8>,
}

impl Contents {
    fn new() -> Self {
        let seg = |name: String| SegmentId(Sha1::digest(name.as_bytes()));
        let snapshots: Vec<Snapshot> = (0..=TAGS)
            .map(|t| Snapshot {
                segments: vec![seg(format!("half{}", t / 2)), seg(format!("tag{t}"))],
            })
            .collect();
        let tags = snapshots
            .iter()
            .enumerate()
            .map(|(t, s)| (s.clone(), t as u8))
            .collect();
        Contents { snapshots, tags }
    }

    fn snapshot(&self, image: &mut SyncFolderImage, tag: u8) -> Snapshot {
        let snapshot = self.snapshots[tag as usize].clone();
        for id in &snapshot.segments {
            image.ensure_segment(*id, 10);
        }
        snapshot
    }

    fn image(&self, folder: &Folder<u8>) -> SyncFolderImage {
        let mut image = SyncFolderImage::new();
        for (path, entry) in folder {
            let snapshot = self.snapshot(&mut image, entry.content);
            image.upsert_file(path, snapshot);
            for (device, tag) in &entry.copies {
                let copy = self.snapshot(&mut image, *tag);
                image.attach_conflict(path, device, copy);
            }
        }
        image
    }

    fn folder(&self, image: &SyncFolderImage) -> Folder<u8> {
        let tag = |snapshot: &Snapshot| self.tags[snapshot];
        image
            .files()
            .map(|(path, e)| {
                let copies = e
                    .conflicts
                    .iter()
                    .map(|(device, s)| (device.clone(), tag(s)))
                    .collect();
                (
                    path.to_owned(),
                    Entry {
                        content: tag(&e.snapshot),
                        copies,
                    },
                )
            })
            .collect()
    }

    fn act(&self, image: &mut SyncFolderImage, actions: &[Action]) {
        for action in actions {
            match *action {
                Action::Upsert(path, tag) => {
                    let snapshot = self.snapshot(image, tag);
                    image.upsert_file(path, snapshot);
                }
                Action::Delete(path) => image.delete_file(path),
                Action::Resolve(path) => image.resolve_conflict(path),
            }
        }
    }
}

/// The spec's changes that turn the view's folder into the local one.
fn changes(view: &Folder<u8>, local: &Folder<u8>) -> Vec<Change<u8>> {
    let paths: BTreeSet<&String> = view.keys().chain(local.keys()).collect();
    let mut out = Vec::new();
    for path in paths {
        match (view.get(path), local.get(path)) {
            (Some(v), Some(l)) if v.content == l.content => {
                if !v.copies.is_empty() && l.copies.is_empty() {
                    out.push(Change::Resolve(path.clone()));
                }
            }
            (_, Some(l)) => out.push(Change::Upsert(path.clone(), l.content)),
            (Some(_), None) => out.push(Change::Delete(path.clone())),
            (None, None) => {}
        }
    }
    out
}

fn unpooled(image: &SyncFolderImage) -> Option<SegmentId> {
    image
        .referenced()
        .into_iter()
        .find(|id| image.segment(id).is_none())
}

/// One plane's verdict on one script: the spec's tally, or what went
/// wrong with everything needed to replay it.
type Verdict = Result<Tally, String>;

/// Runs one script on one plane, its views drawn from the RNG.
type PlaneRun = fn(&Script, &mut SimRng, &Contents) -> Verdict;

fn mismatch(
    plane: &str,
    script: &Script,
    commits: &[Commit<u8>],
    got: &Folder<u8>,
    want: &Folder<u8>,
) -> String {
    format!(
        "{plane} plane differs from the spec\nscript: {script:#?}\nspec commits, in order: {commits:#?}\nplane: {got:#?}\nspec: {want:#?}"
    )
}

fn lock_plane(script: &Script, rng: &mut SimRng, contents: &Contents) -> Verdict {
    let devices = 1 + script.commits.iter().map(|(d, _)| *d).max().unwrap_or(0);
    let mut images = vec![contents.image(&script.initial)];
    let mut synced = vec![0usize; devices];
    let mut commits = Vec::new();
    for (i, (d, actions)) in script.commits.iter().enumerate() {
        let at = synced[*d] + rng.below((i - synced[*d] + 1) as u64) as usize;
        let ancestor = &images[at];
        let mut local = ancestor.clone();
        contents.act(&mut local, actions);
        let device = format!("dev{d}");
        let mut merged = merge3(ancestor, &local, &images[i], &device).image;
        merged.collect_garbage();
        if let Some(id) = unpooled(&merged) {
            return Err(format!(
                "lock plane: commit {i} names {id} unpooled\nscript: {script:#?}"
            ));
        }
        let view = contents.folder(ancestor);
        let changes = changes(&view, &contents.folder(&local));
        commits.push(Commit {
            device,
            base: (0..at).collect(),
            changes,
        });
        images.push(merged);
        synced[*d] = i + 1;
    }
    let (want, tally) = spec::run(&script.initial, &commits, Plane::Lock);
    let got = contents.folder(images.last().expect("initial image"));
    if got != want {
        return Err(mismatch("lock", script, &commits, &got, &want));
    }
    Ok(tally)
}

fn oplog_plane(script: &Script, rng: &mut SimRng, contents: &Contents) -> Verdict {
    let devices = 1 + script.commits.iter().map(|(d, _)| *d).max().unwrap_or(0);
    let start = OplogBase {
        image: contents.image(&script.initial),
        ..OplogBase::new()
    };
    let mut ops: Vec<MetaOp> = Vec::new();
    let mut bases: Vec<BTreeSet<usize>> = Vec::new();
    let mut changed: Vec<Vec<Change<u8>>> = Vec::new();
    let mut seen = vec![BTreeSet::new(); devices];
    let mut last = vec![(0u64, 0u64); devices];
    for (i, (d, actions)) in script.commits.iter().enumerate() {
        let mut visible: BTreeSet<usize> = seen[*d].clone();
        for (j, base) in bases.iter().enumerate() {
            if !visible.contains(&j) && rng.below(2) == 0 {
                visible.insert(j);
                visible.extend(base.iter().copied());
            }
        }
        let view_ops: Vec<MetaOp> = visible.iter().map(|&j| ops[j].clone()).collect();
        let folded = fold(&start, &view_ops, FOLDER).base;
        if let Some(id) = unpooled(&folded.image) {
            return Err(format!(
                "oplog plane: a view names {id} unpooled\nscript: {script:#?}"
            ));
        }
        let mut local = folded.image.clone();
        contents.act(&mut local, actions);
        local.collect_garbage();
        let (seq, lamport) = (
            last[*d].0 + 1,
            last[*d].1.max(folded.image.version.counter) + 1,
        );
        last[*d] = (seq, lamport);
        changed.push(changes(
            &contents.folder(&folded.image),
            &contents.folder(&local),
        ));
        ops.push(MetaOp {
            device: format!("dev{d}"),
            seq,
            lamport,
            base: folded.watermark,
            stamp_ns: lamport,
            records: DeltaLog::records_for(&folded.image, &local),
        });
        seen[*d] = visible.clone();
        seen[*d].insert(i);
        bases.push(visible);
    }
    let image = fold(&start, &ops, FOLDER).base.image;
    if let Some(id) = unpooled(&image) {
        return Err(format!(
            "oplog plane: the fold names {id} unpooled\nscript: {script:#?}"
        ));
    }
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| (ops[i].lamport, ops[i].device.clone(), ops[i].seq));
    let mut position = vec![0; ops.len()];
    for (at, &i) in order.iter().enumerate() {
        position[i] = at;
    }
    let commits: Vec<Commit<u8>> = order
        .iter()
        .map(|&i| Commit {
            device: ops[i].device.clone(),
            base: bases[i].iter().map(|&j| position[j]).collect(),
            changes: changed[i].clone(),
        })
        .collect();
    let (want, tally) = spec::run(&script.initial, &commits, Plane::Oplog);
    let got = contents.folder(&image);
    if got != want {
        return Err(mismatch("oplog", script, &commits, &got, &want));
    }
    Ok(tally)
}

#[test]
fn both_planes_meet_the_folder_spec() {
    let contents = Contents::new();
    let planes: [(&str, PlaneRun); 2] = [("lock", lock_plane), ("oplog", oplog_plane)];
    let mut failures = Vec::new();
    for (name, plane) in planes {
        let (mut commits, mut tally, mut first_failure) = (0, Tally::default(), None);
        for n in 0..SCRIPTS {
            let script = script(&mut SimRng::derive(n, "folder_spec/script"));
            commits += script.commits.len();
            match plane(&script, &mut SimRng::derive(n, name), &contents) {
                Ok(t) => {
                    tally.contested += t.contested;
                    tally.restores += t.restores;
                    tally.lost += t.lost;
                }
                Err(e) => {
                    first_failure.get_or_insert(format!("script {n}: {e}"));
                }
            }
        }
        println!(
            "folder_spec {name}: {SCRIPTS} scripts, {commits} commits, {} contested paths, {} restore cases, {} versions lost",
            tally.contested, tally.restores, tally.lost
        );
        failures.extend(first_failure);
        if tally.lost > 0 {
            failures.push(format!("{name}: the spec lost {} versions", tally.lost));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

// Two races stated by hand: what each side keeps, and the one case the
// planes' contested tests tell apart.

fn commit(device: &str, base: &[usize], changes: Vec<Change<u8>>) -> Commit<u8> {
    Commit {
        device: device.into(),
        base: base.iter().copied().collect(),
        changes,
    }
}

fn up(path: &str, tag: u8) -> Change<u8> {
    Change::Upsert(path.into(), tag)
}

fn entry(content: u8, copies: &[(&str, u8)]) -> Entry<u8> {
    Entry {
        content,
        copies: copies.iter().map(|&(d, c)| (d.to_owned(), c)).collect(),
    }
}

#[test]
fn a_race_keeps_every_version_and_modify_beats_delete() {
    // Three writers from the same (empty) base.
    let race = [
        commit("a", &[], vec![up("f", 1), up("g", 1)]),
        commit("b", &[], vec![up("f", 2), Change::Delete("g".into())]),
        commit("c", &[], vec![up("f", 3)]),
    ];
    let (folder, tally) = spec::run(&Folder::new(), &race, Plane::Lock);
    assert_eq!(
        folder["f"],
        entry(1, &[("b", 2), ("c", 3)]),
        "every version stays"
    );
    assert_eq!(folder["g"].content, 1, "the delete lost to the modify");
    assert_eq!(
        tally,
        Tally {
            contested: 3,
            restores: 0,
            lost: 0
        }
    );
    // d saw a and b, not c: its resolve removes b's copy only, and its
    // edit keeps both copies, since c's is one its view never showed.
    let then = |change: Change<u8>, base: &[usize]| {
        let commits: Vec<_> = race
            .iter()
            .cloned()
            .chain([commit("d", base, vec![change])])
            .collect();
        spec::run(&Folder::new(), &commits, Plane::Lock)
    };
    let (folder, _) = then(Change::Resolve("f".into()), &[0, 1]);
    assert_eq!(folder["f"], entry(1, &[("c", 3)]));
    let (folder, tally) = then(up("f", 4), &[0, 1]);
    assert_eq!(folder["f"], entry(1, &[("b", 2), ("c", 3), ("d", 4)]));
    assert_eq!(tally.lost, 0);
    // A writer that saw all three replaces them.
    let (folder, tally) = then(up("f", 4), &[0, 1, 2]);
    assert_eq!(folder["f"], entry(4, &[]));
    assert_eq!(tally.lost, 0);
}

#[test]
fn a_change_made_and_undone_unseen_is_contested_only_on_the_oplog_plane() {
    let initial = Folder::from([("f".to_owned(), entry(1, &[]))]);
    let commits = [
        commit("a", &[], vec![up("f", 2)]),
        commit("a", &[0], vec![up("f", 1)]),
        commit("b", &[], vec![up("f", 3)]),
    ];
    let (lock, tally) = spec::run(&initial, &commits, Plane::Lock);
    assert_eq!((lock["f"].content, tally.restores), (3, 0));
    let (oplog, tally) = spec::run(&initial, &commits, Plane::Oplog);
    assert_eq!(oplog["f"], entry(1, &[("b", 3)]));
    assert_eq!(tally.restores, 1);
}
