//! The sequential specification of folder semantics (paper §5.2): what
//! a sync folder holds after a set of commits, stated once and with no
//! reference to images, segments, locks or logs. `chaos_soak` checks
//! every device's folder against it, and `tests/folder_spec.rs` checks
//! both metadata planes against it — `merge3` under the lock in the
//! order the lock serialized, the oplog `fold` in `(lamport, device,
//! seq)` order — over random scripts.
//!
//! The state maps a path to its content and a set of conflict copies,
//! each keyed by the device whose version lost and that version.
//! Content is opaque: a tag in the property test, the file's bytes in
//! the soak. A commit is a device, its *base* (the commits its view had
//! applied, its own earlier ones included) and a list of changes
//! against that view. Commits apply in one linear order, in which a
//! commit's base precedes it. The base view is the base's commits
//! applied alone, in the same order. A path is *contested* when its
//! content now differs from its content in the base view, or when it
//! holds a copy the base view did not show, and:
//! - an upsert applies where the path is uncontested, replacing content
//!   and copies; where it is contested, an upsert of content the path
//!   already holds (as its content or as a copy) changes nothing, one
//!   of other content is added as a copy, and one of a path that is
//!   gone applies (modify beats delete);
//! - a delete applies where the path is uncontested and is dropped where
//!   it is contested (modify beats delete here too: the segments the
//!   modify names stay pooled, whatever the delete's commit collected);
//! - a resolve removes the copies the base view showed, and no other.
//!
//! So a commit removes only versions its base view showed, and no acked
//! version leaves the folder unseen: [`Tally::lost`] counts the versions
//! (contents of a path) a commit removed that its base view did not
//! hold on that path, and reads 0.
//!
//! One divergence is stated, for the oplog plane ([`Plane::Oplog`]): a
//! path there also counts as contested when one of its *writers* is not
//! in the base — the commit that last set its content, or one that
//! added a copy since (resolved or not). That differs from the test
//! above only where the content and copies agree with the base view
//! anyway — another device changed the path and changed it back, or set
//! what the base view got from elsewhere — and even there no version is
//! lost: an upsert becomes a copy, and only a delete is dropped.

use std::collections::{BTreeMap, BTreeSet};

/// One change of a commit, against the commit's base view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change<C> {
    /// The path's content becomes this one.
    Upsert(String, C),
    /// The path is removed, its copies with it.
    Delete(String),
    /// The user kept the current version: the copies the base view
    /// shows on this path are removed.
    Resolve(String),
}

impl<C> Change<C> {
    /// The path the change is about.
    pub fn path(&self) -> &str {
        match self {
            Change::Upsert(path, _) | Change::Delete(path) | Change::Resolve(path) => path,
        }
    }
}

/// One acknowledged commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit<C> {
    /// The committing device (it tags the copies the commit makes).
    pub device: String,
    /// Positions, in the order given to [`run`], of the commits the
    /// committer's view had applied; every one precedes this commit,
    /// and the device's own earlier commits are among them.
    pub base: BTreeSet<usize>,
    /// The changes, in order.
    pub changes: Vec<Change<C>>,
}

/// What one path holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<C> {
    /// The current version.
    pub content: C,
    /// The conflict copies: per copy, the device whose version lost,
    /// and that version.
    pub copies: BTreeSet<(String, C)>,
}

/// A folder: path → entry, in path order.
pub type Folder<C> = BTreeMap<String, Entry<C>>;

/// Which contested test applies (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The content and copy test alone.
    Lock,
    /// That test, or one of the path's writers outside the base.
    Oplog,
}

/// What [`run`] counted over the commits it applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Changes whose path was contested.
    pub contested: usize,
    /// Of those, changes contested only by the oplog plane's rule.
    pub restores: usize,
    /// Versions a commit removed from a path whose base view did not
    /// hold them there.
    pub lost: usize,
}

/// Per path: the entry and the positions of the commits whose version
/// it holds (empty for what `initial` held).
type State<C> = BTreeMap<String, (Entry<C>, BTreeSet<usize>)>;

/// Applies `commits`, in the order given, to `initial` under `plane`'s
/// contested test, and returns the folder they leave.
///
/// # Panics
///
/// If a commit's base names a commit that does not precede it.
pub fn run<C: Clone + Ord>(
    initial: &Folder<C>,
    commits: &[Commit<C>],
    plane: Plane,
) -> (Folder<C>, Tally) {
    let start: State<C> = initial
        .iter()
        .map(|(p, e)| (p.clone(), (e.clone(), BTreeSet::new())))
        .collect();
    let mut views: Vec<State<C>> = Vec::with_capacity(commits.len());
    let mut state = start.clone();
    let mut tally = Tally::default();
    for (i, commit) in commits.iter().enumerate() {
        assert!(
            commit.base.iter().all(|&j| j < i),
            "commit {i}'s base does not precede it"
        );
        let (mut view, mut uncounted) = (start.clone(), Tally::default());
        for &j in &commit.base {
            apply(&mut view, j, &commits[j], &views[j], plane, &mut uncounted);
        }
        apply(&mut state, i, commit, &view, plane, &mut tally);
        views.push(view);
    }
    let folder = state.into_iter().map(|(path, (entry, _))| (path, entry));
    (folder.collect(), tally)
}

/// The versions `entry` holds: its content and its copies' contents.
fn versions<C: Clone + Ord>(entry: Option<&Entry<C>>) -> BTreeSet<C> {
    let held = entry.into_iter().flat_map(|e| {
        let copies = e.copies.iter().map(|(_, c)| c);
        std::iter::once(&e.content).chain(copies)
    });
    held.cloned().collect()
}

/// Applies commit `i`, whose base view is `view`, to `state`.
fn apply<C: Clone + Ord>(
    state: &mut State<C>,
    i: usize,
    commit: &Commit<C>,
    view: &State<C>,
    plane: Plane,
    tally: &mut Tally,
) {
    for change in &commit.changes {
        let path = change.path();
        let then = view.get(path).map(|(entry, _)| entry);
        let before = versions(state.get(path).map(|(entry, _)| entry));
        if let Change::Resolve(_) = change {
            if let (Some(seen), Some((entry, _))) = (then, state.get_mut(path)) {
                entry.copies.retain(|copy| !seen.copies.contains(copy));
            }
        } else {
            let now = state.get(path);
            let differs = now.map(|(e, _)| &e.content) != then.map(|e| &e.content);
            let unseen_copy = now.is_some_and(|(e, _)| {
                e.copies
                    .iter()
                    .any(|copy| !then.is_some_and(|t| t.copies.contains(copy)))
            });
            let unseen_writer =
                now.is_some_and(|(_, by)| by.iter().any(|j| !commit.base.contains(j)));
            let restore = plane == Plane::Oplog && !differs && !unseen_copy && unseen_writer;
            let contested = differs || unseen_copy || restore;
            tally.contested += usize::from(contested);
            tally.restores += usize::from(restore);
            match change {
                Change::Upsert(_, content) => match state.get_mut(path) {
                    Some(_) if contested && before.contains(content) => {}
                    Some((entry, by)) if contested => {
                        entry
                            .copies
                            .insert((commit.device.clone(), content.clone()));
                        by.insert(i);
                    }
                    _ => {
                        let entry = Entry {
                            content: content.clone(),
                            copies: BTreeSet::new(),
                        };
                        state.insert(path.to_owned(), (entry, BTreeSet::from([i])));
                    }
                },
                Change::Delete(_) if !contested => {
                    state.remove(path);
                }
                _ => {}
            }
        }
        let after = versions(state.get(path).map(|(entry, _)| entry));
        let shown = versions(then);
        tally.lost += before
            .difference(&after)
            .filter(|v| !shown.contains(v))
            .count();
    }
}
