//! The sequential specification of folder semantics (paper §5.2): what
//! a sync folder holds after a set of commits, stated once and with no
//! reference to images, segments, locks or logs. `chaos_soak` checks
//! every device's folder against it, and `tests/folder_spec.rs` checks
//! both metadata planes against it — `merge3` under the lock in the
//! order the lock serialized, the oplog `fold` in `(lamport, device,
//! seq)` order — over random scripts.
//!
//! The state maps a path to its content and at most one conflict copy,
//! tagged with the device whose version it is. Content is opaque: a tag
//! in the property test, the file's bytes in the soak. A commit is a
//! device, its *base* (the commits its view had applied, its own
//! earlier ones included) and a list of changes against that view.
//! Commits apply in one linear order, in which a commit's base precedes
//! it. A path is *contested* when its content now differs from its
//! content in the commit's base view (the base's commits applied alone,
//! in the same order), and:
//! - an upsert applies where the path is uncontested, replacing content
//!   and copy; where it is contested, an upsert of other content becomes
//!   the copy (replacing any), one of the same content changes nothing,
//!   and one of a path that is gone applies (modify beats delete);
//! - a delete applies where the path is uncontested and is dropped where
//!   it is contested (modify beats delete here too: the segments the
//!   modify names stay pooled, whatever the delete's commit collected);
//! - a resolve clears the copy the base view showed, if it is still
//!   the copy.
//!
//! One divergence is stated, for the oplog plane ([`Plane::Oplog`]): a
//! path there also counts as contested when the commit that last set
//! its content is not in the base. That differs from the content test
//! only where the content agrees with the base view anyway — another
//! device changed the path and changed it back, or set the content the
//! base view got from elsewhere — and even there no version is lost: an
//! upsert becomes the copy, and only a delete is dropped.

use std::collections::{BTreeMap, BTreeSet};

/// One change of a commit, against the commit's base view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change<C> {
    /// The path's content becomes this one.
    Upsert(String, C),
    /// The path is removed, its copy with it.
    Delete(String),
    /// The user kept the current version: the copy the base view shows
    /// on this path is cleared.
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
    /// The conflict copy: the device whose version lost, and that
    /// version.
    pub copy: Option<(String, C)>,
}

/// A folder: path → entry, in path order.
pub type Folder<C> = BTreeMap<String, Entry<C>>;

/// Which contested test applies (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The content test alone.
    Lock,
    /// The content test, or the path's last setter outside the base.
    Oplog,
}

/// What [`run`] counted over the commits it applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Changes whose path was contested.
    pub contested: usize,
    /// Of those, changes contested only by the oplog plane's rule.
    pub restores: usize,
}

/// Per path: the entry and the position of the commit that last set
/// its content (`None` for what `initial` held).
type State<C> = BTreeMap<String, (Entry<C>, Option<usize>)>;

/// Applies `commits`, in the order given, to `initial` under `plane`'s
/// contested test, and returns the folder they leave.
///
/// # Panics
///
/// If a commit's base names a commit that does not precede it.
pub fn run<C: Clone + Eq>(
    initial: &Folder<C>,
    commits: &[Commit<C>],
    plane: Plane,
) -> (Folder<C>, Tally) {
    let start: State<C> = initial
        .iter()
        .map(|(p, e)| (p.clone(), (e.clone(), None)))
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

/// Applies commit `i`, whose base view is `view`, to `state`.
fn apply<C: Clone + Eq>(
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
        if let Change::Resolve(_) = change {
            let seen = then.and_then(|e| e.copy.as_ref());
            if let Some((entry, _)) = state.get_mut(path) {
                if seen.is_some() && entry.copy.as_ref() == seen {
                    entry.copy = None;
                }
            }
            continue;
        }
        let now = state.get(path);
        let differs = now.map(|(e, _)| &e.content) != then.map(|e| &e.content);
        let unseen_setter =
            now.is_some_and(|(_, by)| by.is_some_and(|j| !commit.base.contains(&j)));
        let restore = plane == Plane::Oplog && !differs && unseen_setter;
        let contested = differs || restore;
        tally.contested += usize::from(contested);
        tally.restores += usize::from(restore);
        match change {
            Change::Upsert(_, content) => match state.get_mut(path) {
                Some((entry, _)) if contested && entry.content == *content => {}
                Some((entry, _)) if contested => {
                    entry.copy = Some((commit.device.clone(), content.clone()));
                }
                _ => {
                    let entry = Entry {
                        content: content.clone(),
                        copy: None,
                    };
                    state.insert(path.to_owned(), (entry, Some(i)));
                }
            },
            Change::Delete(_) if !contested => {
                state.remove(path);
            }
            _ => {}
        }
    }
}
