//! The [`CloudStore`] trait: the minimum RESTful surface UniDrive assumes.
//!
//! The paper (§4, "Challenges") restricts itself to the few public,
//! stateless data-access Web APIs every consumer cloud offers third-party
//! apps: *file upload, download; directory create, list; and delete*.
//! Everything UniDrive does — locking, version signaling, metadata
//! replication, block distribution — is expressed through these five
//! operations.
//!
//! Consistency contract: implementations must provide **read-after-write
//! consistency** (paper §5.2): once an upload returns success, subsequent
//! `list`/`download` from any client observe the object. Sequential
//! consistency is *not* required.

use unidrive_util::bytes::Bytes;
use std::sync::Arc;

use crate::CloudError;

/// Metadata of one object returned by [`CloudStore::list`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectInfo {
    /// Base name within the listed directory (no separators).
    pub name: String,
    /// Object size in bytes; zero for directories.
    pub size: u64,
    /// Whether the entry is a directory.
    pub is_dir: bool,
}

/// A consumer cloud storage service, reduced to the five public Web API
/// operations available to third-party apps.
///
/// Paths are `/`-separated, relative (no leading `/`), with non-empty
/// segments; the empty string denotes the root directory. Implementations
/// auto-create missing parent directories on upload (matching real CCS
/// API behaviour) but [`create_dir`](CloudStore::create_dir) is available
/// for explicit creation.
///
/// # Examples
///
/// ```
/// use unidrive_cloud::{CloudStore, MemCloud};
/// use unidrive_util::bytes::Bytes;
///
/// # fn main() -> Result<(), unidrive_cloud::CloudError> {
/// let cloud = MemCloud::new("dropbox");
/// cloud.upload("docs/a.txt", Bytes::from_static(b"hello"))?;
/// assert_eq!(cloud.download("docs/a.txt")?, Bytes::from_static(b"hello"));
/// let listing = cloud.list("docs")?;
/// assert_eq!(listing.len(), 1);
/// assert_eq!(listing[0].name, "a.txt");
/// # Ok(())
/// # }
/// ```
pub trait CloudStore: Send + Sync {
    /// Provider name (e.g. `"dropbox"`); used in diagnostics and lock
    /// bookkeeping.
    fn name(&self) -> &str;

    /// Stores `data` at `path`, replacing any existing object.
    ///
    /// # Errors
    ///
    /// [`CloudError::Transient`] on simulated/real network failure,
    /// [`CloudError::Unavailable`] during outages,
    /// [`CloudError::QuotaExceeded`] when the account is full,
    /// [`CloudError::InvalidPath`] for malformed paths.
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError>;

    /// Retrieves the object at `path`.
    ///
    /// # Errors
    ///
    /// [`CloudError::NotFound`] if absent, plus the transport errors
    /// listed under [`upload`](CloudStore::upload).
    fn download(&self, path: &str) -> Result<Bytes, CloudError>;

    /// Creates directory `path` (and missing parents). Succeeds if it
    /// already exists.
    ///
    /// # Errors
    ///
    /// Transport errors as for [`upload`](CloudStore::upload).
    fn create_dir(&self, path: &str) -> Result<(), CloudError>;

    /// Lists the immediate children of directory `path`.
    ///
    /// # Errors
    ///
    /// [`CloudError::NotFound`] if the directory does not exist, plus
    /// transport errors.
    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError>;

    /// Deletes the object or directory (recursively) at `path`.
    ///
    /// # Errors
    ///
    /// [`CloudError::NotFound`] if absent, plus transport errors.
    fn delete(&self, path: &str) -> Result<(), CloudError>;

    /// Appends `data` to the object at `path`, creating it when absent.
    ///
    /// Consumer cloud APIs expose no atomic append, so this is
    /// read-modify-write over the five primitive ops: `download` the
    /// current contents (absent ⇒ empty) and `upload` the extended
    /// object, through the implementation's own `download`/`upload`.
    /// No store overrides it and no product code calls it: a torn
    /// upload persists a *prefix* of the composed object, so a
    /// download-based append can embed a previously torn tail
    /// mid-file, and the oplog plane writes each op as an object of its
    /// own via [`upload`](CloudStore::upload) instead. The method remains only because `benchmark/src/meter.rs`
    /// implements it and `benchmark/` is frozen for ordinary PRs; the
    /// next `[benchmark]` PR can drop both.
    ///
    /// # Errors
    ///
    /// The transport errors of [`download`](CloudStore::download) and
    /// [`upload`](CloudStore::upload).
    fn append(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        let existing = match self.download(path) {
            Ok(b) => b,
            Err(CloudError::NotFound { .. }) => Bytes::new(),
            Err(e) => return Err(e),
        };
        let mut out = Vec::with_capacity(existing.len() + data.len());
        out.extend_from_slice(&existing);
        out.extend_from_slice(&data);
        self.upload(path, Bytes::from(out))
    }

    /// Convenience: whether an object or directory exists, implemented
    /// via [`list`](CloudStore::list) on the parent (the only way with
    /// the five-op API).
    fn exists(&self, path: &str) -> Result<bool, CloudError> {
        let (parent, base) = split_path(path);
        match self.list(parent) {
            Ok(entries) => Ok(entries.iter().any(|e| e.name == base)),
            Err(CloudError::NotFound { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Where this store's dialect differs from its neighbours', so
    /// callers can *query* behavior instead of probing for it. The
    /// default is the most
    /// conservative honest answer for an unknown consumer cloud;
    /// wrappers must forward their inner store's capabilities, masking
    /// anything they themselves break (e.g. a fault injector that
    /// schedules delayed visibility masks `read_after_write`).
    fn caps(&self) -> CloudCaps {
        CloudCaps::default()
    }
}

/// Capability descriptor returned by [`CloudStore::caps`].
///
/// The two questions a caller has to ask of a store it did not build:
/// can a just-written object be read back immediately, and do delete
/// and list of a missing path answer `NotFound`?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloudCaps {
    /// Once `upload` returns success, `download`/`list` from any
    /// client observe the new object (paper §5.2's contract). Fault
    /// wrappers that delay visibility must report `false`.
    pub read_after_write: bool,
    /// Deleting a missing object and listing a never-created directory
    /// report [`NotFound`](crate::CloudError::NotFound). Stores with
    /// idempotent S3-style semantics (delete of an absent key succeeds,
    /// an absent prefix lists as empty) report `false`, and callers
    /// must not use those two ops as existence probes. Download of a
    /// missing object is `NotFound` under either dialect.
    pub strict_not_found: bool,
}

impl Default for CloudCaps {
    /// The conservative profile of an unknown consumer cloud: no
    /// strict not-found edges (the S3-style idempotent dialect is the
    /// weaker promise), but read-after-write (which [`CloudStore`]
    /// *requires* of every implementation).
    fn default() -> CloudCaps {
        CloudCaps {
            read_after_write: true,
            strict_not_found: false,
        }
    }
}

/// Splits a path into `(parent, basename)`.
///
/// ```
/// use unidrive_cloud::split_path;
/// assert_eq!(split_path("a/b/c"), ("a/b", "c"));
/// assert_eq!(split_path("top"), ("", "top"));
/// ```
pub fn split_path(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    }
}

/// Validates a path: relative, `/`-separated, non-empty segments, no `.`
/// or `..` traversal.
///
/// # Errors
///
/// Returns [`CloudError::InvalidPath`] describing the violation.
pub fn validate_path(path: &str) -> Result<(), CloudError> {
    let invalid = |reason: &str| {
        Err(CloudError::InvalidPath {
            path: path.to_owned(),
            reason: reason.to_owned(),
        })
    };
    if path.is_empty() {
        return invalid("empty path refers to the root; not a valid object path");
    }
    if path.starts_with('/') || path.ends_with('/') {
        return invalid("leading or trailing separator");
    }
    for seg in path.split('/') {
        if seg.is_empty() {
            return invalid("empty segment");
        }
        if seg == "." || seg == ".." {
            return invalid("path traversal segment");
        }
    }
    Ok(())
}

/// Identifier of a cloud within a [`CloudSet`] (index order is stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CloudId(pub usize);

impl std::fmt::Display for CloudId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cloud#{}", self.0)
    }
}

/// An ordered collection of clouds forming a user's multi-cloud.
///
/// UniDrive configurations refer to member clouds by [`CloudId`] — the
/// same identifier recorded in block metadata (`<Block-ID, Cloud-ID>`
/// pairs, paper §5.1).
#[derive(Clone)]
pub struct CloudSet {
    clouds: Vec<Arc<dyn CloudStore>>,
}

impl CloudSet {
    /// Creates a set from member clouds.
    ///
    /// # Panics
    ///
    /// Panics if `clouds` is empty.
    pub fn new(clouds: Vec<Arc<dyn CloudStore>>) -> Self {
        assert!(!clouds.is_empty(), "a multi-cloud needs at least one cloud");
        CloudSet { clouds }
    }

    /// Number of member clouds (the paper's *N*).
    pub fn len(&self) -> usize {
        self.clouds.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.clouds.is_empty()
    }

    /// The cloud with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range. Call sites that index with ids
    /// taken from validated block metadata or from [`ids`](CloudSet::ids)
    /// of this same set rely on that as an invariant; use
    /// [`try_get`](CloudSet::try_get) when the id comes from anywhere
    /// else (external input, a differently-sized set).
    pub fn get(&self, id: CloudId) -> &Arc<dyn CloudStore> {
        &self.clouds[id.0]
    }

    /// The cloud with the given id, or `None` if `id` is out of range.
    pub fn try_get(&self, id: CloudId) -> Option<&Arc<dyn CloudStore>> {
        self.clouds.get(id.0)
    }

    /// Iterates over `(CloudId, cloud)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CloudId, &Arc<dyn CloudStore>)> {
        self.clouds
            .iter()
            .enumerate()
            .map(|(i, c)| (CloudId(i), c))
    }

    /// All member ids.
    pub fn ids(&self) -> Vec<CloudId> {
        (0..self.clouds.len()).map(CloudId).collect()
    }

    /// Majority quorum size: `⌊N/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.clouds.len() / 2 + 1
    }

    /// Returns a new set with `cloud` appended (used when the user adds a
    /// CCS, paper §6.2 "Adding or Removing CCSs").
    pub fn with_added(&self, cloud: Arc<dyn CloudStore>) -> CloudSet {
        let mut clouds = self.clouds.clone();
        clouds.push(cloud);
        CloudSet { clouds }
    }

    /// Returns a new set with the cloud at `id` removed, or `None` if
    /// `id` is out of range or the set would become empty.
    pub fn try_with_removed(&self, id: CloudId) -> Option<CloudSet> {
        if id.0 >= self.clouds.len() || self.clouds.len() <= 1 {
            return None;
        }
        let mut clouds = self.clouds.clone();
        clouds.remove(id.0);
        Some(CloudSet { clouds })
    }
}

impl std::fmt::Debug for CloudSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.clouds.iter().map(|c| c.name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemCloud;

    #[test]
    fn split_path_handles_nesting() {
        assert_eq!(split_path("a/b/c.txt"), ("a/b", "c.txt"));
        assert_eq!(split_path("c.txt"), ("", "c.txt"));
    }

    #[test]
    fn validate_path_rejects_bad_shapes() {
        assert!(validate_path("ok/file.bin").is_ok());
        for bad in ["", "/abs", "trail/", "a//b", "a/../b", "."] {
            assert!(validate_path(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn quorum_is_majority() {
        let set = |n: usize| {
            CloudSet::new(
                (0..n)
                    .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                    .collect(),
            )
        };
        assert_eq!(set(1).quorum(), 1);
        assert_eq!(set(2).quorum(), 2);
        assert_eq!(set(3).quorum(), 2);
        assert_eq!(set(4).quorum(), 3);
        assert_eq!(set(5).quorum(), 3);
    }

    #[test]
    fn add_and_remove_preserve_order() {
        let base = CloudSet::new(vec![
            Arc::new(MemCloud::new("a")) as Arc<dyn CloudStore>,
            Arc::new(MemCloud::new("b")),
        ]);
        let grown = base.with_added(Arc::new(MemCloud::new("c")));
        assert_eq!(grown.len(), 3);
        assert_eq!(grown.get(CloudId(2)).name(), "c");
        let shrunk = grown.try_with_removed(CloudId(1)).unwrap();
        assert_eq!(shrunk.len(), 2);
        assert_eq!(shrunk.get(CloudId(1)).name(), "c");
    }

    #[test]
    #[should_panic(expected = "at least one cloud")]
    fn empty_set_rejected() {
        let _ = CloudSet::new(Vec::new());
    }

    #[test]
    fn try_get_is_fallible() {
        let set = CloudSet::new(vec![
            Arc::new(MemCloud::new("a")) as Arc<dyn CloudStore>,
            Arc::new(MemCloud::new("b")),
        ]);
        assert_eq!(set.try_get(CloudId(1)).unwrap().name(), "b");
        assert!(set.try_get(CloudId(2)).is_none());
    }

    #[test]
    fn try_with_removed_refuses_bad_removals() {
        let two = CloudSet::new(vec![
            Arc::new(MemCloud::new("a")) as Arc<dyn CloudStore>,
            Arc::new(MemCloud::new("b")),
        ]);
        let one = two.try_with_removed(CloudId(0)).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.get(CloudId(0)).name(), "b");
        // Out of range.
        assert!(two.try_with_removed(CloudId(5)).is_none());
        // Would empty the set.
        assert!(one.try_with_removed(CloudId(0)).is_none());
    }

    /// A store whose `list` always fails transiently, to exercise the
    /// error path of the `exists` default impl.
    struct ListFails;

    impl CloudStore for ListFails {
        fn name(&self) -> &str {
            "listfails"
        }
        fn upload(&self, _: &str, _: unidrive_util::bytes::Bytes) -> Result<(), CloudError> {
            Ok(())
        }
        fn download(&self, p: &str) -> Result<unidrive_util::bytes::Bytes, CloudError> {
            Err(CloudError::not_found(p))
        }
        fn create_dir(&self, _: &str) -> Result<(), CloudError> {
            Ok(())
        }
        fn list(&self, p: &str) -> Result<Vec<ObjectInfo>, CloudError> {
            Err(CloudError::transient_op("flaky", crate::CloudOp::List, p))
        }
        fn delete(&self, _: &str) -> Result<(), CloudError> {
            Ok(())
        }
    }

    #[test]
    fn exists_default_impl_edge_cases() {
        use unidrive_util::bytes::Bytes;
        let c = MemCloud::new("m");
        c.upload("top.bin", Bytes::from_static(b"x")).unwrap();
        c.upload("dir/nested.bin", Bytes::from_static(b"y")).unwrap();
        // Plain hits at the root and nested.
        assert!(c.exists("top.bin").unwrap());
        assert!(c.exists("dir/nested.bin").unwrap());
        assert!(c.exists("dir").unwrap());
        // The root path itself: the five-op API can only probe a parent
        // listing, so the root — which has no parent entry — reports
        // absent rather than erroring.
        assert!(!c.exists("").unwrap());
        // Missing parent directory folds to "does not exist"…
        assert!(!c.exists("no/such/file").unwrap());
        assert!(!c.exists("dir/ghost").unwrap());
        // …but a *transient* listing failure must propagate, not be
        // mistaken for absence.
        let flaky = ListFails;
        let err = flaky.exists("dir/f").unwrap_err();
        assert!(err.is_retryable(), "{err}");
    }
}
