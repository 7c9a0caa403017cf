//! The local sync folder interface (paper §4, "local interface layer").
//!
//! UniDrive monitors a local folder for changes and commits cloud
//! updates back into it. We use scan-based change detection (no
//! OS-specific watchers): the client compares [`SyncFolder::scan`]
//! against the `(size, mtime)` it recorded for every path at its last
//! sync and produces the ChangedFileList of [`LocalChange`]s.
//!
//! Two backends: [`MemFolder`] (simulation, virtual-time experiments)
//! and [`DirFolder`] (a real directory on disk for the examples).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use unidrive_util::bytes::Bytes;
use unidrive_util::sync::RwLock;

/// Error from sync folder operations.
#[derive(Debug)]
pub enum FolderError {
    /// Underlying I/O failure (disk-backed folders).
    Io(std::io::Error),
    /// The path escapes the folder or is malformed.
    InvalidPath(String),
}

impl std::fmt::Display for FolderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FolderError::Io(e) => write!(f, "folder i/o error: {e}"),
            FolderError::InvalidPath(p) => write!(f, "invalid folder path: {p}"),
        }
    }
}

impl std::error::Error for FolderError {}

impl From<std::io::Error> for FolderError {
    fn from(e: std::io::Error) -> Self {
        FolderError::Io(e)
    }
}

/// Metadata of one local file, as seen by a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalStat {
    /// Size in bytes.
    pub size: u64,
    /// Modification stamp (backend-defined monotonic-ish value).
    pub mtime_ns: u64,
}

/// A user's local sync folder.
///
/// Paths are `/`-separated and relative, as in
/// [`CloudStore`](unidrive_cloud::CloudStore).
pub trait SyncFolder: Send + Sync {
    /// Lists every file with its stat, in path order.
    ///
    /// # Errors
    ///
    /// [`FolderError::Io`] on backend failures.
    fn scan(&self) -> Result<BTreeMap<String, LocalStat>, FolderError>;

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// [`FolderError`] if missing or unreadable.
    fn read(&self, path: &str) -> Result<Bytes, FolderError>;

    /// Writes a whole file (creating parents), stamping it with
    /// `mtime_ns`.
    ///
    /// # Errors
    ///
    /// [`FolderError`] on backend failures.
    fn write(&self, path: &str, data: &[u8], mtime_ns: u64) -> Result<(), FolderError>;

    /// Deletes a file. Missing files are fine (idempotent).
    ///
    /// # Errors
    ///
    /// [`FolderError::Io`] on backend failures other than not-found.
    fn remove(&self, path: &str) -> Result<(), FolderError>;
}

/// A local change detected by the client's folder scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalChange {
    /// File is new or its (size, mtime) differs from the synced image.
    Changed {
        /// Folder-relative path.
        path: String,
        /// Current stat.
        stat: LocalStat,
    },
    /// File present in the image but gone locally.
    Deleted {
        /// Folder-relative path.
        path: String,
    },
}

impl LocalChange {
    /// The affected path.
    pub fn path(&self) -> &str {
        match self {
            LocalChange::Changed { path, .. } | LocalChange::Deleted { path } => path,
        }
    }
}

/// In-memory sync folder for simulations and tests.
#[derive(Debug, Default)]
pub struct MemFolder {
    files: RwLock<BTreeMap<String, (Bytes, u64)>>,
}

impl MemFolder {
    /// Creates an empty folder.
    pub fn new() -> Arc<Self> {
        Arc::new(MemFolder::default())
    }

    /// Number of files currently stored.
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }
}

impl SyncFolder for MemFolder {
    fn scan(&self) -> Result<BTreeMap<String, LocalStat>, FolderError> {
        Ok(self
            .files
            .read()
            .iter()
            .map(|(p, (data, mtime))| {
                (
                    p.clone(),
                    LocalStat {
                        size: data.len() as u64,
                        mtime_ns: *mtime,
                    },
                )
            })
            .collect())
    }

    fn read(&self, path: &str) -> Result<Bytes, FolderError> {
        self.files
            .read()
            .get(path)
            .map(|(d, _)| d.clone())
            .ok_or_else(|| FolderError::InvalidPath(format!("{path}: not found")))
    }

    fn write(&self, path: &str, data: &[u8], mtime_ns: u64) -> Result<(), FolderError> {
        self.files
            .write()
            .insert(path.to_owned(), (Bytes::copy_from_slice(data), mtime_ns));
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<(), FolderError> {
        self.files.write().remove(path);
        Ok(())
    }
}

/// A sync folder backed by a real directory.
#[derive(Debug)]
pub struct DirFolder {
    root: PathBuf,
}

impl DirFolder {
    /// Opens (creating if needed) the directory.
    ///
    /// # Errors
    ///
    /// [`FolderError::Io`] if the directory cannot be created.
    pub fn create(root: impl AsRef<Path>) -> Result<Arc<Self>, FolderError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(Arc::new(DirFolder { root }))
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, path: &str) -> Result<PathBuf, FolderError> {
        if path.is_empty()
            || path.starts_with('/')
            || path.split('/').any(|s| s.is_empty() || s == "." || s == "..")
        {
            return Err(FolderError::InvalidPath(path.to_owned()));
        }
        Ok(self.root.join(path))
    }

    fn walk(
        &self,
        dir: &Path,
        prefix: &str,
        out: &mut BTreeMap<String, LocalStat>,
    ) -> Result<(), FolderError> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = if prefix.is_empty() {
                name
            } else {
                format!("{prefix}/{name}")
            };
            if meta.is_dir() {
                self.walk(&entry.path(), &rel, out)?;
            } else {
                let mtime_ns = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                out.insert(
                    rel,
                    LocalStat {
                        size: meta.len(),
                        mtime_ns,
                    },
                );
            }
        }
        Ok(())
    }
}

impl SyncFolder for DirFolder {
    fn scan(&self) -> Result<BTreeMap<String, LocalStat>, FolderError> {
        let mut out = BTreeMap::new();
        self.walk(&self.root, "", &mut out)?;
        Ok(out)
    }

    fn read(&self, path: &str) -> Result<Bytes, FolderError> {
        Ok(Bytes::from(std::fs::read(self.resolve(path)?)?))
    }

    fn write(&self, path: &str, data: &[u8], _mtime_ns: u64) -> Result<(), FolderError> {
        let full = self.resolve(path)?;
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(full, data)?;
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<(), FolderError> {
        match std::fs::remove_file(self.resolve(path)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_folder_round_trip() {
        let f = MemFolder::new();
        f.write("a/b.txt", b"data", 1).unwrap();
        assert_eq!(&f.read("a/b.txt").unwrap()[..], b"data");
        f.remove("a/b.txt").unwrap();
        assert!(f.read("a/b.txt").is_err());
        f.remove("a/b.txt").unwrap(); // idempotent
    }

    #[test]
    fn dir_folder_scans_nested_files() {
        let root = std::env::temp_dir().join(format!("unidrive-dirfolder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let f = DirFolder::create(&root).unwrap();
        f.write("x.txt", b"1", 0).unwrap();
        f.write("sub/deep/y.txt", b"22", 0).unwrap();
        let scan = f.scan().unwrap();
        assert_eq!(scan.len(), 2);
        assert_eq!(scan["sub/deep/y.txt"].size, 2);
        f.remove("x.txt").unwrap();
        assert_eq!(f.scan().unwrap().len(), 1);
    }

    #[test]
    fn dir_folder_rejects_traversal() {
        let root = std::env::temp_dir().join(format!("unidrive-dirtrav-{}", std::process::id()));
        let f = DirFolder::create(&root).unwrap();
        assert!(f.read("../secret").is_err());
        assert!(f.write("/abs", b"", 0).is_err());
    }
}
