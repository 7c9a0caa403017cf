//! [`LocalDirCloud`]: a cloud backed by a directory on the local
//! filesystem.
//!
//! Lets the examples and integration tests run the full UniDrive stack —
//! chunking, erasure coding, quorum locking, scheduling — against real
//! bytes on disk, with each "cloud" being a separate directory. Combine
//! with [`ThrottledCloud`](crate::ThrottledCloud) to emulate bandwidth
//! limits under wall-clock time.

use std::fs;
use std::path::{Path, PathBuf};

use unidrive_util::bytes::Bytes;

use crate::{validate_path, CloudError, CloudStore, ObjectInfo};

/// A cloud whose objects are files under a root directory.
///
/// Uploads are atomic (write to a temp file, then rename) so a crashed
/// client never leaves a half-written object visible — matching the
/// read-after-write contract of the trait.
///
/// # Examples
///
/// ```no_run
/// use unidrive_cloud::{CloudStore, LocalDirCloud};
/// use unidrive_util::bytes::Bytes;
///
/// # fn main() -> Result<(), unidrive_cloud::CloudError> {
/// let cloud = LocalDirCloud::create("my-drive", "/tmp/clouds/drive-a")?;
/// cloud.upload("notes.txt", Bytes::from_static(b"hi"))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LocalDirCloud {
    name: String,
    root: PathBuf,
}

impl LocalDirCloud {
    /// Opens (and creates if necessary) the root directory.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Io`] if the directory cannot be created.
    pub fn create(name: impl Into<String>, root: impl AsRef<Path>) -> Result<Self, CloudError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(LocalDirCloud {
            name: name.into(),
            root,
        })
    }

    /// The root directory backing this cloud.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Resolves a directory path; the empty string is the root.
    fn resolve(&self, path: &str) -> Result<PathBuf, CloudError> {
        if path.is_empty() {
            return Ok(self.root.clone());
        }
        validate_path(path)?;
        Ok(self.root.join(path))
    }

    /// Resolves an object path; the empty string (the root) is not a
    /// valid object and is rejected like any other malformed path.
    fn resolve_object(&self, path: &str) -> Result<PathBuf, CloudError> {
        validate_path(path)?;
        Ok(self.root.join(path))
    }
}

impl CloudStore for LocalDirCloud {
    fn name(&self) -> &str {
        &self.name
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let full = self.resolve_object(path)?;
        if let Some(parent) = full.parent() {
            fs::create_dir_all(parent)?;
        }
        // The temp name must append (never replace) the object name:
        // blocks `<hash>.0` and `<hash>.5` are distinct objects and may
        // upload concurrently, so `with_extension` would collide them on
        // one temp file and interleave their bytes. A per-process counter
        // keeps concurrent uploads of even the *same* object distinct.
        let unique = TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp_name = full
            .file_name()
            .expect("validated path has a file name")
            .to_os_string();
        tmp_name.push(format!(".{unique}.part.tmp"));
        let tmp = full.with_file_name(tmp_name);
        fs::write(&tmp, &data)?;
        fs::rename(&tmp, &full)?;
        Ok(())
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        let full = self.resolve_object(path)?;
        match fs::read(&full) {
            Ok(data) => Ok(Bytes::from(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(CloudError::not_found(path))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        let full = self.resolve(path)?;
        fs::create_dir_all(full)?;
        Ok(())
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        let full = self.resolve(path)?;
        let rd = match fs::read_dir(&full) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CloudError::not_found(path))
            }
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in rd {
            let entry = entry?;
            let meta = entry.metadata()?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".part.tmp") {
                continue; // in-flight atomic upload
            }
            out.push(ObjectInfo {
                name,
                size: if meta.is_dir() { 0 } else { meta.len() },
                is_dir: meta.is_dir(),
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        let full = self.resolve_object(path)?;
        match fs::metadata(&full) {
            Ok(m) if m.is_dir() => {
                fs::remove_dir_all(&full)?;
                Ok(())
            }
            Ok(_) => {
                fs::remove_file(&full)?;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(CloudError::not_found(path))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn caps(&self) -> crate::CloudCaps {
        crate::CloudCaps {
            // Local filesystem reads see completed renames immediately.
            read_after_write: true,
            // The filesystem reports ENOENT for absent files and dirs.
            strict_not_found: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cloud(tag: &str) -> LocalDirCloud {
        let dir = std::env::temp_dir().join(format!(
            "unidrive-localcloud-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        LocalDirCloud::create("local", dir).unwrap()
    }

    #[test]
    fn round_trip_on_disk() {
        let c = tmp_cloud("rt");
        c.upload("a/b.bin", Bytes::from(vec![9u8; 64])).unwrap();
        assert_eq!(c.download("a/b.bin").unwrap().len(), 64);
        let entries = c.list("a").unwrap();
        assert_eq!(entries[0].name, "b.bin");
        assert_eq!(entries[0].size, 64);
    }

    #[test]
    fn delete_file_and_directory() {
        let c = tmp_cloud("del");
        c.upload("d/x", Bytes::new()).unwrap();
        c.upload("d/y", Bytes::new()).unwrap();
        c.delete("d/x").unwrap();
        assert!(!c.exists("d/x").unwrap());
        c.delete("d").unwrap();
        assert!(matches!(
            c.list("d").unwrap_err(),
            CloudError::NotFound { .. }
        ));
    }

    #[test]
    fn missing_object_is_not_found() {
        let c = tmp_cloud("nf");
        assert!(matches!(
            c.download("ghost").unwrap_err(),
            CloudError::NotFound { .. }
        ));
        assert!(matches!(
            c.delete("ghost").unwrap_err(),
            CloudError::NotFound { .. }
        ));
    }

    #[test]
    fn traversal_is_rejected() {
        let c = tmp_cloud("trav");
        assert!(matches!(
            c.download("../etc/passwd").unwrap_err(),
            CloudError::InvalidPath { .. }
        ));
    }

    #[test]
    fn concurrent_uploads_of_sibling_blocks_do_not_corrupt() {
        // Regression: blocks `<hash>.0` and `<hash>.5` used to collide on
        // one temp file when uploaded concurrently, interleaving bytes.
        use std::sync::Arc;
        let c = Arc::new(tmp_cloud("race"));
        for round in 0..20 {
            let handles: Vec<_> = (0..4u8)
                .map(|i| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let data = Bytes::from(vec![i; 50_000]);
                        c.upload(&format!("blocks/seg{round}.{i}"), data).unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            for i in 0..4u8 {
                let data = c.download(&format!("blocks/seg{round}.{i}")).unwrap();
                assert!(
                    data.iter().all(|&b| b == i),
                    "round {round} block {i} corrupted"
                );
            }
        }
    }

    #[test]
    fn temp_files_are_hidden_from_listing() {
        let c = tmp_cloud("tmpf");
        c.upload("real", Bytes::new()).unwrap();
        fs::write(c.root().join("ghost.part.tmp"), b"x").unwrap();
        let names: Vec<_> = c.list("").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["real"]);
    }
}
