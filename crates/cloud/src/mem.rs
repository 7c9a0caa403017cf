//! In-memory [`CloudStore`]: instantaneous, always available, strongly
//! consistent. The storage backend behind [`SimCloud`](crate::SimCloud)
//! and the workhorse of unit tests.

use std::collections::BTreeMap;

use unidrive_util::bytes::Bytes;
use unidrive_util::sync::RwLock;

use crate::{split_path, validate_path, CloudError, CloudStore, ObjectInfo};

#[derive(Debug, Default)]
struct Tree {
    /// Object path -> contents.
    objects: BTreeMap<String, Bytes>,
    /// Explicitly or implicitly created directories.
    dirs: std::collections::BTreeSet<String>,
}

impl Tree {
    fn ensure_parents(&mut self, path: &str) {
        let mut acc = String::new();
        let (parent, _) = split_path(path);
        if parent.is_empty() {
            return;
        }
        for seg in parent.split('/') {
            if !acc.is_empty() {
                acc.push('/');
            }
            acc.push_str(seg);
            self.dirs.insert(acc.clone());
        }
    }

    fn dir_exists(&self, path: &str) -> bool {
        path.is_empty() || self.dirs.contains(path)
    }
}

/// An in-memory cloud with perfect availability and zero latency.
///
/// Useful directly in tests, and as the storage layer of simulated
/// clouds. All operations are thread-safe.
///
/// # Examples
///
/// ```
/// use unidrive_cloud::{CloudStore, MemCloud};
/// use unidrive_util::bytes::Bytes;
///
/// # fn main() -> Result<(), unidrive_cloud::CloudError> {
/// let c = MemCloud::new("test");
/// c.upload("x/y.bin", Bytes::from_static(&[1, 2, 3]))?;
/// assert!(c.exists("x/y.bin")?);
/// c.delete("x")?; // recursive
/// assert!(!c.exists("x/y.bin")?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemCloud {
    name: String,
    tree: RwLock<Tree>,
}

impl MemCloud {
    /// Creates an empty in-memory cloud.
    pub fn new(name: impl Into<String>) -> Self {
        MemCloud {
            name: name.into(),
            tree: RwLock::new(Tree::default()),
        }
    }

    /// Total bytes currently stored (object payloads only).
    pub fn used_bytes(&self) -> u64 {
        self.tree
            .read()
            .objects
            .values()
            .map(|b| b.len() as u64)
            .sum()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.tree.read().objects.len()
    }
}

impl CloudStore for MemCloud {
    fn name(&self) -> &str {
        &self.name
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        validate_path(path)?;
        let mut t = self.tree.write();
        t.ensure_parents(path);
        t.objects.insert(path.to_owned(), data);
        Ok(())
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        validate_path(path)?;
        self.tree
            .read()
            .objects
            .get(path)
            .cloned()
            .ok_or_else(|| CloudError::not_found(path))
    }

    fn caps(&self) -> crate::CloudCaps {
        crate::CloudCaps {
            read_after_write: true,
            // Missing paths answer NotFound on delete and list alike.
            strict_not_found: true,
        }
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        validate_path(path)?;
        let mut t = self.tree.write();
        let mut acc = String::new();
        for seg in path.split('/') {
            if !acc.is_empty() {
                acc.push('/');
            }
            acc.push_str(seg);
            t.dirs.insert(acc.clone());
        }
        Ok(())
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        if !path.is_empty() {
            validate_path(path)?;
        }
        let t = self.tree.read();
        if !t.dir_exists(path) {
            return Err(CloudError::not_found(path));
        }
        let prefix = if path.is_empty() {
            String::new()
        } else {
            format!("{path}/")
        };
        let mut out: Vec<ObjectInfo> = Vec::new();
        let mut seen_dirs = std::collections::BTreeSet::new();
        for (p, data) in t.objects.range(prefix.clone()..) {
            if !p.starts_with(&prefix) {
                break;
            }
            let rest = &p[prefix.len()..];
            match rest.find('/') {
                None => out.push(ObjectInfo {
                    name: rest.to_owned(),
                    size: data.len() as u64,
                    is_dir: false,
                }),
                Some(i) => {
                    seen_dirs.insert(rest[..i].to_owned());
                }
            }
        }
        for d in t.dirs.iter() {
            if let Some(rest) = d.strip_prefix(&prefix) {
                if !rest.is_empty() && !rest.contains('/') {
                    seen_dirs.insert(rest.to_owned());
                }
            } else if prefix.is_empty() && !d.contains('/') {
                seen_dirs.insert(d.clone());
            }
        }
        for d in seen_dirs {
            out.push(ObjectInfo {
                name: d,
                size: 0,
                is_dir: true,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        validate_path(path)?;
        let mut t = self.tree.write();
        if t.objects.remove(path).is_some() {
            return Ok(());
        }
        if t.dirs.contains(path) {
            let prefix = format!("{path}/");
            t.objects.retain(|p, _| !p.starts_with(&prefix));
            t.dirs.retain(|d| d != path && !d.starts_with(&prefix));
            return Ok(());
        }
        Err(CloudError::not_found(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_round_trip() {
        let c = MemCloud::new("m");
        c.upload("a.bin", Bytes::from(vec![7u8; 100])).unwrap();
        assert_eq!(c.download("a.bin").unwrap().len(), 100);
    }

    #[test]
    fn download_missing_is_not_found() {
        let c = MemCloud::new("m");
        assert!(matches!(
            c.download("nope").unwrap_err(),
            CloudError::NotFound { .. }
        ));
    }

    #[test]
    fn append_creates_then_extends() {
        let c = MemCloud::new("m");
        c.append("log/ops_a", Bytes::from_static(b"one")).unwrap();
        c.append("log/ops_a", Bytes::from_static(b"two")).unwrap();
        assert_eq!(c.download("log/ops_a").unwrap(), Bytes::from_static(b"onetwo"));
        // Parents were auto-created like upload does.
        assert!(c.exists("log").unwrap());
    }

    #[test]
    fn upload_overwrites() {
        let c = MemCloud::new("m");
        c.upload("a", Bytes::from_static(b"old")).unwrap();
        c.upload("a", Bytes::from_static(b"new")).unwrap();
        assert_eq!(&c.download("a").unwrap()[..], b"new");
    }

    #[test]
    fn list_shows_files_and_dirs() {
        let c = MemCloud::new("m");
        c.upload("d/f1", Bytes::new()).unwrap();
        c.upload("d/sub/f2", Bytes::new()).unwrap();
        c.create_dir("d/empty").unwrap();
        let entries = c.list("d").unwrap();
        let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["empty", "f1", "sub"]);
        assert!(entries[0].is_dir && !entries[1].is_dir && entries[2].is_dir);
    }

    #[test]
    fn list_root_works() {
        let c = MemCloud::new("m");
        c.upload("top.txt", Bytes::new()).unwrap();
        c.create_dir("dir").unwrap();
        let names: Vec<_> = c
            .list("")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["dir", "top.txt"]);
    }

    #[test]
    fn list_missing_dir_is_not_found() {
        let c = MemCloud::new("m");
        assert!(matches!(
            c.list("ghost").unwrap_err(),
            CloudError::NotFound { .. }
        ));
    }

    #[test]
    fn delete_file_and_dir_recursively() {
        let c = MemCloud::new("m");
        c.upload("d/a", Bytes::new()).unwrap();
        c.upload("d/s/b", Bytes::new()).unwrap();
        c.delete("d/a").unwrap();
        assert!(!c.exists("d/a").unwrap());
        c.delete("d").unwrap();
        assert!(!c.exists("d/s/b").unwrap());
        assert!(matches!(
            c.delete("d").unwrap_err(),
            CloudError::NotFound { .. }
        ));
    }

    #[test]
    fn read_after_write_listing() {
        // The consistency contract UniDrive's lock protocol relies on.
        let c = MemCloud::new("m");
        c.upload("locks/lock_d1_5", Bytes::new()).unwrap();
        let names: Vec<_> = c
            .list("locks")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["lock_d1_5"]);
    }

    #[test]
    fn usage_accounting() {
        let c = MemCloud::new("m");
        c.upload("a", Bytes::from(vec![0u8; 10])).unwrap();
        c.upload("b", Bytes::from(vec![0u8; 20])).unwrap();
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c.object_count(), 2);
    }

    #[test]
    fn invalid_paths_rejected_everywhere() {
        let c = MemCloud::new("m");
        assert!(c.upload("/abs", Bytes::new()).is_err());
        assert!(c.download("a//b").is_err());
        assert!(c.delete("../up").is_err());
    }
}
