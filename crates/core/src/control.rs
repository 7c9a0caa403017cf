//! Metadata replication over the multi-cloud (paper §5.2).
//!
//! The DES-encrypted metadata — a **base** image, a log-structured
//! **delta**, and a tiny **version file** — is replicated to every
//! cloud. Writers hold the quorum lock and must land their update on a
//! majority of clouds for the commit to count; readers collect version
//! files from all clouds, pick the highest committed version, and fetch
//! the matching base + delta (falling back across clouds on corruption
//! or lag). Version stamps carry a commit counter, so "newest" needs no
//! global clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unidrive_cloud::{CloudSet, Retry, RetryPolicy};
use unidrive_crypto::MetadataCipher;
use unidrive_meta::{
    DeltaLog, PlaneError, SyncFolderImage, VersionStamp, BASE_PATH, DELTA_PATH, VERSION_PATH,
};
use unidrive_sim::Runtime;

use crate::quorum;

/// Metadata fetched from the multi-cloud.
#[derive(Debug, Clone)]
pub(crate) struct RemoteState {
    /// Base image with the delta already applied (the up-to-date image).
    pub(crate) image: SyncFolderImage,
    /// The delta log as stored (appended to by the next committer).
    pub(crate) delta: DeltaLog,
    /// Size of the encrypted base file (drives the λ compaction test).
    pub(crate) base_bytes: usize,
}

/// Replicated, encrypted metadata storage over a [`CloudSet`].
pub(crate) struct MetadataStore {
    rt: Arc<dyn Runtime>,
    clouds: CloudSet,
    cipher: MetadataCipher,
    retry: RetryPolicy,
    nonce: AtomicU64,
}

impl std::fmt::Debug for MetadataStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataStore")
            .field("clouds", &self.clouds)
            .finish()
    }
}

/// Orders two stamps by commit counter (ties broken by device name so
/// the order is total).
pub fn newer(a: &VersionStamp, b: &VersionStamp) -> bool {
    (a.counter, &a.device) > (b.counter, &b.device)
}

impl MetadataStore {
    /// Creates a store over `clouds`, encrypting with a key derived from
    /// `passphrase`.
    pub(crate) fn new(
        rt: Arc<dyn Runtime>,
        clouds: CloudSet,
        passphrase: &str,
        retry: RetryPolicy,
    ) -> Self {
        MetadataStore {
            rt,
            clouds,
            cipher: MetadataCipher::from_passphrase(passphrase),
            retry,
            nonce: AtomicU64::new(1),
        }
    }

    /// Reads the version files from every cloud and returns the highest
    /// committed stamp, or `None` on a fresh multi-cloud. This is the
    /// cheap poll UniDrive performs every τ.
    pub(crate) fn read_version(&self) -> Option<VersionStamp> {
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let versions = quorum::fan_out(&self.rt, &self.clouds, "meta-ver", move |_, cloud| {
            Retry::new(&rt, &retry)
                .run(|| cloud.download(VERSION_PATH))
                .ok()
        });
        let mut best: Option<VersionStamp> = None;
        for data in versions.into_iter().flatten() {
            if let Ok(stamp) = VersionStamp::decode(&data) {
                if best.as_ref().is_none_or(|b| newer(&stamp, b)) {
                    best = Some(stamp);
                }
            }
        }
        best
    }

    /// Fetches the newest readable metadata. `None` means a fresh
    /// multi-cloud (no committed metadata anywhere).
    ///
    /// # Errors
    ///
    /// [`PlaneError::Unreadable`] if versions exist but no cloud serves a
    /// consistent copy.
    pub(crate) fn read_remote(&self) -> Result<Option<RemoteState>, PlaneError> {
        let Some(target) = self.read_version() else {
            return Ok(None);
        };
        // Prefer clouds advertising the target version, but fall back to
        // any cloud: stale copies lose to the version check below.
        for (_, cloud) in self.clouds.iter() {
            let Ok(base_ct) = Retry::new(&self.rt, &self.retry).run(|| cloud.download(BASE_PATH))
            else {
                continue;
            };
            let Ok(base_pt) = self.cipher.decrypt(&base_ct) else {
                continue;
            };
            let Ok(mut image) = SyncFolderImage::decode(&base_pt) else {
                continue;
            };
            let delta = match Retry::new(&self.rt, &self.retry).run(|| cloud.download(DELTA_PATH)) {
                Ok(delta_ct) => {
                    let Ok(delta_pt) = self.cipher.decrypt(&delta_ct) else {
                        continue;
                    };
                    let Ok(delta) = DeltaLog::decode(&delta_pt) else {
                        continue;
                    };
                    delta
                }
                Err(_) => DeltaLog::new(image.version.clone()),
            };
            if delta.base != image.version {
                continue; // torn read: delta belongs to another base
            }
            delta.apply_to(&mut image);
            if image.version != target && newer(&target, &image.version) {
                continue; // stale copy
            }
            let base_bytes = base_ct.len();
            return Ok(Some(RemoteState {
                image,
                delta,
                base_bytes,
            }));
        }
        Err(PlaneError::Unreadable)
    }

    /// Commits metadata to the multi-cloud: uploads the delta (and, when
    /// `new_base` is set, a compacted base) plus the version file to
    /// every cloud. Succeeds when a majority acknowledged everything.
    ///
    /// Callers must hold the quorum lock.
    ///
    /// # Errors
    ///
    /// [`PlaneError::QuorumWriteFailed`] when fewer than a quorum of
    /// clouds stored the update.
    pub(crate) fn write_remote(
        &self,
        new_base: Option<&SyncFolderImage>,
        delta: &DeltaLog,
        version: &VersionStamp,
    ) -> Result<(), PlaneError> {
        // Mix the commit identity into the nonce so two devices (or two
        // sessions) sharing a passphrase never reuse a CBC IV.
        let nonce = self
            .nonce
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(version.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(unidrive_crypto::Sha1::digest(version.device.as_bytes()).as_bytes()[0] as u64)
            .wrapping_add(self.rt.now().as_nanos());
        let base_ct = new_base.map(|image| {
            unidrive_util::bytes::Bytes::from(self.cipher.encrypt(&image.encode(), nonce.wrapping_mul(3)))
        });
        let delta_ct =
            unidrive_util::bytes::Bytes::from(self.cipher.encrypt(&delta.encode(), nonce.wrapping_mul(3) + 1));
        let version_bytes = version.encode();
        // Replicate to every cloud concurrently; the version file goes
        // last on each cloud so its presence implies the data files.
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let acks = quorum::fan_out(&self.rt, &self.clouds, "meta-write", move |_, cloud| {
            (|| -> Result<(), unidrive_cloud::CloudError> {
                if let Some(base) = &base_ct {
                    Retry::new(&rt, &retry).run(|| cloud.upload(BASE_PATH, base.clone()))?;
                }
                Retry::new(&rt, &retry).run(|| cloud.upload(DELTA_PATH, delta_ct.clone()))?;
                Retry::new(&rt, &retry)
                    .run(|| cloud.upload(VERSION_PATH, version_bytes.clone()))?;
                Ok(())
            })()
            .is_ok()
        });
        quorum::require_acked(&self.clouds, acks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unidrive_cloud::{ChaosCloud, CloudStore, FaultPlan, MemCloud};
    use unidrive_crypto::Sha1;
    use unidrive_meta::{SegmentId, Snapshot};
    use unidrive_sim::RealRuntime;

    fn clouds(n: usize) -> CloudSet {
        CloudSet::new(
            (0..n)
                .map(|i| Arc::new(MemCloud::new(format!("c{i}"))) as Arc<dyn CloudStore>)
                .collect(),
        )
    }

    fn store(clouds: CloudSet) -> MetadataStore {
        MetadataStore::new(
            Arc::new(RealRuntime::new()),
            clouds,
            "test-passphrase",
            RetryPolicy::no_retries(),
        )
    }

    fn sample_image(counter: u64) -> SyncFolderImage {
        let mut img = SyncFolderImage::new();
        let seg = SegmentId(Sha1::digest(b"content"));
        img.ensure_segment(seg, 5);
        img.upsert_file(
            "f.txt",
            Snapshot {
                mtime_ns: 1,
                size: 5,
                segments: vec![seg],
            },
        );
        img.version = VersionStamp {
            device: "dev".into(),
            counter,
            timestamp_ns: counter,
        };
        img
    }

    #[test]
    fn fresh_multicloud_reads_none() {
        let s = store(clouds(3));
        assert_eq!(s.read_version(), None);
        assert!(s.read_remote().unwrap().is_none());
    }

    #[test]
    fn write_then_read_round_trips() {
        let s = store(clouds(5));
        let image = sample_image(1);
        let delta = DeltaLog::new(image.version.clone());
        s.write_remote(Some(&image), &delta, &image.version).unwrap();
        let remote = s.read_remote().unwrap().unwrap();
        assert_eq!(remote.image, image);
        assert_eq!(s.read_version().unwrap(), image.version);
    }

    #[test]
    fn delta_is_applied_on_read() {
        let s = store(clouds(3));
        let base = sample_image(1);
        let mut delta = DeltaLog::new(base.version.clone());
        let head = VersionStamp {
            device: "dev".into(),
            counter: 2,
            timestamp_ns: 2,
        };
        delta.append(
            vec![unidrive_meta::DeltaRecord::DeleteFile {
                path: "f.txt".into(),
            }],
            head.clone(),
        );
        s.write_remote(Some(&base), &delta, &head).unwrap();
        let remote = s.read_remote().unwrap().unwrap();
        assert_eq!(remote.image.version, head);
        assert!(remote.image.file("f.txt").is_none());
    }

    #[test]
    fn metadata_on_clouds_is_encrypted() {
        let set = clouds(3);
        let s = store(set.clone());
        let image = sample_image(1);
        let delta = DeltaLog::new(image.version.clone());
        s.write_remote(Some(&image), &delta, &image.version).unwrap();
        let raw = set.get(unidrive_cloud::CloudId(0)).download(BASE_PATH).unwrap();
        // Ciphertext must not decode as a plaintext image, and must not
        // contain the plaintext path.
        assert!(SyncFolderImage::decode(&raw).is_err());
        assert!(!raw.windows(5).any(|w| w == b"f.txt"));
        // And a wrong passphrase cannot read it.
        let wrong = MetadataStore::new(
            Arc::new(RealRuntime::new()),
            set,
            "wrong",
            RetryPolicy::no_retries(),
        );
        assert_eq!(wrong.read_remote().unwrap_err(), PlaneError::Unreadable);
    }

    #[test]
    fn reader_picks_newest_version_across_clouds() {
        let set = clouds(3);
        let s = store(set.clone());
        let v1 = sample_image(1);
        let d1 = DeltaLog::new(v1.version.clone());
        s.write_remote(Some(&v1), &d1, &v1.version).unwrap();
        // Simulate a lagging replica: write v2 only to clouds 1 and 2 by
        // making cloud 0 reject uploads temporarily.
        let v2 = sample_image(2);
        let d2 = DeltaLog::new(v2.version.clone());
        let partial = CloudSet::new(vec![
            Arc::clone(set.get(unidrive_cloud::CloudId(1))),
            Arc::clone(set.get(unidrive_cloud::CloudId(2))),
        ]);
        let s_partial = store(partial);
        s_partial.write_remote(Some(&v2), &d2, &v2.version).unwrap();
        // A reader over all three clouds must see v2.
        let remote = s.read_remote().unwrap().unwrap();
        assert_eq!(remote.image.version.counter, 2);
    }

    #[test]
    fn quorum_write_failure_detected() {
        let rt: Arc<dyn unidrive_sim::Runtime> = Arc::new(unidrive_sim::RealRuntime::new());
        let mut members: Vec<Arc<dyn CloudStore>> = Vec::new();
        for i in 0..5 {
            let inner: Arc<dyn CloudStore> = Arc::new(MemCloud::new(format!("c{i}")));
            if i < 3 {
                let chaos =
                    ChaosCloud::new(inner, Arc::clone(&rt), &FaultPlan::new(i as u64));
                chaos.set_flat_probability(1.0);
                members.push(Arc::new(chaos));
            } else {
                members.push(inner);
            }
        }
        let s = store(CloudSet::new(members));
        let image = sample_image(1);
        let delta = DeltaLog::new(image.version.clone());
        assert!(matches!(
            s.write_remote(Some(&image), &delta, &image.version),
            Err(PlaneError::QuorumWriteFailed { acked: 2, quorum: 3 })
        ));
    }

    #[test]
    fn newer_orders_by_counter_then_device() {
        let a = VersionStamp {
            device: "a".into(),
            counter: 2,
            timestamp_ns: 0,
        };
        let b = VersionStamp {
            device: "z".into(),
            counter: 1,
            timestamp_ns: 99,
        };
        assert!(newer(&a, &b));
        let c = VersionStamp {
            device: "b".into(),
            counter: 2,
            timestamp_ns: 0,
        };
        assert!(newer(&c, &a));
    }
}
