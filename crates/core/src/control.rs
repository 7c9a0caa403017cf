//! Metadata replication over the multi-cloud (paper §5.2).
//!
//! The DES-encrypted metadata — a **base** image, a log-structured
//! **delta**, and a tiny **version file** — is replicated to every
//! cloud. Writers hold the quorum lock and must land their update on a
//! majority of clouds for the commit to count; readers collect version
//! files from all clouds, pick the highest committed version, and fetch
//! the matching delta — and the base it extends, unless that is the
//! base the store already holds — only from a cloud whose version file
//! shows that version, falling over to the next such cloud on
//! corruption or a racing commit (the read rule of `unidrive_meta`'s
//! layout doc). Version stamps carry a commit counter, so "newest"
//! needs no global clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use unidrive_cloud::{CloudError, CloudId, CloudSet, Retry, RetryPolicy};
use unidrive_crypto::MetadataCipher;
use unidrive_meta::{
    DeltaLog, PlaneError, SyncFolderImage, VersionStamp, BASE_PATH, DELTA_PATH, VERSION_PATH,
};
use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;

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

/// The newest stamp the version files show, and the clouds whose
/// version file shows it, in `CloudSet` order: the only clouds a read
/// asks for a body.
#[derive(Debug, PartialEq)]
pub(crate) struct Newest {
    pub(crate) stamp: VersionStamp,
    pub(crate) holders: Vec<CloudId>,
}

/// Replicated, encrypted metadata storage over a [`CloudSet`].
pub(crate) struct MetadataStore {
    rt: Arc<dyn Runtime>,
    clouds: CloudSet,
    cipher: MetadataCipher,
    retry: RetryPolicy,
    nonce: AtomicU64,
    /// The last base this store decrypted or wrote, under the stamp a
    /// delta names it by (`delta.base`, the pairing every read already
    /// trusts). A delta extending it is applied to this copy instead of
    /// downloading `BASE_PATH` again. Plaintext, not a decoded image:
    /// a second tree per device is resident memory a poll cannot afford.
    held_base: Option<HeldBase>,
}

struct HeldBase {
    version: VersionStamp,
    plaintext: Bytes,
    /// Size of the encrypted file the plaintext came from (or went to).
    stored_bytes: usize,
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
            held_base: None,
        }
    }

    /// Reads the version files from every cloud and returns the highest
    /// committed stamp with the clouds that show it, or `None` on a
    /// fresh multi-cloud. This is the cheap poll UniDrive performs
    /// every τ.
    pub(crate) fn read_version(&self) -> Option<Newest> {
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let stamps = quorum::fan_out(&self.rt, &self.clouds, "meta-ver", move |_, cloud| {
            let data = Retry::new(&rt, &retry).run(|| cloud.download(VERSION_PATH)).ok()?;
            VersionStamp::decode(&data).ok()
        });
        let stamp = stamps.iter().flatten().reduce(|best, s| if newer(s, best) { s } else { best })?;
        let holders = (0..stamps.len())
            .filter(|&c| stamps[c].as_ref().is_some_and(|s| !newer(stamp, s)))
            .map(CloudId)
            .collect();
        Some(Newest { stamp: stamp.clone(), holders })
    }

    /// Fetches metadata at least as new as `newest`, what the caller's
    /// own [`read_version`](Self::read_version) returned (under the
    /// lock, what it read under the lock) — read once, not again here.
    /// Only the clouds whose version file showed that stamp are asked,
    /// one at a time: a lagging cloud is never asked for a body.
    ///
    /// # Errors
    ///
    /// [`PlaneError::Unreadable`] if no such cloud serves a consistent
    /// copy.
    pub(crate) fn read_remote(&mut self, newest: &Newest) -> Result<RemoteState, PlaneError> {
        let target = &newest.stamp;
        for cloud in newest.holders.iter().map(|&c| self.clouds.get(c)) {
            // Delta first: it names the base it extends, and that base
            // is usually the one already held. Only a cloud that says
            // "no such file" has no delta yet; one that merely failed
            // to answer is passed over, not read as an empty log.
            let delta = match Retry::new(&self.rt, &self.retry).run(|| cloud.download(DELTA_PATH)) {
                Ok(delta_ct) => {
                    let Ok(delta_pt) = self.cipher.decrypt(&delta_ct) else {
                        continue;
                    };
                    let Ok(delta) = DeltaLog::decode(&delta_pt) else {
                        continue;
                    };
                    Some(delta)
                }
                Err(CloudError::NotFound { .. }) => None,
                Err(_) => continue,
            };
            let held = self.held_base.as_ref().filter(|held| {
                delta.as_ref().is_some_and(|delta| delta.base == held.version)
            });
            let (mut image, downloaded) =
                match held.and_then(|held| SyncFolderImage::decode(&held.plaintext).ok()) {
                    Some(image) => (image, None),
                    None => {
                        let Ok(base_ct) =
                            Retry::new(&self.rt, &self.retry).run(|| cloud.download(BASE_PATH))
                        else {
                            continue;
                        };
                        let Ok(plaintext) = self.cipher.decrypt(&base_ct) else {
                            continue;
                        };
                        let Ok(image) = SyncFolderImage::decode(&plaintext) else {
                            continue;
                        };
                        let held = HeldBase {
                            version: image.version.clone(),
                            plaintext: Bytes::from(plaintext),
                            stored_bytes: base_ct.len(),
                        };
                        (image, Some(held))
                    }
                };
            let delta = delta.unwrap_or_else(|| DeltaLog::new(image.version.clone()));
            if delta.base != image.version {
                continue; // torn read: delta belongs to another base
            }
            delta.apply_to(&mut image);
            if newer(target, &image.version) {
                continue; // stale copy: the version file and the delta disagree
            }
            // Only a base that served an accepted read replaces the held
            // one: a lagging cloud's older base must not evict it.
            if downloaded.is_some() {
                self.held_base = downloaded;
            }
            let base_bytes = self.held_base.as_ref().map_or(0, |held| held.stored_bytes);
            return Ok(RemoteState {
                image,
                delta,
                base_bytes,
            });
        }
        Err(PlaneError::Unreadable)
    }

    /// Commits metadata to the multi-cloud: uploads the delta (and, when
    /// `new_base` is set, a compacted base) plus the version file to
    /// every cloud. Succeeds when a majority acknowledged everything,
    /// with the size of the encrypted base if one was written — which
    /// the store then holds, so this device's next read of a delta over
    /// its own compaction downloads no base.
    ///
    /// Callers must hold the quorum lock.
    ///
    /// # Errors
    ///
    /// [`PlaneError::QuorumWriteFailed`] when fewer than a quorum of
    /// clouds stored the update.
    pub(crate) fn write_remote(
        &mut self,
        new_base: Option<&SyncFolderImage>,
        delta: &DeltaLog,
        version: &VersionStamp,
    ) -> Result<Option<usize>, PlaneError> {
        // Mix the commit identity into the nonce so two devices (or two
        // sessions) sharing a passphrase never reuse a CBC IV.
        let nonce = self
            .nonce
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(version.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(unidrive_crypto::Sha1::digest(version.device.as_bytes()).as_bytes()[0] as u64)
            .wrapping_add(self.rt.now().as_nanos());
        let written = new_base.map(|image| {
            let plaintext = image.encode();
            let ct = Bytes::from(self.cipher.encrypt(&plaintext, nonce.wrapping_mul(3)));
            let held = HeldBase {
                version: image.version.clone(),
                plaintext,
                stored_bytes: ct.len(),
            };
            (held, ct)
        });
        let base_ct = written.as_ref().map(|(_, ct)| ct.clone());
        let delta_ct = Bytes::from(self.cipher.encrypt(&delta.encode(), nonce.wrapping_mul(3) + 1));
        let version_bytes = version.encode();
        // Replicate to every cloud concurrently; the version file goes
        // last on each cloud so its presence implies the data files.
        let (rt, retry) = (Arc::clone(&self.rt), self.retry.clone());
        let acks = quorum::fan_out(&self.rt, &self.clouds, "meta-write", move |_, cloud| {
            (|| -> Result<(), CloudError> {
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
        quorum::require_acked(&self.clouds, acks)?;
        Ok(written.map(|(held, _)| {
            let stored_bytes = held.stored_bytes;
            self.held_base = Some(held);
            stored_bytes
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplog_plane::tests::{counted, FailingDownloads};
    use std::sync::Arc;
    use unidrive_cloud::{CloudStore, MemCloud};
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

    /// A reader's whole read: the newest stamp, then metadata up to it.
    fn read(s: &mut MetadataStore) -> RemoteState {
        let newest = s.read_version().expect("committed metadata");
        s.read_remote(&newest).expect("readable")
    }

    fn sample_image(counter: u64) -> SyncFolderImage {
        let mut img = SyncFolderImage::new();
        let seg = SegmentId(Sha1::digest(b"content"));
        img.ensure_segment(seg, 5);
        img.upsert_file(
            "f.txt",
            Snapshot {
                segments: vec![seg],
            },
        );
        img.version = stamp(counter);
        img
    }

    #[test]
    fn fresh_multicloud_reads_none() {
        assert_eq!(store(clouds(3)).read_version(), None);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = store(clouds(5));
        let image = sample_image(1);
        let delta = DeltaLog::new(image.version.clone());
        s.write_remote(Some(&image), &delta, &image.version).unwrap();
        let remote = read(&mut s);
        assert_eq!(remote.image, image);
        assert_eq!(s.read_version().unwrap().stamp, image.version);
    }

    #[test]
    fn delta_is_applied_on_read() {
        let mut s = store(clouds(3));
        let base = sample_image(1);
        let mut delta = DeltaLog::new(base.version.clone());
        append_commit(&mut delta, 2);
        s.write_remote(Some(&base), &delta, &stamp(2)).unwrap();
        let remote = read(&mut s);
        assert_eq!(remote.image.version, stamp(2));
        assert!(remote.image.file("f.txt").is_none());
    }

    fn stamp(counter: u64) -> VersionStamp {
        VersionStamp {
            device: "dev".into(),
            counter,
            timestamp_ns: counter,
        }
    }

    /// Appends one commit, the deletion of `f.txt`, to `delta`.
    fn append_commit(delta: &mut DeltaLog, counter: u64) {
        delta.append(
            vec![unidrive_meta::DeltaRecord::DeleteFile {
                path: "f.txt".into(),
            }],
            stamp(counter),
        );
    }

    /// A delta over the base the store already holds is applied to the
    /// held copy: the base is downloaded when it changes, not beside
    /// every delta — whether the holder read it or wrote it.
    #[test]
    fn unchanged_base_is_not_downloaded_again() {
        let set = clouds(3);
        let mut writer = store(set.clone());
        let (reader_set, reads) = counted(set.iter().map(|(_, cloud)| Arc::clone(cloud)));
        let mut reader = store(reader_set);
        let base_reads = || reads.iter().map(|c| c.downloads_of(BASE_PATH)).sum::<usize>();

        let base = sample_image(1);
        let mut delta = DeltaLog::new(base.version.clone());
        writer.write_remote(Some(&base), &delta, &base.version).unwrap();
        assert_eq!(read(&mut reader).image, base);
        assert_eq!(base_reads(), 1);

        append_commit(&mut delta, 2);
        writer.write_remote(None, &delta, &stamp(2)).unwrap();
        let remote = read(&mut reader);
        assert_eq!(remote.image.version, stamp(2));
        assert!(remote.image.file("f.txt").is_none());
        assert_eq!(base_reads(), 1, "the delta names the held base");
        assert_eq!(remote.base_bytes, set.get(unidrive_cloud::CloudId(0)).download(BASE_PATH).unwrap().len());

        // The reader compacts: what it wrote is what it holds.
        let compacted = sample_image(3);
        let mut delta = DeltaLog::new(compacted.version.clone());
        let stored = reader.write_remote(Some(&compacted), &delta, &compacted.version).unwrap();
        assert_eq!(stored, Some(set.get(unidrive_cloud::CloudId(0)).download(BASE_PATH).unwrap().len()));
        append_commit(&mut delta, 4);
        writer.write_remote(None, &delta, &stamp(4)).unwrap();
        assert_eq!(read(&mut reader).image.version, stamp(4));
        assert_eq!(base_reads(), 1, "its own compaction is not read back");
    }

    /// Only "no such file" means no delta yet. A cloud that fails to
    /// answer for its delta is passed over — not read as an empty log
    /// over its base, a regressed image the version check would have to
    /// catch after a needless base download.
    #[test]
    fn unanswered_delta_is_not_an_empty_delta() {
        let set = clouds(3);
        let mut writer = store(set.clone());
        let base = sample_image(1);
        let mut delta = DeltaLog::new(base.version.clone());
        append_commit(&mut delta, 2);
        writer.write_remote(Some(&base), &delta, &stamp(2)).unwrap();
        let failing: Arc<dyn CloudStore> = Arc::new(FailingDownloads {
            inner: Arc::clone(set.get(unidrive_cloud::CloudId(0))),
            only: "meta.delta",
        });
        let others = [1, 2].map(|i| Arc::clone(set.get(unidrive_cloud::CloudId(i))));
        let (reader_set, reads) = counted(std::iter::once(failing).chain(others));
        let remote = read(&mut store(reader_set));
        assert_eq!(remote.image.version, stamp(2));
        assert_eq!(reads[0].downloads_of(DELTA_PATH), 1);
        assert_eq!(reads[0].downloads_of(BASE_PATH), 0, "no base read for a delta that never came");
        assert_eq!(reads[1].downloads_of(BASE_PATH), 1);
    }

    #[test]
    fn metadata_on_clouds_is_encrypted() {
        let set = clouds(3);
        let mut s = store(set.clone());
        let image = sample_image(1);
        let delta = DeltaLog::new(image.version.clone());
        s.write_remote(Some(&image), &delta, &image.version).unwrap();
        let raw = set.get(unidrive_cloud::CloudId(0)).download(BASE_PATH).unwrap();
        // Ciphertext must not decode as a plaintext image, and must not
        // contain the plaintext path.
        assert!(SyncFolderImage::decode(&raw).is_err());
        assert!(!raw.windows(5).any(|w| w == b"f.txt"));
        // And a wrong passphrase cannot read it.
        let mut wrong = MetadataStore::new(
            Arc::new(RealRuntime::new()),
            set,
            "wrong",
            RetryPolicy::no_retries(),
        );
        let newest = wrong.read_version().expect("version files are plaintext");
        assert_eq!(wrong.read_remote(&newest).unwrap_err(), PlaneError::Unreadable);
    }

    #[test]
    fn reader_picks_newest_version_across_clouds() {
        let set = clouds(3);
        let mut s = store(set.clone());
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
        let mut s_partial = store(partial);
        s_partial.write_remote(Some(&v2), &d2, &v2.version).unwrap();
        // A reader over all three clouds must see v2.
        let remote = read(&mut s);
        assert_eq!(remote.image.version.counter, 2);
    }

    /// A cloud whose version file lags by a commit is never asked for
    /// a body: a fresh reader downloads its version file and nothing
    /// else from it, though it comes first in cloud order.
    #[test]
    fn a_lagging_cloud_is_never_asked_for_a_body() {
        let set = clouds(3);
        let v1 = sample_image(1);
        store(set.clone()).write_remote(Some(&v1), &DeltaLog::new(v1.version.clone()), &v1.version).unwrap();
        let ahead = CloudSet::new([1, 2].map(|i| Arc::clone(set.get(unidrive_cloud::CloudId(i)))).to_vec());
        let v2 = sample_image(2);
        store(ahead).write_remote(Some(&v2), &DeltaLog::new(v2.version.clone()), &v2.version).unwrap();
        let (reader_set, reads) = counted(set.iter().map(|(_, cloud)| Arc::clone(cloud)));
        assert_eq!(read(&mut store(reader_set)).image.version, v2.version);
        assert_eq!(reads[0].calls(), ["download"], "cloud 0: its version file only");
        assert_eq!(reads[0].downloads_of(VERSION_PATH), 1);
    }

    #[test]
    fn quorum_write_failure_detected() {
        let rt: Arc<dyn unidrive_sim::Runtime> = Arc::new(unidrive_sim::RealRuntime::new());
        let mut s = store(crate::lock::tests::clouds_with_dead(&rt, 5, 3));
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
