//! A micro-benchmark wrapper giving UniDrive's data plane the same
//! `upload`/`download` interface as the baselines, so the evaluation
//! harness can compare all four systems uniformly (paper Figs. 8-10).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;
use unidrive_cloud::{CloudError, CloudSet};
use unidrive_core::{DataPlane, DataPlaneConfig, SegmentFetch, UploadOptions, UploadRequest};
use unidrive_meta::{BlockRef, SegmentId};
use unidrive_sim::Runtime;

use crate::benchmark::SegmentManifest;

/// UniDrive's data plane behind the uniform transfer interface.
pub struct UniDriveTransfer {
    rt: Arc<dyn Runtime>,
    plane: DataPlane,
    /// name → ordered (segment, len) plus block locations.
    manifest: Mutex<HashMap<String, SegmentManifest>>,
}

impl std::fmt::Debug for UniDriveTransfer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniDriveTransfer").finish()
    }
}

impl UniDriveTransfer {
    /// Creates the wrapper over `clouds`.
    pub fn new(rt: Arc<dyn Runtime>, clouds: CloudSet, config: DataPlaneConfig) -> Self {
        UniDriveTransfer {
            plane: DataPlane::new(Arc::clone(&rt), clouds, config),
            rt,
            manifest: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped data plane.
    pub fn plane(&self) -> &DataPlane {
        &self.plane
    }

    /// Uploads one file through the full UniDrive upload path, returning
    /// the *available time* (the paper's headline metric).
    ///
    /// # Errors
    ///
    /// [`CloudError::Transient`] if availability could not be reached.
    pub fn upload(&self, name: &str, data: Bytes) -> Result<Duration, CloudError> {
        let (report, segmentations) = self.plane.upload_files(
            vec![UploadRequest {
                path: name.to_owned(),
                data,
            }],
            &HashSet::new(),
            UploadOptions::default(),
        );
        let Some(available) = report.available_duration() else {
            return Err(CloudError::transient("upload did not reach availability"));
        };
        let mut by_seg: HashMap<SegmentId, Vec<BlockRef>> = HashMap::new();
        for (id, b) in &report.blocks {
            by_seg.entry(*id).or_default().push(*b);
        }
        let manifest = segmentations[0]
            .segments
            .iter()
            .map(|(id, len)| (*id, *len, by_seg.get(id).cloned().unwrap_or_default()))
            .collect();
        self.manifest.lock().insert(name.to_owned(), manifest);
        Ok(available)
    }

    /// Downloads one file through the dynamic download scheduler.
    ///
    /// # Errors
    ///
    /// [`CloudError`] on unknown names or unreachable segments.
    pub fn download(&self, name: &str) -> Result<(Duration, Vec<u8>), CloudError> {
        let manifest = self
            .manifest
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| CloudError::not_found(name))?;
        let t0 = self.rt.now();
        let segments: Vec<SegmentId> = manifest.iter().map(|(id, _, _)| *id).collect();
        let locate = |id: &SegmentId| {
            let (_, len, blocks) = manifest.iter().find(|(known, _, _)| known == id)?;
            Some(SegmentFetch {
                id: *id,
                len: *len,
                blocks: blocks.clone(),
            })
        };
        let file = [&segments[..]];
        let mut contents = self
            .plane
            .download_files(&file, &[], locate, None)
            .map_err(|e| CloudError::transient(format!("download incomplete: {e}")))?;
        let out = contents.next().expect("one file asked for, one returned");
        Ok((self.rt.now().saturating_duration_since(t0), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidrive_cloud::{CloudStore, SimCloud, SimCloudConfig};
    use unidrive_erasure::RedundancyConfig;
    use unidrive_sim::SimRuntime;

    #[test]
    fn uniform_interface_round_trips() {
        let sim = SimRuntime::new(1);
        let clouds = CloudSet::new(
            (0..5)
                .map(|i| {
                    Arc::new(SimCloud::new(
                        &sim,
                        format!("c{i}"),
                        SimCloudConfig::steady(2e6, 10e6),
                    )) as Arc<dyn CloudStore>
                })
                .collect(),
        );
        let config = DataPlaneConfig::with_params(
            RedundancyConfig::paper_default(),
            128 * 1024,
        );
        let client = UniDriveTransfer::new(sim.clone().as_runtime(), clouds, config);
        let data = Bytes::from((0..400_000u32).map(|i| (i % 256) as u8).collect::<Vec<_>>());
        let up = client.upload("f", data.clone()).unwrap();
        assert!(up > Duration::ZERO);
        let (down, restored) = client.download("f").unwrap();
        assert!(down > Duration::ZERO);
        assert_eq!(restored, data.to_vec());
    }
}
