//! **Table 3** — overall sync overhead (§7.2): additional network
//! traffic relative to the content a system had to move. The paper
//! measures ~1 % for UniDrive (Delta-sync + tiny version files keep the
//! control traffic small), ~1-7 % for native apps, and ~15 % for the
//! intuitive solution (every sync involves all five CCSs' protocols).
//!
//! Accounting follows the paper: the overhead is "the ratio of
//! additional network traffic to the actual sync'd data size", where
//! the sync'd data is every content block/chunk/part payload a system
//! moved (erasure parity and over-provisioned blocks are sync'd data —
//! they are how these systems store files), and the *additional*
//! traffic is HTTP request overhead, listings, metadata, version and
//! lock files.

use std::sync::Arc;
use std::time::Duration;

use crate::{figures::Ctx, paper_client};
use unidrive_baseline::{IntuitiveMultiCloud, MultiCloudBenchmark, SingleCloudClient};
use unidrive_cloud::CloudId;
use unidrive_core::{MemFolder, SyncFolder, UniDriveClient};
use unidrive_erasure::RedundancyConfig;
use unidrive_meta::MetaMode;
use unidrive_sim::{Runtime, SimRng, SimRuntime};
use unidrive_workload::{batch, build_multicloud_shared, site_by_name, TextTable};

/// Counts the payload bytes of *content* objects (erasure blocks and
/// native chunks), pass-through for everything else.
struct ContentCounter {
    inner: std::sync::Arc<dyn unidrive_cloud::CloudStore>,
    bytes: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ContentCounter {
    fn is_content(path: &str) -> bool {
        path.starts_with("unidrive/blocks/") || path.starts_with("native/")
    }
}

impl unidrive_cloud::CloudStore for ContentCounter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: unidrive_util::bytes::Bytes) -> Result<(), unidrive_cloud::CloudError> {
        let len = data.len() as u64;
        let r = self.inner.upload(path, data);
        if r.is_ok() && Self::is_content(path) {
            self.bytes.fetch_add(len, std::sync::atomic::Ordering::Relaxed);
        }
        r
    }
    fn download(&self, path: &str) -> Result<unidrive_util::bytes::Bytes, unidrive_cloud::CloudError> {
        let r = self.inner.download(path);
        if let Ok(data) = &r {
            if Self::is_content(path) {
                self.bytes
                    .fetch_add(data.len() as u64, std::sync::atomic::Ordering::Relaxed);
            }
        }
        r
    }
    fn create_dir(&self, path: &str) -> Result<(), unidrive_cloud::CloudError> {
        self.inner.create_dir(path)
    }
    fn list(&self, path: &str) -> Result<Vec<unidrive_cloud::ObjectInfo>, unidrive_cloud::CloudError> {
        self.inner.list(path)
    }
    fn delete(&self, path: &str) -> Result<(), unidrive_cloud::CloudError> {
        self.inner.delete(path)
    }
}

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let (count, size) = scale.batch;
    let oregon = site_by_name("Oregon").expect("site");
    let virginia = site_by_name("Virginia").expect("site");
    let redundancy = RedundancyConfig::paper_default();

    println!(
        "Table 3: sync overhead (%) for {count} x {} KB batch, Oregon -> Virginia\n",
        size / 1024
    );
    let mut table = TextTable::new(&["system", "traffic MB", "content MB", "overhead %"]);

    let run = |label: &str, sys_idx: usize| -> (String, f64, f64) {
        let sim = SimRuntime::new(1303);
        let (raw_sets, handles) = build_multicloud_shared(&sim, &[oregon, virginia]);
        let rt = sim.clone().as_runtime();
        let files = batch(count, size, 1303);
        let content_bytes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sets: Vec<unidrive_cloud::CloudSet> = raw_sets
            .iter()
            .map(|set| {
                unidrive_cloud::CloudSet::new(
                    set.iter()
                        .map(|(_, cloud)| {
                            std::sync::Arc::new(ContentCounter {
                                inner: std::sync::Arc::clone(cloud),
                                bytes: std::sync::Arc::clone(&content_bytes),
                            }) as std::sync::Arc<dyn unidrive_cloud::CloudStore>
                        })
                        .collect(),
                )
            })
            .collect();
        match sys_idx {
            0 => {
                for handle in handles.iter().flatten() {
                    handle.install_obs(cx.obs.clone());
                }
                let config =
                    |device: &str| paper_client(device, scale.theta, &cx.obs, MetaMode::Lock);
                let folder = MemFolder::new();
                let mut up = UniDriveClient::new(
                    rt.clone(),
                    sets[0].clone(),
                    Arc::clone(&folder) as Arc<dyn SyncFolder>,
                    config("src"),
                    SimRng::seed_from_u64(1),
                );
                let down_folder = MemFolder::new();
                let mut down = UniDriveClient::new(
                    rt.clone(),
                    sets[1].clone(),
                    down_folder as Arc<dyn SyncFolder>,
                    config("dst"),
                    SimRng::seed_from_u64(2),
                );
                for group in files.chunks(10) {
                    for (path, data) in group {
                        folder.write(path, data, 1).expect("write");
                    }
                    let _ = up.sync_once();
                    let _ = down.sync_once();
                }
                // Let background reliability finish, then settle both.
                sim.sleep(Duration::from_secs(600));
                for _ in 0..5 {
                    let _ = up.sync_once();
                    let _ = down.sync_once();
                }
            }
            1 => {
                let src = MultiCloudBenchmark::new(rt.clone(), sets[0].clone(), redundancy, 5)
                    .with_chunk_size(scale.theta);
                let dst = MultiCloudBenchmark::new(rt.clone(), sets[1].clone(), redundancy, 5)
                    .with_chunk_size(scale.theta);
                for (path, data) in &files {
                    if src.upload(path, data.clone()).is_ok() {
                        if let Some(m) = src.manifest_of(path) {
                            dst.adopt_manifest(path, m);
                            let _ = dst.download(path);
                        }
                    }
                }
            }
            2 => {
                let src = IntuitiveMultiCloud::new(rt.clone(), &sets[0], 5);
                let dst = IntuitiveMultiCloud::new(rt.clone(), &sets[1], 5);
                for (path, data) in &files {
                    if src.upload(path, data.clone()).is_ok() {
                        dst.assume_uploaded(path, data.len() as u64);
                        let _ = dst.download(path);
                    }
                }
            }
            n => {
                let provider = CloudId(n - 3);
                let src =
                    SingleCloudClient::new(rt.clone(), Arc::clone(sets[0].get(provider)), 5);
                let dst =
                    SingleCloudClient::new(rt.clone(), Arc::clone(sets[1].get(provider)), 5);
                for (path, data) in &files {
                    if src.upload(path, data.clone()).is_ok() {
                        dst.assume_uploaded(path, data.len() as u64);
                        let _ = dst.download(path);
                    }
                }
            }
        }
        let traffic: u64 = handles
            .iter()
            .flatten()
            .map(|h| h.traffic().total_bytes())
            .sum();
        let content = content_bytes.load(std::sync::atomic::Ordering::Relaxed) as f64;
        (label.to_owned(), traffic as f64, content)
    };

    let systems = [
        ("UniDrive", 0usize),
        ("Benchmark", 1),
        ("Intuitive", 2),
        ("Dropbox", 3),
        ("OneDrive", 4),
        ("GoogleDrive", 5),
        ("BaiduPCS", 6),
        ("DBank", 7),
    ];
    for (label, idx) in systems {
        let (label, traffic, content) = run(label, idx);
        let overhead = 100.0 * (traffic - content) / content;
        table.row(vec![
            label,
            format!("{:.1}", traffic / 1e6),
            format!("{:.1}", content / 1e6),
            format!("{overhead:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(paper: UniDrive 1.04%, benchmark 1.01%, intuitive 14.93%, natives 0.70-7.07%)"
    );
}
