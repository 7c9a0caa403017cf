//! Add/remove-cloud demo (paper §6.2, "Adding or Removing CCSs"):
//! upload through five clouds, drop one provider (its fair share is
//! re-homed onto the survivors), then enroll a new one (its fair share
//! is minted and uploaded).
//!
//! ```sh
//! cargo run --example membership_change
//! ```

use std::collections::HashSet;
use std::sync::Arc;

use unidrive::cloud::{CloudId, CloudSet, CloudStore, SimCloud, SimCloudConfig};
use unidrive::core::{add_cloud, remove_cloud, DataPlane, DataPlaneConfig, UploadRequest};
use unidrive::erasure::RedundancyConfig;
use unidrive::meta::{Snapshot, SyncFolderImage};
use unidrive::sim::SimRuntime;
use unidrive::workload::random_bytes;

fn placement(image: &SyncFolderImage, clouds: usize) -> Vec<usize> {
    let mut per_cloud = vec![0usize; clouds];
    for (_, entry) in image.segments() {
        for b in &entry.blocks {
            per_cloud[b.cloud as usize] += 1;
        }
    }
    per_cloud
}

fn main() {
    let sim = SimRuntime::new(3);
    let mk_cloud = |name: &str| {
        Arc::new(SimCloud::new(&sim, name, SimCloudConfig::steady(1.5e6, 6e6)))
            as Arc<dyn CloudStore>
    };
    let clouds = CloudSet::new(
        ["dropbox", "onedrive", "gdrive", "baidu", "dbank"]
            .iter()
            .map(|n| mk_cloud(n))
            .collect(),
    );

    let config = DataPlaneConfig::with_params(
        RedundancyConfig::new(5, 3, 3, 2).expect("valid"),
        256 * 1024,
    );
    let plane = DataPlane::new(sim.clone().as_runtime(), clouds, config);

    // Upload a file and build its metadata image.
    let data = random_bytes(1_500_000, 5);
    let (report, segs) = plane.upload_files(
        vec![UploadRequest {
            path: "album.zip".into(),
            data: data.clone(),
        }],
        &HashSet::new(),
        None,
        None,
    );
    assert!(report.all_available());
    let mut image = SyncFolderImage::new();
    for (id, len) in &segs[0].segments {
        image.ensure_segment(*id, *len);
    }
    for (id, b) in &report.blocks {
        image.record_block(*id, *b);
    }
    image.upsert_file(
        "album.zip",
        Snapshot {
            segments: segs[0].segments.iter().map(|(id, _)| *id).collect(),
        },
    );
    println!("initial block placement: {:?}", placement(&image, 5));

    // The user cancels their Baidu account (cloud index 3).
    let removed = remove_cloud(&plane, &image, CloudId(3)).expect("rebalance on removal");
    println!(
        "after removing baidu ({} blocks moved): {:?}",
        removed.blocks_moved,
        placement(&removed.image, 4)
    );
    // Still fully downloadable from the survivors, through the data
    // plane the change hands back.
    let restored = removed
        .plane
        .download_file(&removed.image, "album.zip")
        .expect("post-removal download");
    assert_eq!(restored, data.to_vec());
    println!("post-removal download verified");

    // The user enrolls a new provider.
    let grown = add_cloud(&removed.plane, &removed.image, mk_cloud("mega"))
        .expect("rebalance on addition");
    println!(
        "after adding mega ({} blocks moved): {:?}",
        grown.blocks_moved,
        placement(&grown.image, 5)
    );
    let restored = grown
        .plane
        .download_file(&grown.image, "album.zip")
        .expect("post-addition download");
    assert_eq!(restored, data.to_vec());
    println!("post-addition download verified; the newcomer holds a fair share");
}
