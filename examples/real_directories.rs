//! Real-bytes demo: the full UniDrive stack — content-defined chunking,
//! non-systematic Reed-Solomon, DES-encrypted metadata, quorum locking —
//! running under **wall-clock time** with five local directories acting
//! as the clouds.
//!
//! ```sh
//! cargo run --example real_directories
//! ```
//!
//! Afterwards, inspect `/tmp/unidrive-demo/clouds/*` to see the lock
//! directory, the encrypted `meta.*` files, and the opaque parity
//! blocks: no single "cloud" directory contains reconstructable data.

use std::sync::Arc;
use std::time::Duration;

use unidrive::cloud::{CloudSet, CloudStore, LocalDirCloud};
use unidrive::core::{
    ClientConfig, DataPlaneConfig, DirFolder, SyncFolder, UniDriveClient,
};
use unidrive::erasure::RedundancyConfig;
use unidrive::sim::{RealRuntime, Runtime, SimRng};

fn main() {
    let base = std::env::temp_dir().join("unidrive-demo");
    let _ = std::fs::remove_dir_all(&base);
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());

    // Five "clouds": local directories.
    let clouds = CloudSet::new(
        (0..5)
            .map(|i| {
                let dir = LocalDirCloud::create(
                    format!("cloud-{i}"),
                    base.join(format!("clouds/cloud-{i}")),
                )
                .expect("create cloud dir");
                Arc::new(dir) as Arc<dyn CloudStore>
            })
            .collect(),
    );

    // Two real directories as the devices' sync folders.
    let folder_a = DirFolder::create(base.join("device-a")).expect("folder a");
    let folder_b = DirFolder::create(base.join("device-b")).expect("folder b");

    let config = |device: &str| {
        let mut c = ClientConfig::paper_default(device);
        c.passphrase = "correct horse battery staple".into();
        c.data = DataPlaneConfig::with_params(
            RedundancyConfig::new(5, 3, 3, 2).expect("valid"),
            512 * 1024,
        );
        c
    };
    let mut a = UniDriveClient::new(
        Arc::clone(&rt),
        clouds.clone(),
        folder_a.clone() as Arc<dyn SyncFolder>,
        config("device-a"),
        SimRng::seed_from_u64(1),
    );
    let mut b = UniDriveClient::new(
        Arc::clone(&rt),
        clouds.clone(),
        folder_b.clone() as Arc<dyn SyncFolder>,
        config("device-b"),
        SimRng::seed_from_u64(2),
    );

    // Write a real 3 MB file on device A.
    let payload: Vec<u8> = (0..3_000_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 256) as u8)
        .collect();
    folder_a.write("media/clip.bin", &payload, 0).expect("write");

    let t = std::time::Instant::now();
    let up = a.sync_once().expect("A sync");
    println!("A uploaded {:?} in {:.2?}", up.uploaded, t.elapsed());

    let t = std::time::Instant::now();
    let down = b.sync_once().expect("B sync");
    println!("B downloaded {:?} in {:.2?}", down.downloaded, t.elapsed());

    let restored = folder_b.read("media/clip.bin").expect("restored");
    assert_eq!(restored.to_vec(), payload);
    println!("contents verified identical on both devices");

    // Show what a cloud actually stores: opaque parity blocks + encrypted
    // metadata. Nothing plaintext.
    let sample = base.join("clouds/cloud-0/unidrive");
    println!("\ncloud-0 stores under {}:", sample.display());
    for entry in std::fs::read_dir(&sample).expect("listing") {
        let entry = entry.expect("entry");
        println!("  {}", entry.file_name().to_string_lossy());
    }
    let meta = std::fs::read(sample.join("meta.base")).expect("meta file");
    assert!(
        !meta.windows(8).any(|w| w == b"clip.bin"),
        "metadata must be encrypted"
    );
    println!("metadata is DES-encrypted (file names not visible in the blob)");

    // Idle pass: nothing to do.
    rt.sleep(Duration::from_millis(50));
    assert!(a.sync_once().expect("idle").is_noop());
}
