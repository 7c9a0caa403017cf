//! End-to-end integration tests for the gear-hash ingest path: full
//! two-device sync through five simulated clouds with
//! `ChunkerKind::Gear`, plus cross-kind interop (the chunker kind is a
//! per-device ingest choice; blocks on the clouds are kind-agnostic).

use std::sync::Arc;
use std::time::Duration;

use unidrive::chunker::ChunkerKind;
use unidrive::cloud::{CloudSet, CloudStore, SimCloud, SimCloudConfig};
use unidrive::core::{ClientConfig, DataPlaneConfig, MemFolder, SyncFolder, UniDriveClient};
use unidrive::erasure::RedundancyConfig;
use unidrive::sim::{SimRng, SimRuntime};

struct Rig {
    sim: Arc<SimRuntime>,
    clouds: CloudSet,
    handles: Vec<Arc<SimCloud>>,
}

fn rig(seed: u64) -> Rig {
    let sim = SimRuntime::new(seed);
    let mut handles = Vec::new();
    let members = (0..5)
        .map(|i| {
            let c = Arc::new(SimCloud::new(
                &sim,
                format!("cloud{i}"),
                SimCloudConfig::steady(2e6, 8e6),
            ));
            handles.push(Arc::clone(&c));
            c as Arc<dyn CloudStore>
        })
        .collect();
    Rig {
        sim,
        clouds: CloudSet::new(members),
        handles,
    }
}

fn client(
    rig: &Rig,
    device: &str,
    folder: &Arc<MemFolder>,
    seed: u64,
    kind: ChunkerKind,
) -> UniDriveClient {
    let mut config = ClientConfig::paper_default(device);
    config.data =
        DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), 64 * 1024);
    config.data.chunker = config.data.chunker.with_kind(kind);
    config.poll_interval = Duration::from_secs(5);
    UniDriveClient::new(
        rig.sim.clone().as_runtime(),
        rig.clouds.clone(),
        Arc::clone(folder) as Arc<dyn SyncFolder>,
        config,
        SimRng::seed_from_u64(seed),
    )
}

fn content(len: usize, tag: u8) -> Vec<u8> {
    // Varied bytes so both hashes find content-defined cuts.
    let mut state = tag as u64 | 0x100;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 | 1);
            (state >> 33) as u8
        })
        .collect()
}

#[test]
fn gear_clients_round_trip() {
    let r = rig(301);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 1, ChunkerKind::Gear);
    let mut b = client(&r, "device-b", &folder_b, 2, ChunkerKind::Gear);

    // Several segments' worth so the cut-point path matters.
    let data = content(500_000, 3);
    folder_a.write("big/asset.bin", &data, 100).unwrap();

    let up = a.sync_once().expect("A commits with gear chunking");
    assert_eq!(up.uploaded, vec!["big/asset.bin"]);

    let down = b.sync_once().expect("B pulls");
    assert_eq!(down.downloaded, vec!["big/asset.bin"]);
    assert_eq!(folder_b.read("big/asset.bin").unwrap().to_vec(), data);

    // Edits round-trip too, and dedup still works within the kind: an
    // identical copy under a new name must be metadata-only traffic.
    let traffic_before: u64 = r.handles.iter().map(|h| h.traffic().uploaded_bytes).sum();
    folder_a.write("big/copy.bin", &data, 200).unwrap();
    a.sync_once().unwrap();
    let traffic_after: u64 = r.handles.iter().map(|h| h.traffic().uploaded_bytes).sum();
    assert!(
        traffic_after - traffic_before < 100_000,
        "gear-kind dedup failed: copy moved {} bytes",
        traffic_after - traffic_before
    );
    b.sync_once().unwrap();
    assert_eq!(folder_b.read("big/copy.bin").unwrap().to_vec(), data);
}

#[test]
fn mixed_kind_devices_interoperate() {
    // Chunker kind is a local ingest decision: a gear device and a
    // rabin device share one folder and see each other's files intact
    // (segment ids are content hashes of whatever cuts the writer
    // chose; readers never re-chunk).
    let r = rig(302);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 11, ChunkerKind::Gear);
    let mut b = client(&r, "device-b", &folder_b, 12, ChunkerKind::Rabin);

    let from_a = content(300_000, 5);
    folder_a.write("from-gear.bin", &from_a, 1).unwrap();
    a.sync_once().unwrap();
    b.sync_once().unwrap();
    assert_eq!(folder_b.read("from-gear.bin").unwrap().to_vec(), from_a);

    let from_b = content(250_000, 6);
    folder_b.write("from-rabin.bin", &from_b, 2).unwrap();
    b.sync_once().unwrap();
    a.sync_once().unwrap();
    assert_eq!(folder_a.read("from-rabin.bin").unwrap().to_vec(), from_b);

    // An edit by the other kind replaces the file cleanly.
    let edited = content(320_000, 7);
    folder_b.write("from-gear.bin", &edited, 3).unwrap();
    b.sync_once().unwrap();
    let rep = a.sync_once().unwrap();
    assert_eq!(rep.downloaded, vec!["from-gear.bin"]);
    assert_eq!(folder_a.read("from-gear.bin").unwrap().to_vec(), edited);
}

#[test]
fn gear_sync_survives_two_cloud_outage() {
    let r = rig(303);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 21, ChunkerKind::Gear);
    let mut b = client(&r, "device-b", &folder_b, 22, ChunkerKind::Gear);

    let data = content(200_000, 9);
    folder_a.write("x.bin", &data, 1).unwrap();
    a.sync_once().unwrap();

    // K_r = 3 of 5: gear-cut blocks obey the same redundancy contract.
    r.handles[0].set_available(false);
    r.handles[3].set_available(false);

    let rep = b.sync_once().expect("B syncs despite two outages");
    assert_eq!(rep.downloaded, vec!["x.bin"]);
    assert_eq!(folder_b.read("x.bin").unwrap().to_vec(), data);
}
