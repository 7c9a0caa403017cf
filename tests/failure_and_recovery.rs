//! Integration tests of the failure paths: outages mid-sync, conflict
//! resolution, over-provisioned-block trimming, delta compaction over
//! long histories, and add/remove-cloud rebalancing driven through the
//! public API.

use std::sync::Arc;
use std::time::Duration;

use unidrive::cloud::{CloudId, CloudSet, CloudStore, SimCloud, SimCloudConfig};
use unidrive::core::{
    add_cloud, remove_cloud, trim_overprovisioned, ClientConfig, DataPlane, DataPlaneConfig,
    MemFolder, SyncFolder, UniDriveClient, UploadOptions, UploadRequest,
};
use unidrive::erasure::RedundancyConfig;
use unidrive::meta::Snapshot;
use unidrive::sim::{Runtime, SimRng, SimRuntime};

struct Rig {
    sim: Arc<SimRuntime>,
    clouds: CloudSet,
    handles: Vec<Arc<SimCloud>>,
}

fn rig(seed: u64, rates: &[f64]) -> Rig {
    let sim = SimRuntime::new(seed);
    let mut handles = Vec::new();
    let members = rates
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let c = Arc::new(SimCloud::new(
                &sim,
                format!("cloud{i}"),
                SimCloudConfig::steady(r, r * 4.0),
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

fn client(rig: &Rig, device: &str, folder: &Arc<MemFolder>, seed: u64) -> UniDriveClient {
    let mut config = ClientConfig::paper_default(device);
    config.data = DataPlaneConfig::with_params(
        RedundancyConfig::new(rig.clouds.len(), 3, 3, 2).unwrap(),
        64 * 1024,
    );
    UniDriveClient::new(
        rig.sim.clone().as_runtime(),
        rig.clouds.clone(),
        Arc::clone(folder) as Arc<dyn SyncFolder>,
        config,
        SimRng::seed_from_u64(seed),
    )
}

fn content(len: usize, tag: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8) ^ tag.wrapping_mul(31)).collect()
}

#[test]
fn commit_survives_minority_outage_and_recovers_majority() {
    let r = rig(1, &[1e6; 5]);
    let folder_a = MemFolder::new();
    let mut a = client(&r, "a", &folder_a, 1);

    // Two clouds down: quorum (3 of 5) still reachable.
    r.handles[0].set_available(false);
    r.handles[1].set_available(false);
    folder_a.write("f.bin", &content(100_000, 1), 1).unwrap();
    let rep = a.sync_once().expect("commit with 3 of 5 clouds");
    assert_eq!(rep.uploaded, vec!["f.bin"]);

    // A fresh device can still read everything, even with the two clouds
    // still dark.
    let folder_b = MemFolder::new();
    let mut b = client(&r, "b", &folder_b, 2);
    let rep = b.sync_once().expect("B pulls");
    assert_eq!(rep.downloaded, vec!["f.bin"]);

    // When the dark clouds return, later commits re-replicate metadata
    // onto them.
    r.handles[0].set_available(true);
    r.handles[1].set_available(true);
    folder_a.write("g.bin", &content(50_000, 2), 2).unwrap();
    a.sync_once().expect("second commit");
    for h in &r.handles {
        assert!(
            h.backing().object_count() > 0,
            "all clouds hold objects again"
        );
    }
}

#[test]
fn majority_outage_blocks_commit_then_recovers() {
    let r = rig(2, &[1e6; 5]);
    let folder = MemFolder::new();
    let mut c = client(&r, "a", &folder, 3);
    for h in r.handles.iter().take(3) {
        h.set_available(false);
    }
    folder.write("f.bin", &content(50_000, 1), 1).unwrap();
    assert!(c.sync_once().is_err(), "no quorum, commit must fail");
    // Nothing half-committed: no metadata version anywhere readable.
    for h in &r.handles {
        h.set_available(true);
    }
    let rep = c.sync_once().expect("retry after recovery");
    assert_eq!(rep.uploaded, vec!["f.bin"]);
}

#[test]
fn conflict_resolution_keep_current_and_keep_copy() {
    let r = rig(3, &[2e6; 5]);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "a", &folder_a, 4);
    let mut b = client(&r, "b", &folder_b, 5);

    folder_a.write("doc", &content(40_000, 1), 1).unwrap();
    a.sync_once().unwrap();
    b.sync_once().unwrap();

    let version_a = content(42_000, 2);
    let version_b = content(44_000, 3);
    folder_a.write("doc", &version_a, 2).unwrap();
    folder_b.write("doc", &version_b, 2).unwrap();
    a.sync_once().unwrap();
    b.sync_once().unwrap();
    assert_eq!(b.conflicts(), vec!["doc"]);

    // Resolve on B by restoring ITS version (the losing copy).
    assert!(b.resolve_conflict("doc", false).unwrap());
    assert!(b.conflicts().is_empty());
    assert_eq!(folder_b.read("doc").unwrap().to_vec(), version_b);
    // The restoration is an ordinary local change: committing it makes
    // B's version current everywhere.
    b.sync_once().unwrap();
    let rep = a.sync_once().unwrap();
    assert!(rep.downloaded.contains(&"doc".to_string()));
    assert_eq!(folder_a.read("doc").unwrap().to_vec(), version_b);

    // Resolving a non-conflicted file reports false.
    assert!(!a.resolve_conflict("doc", true).unwrap());
}

/// Resolving a conflict must not forget where the losing copy's blocks
/// live: its unreferenced pool entries ride in `v_o` until the next
/// commit's GC deletes the block objects from the clouds.
#[test]
fn resolved_conflict_copy_is_deleted_from_the_clouds_by_the_next_commit() {
    let r = rig(7, &[2e6; 5]);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "a", &folder_a, 8);
    let mut b = client(&r, "b", &folder_b, 9);

    folder_a.write("doc", &content(40_000, 1), 1).unwrap();
    a.sync_once().unwrap();
    b.sync_once().unwrap();
    folder_a.write("doc", &content(42_000, 2), 2).unwrap();
    folder_b.write("doc", &content(44_000, 3), 2).unwrap();
    a.sync_once().unwrap();
    b.sync_once().unwrap();
    assert_eq!(b.conflicts(), vec!["doc"]);
    // Let B's detached reliability uploads land and be committed, so
    // the image below knows every block of the copy.
    r.sim.sleep(Duration::from_secs(60));
    b.sync_once().unwrap();

    // Where B's image places the losing copy's blocks.
    let entry = b.image().file("doc").unwrap();
    let (_, copy) = entry.conflict.as_ref().expect("retained copy");
    let objects: Vec<(usize, String)> = copy
        .segments
        .iter()
        .filter(|id| !entry.snapshot.segments.contains(id))
        .flat_map(|id| {
            let blocks = &b.image().segment(id).expect("pooled").blocks;
            blocks.iter().map(move |blk| {
                (
                    blk.cloud as usize,
                    unidrive::meta::block_path(id, blk.index),
                )
            })
        })
        .collect();
    assert!(objects.len() >= 3, "the copy has at least k blocks");
    for (cloud, path) in &objects {
        assert!(r.handles[*cloud].exists(path).unwrap(), "{path} stored");
    }

    // Keep the winner, then commit once more.
    assert!(b.resolve_conflict("doc", true).unwrap());
    folder_b.write("other", &content(10_000, 4), 3).unwrap();
    assert_eq!(b.sync_once().unwrap().uploaded, vec!["other"]);
    assert!(b.conflicts().is_empty());
    for (cloud, path) in &objects {
        assert!(
            !r.handles[*cloud].exists(path).unwrap(),
            "{path} leaked on cloud{cloud}"
        );
    }
}

#[test]
fn trim_after_sync_reclaims_space_without_breaking_reads() {
    let r = rig(4, &[0.2e6, 0.4e6, 1e6, 2e6, 4e6]); // very uneven
    let folder = MemFolder::new();
    let mut c = client(&r, "a", &folder, 6);
    let data = content(300_000, 7);
    folder.write("big.bin", &data, 1).unwrap();
    c.sync_once().unwrap();
    // Let background reliability work drain, then settle the metadata.
    r.sim.sleep(Duration::from_secs(120));
    let _ = c.sync_once();

    let redundancy = RedundancyConfig::new(5, 3, 3, 2).unwrap();
    let mut image = c.image().clone();
    let used_before: u64 = r.handles.iter().map(|h| h.used_bytes()).sum();
    let trimmed = trim_overprovisioned(c.data_plane(), &mut image, &redundancy);
    let used_after: u64 = r.handles.iter().map(|h| h.used_bytes()).sum();
    assert!(trimmed > 0, "uneven clouds must over-provision");
    assert!(used_after < used_before, "trim reclaims quota");
    assert_eq!(
        c.data_plane().download_file(&image, "big.bin").unwrap(),
        data
    );
}

#[test]
fn delta_compaction_keeps_long_histories_readable() {
    let r = rig(5, &[4e6; 5]);
    let folder_a = MemFolder::new();
    let mut a = client(&r, "a", &folder_a, 7);
    // Enough sequential commits to force several λ compactions.
    for i in 0..60 {
        folder_a
            .write(&format!("log/f{i:03}"), &content(20_000, i as u8), i as u64)
            .unwrap();
        a.sync_once().expect("commit");
        r.sim.sleep(Duration::from_secs(5));
    }
    // A brand-new device reconstructs the full history.
    let folder_b = MemFolder::new();
    let mut b = client(&r, "b", &folder_b, 8);
    let rep = b.sync_once().expect("bootstrap");
    assert_eq!(rep.downloaded.len(), 60);
    assert_eq!(folder_b.file_count(), 60);
    assert_eq!(
        folder_b.read("log/f042").unwrap().to_vec(),
        content(20_000, 42)
    );
}

#[test]
fn remove_then_add_cloud_round_trip() {
    let r = rig(6, &[2e6; 5]);
    let rt = r.sim.clone().as_runtime();
    let config = DataPlaneConfig::with_params(
        RedundancyConfig::new(5, 3, 3, 2).unwrap(),
        64 * 1024,
    );
    let plane = DataPlane::new(rt.clone(), r.clouds.clone(), config.clone());
    let data: unidrive_util::bytes::Bytes = content(250_000, 9).into();
    let (report, segs) = plane.upload_files(
        vec![UploadRequest {
            path: "x".into(),
            data: data.clone(),
        }],
        &Default::default(),
        UploadOptions::default(),
    );
    assert!(report.all_available());
    let mut image = unidrive::meta::SyncFolderImage::new();
    for (id, len) in &segs[0].segments {
        image.ensure_segment(*id, *len);
    }
    for (id, b) in &report.blocks {
        image.record_block(*id, *b);
    }
    image.upsert_file(
        "x",
        Snapshot {
            mtime_ns: 0,
            size: segs[0].size,
            segments: segs[0].segments.iter().map(|(id, _)| *id).collect(),
        },
    );

    // Remove cloud 2; file must stay fully readable with 4 clouds.
    let removed = remove_cloud(&rt, &r.clouds, &config, &image, CloudId(2)).expect("remove");
    assert_eq!(removed.clouds.len(), 4);
    let mut cfg4 = config.clone();
    cfg4.redundancy = removed.redundancy;
    let plane4 = DataPlane::new(rt.clone(), removed.clouds.clone(), cfg4.clone());
    assert_eq!(
        plane4.download_file(&removed.image, "x").unwrap(),
        data.to_vec()
    );
    // No block references the removed cloud index range.
    for (_, entry) in removed.image.segments() {
        for b in &entry.blocks {
            assert!((b.cloud as usize) < 4);
        }
    }

    // Add a fresh cloud; the newcomer must receive its fair share.
    let newcomer = Arc::new(SimCloud::new(
        &r.sim,
        "fresh",
        SimCloudConfig::steady(2e6, 8e6),
    ));
    let grown = add_cloud(
        &rt,
        &removed.clouds,
        &cfg4,
        &removed.image,
        newcomer as Arc<dyn CloudStore>,
    )
    .expect("add");
    assert_eq!(grown.clouds.len(), 5);
    let fair = grown.redundancy.fair_share();
    for (_, entry) in grown.image.segments() {
        assert!(entry.blocks_on(4) >= fair, "newcomer holds its fair share");
    }
    let mut cfg5 = cfg4.clone();
    cfg5.redundancy = grown.redundancy;
    let plane5 = DataPlane::new(rt, grown.clouds.clone(), cfg5);
    assert_eq!(
        plane5.download_file(&grown.image, "x").unwrap(),
        data.to_vec()
    );
}

#[test]
fn removing_below_k_r_is_rejected() {
    let r = rig(7, &[1e6, 1e6, 1e6]);
    let rt = r.sim.clone().as_runtime();
    let config = DataPlaneConfig::with_params(
        RedundancyConfig::new(3, 3, 3, 2).unwrap(),
        64 * 1024,
    );
    let image = unidrive::meta::SyncFolderImage::new();
    assert!(remove_cloud(&rt, &r.clouds, &config, &image, CloudId(0)).is_err());
}

#[test]
fn quota_exhaustion_fails_over_to_other_clouds() {
    let sim = SimRuntime::new(8);
    let mut handles = Vec::new();
    let members: Vec<Arc<dyn CloudStore>> = (0..5)
        .map(|i| {
            let mut cfg = SimCloudConfig::steady(2e6, 8e6);
            if i == 0 {
                cfg.quota_bytes = Some(20_000); // tiny quota on cloud 0
            }
            let c = Arc::new(SimCloud::new(&sim, format!("c{i}"), cfg));
            handles.push(Arc::clone(&c));
            c as Arc<dyn CloudStore>
        })
        .collect();
    let clouds = CloudSet::new(members);
    let plane = DataPlane::new(
        sim.clone().as_runtime(),
        clouds,
        DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), 64 * 1024),
    );
    let data: unidrive_util::bytes::Bytes = content(300_000, 5).into();
    let (report, _) = plane.upload_files(
        vec![UploadRequest {
            path: "f".into(),
            data,
        }],
        &Default::default(),
        UploadOptions::default(),
    );
    assert!(report.all_available(), "quota failure must not block availability");
    // Cloud 0 holds at most what its quota allowed; other clouds
    // adopted its share.
    assert!(handles[0].used_bytes() <= 20_000);
    let on_others = report.blocks.iter().filter(|(_, b)| b.cloud != 0).count();
    assert!(on_others >= 5, "orphaned blocks re-homed");
}
