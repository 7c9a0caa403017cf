//! Integration tests of the failure paths: outages mid-sync, conflict
//! resolution, the idle-pass scrub after a device is dropped, delta
//! compaction over long histories, and add/remove-cloud rebalancing
//! driven through the public API.

use std::sync::Arc;
use std::time::Duration;

use unidrive::cloud::{
    ChaosCloud, CloudBuilder, CloudId, CloudOp, CloudSet, CloudStore, FaultEvent, FaultKind,
    FaultPlan, SimCloud, SimCloudConfig,
};
use unidrive::core::{
    add_cloud, remove_cloud, ClientConfig, DataPlane, DataPlaneConfig, DownloadError, MemFolder,
    RebalanceError, SyncFolder, UniDriveClient, UploadRequest,
};
use unidrive::erasure::RedundancyConfig;
use unidrive::meta::{MetaMode, Snapshot, BLOCKS_DIR};
use unidrive::obs::{Obs, Registry};
use unidrive::sim::{Runtime, SimRng, SimRuntime, Time};

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
    config.data = data_config(rig);
    UniDriveClient::new(
        rig.sim.clone().as_runtime(),
        rig.clouds.clone(),
        Arc::clone(folder) as Arc<dyn SyncFolder>,
        config,
        SimRng::seed_from_u64(seed),
    )
}

/// Device "a" over `rig`'s clouds, with list and download refused on
/// clouds 0–2 over [1000, 2000) s: block uploads go through, the quorum
/// lock does not.
fn client_in_metadata_outage(rig: &Rig) -> (Arc<MemFolder>, UniDriveClient) {
    let rt = rig.sim.clone().as_runtime();
    let outage = |cloud: usize| {
        FaultEvent::always(format!("cloud{cloud}"), FaultKind::Outage)
            .window_secs(1000, 2000)
            .on_ops(&[CloudOp::List, CloudOp::Download])
    };
    let plan = FaultPlan::with_events(3, (0..3).map(outage).collect());
    let members = rig.clouds.iter().map(|(_, cloud)| {
        CloudBuilder::new(&rt, Arc::clone(cloud))
            .chaos(&plan, "")
            .build()
            .store
    });
    let clouds = CloudSet::new(members.collect());
    let folder = MemFolder::new();
    let mut config = ClientConfig::paper_default("a");
    config.data = data_config(rig);
    let client = UniDriveClient::new(
        rt,
        clouds,
        Arc::clone(&folder) as Arc<dyn SyncFolder>,
        config,
        SimRng::seed_from_u64(1),
    );
    (folder, client)
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

/// Resolving a conflict is a change like any other: the next commit
/// deletes the copy's blocks from the clouds, and a peer's next pass
/// clears the copy too, so both devices end with the same files and
/// copies. Both planes.
#[test]
fn resolved_conflict_copy_is_deleted_from_the_clouds_by_the_next_commit() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(7, &[2e6; 5]);
        let device = |name: &str, folder: &Arc<MemFolder>, seed: u64| {
            let mut config = ClientConfig::paper_default(name);
            config.data = data_config(&r);
            config.meta_mode = mode;
            UniDriveClient::new(
                r.sim.clone().as_runtime(),
                r.clouds.clone(),
                Arc::clone(folder) as Arc<dyn SyncFolder>,
                config,
                SimRng::seed_from_u64(seed),
            )
        };
        let folder_a = MemFolder::new();
        let folder_b = MemFolder::new();
        let mut a = device("a", &folder_a, 8);
        let mut b = device("b", &folder_b, 9);

        folder_a.write("doc", &content(40_000, 1), 1).unwrap();
        a.sync_once().unwrap();
        b.sync_once().unwrap();
        folder_a.write("doc", &content(42_000, 2), 2).unwrap();
        folder_b.write("doc", &content(44_000, 3), 2).unwrap();
        a.sync_once().unwrap();
        b.sync_once().unwrap();
        assert_eq!(b.conflicts(), vec!["doc"], "{mode:?}");
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
        assert_eq!(b.sync_once().unwrap().uploaded, vec!["other"], "{mode:?}");
        assert!(b.conflicts().is_empty(), "{mode:?}");
        for (cloud, path) in &objects {
            assert!(
                !r.handles[*cloud].exists(path).unwrap(),
                "{mode:?}: {path} leaked on cloud{cloud}"
            );
        }

        // Once B has settled, one pass of A sees the resolution.
        r.sim.sleep(Duration::from_secs(60));
        b.sync_once().unwrap();
        a.sync_once().unwrap();
        assert!(a.conflicts().is_empty(), "{mode:?}: A still lists {:?}", a.conflicts());
        assert_eq!(a.fetch_conflict_copy("doc").unwrap(), None, "{mode:?}");
        let files = |c: &UniDriveClient| {
            let files = c.image().files();
            files.map(|(p, e)| (p.to_owned(), e.clone())).collect::<Vec<_>>()
        };
        assert_eq!(files(&a), files(&b), "{mode:?}");
    }
}

/// Block GC runs on the engine, so a delete that fails transiently is
/// retried under `DataPlaneConfig::retry`. (It used to be dropped by a
/// `let _ =` — after `collect_garbage` had already forgotten the pool
/// entry, which leaked the block for good.)
#[test]
fn a_transiently_failing_delete_does_not_leak_the_block() {
    let r = rig(9, &[2e6; 5]);
    let (clouds, chaos) = with_late_burst(&r, 1, CloudOp::Delete);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let device = |name: &str, folder: &Arc<MemFolder>, seed: u64| {
        let mut config = ClientConfig::paper_default(name);
        config.data = data_config(&r);
        config.data.retry.max_attempts = 12;
        UniDriveClient::new(
            r.sim.clone().as_runtime(),
            clouds.clone(),
            Arc::clone(folder) as Arc<dyn SyncFolder>,
            config,
            SimRng::seed_from_u64(seed),
        )
    };
    let mut a = device("a", &folder_a, 1);
    let mut b = device("b", &folder_b, 2);

    folder_a.write("doc", &content(150_000, 1), 1).unwrap();
    a.sync_once().unwrap();
    // Let the detached reliability uploads land and be committed, so
    // the image knows every block of the first version.
    r.sim.sleep(Duration::from_secs(2000)); // and into the burst
    a.sync_once().unwrap();
    b.sync_once().unwrap();
    let old: Vec<(usize, String)> = a
        .image()
        .segments()
        .flat_map(|(id, entry)| {
            entry
                .blocks
                .iter()
                .map(move |blk| (blk.cloud as usize, unidrive::meta::block_path(id, blk.index)))
        })
        .collect();
    assert!(old.iter().filter(|(cloud, _)| *cloud == 1).count() >= 3);

    // Overwrite: the commit collects every segment of the old version.
    folder_a.write("doc", &content(150_000, 2), 2).unwrap();
    assert_eq!(a.sync_once().unwrap().uploaded, vec!["doc"]);
    assert!(chaos.injected_faults() > 0, "the burst never fired");
    for (cloud, path) in &old {
        assert!(
            !r.handles[*cloud].exists(path).unwrap(),
            "{path} leaked on cloud{cloud}"
        );
    }
    assert_eq!(b.sync_once().unwrap().downloaded, vec!["doc"]);
    assert_eq!(folder_b.read("doc").unwrap().to_vec(), content(150_000, 2));
}

/// A commit that fails after draining the placements detached workers
/// reported must hand them to the next one. One slow cloud, so the
/// first file's reliability blocks land after its commit; the pass that
/// would record them also uploads a second file, and loses its
/// transaction to a metadata outage on three clouds (list and download
/// refused: block uploads go through, the quorum lock does not).
#[test]
fn a_failed_commit_keeps_the_placements_it_drained() {
    const SLOW: usize = 4;
    let r = rig(21, &[2e6, 2e6, 2e6, 2e6, 2e3]);
    let (folder, mut a) = client_in_metadata_outage(&r);

    folder.write("first", &content(150_000, 1), 1).unwrap();
    assert_eq!(a.sync_once().unwrap().uploaded, vec!["first"]);
    let on_slow = |a: &UniDriveClient| {
        let live = a.image().referenced();
        let segments = a.image().segments().filter(|(id, _)| live.contains(id));
        let shares =
            segments.map(|(_, e)| e.blocks.iter().filter(|b| b.cloud as usize == SLOW).count());
        shares.collect::<Vec<usize>>()
    };
    assert!(
        on_slow(&a).contains(&0),
        "test premise: the slow cloud's blocks land after the first commit"
    );

    // Into the outage, stragglers landed: this pass drains them, uploads
    // `second`, and cannot commit.
    r.sim.sleep(Time::from_secs(1000) - r.sim.now());
    folder.write("second", &content(90_000, 2), 1).unwrap();
    assert!(
        a.sync_once().is_err(),
        "the metadata outage must fail the commit"
    );

    r.sim.sleep(Duration::from_secs(1100));
    assert_eq!(a.sync_once().unwrap().uploaded, vec!["second"]);
    for _ in 0..4 {
        r.sim.sleep(Duration::from_secs(600));
        a.sync_once().unwrap();
    }
    assert!(a.sync_once().unwrap().is_noop());
    assert_eq!(a.data_plane().audit(a.image()).unnamed, vec![]);
    let fair = data_config(&r).redundancy.fair_share();
    assert!(
        on_slow(&a).iter().all(|&held| held >= fair),
        "a live segment's fair share on the slow cloud is unrecorded: {:?}",
        on_slow(&a)
    );
}

/// A failed pass's own placements are named by the retry that commits
/// them. `second`'s commit fails in a metadata outage on three clouds,
/// after some of its blocks landed and while its stragglers land. Its
/// retry runs with cloud 4 down, so the blocks cloud 4 took in the
/// first attempt go elsewhere this time; the first attempt's objects on
/// cloud 4 must still end up named, or GC can never delete them.
#[test]
fn a_retry_that_places_elsewhere_names_the_failed_passs_blocks() {
    const DOWN: usize = 4;
    let r = rig(22, &[2e6; 5]);
    let (folder, mut a) = client_in_metadata_outage(&r);

    let blocks_on_down = || {
        let store = r.handles[DOWN].backing();
        store.list(BLOCKS_DIR).unwrap_or_default().len()
    };
    folder.write("first", &content(150_000, 1), 1).unwrap();
    assert_eq!(a.sync_once().unwrap().uploaded, vec!["first"]);
    r.sim.sleep(Time::from_secs(1000) - r.sim.now());
    let before = blocks_on_down();
    folder.write("second", &content(90_000, 2), 1).unwrap();
    assert!(
        a.sync_once().is_err(),
        "the metadata outage must fail the commit"
    );

    // The stragglers land; the retry runs without cloud 4.
    r.sim.sleep(Time::from_secs(2100) - r.sim.now());
    assert!(
        blocks_on_down() > before,
        "test premise: the failed pass put blocks of `second` on cloud {DOWN}"
    );
    r.handles[DOWN].set_available(false);
    assert_eq!(a.sync_once().unwrap().uploaded, vec!["second"]);
    r.handles[DOWN].set_available(true);
    for _ in 0..4 {
        r.sim.sleep(Duration::from_secs(600));
        a.sync_once().unwrap();
    }
    assert!(a.sync_once().unwrap().is_noop());
    assert_eq!(a.data_plane().audit(a.image()).unnamed, vec![]);
}

/// Device "w" commits eight 200 KB files in one pass and is dropped
/// right after: the reliability placements its detached workers land
/// later are named by no image. Device "s" then runs one scrub cycle —
/// two idle passes ΔT apart, then the pass that commits what the second
/// adopted and repaired. Afterwards the audit finds nothing unnamed and
/// no live segment below fair share, and every file reads back with any
/// N − K_r clouds down. `refuse_slowest` has the slowest cloud refuse
/// uploads while "w" lives: there is nothing to adopt there, so the
/// scrub's repair must mint that cloud's share. Both planes.
fn one_scrub_cycle_after_a_dropped_device(seed: u64, rates: &[f64], refuse_slowest: bool) {
    let files: Vec<Vec<u8>> = (0..8).map(|i| content(200_000, i)).collect();
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(seed, rates);
        let slowest = rates.len() - 1;
        let refusal = FaultEvent::always(format!("cloud{slowest}"), FaultKind::Outage)
            .window_secs(0, 600)
            .on_ops(&[CloudOp::Upload]);
        let clouds = match refuse_slowest {
            false => r.clouds.clone(),
            true => with_fault(&r, slowest, refusal).0,
        };
        let registry = Registry::new();
        let device = |name: &str, folder: &Arc<MemFolder>, obs: Obs| {
            let mut config = ClientConfig::paper_default(name);
            config.data = DataPlaneConfig { obs, ..data_config(&r) };
            config.meta_mode = mode;
            UniDriveClient::new(
                r.sim.clone().as_runtime(),
                clouds.clone(),
                Arc::clone(folder) as Arc<dyn SyncFolder>,
                config,
                SimRng::seed_from_u64(seed),
            )
        };
        let (folder_w, folder_s) = (MemFolder::new(), MemFolder::new());
        let mut s = device("s", &folder_s, Obs::with_registry(Arc::clone(&registry)));
        let mut w = device("w", &folder_w, Obs::noop());
        for (i, data) in files.iter().enumerate() {
            folder_w.write(&format!("f{i}"), data, 1).unwrap();
        }
        assert_eq!(w.sync_once().unwrap().uploaded.len(), files.len(), "{mode:?}");
        drop(w);
        r.sim.sleep(Duration::from_secs(600));
        assert_eq!(s.sync_once().unwrap().downloaded.len(), files.len(), "{mode:?}");
        let before = s.data_plane().audit(s.image());
        assert!(!before.short.is_empty(), "{mode:?}: test premise, a segment below fair share");

        let dt = ClientConfig::paper_default("s").lock.stale_after;
        assert!(s.sync_once().unwrap().is_noop(), "{mode:?}: first sighting");
        r.sim.sleep(dt);
        assert!(s.sync_once().unwrap().is_noop(), "{mode:?}: second sighting");
        s.sync_once().unwrap();
        let after = s.data_plane().audit(s.image());
        let left = (after.unnamed, after.short, after.missing);
        assert_eq!(left, (vec![], vec![], vec![]), "{mode:?}");
        let series = registry.series_snapshot();
        let adopted = series.merged("scrub.adopted").sum as usize;
        assert_eq!(adopted, before.unnamed.len(), "{mode:?}");
        let repaired = series.merged("scrub.repaired").sum;
        assert_eq!(repaired > 0, refuse_slowest, "{mode:?}: {repaired} blocks repaired");

        // N − K_r = 2: every pair of clouds down.
        for (a, b) in (0..5).flat_map(|a| (a + 1..5).map(move |b| (a, b))) {
            r.handles[a].set_available(false);
            r.handles[b].set_available(false);
            for (i, data) in files.iter().enumerate() {
                let got = s.data_plane().download_file(s.image(), &format!("f{i}"));
                assert_eq!(got.as_deref(), Ok(&data[..]), "{mode:?}: f{i} with clouds {a} and {b} down");
            }
            r.handles[a].set_available(true);
            r.handles[b].set_available(true);
        }
    }
}

#[test]
fn one_scrub_cycle_restores_fair_share_after_a_dropped_device_on_equal_clouds() {
    one_scrub_cycle_after_a_dropped_device(31, &[2e6; 5], false);
}

#[test]
fn one_scrub_cycle_restores_fair_share_after_a_dropped_device_on_uneven_clouds() {
    one_scrub_cycle_after_a_dropped_device(32, &[4e6, 2e6, 1e6, 0.5e6, 0.25e6], false);
}

#[test]
fn one_scrub_cycle_repairs_a_cloud_that_refused_the_dropped_devices_uploads() {
    one_scrub_cycle_after_a_dropped_device(33, &[4e6, 2e6, 1e6, 0.5e6, 0.25e6], true);
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

/// Uploads `data` as file "x" through `plane` and returns the image a
/// client would have committed for it.
fn image_of(plane: &DataPlane, data: &[u8]) -> unidrive::meta::SyncFolderImage {
    let (report, segs) = plane.upload_files(
        vec![UploadRequest {
            path: "x".into(),
            data: data.to_vec().into(),
            previous: Vec::new(),
        }],
        &Default::default(),
        None,
        None,
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
            segments: segs[0].segments.iter().map(|(id, _)| *id).collect(),
        },
    );
    image
}

fn data_config(r: &Rig) -> DataPlaneConfig {
    DataPlaneConfig::with_params(
        RedundancyConfig::new(r.clouds.len(), 3, 3, 2).unwrap(),
        64 * 1024,
    )
}

fn data_plane(r: &Rig) -> DataPlane {
    DataPlane::new(r.sim.clone().as_runtime(), r.clouds.clone(), data_config(r))
}

#[test]
fn remove_then_add_cloud_round_trip() {
    let r = rig(6, &[2e6; 5]);
    let plane = data_plane(&r);
    let data = content(250_000, 9);
    let image = image_of(&plane, &data);

    // Remove cloud 2; file must stay fully readable with 4 clouds.
    let removed = remove_cloud(&plane, &image, CloudId(2)).expect("remove");
    assert_eq!(removed.plane.clouds().len(), 4);
    assert_eq!(removed.plane.download_file(&removed.image, "x").unwrap(), data);
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
    let grown = add_cloud(&removed.plane, &removed.image, newcomer as Arc<dyn CloudStore>)
        .expect("add");
    assert_eq!(grown.plane.clouds().len(), 5);
    let fair = grown.plane.config().redundancy.fair_share();
    for (_, entry) in grown.image.segments() {
        assert!(entry.blocks_on(4) >= fair, "newcomer holds its fair share");
    }
    assert_eq!(grown.plane.download_file(&grown.image, "x").unwrap(), data);
}

#[test]
fn removing_below_k_r_is_rejected() {
    let r = rig(7, &[1e6, 1e6, 1e6]);
    let image = unidrive::meta::SyncFolderImage::new();
    assert!(remove_cloud(&data_plane(&r), &image, CloudId(0)).is_err());
}

/// The rig's clouds, `cloud{victim}` behind a fault injector that fails
/// half of its `op`s from virtual second 1000 on.
fn with_late_burst(r: &Rig, victim: usize, op: CloudOp) -> (CloudSet, Arc<ChaosCloud>) {
    let burst = FaultEvent::always(
        format!("cloud{victim}"),
        FaultKind::TransientBurst { probability: 0.5 },
    )
    .window_secs(1000, u64::MAX)
    .on_ops(&[op]);
    with_fault(r, victim, burst)
}

/// The rig's clouds, `cloud{victim}` behind a fault injector playing
/// `event`.
fn with_fault(r: &Rig, victim: usize, event: FaultEvent) -> (CloudSet, Arc<ChaosCloud>) {
    let built = CloudBuilder::new(&r.sim.clone().as_runtime(), r.clouds.get(CloudId(victim)).clone())
        .chaos(&FaultPlan::with_events(7, vec![event]), "")
        .build();
    let mut members: Vec<Arc<dyn CloudStore>> = r.clouds.iter().map(|(_, c)| Arc::clone(c)).collect();
    members[victim] = built.store;
    (CloudSet::new(members), built.chaos.expect("chaos stage configured"))
}

/// Re-homing goes through the engine: an upload that fails transiently
/// on a survivor is retried instead of silently dropping the block.
#[test]
fn remove_cloud_retries_rehoming_through_a_transient_burst() {
    let r = rig(11, &[2e6; 5]);
    let (clouds, chaos) = with_late_burst(&r, 0, CloudOp::Upload);
    let mut config = data_config(&r);
    config.overprovisioning = false; // one block per cloud per segment
    config.retry.max_attempts = 12;
    let plane = DataPlane::new(r.sim.clone().as_runtime(), clouds, config);
    // Unlike `content`, not periodic: every segment is distinct.
    let data = unidrive::workload::random_bytes(1_000_000, 3).to_vec();
    let image = image_of(&plane, &data);
    let lost: usize = image.segments().map(|(_, e)| e.blocks_on(2)).sum();
    assert!(lost >= 8, "many segments, one block each on the victim");

    r.sim.sleep(Duration::from_secs(2000)); // into the burst
    let removed = remove_cloud(&plane, &image, CloudId(2)).expect("remove");
    assert!(chaos.injected_faults() > 0, "the burst never fired");
    assert_eq!(removed.blocks_moved, lost, "a re-homed block was dropped");
    for (id, entry) in removed.image.segments() {
        let total: usize = (0..4u16).map(|c| entry.blocks_on(c)).sum();
        assert_eq!(total, 5, "segment {id} is short of blocks");
        assert!((0..4u16).all(|c| entry.blocks_on(c) >= 1), "segment {id}: a survivor lost its share");
    }
    assert_eq!(removed.plane.download_file(&removed.image, "x").unwrap(), data);
}

/// A failed rebuild reports what the download actually found, not a
/// made-up `NotEnoughBlocks { got: 0 }`.
#[test]
fn remove_cloud_propagates_the_real_rebuild_error() {
    // One block per cloud (no spares): removing cloud 4 leaves the
    // survivors 4 blocks of each segment, k = 3.
    let setup = |seed: u64| {
        let r = rig(seed, &[2e6; 5]);
        let mut config = data_config(&r);
        config.overprovisioning = false;
        let plane = DataPlane::new(r.sim.clone().as_runtime(), r.clouds.clone(), config);
        let image = image_of(&plane, &content(50_000, 5));
        (r, plane, image)
    };
    let block_on = |image: &unidrive::meta::SyncFolderImage, cloud: u16| {
        let (id, entry) = image.segments().next().expect("one segment");
        let b = entry.blocks.iter().find(|b| b.cloud == cloud).expect("one block per cloud");
        unidrive::meta::block_path(id, b.index)
    };

    // Two survivors lost their block: the error counts the two left.
    let (r, plane, image) = setup(12);
    for cloud in [0u16, 1] {
        r.handles[cloud as usize].delete(&block_on(&image, cloud)).unwrap();
    }
    match remove_cloud(&plane, &image, CloudId(4)) {
        Err(RebalanceError::Fetch(DownloadError::NotEnoughBlocks { got: 2, need: 3, .. })) => {}
        other => panic!("expected 2 of 3 blocks, got {other:?}"),
    }

    // Two survivors serve a corrupted block, so every 3 of the 4 hold
    // one (one corrupt block alone is decoded around): the error says
    // what was left — or names the integrity failure — never `got: 0`.
    let (r, plane, image) = setup(13);
    for cloud in [0u16, 1] {
        let path = block_on(&image, cloud);
        let mut bad = r.handles[cloud as usize].download(&path).unwrap().to_vec();
        bad[0] ^= 0xFF;
        r.handles[cloud as usize].upload(&path, bad.into()).unwrap();
    }
    match remove_cloud(&plane, &image, CloudId(4)) {
        Err(RebalanceError::Fetch(
            DownloadError::IntegrityMismatch { .. }
            | DownloadError::NotEnoughBlocks { got: 1.., .. },
        )) => {}
        other => panic!("expected the download's own error, got {other:?}"),
    }
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
            previous: Vec::new(),
        }],
        &Default::default(),
        None,
        None,
    );
    assert!(report.all_available(), "quota failure must not block availability");
    // Cloud 0 holds at most what its quota allowed; other clouds
    // adopted its share.
    assert!(handles[0].used_bytes() <= 20_000);
    let on_others = report.blocks.iter().filter(|(_, b)| b.cloud != 0).count();
    assert!(on_others >= 5, "orphaned blocks re-homed");
}
