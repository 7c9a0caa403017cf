//! End-to-end integration tests: two UniDrive devices synchronizing
//! through five simulated clouds under virtual time (the scenario of
//! the paper's Fig. 11 at small scale).

use std::sync::Arc;
use std::time::Duration;

use unidrive::cloud::{CloudSet, CloudStore, SimCloud, SimCloudConfig};
use unidrive::core::{ClientConfig, DataPlaneConfig, Keep, MemFolder, SyncFolder, UniDriveClient};
use unidrive::erasure::RedundancyConfig;
use unidrive::meta::MetaMode;
use unidrive::sim::{Runtime, SimRng, SimRuntime};

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

fn client(rig: &Rig, device: &str, folder: &Arc<MemFolder>, seed: u64) -> UniDriveClient {
    client_on(rig, device, folder, seed, MetaMode::Lock)
}

fn client_on(
    rig: &Rig,
    device: &str,
    folder: &Arc<MemFolder>,
    seed: u64,
    mode: MetaMode,
) -> UniDriveClient {
    let mut config = ClientConfig::paper_default(device);
    config.meta_mode = mode;
    config.data = DataPlaneConfig::with_params(
        RedundancyConfig::new(5, 3, 3, 2).unwrap(),
        64 * 1024, // small θ keeps tests fast
    );
    config.poll_interval = Duration::from_secs(5);
    UniDriveClient::new(
        rig.sim.clone().as_runtime(),
        rig.clouds.clone(),
        Arc::clone(folder) as Arc<dyn unidrive::core::SyncFolder>,
        config,
        SimRng::seed_from_u64(seed),
    )
}

fn content(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(tag).wrapping_add(tag))
        .collect()
}

#[test]
fn file_created_on_a_appears_on_b() {
    let r = rig(1);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 11);
    let mut b = client(&r, "device-b", &folder_b, 12);

    let data = content(300_000, 3);
    folder_a.write("docs/report.bin", &data, 100).unwrap();

    let up = a.sync_once().expect("A commits");
    assert_eq!(up.uploaded, vec!["docs/report.bin"]);

    let down = b.sync_once().expect("B pulls");
    assert_eq!(down.downloaded, vec!["docs/report.bin"]);
    assert_eq!(folder_b.read("docs/report.bin").unwrap().to_vec(), data);
}

#[test]
fn edits_propagate_and_deletes_propagate() {
    let r = rig(2);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 21);
    let mut b = client(&r, "device-b", &folder_b, 22);

    folder_a.write("f.bin", &content(100_000, 1), 1).unwrap();
    a.sync_once().unwrap();
    b.sync_once().unwrap();

    // Edit on A.
    let v2 = content(120_000, 2);
    folder_a.write("f.bin", &v2, 2).unwrap();
    a.sync_once().unwrap();
    let rep = b.sync_once().unwrap();
    assert_eq!(rep.downloaded, vec!["f.bin"]);
    assert_eq!(folder_b.read("f.bin").unwrap().to_vec(), v2);

    // Delete on B.
    folder_b.remove("f.bin").unwrap();
    let rep = b.sync_once().unwrap();
    assert_eq!(rep.deleted_remotely, vec!["f.bin"]);
    let rep = a.sync_once().unwrap();
    assert_eq!(rep.deleted_locally, vec!["f.bin"]);
    assert!(folder_a.read("f.bin").is_err());
}

#[test]
fn sync_survives_two_cloud_outage() {
    let r = rig(3);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 31);
    let mut b = client(&r, "device-b", &folder_b, 32);

    let data = content(200_000, 7);
    folder_a.write("x.bin", &data, 1).unwrap();
    a.sync_once().unwrap();

    // K_r = 3 of 5: two clouds may die.
    r.handles[1].set_available(false);
    r.handles[4].set_available(false);

    let rep = b.sync_once().expect("B syncs despite two outages");
    assert_eq!(rep.downloaded, vec!["x.bin"]);
    assert_eq!(folder_b.read("x.bin").unwrap().to_vec(), data);
}

/// What a device holds for a path: its bytes, and each conflict copy's
/// device and bytes.
type Held = (Vec<u8>, Vec<(String, Vec<u8>)>);

/// Three devices edit one file from the same base, on both planes. The
/// first commit keeps the slot and every other version is a conflict
/// copy on every device; a resolution removes only the copies its
/// device's view showed, and an edit from a view that never showed a
/// copy keeps it.
#[test]
fn concurrent_edits_yield_conflict_with_both_versions_retained() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(4);
        let folders: Vec<Arc<MemFolder>> = (0..3).map(|_| MemFolder::new()).collect();
        let names = ["device-a", "device-b", "device-c"];
        let mut devices: Vec<UniDriveClient> = (0..3)
            .map(|i| client_on(&r, names[i], &folders[i], 41 + i as u64, mode))
            .collect();
        let [a, b, c] = &mut devices[..] else {
            unreachable!()
        };
        let write = |i: usize, path: &str, data: &[u8], mtime: u64| {
            folders[i].write(path, data, mtime).unwrap();
        };
        // What every device holds for `path`.
        let held = |devices: &[UniDriveClient], path: &str| -> Vec<Held> {
            devices
                .iter()
                .zip(&folders)
                .map(|(d, f)| {
                    let copies = d.conflict_copies(path).expect("copies reachable");
                    let copies = copies
                        .into_iter()
                        .map(|(n, data)| (n, data.to_vec()))
                        .collect();
                    (f.read(path).unwrap().to_vec(), copies)
                })
                .collect()
        };

        // All three edit the same base without syncing in between.
        write(0, "shared.txt", &content(50_000, 1), 1);
        for d in [&mut *a, &mut *b, &mut *c] {
            d.sync_once().unwrap();
        }
        let versions: Vec<Vec<u8>> = (0..3)
            .map(|i| content(60_000 + 10_000 * i, 2 + i as u8))
            .collect();
        for (i, v) in versions.iter().enumerate() {
            write(i, "shared.txt", v, 2);
        }
        a.sync_once().unwrap();
        assert_eq!(
            b.sync_once().unwrap().conflicts,
            vec!["shared.txt"],
            "{mode:?}"
        );
        assert_eq!(
            c.sync_once().unwrap().conflicts,
            vec!["shared.txt"],
            "{mode:?}"
        );
        for d in [&mut *a, &mut *b, &mut *c] {
            d.sync_once().unwrap();
        }
        let every = (
            versions[0].clone(),
            vec![
                ("device-b".to_owned(), versions[1].clone()),
                ("device-c".to_owned(), versions[2].clone()),
            ],
        );
        assert_eq!(
            held(&devices, "shared.txt"),
            vec![every; 3],
            "{mode:?}: every version on every device"
        );

        // A second race on a new path: A resolves having seen B's copy
        // only, and C's copy lands after A's view.
        let [a, b, c] = &mut devices[..] else {
            unreachable!()
        };
        write(0, "g.txt", &content(20_000, 7), 3);
        for d in [&mut *a, &mut *b, &mut *c] {
            d.sync_once().unwrap();
        }
        let versions: Vec<Vec<u8>> = (0..3)
            .map(|i| content(21_000 + 1_000 * i, 8 + i as u8))
            .collect();
        for (i, v) in versions.iter().enumerate() {
            write(i, "g.txt", v, 4);
        }
        a.sync_once().unwrap();
        b.sync_once().unwrap();
        a.sync_once().unwrap();
        assert!(
            a.resolve_conflict("g.txt", Keep::Current).unwrap(),
            "{mode:?}"
        );
        c.sync_once().unwrap();
        a.sync_once().unwrap();
        let copies = a.conflict_copies("g.txt").unwrap();
        let kept: Vec<&str> = copies.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            kept,
            ["device-c"],
            "{mode:?}: the resolve removed B's copy only"
        );

        // B, whose view still shows only its own copy, edits g: C's
        // copy, which B never saw, stays, and B's edit joins it.
        let edit = content(25_000, 12);
        write(1, "g.txt", &edit, 5);
        let report = b.sync_once().unwrap();
        assert!(report.conflicts.contains(&"g.txt".to_owned()), "{mode:?}");
        for _ in 0..2 {
            for d in [&mut *a, &mut *b, &mut *c] {
                d.sync_once().unwrap();
            }
        }
        let want = (
            versions[0].clone(),
            vec![
                ("device-b".to_owned(), edit.clone()),
                ("device-c".to_owned(), versions[2].clone()),
            ],
        );
        assert_eq!(held(&devices, "g.txt"), vec![want; 3], "{mode:?}");
    }
}

/// Two devices write the same bytes to a new path at different times:
/// the content is the same, so neither sees a conflict, on either plane.
#[test]
fn identical_concurrent_edits_do_not_conflict() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(5);
        let folder_a = MemFolder::new();
        let folder_b = MemFolder::new();
        let mut a = client_on(&r, "device-a", &folder_a, 51, mode);
        let mut b = client_on(&r, "device-b", &folder_b, 52, mode);

        let same = content(80_000, 9);
        folder_a.write("same.bin", &same, 1).unwrap();
        folder_b.write("same.bin", &same, 2).unwrap();
        a.sync_once().unwrap();
        let rep = b.sync_once().unwrap();
        assert!(
            rep.conflicts.is_empty(),
            "{mode:?}: identical content, no conflict"
        );
        assert!(b.conflicts().is_empty(), "{mode:?}");
        a.sync_once().unwrap();
        assert!(a.conflicts().is_empty(), "{mode:?}");
    }
}

/// Rewriting a file with the bytes it already holds changes its mtime
/// and nothing else: no commit, and nothing for the peer to fetch.
#[test]
fn a_touch_is_not_a_change() {
    for mode in [MetaMode::Lock, MetaMode::Oplog] {
        let r = rig(8);
        let folder_a = MemFolder::new();
        let folder_b = MemFolder::new();
        let mut a = client_on(&r, "device-a", &folder_a, 81, mode);
        let mut b = client_on(&r, "device-b", &folder_b, 82, mode);

        let data = content(80_000, 4);
        folder_a.write("f", &data, 1).unwrap();
        a.sync_once().unwrap();
        assert_eq!(b.sync_once().unwrap().downloaded, vec!["f"], "{mode:?}");
        assert!(a.sync_once().unwrap().is_noop(), "{mode:?}");

        let version = a.image().version.clone();
        folder_a.write("f", &data, 2).unwrap();
        let rep = a.sync_once().unwrap();
        assert!(rep.is_noop(), "{mode:?}: a touch commits nothing: {rep:?}");
        assert_eq!(a.image().version, version, "{mode:?}");
        assert!(
            a.sync_once().unwrap().is_noop(),
            "{mode:?}: the shadow took the new stat"
        );
        let rep = b.sync_once().unwrap();
        assert!(
            rep.downloaded.is_empty(),
            "{mode:?}: B fetched {:?}",
            rep.downloaded
        );
    }
}

#[test]
fn three_devices_converge() {
    let r = rig(6);
    let folders: Vec<Arc<MemFolder>> = (0..3).map(|_| MemFolder::new()).collect();
    let mut clients: Vec<UniDriveClient> = folders
        .iter()
        .enumerate()
        .map(|(i, f)| client(&r, &format!("device-{i}"), f, 60 + i as u64))
        .collect();

    // Each device creates its own file.
    for (i, f) in folders.iter().enumerate() {
        f.write(&format!("from-{i}.bin"), &content(50_000, i as u8 + 1), 1)
            .unwrap();
    }
    // Two rounds of sync propagate everything everywhere.
    for _ in 0..3 {
        for c in clients.iter_mut() {
            let _ = c.sync_once().expect("sync pass");
            r.sim.sleep(Duration::from_secs(1));
        }
    }
    for f in &folders {
        for i in 0..3 {
            assert_eq!(
                f.read(&format!("from-{i}.bin")).unwrap().to_vec(),
                content(50_000, i as u8 + 1),
                "file from-{i} missing on some device"
            );
        }
    }
}

#[test]
fn deduplicated_copy_transfers_no_new_blocks() {
    let r = rig(7);
    let folder_a = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 71);

    let data = content(150_000, 5);
    folder_a.write("one.bin", &data, 1).unwrap();
    a.sync_once().unwrap();
    let traffic_before: u64 = r.handles.iter().map(|h| h.traffic().uploaded_bytes).sum();

    // A byte-identical copy under another name: dedup should make the
    // commit metadata-only.
    folder_a.write("two.bin", &data, 2).unwrap();
    a.sync_once().unwrap();
    let traffic_after: u64 = r.handles.iter().map(|h| h.traffic().uploaded_bytes).sum();
    let delta = traffic_after - traffic_before;
    assert!(
        delta < 100_000,
        "copy of a 150 KB file moved {delta} bytes; dedup failed"
    );
    // Both files resolvable.
    assert_eq!(a.image().file_count(), 2);
}

#[test]
fn lock_serializes_concurrent_commits() {
    // Two devices committing different files at the same virtual time
    // must both succeed (one waits for the other's lock).
    let r = rig(8);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    folder_a.write("a.bin", &content(60_000, 1), 1).unwrap();
    folder_b.write("b.bin", &content(60_000, 2), 1).unwrap();

    let rt = r.sim.clone().as_runtime();
    let (r1, r2) = {
        let rig_clouds = r.clouds.clone();
        let sim = r.sim.clone();
        let fa = Arc::clone(&folder_a);
        let t1 = unidrive::sim::spawn(&rt, "dev-a", {
            let clouds = rig_clouds.clone();
            move || {
                let mut config = ClientConfig::paper_default("device-a");
                config.data = DataPlaneConfig::with_params(
                    RedundancyConfig::new(5, 3, 3, 2).unwrap(),
                    64 * 1024,
                );
                let mut c = UniDriveClient::new(
                    sim.clone().as_runtime(),
                    clouds,
                    fa as Arc<dyn unidrive::core::SyncFolder>,
                    config,
                    SimRng::seed_from_u64(81),
                );
                c.sync_once().map(|r| r.uploaded).map_err(|e| e.to_string())
            }
        });
        let sim = r.sim.clone();
        let fb = Arc::clone(&folder_b);
        let t2 = unidrive::sim::spawn(&rt, "dev-b", {
            let clouds = rig_clouds.clone();
            move || {
                let mut config = ClientConfig::paper_default("device-b");
                config.data = DataPlaneConfig::with_params(
                    RedundancyConfig::new(5, 3, 3, 2).unwrap(),
                    64 * 1024,
                );
                let mut c = UniDriveClient::new(
                    sim.clone().as_runtime(),
                    clouds,
                    fb as Arc<dyn unidrive::core::SyncFolder>,
                    config,
                    SimRng::seed_from_u64(82),
                );
                c.sync_once().map(|r| r.uploaded).map_err(|e| e.to_string())
            }
        });
        (t1.join(), t2.join())
    };
    assert_eq!(r1.unwrap(), vec!["a.bin"]);
    assert_eq!(r2.unwrap(), vec!["b.bin"]);

    // A third device sees both commits.
    let folder_c = MemFolder::new();
    let mut c = client(&r, "device-c", &folder_c, 83);
    let rep = c.sync_once().unwrap();
    assert_eq!(rep.downloaded.len(), 2);
}

#[test]
fn many_small_files_sync_in_one_pass() {
    let r = rig(9);
    let folder_a = MemFolder::new();
    let folder_b = MemFolder::new();
    let mut a = client(&r, "device-a", &folder_a, 91);
    let mut b = client(&r, "device-b", &folder_b, 92);

    for i in 0..40 {
        folder_a
            .write(&format!("batch/f{i:02}.bin"), &content(20_000, i as u8 + 1), 1)
            .unwrap();
    }
    let up = a.sync_once().unwrap();
    assert_eq!(up.uploaded.len(), 40);
    let down = b.sync_once().unwrap();
    assert_eq!(down.downloaded.len(), 40);
    assert_eq!(folder_b.file_count(), 40);
}
