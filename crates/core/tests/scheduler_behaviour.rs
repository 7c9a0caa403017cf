//! Behavioural tests of the data-plane schedulers: over-provisioning
//! extent, the two-phase principle, download gating under probing, and
//! deferred-upload retry through the client's pass loop.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use unidrive_util::bytes::Bytes;
use unidrive_cloud::{CloudSet, CloudStore, SimCloud, SimCloudConfig};
use unidrive_core::{DataPlane, DataPlaneConfig, SegmentFetch, UploadRequest};
use unidrive_erasure::RedundancyConfig;
use unidrive_meta::{BlockRef, SegmentId};
use unidrive_sim::SimRuntime;

struct Rig {
    sim: Arc<SimRuntime>,
    handles: Vec<Arc<SimCloud>>,
    plane: DataPlane,
}

fn rig(seed: u64, rates: &[f64], tweak: impl Fn(&mut DataPlaneConfig)) -> Rig {
    let sim = SimRuntime::new(seed);
    let mut handles = Vec::new();
    let clouds = CloudSet::new(
        rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let c = Arc::new(SimCloud::new(
                    &sim,
                    format!("c{i}"),
                    SimCloudConfig::steady(r, r * 4.0),
                ));
                handles.push(Arc::clone(&c));
                c as Arc<dyn CloudStore>
            })
            .collect(),
    );
    let mut config = DataPlaneConfig::with_params(
        RedundancyConfig::new(rates.len(), 3, 3, 2).unwrap(),
        64 * 1024,
    );
    tweak(&mut config);
    let plane = DataPlane::new(sim.clone().as_runtime(), clouds, config);
    Rig { sim, handles, plane }
}

fn content(len: usize, tag: u8) -> Bytes {
    Bytes::from((0..len).map(|i| (i as u8).wrapping_add(tag)).collect::<Vec<u8>>())
}

/// The segments `(id, len)` and placed blocks of one uploaded file.
type UploadOutcome = (Vec<(SegmentId, u64)>, Vec<(SegmentId, BlockRef)>);

fn upload_one(rig: &Rig, tag: u8) -> UploadOutcome {
    let data = content(200_000, tag);
    let (report, segs) = rig.plane.upload_files(
        vec![UploadRequest {
            path: format!("f{tag}"),
            data,
            previous: Vec::new(),
        }],
        &HashSet::new(),
        None,
        None,
    );
    assert!(report.all_available());
    (segs[0].segments.clone(), report.blocks)
}

#[test]
fn overprovisioning_stops_at_security_cap() {
    // One extremely fast cloud cannot exceed cap blocks per segment no
    // matter how idle it is.
    let r = rig(1, &[100e6, 0.1e6, 0.1e6, 0.1e6, 0.1e6], |_| {});
    let (segs, blocks) = upload_one(&r, 1);
    let cap = 2; // ⌈3/(2−1)⌉ − 1
    for (id, _) in &segs {
        let on_fast = blocks
            .iter()
            .filter(|(s, b)| s == id && b.cloud == 0)
            .count();
        assert!(on_fast <= cap, "segment {id}: {on_fast} blocks on cloud 0");
    }
}

#[test]
fn no_overprovisioning_means_exactly_normal_blocks() {
    let r = rig(2, &[10e6, 1e6, 1e6, 1e6, 0.5e6], |c| {
        c.overprovisioning = false;
    });
    let (segs, blocks) = upload_one(&r, 2);
    // fair share 1 × 5 clouds = exactly 5 blocks per segment.
    for (id, _) in &segs {
        let total = blocks.iter().filter(|(s, _)| s == id).count();
        assert_eq!(total, 5, "segment {id}");
    }
}

#[test]
fn equal_clouds_get_even_normal_distribution() {
    let r = rig(3, &[2e6; 5], |c| {
        c.overprovisioning = false;
    });
    let (_, blocks) = upload_one(&r, 3);
    let mut per_cloud: HashMap<u16, usize> = HashMap::new();
    for (_, b) in &blocks {
        *per_cloud.entry(b.cloud).or_default() += 1;
    }
    let counts: Vec<usize> = (0..5u16).map(|c| per_cloud[&c]).collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
}

#[test]
fn download_prefers_fast_clouds_once_probed() {
    // After an upload (which warms the probe), the dominant share of
    // downloaded blocks must come from the fast clouds.
    let r = rig(4, &[8e6, 8e6, 8e6, 0.2e6, 0.2e6], |_| {});
    let (segs, blocks) = upload_one(&r, 4);
    let mut by_seg: HashMap<SegmentId, Vec<BlockRef>> = HashMap::new();
    for (id, b) in &blocks {
        by_seg.entry(*id).or_default().push(*b);
    }
    let traffic_before: Vec<u64> = r
        .handles
        .iter()
        .map(|h| h.traffic().downloaded_bytes)
        .collect();
    let fetches: Vec<SegmentFetch> = segs
        .iter()
        .map(|(id, len)| SegmentFetch {
            id: *id,
            len: *len,
            blocks: by_seg[id].clone(),
        })
        .collect();
    let report = r.plane.download_segments(fetches, None);
    assert!(report.is_complete());
    let served: Vec<u64> = r
        .handles
        .iter()
        .zip(&traffic_before)
        .map(|(h, &before)| h.traffic().downloaded_bytes - before)
        .collect();
    let fast: u64 = served[..3].iter().sum();
    let slow: u64 = served[3..].iter().sum();
    assert!(
        fast > 5 * slow.max(1),
        "fast clouds should dominate downloads: {served:?}"
    );
}

#[test]
fn download_timeline_orders_segments() {
    let r = rig(5, &[2e6; 5], |_| {});
    let data = content(400_000, 5); // several 64 KB-θ segments
    let (report, segs) = r.plane.upload_files(
        vec![UploadRequest {
            path: "multi".into(),
            data,
            previous: Vec::new(),
        }],
        &HashSet::new(),
        None,
        None,
    );
    let mut by_seg: HashMap<SegmentId, Vec<BlockRef>> = HashMap::new();
    for (id, b) in &report.blocks {
        by_seg.entry(*id).or_default().push(*b);
    }
    let fetches: Vec<SegmentFetch> = segs[0]
        .segments
        .iter()
        .map(|(id, len)| SegmentFetch {
            id: *id,
            len: *len,
            blocks: by_seg[id].clone(),
        })
        .collect();
    let n = fetches.len();
    let dl = r.plane.download_segments(fetches, None);
    assert!(dl.is_complete());
    assert_eq!(dl.timeline.len(), n);
    // Timestamps are non-decreasing.
    for w in dl.timeline.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
}

#[test]
fn upload_timeline_matches_file_order_under_two_phase() {
    let r = rig(6, &[2e6; 5], |_| {});
    let requests: Vec<UploadRequest> = (0..6)
        .map(|i| UploadRequest {
            path: format!("f{i}"),
            data: content(150_000, i as u8 + 1),
            previous: Vec::new(),
        })
        .collect();
    let (report, _) = r.plane.upload_files(requests, &HashSet::new(), None, None);
    assert!(report.all_available());
    assert_eq!(report.timeline.len(), 6);
    // With equal clouds and equal sizes, availability-first means files
    // become available in request order.
    let order: Vec<usize> = report.timeline.iter().map(|(_, f)| *f).collect();
    assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn available_duration_is_before_total_duration() {
    let r = rig(7, &[4e6, 4e6, 4e6, 0.2e6, 0.2e6], |_| {});
    let data = content(300_000, 9);
    let (report, _) = r.plane.upload_files(
        vec![UploadRequest {
            path: "f".into(),
            data,
            previous: Vec::new(),
        }],
        &HashSet::new(),
        None,
        None,
    );
    let avail = report.available_duration().expect("available");
    let total = report.total_duration();
    assert!(
        avail < total,
        "availability ({avail:?}) must precede the reliability tail ({total:?})"
    );
    let _ = r.sim.clone();
}
