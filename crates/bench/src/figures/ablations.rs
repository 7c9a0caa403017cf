//! **Ablations A1-A5** — design-choice studies for the mechanisms
//! DESIGN.md calls out: over-provisioning, in-channel probing, the
//! two-phase batch principle, single-image metadata, and quorum-lock
//! contention.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crate::{figures::Ctx, paper_plane};
use unidrive_util::bytes::Bytes;
use unidrive_core::{
    DataPlane, DataPlaneConfig, LockConfig, QuorumLock, SegmentFetch, UploadOptions,
    UploadRequest,
};
use unidrive_meta::SegmentId;
use unidrive_obs::Obs;
use unidrive_sim::{spawn, Runtime, SimRng, SimRuntime};
use unidrive_workload::{build_multicloud, random_bytes, site_by_name, Summary};

fn plane_with(
    sim: &Arc<SimRuntime>,
    site: unidrive_workload::Site,
    theta: usize,
    tweak: impl Fn(&mut DataPlaneConfig),
) -> DataPlane {
    let (clouds, _) = build_multicloud(sim, site);
    let mut config = paper_plane(theta, &Obs::noop());
    tweak(&mut config);
    DataPlane::new(sim.clone().as_runtime(), clouds, config)
}

fn upload_avail_secs(plane: &DataPlane, data: &Bytes, tag: &str) -> Option<f64> {
    let (report, _) = plane.upload_files(
        vec![UploadRequest {
            path: tag.to_owned(),
            data: data.clone(),
        }],
        &HashSet::new(),
        UploadOptions::default(),
    );
    report.available_duration().map(|d| d.as_secs_f64())
}

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let site = site_by_name("Beijing").expect("site"); // extreme disparity within the top-3 clouds
    let size = scale.large_file / 2;
    let repeats = scale.repeats.max(3);

    // --- A1: over-provisioning on/off (upload availability time). ---
    {
        let mut on = Vec::new();
        let mut off = Vec::new();
        for rep in 0..repeats {
            let data = random_bytes(size, 2000 + rep as u64);
            for (flag, out) in [(true, &mut on), (false, &mut off)] {
                let sim = SimRuntime::new(2000 + rep as u64);
                let plane = plane_with(&sim, site, scale.theta, |c| {
                    c.overprovisioning = flag;
                });
                if let Some(secs) = upload_avail_secs(&plane, &data, "a1") {
                    out.push(secs);
                }
            }
        }
        let mean = |v: &[f64]| Summary::of(v).map(|s| s.mean).unwrap_or(f64::NAN);
        println!(
            "A1 over-provisioning: upload availability {:.1}s with vs {:.1}s without ({:.2}x)",
            mean(&on),
            mean(&off),
            mean(&off) / mean(&on)
        );
    }

    // --- A2: in-channel probing on/off (download time). ---
    {
        let mut on = Vec::new();
        let mut off = Vec::new();
        for rep in 0..repeats {
            let data = random_bytes(size, 2100 + rep as u64);
            for (flag, out) in [(true, &mut on), (false, &mut off)] {
                let sim = SimRuntime::new(2100 + rep as u64);
                let plane = plane_with(&sim, site, scale.theta, |c| {
                    c.probing = flag;
                });
                let (report, segs) = plane.upload_files(
                    vec![UploadRequest {
                        path: "a2".into(),
                        data: data.clone(),
                    }],
                    &HashSet::new(),
                    UploadOptions::default(),
                );
                if !report.all_available() {
                    continue;
                }
                let mut by_seg: std::collections::HashMap<SegmentId, Vec<_>> =
                    std::collections::HashMap::new();
                for (id, b) in &report.blocks {
                    by_seg.entry(*id).or_default().push(*b);
                }
                let fetches: Vec<SegmentFetch> = segs[0]
                    .segments
                    .iter()
                    .map(|(id, len)| SegmentFetch {
                        id: *id,
                        len: *len,
                        blocks: by_seg.get(id).cloned().unwrap_or_default(),
                    })
                    .collect();
                let dl = plane.download_segments(fetches, None);
                if dl.is_complete() {
                    out.push(dl.total_duration().as_secs_f64());
                }
            }
        }
        let mean = |v: &[f64]| Summary::of(v).map(|s| s.mean).unwrap_or(f64::NAN);
        println!(
            "A2 in-channel probing: download {:.1}s with vs {:.1}s without ({:.2}x)",
            mean(&on),
            mean(&off),
            mean(&off) / mean(&on)
        );
    }

    // --- A3: two-phase batch principle on/off (batch availability). ---
    {
        let mut on = Vec::new();
        let mut off = Vec::new();
        for rep in 0..repeats {
            for (flag, out) in [(true, &mut on), (false, &mut off)] {
                let sim = SimRuntime::new(2200 + rep as u64);
                let plane = plane_with(&sim, site, scale.theta, |c| {
                    c.two_phase = flag;
                });
                let requests: Vec<UploadRequest> = (0..8)
                    .map(|i| UploadRequest {
                        path: format!("a3-{i}"),
                        data: random_bytes(size / 8, 2200 + rep as u64 * 10 + i),
                    })
                    .collect();
                let (report, _) = plane.upload_files(requests, &HashSet::new(), UploadOptions::default());
                if let Some(d) = report.available_duration() {
                    out.push(d.as_secs_f64());
                }
            }
        }
        let mean = |v: &[f64]| Summary::of(v).map(|s| s.mean).unwrap_or(f64::NAN);
        println!(
            "A3 two-phase batches: all-available {:.1}s with vs {:.1}s without ({:.2}x)",
            mean(&on),
            mean(&off),
            mean(&off) / mean(&on)
        );
    }

    // --- A4: single metadata image vs per-file tiny metadata (paper §4,
    //     footnote 2: 1024 tiny files cost ~19x the traffic of one blob).
    {
        let sim = SimRuntime::new(2300);
        let (clouds, handles) = build_multicloud(&sim, site);
        let cloud = clouds
            .try_get(unidrive_cloud::CloudId(0))
            .expect("build_multicloud returns a non-empty set");
        let t0 = sim.now();
        for i in 0..256 {
            cloud
                .upload(&format!("meta/tiny-{i:04}"), Bytes::from(vec![7u8; 100]))
                .ok();
        }
        let tiny_secs = (sim.now() - t0).as_secs_f64();
        let tiny_traffic = handles[0].traffic().uploaded_bytes;
        let t1 = sim.now();
        cloud
            .upload("meta/single", Bytes::from(vec![7u8; 256 * 100]))
            .ok();
        let single_secs = (sim.now() - t1).as_secs_f64();
        let single_traffic = handles[0].traffic().uploaded_bytes - tiny_traffic;
        println!(
            "A4 metadata granularity: 256 tiny files {tiny_secs:.1}s / {:.1} KB vs one image \
             {single_secs:.2}s / {:.1} KB ({:.0}x time, {:.1}x traffic)",
            tiny_traffic as f64 / 1024.0,
            single_traffic as f64 / 1024.0,
            tiny_secs / single_secs.max(1e-9),
            tiny_traffic as f64 / single_traffic.max(1) as f64
        );
    }

    // --- A5: quorum-lock contention (acquire latency vs device count). ---
    {
        for devices in [1usize, 2, 4, 8] {
            let sim = SimRuntime::new(2400 + devices as u64);
            let (clouds, _) = build_multicloud(&sim, site);
            let rt = sim.clone().as_runtime();
            let latencies: Arc<unidrive_util::sync::Mutex<Vec<f64>>> =
                Arc::new(unidrive_util::sync::Mutex::new(Vec::new()));
            let tasks: Vec<_> = (0..devices)
                .map(|d| {
                    let rt2 = rt.clone();
                    let sim2 = sim.clone();
                    let clouds = clouds.clone();
                    let latencies = Arc::clone(&latencies);
                    spawn(&rt, &format!("dev-{d}"), move || {
                        let lock = QuorumLock::new(
                            rt2.clone(),
                            clouds,
                            format!("dev-{d}"),
                            LockConfig::default(),
                            SimRng::seed_from_u64(2400 + d as u64),
                        );
                        for _ in 0..4 {
                            let t0 = sim2.now();
                            if let Ok(guard) = lock.acquire(None) {
                                latencies
                                    .lock()
                                    .push((sim2.now() - t0).as_secs_f64());
                                rt2.sleep(Duration::from_millis(500));
                                guard.release();
                            }
                            rt2.sleep(Duration::from_secs(1));
                        }
                    })
                })
                .collect();
            for t in tasks {
                t.join();
            }
            let l = latencies.lock();
            if let Some(s) = Summary::of(&l) {
                println!(
                    "A5 lock contention: {devices} devices -> acquire mean {:.2}s max {:.2}s \
                     ({} acquisitions, all succeeded)",
                    s.mean,
                    s.max,
                    l.len()
                );
            }
        }
    }
}
