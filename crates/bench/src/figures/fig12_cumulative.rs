//! **Figure 12** — cumulative number of synced files over time, Oregon
//! → Virginia (§7.2): UniDrive readies files at a fast, steady rate;
//! the other solutions' curves have varying slopes and may cross.

use std::sync::Arc;
use std::time::Duration;

use crate::{figures::Ctx, paper_client};
use unidrive_util::sync::Mutex;
use unidrive_baseline::{IntuitiveMultiCloud, MultiCloudBenchmark, SingleCloudClient};
use unidrive_cloud::CloudId;
use unidrive_core::{MemFolder, SyncFolder, UniDriveClient};
use unidrive_erasure::RedundancyConfig;
use unidrive_meta::MetaMode;
use unidrive_sim::{spawn, Runtime, SimRng, SimRuntime};
use unidrive_workload::{batch, build_multicloud_shared, site_by_name, TextTable};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let (count, size) = scale.batch;
    let oregon = site_by_name("Oregon").expect("site");
    let virginia = site_by_name("Virginia").expect("site");
    println!(
        "Figure 12: cumulative synced files over time, Oregon -> Virginia, {count} x {} KB\n",
        size / 1024
    );

    // Per-system series of (seconds, cumulative files at sink).
    let mut series: Vec<(String, Vec<(f64, usize)>)> = Vec::new();

    // --- UniDrive, real protocol with progressive drops. ---
    {
        let sim = SimRuntime::new(1212);
        let (sets, handles) = build_multicloud_shared(&sim, &[oregon, virginia]);
        for handle in handles.iter().flatten() {
            handle.install_obs(cx.obs.clone());
        }
        let rt = sim.clone().as_runtime();
        let files = batch(count, size, 1212);
        let config = |device: &str| paper_client(device, scale.theta, &cx.obs, MetaMode::Lock);
        let t0 = sim.now();
        let downloader = {
            let set = sets[1].clone();
            let rt2 = rt.clone();
            let sim2 = sim.clone();
            let cfg = config("virginia");
            let target = count;
            spawn(&rt, "virginia", move || {
                let folder = MemFolder::new();
                let mut client = UniDriveClient::new(
                    rt2.clone(),
                    set,
                    folder as Arc<dyn SyncFolder>,
                    cfg,
                    SimRng::seed_from_u64(2),
                );
                let mut timeline = Vec::new();
                let mut total = 0usize;
                for _ in 0..200 {
                    if let Ok(rep) = client.sync_once() {
                        if !rep.downloaded.is_empty() {
                            total += rep.downloaded.len();
                            timeline.push(((sim2.now() - t0).as_secs_f64(), total));
                        }
                    }
                    if total >= target {
                        break;
                    }
                    rt2.sleep(Duration::from_secs(1));
                }
                timeline
            })
        };
        let folder = MemFolder::new();
        let mut uploader = UniDriveClient::new(
            rt.clone(),
            sets[0].clone(),
            Arc::clone(&folder) as Arc<dyn SyncFolder>,
            config("oregon"),
            SimRng::seed_from_u64(1),
        );
        for group in files.chunks(5) {
            for (path, data) in group {
                folder.write(path, data, 1).expect("write");
            }
            let _ = uploader.sync_once();
        }
        for _ in 0..5 {
            let _ = uploader.sync_once();
        }
        series.push(("UniDrive".into(), downloader.join()));
        // Drain the uploader's detached reliability work before the
        // world is dropped: an abandoned world leaks its parked
        // workers, and any engine.batch span still open in them would
        // never record (a dangling parent id in the trace).
        sim.sleep(Duration::from_secs(3600));
    }

    // --- Baselines: pipelined per-file, sink records completion times. ---
    let baseline = |label: &str, sys_idx: usize| -> (String, Vec<(f64, usize)>) {
        let sim = SimRuntime::new(1212);
        let (sets, _) = build_multicloud_shared(&sim, &[oregon, virginia]);
        let rt = sim.clone().as_runtime();
        let files = batch(count, size, 1212);
        let flags: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(vec![false; files.len()]));
        let t0 = sim.now();
        let redundancy = RedundancyConfig::paper_default();
        let src_bench = Arc::new(
            MultiCloudBenchmark::new(rt.clone(), sets[0].clone(), redundancy, 5)
                .with_chunk_size(scale.theta),
        );
        let dst_bench = Arc::new(
            MultiCloudBenchmark::new(rt.clone(), sets[1].clone(), redundancy, 5)
                .with_chunk_size(scale.theta),
        );
        let src_intuitive = Arc::new(IntuitiveMultiCloud::new(rt.clone(), &sets[0], 5));
        let dst_intuitive = Arc::new(IntuitiveMultiCloud::new(rt.clone(), &sets[1], 5));
        let src_native = Arc::new(SingleCloudClient::new(
            rt.clone(),
            Arc::clone(sets[0].get(CloudId(0))),
            5,
        ));
        let dst_native = Arc::new(SingleCloudClient::new(
            rt.clone(),
            Arc::clone(sets[1].get(CloudId(0))),
            5,
        ));
        let sink = {
            let files = files.clone();
            let flags = Arc::clone(&flags);
            let rt2 = rt.clone();
            let sim2 = sim.clone();
            let (src_b, dst_b) = (Arc::clone(&src_bench), Arc::clone(&dst_bench));
            let (dst_i, dst_n) = (Arc::clone(&dst_intuitive), Arc::clone(&dst_native));
            spawn(&rt, "sink", move || {
                let mut timeline = Vec::new();
                let mut total = 0;
                for (i, (path, data)) in files.iter().enumerate() {
                    while !flags.lock()[i] {
                        rt2.sleep(Duration::from_secs(1));
                    }
                    let ok = match sys_idx {
                        0 => src_b.manifest_of(path).is_some_and(|m| {
                            dst_b.adopt_manifest(path, m);
                            dst_b.download(path).is_ok()
                        }),
                        1 => {
                            dst_i.assume_uploaded(path, data.len() as u64);
                            dst_i.download(path).is_ok()
                        }
                        _ => {
                            dst_n.assume_uploaded(path, data.len() as u64);
                            dst_n.download(path).is_ok()
                        }
                    };
                    if ok {
                        total += 1;
                        timeline.push(((sim2.now() - t0).as_secs_f64(), total));
                    }
                }
                timeline
            })
        };
        for (i, (path, data)) in files.iter().enumerate() {
            let _ = match sys_idx {
                0 => src_bench.upload(path, data.clone()).is_ok(),
                1 => src_intuitive.upload(path, data.clone()).is_ok(),
                _ => src_native.upload(path, data.clone()).is_ok(),
            };
            flags.lock()[i] = true;
        }
        (label.to_owned(), sink.join())
    };
    series.push(baseline("Benchmark", 0));
    series.push(baseline("Intuitive", 1));
    series.push(baseline("Dropbox", 2));

    // Print the cumulative curves sampled at fixed fractions.
    let mut table = TextTable::new(&["files synced", "UniDrive", "Benchmark", "Intuitive", "Dropbox"]);
    let marks: Vec<usize> = (1..=10).map(|i| i * count / 10).collect();
    for &m in &marks {
        let mut cells = vec![format!("{m}")];
        for (_, timeline) in &series {
            let at = timeline
                .iter()
                .find(|(_, n)| *n >= m)
                .map(|(t, _)| format!("{t:.0}s"))
                .unwrap_or_else(|| "-".into());
            cells.push(at);
        }
        table.row(cells);
    }
    println!("{}", table.render());

    // Curve summary: total time (slope) and linearity (t50/t100 ≈ 0.5
    // for a constant slope).
    for (label, timeline) in &series {
        let at = |m: usize| {
            timeline
                .iter()
                .find(|(_, n)| *n >= m)
                .map(|(t, _)| *t)
        };
        if let (Some(half), Some(full)) = (at(count / 2), at(count)) {
            println!(
                "{label:10} full batch {full:6.0}s, t(50%)/t(100%) = {:.2} (0.50 = constant slope)",
                half / full
            );
        } else {
            println!("{label:10} did not complete the batch");
        }
    }
    println!("(paper: UniDrive readies files fastest with an almost constant slope)");
}
