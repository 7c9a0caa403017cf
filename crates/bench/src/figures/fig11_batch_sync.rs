//! **Figure 11** — end-to-end sync time for a batch of small files
//! (paper: 100 × 1 MB) from each EC2 node to the other six (§7.2).
//!
//! UniDrive runs its *real* sync protocol: an uploading
//! [`UniDriveClient`] commits the batch while six downloading clients at
//! the other sites poll and pull concurrently; the sync time runs from
//! upload start until the last downloader holds every file. Baselines
//! are pipelined per file: a sink starts a file's download as soon as
//! its upload finished (native apps notify per file).
//!
//! Shape targets: UniDrive fastest and most consistent everywhere
//! (paper: 1.33×/1.61×/1.75× vs the top-3 CCSs at each site); the
//! benchmark lands in between; the intuitive solution is worst.

use std::sync::Arc;
use std::time::Duration;

use crate::{figures::Ctx, paper_client};
use unidrive_util::sync::Mutex;
use unidrive_baseline::{IntuitiveMultiCloud, MultiCloudBenchmark, SingleCloudClient};
use unidrive_cloud::{CloudId, CloudSet};
use unidrive_core::{MemFolder, SyncFolder, UniDriveClient};
use unidrive_erasure::RedundancyConfig;
use unidrive_sim::{spawn, Runtime, SimRng, SimRuntime};
use unidrive_workload::{batch, build_multicloud_shared, Summary, TextTable, EC2_SITES};

/// A pipelined baseline run: the source uploads files in order, marking
/// each done; every sink downloads each file as soon as it is marked.
/// Returns the end-to-end seconds (upload start → last sink finished).
fn pipelined_baseline<U, D>(
    sim: &Arc<SimRuntime>,
    files: &[(String, unidrive_util::bytes::Bytes)],
    sinks: usize,
    upload: U,
    download: D,
) -> Option<f64>
where
    U: Fn(usize, &str, unidrive_util::bytes::Bytes) -> bool + Send + Sync + 'static,
    D: Fn(usize, usize, &str, u64) -> bool + Send + Sync + 'static,
{
    let rt = sim.clone().as_runtime();
    let done_flags: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(vec![false; files.len()]));
    let t0 = sim.now();
    let upload = Arc::new(upload);
    let download = Arc::new(download);
    let files: Arc<Vec<(String, unidrive_util::bytes::Bytes)>> = Arc::new(files.to_vec());

    let up_task = {
        let files = Arc::clone(&files);
        let flags = Arc::clone(&done_flags);
        let upload = Arc::clone(&upload);
        spawn(&rt, "baseline-up", move || {
            let mut all_ok = true;
            for (i, (path, data)) in files.iter().enumerate() {
                all_ok &= upload(i, path, data.clone());
                flags.lock()[i] = true;
            }
            all_ok
        })
    };
    let mut sink_tasks = Vec::new();
    for s in 0..sinks {
        let files = Arc::clone(&files);
        let flags = Arc::clone(&done_flags);
        let download = Arc::clone(&download);
        let rt2 = rt.clone();
        let sim2 = sim.clone();
        sink_tasks.push(spawn(&rt, &format!("baseline-sink-{s}"), move || {
            let mut all_ok = true;
            for (i, (path, data)) in files.iter().enumerate() {
                while !flags.lock()[i] {
                    rt2.sleep(Duration::from_secs(1));
                }
                all_ok &= download(s, i, path, data.len() as u64);
            }
            (sim2.now(), all_ok)
        }));
    }
    let up_ok = up_task.join();
    let mut ok = up_ok;
    let mut last = t0;
    for t in sink_tasks {
        let (finished, sink_ok) = t.join();
        last = last.max(finished);
        ok &= sink_ok;
    }
    ok.then(|| (last - t0).as_secs_f64())
}

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let meta_mode = cx.meta_mode;
    let (count, size) = scale.batch;
    let sinks = EC2_SITES.len() - 1;
    println!(
        "Figure 11: end-to-end sync seconds for {count} x {} KB files, each site -> other {sinks} (meta-mode {meta_mode})\n",
        size / 1024
    );

    let headers = [
        "uploader", "UniDrive", "Benchmark", "Intuitive", "Dropbox", "OneDrive", "GoogleDrive",
    ];
    let mut table = TextTable::new(&headers);
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); 6];

    for (si, site) in EC2_SITES.iter().enumerate() {
        let mut cells = vec![site.name.to_owned()];

        // --- UniDrive: the real sync protocol. ---
        {
            let sim = SimRuntime::new(1100 + si as u64);
            // Point the registry clock at this world's virtual time so
            // windowed series (--obs-out) land in real windows; each
            // site's world restarts at t=0, so same-named series
            // aggregate per window index across sites (deterministic).
            sim.install_obs(cx.obs.clone());
            let (sets, handles) = build_multicloud_shared(&sim, &EC2_SITES);
            for handle in handles.iter().flatten() {
                handle.install_obs(cx.obs.clone());
            }
            let rt = sim.clone().as_runtime();
            let files = batch(count, size, 1100 + si as u64);
            let uploader_folder = MemFolder::new();
            let mut uploader = UniDriveClient::new(
                rt.clone(),
                sets[si].clone(),
                Arc::clone(&uploader_folder) as Arc<dyn SyncFolder>,
                paper_client(&format!("up-{}", site.name), scale.theta, &cx.obs, meta_mode),
                SimRng::seed_from_u64(40 + si as u64),
            );
            let t0 = sim.now();
            let mut tasks = Vec::new();
            for (di, dsite) in EC2_SITES.iter().enumerate() {
                if di == si {
                    continue;
                }
                let set = sets[di].clone();
                let rt2 = rt.clone();
                let sim2 = sim.clone();
                let name = format!("down-{}", dsite.name);
                let theta = scale.theta;
                let seed = 80 + di as u64;
                let target = count;
                let obs = cx.obs.clone();
                let mode = meta_mode;
                tasks.push(spawn(&rt, &name.clone(), move || {
                    let folder = MemFolder::new();
                    let mut client = UniDriveClient::new(
                        rt2.clone(),
                        set,
                        folder as Arc<dyn SyncFolder>,
                        paper_client(&name, theta, &obs, mode),
                        SimRng::seed_from_u64(seed),
                    );
                    let mut done = 0usize;
                    for _ in 0..40 {
                        if let Ok(rep) = client.sync_once() {
                            done += rep.downloaded.len();
                        }
                        if done >= target {
                            break;
                        }
                        rt2.sleep(Duration::from_secs(2));
                    }
                    (sim2.now(), done >= target)
                }));
            }
            // The local interface layer reacts to file-system events as
            // they arrive, so a big batch is committed in waves rather
            // than one monolithic round (delta-sync exists exactly for
            // this). Drop the files in groups of five and sync.
            let mut committed = 0usize;
            for group in files.chunks(5) {
                for (path, data) in group {
                    uploader_folder.write(path, data, 1).expect("local write");
                }
                committed += uploader.sync_once().expect("uploader commits").uploaded.len();
            }
            // Retry any deferred uploads.
            for _ in 0..5 {
                if committed >= count {
                    break;
                }
                committed += uploader.sync_once().expect("retry pass").uploaded.len();
            }
            let mut last = sim.now();
            let mut complete = committed == count;
            for t in tasks {
                let (finished, ok) = t.join();
                last = last.max(finished);
                complete &= ok;
            }
            let secs = (last - t0).as_secs_f64();
            means[0].push(secs);
            cells.push(format!("{secs:.0}{}", if complete { "" } else { "*" }));
            // Drain the uploader's detached reliability work before the
            // world is dropped: an abandoned world leaks its parked
            // workers, and any engine.batch span still open in them
            // would never record (a dangling parent id in the trace).
            sim.sleep(Duration::from_secs(3600));
        }

        // --- Baselines, each in a fresh world (same seeds/profiles). ---
        for sys_idx in 0..5usize {
            let sim = SimRuntime::new(1100 + si as u64);
            let (sets, _) = build_multicloud_shared(&sim, &EC2_SITES);
            let rt = sim.clone().as_runtime();
            let files = batch(count, size, 1100 + si as u64);
            let sink_sets: Vec<CloudSet> = EC2_SITES
                .iter()
                .enumerate()
                .filter(|(di, _)| *di != si)
                .map(|(di, _)| sets[di].clone())
                .collect();

            let result = match sys_idx {
                0 => {
                    let redundancy = RedundancyConfig::paper_default();
                    let source = Arc::new(
                        MultiCloudBenchmark::new(rt.clone(), sets[si].clone(), redundancy, 5)
                            .with_chunk_size(scale.theta),
                    );
                    let sinks_clients: Vec<Arc<MultiCloudBenchmark>> = sink_sets
                        .iter()
                        .map(|s| {
                            Arc::new(
                                MultiCloudBenchmark::new(rt.clone(), s.clone(), redundancy, 5)
                                    .with_chunk_size(scale.theta),
                            )
                        })
                        .collect();
                    let src = Arc::clone(&source);
                    pipelined_baseline(
                        &sim,
                        &files,
                        sinks,
                        move |_, path, data| {
                            
                            src.upload(path, data).is_ok()
                        },
                        {
                            let source = Arc::clone(&source);
                            move |s, _, path, _| {
                                if let Some(m) = source.manifest_of(path) {
                                    sinks_clients[s].adopt_manifest(path, m);
                                    sinks_clients[s].download(path).is_ok()
                                } else {
                                    false
                                }
                            }
                        },
                    )
                }
                1 => {
                    let source =
                        Arc::new(IntuitiveMultiCloud::new(rt.clone(), &sets[si], 5));
                    let sinks_clients: Vec<Arc<IntuitiveMultiCloud>> = sink_sets
                        .iter()
                        .map(|s| Arc::new(IntuitiveMultiCloud::new(rt.clone(), s, 5)))
                        .collect();
                    let src = Arc::clone(&source);
                    pipelined_baseline(
                        &sim,
                        &files,
                        sinks,
                        move |_, path, data| src.upload(path, data).is_ok(),
                        move |s, _, path, len| {
                            sinks_clients[s].assume_uploaded(path, len);
                            sinks_clients[s].download(path).is_ok()
                        },
                    )
                }
                n => {
                    let provider = CloudId(n - 2);
                    let source = Arc::new(SingleCloudClient::new(
                        rt.clone(),
                        Arc::clone(sets[si].get(provider)),
                        5,
                    ));
                    let sinks_clients: Vec<Arc<SingleCloudClient>> = sink_sets
                        .iter()
                        .map(|s| {
                            Arc::new(SingleCloudClient::new(
                                rt.clone(),
                                Arc::clone(s.get(provider)),
                                5,
                            ))
                        })
                        .collect();
                    let src = Arc::clone(&source);
                    pipelined_baseline(
                        &sim,
                        &files,
                        sinks,
                        move |_, path, data| src.upload(path, data).is_ok(),
                        move |s, _, path, len| {
                            sinks_clients[s].assume_uploaded(path, len);
                            sinks_clients[s].download(path).is_ok()
                        },
                    )
                }
            };
            match result {
                Some(secs) => {
                    means[1 + sys_idx].push(secs);
                    cells.push(format!("{secs:.0}"));
                }
                None => cells.push("fail".into()),
            }
        }
        table.row(cells);
    }

    println!("{}", table.render());
    let labels = ["UniDrive", "Benchmark", "Intuitive", "Dropbox", "OneDrive", "GoogleDrive"];
    for (label, m) in labels.iter().zip(&means) {
        if let Some(s) = Summary::of(m) {
            println!(
                "{label:12} mean {:7.0}s  variance {:9.0}",
                s.mean, s.variance
            );
        }
    }
    // Paper: 1.33x over the fastest CCS at each site (on average).
    if !means[0].is_empty() {
        let mut speedups = Vec::new();
        for i in 0..means[0].len() {
            let best_ccs = (3..6)
                .filter_map(|s| means[s].get(i).copied())
                .fold(f64::MAX, f64::min);
            speedups.push(best_ccs / means[0][i]);
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        println!("\nUniDrive vs fastest CCS per site: {avg:.2}x (paper: 1.33x)");
    }
}
