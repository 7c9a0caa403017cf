//! **Figures 15 & §7.3 statistics** — the synthetic 272-user trial:
//! average upload throughput at different geo-locations grouped by
//! file-size bucket, plus the deployment statistics the paper reports.
//!
//! Shape targets: throughputs at different locations are close to each
//! other within each size bucket (UniDrive masks location disparity);
//! larger files achieve higher, more stable throughput; >1 MB files
//! exceed ~10 Mbit/s almost everywhere.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{figures::Ctx, mbps, paper_plane};
use unidrive_baseline::UniDriveTransfer;
use unidrive_cloud::{CloudSet, CloudStore, SimCloud};
use unidrive_core::DataPlaneConfig;
use unidrive_erasure::RedundancyConfig;
use unidrive_obs::Obs;
use unidrive_sim::SimRuntime;
use unidrive_workload::{
    cloud_config, random_bytes, trial_population, SizeBucket, TextTable,
};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let users = if scale.repeats >= 5 { 272 } else { 80 };
    let files_per_user = if scale.repeats >= 5 { 8 } else { 4 };
    let population = trial_population(1500, users, files_per_user);

    println!(
        "Figure 15: trial upload throughput (Mbit/s) by site and size bucket \
         ({users} users, {files_per_user} files each)\n"
    );

    // site -> bucket -> throughput samples.
    let mut by_site: BTreeMap<&str, BTreeMap<SizeBucket, Vec<f64>>> = BTreeMap::new();
    let mut total_files = 0usize;
    let mut total_bytes = 0u64;
    let mut op_failures = 0usize;

    for user in &population {
        let sim = SimRuntime::new(1500 + user.id as u64);
        let mut handles: Vec<Arc<SimCloud>> = Vec::new();
        let members: Vec<Arc<dyn CloudStore>> = user
            .providers
            .iter()
            .map(|&p| {
                let c = Arc::new(SimCloud::new(&sim, p.name(), cloud_config(user.site, p)));
                handles.push(Arc::clone(&c));
                c as Arc<dyn CloudStore>
            })
            .collect();
        let n = members.len();
        let clouds = CloudSet::new(members);
        let redundancy = RedundancyConfig::new(n, 3, 3, 2).expect("3..=5 clouds valid");
        // A trial user enrols 3 to 5 clouds; the rest is the paper's plane.
        let config = DataPlaneConfig {
            redundancy,
            ..paper_plane(scale.theta, &Obs::noop())
        };
        let client = UniDriveTransfer::new(sim.clone().as_runtime(), clouds, config);

        for (fi, (_, size)) in user.files.iter().enumerate() {
            // Cap the extreme tail so a single run stays tractable.
            let size = (*size).min(16 * 1024 * 1024) as usize;
            let data = random_bytes(size, (user.id * 1000 + fi) as u64);
            total_files += 1;
            total_bytes += size as u64;
            match client.upload(&format!("u{}-f{fi}", user.id), data) {
                Ok(took) => {
                    by_site
                        .entry(user.site.name)
                        .or_default()
                        .entry(SizeBucket::of(size as u64))
                        .or_default()
                        .push(mbps(size, took));
                }
                Err(_) => op_failures += 1,
            }
        }
    }

    let mut table = TextTable::new(&["site", "<100KB", "100KB-1MB", "1MB-10MB", ">10MB"]);
    let mut per_bucket_site_means: BTreeMap<SizeBucket, Vec<f64>> = BTreeMap::new();
    for (site, buckets) in &by_site {
        let mut cells = vec![site.to_string()];
        for bucket in SizeBucket::ALL {
            match buckets.get(&bucket) {
                Some(v) if !v.is_empty() => {
                    let mean = v.iter().sum::<f64>() / v.len() as f64;
                    per_bucket_site_means.entry(bucket).or_default().push(mean);
                    cells.push(format!("{mean:.1}"));
                }
                _ => cells.push("-".into()),
            }
        }
        table.row(cells);
    }
    println!("{}", table.render());

    // §7.3 statistics.
    println!("deployment: {users} users, {total_files} files, {:.1} GB uploaded", total_bytes as f64 / 1e9);
    println!(
        "complete-operation success rate: {:.1}% (paper: 98.4% despite 82.5% API success)",
        100.0 * (1.0 - op_failures as f64 / total_files.max(1) as f64)
    );
    for bucket in SizeBucket::ALL {
        if let Some(means) = per_bucket_site_means.get(&bucket) {
            if means.len() >= 2 {
                let max = means.iter().cloned().fold(0.0f64, f64::max);
                let min = means.iter().cloned().fold(f64::MAX, f64::min);
                println!(
                    "{:10} cross-site mean-throughput spread: {:.1}x",
                    bucket.label(),
                    max / min
                );
            }
        }
    }
    println!("(paper: throughputs close across locations; >10 Mbit/s for files above 1 MB)");
}
