//! **Figure 1** — spatial dimension of the measurement study (§3.2):
//! average/min/max time to upload and download an 8 MB file to each of
//! the five CCSs from the 13 globally distributed sites, probing
//! periodically for a simulated month.
//!
//! Shape targets from the paper: per-cloud times vary strongly across
//! sites; no cloud wins everywhere; upload and download performance are
//! positively but weakly correlated (~0.4).

use std::sync::Arc;
use std::time::Duration;

use crate::figures::Ctx;
use unidrive_baseline::SingleCloudClient;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{
    build_cloud, pearson, random_bytes, Provider, Summary, TextTable, PLANETLAB_SITES,
};

fn seed_of(site: &str, provider: Provider) -> u64 {
    let mut h = 0xcbf29ce484222325u64; // FNV-1a
    for b in site.bytes().chain([provider as u8]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let days: u64 = if scale.repeats >= 5 { 30 } else { 7 };
    let probes_per_day: u64 = 8; // every 3 virtual hours
    let file_size = 8 * 1024 * 1024;
    let data = random_bytes(file_size, 1);

    println!("Figure 1: avg (min-max) seconds to transfer 8 MB, {days} simulated days\n");
    let headers = ["site", "Dropbox", "OneDrive", "GoogleDrive", "BaiduPCS", "DBank"];
    let mut up_table = TextTable::new(&headers);
    let mut down_table = TextTable::new(&headers);
    let mut up_means = Vec::new();
    let mut down_means = Vec::new();
    let mut winners = std::collections::HashSet::new();

    for site in PLANETLAB_SITES {
        let mut up_cells = vec![site.name.to_owned()];
        let mut down_cells = vec![site.name.to_owned()];
        let mut site_up_means = Vec::new();
        for provider in Provider::ALL {
            let sim = SimRuntime::new(seed_of(site.name, provider));
            let cloud = build_cloud(&sim, site, provider);
            let client =
                SingleCloudClient::new(sim.clone().as_runtime(), Arc::clone(&cloud) as _, 5);
            let mut up_times = Vec::new();
            let mut down_times = Vec::new();
            for probe in 0..days * probes_per_day {
                if let Ok(d) = client.upload(&format!("probe-{probe}"), data.clone()) {
                    up_times.push(d.as_secs_f64());
                }
                if let Ok((d, _)) = client.download(&format!("probe-{probe}")) {
                    down_times.push(d.as_secs_f64());
                }
                // Clean up so storage does not grow unboundedly.
                let _ = cloud.is_available();
                sim.sleep(Duration::from_secs(86_400 / probes_per_day));
            }
            let up = Summary::of(&up_times);
            let down = Summary::of(&down_times);
            up_cells.push(match up {
                Some(s) => format!("{:.1} ({:.1}-{:.1})", s.mean, s.min, s.max),
                None => "-".into(),
            });
            down_cells.push(match down {
                Some(s) => format!("{:.1} ({:.1}-{:.1})", s.mean, s.min, s.max),
                None => "-".into(),
            });
            if let (Some(u), Some(d)) = (up, down) {
                up_means.push(u.mean);
                down_means.push(d.mean);
                site_up_means.push((provider, u.mean));
            }
        }
        if let Some((winner, _)) = site_up_means
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        {
            winners.insert(winner.name());
        }
        up_table.row(up_cells);
        down_table.row(down_cells);
    }

    println!("UPLOAD (seconds)\n{}", up_table.render());
    println!("DOWNLOAD (seconds)\n{}", down_table.render());

    // Paper: correlation between upload and download means ≈ 0.41.
    let corr = pearson(&up_means, &down_means).unwrap_or(f64::NAN);
    println!("upload/download mean-time correlation: {corr:.2} (paper: ~0.41 on speeds)");
    println!(
        "distinct fastest clouds across sites: {} (paper: no always-winner)",
        winners.len()
    );
    let spread = Summary::of(&up_means).expect("nonempty");
    println!(
        "cross-(site,cloud) mean upload spread: {:.0}x (paper: up to ~60x)",
        spread.max / spread.min
    );
}
