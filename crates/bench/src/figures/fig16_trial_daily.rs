//! **Figure 16** — daily average upload throughput for medium-sized
//! files (100 KB - 1 MB) over one simulated week at four trial sites
//! (§7.3): performance is stable across days and similar across sites.

use std::time::Duration;

use crate::{figures::Ctx, mbps, paper_plane};
use unidrive_baseline::UniDriveTransfer;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{build_multicloud, random_bytes, site_by_name, Summary, TextTable};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let sites = ["Princeton", "London", "Tokyo", "Sydney"];
    let days = 7;
    let uploads_per_day = if scale.repeats >= 5 { 24 } else { 8 };

    println!(
        "Figure 16: daily mean upload throughput (Mbit/s), medium files (100 KB-1 MB), one week\n"
    );
    let mut table = TextTable::new(&["day", "Princeton", "London", "Tokyo", "Sydney"]);
    let mut rows: Vec<Vec<String>> = (0..days).map(|d| vec![format!("{d}")]).collect();
    let mut site_cvs = Vec::new();

    for (si, name) in sites.iter().enumerate() {
        let site = site_by_name(name).expect("site exists");
        let sim = SimRuntime::new(1600 + si as u64);
        let (clouds, handles) = build_multicloud(&sim, site);
        for handle in &handles {
            handle.install_obs(cx.obs.clone());
        }
        let config = paper_plane(scale.theta, &cx.obs);
        let client = UniDriveTransfer::new(sim.clone().as_runtime(), clouds, config);
        let mut daily_means = Vec::new();
        for (day, row) in rows.iter_mut().enumerate().take(days) {
            let mut samples = Vec::new();
            for u in 0..uploads_per_day {
                // Medium-sized files: 100 KB - 1 MB.
                let size = 100 * 1024 + ((day * uploads_per_day + u) * 37 % 900) * 1024;
                let data = random_bytes(size, (day * 100 + u) as u64);
                if let Ok(took) = client.upload(&format!("d{day}-u{u}"), data) {
                    samples.push(mbps(size, took));
                }
                sim.sleep(Duration::from_secs(86_400 / uploads_per_day as u64));
            }
            let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
            daily_means.push(mean);
            row.push(format!("{mean:.1}"));
        }
        if let Some(s) = Summary::of(&daily_means) {
            site_cvs.push((name, s.std_dev() / s.mean, s.mean));
        }
    }
    for row in rows {
        table.row(row);
    }
    println!("{}", table.render());
    for (name, cv, mean) in site_cvs {
        println!("{name:10} weekly mean {mean:5.1} Mbit/s, day-to-day cv {cv:.2}");
    }
    println!("(paper: stable across the week and similar across the four sites)");
}
