//! **Table 1** — correlation between failed Web API requests among the
//! three US CCSs (§3.2): pairwise *negative* correlation, i.e. clouds
//! rarely degrade at the same time. Also reprints the §3.2 success-rate
//! text figures (≈99 % US↔US, ≈90 % from China, ≈95 % BaiduPCS).
//!
//! The mechanism in the simulation matches the paper's interpretation:
//! degradation windows are cloud-local and disjoint, so when one cloud
//! is failing the others are statistically healthier than average.

use std::sync::Arc;
use std::time::Duration;

use crate::figures::Ctx;
use unidrive_baseline::SingleCloudClient;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{
    build_cloud, disjoint_degraded_windows, pearson, random_bytes, site_by_name, Provider,
    TextTable,
};

pub fn run(_cx: &Ctx) {
    let site = site_by_name("Princeton").expect("site exists");
    let horizon = Duration::from_secs(14 * 86_400);
    let probes = 1_000u64;
    let data = random_bytes(1024 * 1024, 5);

    // One shared world: the three clouds take turns being degraded.
    let sim = SimRuntime::new(77);
    let windows = disjoint_degraded_windows(horizon, 3, 0.30, 9);
    let clouds: Vec<(Provider, std::sync::Arc<unidrive_cloud::SimCloud>)> = Provider::US
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let cloud = build_cloud(&sim, site, p);
            cloud.set_degraded_windows(windows[i].clone());
            (p, cloud)
        })
        .collect();

    // Probe all three back-to-back with raw Web API requests (the paper
    // counts per-request outcomes, before client retries).
    let mut fails: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let step = horizon.as_secs() / probes;
    for probe in 0..probes {
        for (i, (_, cloud)) in clouds.iter().enumerate() {
            use unidrive_cloud::CloudStore;
            let failed = cloud.upload(&format!("p{probe}"), data.clone()).is_err();
            fails[i].push(if failed { 1.0 } else { 0.0 });
        }
        sim.sleep(Duration::from_secs(step));
    }

    println!("Table 1: correlation of failed requests among the US CCSs (uploads)\n");
    let mut table = TextTable::new(&["", "Dropbox", "OneDrive", "GoogleDrive"]);
    for a in 0..3 {
        let mut cells = vec![clouds[a].0.name().to_owned()];
        for b in 0..3 {
            if a == b {
                cells.push("-".into());
            } else {
                let r = pearson(&fails[a], &fails[b]).unwrap_or(f64::NAN);
                cells.push(format!("{r:+.3}"));
            }
        }
        table.row(cells);
    }
    println!("{}", table.render());
    println!("(paper reports values between -0.12 and -0.97: negative throughout)\n");

    // Success-rate text figures from §3.2.
    println!("API success rates (fresh worlds, no degraded windows):");
    for (from, provider, label) in [
        ("Princeton", Provider::Dropbox, "US -> US cloud (paper ~99%)"),
        ("Beijing", Provider::Dropbox, "CN -> US cloud (paper ~90%)"),
        ("London", Provider::BaiduPcs, "EU -> BaiduPCS (paper ~95%)"),
    ] {
        let site = site_by_name(from).expect("site");
        let sim = SimRuntime::new(500 + from.len() as u64);
        let cloud = build_cloud(&sim, site, provider);
        let client = SingleCloudClient::new(sim.clone().as_runtime(), Arc::clone(&cloud) as _, 1);
        let small = random_bytes(256 * 1024, 9);
        for i in 0..400 {
            let _ = client.upload(&format!("s{i}"), small.clone());
            sim.sleep(Duration::from_secs(120));
        }
        let t = cloud.traffic();
        println!(
            "  {from:10} -> {:12} {:5.1}%   ({label})",
            provider.name(),
            100.0 * t.success_rate()
        );
    }
}
