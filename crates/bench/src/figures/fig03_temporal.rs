//! **Figure 3** — temporal dimension of the measurement study (§3.2):
//! daily upload time of an 8 MB file over a simulated month on the
//! Princeton node, for the three US clouds.
//!
//! Shape targets: heavy unpredictable fluctuation (max/min within the
//! month reaching order-10×, the paper quotes up to 17× within a day),
//! and the three clouds' series being largely *independent* (pairwise
//! correlation near zero).

use std::sync::Arc;
use std::time::Duration;

use crate::figures::Ctx;
use unidrive_baseline::SingleCloudClient;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{build_cloud, pearson, random_bytes, site_by_name, Provider, Summary, TextTable};

pub fn run(_cx: &Ctx) {
    let site = site_by_name("Princeton").expect("site exists");
    let days = 30;
    let data = random_bytes(8 * 1024 * 1024, 3);

    // One shared world so the three clouds' fluctuations share a clock
    // (and can be tested for independence).
    let sim = SimRuntime::new(303);
    let clients: Vec<(Provider, SingleCloudClient)> = Provider::US
        .iter()
        .map(|&p| {
            let cloud = build_cloud(&sim, site, p);
            (
                p,
                SingleCloudClient::new(sim.clone().as_runtime(), Arc::clone(&cloud) as _, 5),
            )
        })
        .collect();

    let mut series: Vec<Vec<f64>> = vec![Vec::new(); clients.len()];
    let mut table = TextTable::new(&["day", "Dropbox", "OneDrive", "GoogleDrive"]);
    for day in 0..days {
        let mut cells = vec![format!("{day:02}")];
        for (i, (_, client)) in clients.iter().enumerate() {
            // Up to a few attempts: transient failures happen (paper
            // §3.2); a day's sample is the first success.
            let mut took = None;
            for attempt in 0..3 {
                if let Ok(d) = client.upload(&format!("d{day}-a{attempt}"), data.clone()) {
                    took = Some(d.as_secs_f64());
                    break;
                }
            }
            match took {
                Some(t) => {
                    series[i].push(t);
                    cells.push(format!("{t:.1}"));
                }
                None => cells.push("fail".into()),
            }
        }
        table.row(cells);
        sim.sleep(Duration::from_secs(86_400));
    }

    println!("Figure 3: daily 8 MB upload seconds over a month, Princeton\n");
    println!("{}", table.render());
    for (i, (p, _)) in clients.iter().enumerate() {
        if let Some(s) = Summary::of(&series[i]) {
            println!(
                "{:12} fluctuation max/min = {:.1}x (paper: up to 17x within a day)",
                p.name(),
                s.max_over_min()
            );
        }
    }
    for a in 0..clients.len() {
        for b in (a + 1)..clients.len() {
            let n = series[a].len().min(series[b].len());
            if let Some(r) = pearson(&series[a][..n], &series[b][..n]) {
                println!(
                    "corr({}, {}) = {r:+.2} (paper: largely independent)",
                    clients[a].0.name(),
                    clients[b].0.name()
                );
            }
        }
    }
}
