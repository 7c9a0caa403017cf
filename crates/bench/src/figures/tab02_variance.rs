//! **Table 2** — variance of average sync time across locations (§7.2):
//! UniDrive's average sync time varies several-fold less across the 7
//! EC2 sites than any single CCS's.
//!
//! This is the stability cross-section of the Figure 11 campaign; here
//! we run a lighter single-file sync per site so the table regenerates
//! quickly (`fig11_batch_sync` prints the full batch variant).

use std::time::Duration;

use crate::{figures::Ctx, systems_at};
use unidrive_obs::Obs;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{random_bytes, Summary, TextTable, EC2_SITES};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let size = scale.batch.1 * 8; // a medium sync payload
    let repeats = scale.repeats;

    // Sync time model per site: upload at the site + download at the
    // site (a two-device round through the multi-cloud).
    let mut per_system: Vec<(&str, Vec<f64>)> = vec![
        ("UniDrive", Vec::new()),
        ("Dropbox", Vec::new()),
        ("OneDrive", Vec::new()),
        ("GoogleDrive", Vec::new()),
    ];
    for (si, site) in EC2_SITES.iter().enumerate() {
        let sim = SimRuntime::new(1202 + si as u64);
        let sys = systems_at(&sim, *site, scale.theta, &Obs::noop());
        let data = random_bytes(size, si as u64);
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for rep in 0..repeats {
            let name = format!("v{rep}");
            if let (Ok(u), Ok((d, _))) = (
                sys.unidrive.upload(&name, data.clone()),
                sys.unidrive.download(&name),
            ) {
                samples[0].push(u.as_secs_f64() + d.as_secs_f64());
            }
            for (i, (_, native)) in sys.natives.iter().take(3).enumerate() {
                if let Ok(u) = native.upload(&name, data.clone()) {
                    if let Ok((d, _)) = native.download(&name) {
                        samples[1 + i].push(u.as_secs_f64() + d.as_secs_f64());
                    }
                }
            }
            sim.sleep(Duration::from_secs(1800));
        }
        for (i, s) in samples.iter().enumerate() {
            if let Some(sum) = Summary::of(s) {
                per_system[i].1.push(sum.mean);
            }
        }
    }

    println!(
        "Table 2: variance of per-site average sync time (s^2), {} MB payload\n",
        size / (1024 * 1024)
    );
    let mut table = TextTable::new(&["", "Dropbox", "OneDrive", "GoogleDr.", "UniDrive"]);
    let var = |v: &[f64]| Summary::of(v).map(|s| s.variance).unwrap_or(f64::NAN);
    table.row(vec![
        "Variance".into(),
        format!("{:.1}", var(&per_system[1].1)),
        format!("{:.1}", var(&per_system[2].1)),
        format!("{:.1}", var(&per_system[3].1)),
        format!("{:.1}", var(&per_system[0].1)),
    ]);
    println!("{}", table.render());
    println!(
        "(paper: Dropbox 134.2, OneDrive 140.9, GoogleDrive 558.0, UniDrive 33.1 —\n\
         UniDrive remarkably more stable, by several folds)"
    );
}
