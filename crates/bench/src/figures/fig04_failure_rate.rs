//! **Figure 4** — impact of file size on the Web API failure rate
//! (§3.2, Princeton): larger transfers fail more; below ~2 MB the
//! increase is mild.

use std::time::Duration;

use crate::figures::Ctx;
use unidrive_cloud::CloudStore;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{build_cloud, random_bytes, site_by_name, Provider, TextTable};

pub fn run(_cx: &Ctx) {
    let site = site_by_name("Princeton").expect("site exists");
    let sizes_kb: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];
    let attempts = 400;

    println!("Figure 4: failed request share by file size, Princeton, {attempts} attempts each\n");
    let mut table = TextTable::new(&["size", "Dropbox fail %", "OneDrive fail %", "GoogleDrive fail %"]);
    let mut small_rate = 0.0;
    let mut big_rate = 0.0;
    for &kb in &sizes_kb {
        let size = kb * 1024;
        let mut cells = vec![if kb >= 1024 {
            format!("{} MB", kb / 1024)
        } else {
            format!("{kb} KB")
        }];
        for provider in Provider::US {
            let sim = SimRuntime::new(4_000 + kb as u64 * 3 + provider as u64);
            let cloud = build_cloud(&sim, site, provider);
            let data = random_bytes(size, kb as u64);
            let mut failures = 0usize;
            for i in 0..attempts {
                // Raw Web API request: the paper counts per-request
                // outcomes, before any client-level retries.
                if cloud.upload(&format!("f{i}"), data.clone()).is_err() {
                    failures += 1;
                }
                sim.sleep(Duration::from_secs(60));
            }
            let rate = 100.0 * failures as f64 / attempts as f64;
            cells.push(format!("{rate:.1}"));
            if provider == Provider::Dropbox {
                if kb == sizes_kb[0] {
                    small_rate = rate;
                }
                if kb == sizes_kb[sizes_kb.len() - 1] {
                    big_rate = rate;
                }
            }
        }
        table.row(cells);
    }
    println!("{}", table.render());
    println!(
        "Dropbox failure rate grows {small_rate:.1}% -> {big_rate:.1}% from 256 KB to 8 MB \
         (paper: failures rise with size, mild below 2 MB)"
    );
}
