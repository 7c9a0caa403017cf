//! **Figure 8** — the micro-benchmark (§7.2): average (min/max) time to
//! upload and download a large file on the 7 EC2 sites, comparing
//! UniDrive against each native CCS app and the multi-cloud benchmark.
//!
//! Shape targets: UniDrive beats the *fastest* CCS at every site
//! (paper: 2.64× upload, 1.49× download on average), beats the
//! benchmark by ~1.5×, and has the smallest min-max spread.

use std::time::Duration;

use crate::{figures::Ctx, systems_at};
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{random_bytes, Summary, TextTable, EC2_SITES};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    // fig08 measures the raw data plane (no metadata commits), so the
    // mode only selects the echo — the transfer numbers are identical
    // under both planes.
    let meta_mode = cx.meta_mode;
    let size = scale.large_file;
    let data = random_bytes(size, 8);
    println!(
        "Figure 8: {} MB transfer seconds, avg (min-max), {} repeats per site (meta-mode {meta_mode}; data plane only)\n",
        size / (1024 * 1024),
        scale.repeats
    );

    let headers = [
        "site", "UniDrive", "Benchmark", "Intuitive", "Dropbox", "OneDrive", "GoogleDrive",
        "BaiduPCS", "DBank",
    ];
    let mut up_table = TextTable::new(&headers);
    let mut down_table = TextTable::new(&headers);
    let mut up_speedups = Vec::new();
    let mut down_speedups = Vec::new();
    let mut bench_speedups = Vec::new();

    for site in EC2_SITES {
        let sim = SimRuntime::new(0x0808 + site.name.len() as u64 * 131);
        // Virtual-time clock for the windowed series (--obs-out).
        sim.install_obs(cx.obs.clone());
        let sys = systems_at(&sim, site, scale.theta, &cx.obs);
        let mut up: Vec<Vec<f64>> = vec![Vec::new(); 8];
        let mut down: Vec<Vec<f64>> = vec![Vec::new(); 8];
        for rep in 0..scale.repeats {
            let name = format!("micro-{rep}");
            // Back-to-back transfers under identical (fluctuating)
            // conditions, as in the paper's methodology.
            if let Ok(d) = sys.unidrive.upload(&name, data.clone()) {
                up[0].push(d.as_secs_f64());
            }
            if let Ok((d, _)) = sys.unidrive.download(&name) {
                down[0].push(d.as_secs_f64());
            }
            if let Ok(d) = sys.benchmark.upload(&name, data.clone()) {
                up[1].push(d.as_secs_f64());
            }
            if let Ok((d, _)) = sys.benchmark.download(&name) {
                down[1].push(d.as_secs_f64());
            }
            if let Ok(d) = sys.intuitive.upload(&name, data.clone()) {
                up[2].push(d.as_secs_f64());
            }
            if let Ok((d, _)) = sys.intuitive.download(&name) {
                down[2].push(d.as_secs_f64());
            }
            for (i, (_, native)) in sys.natives.iter().enumerate() {
                if let Ok(d) = native.upload(&name, data.clone()) {
                    up[3 + i].push(d.as_secs_f64());
                }
                if let Ok((d, _)) = native.download(&name) {
                    down[3 + i].push(d.as_secs_f64());
                }
            }
            sim.sleep(Duration::from_secs(3600));
        }

        let fmt = |v: &[f64]| match Summary::of(v) {
            Some(s) => format!("{:.1} ({:.1}-{:.1})", s.mean, s.min, s.max),
            None => "fail".into(),
        };
        let mut up_cells = vec![site.name.to_owned()];
        let mut down_cells = vec![site.name.to_owned()];
        for i in 0..8 {
            up_cells.push(fmt(&up[i]));
            down_cells.push(fmt(&down[i]));
        }
        up_table.row(up_cells);
        down_table.row(down_cells);

        // Speedup of UniDrive over the fastest native CCS at this site.
        let mean = |v: &[f64]| Summary::of(v).map(|s| s.mean);
        let best_native_up = (3..8).filter_map(|i| mean(&up[i])).fold(f64::MAX, f64::min);
        let best_native_down = (3..8)
            .filter_map(|i| mean(&down[i]))
            .fold(f64::MAX, f64::min);
        if let Some(u) = mean(&up[0]) {
            up_speedups.push(best_native_up / u);
            if let Some(b) = mean(&up[1]) {
                bench_speedups.push(b / u);
            }
        }
        if let Some(d) = mean(&down[0]) {
            down_speedups.push(best_native_down / d);
        }
    }

    println!("UPLOAD (seconds)\n{}", up_table.render());
    println!("DOWNLOAD (seconds)\n{}", down_table.render());
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "UniDrive vs fastest CCS per site:   upload {:.2}x, download {:.2}x  (paper: 2.64x / 1.49x)",
        avg(&up_speedups),
        avg(&down_speedups)
    );
    println!(
        "UniDrive vs multi-cloud benchmark:  upload {:.2}x              (paper: ~1.5x)",
        avg(&bench_speedups)
    );
}
