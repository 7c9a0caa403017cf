//! **Figure 9** — average transfer time vs file size on the Virginia
//! node (§7.2): UniDrive and even the multi-cloud benchmark outperform
//! all native CCS apps for almost all file sizes.

use std::time::Duration;

use crate::{figures::Ctx, systems_at};
use unidrive_obs::Obs;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{random_bytes, site_by_name, Summary, TextTable};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let sizes_mb: Vec<usize> = if scale.repeats >= 5 {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        vec![1, 2, 4, 8]
    };
    let site = site_by_name("Virginia").expect("site exists");

    println!(
        "Figure 9: mean upload seconds vs file size, Virginia, {} repeats\n",
        scale.repeats
    );
    let mut table = TextTable::new(&[
        "size", "UniDrive", "Benchmark", "Intuitive", "best native", "worst native",
    ]);
    let mut unidrive_wins = 0usize;
    for &mb in &sizes_mb {
        let size = mb * 1024 * 1024;
        let sim = SimRuntime::new(900 + mb as u64);
        let sys = systems_at(&sim, site, scale.theta.min(size), &Obs::noop());
        let data = random_bytes(size, mb as u64);
        let mut uni = Vec::new();
        let mut bench = Vec::new();
        let mut intuitive = Vec::new();
        let mut native_means: Vec<Vec<f64>> = vec![Vec::new(); sys.natives.len()];
        for rep in 0..scale.repeats {
            let name = format!("s{mb}-{rep}");
            if let Ok(d) = sys.unidrive.upload(&name, data.clone()) {
                uni.push(d.as_secs_f64());
            }
            if let Ok(d) = sys.benchmark.upload(&name, data.clone()) {
                bench.push(d.as_secs_f64());
            }
            if let Ok(d) = sys.intuitive.upload(&name, data.clone()) {
                intuitive.push(d.as_secs_f64());
            }
            for (i, (_, native)) in sys.natives.iter().enumerate() {
                if let Ok(d) = native.upload(&name, data.clone()) {
                    native_means[i].push(d.as_secs_f64());
                }
            }
            sim.sleep(Duration::from_secs(1800));
        }
        let mean = |v: &[f64]| Summary::of(v).map(|s| s.mean).unwrap_or(f64::NAN);
        let natives: Vec<f64> = native_means.iter().map(|v| mean(v)).collect();
        let best = natives.iter().cloned().fold(f64::MAX, f64::min);
        let worst = natives.iter().cloned().fold(0.0f64, f64::max);
        if mean(&uni) < best {
            unidrive_wins += 1;
        }
        table.row(vec![
            format!("{mb} MB"),
            format!("{:.1}", mean(&uni)),
            format!("{:.1}", mean(&bench)),
            format!("{:.1}", mean(&intuitive)),
            format!("{best:.1}"),
            format!("{worst:.1}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "UniDrive beats the best native app at {unidrive_wins}/{} sizes \
         (paper: at almost all file sizes)",
        sizes_mb.len()
    );
}
