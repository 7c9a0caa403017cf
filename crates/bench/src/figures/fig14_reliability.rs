//! **Figure 14** — availability and download performance under n
//! unavailable clouds (§7.2): with K_r = 3 and K_s = 2, downloads keep
//! succeeding through n = 2 (and usually n = 3 thanks to
//! over-provisioned blocks), fail by design at n = 4, and get slower as
//! fewer (and slower) clouds remain.

use std::time::Duration;

use crate::{figures::Ctx, systems_at};
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{random_bytes, site_by_name, Summary, TextTable};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let size = scale.large_file;
    let site = site_by_name("Tokyo").expect("site");
    let repeats = 12; // the paper repeats each n twelve times

    println!(
        "Figure 14: download success and time vs unavailable clouds, {} MB, Tokyo\n",
        size / (1024 * 1024)
    );
    let mut table = TextTable::new(&["n dead", "success", "avg secs", "min-max secs"]);
    for n in 0..=4usize {
        let sim = SimRuntime::new(1400 + n as u64);
        let sys = systems_at(&sim, site, scale.theta, &cx.obs);
        let data = random_bytes(size, 14);
        // Pre-upload with the reliability requirement fulfilled (let the
        // background reliability phase complete before the outages).
        sys.unidrive.upload("payload", data.clone()).expect("upload");
        sim.sleep(Duration::from_secs(3600));
        // Disable n clouds (slowest first, like losing the weakest
        // providers; the paper disables randomly — the shape is the
        // same).
        for handle in sys.handles.iter().rev().take(n) {
            handle.set_available(false);
        }
        let mut times = Vec::new();
        let mut successes = 0usize;
        for _ in 0..repeats {
            if let Ok((took, restored)) = sys.unidrive.download("payload") {
                assert_eq!(restored, data.to_vec(), "integrity");
                successes += 1;
                times.push(took.as_secs_f64());
            }
            sim.sleep(Duration::from_secs(300));
        }
        let stats = Summary::of(&times);
        table.row(vec![
            format!("{n}"),
            format!("{successes}/{repeats}"),
            stats.map(|s| format!("{:.1}", s.mean)).unwrap_or("-".into()),
            stats
                .map(|s| format!("{:.1}-{:.1}", s.min, s.max))
                .unwrap_or("-".into()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(paper: works through n = 3 thanks to over-provisioned blocks, impossible at\n\
         n = 4 because K_s = 2 caps any single cloud below k blocks; performance\n\
         degrades as fewer clouds remain)"
    );
}
