//! **Figure 10** — hourly variation over one day transferring the large
//! file on the Virginia node (§7.2): UniDrive is faster *and far more
//! stable* over time than the fastest single CCS there, whose
//! performance swings with network fluctuation.

use std::sync::Arc;
use std::time::Duration;

use crate::{figures::Ctx, systems_at};
use unidrive_baseline::SingleCloudClient;
use unidrive_obs::Obs;
use unidrive_sim::{Runtime, SimRuntime};
use unidrive_workload::{random_bytes, site_by_name, Provider, Summary, TextTable};

pub fn run(cx: &Ctx) {
    let scale = &cx.scale;
    let size = scale.large_file;
    let site = site_by_name("Virginia").expect("site exists");
    let sim = SimRuntime::new(1010);
    let sys = systems_at(&sim, site, scale.theta, &Obs::noop());
    // OneDrive is the paper's comparison point at Virginia.
    let onedrive_cloud = sys
        .clouds
        .iter()
        .find(|(_, c)| c.name() == Provider::OneDrive.name())
        .map(|(_, c)| Arc::clone(c))
        .expect("OneDrive present");
    let onedrive = SingleCloudClient::new(sim.clone().as_runtime(), onedrive_cloud, 5);
    let data = random_bytes(size, 10);

    println!(
        "Figure 10: hourly {} MB upload seconds over one day, Virginia\n",
        size / (1024 * 1024)
    );
    let mut table = TextTable::new(&["hour", "UniDrive", "OneDrive"]);
    let mut uni = Vec::new();
    let mut one = Vec::new();
    for hour in 0..24 {
        let name = format!("h{hour}");
        let u = sys.unidrive.upload(&name, data.clone());
        let o = onedrive.upload(&name, data.clone());
        let mut cells = vec![format!("{hour:02}")];
        match u {
            Ok(d) => {
                uni.push(d.as_secs_f64());
                cells.push(format!("{:.1}", d.as_secs_f64()));
            }
            Err(_) => cells.push("fail".into()),
        }
        match o {
            Ok(d) => {
                one.push(d.as_secs_f64());
                cells.push(format!("{:.1}", d.as_secs_f64()));
            }
            Err(_) => cells.push("fail".into()),
        }
        table.row(cells);
        sim.sleep(Duration::from_secs(3600));
    }
    println!("{}", table.render());
    let (u, o) = (
        Summary::of(&uni).expect("samples"),
        Summary::of(&one).expect("samples"),
    );
    println!(
        "UniDrive: mean {:.1}s, max/min {:.1}x | OneDrive: mean {:.1}s, max/min {:.1}x",
        u.mean,
        u.max_over_min(),
        o.mean,
        o.max_over_min()
    );
    println!(
        "(paper: UniDrive higher and stable, OneDrive varies significantly; \
         coefficient of variation {:.2} vs {:.2})",
        u.std_dev() / u.mean,
        o.std_dev() / o.mean
    );
}
