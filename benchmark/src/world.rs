//! The worlds the workloads run in: devices (client + folder + meter)
//! over five clouds, either `MockS3` servers on loopback (wall clock)
//! or `SimCloud` frontends over shared backings (virtual time).

use std::sync::Arc;
use std::time::Duration;

use unidrive_chunker::ChunkerConfig;
use unidrive_cloud::{
    CloudSet, CloudStore, FailureProfile, MemCloud, MockS3, RetryPolicy, S3Endpoint, SimCloud,
    SimCloudConfig, TrafficSnapshot,
};
use unidrive_core::{s3_cloud_set, ClientConfig, MemFolder, UniDriveClient};
use unidrive_meta::MetaMode;
use unidrive_sim::{LinkProfile, RealRuntime, Runtime, SimRng, SimRuntime};
use unidrive_workload::{cloud_config, Provider, Site, EC2_SITES};

use crate::meter::{DeviceMeter, MeteredCloud, MeteredFolder, Tracer};
use crate::spec::Workload;

pub const CLOUDS: usize = 5;

pub struct Device {
    pub client: UniDriveClient,
    /// The folder itself; the client sees it through a `MeteredFolder`.
    pub folder: Arc<MemFolder>,
    pub meter: Arc<DeviceMeter>,
}

pub struct World {
    pub rt: Arc<dyn Runtime>,
    /// The simulator behind `rt`, for the virtual-time workloads.
    pub sim: Option<Arc<SimRuntime>>,
    /// Devices are taken out while a phase runs them on their own
    /// threads, and put back when it ends.
    pub devices: Vec<Option<Device>>,
    pub tracer: Arc<Tracer>,
    /// The five providers' stores, for `stored_bytes_per_live_byte`.
    pub backings: Vec<Arc<MemCloud>>,
    servers: Vec<MockS3>,
    sim_clouds: Vec<Arc<SimCloud>>,
    /// Configuration a further device joins with.
    pub config: ClientConfig,
    seed: u64,
}

/// `ClientConfig::paper_default`, with the retry and lock back-offs of
/// the wall-clock workloads shrunk exactly as `tests/s3_sync.rs` does
/// (they would be virtual time under the simulator).
fn client_config(workload: Workload) -> ClientConfig {
    let mut config = ClientConfig::paper_default("device");
    if workload == Workload::WireEdit {
        // θ = 1 MiB instead of 4: each 12 MiB file then has about twelve
        // segments instead of three, so how many bytes a 4 KiB edit
        // re-uploads depends little on which segment the seed hits.
        config.data.chunker = ChunkerConfig::new(1 << 20);
    }
    match workload {
        Workload::WireBulk | Workload::WireSmall | Workload::WireEdit => {
            config.data.retry = RetryPolicy {
                max_attempts: 6,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(40),
            };
            config.lock.backoff_base = Duration::from_millis(10);
            config.lock.backoff_max = Duration::from_millis(80);
            config.lock.stale_after = Duration::from_secs(2);
            config.poll_interval = Duration::from_millis(50);
        }
        Workload::HotOplog => config.meta_mode = MetaMode::Oplog,
        Workload::WanBatch | Workload::HotLock => {}
    }
    config
}

/// The §3.2-calibrated path from `site` to `provider` (heterogeneous
/// rates, request latency, `FailureProfile`, lognormal fluctuation with
/// fades), with the weather re-drawn every few seconds instead of every
/// five minutes: a round then averages over many draws, so its time
/// depends on the scheduler and not on which draw the seed dealt it.
pub fn wan_cloud_config(site: Site, provider: Provider) -> SimCloudConfig {
    let mut config = cloud_config(site, provider);
    config.up = config.up.with_epoch(WAN_WEATHER_EPOCH);
    config.down = config.down.with_epoch(WAN_WEATHER_EPOCH);
    config
}

const WAN_WEATHER_EPOCH: Duration = Duration::from_secs(5);

/// One device's `SimCloud` frontends to the shared provider stores.
pub fn sim_frontends(
    sim: &Arc<SimRuntime>,
    backings: &[Arc<MemCloud>],
    view: impl Fn(usize) -> SimCloudConfig,
) -> Vec<Arc<SimCloud>> {
    backings
        .iter()
        .enumerate()
        .map(|(i, backing)| {
            Arc::new(SimCloud::with_backing(
                sim,
                Provider::ALL[i].name(),
                view(i),
                Arc::clone(backing),
            ))
        })
        .collect()
}

pub fn cloud_set(frontends: &[Arc<SimCloud>]) -> CloudSet {
    CloudSet::new(
        frontends
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn CloudStore>)
            .collect(),
    )
}

impl World {
    /// Builds the world of `workload` with `devices` devices, all empty.
    pub fn build(workload: Workload, devices: usize, seed: u64) -> World {
        let config = client_config(workload);
        match workload {
            Workload::WireBulk | Workload::WireSmall | Workload::WireEdit => {
                let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
                let servers: Vec<MockS3> = (0..CLOUDS)
                    .map(|_| MockS3::start().expect("bind a loopback MockS3 server"))
                    .collect();
                let endpoints: Vec<S3Endpoint> = servers
                    .iter()
                    .enumerate()
                    .map(|(i, s)| S3Endpoint::new(format!("s3-{i}"), s.addr(), "unidrive"))
                    .collect();
                // Every device has its own connection pools, like two
                // machines would.
                let sets = (0..devices)
                    .map(|_| s3_cloud_set(&rt, &endpoints, &config.data))
                    .collect();
                let backings = servers.iter().map(|s| Arc::clone(s.store())).collect();
                World::assemble(rt, None, sets, backings, config, seed, servers, Vec::new())
            }
            Workload::WanBatch => {
                // Virginia and Ireland: the two devices see the same five
                // providers over different, fluctuating, failing paths.
                let sites = [EC2_SITES[0], EC2_SITES[3]];
                assert_eq!(devices, sites.len());
                let views =
                    sites.map(|site| move |i: usize| wan_cloud_config(site, Provider::ALL[i]));
                World::simulated(config, seed, &views)
            }
            Workload::HotLock | Workload::HotOplog => {
                // Steady 2 MB/s links with WAN request latency: all the
                // time goes to protocol round trips, none to weather.
                let link = LinkProfile::steady(2e6, 8e6)
                    .with_latency(Duration::from_millis(120), Duration::from_millis(80));
                let view = |_: usize| SimCloudConfig {
                    up: link.clone(),
                    down: link.clone(),
                    failure: FailureProfile::none(),
                    quota_bytes: None,
                    request_overhead_bytes: 600,
                };
                World::simulated(config, seed, &vec![view; devices])
            }
        }
    }

    /// A virtual-time world: five shared provider stores, and per device
    /// one `SimCloud` frontend to each, configured by that device's view.
    fn simulated<V: Fn(usize) -> SimCloudConfig>(
        config: ClientConfig,
        seed: u64,
        views: &[V],
    ) -> World {
        let sim = SimRuntime::new(seed);
        let backings: Vec<Arc<MemCloud>> = Provider::ALL
            .iter()
            .map(|p| Arc::new(MemCloud::new(p.name())))
            .collect();
        let mut sim_clouds = Vec::new();
        let sets = views
            .iter()
            .map(|view| {
                let frontends = sim_frontends(&sim, &backings, view);
                let set = cloud_set(&frontends);
                sim_clouds.extend(frontends);
                set
            })
            .collect();
        World::assemble(
            sim.clone().as_runtime(),
            Some(sim),
            sets,
            backings,
            config,
            seed,
            Vec::new(),
            sim_clouds,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        rt: Arc<dyn Runtime>,
        sim: Option<Arc<SimRuntime>>,
        sets: Vec<CloudSet>,
        backings: Vec<Arc<MemCloud>>,
        config: ClientConfig,
        seed: u64,
        servers: Vec<MockS3>,
        sim_clouds: Vec<Arc<SimCloud>>,
    ) -> World {
        let tracer = Tracer::new(Arc::clone(&rt));
        let mut world = World {
            rt,
            sim,
            devices: Vec::new(),
            tracer,
            backings,
            servers,
            sim_clouds,
            config,
            seed,
        };
        for (index, set) in sets.into_iter().enumerate() {
            let device = world.join_device(index, set);
            world.devices.push(Some(device));
        }
        world
    }

    /// A fresh, empty device over `clouds`, metered like the others.
    pub fn join_device(&self, index: usize, clouds: CloudSet) -> Device {
        let meter = DeviceMeter::new(index as u8, Arc::clone(&self.tracer));
        let metered = CloudSet::new(
            clouds
                .iter()
                .map(|(id, cloud)| MeteredCloud::wrap(Arc::clone(cloud), &meter, id.0))
                .collect(),
        );
        let folder = MemFolder::new();
        let mut config = self.config.clone();
        config.device = format!("device-{index}");
        let client = UniDriveClient::new(
            Arc::clone(&self.rt),
            metered,
            MeteredFolder::wrap(&folder, &meter),
            config,
            SimRng::derive(self.seed, &format!("syncbench/device-{index}")),
        );
        Device {
            client,
            folder,
            meter,
        }
    }

    pub fn device(&self, index: usize) -> &Device {
        self.devices[index]
            .as_ref()
            .expect("device is out on a phase thread")
    }

    /// Bytes held by the five providers, metadata and garbage included.
    pub fn stored_bytes(&self) -> u64 {
        self.backings.iter().map(|b| b.used_bytes()).sum()
    }

    /// HTTP requests the `MockS3` servers have answered.
    pub fn http_requests(&self) -> u64 {
        self.servers.iter().map(|s| s.requests()).sum()
    }

    /// Request outcomes summed over every `SimCloud` frontend.
    pub fn sim_traffic(&self) -> TrafficSnapshot {
        let mut total = TrafficSnapshot::default();
        for cloud in &self.sim_clouds {
            let t = cloud.traffic();
            total.ok_requests += t.ok_requests;
            total.failed_requests += t.failed_requests;
        }
        total
    }
}
