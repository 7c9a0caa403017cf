//! The benchmark's fixed vocabulary: workload names and round counts,
//! and every metric name with its unit. `BENCHMARK.json` repeats these
//! names (and adds the bounds); `tests/manifest.rs` keeps the two in
//! step.

/// Which clock a workload's timing metrics are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// `RealRuntime`: loopback sockets, `Instant`.
    Wall,
    /// `SimRuntime`: virtual seconds, exact for a given seed.
    Virtual,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireBulk,
    WireSmall,
    WireEdit,
    WanBatch,
    HotLock,
    HotOplog,
}

/// `run_seconds` of `BENCHMARK.json`: `--seconds` scales the round
/// counts below linearly from this nominal length.
pub const NOMINAL_SECONDS: u64 = 10;
/// Unmeasured rounds after the seeding sync (noise rule 3).
pub const WARMUP_ROUNDS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// `--quick`: one set-up, one warm-up round and this many measured
/// rounds per workload, so the whole suite takes about 20 s.
pub const QUICK_ROUNDS: usize = 4;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::WireBulk,
        Workload::WireSmall,
        Workload::WireEdit,
        Workload::WanBatch,
        Workload::HotLock,
        Workload::HotOplog,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireBulk => "wire_bulk",
            Workload::WireSmall => "wire_small",
            Workload::WireEdit => "wire_edit",
            Workload::WanBatch => "wan_batch",
            Workload::HotLock => "hot_lock",
            Workload::HotOplog => "hot_oplog",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn clock(self) -> Clock {
        match self {
            Workload::WireBulk | Workload::WireSmall | Workload::WireEdit => Clock::Wall,
            Workload::WanBatch | Workload::HotLock | Workload::HotOplog => Clock::Virtual,
        }
    }

    /// Measured rounds of a nominal (`NOMINAL_SECONDS`) run. Sized on
    /// the 2-vCPU reference box so a wall-clock workload measures for
    /// about `NOMINAL_SECONDS` and a virtual-time workload burns at
    /// least 2 s of CPU (noise rule 4).
    fn nominal_rounds(self) -> usize {
        match self {
            Workload::WireBulk => 40,
            Workload::WireSmall => 40,
            Workload::WireEdit => 40,
            Workload::WanBatch => 56,
            Workload::HotLock => 40,
            Workload::HotOplog => 24,
        }
    }

    /// Measured rounds for a run of `seconds`.
    pub fn rounds(self, seconds: u64, quick: bool) -> usize {
        if quick {
            return QUICK_ROUNDS;
        }
        let scaled = self.nominal_rounds() as u64 * seconds / NOMINAL_SECONDS;
        // A multiple of 4 keeps the writer and tracing patterns balanced.
        (scaled as usize).max(8).div_ceil(4) * 4
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the sync client sees; lower is better for all nine.
pub const END_TO_END: [Metric; 9] = [
    m("setup_s", "s"),
    m("sync_up_s", "s"),
    m("sync_down_s", "s"),
    m("converge_s", "s"),
    m("cloud_ops_per_round", "ops"),
    m("wire_bytes_per_payload_byte", "ratio"),
    m("stored_bytes_per_live_byte", "ratio"),
    m("cpu_ms_per_round", "ms"),
    m("peak_rss_mib", "MiB"),
];

/// The per-layer ledger of a traced run (`--trace 1`), grouped by the
/// module each row measures. A row that does not apply to a workload
/// (HTTP rows under the simulator) reads 0.
pub const PER_LAYER: [Metric; 67] = [
    // core::folder
    m("folder.scan_ms_per_round", "ms"),
    m("folder.read_ms_per_round", "ms"),
    m("folder.write_ms_per_round", "ms"),
    // chunker
    m("chunker.scan_mib_per_s", "MiB/s"),
    m("chunker.segments_per_round", "count"),
    m("chunker.dedup_hit_share", "ratio"),
    // crypto
    m("crypto.sha1_mib_per_s", "MiB/s"),
    m("crypto.meta_cipher_mib_per_s", "MiB/s"),
    // erasure
    m("erasure.encode_mib_per_s", "MiB/s"),
    m("erasure.decode_mib_per_s", "MiB/s"),
    // meta
    m("meta.image_bytes", "bytes"),
    m("meta.encode_ms", "ms"),
    m("meta.decode_ms", "ms"),
    m("meta.diff_ms", "ms"),
    m("meta.wire_bytes_per_commit", "bytes"),
    // core::dataplane
    m("dataplane.ingest_ms_per_round", "ms"),
    m("dataplane.block_phase_ms_per_round", "ms"),
    // core::engine
    m("engine.wire_busy_share", "ratio"),
    m("engine.mean_inflight", "count"),
    m("engine.threads_peak", "count"),
    m("engine.ctx_switches_per_round", "count"),
    // core::lock
    m("lock.cloud_ops_per_commit", "ops"),
    m("lock.phase_ms_per_commit", "ms"),
    m("lock.contended_share", "ratio"),
    // core::plane
    m("plane.meta_ops_per_commit", "ops"),
    m("plane.meta_phase_ms_per_commit", "ms"),
    m("plane.compactions", "count"),
    m("plane.compaction_ms", "ms"),
    m("plane.compaction_stall_share", "ratio"),
    // core::client
    m("client.pass_ms_per_round", "ms"),
    m("client.self_ms_per_round", "ms"),
    m("client.wire_ms_per_round", "ms"),
    m("client.passes_per_commit", "count"),
    m("client.commit_retry_share", "ratio"),
    m("client.sync_up_p95_s", "s"),
    m("client.sync_down_p95_s", "s"),
    m("client.converge_p95_s", "s"),
    // cloud::store
    m("cloud.ops_per_round.upload", "ops"),
    m("cloud.ops_per_round.download", "ops"),
    m("cloud.ops_per_round.list", "ops"),
    m("cloud.ops_per_round.delete", "ops"),
    m("cloud.ops_per_round.create_dir", "ops"),
    m("cloud.ops_per_round.append", "ops"),
    m("cloud.op_ms_p50.upload", "ms"),
    m("cloud.op_ms_p50.download", "ms"),
    m("cloud.op_ms_p50.list", "ms"),
    m("cloud.op_ms_p95.upload", "ms"),
    m("cloud.op_ms_p95.download", "ms"),
    m("cloud.op_ms_p95.list", "ms"),
    m("cloud.bytes_up_per_round", "bytes"),
    m("cloud.bytes_down_per_round", "bytes"),
    m("cloud.error_share", "ratio"),
    m("cloud.block_bytes_share", "ratio"),
    // cloud::http / s3 / mock_s3
    m("http.requests_per_cloud_op", "ratio"),
    m("http.put_ms_p50.4k", "ms"),
    m("http.put_ms_p50.1m", "ms"),
    m("http.get_ms_p50.4k", "ms"),
    m("http.get_ms_p50.1m", "ms"),
    m("http.list_ms_p50.1k", "ms"),
    // sim / cloud::sim_cloud
    m("sim.wall_ms_per_virtual_s", "ms/s"),
    m("simcloud.success_share", "ratio"),
    // process / tracing
    m("proc.sys_cpu_share", "ratio"),
    m("proc.minor_faults_per_round", "count"),
    m("trace.overhead_share", "ratio"),
    m("trace.spans", "count"),
    m("trace.traced_rounds", "count"),
    m("trace.measured_rounds", "count"),
];
