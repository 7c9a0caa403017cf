//! The per-layer ledger: every `spec::PER_LAYER` row, computed from the
//! spans of the traced rounds, the count-only meter, the replays and
//! the round samples. README.md defines each row.

use std::collections::{BTreeMap, BTreeSet};

use unidrive_cloud::TrafficSnapshot;

use crate::layers::{HttpCosts, Replay};
use crate::meter::{Class, Counts, Kind, Phase, Span};
use crate::run::RoundSample;
use crate::stats::{covered, median, p95, share};
use crate::world::CLOUDS;

const MIB: f64 = 1024.0 * 1024.0;

pub struct Inputs<'a> {
    pub samples: &'a [RoundSample],
    pub spans: &'a [Span],
    /// The meter over the whole measured phase.
    pub counts: Counts,
    pub replays: &'a [Replay],
    pub http: HttpCosts,
    pub http_requests: u64,
    /// Wall and clock seconds of the measured phase.
    pub wall_s: f64,
    pub clock_s: f64,
    pub sim_traffic: Option<TrafficSnapshot>,
}

/// Everything the spans of one `sync_once` call add up to.
#[derive(Default)]
struct PassCost {
    pass_ns: u64,
    /// Folder time by `Kind::Scan`, `Read`, `Write` (+ `Remove`).
    folder_ns: [u64; 3],
    /// Time some cloud call of the device was in flight, folder time
    /// excluded.
    wire_ns: u64,
    /// Sum of the clipped cloud call durations (for mean concurrency).
    cloud_sum_ns: u64,
    cloud_busy_ns: u64,
    lock_ns: u64,
    meta_ns: u64,
    block_phase_ns: u64,
    compaction_ns: u64,
    /// Lock acquisition rounds: every attempt lists each lock directory
    /// once, so a pass that needed a second attempt has more than
    /// `CLOUDS` listings.
    lock_lists: u32,
    threads: usize,
    commits: bool,
}

fn pass_cost(pass: &Span, device_round_spans: &[&Span]) -> PassCost {
    let window = (pass.start_ns, pass.end_ns);
    let mut cost = PassCost {
        pass_ns: pass.dur_ns(),
        ..PassCost::default()
    };
    let interval = |s: &&Span| (s.start_ns, s.end_ns);
    let cloud: Vec<&Span> = device_round_spans
        .iter()
        .copied()
        .filter(|s| s.kind.is_cloud())
        .collect();
    let own: Vec<&Span> = device_round_spans
        .iter()
        .copied()
        .filter(|s| s.pass == pass.pass)
        .collect();
    for s in own.iter().filter(|s| s.kind.is_folder()) {
        let slot = match s.kind {
            Kind::Scan => 0,
            Kind::Read => 1,
            _ => 2,
        };
        cost.folder_ns[slot] += s.dur_ns();
    }
    let folder_total: u64 = cost.folder_ns.iter().sum();
    let folder = own.iter().filter(|s| s.kind.is_folder());
    let busy = covered(
        cloud.iter().map(interval).chain(folder.map(interval)),
        window,
    );
    cost.wire_ns = busy.saturating_sub(folder_total);
    cost.cloud_busy_ns = covered(cloud.iter().map(interval), window);
    cost.cloud_sum_ns = cloud.iter().map(|s| covered([interval(s)], window)).sum();
    let own_cloud = || own.iter().filter(|s| s.kind.is_cloud());
    cost.lock_ns = covered(
        own_cloud().filter(|s| s.class == Class::Lock).map(interval),
        window,
    );
    let is_meta = |s: &&&Span| matches!(s.class, Class::Meta | Class::Oplog);
    cost.meta_ns = covered(own_cloud().filter(is_meta).map(interval), window);
    let extent = |spans: Vec<&&Span>| {
        let start = spans.iter().map(|s| s.start_ns).min();
        let end = spans.iter().map(|s| s.end_ns).max();
        start.zip(end).map_or(0, |(s, e)| e - s)
    };
    cost.block_phase_ns = extent(own_cloud().filter(|s| s.class == Class::Blocks).collect());
    cost.compaction_ns = extent(own_cloud().filter(|s| s.base_write).collect());
    cost.lock_lists = own_cloud()
        .filter(|s| s.class == Class::Lock && s.kind == Kind::List)
        .count() as u32;
    cost.threads = own_cloud().map(|s| s.thread).collect::<BTreeSet<_>>().len();
    cost.commits = matches!(pass.phase, Some(Phase::Up | Phase::Settle));
    cost
}

pub fn rows(input: &Inputs) -> BTreeMap<&'static str, f64> {
    let spans = input.spans;
    let samples = input.samples;
    let rounds = samples.len() as f64;
    let traced_rounds = spans.iter().filter(|s| s.kind == Kind::Round).count() as f64;
    let per_traced = |ns: u64| share(ns as f64 / 1e6, traced_rounds);

    // Spans by (device, round): a pass only looks at its own device's
    // calls in its own round.
    let mut by_device_round: BTreeMap<(u8, u32), Vec<&Span>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.kind.is_cloud() || s.kind.is_folder())
    {
        by_device_round
            .entry((s.device, s.round))
            .or_default()
            .push(s);
    }
    let costs: Vec<PassCost> = spans
        .iter()
        .filter(|s| s.kind == Kind::Pass)
        .map(|p| {
            pass_cost(
                p,
                by_device_round
                    .get(&(p.device, p.round))
                    .map_or(&[], Vec::as_slice),
            )
        })
        .collect();
    let total = |f: fn(&PassCost) -> u64| costs.iter().map(f).sum::<u64>();
    let pass_ns = total(|c| c.pass_ns);
    let folder_ns: [u64; 3] = std::array::from_fn(|i| costs.iter().map(|c| c.folder_ns[i]).sum());
    let wire_ns = total(|c| c.wire_ns);
    let self_ns = pass_ns - wire_ns - folder_ns.iter().sum::<u64>();
    // Scripted commits (writer-rounds) in the traced rounds and overall.
    let traced_commits = spans
        .iter()
        .filter(|s| s.kind == Kind::Phase && s.phase == Some(Phase::Up))
        .count() as f64;
    let commits: f64 = samples.iter().map(|s| f64::from(s.commits)).sum();
    let per_traced_commit = |ns: u64| share(ns as f64 / 1e6, traced_commits);
    let class_spans = |classes: &[Class]| {
        spans
            .iter()
            .filter(|s| s.kind.is_cloud() && classes.contains(&s.class))
            .count() as f64
    };
    let locking: Vec<&PassCost> = costs.iter().filter(|c| c.lock_lists > 0).collect();
    let compacting: Vec<&PassCost> = costs.iter().filter(|c| c.compaction_ns > 0).collect();
    let compaction_ns: u64 = compacting.iter().map(|c| c.compaction_ns).sum();
    let commit_pass_ns: u64 = costs.iter().filter(|c| c.commits).map(|c| c.pass_ns).sum();

    let op_ms = |kind: Kind, pick: fn(&[f64]) -> f64| {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        pick(&ms)
    };
    let all = |f: fn(&RoundSample) -> &[f64]| {
        samples
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect::<Vec<_>>()
    };
    let converge: Vec<f64> = samples.iter().map(|s| s.converge_s).collect();
    let wall_of = |recorded: bool| {
        median(
            &samples
                .iter()
                .filter(|s| s.recorded == recorded)
                .map(|s| s.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let sum_usage = |f: fn(&RoundSample) -> f64| samples.iter().map(f).sum::<f64>();

    let replays = input.replays;
    let sum = |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let rate = |bytes: f64, secs: f64| share(bytes / MIB, secs);
    let med_ms =
        |f: fn(&Replay) -> f64| median(&replays.iter().map(|r| f(r) * 1e3).collect::<Vec<_>>());
    let counts = &input.counts;
    let per_round = |n: u64| share(n as f64, rounds);

    let mut out = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        assert!(
            out.insert(name, value).is_none(),
            "ledger row {name} set twice"
        );
    };
    put("folder.scan_ms_per_round", per_traced(folder_ns[0]));
    put("folder.read_ms_per_round", per_traced(folder_ns[1]));
    put("folder.write_ms_per_round", per_traced(folder_ns[2]));

    put(
        "chunker.scan_mib_per_s",
        rate(sum(|r| r.scan_bytes as f64), sum(|r| r.scan_s)),
    );
    put(
        "chunker.segments_per_round",
        share(sum(|r| r.segments as f64), replays.len() as f64),
    );
    put(
        "chunker.dedup_hit_share",
        share(sum(|r| r.dedup_hits as f64), sum(|r| r.segments as f64)),
    );
    put(
        "crypto.sha1_mib_per_s",
        rate(sum(|r| r.scan_bytes as f64), sum(|r| r.sha_s)),
    );
    put(
        "crypto.meta_cipher_mib_per_s",
        rate(sum(|r| r.image_bytes as f64), sum(|r| r.cipher_s)),
    );
    put(
        "erasure.encode_mib_per_s",
        rate(sum(|r| r.coded_bytes as f64), sum(|r| r.encode_s)),
    );
    put(
        "erasure.decode_mib_per_s",
        rate(sum(|r| r.coded_bytes as f64), sum(|r| r.decode_s)),
    );

    put(
        "meta.image_bytes",
        replays.last().map_or(0.0, |r| r.image_bytes as f64),
    );
    put("meta.encode_ms", med_ms(|r| r.meta_encode_s));
    put("meta.decode_ms", med_ms(|r| r.meta_decode_s));
    put("meta.diff_ms", med_ms(|r| r.meta_diff_s));
    let meta_bytes =
        counts.class_bytes[Class::Meta as usize] + counts.class_bytes[Class::Oplog as usize];
    put(
        "meta.wire_bytes_per_commit",
        share(meta_bytes as f64, commits),
    );

    put(
        "dataplane.ingest_ms_per_round",
        share(sum(|r| r.ingest_s) * 1e3, replays.len() as f64),
    );
    put(
        "dataplane.block_phase_ms_per_round",
        per_traced(total(|c| c.block_phase_ns)),
    );

    put(
        "engine.wire_busy_share",
        share(wire_ns as f64, pass_ns as f64),
    );
    put(
        "engine.mean_inflight",
        share(
            total(|c| c.cloud_sum_ns) as f64,
            total(|c| c.cloud_busy_ns) as f64,
        ),
    );
    put(
        "engine.threads_peak",
        costs.iter().map(|c| c.threads).max().unwrap_or(0) as f64,
    );
    put(
        "engine.ctx_switches_per_round",
        share(sum_usage(|s| s.usage.ctx_switches as f64), rounds),
    );

    put(
        "lock.cloud_ops_per_commit",
        share(class_spans(&[Class::Lock]), traced_commits),
    );
    put(
        "lock.phase_ms_per_commit",
        per_traced_commit(total(|c| c.lock_ns)),
    );
    let contended = locking
        .iter()
        .filter(|c| c.lock_lists as usize > CLOUDS)
        .count();
    put(
        "lock.contended_share",
        share(contended as f64, locking.len() as f64),
    );

    put(
        "plane.meta_ops_per_commit",
        share(class_spans(&[Class::Meta, Class::Oplog]), traced_commits),
    );
    put(
        "plane.meta_phase_ms_per_commit",
        per_traced_commit(total(|c| c.meta_ns)),
    );
    put("plane.compactions", compacting.len() as f64);
    put(
        "plane.compaction_ms",
        share(compaction_ns as f64 / 1e6, compacting.len() as f64),
    );
    put(
        "plane.compaction_stall_share",
        share(compaction_ns as f64, commit_pass_ns as f64),
    );

    put("client.pass_ms_per_round", per_traced(pass_ns));
    put("client.self_ms_per_round", per_traced(self_ns));
    put("client.wire_ms_per_round", per_traced(wire_ns));
    let commit_passes = samples
        .iter()
        .map(|s| f64::from(s.commit_passes))
        .sum::<f64>();
    put("client.passes_per_commit", share(commit_passes, commits));
    put(
        "client.commit_retry_share",
        share(
            samples.iter().map(|s| f64::from(s.commit_misses)).sum(),
            commit_passes,
        ),
    );
    put("client.sync_up_p95_s", p95(&all(|s| &s.up_s)));
    put("client.sync_down_p95_s", p95(&all(|s| &s.down_s)));
    put("client.converge_p95_s", p95(&converge));

    for (i, kind) in Kind::CLOUD_OPS.into_iter().enumerate() {
        let name = match kind {
            Kind::Upload => "cloud.ops_per_round.upload",
            Kind::Download => "cloud.ops_per_round.download",
            Kind::List => "cloud.ops_per_round.list",
            Kind::Delete => "cloud.ops_per_round.delete",
            Kind::CreateDir => "cloud.ops_per_round.create_dir",
            _ => "cloud.ops_per_round.append",
        };
        put(name, per_round(counts.ops[i]));
    }
    put("cloud.op_ms_p50.upload", op_ms(Kind::Upload, median));
    put("cloud.op_ms_p50.download", op_ms(Kind::Download, median));
    put("cloud.op_ms_p50.list", op_ms(Kind::List, median));
    put("cloud.op_ms_p95.upload", op_ms(Kind::Upload, p95));
    put("cloud.op_ms_p95.download", op_ms(Kind::Download, p95));
    put("cloud.op_ms_p95.list", op_ms(Kind::List, p95));
    put("cloud.bytes_up_per_round", per_round(counts.bytes_up));
    put("cloud.bytes_down_per_round", per_round(counts.bytes_down));
    put(
        "cloud.error_share",
        share(counts.errors as f64, counts.total_ops() as f64),
    );
    put(
        "cloud.block_bytes_share",
        share(
            counts.class_bytes[Class::Blocks as usize] as f64,
            counts.wire_bytes() as f64,
        ),
    );

    put(
        "http.requests_per_cloud_op",
        share(input.http_requests as f64, counts.total_ops() as f64),
    );
    put("http.put_ms_p50.4k", input.http.put_4k_ms);
    put("http.put_ms_p50.1m", input.http.put_1m_ms);
    put("http.get_ms_p50.4k", input.http.get_4k_ms);
    put("http.get_ms_p50.1m", input.http.get_1m_ms);
    put("http.list_ms_p50.1k", input.http.list_1k_ms);

    let sim = input.sim_traffic;
    put(
        "sim.wall_ms_per_virtual_s",
        if sim.is_some() {
            share(input.wall_s * 1e3, input.clock_s)
        } else {
            0.0
        },
    );
    put(
        "simcloud.success_share",
        sim.map_or(0.0, |t| t.success_rate()),
    );

    let cpu = sum_usage(|s| s.usage.user_s + s.usage.sys_s);
    put(
        "proc.sys_cpu_share",
        share(sum_usage(|s| s.usage.sys_s), cpu),
    );
    put(
        "proc.minor_faults_per_round",
        share(sum_usage(|s| s.usage.minor_faults as f64), rounds),
    );
    let untraced_wall = wall_of(false);
    put(
        "trace.overhead_share",
        if untraced_wall > 0.0 {
            wall_of(true) / untraced_wall - 1.0
        } else {
            0.0
        },
    );
    put("trace.spans", spans.len() as f64);
    put("trace.traced_rounds", traced_rounds);
    put("trace.measured_rounds", rounds);
    out
}
