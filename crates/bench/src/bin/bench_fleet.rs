//! **Fleet bench** — drives the `unidrive-fleet` population simulator
//! at scale and reports fleet-wide sync behavior:
//!
//! * p50/p95/p99 end-to-end sync latency and quorum-lock wait across
//!   every completed session,
//! * per-cloud request accounting (ops, peak/mean QPS, shaper delay),
//! * lock contention (rounds histogram, starvation audits, deferrals),
//! * chaos-soak invariants checked at population scale: single lock
//!   holder, no lost acks, session conservation, convergence.
//!
//! The run is virtual-time deterministic: same seed ⇒ byte-identical
//! `BENCH_fleet.json` (CI runs the quick mode twice and byte-compares,
//! and the full mode against the checked-in documents). Wall-clock
//! time and peak RSS are printed to stdout only — they are host facts,
//! not run facts, and would break the byte-identical gate.
//!
//! Usage: `bench_fleet [quick] [--seed N] [--meta-mode lock|oplog]
//! [--out BENCH_fleet.json] [--obs-out OBS.json]`; a `--seed` that is
//! not a number exits 2.
//! `--obs-out` writes the obs bundle: the counters mirrored into a
//! standard `snapshot` plus the windowed per-cloud/workload `series`
//! (byte-identical across same-seed runs — CI byte-compares two);
//! `obs_report` derives the per-cloud availability lanes from its
//! `cloud.ops` / `cloud.err` series.

use std::time::Instant;

use unidrive_bench::{arg_value, meta_mode_arg, obs_out, quick_arg};
use unidrive_fleet::{FleetConfig, FleetSim};
use unidrive_meta::MetaMode;
use unidrive_workload::TextTable;

/// `VmHWM` (peak resident set) of this process, in KiB, from
/// `/proc/self/status`; `None` off Linux or on parse failure.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

fn main() {
    let quick = quick_arg();
    // A typo must not silently run the default seed.
    let seed = arg_value("--seed").map_or(42, |value| {
        value.parse().unwrap_or_else(|_| {
            eprintln!("--seed must be a non-negative integer, got '{value}'");
            std::process::exit(2);
        })
    });
    let out = arg_value("--out");
    let mut cfg = if quick {
        FleetConfig::quick(seed)
    } else {
        FleetConfig::full(seed)
    };
    cfg.meta_mode = meta_mode_arg().unwrap_or(MetaMode::Lock);
    let metrics = obs_out::to_path(arg_value("--obs-out"));

    println!(
        "Fleet bench ({}): {} devices, {} hot folders, {}s horizon, seed {}, meta-mode {}",
        if quick { "quick" } else { "full" },
        cfg.devices,
        cfg.hot_folders,
        cfg.horizon.as_secs(),
        seed,
        cfg.meta_mode
    );

    let wall = Instant::now();
    let m = FleetSim::new(cfg).run();
    let elapsed = wall.elapsed();

    // Headline: scale, wall-clock, memory. Peak RSS staying far below
    // devices × full-state is the lazy-materialization claim.
    println!(
        "\n{} events in {} windows, {:.0}s virtual time, {} drain rounds",
        m.events_processed,
        m.windows,
        m.virtual_end_ns as f64 / 1e9,
        m.drain_rounds
    );
    print!(
        "wall-clock {:.2}s ({:.2}M events/s)",
        elapsed.as_secs_f64(),
        m.events_processed as f64 / 1e6 / elapsed.as_secs_f64().max(1e-9)
    );
    match peak_rss_kib() {
        Some(kib) => println!(
            ", peak RSS {:.1} MiB ({:.0} bytes/device)",
            kib as f64 / 1024.0,
            kib as f64 * 1024.0 / m.devices as f64
        ),
        None => println!(),
    }

    println!(
        "\nsessions: {} started, {} completed, {} deferred, {} devices churned",
        m.counter("sessions.started"),
        m.counter("sessions.completed"),
        m.counter("sessions.deferred"),
        m.counter("devices.churned")
    );
    println!(
        "locks: {} acquired, {} contended rounds, {} starved, {} exhausted, {} unreachable rounds",
        m.counter("lock.acquired"),
        m.counter("lock.contended_rounds"),
        m.counter("lock.starved"),
        m.counter("lock.exhausted"),
        m.counter("lock.unreachable_rounds")
    );
    if m.counter("oplog.appends") > 0 {
        println!(
            "oplog: {} appends, {} compactions ({} forced, {} overdue), {} compaction skips",
            m.counter("oplog.appends"),
            m.counter("oplog.compactions"),
            m.counter("oplog.compact_forced"),
            m.counter("oplog.compact_overdue"),
            m.counter("oplog.compact_skipped")
        );
    }
    println!(
        "chaos: {} burst slowdowns, {} torn repairs, {} delayed acks; drain pulled {} sessions' worth of lag",
        m.counter("fault.burst_slowdowns"),
        m.counter("fault.torn_repairs"),
        m.counter("fault.delayed_acks"),
        m.counter("drain.pulls")
    );
    println!(
        "sync latency:  {}",
        obs_out::fmt_quantiles_ms(&m.sync_latency)
    );
    println!("lock wait:     {}", obs_out::fmt_quantiles_ms(&m.lock_wait));
    println!(
        "lock rounds:   p50={} p99={} max={}",
        m.lock_rounds.p50(),
        m.lock_rounds.p99(),
        m.lock_rounds.max
    );

    let mut table = TextTable::new(&[
        "cloud",
        "ops",
        "lock_ops",
        "xfer_ops",
        "up_MiB",
        "down_MiB",
        "qps_peak",
        "qps_mean",
        "throttle_s",
    ]);
    for c in &m.clouds {
        table.row(vec![
            c.name.clone(),
            c.ops.to_string(),
            c.lock_ops.to_string(),
            c.transfer_ops.to_string(),
            format!("{:.1}", c.bytes_up as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", c.bytes_down as f64 / (1024.0 * 1024.0)),
            c.qps_peak.to_string(),
            format!("{:.1}", c.qps_mean),
            format!("{:.1}", c.throttle_delay_ns as f64 / 1e9),
        ]);
    }
    println!("\n{}", table.render());

    println!("invariants:");
    for inv in &m.invariants {
        println!(
            "  {} {} — {}",
            if inv.pass { "PASS" } else { "FAIL" },
            inv.name,
            inv.detail
        );
    }

    // Mirror the counters into the obs registry so the --obs-out
    // bundle carries a standard snapshot; its series are the fleet's
    // own bank, not registry cells.
    for (name, v) in &m.counters {
        metrics.obs.add(&format!("fleet.{name}"), *v);
    }
    metrics.obs.set_gauge("fleet.virtual_end_secs", m.virtual_end_ns as f64 / 1e9);
    metrics.write_with_series(&m.series_json());

    let json = m.to_json();
    match &out {
        Some(path) => match std::fs::write(path, &json) {
            Ok(()) => println!("\nfleet report written to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        },
        None => println!("\n{json}"),
    }

    println!(
        "\nbench_fleet verdict: {}",
        if m.all_pass() { "PASS" } else { "FAIL" }
    );
    if !m.all_pass() {
        std::process::exit(1);
    }
}
