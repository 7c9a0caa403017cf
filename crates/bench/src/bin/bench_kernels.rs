//! **bench_kernels** — throughput of the client-side ingest kernels.
//!
//! The ingest path (content-defined chunking → SHA-1 content
//! addressing → Reed-Solomon block generation) is the client's CPU
//! cost per synced byte; this binary records its perf trajectory so
//! every PR inherits a measured kernel baseline. Rows:
//!
//! - `sha1` — one-shot digest, several sizes
//! - `rabin_roll` — Rabin slide across a buffer (the per-byte cost of
//!   the cut-point hash, no chunking logic; the tables are constants,
//!   so no table build is timed)
//! - `chunker_cut_points` — content-defined segmentation (no hashing)
//! - `cut_points_small` — the same call on an 8 KiB file at the paper's
//!   θ = 4 MiB: the fixed per-file cost, since no scan runs below 1.5 θ
//! - `rs_encode` / `rs_decode` — (255, 3) non-systematic codec,
//!   full 5-block stripe per iteration (the paper's N = 5)
//! - `ingest` — end-to-end chunk + hash + encode, through the calls
//!   `DataPlane` makes
//! - `reingest` — the same file after one 4 KiB overwrite, re-cut from
//!   the previous version's cut (`segment_bytes_after`: every range
//!   hashed, only the changed one scanned) and only the segments the
//!   previous cut lacks encoded, as an upload of an edit does
//!
//! Every row runs on one thread and says so (`threads: 1`): a row is
//! one file, and `DataPlane` spreads a pass's *files* over threads,
//! never one file's work. The host's
//! `std::thread::available_parallelism` is still stamped into the
//! report header, so reports from earlier revisions, which also timed
//! pooled widths, compare row by row.
//!
//! Per-iteration wall-clock nanoseconds are kept as exact samples and
//! `p50_ns`/`p95_ns` are computed from the sorted sample array.
//! (Earlier revisions read the percentiles off the `unidrive-obs`
//! log₂ histogram, whose quantile returns its bucket's *upper bound*
//! `2^k - 1`; with power-of-two payloads that collapses every row's
//! p50/p95 to `bytes - 1` — a coarse bucket artifact, not a latency.)
//! Results export as JSON with a fixed schema and row order — values
//! are wall clock and vary run to run, the *shape* never does.
//!
//! Usage: `bench_kernels [--quick|quick] [--out PATH]`
//! (default out: `BENCH_kernels.json`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use unidrive_bench::{arg_value, quick_arg};
use unidrive_chunker::{
    cut_points, segment_bytes, segment_bytes_after, ChunkerConfig, RabinHash, WINDOW,
};
use unidrive_crypto::Digest;
use unidrive_crypto::Sha1;
use unidrive_erasure::Codec;
use unidrive_workload::random_bytes;

/// One measured row of the report.
struct Row {
    kernel: &'static str,
    bytes: usize,
    iters: u64,
    mb_per_s: f64,
    mean_ns: u64,
    p50_ns: u64,
    p95_ns: u64,
}

struct Harness {
    /// Per-row time budget.
    budget: std::time::Duration,
    rows: Vec<Row>,
}

/// Exact rank-`q` percentile of the (sorted in place) samples:
/// the ⌈q·n⌉-th smallest observation, an actual measured value rather
/// than a histogram bucket bound.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Harness {
    fn new(quick: bool) -> Self {
        Harness {
            budget: std::time::Duration::from_millis(if quick { 120 } else { 500 }),
            rows: Vec::new(),
        }
    }

    /// Times `f` until the row budget is spent (≥ 3 iterations), with
    /// one untimed warm-up. `bytes` is the payload a single iteration
    /// processes.
    fn row<T>(&mut self, kernel: &'static str, bytes: usize, mut f: impl FnMut() -> T) {
        black_box(f());
        let start = Instant::now();
        let mut samples: Vec<u64> = Vec::with_capacity(256);
        while samples.len() < 3 || (start.elapsed() < self.budget && samples.len() < 10_000) {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        let iters = samples.len() as u64;
        let mean_ns = samples.iter().sum::<u64>() as f64 / iters as f64;
        samples.sort_unstable();
        let row = Row {
            kernel,
            bytes,
            iters,
            mb_per_s: bytes as f64 / (mean_ns / 1e9).max(1e-12) / (1024.0 * 1024.0),
            mean_ns: mean_ns as u64,
            p50_ns: percentile(&samples, 0.50),
            p95_ns: percentile(&samples, 0.95),
        };
        println!(
            "{:<24} {:>10} B {:>6} it {:>10.1} MiB/s  (mean {:>9} ns, p50 {:>9}, p95 {:>9})",
            row.kernel, row.bytes, row.iters, row.mb_per_s, row.mean_ns, row.p50_ns, row.p95_ns
        );
        self.rows.push(row);
    }

    fn to_json(&self, mode: &str, parallelism: usize) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"bench_kernels\": \"unidrive/v1\",\n");
        let _ = writeln!(out, "\"mode\": \"{mode}\",");
        let _ = writeln!(out, "\"available_parallelism\": {parallelism},");
        out.push_str("\"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"kernel\": \"{}\", \"bytes\": {}, \"threads\": 1, \"iters\": {}, \
                 \"mb_per_s\": {:.2}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}}}",
                r.kernel, r.bytes, r.iters, r.mb_per_s, r.mean_ns, r.p50_ns, r.p95_ns
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// The CPU work one upload does per file before any network traffic,
/// through the calls `DataPlane` makes: `segment_bytes` (cut points,
/// then each segment's SHA-1) and a 5-block RS stripe per segment.
fn ingest(data: &[u8], config: &ChunkerConfig, codec: &Codec) -> usize {
    let segments = segment_bytes(data, config);
    for s in &segments {
        black_box(codec.encode_blocks(&data[s.range()], &[0, 1, 2, 3, 4]));
    }
    segments.len()
}

/// `ingest` of an edit of a file whose previous version was cut into
/// `previous`: `segment_bytes_after`, then a 5-block RS stripe per
/// segment that `previous` lacks (the others deduplicate).
fn reingest(data: &[u8], config: &ChunkerConfig, codec: &Codec, previous: &[(Digest, usize)]) -> usize {
    let (segments, _) = segment_bytes_after(data, config, previous);
    for s in segments.iter().filter(|s| !previous.iter().any(|(d, _)| *d == s.digest)) {
        black_box(codec.encode_blocks(&data[s.range()], &[0, 1, 2, 3, 4]));
    }
    segments.len()
}

fn main() {
    let quick = quick_arg();
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_kernels.json".to_owned());
    let mode = if quick { "quick" } else { "full" };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench_kernels ({mode} mode, available parallelism {parallelism})\n");

    let mut h = Harness::new(quick);

    let sha_sizes: &[usize] = if quick {
        &[256 * 1024, 1024 * 1024]
    } else {
        &[256 * 1024, 1024 * 1024, 8 * 1024 * 1024]
    };
    for &size in sha_sizes {
        let data = random_bytes(size, 0xC0FFEE ^ size as u64);
        h.row("sha1", size, || Sha1::digest(&data));
    }

    let roll_size = if quick { 1024 * 1024 } else { 4 * 1024 * 1024 };
    let data = random_bytes(roll_size, 0xAB1E);
    h.row("rabin_roll", roll_size, || {
        let mut hash = RabinHash::new();
        for &b in &data[..WINDOW] {
            hash.push(b);
        }
        let mut acc = 0u64;
        for i in WINDOW..data.len() {
            hash.roll(data[i - WINDOW], data[i]);
            acc ^= hash.fingerprint();
        }
        acc
    });

    let chunk_size = if quick { 4 * 1024 * 1024 } else { 16 * 1024 * 1024 };
    let theta = chunk_size / 16;
    let data = random_bytes(chunk_size, 0x5E6);
    let config = ChunkerConfig::new(theta);
    h.row("chunker_cut_points", chunk_size, || cut_points(&data, &config));
    let data = random_bytes(8 * 1024, 0x5A11);
    let config = ChunkerConfig::paper_default();
    h.row("cut_points_small", data.len(), || cut_points(&data, &config));

    let rs_size = if quick { 1024 * 1024 } else { 4 * 1024 * 1024 };
    let data = random_bytes(rs_size, 0xEC0DE);
    let codec = Codec::non_systematic(255, 3).expect("paper parameters");
    h.row("rs_encode", rs_size, || {
        codec.encode_blocks(&data, &[0, 1, 2, 3, 4])
    });
    let stripe = codec.encode_blocks(&data, &[0, 1, 2, 3, 4]);
    let shares: Vec<(usize, &[u8])> = [0usize, 2, 4]
        .iter()
        .map(|&i| (i, stripe[i].as_ref()))
        .collect();
    h.row("rs_decode", rs_size, || {
        codec.decode(&shares, data.len()).expect("k shares decode")
    });

    let ingest_size = if quick { 4 * 1024 * 1024 } else { 16 * 1024 * 1024 };
    let data = random_bytes(ingest_size, 0x1265);
    let config = ChunkerConfig::new(ingest_size / 16);
    h.row("ingest", ingest_size, || ingest(&data, &config, &codec));
    let previous: Vec<(Digest, usize)> =
        segment_bytes(&data, &config).iter().map(|s| (s.digest, s.len)).collect();
    let mut edited = data.to_vec();
    for b in &mut edited[ingest_size / 2..ingest_size / 2 + 4096] {
        *b ^= 0xA5;
    }
    h.row("reingest", ingest_size, || reingest(&edited, &config, &codec, &previous));

    let json = h.to_json(mode, parallelism);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("bench_kernels: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {out_path}");
}
