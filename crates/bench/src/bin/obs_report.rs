//! **Obs report** — the one reader of the one run artefact: digest and
//! validator for the `--obs-out` bundle the benches and the fleet sim
//! write (schema `unidrive-obs/v4`, see `unidrive_obs::bundle_json`).
//! It reads whatever sections the file holds.
//!
//! ```sh
//! cargo run --release -p unidrive-bench --bin fig11_batch_sync -- quick --obs-out /tmp/fig11.json
//! cargo run --release -p unidrive-bench --bin obs_report -- /tmp/fig11.json
//! cargo run --release -p unidrive-bench --bin obs_report -- --validate /tmp/fig11.json
//! ```
//!
//! **`series`** (`unidrive-obs-series/v2`, see `unidrive_obs::series`).
//! The digest prints one line per `(metric, label)` series — window
//! span, totals, and a coarse per-window sparkline — and, when the
//! section holds `cloud.ops` series, the ASCII availability lane it
//! derives for each cloud from `cloud.ops` and `cloud.err`
//! (`unidrive_obs::health_lanes`: `H` healthy, `d` degraded, `X` down,
//! `.` idle) with its state transitions. `--validate` checks:
//!
//! * schema tag and positive `window_ns`;
//! * window indices strictly increasing within every series;
//! * sample windows internally ordered: `min ≤ p50 ≤ p95 ≤ p99 ≤ max`
//!   and `count ≥ 1` (the quantile-monotonicity guarantee that
//!   `HistogramSnapshot` merging must preserve);
//! * counter windows non-negative;
//! * `cloud.err` never exceeds `cloud.ops` in any window (`cloud.ops`
//!   counts attempts, failed and refused ones included);
//! * a fleet export (recognised by its `fleet.*` series) carries the
//!   four series its consumers read ([`FLEET_METRICS`]).
//!
//! **`traceEvents`** (Chrome trace-event form). The digest
//! reconstructs the causal span tree (`sync.round` → `lock.*` /
//! `meta.*` → `engine.batch` → `engine.worker` → `engine.block` →
//! `wire.attempt`) and decomposes each sync round's wall time into
//! **lock**, **merge**, and **transfer** phases by interval union
//! (clipped to the round, earlier phases take precedence where they
//! overlap), so the four columns sum to the wall time *exactly*. It
//! also prints per-cloud transfer busy time and the critical path of
//! the slowest round. `--validate` checks the shape: every event a
//! complete (`"ph": "X"`) one with non-negative `ts`/`dur`, unique
//! span ids, every parent id present when no spans were dropped.
//!
//! `--validate` exits non-zero on any violation — the ci.sh gate for
//! every artefact.
//!
//! Usage: `obs_report OBS.json [--validate]`.

use std::collections::{BTreeMap, HashMap};

use unidrive_bench::json::{parse_json, Json};
use unidrive_obs::{health_lanes, lane_span, CounterWindows, HealthLane};
use unidrive_workload::TextTable;

/// Series every fleet-simulator export must carry.
const FLEET_METRICS: [&str; 4] = [
    "fleet.arrivals",
    "fleet.sessions",
    "cloud.ops",
    "fleet.sync_latency_ns",
];

/// Sparkline glyphs, low to high.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Per-window magnitude of one series window value, for the sparkline.
fn window_magnitude(w: &Json) -> f64 {
    match w {
        // Counter window: [index, sum].
        Json::Arr(pair) => pair.get(1).and_then(Json::as_f64).unwrap_or(0.0),
        // Sample window: object; plot the per-window sum.
        _ => w.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
    }
}

fn window_index(w: &Json) -> Option<i64> {
    match w {
        Json::Arr(pair) => pair.first().and_then(Json::as_f64).map(|v| v as i64),
        _ => w.get("i").and_then(Json::as_f64).map(|v| v as i64),
    }
}

fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                SPARK[0]
            } else {
                let idx = ((v / max) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[idx.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// Walks every `(metric, label)` series in document order.
fn each_series<'a>(doc: &'a Json, mut f: impl FnMut(&str, &str, &'a Json)) {
    let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) else {
        return;
    };
    for (metric, labels) in metrics {
        if let Some(labels) = labels.as_obj() {
            for (label, series) in labels {
                f(metric, label, series);
            }
        }
    }
}

fn digest_series(doc: &Json) {
    let window_ns = doc.get("window_ns").and_then(Json::as_f64).unwrap_or(0.0);
    println!("series: window {}s", window_ns / 1e9);
    let mut count = 0usize;
    each_series(doc, |metric, label, series| {
        count += 1;
        let kind = series.get("kind").and_then(Json::as_str).unwrap_or("?");
        let windows = series
            .get("windows")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        let first = windows.first().and_then(window_index).unwrap_or(0);
        let last = windows.last().and_then(window_index).unwrap_or(0);
        let values: Vec<f64> = windows.iter().map(window_magnitude).collect();
        // `+ 0.0` folds the empty-sum's negative zero away.
        let total: f64 = values.iter().sum::<f64>() + 0.0;
        println!(
            "  {metric:<24} {label:<12} {kind:<8} {n:>4} windows [{first}..{last}]  total {total:.0}  {spark}",
            n = windows.len(),
            spark = sparkline(&values),
        );
    });
    println!("  ({count} series)");

    let lanes = cloud_lanes(doc);
    if lanes.is_empty() {
        return;
    }
    println!("\nhealth lanes ({} clouds):", lanes.len());
    // Common window span across all lanes, so they align.
    let (lo, hi) = lane_span(&lanes);
    for (cloud, lane) in &lanes {
        let trans: Vec<String> = lane
            .transitions
            .iter()
            .map(|(w, from, to)| format!("w{w}:{}→{}", from.as_str(), to.as_str()))
            .collect();
        println!(
            "  {cloud:<8} {:<8} |{}|  {}",
            lane.state().as_str(),
            lane.ascii(lo, hi),
            if trans.is_empty() {
                "steady".to_owned()
            } else {
                trans.join(" ")
            }
        );
    }
}

/// The counter series of `metric` by label, as `health_lanes` reads
/// them.
fn counter_windows(doc: &Json, metric: &str) -> BTreeMap<String, CounterWindows> {
    let mut out = BTreeMap::new();
    each_series(doc, |m, label, series| {
        if m == metric {
            let windows = series.get("windows").and_then(Json::as_arr).unwrap_or(&[]);
            let pair = |w: &Json| {
                let pair = w.as_arr()?;
                Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
            };
            out.insert(label.to_owned(), windows.iter().filter_map(pair).collect());
        }
    });
    out
}

/// One derived availability lane per cloud of the `series` section.
fn cloud_lanes(doc: &Json) -> Vec<(String, HealthLane)> {
    health_lanes(
        &counter_windows(doc, "cloud.ops"),
        &counter_windows(doc, "cloud.err"),
    )
}

/// Schema checks of the `series` section; returns every violation
/// found (empty = valid).
fn validate_series(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("series").and_then(Json::as_str) != Some("unidrive-obs-series/v2") {
        errs.push("missing or wrong schema tag \"series\"".to_owned());
    }
    match doc.get("window_ns").and_then(Json::as_f64) {
        Some(w) if w > 0.0 => {}
        _ => errs.push("window_ns must be a positive number".to_owned()),
    }

    each_series(doc, |metric, label, series| {
        let at = format!("{metric}/{label}");
        let kind = series.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind != "counter" && kind != "sample" {
            errs.push(format!("{at}: bad kind {kind:?}"));
        }
        let Some(windows) = series.get("windows").and_then(Json::as_arr) else {
            errs.push(format!("{at}: missing windows array"));
            return;
        };
        let mut prev: Option<i64> = None;
        for w in windows {
            let Some(i) = window_index(w) else {
                errs.push(format!("{at}: window without an index"));
                continue;
            };
            if let Some(p) = prev {
                if i <= p {
                    errs.push(format!("{at}: windows not strictly increasing at {i}"));
                }
            }
            prev = Some(i);
            match kind {
                "counter" if window_magnitude(w) < 0.0 => {
                    errs.push(format!("{at}: negative counter delta in window {i}"));
                }
                "sample" => {
                    let field =
                        |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let (count, min, p50, p95, p99, max) = (
                        field("count"),
                        field("min"),
                        field("p50"),
                        field("p95"),
                        field("p99"),
                        field("max"),
                    );
                    if count.is_nan() || count < 1.0 {
                        errs.push(format!("{at}: sample window {i} with count < 1"));
                    }
                    // The quantile-monotonicity contract, including
                    // across merged sparse windows.
                    if !(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max) {
                        errs.push(format!(
                            "{at}: window {i} breaks min ≤ p50 ≤ p95 ≤ p99 ≤ max \
                             ({min} / {p50} / {p95} / {p99} / {max})"
                        ));
                    }
                }
                _ => {}
            }
        }
    });

    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    let fleet = metrics.iter().any(|(name, _)| name.starts_with("fleet."));
    if fleet {
        for required in FLEET_METRICS {
            if !metrics.iter().any(|(name, _)| name == required) {
                errs.push(format!("fleet export lacks series {required:?}"));
            }
        }
    }

    // One meaning per name: an error is an attempt that failed.
    let ops = counter_windows(doc, "cloud.ops");
    for (cloud, windows) in counter_windows(doc, "cloud.err") {
        let attempts = ops.get(&cloud).map_or(&[][..], Vec::as_slice);
        for (i, failed) in windows {
            let tried = attempts
                .binary_search_by_key(&i, |w| w.0)
                .map_or(0, |at| attempts[at].1);
            if failed > tried {
                errs.push(format!(
                    "cloud.err/{cloud}: {failed} errors among {tried} attempts in window {i}"
                ));
            }
        }
    }
    errs
}

/// One complete-event span out of `traceEvents` (`"ph": "X"`).
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    tid: u32,
    /// Microseconds (Chrome trace units).
    ts: f64,
    dur: f64,
    args: Vec<(String, Json)>,
}

impl Span {
    fn end(&self) -> f64 {
        self.ts + self.dur
    }

    fn arg_str(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
    }

    fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
    }
}

struct Trace {
    spans: Vec<Span>,
    dropped_spans: u64,
    /// Shape violations found while loading.
    errors: Vec<String>,
}

/// Loads the bundle's `traceEvents` section, collecting every shape
/// violation on the way.
fn load_trace(root: &Json, events: &[Json]) -> Trace {
    let dropped_spans = root
        .get("droppedSpans")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let mut trace = Trace {
        spans: Vec::new(),
        dropped_spans,
        errors: Vec::new(),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(Json::as_f64);
        match ts {
            Some(t) if t >= 0.0 => {}
            Some(t) => trace.errors.push(format!("event {i}: negative ts {t}")),
            None => trace.errors.push(format!("event {i}: missing ts")),
        }
        if ph != "X" {
            trace.errors.push(format!("event {i}: unknown ph {ph:?}"));
            continue;
        }
        let dur = ev.get("dur").and_then(Json::as_f64);
        match dur {
            Some(d) if d >= 0.0 => {}
            Some(d) => trace.errors.push(format!("event {i}: negative dur {d}")),
            None => trace.errors.push(format!("event {i}: missing dur")),
        }
        let args = match ev.get("args") {
            Some(Json::Obj(fields)) => fields.clone(),
            _ => {
                trace.errors.push(format!("event {i}: missing args"));
                Vec::new()
            }
        };
        let id = args
            .iter()
            .find(|(k, _)| k == "span_id")
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0) as u64;
        if id == 0 {
            trace.errors.push(format!("event {i}: missing span_id"));
        }
        let parent = args
            .iter()
            .find(|(k, _)| k == "parent")
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0) as u64;
        trace.spans.push(Span {
            id,
            parent,
            name: ev
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            tid: ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            ts: ts.unwrap_or(0.0),
            dur: dur.unwrap_or(0.0),
            args: args
                .into_iter()
                .filter(|(k, _)| k != "span_id" && k != "parent")
                .collect(),
        });
    }
    // Identity checks: unique ids; parents present (only provable when
    // the ring dropped nothing — an evicted ancestor is not an error).
    let mut seen = HashMap::new();
    for s in &trace.spans {
        if let Some(prev) = seen.insert(s.id, s.name.clone()) {
            trace.errors.push(format!(
                "span id {} used by both {prev} and {}",
                s.id, s.name
            ));
        }
    }
    if trace.dropped_spans == 0 {
        for s in &trace.spans {
            if s.parent != 0 && !seen.contains_key(&s.parent) {
                trace.errors.push(format!(
                    "span {} ({}) references missing parent {}",
                    s.id, s.name, s.parent
                ));
            }
        }
    }
    trace
}

/// Phase index for a span name: 0 = lock, 1 = merge, 2 = transfer.
/// Where intervals overlap (a lock refresh racing the transfer), the
/// lower-numbered phase wins the sweep in [`decompose`], so
/// lock + merge + transfer + other always equals the wall time.
fn phase_of(name: &str) -> Option<usize> {
    if name.starts_with("lock.") {
        Some(0)
    } else if name.starts_with("meta.") {
        Some(1)
    } else if name.starts_with("engine.") || name == "wire.attempt" {
        Some(2)
    } else {
        None
    }
}

/// Priority-union sweep: total time in `[lo, hi]` covered by each
/// phase, earlier phases shadowing later ones. Returns per-phase µs.
fn decompose(lo: f64, hi: f64, intervals: &[(usize, f64, f64)]) -> [f64; 3] {
    // Boundary sweep over the clipped interval endpoints.
    let mut cuts: Vec<f64> = vec![lo, hi];
    for &(_, s, e) in intervals {
        cuts.push(s.clamp(lo, hi));
        cuts.push(e.clamp(lo, hi));
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    cuts.dedup();
    let mut out = [0.0; 3];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b <= a {
            continue;
        }
        let mid = (a + b) / 2.0;
        if let Some(p) = intervals
            .iter()
            .filter(|(_, s, e)| *s <= mid && mid < *e)
            .map(|(p, _, _)| *p)
            .min()
        {
            out[p] += b - a;
        }
    }
    out
}

fn fmt_ms(us: f64) -> String {
    format!("{:.1}", us / 1e3)
}

fn digest_trace(trace: &Trace) {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &trace.spans {
        children.entry(s.parent).or_default().push(s);
    }
    for list in children.values_mut() {
        list.sort_by(|a, b| a.ts.partial_cmp(&b.ts).expect("finite"));
    }

    // Worker lane → cloud name, for the per-cloud breakdown.
    let lane_cloud: HashMap<u32, String> = trace
        .spans
        .iter()
        .filter(|s| s.name == "engine.worker")
        .filter_map(|s| s.arg_str("cloud").map(|c| (s.tid, c.to_owned())))
        .collect();

    let rounds: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| s.name == "sync.round")
        .collect();
    println!(
        "trace: {} spans ({} dropped), {} sync rounds",
        trace.spans.len(),
        trace.dropped_spans,
        rounds.len()
    );
    if rounds.is_empty() {
        println!("  (no sync.round spans: nothing to decompose)");
        return;
    }

    let mut table = TextTable::new(&[
        "round",
        "device",
        "outcome",
        "wall ms",
        "lock ms",
        "merge ms",
        "transfer ms",
        "other ms",
    ]);
    let mut phase_totals = [0.0f64; 3];
    let mut wall_total = 0.0f64;
    let mut slowest: Option<&Span> = None;
    let mut cloud_busy: BTreeMap<String, (f64, u64)> = BTreeMap::new();

    for round in &rounds {
        // Collect the round's descendants (the tree is intra-world, so
        // overlapping timestamps from other sim worlds don't leak in).
        let mut stack = vec![round.id];
        let mut intervals: Vec<(usize, f64, f64)> = Vec::new();
        while let Some(id) = stack.pop() {
            for child in children.get(&id).into_iter().flatten() {
                stack.push(child.id);
                if let Some(p) = phase_of(&child.name) {
                    intervals.push((p, child.ts, child.end()));
                }
                if child.name == "engine.block" {
                    let cloud = lane_cloud
                        .get(&child.tid)
                        .cloned()
                        .unwrap_or_else(|| "?".to_owned());
                    let e = cloud_busy.entry(cloud).or_insert((0.0, 0));
                    e.0 += child.dur;
                    e.1 += 1;
                }
            }
        }
        let phases = decompose(round.ts, round.end(), &intervals);
        let other = (round.dur - phases.iter().sum::<f64>()).max(0.0);
        wall_total += round.dur;
        for (t, p) in phase_totals.iter_mut().zip(phases) {
            *t += p;
        }
        if slowest.is_none_or(|s| round.dur > s.dur) {
            slowest = Some(round);
        }
        table.row(vec![
            format!("{}", round.id),
            round.arg_str("device").unwrap_or("?").to_owned(),
            round.arg_str("outcome").unwrap_or("?").to_owned(),
            fmt_ms(round.dur),
            fmt_ms(phases[0]),
            fmt_ms(phases[1]),
            fmt_ms(phases[2]),
            fmt_ms(other),
        ]);
    }

    println!("\n{}", table.render());

    let other_total = (wall_total - phase_totals.iter().sum::<f64>()).max(0.0);
    let covered = phase_totals.iter().sum::<f64>() + other_total;
    println!(
        "phase totals: lock {} ms, merge {} ms, transfer {} ms, other {} ms \
         (sum {} ms over {} ms wall, {:+.3}%)",
        fmt_ms(phase_totals[0]),
        fmt_ms(phase_totals[1]),
        fmt_ms(phase_totals[2]),
        fmt_ms(other_total),
        fmt_ms(covered),
        fmt_ms(wall_total),
        if wall_total > 0.0 {
            100.0 * (covered - wall_total) / wall_total
        } else {
            0.0
        },
    );

    if !cloud_busy.is_empty() {
        println!("\nper-cloud transfer busy time (engine.block):");
        for (cloud, (busy, count)) in &cloud_busy {
            println!("  {cloud:<16} {:>10} ms over {count} blocks", fmt_ms(*busy));
        }
    }

    // Critical path of the slowest round: walk backwards from the end,
    // always descending into the child whose end time reaches
    // furthest, until no child reaches the current point.
    if let Some(round) = slowest {
        println!(
            "\ncritical path of the slowest round ({} on {}):",
            round.id,
            round.arg_str("device").unwrap_or("?"),
        );
        let mut cur: &Span = round;
        loop {
            let label = match cur.name.as_str() {
                "engine.block" | "engine.worker" | "wire.attempt" | "download.decode" => lane_cloud
                    .get(&cur.tid)
                    .map(|c| format!("{} [{}]", cur.name, c))
                    .unwrap_or_else(|| cur.name.clone()),
                // How much the pass cut and hashed, how much of it a
                // hash check of its last cut let it take unscanned, and
                // on how many threads.
                "upload.ingest" => format!(
                    "{} [{} of {} B reused, {} threads]",
                    cur.name,
                    cur.arg_u64("reused_bytes").unwrap_or(0),
                    cur.arg_u64("bytes").unwrap_or(0),
                    cur.arg_u64("threads").unwrap_or(0),
                ),
                _ => cur.name.clone(),
            };
            println!("  {label:<32} {:>10} ms", fmt_ms(cur.dur));
            let next = children
                .get(&cur.id)
                .into_iter()
                .flatten()
                .max_by(|a, b| a.end().partial_cmp(&b.end()).expect("finite"));
            match next {
                Some(c) => cur = *c,
                None => break,
            }
        }
    }
}

/// Checks every section the bundle holds; returns every violation
/// found (empty = valid).
fn validate(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("schema").and_then(Json::as_str) != Some(unidrive_obs::BUNDLE_SCHEMA) {
        errs.push(format!(
            "missing or wrong schema tag (want {:?})",
            unidrive_obs::BUNDLE_SCHEMA
        ));
    }
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    let series = doc.get("series");
    if let Some(events) = events {
        errs.extend(
            load_trace(doc, events)
                .errors
                .into_iter()
                .map(|e| format!("trace: {e}")),
        );
    }
    if let Some(series) = series {
        errs.extend(validate_series(series));
    }
    if events.is_none() && series.is_none() {
        errs.push("bundle holds neither traceEvents nor series".to_owned());
    }
    errs
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let validate_only = args.iter().any(|a| a == "--validate");
    let path = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .cloned();
    let Some(path) = path else {
        eprintln!("usage: obs_report OBS.json [--validate]");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_report: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match parse_json(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("obs_report: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    let series = doc.get("series");

    if validate_only {
        let errs = validate(&doc);
        if !errs.is_empty() {
            for e in &errs {
                eprintln!("obs_report validate: {e}");
            }
            eprintln!("obs_report validate: {} violation(s) in {path}", errs.len());
            std::process::exit(1);
        }
        let mut sections = Vec::new();
        if let Some(events) = events {
            sections.push(format!(
                "{} spans ({} dropped)",
                events.len(),
                doc.get("droppedSpans")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            ));
        }
        if let Some(series) = series {
            let mut count = 0usize;
            each_series(series, |_, _, _| count += 1);
            let lanes = cloud_lanes(series).len();
            sections.push(format!("{count} series, {lanes} health lanes"));
        }
        println!("obs_report validate: OK ({})", sections.join("; "));
        return;
    }
    if let Some(series) = series {
        digest_series(series);
    }
    if let Some(events) = events {
        let trace = load_trace(&doc, events);
        if !trace.errors.is_empty() {
            eprintln!(
                "warning: {} trace shape violations (run --validate for details)",
                trace.errors.len()
            );
        }
        if series.is_some() {
            println!();
        }
        digest_trace(&trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A series section holding `metrics`, each one counter series
    /// labelled `Dropbox` with the given `[index, sum]` windows.
    fn series_doc(metrics: &[(&str, &str)]) -> Json {
        let series: Vec<String> = metrics
            .iter()
            .map(|(m, windows)| {
                format!("\"{m}\": {{\"Dropbox\": {{\"kind\": \"counter\", \"windows\": {windows}}}}}")
            })
            .collect();
        parse_json(&format!(
            "{{\"series\": \"unidrive-obs-series/v2\", \"window_ns\": 60, \"metrics\": {{{}}}}}",
            series.join(", ")
        ))
        .unwrap()
    }

    /// A bundle whose trace is `events` (each `(span_id, parent, ph,
    /// dur)`) after `dropped` evictions, with the given extra top-level
    /// members.
    fn bundle(dropped: u64, events: &[(u64, u64, &str, f64)], extra: &str) -> Json {
        let events: Vec<String> = events
            .iter()
            .map(|(id, parent, ph, dur)| {
                format!(
                    "{{\"name\": \"s{id}\", \"ph\": \"{ph}\", \"tid\": 0, \"ts\": 1.5, \"dur\": {dur}, \
                     \"args\": {{\"span_id\": {id}, \"parent\": {parent}}}}}"
                )
            })
            .collect();
        parse_json(&format!(
            "{{\"schema\": \"unidrive-obs/v4\", \"droppedSpans\": {dropped}, \"traceEvents\": [{}]{extra}}}",
            events.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn a_bundle_is_checked_section_by_section() {
        let ok = [(1, 0, "X", 4.0), (2, 1, "X", 2.0), (3, 1, "X", 0.0)];
        assert_eq!(validate(&bundle(0, &ok, "")), Vec::<String>::new());
        let series = ", \"series\": {\"series\": \"unidrive-obs-series/v2\", \"window_ns\": 10, \
                      \"metrics\": {}}";
        assert_eq!(validate(&bundle(0, &ok, series)), Vec::<String>::new());

        // Trace shape: a dangling parent is an error only when the ring
        // dropped nothing; ids are unique; events are complete, forward.
        let errs = validate(&bundle(0, &[(1, 0, "X", 4.0), (2, 9, "X", 2.0)], ""));
        assert_eq!(errs, ["trace: span 2 (s2) references missing parent 9"]);
        assert_eq!(
            validate(&bundle(1, &[(2, 9, "X", 2.0)], "")),
            Vec::<String>::new()
        );
        let errs = validate(&bundle(0, &[(1, 0, "X", 4.0), (1, 0, "X", 2.0)], ""));
        assert_eq!(errs, ["trace: span id 1 used by both s1 and s1"]);
        let errs = validate(&bundle(0, &[(1, 0, "X", -1.0), (2, 0, "i", 0.0)], ""));
        assert_eq!(
            errs,
            [
                "trace: event 0: negative dur -1",
                "trace: event 1: unknown ph \"i\""
            ]
        );

        // The series rules apply inside the bundle too.
        let errs = validate(&bundle(0, &ok, &series.replace("10", "0")));
        assert_eq!(errs, ["window_ns must be a positive number"]);

        // Not a bundle at all: wrong tag, no section to read.
        let errs = validate(&parse_json("{\"bench_fleet\": \"unidrive/v1\"}").unwrap());
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].starts_with("missing or wrong schema tag"));
        assert_eq!(errs[1], "bundle holds neither traceEvents nor series");
    }

    #[test]
    fn phases_partition_the_round_with_earlier_phases_shadowing_later_ones() {
        // Round [0, 100): lock 0–30, merge 20–50 (10 shadowed by lock),
        // transfer 40–120 (10 shadowed by merge, 20 clipped), idle 0.
        let phases = decompose(
            0.0,
            100.0,
            &[(0, 0.0, 30.0), (1, 20.0, 50.0), (2, 40.0, 120.0)],
        );
        assert_eq!(phases, [30.0, 20.0, 50.0]);
        // A gap nobody covers is `other`: the four columns sum to wall.
        let phases = decompose(
            0.0,
            100.0,
            &[(0, 10.0, 20.0), (2, 50.0, 60.0), (2, 55.0, 70.0)],
        );
        assert_eq!(phases, [10.0, 0.0, 20.0]);
        assert_eq!(100.0 - phases.iter().sum::<f64>(), 70.0);
    }

    #[test]
    fn fleet_exports_must_carry_the_series_their_consumers_read() {
        let doc = |metrics: &[&str]| {
            let with_windows: Vec<(&str, &str)> =
                metrics.iter().map(|m| (*m, "[[0, 1]]")).collect();
            series_doc(&with_windows)
        };
        assert_eq!(validate_series(&doc(&FLEET_METRICS)), Vec::<String>::new());
        let errs = validate_series(&doc(&FLEET_METRICS[..3]));
        assert_eq!(
            errs,
            ["fleet export lacks series \"fleet.sync_latency_ns\""]
        );
        // Not a fleet export: the rule does not apply.
        assert_eq!(validate_series(&doc(&["cloud.ops"])), Vec::<String>::new());
        // The pre-v2 tag (its `health` rows are gone) is refused.
        let old = parse_json(
            "{\"series\": \"unidrive-obs-series/v1\", \"window_ns\": 60, \"metrics\": {}, \"health\": []}",
        )
        .unwrap();
        assert_eq!(
            validate_series(&old),
            ["missing or wrong schema tag \"series\""]
        );
    }

    #[test]
    fn series_names_and_labels_are_escaped_and_round_trip() {
        // A device name is user input: a quote, a backslash and a
        // control character must not break the bundle.
        let device = "dev\"1\\\u{1}";
        let mut bank = unidrive_obs::SeriesBank::new(60);
        bank.add("lock.contended", device, 0, 2);
        bank.add("cloud.ops", "Dropbox", 0, 1);
        let bundle = unidrive_obs::bundle_json(None, Some(&bank.snapshot().to_json()));
        let doc = parse_json(&bundle).expect("the bundle parses");
        assert_eq!(validate(&doc), Vec::<String>::new());
        let series = doc.get("series").expect("series section");
        let contended = counter_windows(series, "lock.contended");
        assert_eq!(contended.keys().collect::<Vec<_>>(), [device]);
        assert_eq!(contended[device], [(0, 2)]);
        // Plain names are written as before.
        assert!(bundle.contains("\"cloud.ops\": {\n      \"Dropbox\": {\"kind\": \"counter\""));
    }

    #[test]
    fn lanes_are_derived_from_the_attempt_and_error_series() {
        // Windows 3..=8: clean, a fully refused window, one clean, a
        // gap, then clean again.
        let doc = series_doc(&[
            ("cloud.err", "[[4, 6]]"),
            ("cloud.ops", "[[3, 6], [4, 6], [5, 6], [8, 6]]"),
        ]);
        assert_eq!(validate_series(&doc), Vec::<String>::new());
        let lanes = cloud_lanes(&doc);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].0, "Dropbox");
        assert_eq!(lanes[0].1.ascii(3, 8), "HXd..H");
        assert_eq!(lanes[0].1.state().as_str(), "healthy");

        // An error that is not among the attempts breaks the one
        // meaning `cloud.ops` has; so does one with no attempt at all.
        let doc = series_doc(&[
            ("cloud.err", "[[4, 7], [6, 1]]"),
            ("cloud.ops", "[[4, 6]]"),
        ]);
        assert_eq!(
            validate_series(&doc),
            [
                "cloud.err/Dropbox: 7 errors among 6 attempts in window 4",
                "cloud.err/Dropbox: 1 errors among 0 attempts in window 6"
            ]
        );
    }
}
