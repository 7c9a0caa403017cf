//! **Obs report** — human-readable digest and schema validator for the
//! windowed-series exports (`--series-out`) that the benches and the
//! fleet sim write (schema `unidrive-obs-series/v1`, see
//! `unidrive_obs::series`).
//!
//! The digest prints one line per `(metric, label)` series — window
//! span, totals, and a coarse per-window sparkline — and, when the
//! document embeds a health scoreboard, an ASCII availability lane per
//! cloud (`H` healthy, `d` degraded, `X` down, `.` idle) with its
//! state transitions.
//!
//! `--validate` machine-checks the document instead and exits non-zero
//! on any violation:
//!
//! * schema tag and positive `window_ns`;
//! * window indices strictly increasing within every series;
//! * sample windows internally ordered: `min ≤ p50 ≤ p95 ≤ p99 ≤ max`
//!   and `count ≥ 1` (the quantile-monotonicity guarantee that
//!   `HistogramSnapshot` merging must preserve);
//! * counter windows non-negative;
//! * health rows: states drawn from `{healthy, degraded, down}`,
//!   timelines strictly increasing, error rates within `[0, 1]`;
//! * a fleet export (recognised by its `fleet.*` series) carries the
//!   four series its consumers read ([`FLEET_METRICS`]) and every
//!   health row served operations (`ops > 0`).
//!
//! Usage: `obs_report SERIES.json [--validate]`.

use unidrive_bench::json::{parse_json, Json};

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

fn state_char(state: &str) -> char {
    match state {
        "healthy" => 'H',
        "degraded" => 'd',
        "down" => 'X',
        _ => '?',
    }
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

fn digest(doc: &Json) {
    let window_ns = doc.get("window_ns").and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "series document: window {}s",
        window_ns / 1e9
    );
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

    let health = doc
        .get("health")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if health.is_empty() {
        return;
    }
    println!("\nhealth scoreboard ({} clouds):", health.len());
    // Common window span across all timelines, so lanes align.
    let span: Vec<i64> = health
        .iter()
        .flat_map(|row| {
            row.get("timeline")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|w| w.get("i").and_then(Json::as_f64).map(|v| v as i64))
                .collect::<Vec<_>>()
        })
        .collect();
    let (lo, hi) = (
        span.iter().min().copied().unwrap_or(0),
        span.iter().max().copied().unwrap_or(0),
    );
    for row in health {
        let cloud = row.get("cloud").and_then(Json::as_str).unwrap_or("?");
        let state = row.get("state").and_then(Json::as_str).unwrap_or("?");
        let mut lane = vec!['.'; (hi - lo + 1).max(1) as usize];
        let timeline = row
            .get("timeline")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        for w in timeline {
            let (Some(i), Some(s)) = (
                w.get("i").and_then(Json::as_f64).map(|v| v as i64),
                w.get("state").and_then(Json::as_str),
            ) else {
                continue;
            };
            lane[(i - lo) as usize] = state_char(s);
        }
        let transitions = row
            .get("transitions")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        let trans: Vec<String> = transitions
            .iter()
            .filter_map(|t| {
                let w = t.get("window").and_then(Json::as_f64)? as i64;
                let from = t.get("from").and_then(Json::as_str)?;
                let to = t.get("to").and_then(Json::as_str)?;
                Some(format!("w{w}:{from}→{to}"))
            })
            .collect();
        println!(
            "  {cloud:<8} {state:<8} |{}|  {}",
            lane.into_iter().collect::<String>(),
            if trans.is_empty() {
                "steady".to_owned()
            } else {
                trans.join(" ")
            }
        );
    }
}

/// Schema checks; returns every violation found (empty = valid).
fn validate(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("series").and_then(Json::as_str) != Some("unidrive-obs-series/v1") {
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

    for row in doc
        .get("health")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let cloud = row.get("cloud").and_then(Json::as_str).unwrap_or("?");
        // Every fleet lane serves traffic; an idle one is a wiring bug.
        let busy = row.get("ops").and_then(Json::as_f64) > Some(0.0);
        if fleet && !busy {
            errs.push(format!("health {cloud}: fleet row without ops > 0"));
        }
        let ok_state =
            |s: &str| matches!(s, "healthy" | "degraded" | "down");
        match row.get("state").and_then(Json::as_str) {
            Some(s) if ok_state(s) => {}
            other => errs.push(format!("health {cloud}: bad state {other:?}")),
        }
        let mut prev: Option<i64> = None;
        for w in row
            .get("timeline")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let i = w.get("i").and_then(Json::as_f64).map(|v| v as i64);
            let Some(i) = i else {
                errs.push(format!("health {cloud}: timeline window without index"));
                continue;
            };
            if let Some(p) = prev {
                if i <= p {
                    errs.push(format!(
                        "health {cloud}: timeline not strictly increasing at {i}"
                    ));
                }
            }
            prev = Some(i);
            if let Some(r) = w.get("err_rate").and_then(Json::as_f64) {
                if !(0.0..=1.0).contains(&r) {
                    errs.push(format!(
                        "health {cloud}: err_rate {r} outside [0,1] in window {i}"
                    ));
                }
            }
            match w.get("state").and_then(Json::as_str) {
                Some(s) if ok_state(s) => {}
                other => errs.push(format!(
                    "health {cloud}: bad timeline state {other:?} in window {i}"
                )),
            }
        }
        for t in row
            .get("transitions")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            for key in ["from", "to"] {
                match t.get(key).and_then(Json::as_str) {
                    Some(s) if ok_state(s) => {}
                    other => errs.push(format!(
                        "health {cloud}: bad transition {key} {other:?}"
                    )),
                }
            }
        }
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
        eprintln!("usage: obs_report SERIES.json [--validate]");
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

    if validate_only {
        let errs = validate(&doc);
        if errs.is_empty() {
            let mut series = 0usize;
            each_series(&doc, |_, _, _| series += 1);
            let health = doc
                .get("health")
                .and_then(Json::as_arr)
                .map(<[Json]>::len)
                .unwrap_or(0);
            println!("obs_report validate: OK ({series} series, {health} health rows)");
        } else {
            for e in &errs {
                eprintln!("obs_report validate: {e}");
            }
            eprintln!("obs_report validate: {} violation(s) in {path}", errs.len());
            std::process::exit(1);
        }
    } else {
        digest(&doc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_doc(metrics: &[&str], ops: u64) -> Json {
        let series: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!("\"{m}\": {{\"all\": {{\"kind\": \"counter\", \"windows\": [[0, 1]]}}}}")
            })
            .collect();
        parse_json(&format!(
            "{{\"series\": \"unidrive-obs-series/v1\", \"window_ns\": 60, \"metrics\": {{{}}}, \
             \"health\": [{{\"cloud\": \"Dropbox\", \"state\": \"healthy\", \"ops\": {ops}, \
             \"timeline\": [], \"transitions\": []}}]}}",
            series.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn fleet_exports_must_carry_their_series_and_busy_health_rows() {
        assert_eq!(
            validate(&fleet_doc(&FLEET_METRICS, 7)),
            Vec::<String>::new()
        );
        let errs = validate(&fleet_doc(&FLEET_METRICS[..3], 7));
        assert_eq!(
            errs,
            ["fleet export lacks series \"fleet.sync_latency_ns\""]
        );
        let errs = validate(&fleet_doc(&FLEET_METRICS, 0));
        assert_eq!(errs, ["health Dropbox: fleet row without ops > 0"]);
        // Not a fleet export: neither rule applies.
        assert_eq!(
            validate(&fleet_doc(&["cloud.ops"], 0)),
            Vec::<String>::new()
        );
    }
}
