//! **Bench compare** — regression tracker for the deterministic bench
//! reports. Diffs two runs of the same bench JSON (baseline vs
//! current), applies per-metric tolerances, and emits a markdown
//! summary table; exits non-zero when any tracked metric regressed
//! beyond tolerance.
//!
//! Detects the document type by its schema key:
//!
//! * `bench_kernels` — `mb_per_s` per `(kernel, bytes, threads)` row;
//!   regression = throughput drop beyond 25% (kernel benches run in
//!   wall-clock and jitter with the host).
//! * `bench_oplog` — `commits_per_min` per `(mode, writers)` cell;
//!   regression = throughput drop beyond 20% (virtual-time, but the
//!   schedule shifts with protocol changes). A `failed` commit is not
//!   a regression to report but a document [`validate`] refuses.
//! * `bench_fleet` — `hist.*` latency percentiles (p50/p95/p99, upper
//!   bound, 25%) plus headline counters: `sessions.completed` must not
//!   drop more than 5%, `lock.starved` must not grow more than 25%
//!   (with a small absolute slack so near-zero baselines don't trip).
//!
//! Rows present in only one run are reported but never count as
//! regressions — a new matrix cell is growth, not a regression.
//!
//! This binary is also the one *reader* of the BENCH documents:
//! [`validate`] holds, per kind, the schema (exact key sets, field
//! types, the fixed kernel row list) and the shape claims each report
//! must satisfy (see the `validate_*` functions). `--validate FILE`
//! checks one document and exits 1 listing every violation by JSON
//! path; a compare run validates both inputs first and exits 2 if
//! either is refused, so a renamed column can never compare as 0 vs 0.
//!
//! Usage: `bench_compare BASELINE.json CURRENT.json [--md OUT.md]` or
//! `bench_compare --validate FILE`. The markdown table goes to stdout,
//! or to `--md` when given.

use unidrive_bench::arg_value;
use unidrive_bench::json::{parse_json, Json};

/// The BENCH document kinds, named by their schema key.
const KINDS: [&str; 3] = ["bench_kernels", "bench_oplog", "bench_fleet"];
/// Identity fields of a `bench_kernels` row.
const KERNEL_ID: [&str; 3] = ["kernel", "bytes", "threads"];
/// Identity fields of a `bench_oplog` row.
const OPLOG_ID: [&str; 2] = ["mode", "writers"];
/// Kernels every `bench_kernels` report carries at least one row of.
const KERNEL_ROWS: [&str; 6] = [
    "sha1",
    "rabin_roll",
    "chunker_cut_points",
    "rs_encode",
    "rs_decode",
    "ingest",
];

/// JSON type of a required field.
#[derive(Clone, Copy)]
enum Ty {
    Num,
    Str,
    Arr,
    Obj,
}
use Ty::{Arr, Num, Obj, Str};

/// The fields of one object in a BENCH document.
type Shape = &'static [(&'static str, Ty)];

const KERNELS_DOC: Shape = &[
    ("bench_kernels", Str),
    ("mode", Str),
    ("available_parallelism", Num),
    ("rows", Arr),
];
const KERNELS_ROW: Shape = &[
    ("kernel", Str),
    ("bytes", Num),
    ("threads", Num),
    ("iters", Num),
    ("mb_per_s", Num),
    ("mean_ns", Num),
    ("p50_ns", Num),
    ("p95_ns", Num),
];
const OPLOG_DOC: Shape = &[("bench_oplog", Str), ("config", Obj), ("rows", Arr)];
const OPLOG_CONFIG: Shape = &[("mode_filter", Str), ("writer_counts", Arr)];
const OPLOG_ROW: Shape = &[
    ("commits", Num),
    ("commits_per_min", Num),
    ("compact_forced", Num),
    ("compact_overdue", Num),
    ("failed", Num),
    ("lock_starved", Num),
    ("mode", Str),
    ("retries", Num),
    ("rounds", Num),
    ("virtual_secs", Num),
    ("writers", Num),
];
const FLEET_DOC: Shape = &[
    ("bench_fleet", Str),
    ("config", Obj),
    ("counters", Obj),
    ("clouds", Arr),
    ("hist", Obj),
    ("invariants", Arr),
    ("run", Obj),
];
const FLEET_HISTS: Shape = &[
    ("lock_rounds", Obj),
    ("lock_wait_ns", Obj),
    ("sync_latency_ns", Obj),
];
const FLEET_HIST: Shape = &[("count", Num), ("p50", Num), ("p95", Num), ("p99", Num)];
const FLEET_CLOUD: Shape = &[("ops", Num), ("lock_ops", Num), ("transfer_ops", Num)];
const FLEET_COUNTERS: Shape = &[
    ("sessions.started", Num),
    ("sessions.completed", Num),
    ("lock.starved", Num),
    ("oplog.compact_forced", Num),
    ("oplog.compact_overdue", Num),
];

/// Requires every key of `shape` in the object at path `at`, with its
/// type; `exact` forbids any other key. Returns whether all of `shape`
/// is there, i.e. whether [`number`] may read it.
fn require_keys(errs: &mut Vec<String>, at: &str, value: &Json, shape: Shape, exact: bool) -> bool {
    let before = errs.len();
    for &(key, ty) in shape {
        let Some(v) = value.get(key) else {
            errs.push(format!("{at}: missing key `{key}`"));
            continue;
        };
        let typed = match ty {
            Num => v.as_f64().is_some(),
            Str => v.as_str().is_some(),
            Arr => v.as_arr().is_some(),
            Obj => v.as_obj().is_some(),
        };
        if !typed {
            errs.push(format!("{at}.{key}: wrong type"));
        }
    }
    let complete = errs.len() == before;
    for (key, _) in value.as_obj().unwrap_or(&[]) {
        if exact && !shape.iter().any(|(k, _)| k == key) {
            errs.push(format!("{at}: unexpected key `{key}`"));
        }
    }
    complete
}

/// Records `{at}: violates {text}` unless the claim `holds`.
fn claim(errs: &mut Vec<String>, at: &str, holds: bool, text: &str) {
    if !holds {
        errs.push(format!("{at}: violates {text}"));
    }
}

fn num(value: &Json, key: &str) -> Option<f64> {
    value.get(key).and_then(Json::as_f64)
}

/// A numeric field [`require_keys`] has already vouched for.
fn number(value: &Json, key: &str) -> f64 {
    num(value, key).unwrap_or_else(|| panic!("`{key}` was not required before it was read"))
}

fn arr<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    value.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// The object under `key`, or `null` when absent ([`require_keys`]
/// reports it).
fn section<'a>(value: &'a Json, key: &str) -> &'a Json {
    value.get(key).unwrap_or(&Json::Null)
}

/// `bench_kernels`: header, the fixed row list, per-row sanity, and
/// rows only at widths the recording host could exercise (today one
/// thread; reports from earlier revisions also carry pooled widths and
/// kernels this list no longer names, which are accepted).
fn validate_kernels(doc: &Json, errs: &mut Vec<String>) {
    require_keys(errs, "$", doc, KERNELS_DOC, true);
    let rows = arr(doc, "rows");
    let parallelism = num(doc, "available_parallelism").unwrap_or(f64::INFINITY);
    for (i, row) in rows.iter().enumerate() {
        let at = format!("rows[{i}] ({})", row_key(row, &KERNEL_ID));
        if !require_keys(errs, &at, row, KERNELS_ROW, true) {
            continue;
        }
        let n = |key| number(row, key);
        claim(errs, &at, n("iters") > 0.0, "iters > 0");
        claim(errs, &at, n("mb_per_s") > 0.0, "mb_per_s > 0");
        claim(errs, &at, n("p50_ns") <= n("p95_ns"), "p50_ns <= p95_ns");
        let exercisable = n("threads") <= parallelism;
        claim(errs, &at, exercisable, "threads <= available_parallelism");
    }
    for expected in KERNEL_ROWS {
        let named = |row: &Json| row.get("kernel").and_then(Json::as_str) == Some(expected);
        if !rows.iter().any(named) {
            errs.push(format!("rows: missing kernel row `{expected}`"));
        }
    }
}

/// `bench_oplog`: one row per `(mode, writer count)`, every commit
/// accounted for and none failed, no compaction left overdue, and the
/// headline — at the top writer count the oplog plane out-commits the
/// lock plane.
fn validate_oplog(doc: &Json, errs: &mut Vec<String>) {
    require_keys(errs, "$", doc, OPLOG_DOC, true);
    let config = section(doc, "config");
    require_keys(errs, "config", config, OPLOG_CONFIG, false);
    let both = config.get("mode_filter").and_then(Json::as_str) == Some("both");
    let writer_counts = arr(config, "writer_counts");
    let rows = arr(doc, "rows");
    if rows.len() != if both { 2 } else { 1 } * writer_counts.len() {
        errs.push("rows: violates one row per (mode, writer count)".to_owned());
    }
    for (i, row) in rows.iter().enumerate() {
        let at = format!("rows[{i}] ({})", row_key(row, &OPLOG_ID));
        if !require_keys(errs, &at, row, OPLOG_ROW, true) {
            continue;
        }
        let n = |key| number(row, key);
        let all_committed = n("commits") == n("writers") * n("rounds");
        claim(errs, &at, all_committed, "commits == writers * rounds");
        claim(errs, &at, n("failed") == 0.0, "failed == 0");
        let none_overdue = n("compact_overdue") == 0.0;
        claim(errs, &at, none_overdue, "compact_overdue == 0");
        // Starvation audits belong to the lock plane.
        if row.get("mode").and_then(Json::as_str) == Some("oplog") {
            claim(errs, &at, n("lock_starved") == 0.0, "lock_starved == 0");
        }
    }
    let top = writer_counts
        .iter()
        .filter_map(Json::as_f64)
        .reduce(f64::max);
    if let (true, Some(top)) = (both, top) {
        let per_min = |mode: &str| {
            let key = format!("{mode}/{top}");
            let row = rows.iter().find(|r| row_key(r, &OPLOG_ID) == key);
            row.and_then(|r| num(r, "commits_per_min"))
        };
        let at = format!("rows (oplog/{top} vs lock/{top})");
        match per_min("oplog").zip(per_min("lock")) {
            Some((oplog, lock)) => claim(errs, &at, oplog > lock, "oplog > lock commits_per_min"),
            None => errs.push(format!("{at}: no such pair of rows")),
        }
    }
}

/// `bench_fleet`: every population invariant green, the three latency
/// histograms populated and monotone, five clouds whose op counts add
/// up, every started session completed, and the contention and
/// compaction-pressure counters present even when zero.
fn validate_fleet(doc: &Json, errs: &mut Vec<String>) {
    require_keys(errs, "$", doc, FLEET_DOC, true);
    for (i, inv) in arr(doc, "invariants").iter().enumerate() {
        let name = inv.get("name").and_then(Json::as_str).unwrap_or("?");
        let at = format!("invariants[{i}] ({name})");
        let passed = inv.get("pass") == Some(&Json::Bool(true));
        claim(errs, &at, passed, "pass == true");
    }
    let hist = section(doc, "hist");
    require_keys(errs, "hist", hist, FLEET_HISTS, false);
    for (name, h) in hist.as_obj().unwrap_or(&[]) {
        let at = format!("hist.{name}");
        if require_keys(errs, &at, h, FLEET_HIST, false) {
            let n = |key| number(h, key);
            claim(errs, &at, n("count") > 0.0, "count > 0");
            claim(errs, &at, n("p50") <= n("p95"), "p50 <= p95");
            claim(errs, &at, n("p95") <= n("p99"), "p95 <= p99");
        }
    }
    let clouds = arr(doc, "clouds");
    claim(errs, "clouds", clouds.len() == 5, "5 clouds");
    for (i, cloud) in clouds.iter().enumerate() {
        let at = format!("clouds[{i}]");
        if require_keys(errs, &at, cloud, FLEET_CLOUD, false) {
            let n = |key| number(cloud, key);
            let adds_up = n("ops") == n("lock_ops") + n("transfer_ops");
            claim(errs, &at, adds_up, "ops == lock_ops + transfer_ops");
        }
    }
    let counters = section(doc, "counters");
    if require_keys(errs, "counters", counters, FLEET_COUNTERS, false) {
        let n = |key| number(counters, key);
        let all_completed = n("sessions.started") == n("sessions.completed");
        let claimed = "sessions.started == sessions.completed";
        claim(errs, "counters", all_completed, claimed);
        let any_completed = n("sessions.completed") > 0.0;
        claim(errs, "counters", any_completed, "sessions.completed > 0");
    }
}

/// Schema and shape check of one BENCH document of the given kind
/// (one of [`KINDS`]); returns every violation, each naming the JSON
/// path it concerns (empty = valid).
fn validate(kind: &str, doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get(kind).and_then(Json::as_str) != Some("unidrive/v1") {
        errs.push(format!("$.{kind}: schema tag is not \"unidrive/v1\""));
    }
    match kind {
        "bench_kernels" => validate_kernels(doc, &mut errs),
        "bench_oplog" => validate_oplog(doc, &mut errs),
        _ => validate_fleet(doc, &mut errs),
    }
    errs
}

/// Parses `text`, detects the document kind by its schema key and
/// validates it. The error names `path` on every line.
fn read_doc(path: &str, text: &str) -> Result<(&'static str, Json), String> {
    let doc = parse_json(text).map_err(|e| format!("{path}: {e}"))?;
    let kind = KINDS
        .into_iter()
        .find(|k| doc.get(k).is_some())
        .ok_or_else(|| format!("{path}: no recognized schema key"))?;
    let errs = validate(kind, &doc);
    if errs.is_empty() {
        Ok((kind, doc))
    } else {
        let lines: Vec<String> = errs.iter().map(|e| format!("{path}: {e}")).collect();
        Err(lines.join("\n"))
    }
}

/// One compared metric: identity, both values, and the verdict.
struct Delta {
    key: String,
    metric: &'static str,
    baseline: f64,
    current: f64,
    /// Relative change, signed; positive = current larger.
    change: f64,
    regressed: bool,
}

/// Direction a metric is allowed to move without counting as a
/// regression.
enum Bound {
    /// Higher is better; regression when current drops below
    /// `baseline * (1 - tol)`.
    Lower(f64),
    /// Lower is better; regression when current rises above
    /// `baseline * (1 + tol) + slack`.
    Upper(f64, f64),
}

fn delta(key: String, metric: &'static str, baseline: f64, current: f64, bound: Bound) -> Delta {
    let change = if baseline.abs() > f64::EPSILON {
        (current - baseline) / baseline
    } else if current.abs() > f64::EPSILON {
        f64::INFINITY
    } else {
        0.0
    };
    let regressed = match bound {
        Bound::Lower(tol) => current < baseline * (1.0 - tol),
        Bound::Upper(tol, slack) => current > baseline * (1.0 + tol) + slack,
    };
    Delta {
        key,
        metric,
        baseline,
        current,
        change,
        regressed,
    }
}

/// A row's identity: its `id_fields` values joined with `/`.
fn row_key(row: &Json, id_fields: &[&str]) -> String {
    id_fields
        .iter()
        .map(|f| match row.get(f) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Int(v)) => format!("{v}"),
            Some(Json::Num(v)) => format!("{v}"),
            _ => "?".to_owned(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

/// Pulls `rows` and indexes each row by the given identity fields.
fn index_rows<'a>(doc: &'a Json, id_fields: &[&str]) -> Vec<(String, &'a Json)> {
    arr(doc, "rows")
        .iter()
        .map(|row| (row_key(row, id_fields), row))
        .collect()
}

/// Compares one higher-is-better numeric field across row sets keyed
/// by identity; appends deltas for shared keys (regressed on a drop
/// beyond `tol`) and notes one-sided keys.
fn compare_rows(
    base: &[(String, &Json)],
    cur: &[(String, &Json)],
    field: &'static str,
    tol: f64,
    deltas: &mut Vec<Delta>,
    notes: &mut Vec<String>,
) {
    for (key, brow) in base {
        match cur.iter().find(|(k, _)| k == key) {
            Some((_, crow)) => {
                let (b, c) = (number(brow, field), number(crow, field));
                deltas.push(delta(key.clone(), field, b, c, Bound::Lower(tol)));
            }
            None => notes.push(format!("row `{key}` only in baseline")),
        }
    }
    for (key, _) in cur {
        if !base.iter().any(|(k, _)| k == key) {
            notes.push(format!("row `{key}` only in current"));
        }
    }
}

fn compare_kernels(base: &Json, cur: &Json, deltas: &mut Vec<Delta>, notes: &mut Vec<String>) {
    let b = index_rows(base, &KERNEL_ID);
    let c = index_rows(cur, &KERNEL_ID);
    compare_rows(&b, &c, "mb_per_s", 0.25, deltas, notes);
}

fn compare_oplog(base: &Json, cur: &Json, deltas: &mut Vec<Delta>, notes: &mut Vec<String>) {
    let b = index_rows(base, &OPLOG_ID);
    let c = index_rows(cur, &OPLOG_ID);
    compare_rows(&b, &c, "commits_per_min", 0.20, deltas, notes);
}

fn compare_fleet(base: &Json, cur: &Json, deltas: &mut Vec<Delta>, notes: &mut Vec<String>) {
    // Latency percentiles: higher is worse.
    for (name, bhist) in section(base, "hist").as_obj().unwrap_or(&[]) {
        let Some(chist) = section(cur, "hist").get(name) else {
            notes.push(format!("hist `{name}` only in baseline"));
            continue;
        };
        for q in ["p50", "p95", "p99"] {
            let (b, c) = (number(bhist, q), number(chist, q));
            // Histogram buckets are power-of-two-ish; one bucket of
            // absolute slack keeps boundary flips from tripping.
            let bound = Bound::Upper(0.25, b * 0.01 + 1.0);
            deltas.push(delta(name.clone(), q, b, c, bound));
        }
    }
    let (base_counters, cur_counters) = (section(base, "counters"), section(cur, "counters"));
    let headline = [
        ("sessions.completed", Bound::Lower(0.05)),
        ("lock.starved", Bound::Upper(0.25, 16.0)),
    ];
    for (name, bound) in headline {
        let (b, c) = (number(base_counters, name), number(cur_counters, name));
        deltas.push(delta("counters".to_owned(), name, b, c, bound));
    }
}

fn fmt_val(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn fmt_change(c: f64) -> String {
    if c.is_infinite() {
        "new".to_owned()
    } else {
        format!("{:+.1}%", c * 100.0)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Unreadable input is a usage error (2) in either mode; a document
    // that is read but refused is 1 under `--validate` (the verdict
    // asked for) and 2 in a compare run (nothing was compared).
    let load = |path: &str, refused: i32| -> (&'static str, Json) {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_compare: cannot read {path}: {e}");
            std::process::exit(2);
        });
        read_doc(path, &text).unwrap_or_else(|e| {
            eprintln!("bench_compare: refused:\n{e}");
            std::process::exit(refused);
        })
    };
    if let Some(path) = arg_value("--validate") {
        let (kind, _) = load(&path, 1);
        println!("bench_compare validate: OK ({kind}, {path})");
        return;
    }
    let md_out = arg_value("--md");
    let paths: Vec<&String> = args
        .iter()
        .skip(1)
        .filter(|a| !a.starts_with("--") && md_out.as_ref() != Some(a))
        .collect();
    let [base_path, cur_path] = paths[..] else {
        eprintln!(
            "usage: bench_compare BASELINE.json CURRENT.json [--md OUT.md] | bench_compare --validate FILE"
        );
        std::process::exit(2);
    };
    let (kind, base) = load(base_path, 2);
    let (cur_kind, cur) = load(cur_path, 2);
    if cur_kind != kind {
        eprintln!(
            "bench_compare: {base_path} is a {kind} report but {cur_path} is a {cur_kind} report"
        );
        std::process::exit(2);
    }

    let mut deltas = Vec::new();
    let mut notes = Vec::new();
    match kind {
        "bench_kernels" => compare_kernels(&base, &cur, &mut deltas, &mut notes),
        "bench_oplog" => compare_oplog(&base, &cur, &mut deltas, &mut notes),
        _ => compare_fleet(&base, &cur, &mut deltas, &mut notes),
    }

    let regressions = deltas.iter().filter(|d| d.regressed).count();
    let mut md = String::new();
    md.push_str(&format!(
        "## {kind} comparison\n\nbaseline `{base_path}` vs current `{cur_path}` — \
         {} metric(s), **{} regression(s)**\n\n",
        deltas.len(),
        regressions
    ));
    md.push_str("| row | metric | baseline | current | change | status |\n");
    md.push_str("|---|---|---:|---:|---:|---|\n");
    for d in &deltas {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            d.key,
            d.metric,
            fmt_val(d.baseline),
            fmt_val(d.current),
            fmt_change(d.change),
            if d.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    if !notes.is_empty() {
        md.push('\n');
        for n in &notes {
            md.push_str(&format!("- {n}\n"));
        }
    }

    match &md_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &md) {
                eprintln!("bench_compare: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!(
                "bench_compare: {kind}: {} metric(s), {} regression(s) — summary in {path}",
                deltas.len(),
                regressions
            );
        }
        None => print!("{md}"),
    }
    if regressions > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &str = include_str!("../../../../BENCH_kernels.json");
    const OPLOG: &str = include_str!("../../../../BENCH_oplog.json");
    const FLEET: &str = include_str!("../../../../BENCH_fleet.json");
    const FLEET_OPLOG: &str = include_str!("../../../../BENCH_fleet_oplog.json");

    /// The node at `path` (object keys and array indices).
    fn node<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |at, seg| match at {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).expect("key").1,
            Json::Arr(items) => &mut items[seg.parse::<usize>().expect("index")],
            _ => panic!("path runs through a scalar at {seg}"),
        })
    }

    fn set(doc: &mut Json, path: &[&str], value: Json) {
        *node(doc, path) = value;
    }

    fn insert(doc: &mut Json, path: &[&str], key: &str) {
        let Json::Obj(fields) = node(doc, path) else {
            panic!("not an object")
        };
        fields.push((key.to_owned(), Json::Num(1.0)));
    }

    fn remove(doc: &mut Json, path: &[&str], key: &str) {
        let Json::Obj(fields) = node(doc, path) else {
            panic!("not an object")
        };
        fields.retain(|(k, _)| k != key);
    }

    type Case = (&'static str, fn(&mut Json), &'static str);

    /// The checked-in document (what the bench binary wrote) is
    /// accepted; each mutation is refused by a message naming its path.
    fn run_table(text: &str, kind: &str, cases: &[Case]) {
        let (detected, doc) = read_doc("doc.json", text).expect("the bin's own document is valid");
        assert_eq!(detected, kind);
        for (name, mutate, expected) in cases {
            let mut broken = doc.clone();
            mutate(&mut broken);
            let errs = validate(kind, &broken);
            assert!(
                errs.iter().any(|e| e.contains(expected)),
                "{name}: wanted a violation containing {expected:?}, got {errs:?}"
            );
        }
    }

    #[test]
    fn kernels_validator_accepts_the_report_and_names_each_defect() {
        run_table(
            KERNELS,
            "bench_kernels",
            &[
                (
                    "missing top-level key",
                    |d| remove(d, &[], "mode"),
                    "$: missing key `mode`",
                ),
                (
                    "wrong tag",
                    |d| set(d, &["bench_kernels"], Json::Str("v0".into())),
                    "$.bench_kernels",
                ),
                (
                    "extra row key",
                    |d| insert(d, &["rows", "0"], "extra"),
                    "rows[0] (sha1/262144/1): unexpected key `extra`",
                ),
                (
                    "missing kernel row",
                    |d| {
                        let Json::Arr(rows) = node(d, &["rows"]) else {
                            panic!()
                        };
                        rows.retain(|r| {
                            r.get("kernel").and_then(Json::as_str) != Some("rs_decode")
                        });
                    },
                    "rows: missing kernel row `rs_decode`",
                ),
                (
                    "zero iterations",
                    |d| set(d, &["rows", "1", "iters"], Json::Num(0.0)),
                    "rows[1] (sha1/1048576/1): violates iters > 0",
                ),
                (
                    "p50 above p95",
                    |d| set(d, &["rows", "0", "p50_ns"], Json::Num(1e12)),
                    "rows[0] (sha1/262144/1): violates p50_ns <= p95_ns",
                ),
                (
                    "a width the host cannot exercise",
                    |d| set(d, &["available_parallelism"], Json::Num(0.0)),
                    "rows[0] (sha1/262144/1): violates threads <= available_parallelism",
                ),
                (
                    "string where a number belongs",
                    |d| set(d, &["rows", "0", "bytes"], Json::Str("many".into())),
                    ".bytes: wrong type",
                ),
            ],
        );
    }

    #[test]
    fn oplog_validator_accepts_the_report_and_names_each_defect() {
        run_table(
            OPLOG,
            "bench_oplog",
            &[
                (
                    "missing top-level key",
                    |d| remove(d, &[], "config"),
                    "$: missing key `config`",
                ),
                (
                    "extra top-level key",
                    |d| insert(d, &[], "extra"),
                    "$: unexpected key `extra`",
                ),
                (
                    "extra row key",
                    |d| insert(d, &["rows", "0"], "extra"),
                    "rows[0] (lock/1): unexpected key `extra`",
                ),
                (
                    "missing row key",
                    |d| remove(d, &["rows", "7"], "retries"),
                    "rows[7] (oplog/8): missing key `retries`",
                ),
                (
                    "a failed commit",
                    |d| set(d, &["rows", "0", "failed"], Json::Num(1.0)),
                    "rows[0] (lock/1): violates failed == 0",
                ),
                (
                    "a lost commit",
                    |d| set(d, &["rows", "3", "commits"], Json::Num(63.0)),
                    "rows[3] (lock/8): violates commits == writers * rounds",
                ),
                (
                    "compaction overdue",
                    |d| set(d, &["rows", "5", "compact_overdue"], Json::Num(2.0)),
                    "rows[5] (oplog/2): violates compact_overdue == 0",
                ),
                (
                    "oplog starved",
                    |d| set(d, &["rows", "4", "lock_starved"], Json::Num(1.0)),
                    "rows[4] (oplog/1): violates lock_starved == 0",
                ),
                (
                    "a dropped matrix cell",
                    |d| {
                        let Json::Arr(rows) = node(d, &["rows"]) else {
                            panic!()
                        };
                        rows.remove(2);
                    },
                    "rows: violates one row per (mode, writer count)",
                ),
                (
                    "oplog no faster than lock at the top",
                    |d| set(d, &["rows", "7", "commits_per_min"], Json::Num(1.0)),
                    "rows (oplog/8 vs lock/8): violates oplog > lock",
                ),
            ],
        );
    }

    #[test]
    fn fleet_validator_accepts_the_report_and_names_each_defect() {
        // Both checked-in documents: lock mode and oplog mode.
        for doc in [FLEET, FLEET_OPLOG] {
            run_table(
                doc,
                "bench_fleet",
                &[
                    (
                        "missing top-level key",
                        |d| remove(d, &[], "run"),
                        "$: missing key `run`",
                    ),
                    (
                        "extra top-level key",
                        |d| insert(d, &[], "extra"),
                        "$: unexpected key `extra`",
                    ),
                    (
                        "a failed invariant",
                        |d| set(d, &["invariants", "1", "pass"], Json::Bool(false)),
                        "invariants[1] (no_lost_acks): violates pass == true",
                    ),
                    (
                        "a missing histogram",
                        |d| remove(d, &["hist"], "lock_wait_ns"),
                        "hist: missing key `lock_wait_ns`",
                    ),
                    (
                        "an empty histogram",
                        |d| set(d, &["hist", "lock_rounds", "count"], Json::Num(0.0)),
                        "hist.lock_rounds: violates count > 0",
                    ),
                    (
                        "quantiles out of order",
                        |d| set(d, &["hist", "sync_latency_ns", "p50"], Json::Num(1e18)),
                        "hist.sync_latency_ns: violates p50 <= p95",
                    ),
                    (
                        "a missing cloud",
                        |d| {
                            let Json::Arr(clouds) = node(d, &["clouds"]) else {
                                panic!()
                            };
                            clouds.pop();
                        },
                        "clouds: violates 5 clouds",
                    ),
                    (
                        "ops that do not add up",
                        |d| set(d, &["clouds", "2", "ops"], Json::Num(1.0)),
                        "clouds[2]: violates ops == lock_ops + transfer_ops",
                    ),
                    (
                        "a session that never completed",
                        |d| set(d, &["counters", "sessions.completed"], Json::Num(1.0)),
                        "counters: violates sessions.started == sessions.completed",
                    ),
                    (
                        "no session at all",
                        |d| {
                            set(d, &["counters", "sessions.started"], Json::Num(0.0));
                            set(d, &["counters", "sessions.completed"], Json::Num(0.0));
                        },
                        "counters: violates sessions.completed > 0",
                    ),
                    (
                        "a counter dropped from the schema",
                        |d| remove(d, &["counters"], "lock.starved"),
                        "counters: missing key `lock.starved`",
                    ),
                ],
            );
        }
    }

    /// Before validation-first, a renamed column compared as 0 vs 0 and
    /// reported "0 regression(s)".
    #[test]
    fn a_renamed_column_is_refused_not_compared_as_zero() {
        let renamed = KERNELS.replace("\"mb_per_s\"", "\"mib_per_s\"");
        let refusal = read_doc("current.json", &renamed).expect_err("a report without mb_per_s");
        assert!(
            refusal.contains("current.json: rows[0] (sha1/262144/1): missing key `mb_per_s`"),
            "refusal must name the document, the row key and the field:\n{refusal}"
        );
    }

    #[test]
    fn unknown_documents_and_broken_json_are_refused() {
        assert!(read_doc("x.json", "{\"s3_bench\": \"unidrive/v1\"}")
            .unwrap_err()
            .contains("no recognized schema key"));
        assert!(read_doc("x.json", "{\"bench_oplog\": ")
            .unwrap_err()
            .starts_with("x.json: "));
    }
}
