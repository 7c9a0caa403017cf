//! **Bench compare** — the one reader of the BENCH documents, and the
//! regression tracker of the kernel throughput report.
//!
//! [`validate`] holds, per kind (named by the document's schema key:
//! `bench_kernels`, `bench_fleet`), the schema (exact key sets, field
//! types, the fixed kernel row list) and the shape claims each report
//! must satisfy (see the `validate_*` functions). `--validate FILE`
//! checks one document and exits 1 listing every violation by JSON
//! path.
//!
//! A compare run diffs two `bench_kernels` reports (baseline vs
//! current): `mb_per_s` per `(kernel, bytes, threads)` row, a
//! regression being a drop beyond [`TOLERANCE`]. It prints a markdown
//! summary table to stdout and exits 1 when any row regressed. A row
//! present in only one report is noted, never a regression — a new row
//! is growth. Both inputs are validated first and a refused document
//! exits 2, so a renamed column can never compare as 0 vs 0. Kernel
//! throughput is the only BENCH number that drifts with the host; a
//! fleet report is a pure function of its seed and is pinned by `cmp`,
//! so a pair that is not two kernel reports exits 2.
//!
//! Usage: `bench_compare BASELINE.json CURRENT.json` or
//! `bench_compare --validate FILE`.

use unidrive_bench::arg_value;
use unidrive_bench::json::{parse_json, Json};

/// The BENCH document kinds, named by their schema key.
const KINDS: [&str; 2] = ["bench_kernels", "bench_fleet"];
/// Identity fields of a `bench_kernels` row.
const KERNEL_ID: [&str; 3] = ["kernel", "bytes", "threads"];
/// How far a kernel row's `mb_per_s` may drop below the baseline's
/// before it counts as a regression: kernel benches run in wall clock
/// and jitter with the host.
const TOLERANCE: f64 = 0.25;
/// Kernels every `bench_kernels` report carries at least one row of.
const KERNEL_ROWS: [&str; 7] = [
    "sha1",
    "rabin_roll",
    "chunker_cut_points",
    "cut_points_small",
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
        let at = format!("rows[{i}] ({})", row_key(row));
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

/// One compared kernel row: identity, both `mb_per_s` values, and the
/// verdict.
struct Delta {
    key: String,
    baseline: f64,
    current: f64,
    /// Relative change, signed; positive = current larger.
    change: f64,
    regressed: bool,
}

fn delta(key: String, baseline: f64, current: f64) -> Delta {
    let change = if baseline.abs() > f64::EPSILON {
        (current - baseline) / baseline
    } else if current.abs() > f64::EPSILON {
        f64::INFINITY
    } else {
        0.0
    };
    Delta {
        key,
        baseline,
        current,
        change,
        regressed: current < baseline * (1.0 - TOLERANCE),
    }
}

/// A kernel row's identity: its [`KERNEL_ID`] values joined with `/`.
fn row_key(row: &Json) -> String {
    KERNEL_ID
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

/// Compares `mb_per_s` of the rows both reports carry, matched by
/// identity; a row only one of them carries is a note.
fn compare_kernels(base: &Json, cur: &Json) -> (Vec<Delta>, Vec<String>) {
    let (base_rows, cur_rows) = (arr(base, "rows"), arr(cur, "rows"));
    let mut deltas = Vec::new();
    let mut notes = Vec::new();
    for brow in base_rows {
        let key = row_key(brow);
        match cur_rows.iter().find(|crow| row_key(crow) == key) {
            Some(crow) => {
                let (b, c) = (number(brow, "mb_per_s"), number(crow, "mb_per_s"));
                deltas.push(delta(key, b, c));
            }
            None => notes.push(format!("row `{key}` only in baseline")),
        }
    }
    for crow in cur_rows {
        let key = row_key(crow);
        if !base_rows.iter().any(|brow| row_key(brow) == key) {
            notes.push(format!("row `{key}` only in current"));
        }
    }
    (deltas, notes)
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
    let paths: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let [base_path, cur_path] = &paths[..] else {
        eprintln!(
            "usage: bench_compare BASELINE.json CURRENT.json | bench_compare --validate FILE"
        );
        std::process::exit(2);
    };
    let (base_kind, base) = load(base_path, 2);
    let (cur_kind, cur) = load(cur_path, 2);
    for (path, kind) in [(base_path, base_kind), (cur_path, cur_kind)] {
        if kind != "bench_kernels" {
            eprintln!(
                "bench_compare: {path} is a {kind} report; only bench_kernels reports are compared"
            );
            std::process::exit(2);
        }
    }

    let (deltas, notes) = compare_kernels(&base, &cur);
    let regressions = deltas.iter().filter(|d| d.regressed).count();
    println!(
        "## bench_kernels comparison\n\nbaseline `{base_path}` vs current `{cur_path}` — \
         {} row(s), **{regressions} regression(s)**\n",
        deltas.len()
    );
    println!("| row | baseline mb_per_s | current mb_per_s | change | status |");
    println!("|---|---:|---:|---:|---|");
    for d in &deltas {
        println!(
            "| {} | {} | {} | {} | {} |",
            d.key,
            fmt_val(d.baseline),
            fmt_val(d.current),
            fmt_change(d.change),
            if d.regressed { "REGRESSED" } else { "ok" }
        );
    }
    if !notes.is_empty() {
        println!();
        for n in &notes {
            println!("- {n}");
        }
    }
    if regressions > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &str = include_str!("../../../../BENCH_kernels.json");
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
        // Retired kinds are unknown: their binaries are gone. (Split so
        // ci.sh's retired-names grep does not match this line.)
        for kind in ["s3_bench", concat!("bench_", "oplog")] {
            let doc = format!("{{\"{kind}\": \"unidrive/v1\", \"rows\": []}}");
            assert!(read_doc("x.json", &doc)
                .unwrap_err()
                .contains("no recognized schema key"));
        }
        assert!(read_doc("x.json", "{\"bench_fleet\": ")
            .unwrap_err()
            .starts_with("x.json: "));
    }
}
