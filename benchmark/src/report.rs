//! Report formats: the one-line result the driver reads, the suite
//! report, and the checks of both against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use unidrive_bench::json::{parse_json, Json};

use crate::measure::Outcome;

/// Prefix of the line carrying host, seed and round count, printed
/// before the result line (whose keys the driver fixes).
pub const STAMP_PREFIX: &str = "# stamp ";

/// `{"name": {"value": v, "unit": "u"}, …}` from `(name, unit, value)`.
fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
    let rows: Vec<String> = metrics
        .map(|(name, unit, value)| {
            // A metric that could not be computed must not poison the JSON.
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The last line of a single-workload run: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics.iter().copied())
    )
}

/// One workload's part of a suite report, parsed back from a child.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub stamp: String,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl WorkloadResult {
    /// Parses the stdout of `syncbench --workload …`.
    pub fn parse(stdout: &str) -> Result<WorkloadResult, String> {
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("no output")?;
        let doc = parse_json(last).map_err(|e| format!("result line is not JSON: {e}"))?;
        let stamp = stdout
            .lines()
            .find_map(|l| l.strip_prefix(STAMP_PREFIX))
            .ok_or("no stamp line")?
            .to_owned();
        WorkloadResult::from_json(&doc, stamp)
    }

    fn from_json(doc: &Json, stamp: String) -> Result<WorkloadResult, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing {key}"))
        };
        let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
        let mut metrics = BTreeMap::new();
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing metrics")?
        {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{name}: no unit"))?;
            metrics.insert(name.clone(), (value, unit.to_owned()));
        }
        Ok(WorkloadResult {
            correct,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            stamp,
            metrics,
        })
    }

    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| (name.as_str(), unit.as_str(), *value));
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"stamp\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.stamp,
            metrics_json(metrics)
        )
    }
}

/// A whole-suite report: `{"syncbench": "v1", "workloads": {name:
/// result}}`.
pub fn suite_json(results: &[(String, WorkloadResult)]) -> String {
    let mut out = String::from("{\"syncbench\": \"v1\", \"workloads\": {\n");
    for (i, (name, result)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": {}{sep}", result.to_json());
    }
    out.push_str("}}\n");
    out
}

/// What `BENCHMARK.json` fixes: names, units and bounds.
pub struct Manifest {
    pub workloads: Vec<String>,
    /// `(name, unit, bound)`
    pub end_to_end: Vec<(String, String, f64)>,
    /// `(name, unit)`
    pub per_layer: Vec<(String, String)>,
}

impl Manifest {
    pub fn load(path: &std::path::Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("manifest lacks {key}"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("manifest entry lacks {key}"))
        };
        let mut manifest = Manifest {
            workloads: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for w in list("workloads")? {
            manifest.workloads.push(text_of(w, "name")?);
        }
        for m in list("end_to_end")? {
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end entry lacks bound")?;
            manifest
                .end_to_end
                .push((text_of(m, "name")?, text_of(m, "unit")?, bound));
        }
        for m in list("per_layer")? {
            manifest
                .per_layer
                .push((text_of(m, "name")?, text_of(m, "unit")?));
        }
        Ok(manifest)
    }
}

/// Checks a suite report (or a single result line) against the
/// manifest: exactly its workloads, each with exactly the end-to-end
/// or exactly the per-layer metric names and units, and no failed
/// operation.
pub fn validate(report: &str, manifest: &Manifest) -> Result<(), String> {
    let doc = parse_json(report.trim()).map_err(|e| format!("report is not JSON: {e}"))?;
    let results: Vec<(String, WorkloadResult)> = match doc.get("workloads").and_then(Json::as_obj) {
        Some(workloads) => {
            let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
            if names != want {
                return Err(format!("workloads {names:?}, manifest has {want:?}"));
            }
            workloads
                .iter()
                .map(|(n, w)| WorkloadResult::from_json(w, String::new()).map(|r| (n.clone(), r)))
                .collect::<Result<_, _>>()?
        }
        None => vec![(
            "result".into(),
            WorkloadResult::from_json(&doc, String::new())?,
        )],
    };
    let sorted = |mut names: Vec<(String, String)>| {
        names.sort();
        names
    };
    let end_to_end = sorted(
        manifest
            .end_to_end
            .iter()
            .map(|(n, u, _)| (n.clone(), u.clone()))
            .collect(),
    );
    let per_layer = sorted(manifest.per_layer.clone());
    for (workload, result) in &results {
        let have = sorted(
            result
                .metrics
                .iter()
                .map(|(n, (_, u))| (n.clone(), u.clone()))
                .collect(),
        );
        if have != end_to_end && have != per_layer {
            let want = if have.iter().any(|m| per_layer.contains(m)) {
                &per_layer
            } else {
                &end_to_end
            };
            let missing: Vec<_> = want.iter().filter(|m| !have.contains(m)).collect();
            let extra: Vec<_> = have.iter().filter(|m| !want.contains(m)).collect();
            return Err(format!(
                "{workload}: missing {missing:?}, unexpected {extra:?}"
            ));
        }
        if !result.correct || result.failed > 0 || result.attempted == 0 {
            return Err(format!(
                "{workload}: correct={}, failed={}",
                result.correct, result.failed
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Workload, END_TO_END, NOMINAL_SECONDS, PER_LAYER};

    /// `BENCHMARK.json` and `spec.rs` name the same workloads and
    /// metrics, in the same order, with the same units.
    #[test]
    fn manifest_and_spec_agree() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = Manifest::load(&path).expect("BENCHMARK.json loads");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(manifest.workloads, names);
        let end_to_end: Vec<(&str, &str)> = manifest
            .end_to_end
            .iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(
            end_to_end,
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>()
        );
        let per_layer: Vec<(&str, &str)> = manifest
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(
            per_layer,
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>()
        );
        assert!(manifest
            .end_to_end
            .iter()
            .all(|(_, _, bound)| *bound > 0.0 && *bound <= 0.25));
        let text = std::fs::read_to_string(&path).expect("read manifest");
        let doc = parse_json(&text).expect("manifest is JSON");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(NOMINAL_SECONDS as f64)
        );
    }

    #[test]
    fn validate_accepts_a_result_line_and_rejects_a_renamed_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = Manifest::load(&path).expect("BENCHMARK.json loads");
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let line = format!(
            "{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        assert_eq!(validate(&line, &manifest), Ok(()));
        let renamed = line.replace("sync_up_s", "sync_up_seconds");
        assert!(validate(&renamed, &manifest).is_err_and(|e| e.contains("sync_up_s")));
        let failed = line.replace("\"failed\": 0", "\"failed\": 1");
        assert!(validate(&failed, &manifest).is_err());
    }
}
