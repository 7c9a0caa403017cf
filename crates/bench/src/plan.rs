//! Reader of [`FaultPlan::to_json`]: a failing schedule written by
//! `chaos_soak` (`*.minplan.json`) is an artefact a later run can
//! replay. Parsed through [`crate::json`]; `seed`, `start_ns` and
//! `end_ns` take its exact-integer path, so `read(p.to_json())`
//! re-renders byte for byte.

use unidrive_cloud::{CloudOp, FaultEvent, FaultKind, FaultPlan};

use crate::json::{parse_json, Json};

/// The field `key` of `at`, read by `read` (one of the `Json::as_*`).
fn field<'a, T>(
    at: &'a Json,
    key: &str,
    read: impl Fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    at.get(key)
        .and_then(read)
        .ok_or_else(|| format!("fault plan: `{key}` is not {what}"))
}

/// Parses `text` as a [`FaultPlan::to_json`] document.
pub fn read_fault_plan(text: &str) -> Result<FaultPlan, String> {
    let doc = parse_json(text)?;
    let mut plan = FaultPlan::new(field(&doc, "seed", Json::as_u64, "a u64")?);
    for e in field(&doc, "events", Json::as_arr, "an array")? {
        let ops = field(e, "ops", Json::as_arr, "an array")?
            .iter()
            .map(|op| {
                CloudOp::ALL
                    .into_iter()
                    .find(|known| op.as_str() == Some(known.as_str()))
                    .ok_or_else(|| format!("fault plan: unknown op {op:?}"))
            })
            .collect::<Result<Vec<CloudOp>, String>>()?;
        let probability = || field(e, "probability", Json::as_f64, "a number");
        let kind = match field(e, "kind", Json::as_str, "a string")? {
            "transient" => FaultKind::TransientBurst {
                probability: probability()?,
            },
            "outage" => FaultKind::Outage,
            "quota" => FaultKind::QuotaExhausted,
            "latency" => FaultKind::LatencySpike {
                extra_ms: field(e, "extra_ms", Json::as_u64, "a u64")?,
            },
            "torn_upload" => FaultKind::TornUpload {
                probability: probability()?,
            },
            "delayed_visibility" => FaultKind::DelayedVisibility,
            other => return Err(format!("fault plan: unknown kind {other:?}")),
        };
        plan.push(FaultEvent {
            cloud: field(e, "cloud", Json::as_str, "a string")?.to_owned(),
            ops,
            start_ns: field(e, "start_ns", Json::as_u64, "a u64")?,
            end_ns: field(e, "end_ns", Json::as_u64, "a u64")?,
            kind,
        });
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_written_plan_reads_back_byte_for_byte() {
        // All six kinds, an op filter, an `always` window (`end_ns` =
        // u64::MAX) and a seed no f64 holds.
        let seed = (1u64 << 53) + 1;
        let plan = FaultPlan::with_events(
            seed,
            vec![
                FaultEvent::always("c0", FaultKind::TransientBurst { probability: 0.37 })
                    .window_secs(5, 60),
                FaultEvent::always("c1", FaultKind::Outage),
                FaultEvent::always("c2", FaultKind::QuotaExhausted)
                    .on_ops(&[CloudOp::Upload, CloudOp::CreateDir]),
                FaultEvent::always("c3", FaultKind::LatencySpike { extra_ms: 800 })
                    .window_secs(0, 280),
                FaultEvent::always("c\"4\\", FaultKind::TornUpload { probability: 1.0 }),
                FaultEvent::always("c4", FaultKind::DelayedVisibility).window_secs(10, 20),
            ],
        );
        let text = plan.to_json();
        let read = read_fault_plan(&text).unwrap();
        assert_eq!(read, plan);
        assert_eq!(read.seed, seed);
        assert_eq!(read.events[1].end_ns, u64::MAX);
        assert_eq!(read.to_json(), text);
    }

    #[test]
    fn a_malformed_plan_is_an_error_not_a_default() {
        for (text, want) in [
            ("{\"events\":[]}", "`seed` is not a u64"),
            ("{\"seed\":1.5,\"events\":[]}", "`seed` is not a u64"),
            ("{\"seed\":1}", "`events` is not an array"),
            (
                "{\"seed\":1,\"events\":[{\"cloud\":\"c\",\"ops\":[],\"start_ns\":0,\"end_ns\":1,\"kind\":\"meteor\"}]}",
                "unknown kind",
            ),
            (
                "{\"seed\":1,\"events\":[{\"cloud\":\"c\",\"ops\":[\"rename\"],\"start_ns\":0,\"end_ns\":1,\"kind\":\"outage\"}]}",
                "unknown op",
            ),
            (
                "{\"seed\":1,\"events\":[{\"cloud\":\"c\",\"ops\":[],\"start_ns\":0,\"end_ns\":1,\"kind\":\"latency\"}]}",
                "`extra_ms` is not a u64",
            ),
        ] {
            let err = read_fault_plan(text).unwrap_err();
            assert!(err.contains(want), "{text}: {err}");
        }
    }
}
