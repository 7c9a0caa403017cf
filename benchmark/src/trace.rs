//! Chrome trace-event export of a traced run (load in Perfetto or
//! `chrome://tracing`). One process per device; its first thread nests
//! phase ⊃ `sync_once` ⊃ folder calls, and each cloud gets as many
//! lanes as it had calls in flight at once.

use std::fmt::Write as _;

use crate::meter::{Kind, Span};
use crate::world::CLOUDS;

/// Lanes per cloud in the thread-id space of a device.
const LANE_STRIDE: usize = 64;

/// Assigns every cloud span the lowest lane of its `(device, cloud)` on
/// which no earlier span is still running. Returns lane per span.
fn lanes(spans: &[Span]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].kind.is_cloud())
        .collect();
    order.sort_by_key(|&i| {
        (
            spans[i].device,
            spans[i].cloud,
            spans[i].start_ns,
            spans[i].end_ns,
        )
    });
    let mut lane_of = vec![0; spans.len()];
    let mut key = None;
    let mut busy_until: Vec<u64> = Vec::new();
    for i in order {
        let s = &spans[i];
        if key != Some((s.device, s.cloud)) {
            key = Some((s.device, s.cloud));
            busy_until.clear();
        }
        let lane = busy_until
            .iter()
            .position(|&end| end <= s.start_ns)
            .unwrap_or_else(|| {
                busy_until.push(0);
                busy_until.len() - 1
            });
        busy_until[lane] = s.end_ns;
        lane_of[i] = lane.min(LANE_STRIDE - 1);
    }
    lane_of
}

fn tid(span: &Span, lane: usize) -> usize {
    if span.kind.is_cloud() {
        LANE_STRIDE * (1 + span.cloud as usize) + lane
    } else {
        0
    }
}

pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let lane_of = lanes(spans);
    let mut out = String::with_capacity(spans.len() * 160 + 1024);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let devices = spans
        .iter()
        .map(|s| s.device as usize + 1)
        .max()
        .unwrap_or(0);
    let mut first = true;
    let mut event = |out: &mut String, body: std::fmt::Arguments| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = out.write_fmt(body);
    };
    for d in 0..devices {
        event(
            &mut out,
            format_args!(
                "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {d}, \"args\": {{\"name\": \"{workload} device-{d}\"}}}}"
            ),
        );
        event(
            &mut out,
            format_args!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {d}, \"tid\": 0, \"args\": {{\"name\": \"client\"}}}}"
            ),
        );
        for c in 0..CLOUDS {
            let lanes_used = spans
                .iter()
                .zip(&lane_of)
                .filter(|(s, _)| {
                    s.kind.is_cloud() && s.device as usize == d && s.cloud as usize == c
                })
                .map(|(_, &lane)| lane + 1)
                .max()
                .unwrap_or(0);
            for lane in 0..lanes_used {
                event(
                    &mut out,
                    format_args!(
                        "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {d}, \"tid\": {}, \"args\": {{\"name\": \"cloud {c} lane {lane}\"}}}}",
                        LANE_STRIDE * (1 + c) + lane
                    ),
                );
            }
        }
    }
    for (span, &lane) in spans.iter().zip(&lane_of) {
        let name = match (span.kind, span.phase) {
            (Kind::Phase, Some(phase)) => phase.label().to_owned(),
            (kind, _) if kind.is_cloud() => format!("{} {}", kind.label(), span.class.label()),
            (kind, _) => kind.label().to_owned(),
        };
        event(
            &mut out,
            format_args!(
                "{{\"ph\": \"X\", \"name\": \"{name}\", \"cat\": \"{}\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"round\": {}, \"parent\": {}, \"bytes\": {}, \"ok\": {}}}}}",
                if span.kind.is_cloud() { "cloud" } else if span.kind.is_folder() { "folder" } else { "driver" },
                span.device,
                tid(span, lane),
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.round,
                span.pass,
                span.bytes,
                span.ok,
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Class;

    fn cloud_span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind: Kind::Upload,
            device: 0,
            cloud: 1,
            class: Class::Blocks,
            phase: None,
            ok: true,
            thread: 1,
            pass: 1,
            round: 1,
            start_ns,
            end_ns,
            bytes: 0,
            base_write: false,
        }
    }

    #[test]
    fn overlapping_calls_get_distinct_lanes_and_lanes_are_reused() {
        let spans = [
            cloud_span(0, 10),
            cloud_span(5, 15),
            cloud_span(10, 20),
            cloud_span(16, 18),
        ];
        assert_eq!(lanes(&spans), vec![0, 1, 0, 1]);
    }

    #[test]
    fn export_parses_as_json() {
        let spans = [cloud_span(0, 10), cloud_span(5, 15)];
        let doc = unidrive_bench::json::parse_json(&chrome_json("w", &spans)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("event array");
        assert_eq!(
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .count(),
            2
        );
    }
}
