//! Causal span layer: parent-linked, clock-stamped intervals.
//!
//! A span is one timed operation in the sync pipeline (a sync round, a
//! lock acquisition, a transfer batch, one block attempt). Spans carry
//! a registry-unique [`SpanId`], an optional parent link, typed
//! attributes ([`FieldValue`] scalars), and start/end timestamps
//! stamped through the registry's installable clock — so under
//! simulated time the whole span tree is deterministic and a same-seed
//! run exports byte-identically. A point occurrence (a flow starting,
//! an injected fault) is an *instant*: a span whose start and end are
//! the same stamp (see `Obs::instant`).
//!
//! Completed spans land in one bounded ring, the registry's only
//! trace: oldest spans are evicted first and evictions are counted,
//! never silently lost.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Default span-ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// Scalar value of one span attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U(u64),
    /// String.
    S(String),
    /// Boolean.
    B(bool),
}

/// Identifier of one span within its registry. Ids are allocated from
/// 1; the value 0 is reserved to mean "no parent" in exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One completed span: identity, parentage, interval, and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Registry-unique id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Stable span name from the taxonomy (`sync.round`,
    /// `lock.acquire`, `engine.batch`, `engine.worker`, `engine.block`,
    /// `wire.attempt`, `meta.*`, …).
    pub name: &'static str,
    /// Display lane for Chrome-trace export (`tid`); 0 is the
    /// client/control lane, engine workers use `slot + 1`.
    pub track: u32,
    /// Clock nanoseconds when the span was opened.
    pub start_ns: u64,
    /// Clock nanoseconds when the span was closed.
    pub end_ns: u64,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Span duration (saturating; clocks never run backwards under
    /// either runtime, but a snapshot must not panic if one did).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Attribute value by key, if present.
    pub fn attr(&self, key: &str) -> Option<&FieldValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Bounded FIFO of completed spans; oldest entries are evicted first.
pub(crate) struct SpanRing {
    capacity: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
}

impl SpanRing {
    pub(crate) fn new(capacity: usize) -> SpanRing {
        SpanRing {
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Pushes a span; returns `true` when an old span was evicted.
    pub(crate) fn push(&self, span: SpanRecord) -> bool {
        let mut q = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let dropped = q.len() == self.capacity;
        if dropped {
            q.pop_front();
        }
        q.push_back(span);
        dropped
    }

    /// Copies out the ring contents, oldest first (by end time).
    pub(crate) fn drain_copy(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            name: "t",
            track: 0,
            start_ns: id,
            end_ns: id + 1,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = SpanRing::new(2);
        assert!(!ring.push(rec(1)));
        assert!(!ring.push(rec(2)));
        assert!(ring.push(rec(3)));
        let ids: Vec<u64> = ring.drain_copy().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn record_helpers() {
        let mut s = rec(7);
        s.attrs.push(("cloud", FieldValue::S("c0".into())));
        assert_eq!(s.duration_ns(), 1);
        assert_eq!(s.attr("cloud"), Some(&FieldValue::S("c0".into())));
        assert_eq!(s.attr("missing"), None);
        let backwards = SpanRecord {
            start_ns: 10,
            end_ns: 5,
            ..rec(8)
        };
        assert_eq!(backwards.duration_ns(), 0);
    }
}
