//! The fleet's pending-event calendar.
//!
//! [`SimRuntime`](unidrive_sim::SimRuntime) actors are OS threads, which
//! caps a population at a few hundred actors. The fleet instead runs
//! hundreds of thousands of lightweight state machines on one event
//! calendar, popped a window of due events at a time in a total
//! `(time, lane, seq)` order, so a run is reproducible event for event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A calendar entry: `(time_ns, lane, seq)` plus a payload. `lane` is
/// the scheduling key (the fleet uses the device id); `seq` is a
/// deterministic push counter that makes the order total even if a
/// lane somehow schedules twice for the same instant.
#[derive(Debug)]
pub(crate) struct Entry<E> {
    /// Virtual time the event is due, nanoseconds.
    pub(crate) at_ns: u64,
    /// Scheduling lane (device id in the fleet).
    pub(crate) lane: u64,
    /// Deterministic tiebreaker assigned by the calendar.
    seq: u64,
    /// The event payload.
    pub(crate) event: E,
}

impl<E> Entry<E> {
    /// The total-order key.
    fn key(&self) -> (u64, u64, u64) {
        (self.at_ns, self.lane, self.seq)
    }
}

/// A deterministic pending-event calendar.
///
/// A `BinaryHeap` keyed by `(time, lane, seq)`: pops come out in total
/// order, and the `seq` counter is assigned in push order, which is
/// itself deterministic because the fleet engine handles events, and
/// so pushes their successors, in that same total order.
#[derive(Debug)]
pub(crate) struct Calendar<E> {
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
    next_seq: u64,
}

#[derive(Debug)]
struct HeapEntry<E>(Entry<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub(crate) fn new() -> Calendar<E> {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` on `lane` at `at_ns`.
    pub(crate) fn push(&mut self, at_ns: u64, lane: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEntry(Entry {
            at_ns,
            lane,
            seq,
            event,
        })));
    }

    /// Time of the earliest pending event.
    pub(crate) fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(HeapEntry(e))| e.at_ns)
    }

    /// Pops every event strictly before `before_ns`, in total order.
    pub(crate) fn pop_window(&mut self, before_ns: u64) -> Vec<Entry<E>> {
        let mut out = Vec::new();
        while let Some(Reverse(HeapEntry(e))) = self.heap.peek() {
            if e.at_ns >= before_ns {
                break;
            }
            let Reverse(HeapEntry(e)) = self.heap.pop().expect("peeked entry");
            out.push(e);
        }
        out
    }

    /// True when nothing is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_pops_in_total_order() {
        let mut c: Calendar<&'static str> = Calendar::new();
        c.push(50, 2, "b");
        c.push(10, 7, "a");
        c.push(50, 1, "c");
        c.push(99, 0, "d");
        assert_eq!(c.next_time(), Some(10));
        let w = c.pop_window(60);
        let got: Vec<_> = w.iter().map(|e| (e.at_ns, e.lane, e.event)).collect();
        assert_eq!(got, vec![(10, 7, "a"), (50, 1, "c"), (50, 2, "b")]);
        assert_eq!(c.next_time(), Some(99));
        assert_eq!(c.pop_window(100).len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn same_lane_same_time_orders_by_push_seq() {
        let mut c: Calendar<u32> = Calendar::new();
        c.push(5, 1, 10);
        c.push(5, 1, 20);
        let w = c.pop_window(6);
        assert_eq!(w.iter().map(|e| e.event).collect::<Vec<_>>(), vec![10, 20]);
    }
}
