//! Fixed-interval windowed time-series rollups.
//!
//! The end-of-run [`Snapshot`](crate::Snapshot) answers *how much*;
//! this module answers *when*. Every sample is bucketed into a window
//! of fixed virtual-time width (`t_ns / window_ns`), keyed by
//! `(metric, label)` — the label is a cloud id, device class,
//! meta mode, whatever dimension the metric varies over — and each
//! window keeps either a plain counter delta or a full log₂ histogram
//! of the samples that landed in it. Diurnal rate flux, chaos windows,
//! lock-contention ramps and compaction storms that a whole-run
//! snapshot averages away show up here as per-window rows.
//!
//! Three layers share one representation:
//!
//! * [`TimeSeries`] — one `(metric, label)` series. Plain `&mut`
//!   recording, no locks; the open window is a fixed bucket array so
//!   the hot path never allocates (a new allocation happens only when
//!   a window *closes*, amortized to once per window).
//! * [`SeriesBank`] — a keyed collection of series sharing one window
//!   width, recorded through `&mut` (the fleet simulator's series).
//! * Registry-backed cells (see [`Obs::series_observe`]
//!   [`Obs::series_add`], [`Obs::series_handle`](crate::Obs::series_handle))
//!   — thread-safe recording stamped through the installed clock, for
//!   the real client stack.
//!
//! Export is deterministic: sorted keys, windows ascending, integers
//! only. Same seed ⇒ byte-identical `--obs-out` files.
//!
//! One meaning per name, whoever emits it: `cloud.ops` counts
//! *attempts* on a cloud — answered, failed and refused alike — and
//! `cloud.err` the attempts among them that failed (`NotFound` is an
//! answer, not a failure), so `err / ops` is an error share in `[0, 1]`
//! in every window. [`health_lanes`](crate::health_lanes) is the
//! reader that relies on it.
//!
//! [`Obs::series_observe`]: crate::Obs::series_observe
//! [`Obs::series_add`]: crate::Obs::series_add

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::lanes::{health_lanes, CounterWindows, HealthLane};
use crate::metrics::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Default rollup interval: 10 virtual seconds.
pub const DEFAULT_SERIES_WINDOW_NS: u64 = 10_000_000_000;

/// What a series' windows carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-window increment deltas (exported as `[index, delta]`).
    Counter,
    /// Per-window sample distributions (exported as histogram rows).
    Sample,
}

impl SeriesKind {
    /// Stable lowercase label used in the JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Sample => "sample",
        }
    }
}

/// One closed window: its index (`t_ns / window_ns`) and the rolled-up
/// stats of every sample that landed in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStat {
    /// Window index; the window spans
    /// `[index * window_ns, (index + 1) * window_ns)`.
    pub index: u64,
    /// Rolled-up samples. For counter series only `count` (number of
    /// adds) and `sum` (the delta) are meaningful.
    pub stat: HistogramSnapshot,
}

/// The open (current) window: fixed-size bucket array, so recording is
/// allocation-free.
#[derive(Debug, Clone)]
struct OpenWindow {
    index: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl OpenWindow {
    fn new(index: u64) -> Box<OpenWindow> {
        Box::new(OpenWindow {
            index,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        })
    }

    #[inline]
    fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn close(&self) -> WindowStat {
        WindowStat {
            index: self.index,
            stat: HistogramSnapshot {
                count: self.count,
                sum: self.sum,
                min: if self.count == 0 { 0 } else { self.min },
                max: self.max,
                buckets: self
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &n)| {
                        (n > 0).then_some((Histogram::bucket_lower_bound(i), n))
                    })
                    .collect(),
            },
        }
    }
}

/// One `(metric, label)` windowed series.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    kind: SeriesKind,
    window_ns: u64,
    /// Closed windows, ascending by index.
    closed: Vec<WindowStat>,
    open: Option<Box<OpenWindow>>,
}

impl TimeSeries {
    /// An empty series rolled up at `window_ns` intervals.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is 0.
    pub fn new(kind: SeriesKind, window_ns: u64) -> TimeSeries {
        assert!(window_ns > 0, "window must be positive");
        TimeSeries {
            kind,
            window_ns,
            closed: Vec::new(),
            open: None,
        }
    }

    /// The series kind.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    /// The rollup interval, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Records `value` at virtual time `t_ns`. Samples within the
    /// current window are allocation-free; a sample in a *later*
    /// window closes the current one first. Late samples (an earlier
    /// window than the open one — registry cells recording under the
    /// wall clock from several threads can see slightly out-of-order
    /// stamps) fold into the already-closed window for their index, so
    /// the rollup is independent of arrival order.
    pub fn record(&mut self, t_ns: u64, value: u64) {
        let index = t_ns / self.window_ns;
        match &mut self.open {
            Some(w) if w.index == index => {
                w.record(value);
                return;
            }
            Some(w) if w.index > index => {
                // Late sample: fold into the closed window at `index`.
                let one = HistogramSnapshot {
                    count: 1,
                    sum: value,
                    min: value,
                    max: value,
                    buckets: vec![(
                        Histogram::bucket_lower_bound(Histogram::bucket_index(value)),
                        1,
                    )],
                };
                self.insert_closed(WindowStat { index, stat: one });
                return;
            }
            _ => {}
        }
        // Roll forward: close the open window (if any), open `index`.
        if let Some(w) = self.open.take() {
            self.insert_closed(w.close());
        }
        let mut w = OpenWindow::new(index);
        w.record(value);
        self.open = Some(w);
    }

    /// Folds `w` into `closed`, preserving ascending index order.
    fn insert_closed(&mut self, w: WindowStat) {
        match self.closed.binary_search_by_key(&w.index, |c| c.index) {
            Ok(i) => self.closed[i].stat.merge_from(&w.stat),
            Err(i) => self.closed.insert(i, w),
        }
    }

    /// Every window (closed plus the still-open one), ascending by
    /// index. Empty windows are absent — the export is sparse.
    pub fn windows(&self) -> Vec<WindowStat> {
        let mut out = self.closed.clone();
        if let Some(w) = &self.open {
            let closed = w.close();
            match out.binary_search_by_key(&closed.index, |w| w.index) {
                Ok(i) => out[i].stat.merge_from(&closed.stat),
                Err(i) => out.insert(i, closed),
            }
        }
        out
    }

    /// Total recorded across all windows (`sum` for counters).
    pub fn total(&self) -> u64 {
        self.windows().iter().map(|w| w.stat.sum).sum()
    }
}

/// A keyed collection of [`TimeSeries`], all sharing one window width.
/// This is the single-threaded building block: the fleet simulator
/// records its series into one bank.
#[derive(Debug, Clone)]
pub struct SeriesBank {
    window_ns: u64,
    series: BTreeMap<(String, String), TimeSeries>,
}

impl SeriesBank {
    /// An empty bank rolling up at `window_ns`.
    pub fn new(window_ns: u64) -> SeriesBank {
        SeriesBank {
            window_ns: window_ns.max(1),
            series: BTreeMap::new(),
        }
    }

    /// The rollup interval, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// True when no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn entry(&mut self, metric: &str, label: &str, kind: SeriesKind) -> &mut TimeSeries {
        let window_ns = self.window_ns;
        self.series
            .entry((metric.to_owned(), label.to_owned()))
            .or_insert_with(|| TimeSeries::new(kind, window_ns))
    }

    /// Adds `n` to the counter series `(metric, label)` at `t_ns`.
    pub fn add(&mut self, metric: &str, label: &str, t_ns: u64, n: u64) {
        self.entry(metric, label, SeriesKind::Counter).record(t_ns, n);
    }

    /// Records sample `value` into the sample series `(metric, label)`
    /// at `t_ns`.
    pub fn observe(&mut self, metric: &str, label: &str, t_ns: u64, value: u64) {
        self.entry(metric, label, SeriesKind::Sample).record(t_ns, value);
    }

    /// The series for `(metric, label)`, if any samples were recorded.
    pub fn series(&self, metric: &str, label: &str) -> Option<&TimeSeries> {
        self.series.get(&(metric.to_owned(), label.to_owned()))
    }

    /// Immutable snapshot of every series, sorted by `(metric, label)`.
    pub fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            window_ns: self.window_ns,
            entries: self
                .series
                .iter()
                .map(|((metric, label), s)| SeriesEntry {
                    metric: metric.clone(),
                    label: label.clone(),
                    kind: s.kind(),
                    windows: s.windows(),
                })
                .collect(),
        }
    }
}

/// Thread-safe cell for one `(metric, label)` series, shared through
/// the registry. Hot-path recording takes one uncontended mutex and
/// never allocates while the window stays open.
#[derive(Debug)]
pub struct SeriesCell {
    state: Mutex<TimeSeries>,
}

impl SeriesCell {
    pub(crate) fn new(kind: SeriesKind, window_ns: u64) -> SeriesCell {
        SeriesCell {
            state: Mutex::new(TimeSeries::new(kind, window_ns)),
        }
    }

    /// Records `value` at `t_ns`.
    #[inline]
    pub fn record(&self, t_ns: u64, value: u64) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(t_ns, value);
    }

    pub(crate) fn view(&self) -> (SeriesKind, Vec<WindowStat>) {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (s.kind(), s.windows())
    }
}

/// Pre-resolved series handle for hot loops: no map lookup per record,
/// no-op when series collection is disabled.
#[derive(Clone, Default)]
pub struct SeriesHandle {
    pub(crate) inner: Option<(Arc<crate::Registry>, Arc<SeriesCell>)>,
}

impl std::fmt::Debug for SeriesHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesHandle")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl SeriesHandle {
    /// Records `value` stamped with the registry clock. No-op when
    /// disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some((registry, cell)) = &self.inner {
            cell.record(registry.now_ns(), value);
        }
    }
}

/// One exported series: its key, kind, and sparse windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesEntry {
    /// Metric name (e.g. `cloud.op_ns`).
    pub metric: String,
    /// Label value (e.g. the cloud id).
    pub label: String,
    /// Counter or sample.
    pub kind: SeriesKind,
    /// Sparse windows, ascending by index.
    pub windows: Vec<WindowStat>,
}

/// Point-in-time copy of every windowed series, ready for JSON export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Rollup interval, nanoseconds.
    pub window_ns: u64,
    /// Series sorted by `(metric, label)`.
    pub entries: Vec<SeriesEntry>,
}

impl SeriesSnapshot {
    /// An empty snapshot (window width echoed for schema stability).
    pub fn empty(window_ns: u64) -> SeriesSnapshot {
        SeriesSnapshot {
            window_ns,
            entries: Vec::new(),
        }
    }

    /// The entry for `(metric, label)`, if present.
    pub fn entry(&self, metric: &str, label: &str) -> Option<&SeriesEntry> {
        self.entries
            .iter()
            .find(|e| e.metric == metric && e.label == label)
    }

    /// Every counter series of `metric` as `(window index, sum)` pairs,
    /// keyed by label.
    fn counter_windows(&self, metric: &str) -> BTreeMap<String, CounterWindows> {
        self.entries
            .iter()
            .filter(|e| e.metric == metric && e.kind == SeriesKind::Counter)
            .map(|e| {
                let windows = e.windows.iter().map(|w| (w.index, w.stat.sum)).collect();
                (e.label.clone(), windows)
            })
            .collect()
    }

    /// One availability lane per cloud, derived from the `cloud.ops`
    /// and `cloud.err` series (see [`health_lanes`]).
    pub fn health_lanes(&self) -> Vec<(String, HealthLane)> {
        health_lanes(
            &self.counter_windows("cloud.ops"),
            &self.counter_windows("cloud.err"),
        )
    }

    /// Serializes as deterministic JSON (schema
    /// `unidrive-obs-series/v2`): sorted keys, windows ascending,
    /// integers only.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"series\": \"unidrive-obs-series/v2\",\n");
        out.push_str(&format!("  \"window_ns\": {},\n", self.window_ns));
        out.push_str("  \"metrics\": {");
        let mut first_metric = true;
        let mut i = 0;
        while i < self.entries.len() {
            let metric = &self.entries[i].metric;
            if !first_metric {
                out.push(',');
            }
            first_metric = false;
            out.push_str(&format!("\n    \"{metric}\": {{"));
            let mut first_label = true;
            while i < self.entries.len() && &self.entries[i].metric == metric {
                let e = &self.entries[i];
                if !first_label {
                    out.push(',');
                }
                first_label = false;
                out.push_str(&format!(
                    "\n      \"{}\": {{\"kind\": \"{}\", \"windows\": [",
                    e.label,
                    e.kind.as_str()
                ));
                for (j, w) in e.windows.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    match e.kind {
                        SeriesKind::Counter => {
                            out.push_str(&format!("[{}, {}]", w.index, w.stat.sum));
                        }
                        SeriesKind::Sample => {
                            out.push_str(&format!(
                                "{{\"i\": {}, \"count\": {}, \"sum\": {}, \"min\": {}, \
                                 \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                                w.index,
                                w.stat.count,
                                w.stat.sum,
                                w.stat.min,
                                w.stat.max,
                                w.stat.p50(),
                                w.stat.p95(),
                                w.stat.p99()
                            ));
                        }
                    }
                }
                out.push_str("]}");
                i += 1;
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000; // 1 µs windows keep test numbers small

    #[test]
    fn windows_roll_at_fixed_intervals() {
        let mut s = TimeSeries::new(SeriesKind::Sample, W);
        s.record(0, 10);
        s.record(999, 20); // same window
        s.record(1_000, 30); // boundary sample opens window 1
        s.record(5_500, 40); // skips empty windows 2..4
        let w = s.windows();
        assert_eq!(w.len(), 3, "empty windows are absent: {w:?}");
        assert_eq!((w[0].index, w[0].stat.count, w[0].stat.sum), (0, 2, 30));
        assert_eq!((w[1].index, w[1].stat.count, w[1].stat.sum), (1, 1, 30));
        assert_eq!((w[2].index, w[2].stat.count, w[2].stat.sum), (5, 1, 40));
        assert_eq!(s.total(), 100);
    }

    #[test]
    fn boundary_sample_lands_in_the_new_window() {
        let mut s = TimeSeries::new(SeriesKind::Counter, W);
        s.record(W - 1, 1);
        s.record(W, 1); // exactly on the boundary → window 1
        let w = s.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].index, w[0].stat.sum), (0, 1));
        assert_eq!((w[1].index, w[1].stat.sum), (1, 1));
    }

    #[test]
    fn late_samples_fold_into_their_window() {
        let mut s = TimeSeries::new(SeriesKind::Sample, W);
        s.record(100, 5);
        s.record(2_100, 7); // window 2 open
        s.record(150, 9); // late: folds back into window 0
        s.record(1_100, 11); // late: creates closed window 1
        let w = s.windows();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].index, w[0].stat.count, w[0].stat.sum), (0, 2, 14));
        assert_eq!((w[1].index, w[1].stat.count, w[1].stat.sum), (1, 1, 11));
        assert_eq!((w[2].index, w[2].stat.count, w[2].stat.sum), (2, 1, 7));
        // Ordering invariants hold after out-of-order recording.
        assert!(w.windows(2).all(|p| p[0].index < p[1].index));
    }

    #[test]
    fn json_export_is_deterministic_and_grouped() {
        let mut bank = SeriesBank::new(W);
        bank.add("ops", "c1", 0, 3);
        bank.add("ops", "c0", 0, 1);
        bank.observe("lat", "c0", 500, 42);
        let a = bank.snapshot().to_json();
        assert_eq!(a, bank.snapshot().to_json());
        assert!(a.contains("\"series\": \"unidrive-obs-series/v2\""));
        assert!(a.contains("\"window_ns\": 1000"));
        // Labels sort within a metric; kinds export differently.
        let c0 = a.find("\"c0\": {\"kind\": \"counter\"").unwrap();
        let c1 = a.find("\"c1\": {\"kind\": \"counter\"").unwrap();
        assert!(c0 < c1);
        assert!(a.contains("[0, 1]"));
        assert!(a.contains("\"kind\": \"sample\""));
        assert!(a.contains("\"p50\": 42"));
        assert!(a.ends_with("\n  }\n}\n"));
    }

    #[test]
    fn empty_snapshot_keeps_schema() {
        let json = SeriesSnapshot::empty(W).to_json();
        assert!(json.ends_with("\"metrics\": {\n  }\n}\n"), "{json}");
    }

    #[test]
    fn sample_windows_keep_quantile_order_with_one_sample() {
        let mut s = TimeSeries::new(SeriesKind::Sample, W);
        for (i, v) in [3u64, 70_000, 9, 1].into_iter().enumerate() {
            s.record(i as u64 * W, v);
        }
        for w in s.windows() {
            assert_eq!(w.stat.count, 1);
            assert_eq!(w.stat.p50(), w.stat.min);
            assert!(w.stat.p50() <= w.stat.p95() && w.stat.p95() <= w.stat.p99());
            assert_eq!(w.stat.p99(), w.stat.max);
        }
    }
}
