//! # unidrive-obs
//!
//! Observability substrate for the UniDrive reproduction: one
//! thread-safe **metric store** of windowed, labelled series (a counter
//! is a counter series, a distribution a sample series) and one
//! ring-buffered **span trace** (parent-linked intervals plus
//! zero-duration instants), both timestamped through an installable
//! clock so that under the simulation's virtual time the full export is
//! *deterministic*: the same seed produces a byte-identical artefact
//! ([`bundle_json`]).
//!
//! ## Design
//!
//! Instrumented code holds an [`Obs`] handle. The handle is either a
//! no-op (the default — every call returns immediately without
//! touching shared state) or backed by a shared [`Registry`]. This
//! keeps the disabled cost at a branch on an `Option`, and lets tests
//! and bench binaries opt in per component without any global state,
//! so parallel tests never share a registry by accident.
//!
//! Every metric is keyed by `(metric, label)`, the label being the
//! dimension it varies over (a cloud, a device, an outcome), and rolled
//! up into [`DEFAULT_SERIES_WINDOW_NS`] windows. A whole-run number is
//! the merge of a metric's windows and labels,
//! [`SeriesSnapshot::merged`]: `.sum` of a counter, `.count` and the
//! quantiles of a sample series. The fleet simulator records into the
//! same store without a registry: a [`SeriesBank`] written through
//! `&mut`, whose snapshot is the only record of a fleet run
//! (`BENCH_fleet.json` is a view of it). There is no other counter or
//! histogram type; [`HistogramSnapshot`] is what a merged window holds.
//!
//! ```
//! use unidrive_obs::{Obs, Registry};
//!
//! let obs = Obs::with_registry(Registry::new());
//! obs.series_add("blocks_uploaded", "c0", 1);
//! obs.series_observe("block_bytes", "c1", 4 << 20);
//! let series = obs.series_snapshot().unwrap();
//! assert_eq!(series.merged("blocks_uploaded").sum, 1);
//! assert_eq!(series.merged("block_bytes").count, 1);
//! assert!(series.to_json().contains("blocks_uploaded"));
//! ```
//!
//! Timestamps come from the registry clock, which components install
//! (`registry.set_clock(move || rt.now().as_nanos())`). The default
//! clock returns 0 so that even an unclocked registry stays
//! deterministic — nothing in this crate ever reads wall time.

#![warn(missing_docs)]

mod export;
mod lanes;
mod metrics;
mod series;
mod span;

pub use export::{bundle_json, histogram_json, Snapshot, BUNDLE_SCHEMA};
pub use lanes::{
    health_lane, health_lanes, lane_span, CounterWindows, HealthLane, HealthState,
};
pub use metrics::HistogramSnapshot;
pub use series::{
    SeriesBank, SeriesCell, SeriesEntry, SeriesHandle, SeriesKind, SeriesSnapshot, TimeSeries,
    WindowStat, DEFAULT_SERIES_WINDOW_NS,
};
pub use span::{FieldValue, SpanId, SpanRecord, DEFAULT_SPAN_CAPACITY};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The shared clock: nanoseconds since some epoch (virtual or real).
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Central store for the windowed series and the span trace. Shared
/// via [`Obs::with_registry`]; all methods take `&self` and are
/// thread-safe.
pub struct Registry {
    clock: Mutex<ClockFn>,
    spans: span::SpanRing,
    next_span: AtomicU64,
    dropped_spans: AtomicU64,
    /// Series cells by metric, then label: a lookup borrows both keys.
    series: Mutex<BTreeMap<String, BTreeMap<String, Arc<SeriesCell>>>>,
}

impl Registry {
    /// A registry with the default trace capacity and a zero clock.
    pub fn new() -> Arc<Registry> {
        Registry::with_trace_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A registry whose span ring keeps at most `capacity` entries
    /// (oldest dropped first; drops are counted deterministically).
    pub fn with_trace_capacity(capacity: usize) -> Arc<Registry> {
        Arc::new(Registry {
            clock: Mutex::new(Arc::new(|| 0)),
            spans: span::SpanRing::new(capacity),
            next_span: AtomicU64::new(1),
            dropped_spans: AtomicU64::new(0),
            series: Mutex::new(BTreeMap::new()),
        })
    }

    /// Installs the time source used to stamp spans and series.
    /// Under simulation pass the virtual clock
    /// (`move || rt.now().as_nanos()`) so traces are reproducible.
    pub fn set_clock(&self, clock: impl Fn() -> u64 + Send + Sync + 'static) {
        *lockp(&self.clock) = Arc::new(clock);
    }

    /// Current time in nanoseconds according to the installed clock.
    pub fn now_ns(&self) -> u64 {
        let clock = lockp(&self.clock).clone();
        clock()
    }

    /// Allocates a fresh span id (monotonic, never 0).
    pub fn alloc_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Appends a completed span to the span ring.
    pub fn record_span(&self, span: SpanRecord) {
        if self.spans.push(span) {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The series cell for `(metric, label)`, created on first use with
    /// [`DEFAULT_SERIES_WINDOW_NS`] windows. A hit allocates nothing.
    /// One series has one kind: asking for the other kind is a bug
    /// (`debug_assert`).
    pub fn series_cell(&self, metric: &str, label: &str, kind: SeriesKind) -> Arc<SeriesCell> {
        let mut map = lockp(&self.series);
        let cell = match map.get(metric).and_then(|labels| labels.get(label)) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(SeriesCell::new(kind, DEFAULT_SERIES_WINDOW_NS));
                map.entry(metric.to_owned())
                    .or_default()
                    .insert(label.to_owned(), Arc::clone(&cell));
                cell
            }
        };
        debug_assert_eq!(
            cell.kind(),
            kind,
            "series ({metric}, {label}) recorded as two kinds"
        );
        cell
    }

    /// Records into series `(metric, label)` stamped with the
    /// installed clock.
    pub fn series_record(&self, metric: &str, label: &str, kind: SeriesKind, value: u64) {
        let cell = self.series_cell(metric, label, kind);
        cell.record(self.now_ns(), value);
    }

    /// Sorted snapshot of every windowed series.
    pub fn series_snapshot(&self) -> SeriesSnapshot {
        let map = lockp(&self.series);
        SeriesSnapshot {
            window_ns: DEFAULT_SERIES_WINDOW_NS,
            entries: map
                .iter()
                .flat_map(|(metric, labels)| {
                    labels.iter().map(move |(label, cell)| {
                        let (kind, windows) = cell.view();
                        SeriesEntry {
                            metric: metric.clone(),
                            label: label.clone(),
                            kind,
                            windows,
                        }
                    })
                })
                .collect(),
        }
    }

    /// A copy of the span trace.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            spans: self.spans.drain_copy(),
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
        }
    }
}

fn lockp<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cheap-clone instrumentation handle: either no-op (default) or
/// backed by a [`Registry`]. Every method is a single `Option` branch
/// in the no-op case.
#[derive(Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
}

impl Obs {
    /// The disabled handle; all operations are no-ops.
    pub fn noop() -> Obs {
        Obs { registry: None }
    }

    /// A handle recording into `registry`.
    pub fn with_registry(registry: Arc<Registry>) -> Obs {
        Obs {
            registry: Some(registry),
        }
    }

    /// Whether a registry is installed.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Records a point occurrence as a zero-duration span named
    /// `name` under `parent`: one clock stamp serves as start and end.
    /// The closure only runs when a registry is installed, so building
    /// the attributes is free when disabled.
    #[inline]
    pub fn instant(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        attrs: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if let Some(r) = &self.registry {
            let t_ns = r.now_ns();
            r.record_span(SpanRecord {
                id: r.alloc_span_id().0,
                parent: parent.map_or(0, |p| p.0),
                name,
                track: 0,
                start_ns: t_ns,
                end_ns: t_ns,
                attrs: attrs(),
            });
        }
    }

    /// Opens a causal span named `name` under `parent` (`None` starts
    /// a root span). The returned guard records the span into the
    /// registry's span ring when dropped (or ended explicitly); start
    /// and end are stamped through the installed clock. No-op and
    /// allocation-free when disabled.
    #[inline]
    pub fn span(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard {
        match &self.registry {
            Some(r) => SpanGuard {
                inner: Some(SpanGuardInner {
                    id: r.alloc_span_id().0,
                    parent: parent.map_or(0, |p| p.0),
                    name,
                    track: 0,
                    start_ns: r.now_ns(),
                    attrs: Vec::new(),
                    registry: Arc::clone(r),
                }),
            },
            None => SpanGuard { inner: None },
        }
    }

    /// Adds `n` to the windowed counter series `(metric, label)` at
    /// the current clock time. No-op unless a registry is installed.
    #[inline]
    pub fn series_add(&self, metric: &str, label: &str, n: u64) {
        if let Some(r) = &self.registry {
            r.series_record(metric, label, SeriesKind::Counter, n);
        }
    }

    /// Records `value` into the windowed sample series
    /// `(metric, label)` at the current clock time. No-op unless a
    /// registry is installed.
    #[inline]
    pub fn series_observe(&self, metric: &str, label: &str, value: u64) {
        if let Some(r) = &self.registry {
            r.series_record(metric, label, SeriesKind::Sample, value);
        }
    }

    /// Pre-resolved series handle for hot loops: no map lookup per
    /// record. No-op when no registry is installed.
    pub fn series_handle(&self, metric: &str, label: &str, kind: SeriesKind) -> SeriesHandle {
        SeriesHandle {
            inner: self
                .registry
                .as_ref()
                .map(|r| (Arc::clone(r), r.series_cell(metric, label, kind))),
        }
    }

    /// The span trace of the backing registry, if enabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }

    /// The series of the backing registry, if enabled.
    pub fn series_snapshot(&self) -> Option<SeriesSnapshot> {
        self.registry.as_ref().map(|r| r.series_snapshot())
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

struct SpanGuardInner {
    id: u64,
    parent: u64,
    name: &'static str,
    track: u32,
    start_ns: u64,
    attrs: Vec<(&'static str, FieldValue)>,
    registry: Arc<Registry>,
}

/// Scope guard returned by [`Obs::span`]: an open span. Dropping it
/// (or calling [`end`](SpanGuard::end)) stamps the end time and
/// records the completed span.
pub struct SpanGuard {
    inner: Option<SpanGuardInner>,
}

impl SpanGuard {
    /// This span's id, for parenting children (`None` when disabled).
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|i| SpanId(i.id))
    }

    /// Sets the display lane used by the Chrome-trace export (`tid`).
    pub fn set_track(&mut self, track: u32) {
        if let Some(i) = &mut self.inner {
            i.track = track;
        }
    }

    /// The display lane (0 when unset or disabled).
    pub fn track(&self) -> u32 {
        self.inner.as_ref().map_or(0, |i| i.track)
    }

    /// Attaches an unsigned-integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(i) = &mut self.inner {
            i.attrs.push((key, FieldValue::U(value)));
        }
    }

    /// Attaches a string attribute. The value is only materialized
    /// when the span is enabled.
    pub fn attr_str(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(i) = &mut self.inner {
            i.attrs.push((key, FieldValue::S(value.into())));
        }
    }

    /// Attaches a boolean attribute.
    pub fn attr_bool(&mut self, key: &'static str, value: bool) {
        if let Some(i) = &mut self.inner {
            i.attrs.push((key, FieldValue::B(value)));
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            let end_ns = i.registry.now_ns();
            i.registry.record_span(SpanRecord {
                id: i.id,
                parent: i.parent,
                name: i.name,
                track: i.track,
                start_ns: i.start_ns,
                end_ns,
                attrs: i.attrs,
            });
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("id", &self.inner.as_ref().map(|i| i.id))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let obs = Obs::noop();
        obs.series_add("x", "c0", 1);
        obs.series_observe("h", "c0", 5);
        obs.series_handle("h", "c0", SeriesKind::Sample).record(5);
        obs.instant("i", None, || panic!("must not be called"));
        let mut s = obs.span("noop", None);
        assert_eq!(s.id(), None);
        s.attr_u64("k", 1);
        s.end();
        assert!(obs.snapshot().is_none());
        assert!(obs.series_snapshot().is_none());
    }

    #[test]
    fn spans_nest_and_stamp_through_the_clock() {
        let reg = Registry::new();
        let t = Arc::new(AtomicU64::new(100));
        let t2 = Arc::clone(&t);
        reg.set_clock(move || t2.load(Ordering::SeqCst));
        let obs = Obs::with_registry(Arc::clone(&reg));

        let mut root = obs.span("sync.round", None);
        root.attr_str("device", "dev-a");
        let mut child = obs.span("engine.batch", root.id());
        child.set_track(3);
        child.attr_u64("blocks", 5);
        t.store(250, Ordering::SeqCst);
        child.end();
        t.store(400, Ordering::SeqCst);
        drop(root);

        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 2);
        // The ring holds spans in end order: child first.
        let (child, root) = (&snap.spans[0], &snap.spans[1]);
        assert_eq!(child.name, "engine.batch");
        assert_eq!(child.parent, root.id);
        assert_eq!((child.start_ns, child.end_ns), (100, 250));
        assert_eq!(child.track, 3);
        assert_eq!((root.start_ns, root.end_ns), (100, 400));
        assert_eq!(root.parent, 0);
        assert_eq!(root.attr("device"), Some(&FieldValue::S("dev-a".into())));
        assert_eq!(snap.dropped_spans, 0);
    }

    #[test]
    fn span_ring_eviction_is_counted() {
        let reg = Registry::with_trace_capacity(2);
        let obs = Obs::with_registry(Arc::clone(&reg));
        for _ in 0..3 {
            obs.span("s", None).end();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped_spans, 1);
        // Ids keep increasing even across evictions.
        assert_eq!(snap.spans[0].id, 2);
        assert_eq!(snap.spans[1].id, 3);
    }

    #[test]
    fn whole_run_totals_merge_windows_and_labels() {
        let obs = Obs::with_registry(Registry::new());
        obs.series_add("c", "a", 3);
        obs.series_add("c", "b", 1);
        obs.series_observe("h", "a", 100);
        obs.series_handle("h", "b", SeriesKind::Sample).record(300);
        let series = obs.series_snapshot().unwrap();
        assert_eq!(series.merged("c").sum, 4);
        let h = series.merged("h");
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 400, 100, 300));
        assert_eq!(series.merged("missing").count, 0);
    }

    #[test]
    fn concurrent_series_do_not_lose_increments() {
        let obs = Obs::with_registry(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        obs.series_add("cold", "c0", 1);
                        obs.series_observe("hist", "c0", 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let series = obs.series_snapshot().unwrap();
        assert_eq!(series.merged("cold").sum, 80_000);
        assert_eq!(series.merged("hist").count, 80_000);
    }

    #[test]
    fn series_stamp_through_the_clock() {
        const W: u64 = DEFAULT_SERIES_WINDOW_NS;
        let reg = Registry::new();
        let t = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&t);
        reg.set_clock(move || t2.load(Ordering::SeqCst));
        let obs = Obs::with_registry(Arc::clone(&reg));

        // A handle resolved first records like any later call.
        let lat = obs.series_handle("lat", "c0", SeriesKind::Sample);
        obs.series_add("ops", "c0", 2);
        t.store(2 * W + W / 2, Ordering::SeqCst);
        obs.series_add("ops", "c0", 3);
        lat.record(40);

        let snap = reg.series_snapshot();
        assert_eq!(snap.window_ns, W);
        let ops = snap.entry("ops", "c0").unwrap();
        assert_eq!(ops.kind, SeriesKind::Counter);
        assert_eq!(
            ops.windows
                .iter()
                .map(|w| (w.index, w.stat.sum))
                .collect::<Vec<_>>(),
            vec![(0, 2), (2, 3)]
        );
        let lat = snap.entry("lat", "c0").unwrap();
        assert_eq!(lat.kind, SeriesKind::Sample);
        assert_eq!((lat.windows[0].index, lat.windows[0].stat.p50()), (2, 40));
        // The export path is exercised end to end.
        assert!(snap.to_json().contains("\"ops\""));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recorded as two kinds")]
    fn a_series_has_one_kind() {
        let obs = Obs::with_registry(Registry::new());
        obs.series_add("x", "c0", 1);
        obs.series_observe("x", "c0", 1);
    }

    #[test]
    fn an_instant_is_a_zero_duration_span_under_its_parent() {
        let reg = Registry::new();
        let obs = Obs::with_registry(Arc::clone(&reg));
        reg.set_clock(|| 42_000);
        let round = obs.span("sync.round", None);
        obs.instant("chaos.fault", round.id(), || {
            vec![
                ("cloud", FieldValue::S("c0".into())),
                ("kind", FieldValue::S("outage".into())),
            ]
        });
        round.end();
        let snap = reg.snapshot();
        let (instant, round) = (&snap.spans[0], &snap.spans[1]);
        assert_eq!(instant.name, "chaos.fault");
        assert_eq!((instant.start_ns, instant.end_ns), (42_000, 42_000));
        assert_eq!(instant.parent, round.id);
        assert_eq!(instant.attr("kind"), Some(&FieldValue::S("outage".into())));
        // Exported with `dur` 0 and a parent that is present in the file.
        let doc = bundle_json(Some(&snap), None);
        assert!(doc.contains(&format!(
            "\"name\": \"chaos.fault\", \"cat\": \"unidrive\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": 0, \"ts\": 42.000, \"dur\": 0.000, \"args\": {{\"span_id\": {}, \"parent\": {}",
            instant.id, round.id
        )));
        assert!(doc.contains(&format!(
            "\"args\": {{\"span_id\": {}, \"parent\": 0",
            round.id
        )));
    }
}
