//! Deterministic fault injection: [`FaultPlan`] schedules and the
//! [`ChaosCloud`] wrapper.
//!
//! The paper's robustness claims (§3.2, §7.3) are about *correlated*,
//! *scheduled* misbehaviour — a cloud going dark for a window, bursts of
//! transient errors, uploads torn mid-flight, metadata becoming visible
//! late or rolled back — not just a flat per-request coin flip. A
//! [`FaultPlan`] is a
//! seeded, serializable schedule of such faults; [`ChaosCloud`] applies
//! the plan to any [`CloudStore`] deterministically (same plan, same
//! seed ⇒ same injected faults), emitting a
//! `chaos.fault` instant and a `chaos.injected` count for every injection
//! so invariant checkers can reconcile observed damage against the
//! schedule.
//!
//! A plan is the only way to make a `ChaosCloud` misbehave: a flat
//! per-request failure probability is
//! `FaultEvent::always(name, FaultKind::TransientBurst { probability })`,
//! and a cloud that is down for the whole run is
//! `FaultEvent::always(name, FaultKind::Outage)`.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unidrive_obs::{FieldValue, Obs};
use unidrive_sim::{Runtime, SimRng};
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

use crate::{CloudError, CloudOp, CloudStore, ObjectInfo};

/// What a scheduled fault does while its window is active.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Each matching request fails transiently with this probability.
    TransientBurst {
        /// Per-request failure probability in `[0, 1]`.
        probability: f64,
    },
    /// The cloud refuses every matching request
    /// ([`CloudError::Unavailable`]).
    Outage,
    /// Uploads fail with [`CloudError::QuotaExceeded`] (zero bytes
    /// available); other operations are unaffected.
    QuotaExhausted,
    /// Matching requests sleep this long before proceeding.
    LatencySpike {
        /// Extra latency added to each matching request.
        extra_ms: u64,
    },
    /// Uploads persist a *prefix* of the payload and then fail
    /// transiently, with this probability — the object exists on the
    /// cloud but holds torn bytes the uploader never acknowledged.
    TornUpload {
        /// Per-upload tear probability in `[0, 1]`.
        probability: f64,
    },
    /// Read-after-write violation: objects written (by anyone) during
    /// the window are invisible to `list`/`download` through this handle
    /// until the window ends — except the handle's *own* writes, which
    /// stay visible (read-your-writes survives; cross-client
    /// read-after-write does not).
    DelayedVisibility,
    /// Rollback: reads through this handle of paths under `prefixes`
    /// see the cloud as it stood when the window opened — objects
    /// written since are absent, overwritten ones show their old body,
    /// deleted ones are still there. Writes go to the live store. The
    /// prefixes are plain path prefixes because this crate does not
    /// know the layout (`unidrive/meta.` names the lock plane's three
    /// files). The window's snapshot is read through the wrapped store
    /// the instant the window opens; a read before it has been taken
    /// sees the live store.
    Rollback {
        /// Path prefixes whose objects are rolled back.
        prefixes: Vec<String>,
    },
}

impl FaultKind {
    /// Stable taxonomy label, matching the `kind` attribute of
    /// the `chaos.fault` instant.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TransientBurst { .. } => "transient",
            FaultKind::Outage => "outage",
            FaultKind::QuotaExhausted => "quota",
            FaultKind::LatencySpike { .. } => "latency",
            FaultKind::TornUpload { .. } => "torn_upload",
            FaultKind::DelayedVisibility => "delayed_visibility",
            FaultKind::Rollback { .. } => "rollback",
        }
    }
}

/// One scheduled fault: a [`FaultKind`] active on one cloud during
/// `[start_ns, end_ns)` of virtual time, optionally restricted to
/// specific operations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Cloud (provider) name the fault applies to.
    pub cloud: String,
    /// Operations affected; empty means all five.
    pub ops: Vec<CloudOp>,
    /// Window start (inclusive), nanoseconds of virtual time.
    pub start_ns: u64,
    /// Window end (exclusive), nanoseconds of virtual time.
    pub end_ns: u64,
    /// What the fault does.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A fault on `cloud` active over the whole run, for all operations.
    pub fn always(cloud: impl Into<String>, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            cloud: cloud.into(),
            ops: Vec::new(),
            start_ns: 0,
            end_ns: u64::MAX,
            kind,
        }
    }

    /// Restricts the window to `[start, end)` seconds of virtual time.
    pub fn window_secs(mut self, start: u64, end: u64) -> FaultEvent {
        self.start_ns = start * 1_000_000_000;
        self.end_ns = end.saturating_mul(1_000_000_000);
        self
    }

    /// Restricts the fault to the given operations.
    pub fn on_ops(mut self, ops: &[CloudOp]) -> FaultEvent {
        self.ops = ops.to_vec();
        self
    }

    /// Whether this fault applies to `op` at virtual time `now_ns`.
    pub fn applies(&self, now_ns: u64, op: CloudOp) -> bool {
        self.start_ns <= now_ns
            && now_ns < self.end_ns
            && (self.ops.is_empty() || self.ops.contains(&op))
    }
}

/// A seeded, serializable schedule of faults.
///
/// The seed drives every probabilistic decision inside [`ChaosCloud`]
/// (via per-handle streams derived with `SimRng::derive`), so a plan
/// fully determines the injected faults of a run — which is what makes
/// schedule minimization (dropping events and replaying) meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic fault decisions.
    pub seed: u64,
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no scheduled faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// A plan with the given events.
    pub fn with_events(seed: u64, events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { seed, events }
    }

    /// Appends a fault event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The plan with event `index` removed (used by schedule
    /// minimization).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn without_event(&self, index: usize) -> FaultPlan {
        let mut events = self.events.clone();
        events.remove(index);
        FaultPlan {
            seed: self.seed,
            events,
        }
    }

    /// Deterministic JSON rendering of the schedule (kind fields are
    /// flattened next to the taxonomy label).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"seed\":");
        out.push_str(&self.seed.to_string());
        out.push_str(",\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"cloud\":\"");
            out.push_str(&escape_json(&e.cloud));
            out.push_str("\",\"ops\":[");
            for (j, op) in e.ops.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(op.as_str());
                out.push('"');
            }
            out.push_str("],\"start_ns\":");
            out.push_str(&e.start_ns.to_string());
            out.push_str(",\"end_ns\":");
            out.push_str(&e.end_ns.to_string());
            out.push_str(",\"kind\":\"");
            out.push_str(e.kind.label());
            out.push('"');
            match &e.kind {
                FaultKind::TransientBurst { probability }
                | FaultKind::TornUpload { probability } => {
                    out.push_str(",\"probability\":");
                    out.push_str(&format!("{probability}"));
                }
                FaultKind::LatencySpike { extra_ms } => {
                    out.push_str(",\"extra_ms\":");
                    out.push_str(&extra_ms.to_string());
                }
                FaultKind::Rollback { prefixes } => {
                    out.push_str(",\"prefixes\":[");
                    for (j, prefix) in prefixes.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push('"');
                        out.push_str(&escape_json(prefix));
                        out.push('"');
                    }
                    out.push(']');
                }
                FaultKind::Outage | FaultKind::QuotaExhausted | FaultKind::DelayedVisibility => {}
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Applies a [`FaultPlan`] to a wrapped [`CloudStore`].
///
/// One `ChaosCloud` is one *client handle* onto one cloud: probabilistic
/// decisions come from a private stream derived from
/// `(plan.seed, cloud name, label salt)`, and delayed-visibility state
/// is tracked per handle (each client has its own view of what it can
/// see). Wrap each device's frontend separately in multi-device
/// experiments, salting with the device name
/// ([`with_label`](ChaosCloud::with_label)).
///
/// Fault gates run in a fixed order before the wrapped operation:
/// latency spike → outage → quota (uploads) →
/// transient roll; torn uploads, delayed visibility and rollback act on
/// the operation itself. Every injection adds one to the `chaos.injected`
/// series labelled by the cloud and traces a `chaos.fault` instant
/// carrying its kind when an [`Obs`] is installed.
pub struct ChaosCloud {
    inner: Arc<dyn CloudStore>,
    rt: Arc<dyn Runtime>,
    events: Vec<FaultEvent>,
    rng: Mutex<SimRng>,
    injected: AtomicU64,
    obs: Mutex<Obs>,
    /// Paths this handle is allowed to see during a delayed-visibility
    /// window: its own writes plus anything it observed before (or
    /// between) windows.
    known: Mutex<HashSet<String>>,
    /// Per event, for a rollback window: the objects under its prefixes
    /// as they stood when it opened, by full path (`None` until taken).
    frozen: Vec<Option<Frozen>>,
}

/// A rollback window's snapshot, filled in by the task that takes it.
type Frozen = Arc<Mutex<Option<BTreeMap<String, Bytes>>>>;

/// `name` inside directory `dir` as a full path.
fn join(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_owned()
    } else {
        format!("{dir}/{name}")
    }
}

/// The objects directly under each of `prefixes` on `store`, by full
/// path; `None` if a listing or a download failed.
fn snapshot(store: &dyn CloudStore, prefixes: &[String]) -> Option<BTreeMap<String, Bytes>> {
    let mut frozen = BTreeMap::new();
    for prefix in prefixes {
        let dir = prefix.rfind('/').map_or("", |i| &prefix[..i]);
        let entries = match store.list(dir) {
            Ok(entries) => entries,
            Err(CloudError::NotFound { .. }) => continue,
            Err(_) => return None,
        };
        for path in entries.iter().filter(|e| !e.is_dir).map(|e| join(dir, &e.name)) {
            if !path.starts_with(prefix.as_str()) {
                continue;
            }
            match store.download(&path) {
                Ok(body) => {
                    frozen.insert(path, body);
                }
                Err(CloudError::NotFound { .. }) => {}
                Err(_) => return None,
            }
        }
    }
    Some(frozen)
}

impl std::fmt::Debug for ChaosCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosCloud")
            .field("inner", &self.inner.name())
            .field("events", &self.events.len())
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

impl ChaosCloud {
    /// Wraps `inner`, applying the events of `plan` addressed to its
    /// cloud name. Sleeps (latency spikes) and window checks use `rt`'s
    /// clock, so pass the simulation runtime for virtual-time schedules.
    pub fn new(inner: Arc<dyn CloudStore>, rt: Arc<dyn Runtime>, plan: &FaultPlan) -> ChaosCloud {
        Self::with_label(inner, rt, plan, "")
    }

    /// Like [`new`](ChaosCloud::new) but salts the handle's random
    /// stream with `salt` (e.g. the device name), so several handles
    /// onto the same cloud make independent — yet still deterministic —
    /// probabilistic decisions.
    pub fn with_label(
        inner: Arc<dyn CloudStore>,
        rt: Arc<dyn Runtime>,
        plan: &FaultPlan,
        salt: &str,
    ) -> ChaosCloud {
        let label = format!("chaos/{}/{}", inner.name(), salt);
        let events: Vec<FaultEvent> = plan
            .events
            .iter()
            .filter(|e| e.cloud == inner.name())
            .cloned()
            .collect();
        // A rollback window's snapshot is taken by a task of its own
        // the instant the window opens, whoever calls this handle then.
        let frozen = events
            .iter()
            .map(|e| {
                let FaultKind::Rollback { prefixes } = &e.kind else { return None };
                let slot = Frozen::default();
                let (rt, store, filled) = (Arc::clone(&rt), Arc::clone(&inner), Arc::clone(&slot));
                let (prefixes, start_ns) = (prefixes.clone(), e.start_ns);
                unidrive_sim::spawn(&Arc::clone(&rt), "chaos-rollback", move || {
                    let now = rt.now().as_nanos();
                    if start_ns > now {
                        rt.sleep(Duration::from_nanos(start_ns - now));
                    }
                    *filled.lock() = snapshot(store.as_ref(), &prefixes);
                });
                Some(slot)
            })
            .collect();
        ChaosCloud {
            inner,
            rt,
            events,
            rng: Mutex::new(SimRng::derive(plan.seed, &label)),
            injected: AtomicU64::new(0),
            obs: Mutex::new(Obs::noop()),
            known: Mutex::new(HashSet::new()),
            frozen,
        }
    }

    /// Installs an observability handle for the injection series and
    /// `chaos.fault` instants.
    pub fn install_obs(&self, obs: Obs) {
        *self.obs.lock() = obs;
    }

    /// Total faults injected through this handle so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Current virtual time; only consulted when the plan has scheduled
    /// events, so handles over empty plans work on any runtime without
    /// touching a clock.
    fn now_ns(&self) -> u64 {
        if self.events.is_empty() {
            0
        } else {
            self.rt.now().as_nanos()
        }
    }

    fn record(&self, op: CloudOp, kind: &'static str) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        let obs = self.obs.lock().clone();
        if obs.is_enabled() {
            let name = self.inner.name();
            obs.series_add("chaos.injected", name, 1);
            obs.instant("chaos.fault", None, || {
                vec![
                    ("cloud", FieldValue::S(name.to_owned())),
                    ("op", FieldValue::S(op.as_str().to_owned())),
                    ("kind", FieldValue::S(kind.to_owned())),
                ]
            });
        }
    }

    /// Runs the pre-operation gates; `payload` is the upload size (for
    /// quota errors).
    fn gate(&self, op: CloudOp, path: &str, payload: u64) -> Result<(), CloudError> {
        let now = self.now_ns();
        // 1. Latency spikes: sleep the largest active extra latency.
        let extra_ms = self
            .events
            .iter()
            .filter(|e| e.applies(now, op))
            .filter_map(|e| match e.kind {
                FaultKind::LatencySpike { extra_ms } => Some(extra_ms),
                _ => None,
            })
            .max();
        if let Some(ms) = extra_ms {
            self.record(op, "latency");
            self.rt.sleep(Duration::from_millis(ms));
        }
        // 2. Outage windows.
        let now = self.now_ns(); // the sleep may have crossed a boundary
        if self
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Outage) && e.applies(now, op))
        {
            self.record(op, "outage");
            return Err(CloudError::unavailable_op(
                self.inner.name().to_owned(),
                op,
                path,
            ));
        }
        // 3. Quota exhaustion (uploads only).
        if op == CloudOp::Upload
            && self
                .events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::QuotaExhausted) && e.applies(now, op))
        {
            self.record(op, "quota");
            return Err(CloudError::QuotaExceeded {
                needed: payload,
                available: 0,
            });
        }
        // 4. Transient failures: overlapping burst windows combine by
        // taking the largest probability.
        let mut p = 0.0f64;
        for e in &self.events {
            if let FaultKind::TransientBurst { probability } = e.kind {
                if e.applies(now, op) {
                    p = p.max(probability);
                }
            }
        }
        if p > 0.0 && self.rng.lock().chance(p) {
            self.record(op, "transient");
            return Err(CloudError::transient_op("injected failure", op, path));
        }
        Ok(())
    }

    /// Whether newly written objects are currently invisible to `op`
    /// through this handle.
    fn visibility_delayed(&self, op: CloudOp) -> bool {
        let now = self.now_ns();
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::DelayedVisibility) && e.applies(now, op))
    }

    fn mark_known(&self, path: &str) {
        self.known.lock().insert(path.to_owned());
    }

    /// The snapshot and prefixes of the first open rollback window
    /// whose snapshot has been taken and whose prefixes `covers` says
    /// hold what `op` reads.
    fn rolled_back(
        &self,
        op: CloudOp,
        covers: impl Fn(&str) -> bool,
    ) -> Option<(BTreeMap<String, Bytes>, &[String])> {
        let now = self.now_ns();
        self.events.iter().zip(&self.frozen).find_map(|(e, frozen)| {
            let FaultKind::Rollback { prefixes } = &e.kind else { return None };
            if !e.applies(now, op) || !prefixes.iter().any(|p| covers(p)) {
                return None;
            }
            let frozen = frozen.as_ref()?.lock().clone()?;
            Some((frozen, prefixes.as_slice()))
        })
    }
}

impl CloudStore for ChaosCloud {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        self.gate(CloudOp::Upload, path, data.len() as u64)?;
        // Torn upload: persist a prefix, then fail. The cloud now holds
        // bytes the uploader never acknowledged — exactly the anomaly
        // integrity checks downstream must surface.
        let now = self.now_ns();
        let tear_p = self
            .events
            .iter()
            .filter(|e| e.applies(now, CloudOp::Upload))
            .filter_map(|e| match e.kind {
                FaultKind::TornUpload { probability } => Some(probability),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        if tear_p > 0.0 && data.len() > 1 && self.rng.lock().chance(tear_p) {
            let prefix = data.slice(..data.len() / 2);
            self.inner.upload(path, prefix)?;
            self.record(CloudOp::Upload, "torn_upload");
            // The torn object exists on the cloud, so this handle can
            // see it even inside a visibility window.
            self.mark_known(path);
            return Err(CloudError::transient_op(
                "torn upload: prefix persisted",
                CloudOp::Upload,
                path,
            ));
        }
        self.inner.upload(path, data)?;
        self.mark_known(path);
        Ok(())
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.gate(CloudOp::Download, path, 0)?;
        if self.visibility_delayed(CloudOp::Download) && !self.known.lock().contains(path) {
            self.record(CloudOp::Download, "delayed_visibility");
            return Err(CloudError::not_found(path));
        }
        let data = self.inner.download(path);
        if let Some((frozen, _)) = self.rolled_back(CloudOp::Download, |p| path.starts_with(p)) {
            let old = match &data {
                Ok(_) | Err(CloudError::NotFound { .. }) => frozen.get(path).cloned(),
                Err(_) => return data,
            };
            if old.as_ref() != data.as_ref().ok() {
                self.record(CloudOp::Download, "rollback");
            }
            return old.ok_or_else(|| CloudError::not_found(path));
        }
        let data = data?;
        if !self.visibility_delayed(CloudOp::Download) {
            self.mark_known(path);
        }
        Ok(data)
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.gate(CloudOp::CreateDir, path, 0)?;
        self.inner.create_dir(path)?;
        self.mark_known(path);
        Ok(())
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        self.gate(CloudOp::List, path, 0)?;
        let entries = self.inner.list(path);
        let dir = format!("{path}/");
        let inside = |prefix: &str| prefix.starts_with(&dir) || path.is_empty() || dir.starts_with(prefix);
        if let Some((frozen, prefixes)) = self.rolled_back(CloudOp::List, inside) {
            let live = match entries {
                Ok(entries) => entries,
                Err(CloudError::NotFound { .. }) => Vec::new(),
                Err(e) => return Err(e),
            };
            let covered = |name: &str| prefixes.iter().any(|p| join(path, name).starts_with(p.as_str()));
            let mut old: Vec<ObjectInfo> = live
                .iter()
                .filter(|e| e.is_dir || !covered(&e.name))
                .cloned()
                .collect();
            old.extend(frozen.iter().filter_map(|(full, body)| {
                let name = if path.is_empty() { full.as_str() } else { full.strip_prefix(&dir)? };
                (!name.contains('/')).then(|| ObjectInfo {
                    name: name.to_owned(),
                    size: body.len() as u64,
                    is_dir: false,
                })
            }));
            old.sort_by(|a, b| a.name.cmp(&b.name));
            if old != live {
                self.record(CloudOp::List, "rollback");
            }
            return Ok(old);
        }
        let entries = entries?;
        if self.visibility_delayed(CloudOp::List) {
            let known = self.known.lock();
            let (kept, hidden): (Vec<ObjectInfo>, Vec<ObjectInfo>) =
                entries.into_iter().partition(|e| {
                    let full = if path.is_empty() {
                        e.name.clone()
                    } else {
                        format!("{path}/{}", e.name)
                    };
                    known.contains(&full)
                });
            drop(known);
            if !hidden.is_empty() {
                self.record(CloudOp::List, "delayed_visibility");
            }
            Ok(kept)
        } else {
            let mut known = self.known.lock();
            for e in &entries {
                let full = if path.is_empty() {
                    e.name.clone()
                } else {
                    format!("{path}/{}", e.name)
                };
                known.insert(full);
            }
            Ok(entries)
        }
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.gate(CloudOp::Delete, path, 0)?;
        self.inner.delete(path)?;
        self.known.lock().remove(path);
        Ok(())
    }

    fn caps(&self) -> crate::CloudCaps {
        let inner = self.inner.caps();
        crate::CloudCaps {
            // A scheduled visibility or rollback window hides fresh
            // objects: read-after-write is off the table for the
            // duration of the plan.
            read_after_write: inner.read_after_write
                && !self.events.iter().any(|e| {
                    matches!(e.kind, FaultKind::DelayedVisibility | FaultKind::Rollback { .. })
                }),
            ..inner
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemCloud;
    use unidrive_sim::SimRuntime;

    fn mem() -> Arc<dyn CloudStore> {
        Arc::new(MemCloud::new("c0"))
    }

    fn sim_rt() -> (Arc<SimRuntime>, Arc<dyn Runtime>) {
        let sim = SimRuntime::new(1);
        let rt = sim.clone().as_runtime();
        (sim, rt)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (_sim, rt) = sim_rt();
        let c = ChaosCloud::new(mem(), rt, &FaultPlan::new(7));
        c.upload("a/x", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(c.download("a/x").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(c.list("a").unwrap().len(), 1);
        c.delete("a/x").unwrap();
        assert_eq!(c.injected_faults(), 0);
    }

    #[test]
    fn an_always_on_burst_is_a_flat_failure_probability() {
        let (_sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(
            11,
            vec![FaultEvent::always("c0", FaultKind::TransientBurst { probability: 0.3 })],
        );
        let c = ChaosCloud::new(mem(), rt, &plan);
        let fails = (0..1000)
            .filter(|_| c.upload("x", Bytes::from_static(b"d")).is_err())
            .count();
        assert!((200..400).contains(&fails), "fails {fails}");
        assert_eq!(c.injected_faults(), fails as u64);
    }

    #[test]
    fn outage_window_is_time_indexed() {
        let (_sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("c0", FaultKind::Outage).window_secs(10, 20)],
        );
        let c = ChaosCloud::new(mem(), Arc::clone(&rt), &plan);
        c.upload("x", Bytes::from_static(b"a")).unwrap();
        rt.sleep(Duration::from_secs(15));
        let err = c.download("x").unwrap_err();
        assert!(matches!(err, CloudError::Unavailable { .. }), "{err}");
        assert_eq!(err.op(), Some(CloudOp::Download));
        rt.sleep(Duration::from_secs(10));
        c.download("x").unwrap();
    }

    #[test]
    fn an_always_on_outage_refuses_every_op() {
        let (_sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(5, vec![FaultEvent::always("c0", FaultKind::Outage)]);
        let c = ChaosCloud::new(mem(), rt, &plan);
        assert!(c.list("").is_err());
        assert!(c.upload("x", Bytes::from_static(b"a")).is_err());
        assert_eq!(c.injected_faults(), 2);
    }

    #[test]
    fn quota_exhaustion_hits_uploads_only() {
        let (_sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("c0", FaultKind::QuotaExhausted)],
        );
        let c = ChaosCloud::new(mem(), rt, &plan);
        let err = c.upload("x", Bytes::from_static(b"abc")).unwrap_err();
        assert!(matches!(
            err,
            CloudError::QuotaExceeded {
                needed: 3,
                available: 0
            }
        ));
        assert!(c.list("").is_ok());
    }

    #[test]
    fn latency_spike_consumes_virtual_time() {
        let (sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("c0", FaultKind::LatencySpike { extra_ms: 250 })],
        );
        let c = ChaosCloud::new(mem(), rt, &plan);
        let t0 = sim.now();
        c.upload("x", Bytes::from_static(b"a")).unwrap();
        assert_eq!((sim.now() - t0).as_secs_f64(), 0.25);
    }

    #[test]
    fn torn_upload_persists_a_prefix_and_fails() {
        let (_sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("c0", FaultKind::TornUpload { probability: 1.0 })],
        );
        let inner: Arc<dyn CloudStore> = Arc::new(MemCloud::new("c0"));
        let c = ChaosCloud::new(Arc::clone(&inner), rt, &plan);
        let err = c
            .upload("seg/block0", Bytes::from_static(b"0123456789"))
            .unwrap_err();
        assert!(err.is_retryable());
        // The cloud holds unacknowledged torn bytes.
        let torn = inner.download("seg/block0").unwrap();
        assert_eq!(torn, Bytes::from_static(b"01234"));
        assert_eq!(c.injected_faults(), 1);
    }

    #[test]
    fn delayed_visibility_hides_foreign_writes_but_not_own() {
        let (_sim, rt) = sim_rt();
        let backing: Arc<dyn CloudStore> = Arc::new(MemCloud::new("c0"));
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("c0", FaultKind::DelayedVisibility)],
        );
        let a = ChaosCloud::with_label(Arc::clone(&backing), Arc::clone(&rt), &plan, "dev-a");
        let b = ChaosCloud::with_label(Arc::clone(&backing), rt, &plan, "dev-b");
        a.upload("locks/lock_a", Bytes::from_static(b"a")).unwrap();
        // Read-your-writes: the writer sees its own lock file…
        assert_eq!(a.list("locks").unwrap().len(), 1);
        assert!(a.download("locks/lock_a").is_ok());
        // …but the other handle observes an empty directory.
        assert_eq!(b.list("locks").unwrap().len(), 0);
        assert!(matches!(
            b.download("locks/lock_a").unwrap_err(),
            CloudError::NotFound { .. }
        ));
        assert!(b.injected_faults() >= 1);
    }

    #[test]
    fn delayed_visibility_window_ends() {
        let (_sim, rt) = sim_rt();
        let backing: Arc<dyn CloudStore> = Arc::new(MemCloud::new("c0"));
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("c0", FaultKind::DelayedVisibility).window_secs(0, 10)],
        );
        let a = ChaosCloud::with_label(Arc::clone(&backing), Arc::clone(&rt), &plan, "a");
        let b = ChaosCloud::with_label(backing, Arc::clone(&rt), &plan, "b");
        a.upload("f", Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.list("").unwrap().len(), 0);
        rt.sleep(Duration::from_secs(11));
        assert_eq!(b.list("").unwrap().len(), 1);
        assert!(b.download("f").is_ok());
    }

    /// A rollback window opened at 10 s: what the handle wrote, created
    /// and deleted since is invisible to its reads under the prefixes,
    /// and nothing else is.
    #[test]
    fn a_rollback_window_reads_the_cloud_as_it_stood_when_it_opened() {
        let (_sim, rt) = sim_rt();
        let backing: Arc<dyn CloudStore> = Arc::new(MemCloud::new("c0"));
        let prefixes = vec!["u/meta.".to_owned(), "u/log/".to_owned()];
        let rollback = FaultEvent::always("c0", FaultKind::Rollback { prefixes }).window_secs(10, 20);
        let c = ChaosCloud::new(Arc::clone(&backing), Arc::clone(&rt), &FaultPlan::with_events(3, vec![rollback]));
        let (old, new) = (Bytes::from_static(b"old"), Bytes::from_static(b"new!"));
        for path in ["u/meta.version", "u/log/op1", "u/blocks/b"] {
            c.upload(path, old.clone()).unwrap();
        }
        rt.sleep(Duration::from_secs(11));
        c.upload("u/meta.version", new.clone()).unwrap();
        c.upload("u/log/op2", new.clone()).unwrap();
        c.delete("u/log/op1").unwrap();
        c.upload("u/blocks/b", new.clone()).unwrap();
        assert_eq!(backing.download("u/meta.version").unwrap(), new, "a write passes through");
        assert_eq!(c.download("u/meta.version").unwrap(), old, "an overwritten object shows its old body");
        assert!(matches!(c.download("u/log/op2").unwrap_err(), CloudError::NotFound { .. }), "a new object is absent");
        assert_eq!(c.download("u/log/op1").unwrap(), old, "a deleted object is still there");
        let names = |dir: &str| -> Vec<(String, u64)> {
            c.list(dir).unwrap().into_iter().map(|e| (e.name, e.size)).collect()
        };
        assert_eq!(names("u/log"), [("op1".to_owned(), 3)]);
        assert_eq!(names("u"), [("blocks".to_owned(), 0), ("log".to_owned(), 0), ("meta.version".to_owned(), 3)]);
        assert_eq!(c.download("u/blocks/b").unwrap(), new, "a path outside the prefixes is untouched");
        assert_eq!(c.injected_faults(), 5);
        rt.sleep(Duration::from_secs(10));
        assert_eq!(c.download("u/meta.version").unwrap(), new, "the window closed");
        assert_eq!(names("u/log"), [("op2".to_owned(), 4)]);
    }

    #[test]
    fn same_seed_injects_identically() {
        for _ in 0..2 {
            let run = |seed: u64| -> Vec<bool> {
                let (_sim, rt) = sim_rt();
                let plan = FaultPlan::with_events(
                    seed,
                    vec![FaultEvent::always(
                        "c0",
                        FaultKind::TransientBurst { probability: 0.5 },
                    )],
                );
                let c = ChaosCloud::new(mem(), rt, &plan);
                (0..64)
                    .map(|i| c.upload(&format!("f{i}"), Bytes::from_static(b"x")).is_ok())
                    .collect()
            };
            assert_eq!(run(9), run(9));
            assert_ne!(run(9), run(10));
        }
    }

    #[test]
    fn injections_emit_obs_events_and_counters() {
        use unidrive_obs::Registry;
        let (_sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("c0", FaultKind::Outage)],
        );
        let c = ChaosCloud::new(mem(), rt, &plan);
        let obs = Obs::with_registry(Registry::new());
        c.install_obs(obs.clone());
        let _ = c.upload("x", Bytes::from_static(b"a"));
        let injected = obs.series_snapshot().unwrap();
        assert_eq!(injected.entry("chaos.injected", "c0").unwrap().merged().sum, 1);
        // The fault's kind rides on its instant.
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.span_count("chaos.fault"), 1);
        let fault = snap.spans.iter().find(|s| s.name == "chaos.fault").unwrap();
        assert_eq!(fault.attr("kind"), Some(&unidrive_obs::FieldValue::S("outage".into())));
    }

    #[test]
    fn plan_json_is_deterministic_and_complete() {
        let plan = FaultPlan::with_events(
            42,
            vec![
                FaultEvent::always("a", FaultKind::TransientBurst { probability: 0.5 })
                    .window_secs(1, 2)
                    .on_ops(&[CloudOp::Upload, CloudOp::List]),
                FaultEvent::always("b", FaultKind::LatencySpike { extra_ms: 30 }),
                FaultEvent::always("c", FaultKind::DelayedVisibility),
            ],
        );
        let json = plan.to_json();
        assert_eq!(json, plan.to_json());
        assert_eq!(
            json,
            concat!(
                "{\"seed\":42,\"events\":[",
                "{\"cloud\":\"a\",\"ops\":[\"upload\",\"list\"],\"start_ns\":1000000000,",
                "\"end_ns\":2000000000,\"kind\":\"transient\",\"probability\":0.5},",
                "{\"cloud\":\"b\",\"ops\":[],\"start_ns\":0,\"end_ns\":18446744073709551615,",
                "\"kind\":\"latency\",\"extra_ms\":30},",
                "{\"cloud\":\"c\",\"ops\":[],\"start_ns\":0,\"end_ns\":18446744073709551615,",
                "\"kind\":\"delayed_visibility\"}]}"
            )
        );
        let smaller = plan.without_event(1);
        assert_eq!(smaller.events.len(), 2);
        assert_eq!(smaller.events[1].cloud, "c");
    }

    #[test]
    fn events_for_other_clouds_are_ignored() {
        let (_sim, rt) = sim_rt();
        let plan = FaultPlan::with_events(
            3,
            vec![FaultEvent::always("other", FaultKind::Outage)],
        );
        let c = ChaosCloud::new(mem(), rt, &plan);
        c.upload("x", Bytes::from_static(b"a")).unwrap();
        assert_eq!(c.injected_faults(), 0);
    }
}
