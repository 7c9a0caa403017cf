//! Decorators the benchmark wraps around the product's `CloudStore` and
//! `SyncFolder` traits. With recording off they are a count-only meter
//! (relaxed atomic adds, no clock reads); with recording on each call
//! also leaves a [`Span`] in the shared [`Tracer`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use unidrive_cloud::{CloudCaps, CloudError, CloudStore, ObjectInfo};
use unidrive_core::{FolderError, LocalStat, MemFolder, SyncFolder};
use unidrive_meta::{BLOCKS_DIR, LOCK_DIR, OPLOG_DIR, ROOT_DIR};
use unidrive_sim::Runtime;
use unidrive_util::bytes::Bytes;

/// What a span measures. The first six are the `CloudStore` calls, in
/// the order of `Counts::ops`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Upload,
    Download,
    List,
    Delete,
    CreateDir,
    Append,
    Scan,
    Read,
    Write,
    Remove,
    /// One `UniDriveClient::sync_once` call.
    Pass,
    /// One device's share of a round phase (see [`Phase`]).
    Phase,
    Round,
}

impl Kind {
    pub const CLOUD_OPS: [Kind; 6] = [
        Kind::Upload,
        Kind::Download,
        Kind::List,
        Kind::Delete,
        Kind::CreateDir,
        Kind::Append,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Upload => "upload",
            Kind::Download => "download",
            Kind::List => "list",
            Kind::Delete => "delete",
            Kind::CreateDir => "create_dir",
            Kind::Append => "append",
            Kind::Scan => "folder.scan",
            Kind::Read => "folder.read",
            Kind::Write => "folder.write",
            Kind::Remove => "folder.remove",
            Kind::Pass => "sync_once",
            Kind::Phase => "phase",
            Kind::Round => "round",
        }
    }

    pub fn is_cloud(self) -> bool {
        self <= Kind::Append
    }

    pub fn is_folder(self) -> bool {
        matches!(self, Kind::Scan | Kind::Read | Kind::Write | Kind::Remove)
    }
}

/// Which part of the remote layout a cloud call touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Blocks,
    Lock,
    /// `meta.base`, `meta.delta`, `meta.version`.
    Meta,
    Oplog,
    Other,
}

impl Class {
    pub const COUNT: usize = 5;

    pub fn of(path: &str) -> Class {
        if path.starts_with(BLOCKS_DIR) {
            Class::Blocks
        } else if path.starts_with(LOCK_DIR) {
            Class::Lock
        } else if path.starts_with(OPLOG_DIR) {
            Class::Oplog
        } else if path.starts_with(ROOT_DIR) && path[ROOT_DIR.len()..].starts_with("/meta.") {
            Class::Meta
        } else {
            Class::Other
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Class::Blocks => "blocks",
            Class::Lock => "lock",
            Class::Meta => "meta",
            Class::Oplog => "oplog",
            Class::Other => "other",
        }
    }
}

/// The three parts of a round (see `run::run_round`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Up,
    Down,
    Settle,
}

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::Up => "up",
            Phase::Down => "down",
            Phase::Settle => "settle",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub kind: Kind,
    pub device: u8,
    /// Cloud index for cloud calls, 0 otherwise.
    pub cloud: u8,
    pub class: Class,
    pub phase: Option<Phase>,
    pub ok: bool,
    /// The calling OS thread (small integer, stable per thread).
    pub thread: u32,
    /// The `sync_once` call this span happened under; 0 = between passes
    /// (detached reliability uploads).
    pub pass: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
    /// Whether the call wrote the plane's base image (a compaction).
    pub base_write: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Relaxed);
    }
    INDEX.with(|i| *i)
}

/// The span sink of one run, on the workload's own clock.
pub struct Tracer {
    rt: Arc<dyn Runtime>,
    recording: AtomicBool,
    round: AtomicU32,
    next_pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(rt: Arc<dyn Runtime>) -> Arc<Tracer> {
        Arc::new(Tracer {
            rt,
            recording: AtomicBool::new(false),
            round: AtomicU32::new(0),
            next_pass: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.rt.now().as_nanos()
    }

    pub fn set_round(&self, round: u32, recording: bool) {
        self.round.store(round, Relaxed);
        self.recording.store(recording, Relaxed);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Monotonic counters of one device's cloud calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls by `Kind::CLOUD_OPS` position.
    pub ops: [u64; 6],
    pub errors: u64,
    pub bytes_up: u64,
    pub bytes_down: u64,
    pub class_bytes: [u64; Class::COUNT],
}

impl Counts {
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    pub fn wire_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    fn combine(&self, other: &Counts, f: fn(u64, u64) -> u64) -> Counts {
        Counts {
            ops: std::array::from_fn(|i| f(self.ops[i], other.ops[i])),
            errors: f(self.errors, other.errors),
            bytes_up: f(self.bytes_up, other.bytes_up),
            bytes_down: f(self.bytes_down, other.bytes_down),
            class_bytes: std::array::from_fn(|i| f(self.class_bytes[i], other.class_bytes[i])),
        }
    }

    pub fn minus(&self, earlier: &Counts) -> Counts {
        self.combine(earlier, |a, b| a - b)
    }

    pub fn plus(&self, other: &Counts) -> Counts {
        self.combine(other, |a, b| a + b)
    }
}

/// One device's meter: shared by its five cloud decorators and its
/// folder decorator.
pub struct DeviceMeter {
    pub device: u8,
    tracer: Arc<Tracer>,
    /// Id of the `sync_once` call in progress, 0 between passes.
    pass: AtomicU32,
    phase: AtomicU32,
    inflight: AtomicI64,
    ops: [AtomicU64; 6],
    errors: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
    class_bytes: [AtomicU64; Class::COUNT],
}

impl DeviceMeter {
    pub fn new(device: u8, tracer: Arc<Tracer>) -> Arc<DeviceMeter> {
        Arc::new(DeviceMeter {
            device,
            tracer,
            pass: AtomicU32::new(0),
            phase: AtomicU32::new(0),
            inflight: AtomicI64::new(0),
            ops: Default::default(),
            errors: AtomicU64::new(0),
            bytes_up: AtomicU64::new(0),
            bytes_down: AtomicU64::new(0),
            class_bytes: Default::default(),
        })
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    pub fn counts(&self) -> Counts {
        Counts {
            ops: std::array::from_fn(|i| self.ops[i].load(Relaxed)),
            errors: self.errors.load(Relaxed),
            bytes_up: self.bytes_up.load(Relaxed),
            bytes_down: self.bytes_down.load(Relaxed),
            class_bytes: std::array::from_fn(|i| self.class_bytes[i].load(Relaxed)),
        }
    }

    /// Cloud calls of this device in flight right now.
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Relaxed)
    }

    pub fn set_phase(&self, phase: Option<Phase>) {
        self.phase.store(phase.map_or(0, |p| p as u32 + 1), Relaxed);
    }

    fn phase(&self) -> Option<Phase> {
        match self.phase.load(Relaxed) {
            1 => Some(Phase::Up),
            2 => Some(Phase::Down),
            3 => Some(Phase::Settle),
            _ => None,
        }
    }

    /// Opens the span of one `sync_once` call; close it with
    /// [`end_pass`](Self::end_pass).
    pub fn begin_pass(&self) -> (u32, u64) {
        let id = self.tracer.next_pass.fetch_add(1, Relaxed);
        self.pass.store(id, Relaxed);
        let start = if self.tracer.recording() {
            self.tracer.now_ns()
        } else {
            0
        };
        (id, start)
    }

    pub fn end_pass(&self, (id, start_ns): (u32, u64)) {
        self.pass.store(0, Relaxed);
        self.record(Kind::Pass, id, start_ns);
    }

    /// Records a driver-side span (round, phase, pass) of this device
    /// that started at `start_ns`, if the round is being traced.
    pub fn record(&self, kind: Kind, pass: u32, start_ns: u64) {
        if self.tracer.recording() {
            self.tracer.push(Span {
                pass,
                ..self.span(kind, start_ns)
            });
        }
    }

    /// A span of this device's `kind` call that started at `start_ns`
    /// and ends now; the caller fills in what the call itself knows.
    fn span(&self, kind: Kind, start_ns: u64) -> Span {
        Span {
            kind,
            device: self.device,
            cloud: 0,
            class: Class::Other,
            phase: self.phase(),
            ok: true,
            thread: thread_index(),
            pass: self.pass.load(Relaxed),
            round: self.tracer.round.load(Relaxed),
            start_ns,
            end_ns: self.tracer.now_ns(),
            bytes: 0,
            base_write: false,
        }
    }
}

/// Whether `path` holds a plane's full image, whose rewrite is a
/// compaction (`meta.base` on the lock plane, `oplog/base` on the oplog
/// plane).
fn is_base_path(path: &str) -> bool {
    path == unidrive_meta::BASE_PATH || path == unidrive_meta::OPLOG_BASE_PATH
}

/// `CloudStore` decorator feeding a [`DeviceMeter`].
pub struct MeteredCloud {
    inner: Arc<dyn CloudStore>,
    meter: Arc<DeviceMeter>,
    cloud: u8,
}

impl MeteredCloud {
    pub fn wrap(
        inner: Arc<dyn CloudStore>,
        meter: &Arc<DeviceMeter>,
        cloud: usize,
    ) -> Arc<dyn CloudStore> {
        Arc::new(MeteredCloud {
            inner,
            meter: Arc::clone(meter),
            cloud: cloud as u8,
        })
    }

    fn call<T>(
        &self,
        kind: Kind,
        path: &str,
        bytes_up: u64,
        op: impl FnOnce() -> Result<T, CloudError>,
        bytes_down: impl FnOnce(&T) -> u64,
    ) -> Result<T, CloudError> {
        let m = &self.meter;
        let class = Class::of(path);
        let base_write = bytes_up > 0 && is_base_path(path);
        m.ops[kind as usize].fetch_add(1, Relaxed);
        let recording = m.tracer.recording();
        let start_ns = if recording { m.tracer.now_ns() } else { 0 };
        m.inflight.fetch_add(1, Relaxed);
        let result = op();
        m.inflight.fetch_sub(1, Relaxed);
        // A missing object is an answer, not a failed call.
        let ok = matches!(&result, Ok(_) | Err(CloudError::NotFound { .. }));
        let bytes = bytes_up + result.as_ref().map_or(0, bytes_down);
        m.bytes_up.fetch_add(bytes_up, Relaxed);
        m.bytes_down.fetch_add(bytes - bytes_up, Relaxed);
        m.class_bytes[class as usize].fetch_add(bytes, Relaxed);
        if !ok {
            m.errors.fetch_add(1, Relaxed);
        }
        if recording {
            m.tracer.push(Span {
                cloud: self.cloud,
                class,
                ok,
                bytes,
                base_write,
                ..m.span(kind, start_ns)
            });
        }
        result
    }
}

impl CloudStore for MeteredCloud {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        let len = data.len() as u64;
        self.call(
            Kind::Upload,
            path,
            len,
            || self.inner.upload(path, data),
            |_| 0,
        )
    }

    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.call(
            Kind::Download,
            path,
            0,
            || self.inner.download(path),
            |b| b.len() as u64,
        )
    }

    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.call(
            Kind::CreateDir,
            path,
            0,
            || self.inner.create_dir(path),
            |_| 0,
        )
    }

    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        self.call(Kind::List, path, 0, || self.inner.list(path), |_| 0)
    }

    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.call(Kind::Delete, path, 0, || self.inner.delete(path), |_| 0)
    }

    fn append(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        let len = data.len() as u64;
        self.call(
            Kind::Append,
            path,
            len,
            || self.inner.append(path, data),
            |_| 0,
        )
    }

    fn caps(&self) -> CloudCaps {
        self.inner.caps()
    }
}

/// `SyncFolder` decorator over the device's in-memory folder. The
/// driver edits the inner folder directly, so only the client's own
/// calls are metered.
pub struct MeteredFolder {
    inner: Arc<MemFolder>,
    meter: Arc<DeviceMeter>,
}

impl MeteredFolder {
    pub fn wrap(inner: &Arc<MemFolder>, meter: &Arc<DeviceMeter>) -> Arc<dyn SyncFolder> {
        Arc::new(MeteredFolder {
            inner: Arc::clone(inner),
            meter: Arc::clone(meter),
        })
    }

    fn call<T>(
        &self,
        kind: Kind,
        op: impl FnOnce() -> Result<T, FolderError>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> Result<T, FolderError> {
        let m = &self.meter;
        if !m.tracer.recording() {
            return op();
        }
        let start_ns = m.tracer.now_ns();
        let result = op();
        let n = result.as_ref().map_or(0, bytes);
        m.tracer.push(Span {
            ok: result.is_ok(),
            bytes: n,
            ..m.span(kind, start_ns)
        });
        result
    }
}

impl SyncFolder for MeteredFolder {
    fn scan(&self) -> Result<BTreeMap<String, LocalStat>, FolderError> {
        self.call(Kind::Scan, || self.inner.scan(), |m| m.len() as u64)
    }

    fn read(&self, path: &str) -> Result<Bytes, FolderError> {
        self.call(Kind::Read, || self.inner.read(path), |b| b.len() as u64)
    }

    fn write(&self, path: &str, data: &[u8], mtime_ns: u64) -> Result<(), FolderError> {
        self.call(
            Kind::Write,
            || self.inner.write(path, data, mtime_ns),
            |_| data.len() as u64,
        )
    }

    fn remove(&self, path: &str) -> Result<(), FolderError> {
        self.call(Kind::Remove, || self.inner.remove(path), |_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_classed_by_remote_layout() {
        assert_eq!(
            Class::of(&unidrive_meta::lock_file_path("a", 1)),
            Class::Lock
        );
        assert_eq!(Class::of(unidrive_meta::BASE_PATH), Class::Meta);
        assert_eq!(Class::of(unidrive_meta::VERSION_PATH), Class::Meta);
        assert_eq!(Class::of(unidrive_meta::OPLOG_BASE_PATH), Class::Oplog);
        assert_eq!(Class::of(&unidrive_meta::op_file_path("a")), Class::Oplog);
        assert_eq!(Class::of(&format!("{BLOCKS_DIR}/ab/cd")), Class::Blocks);
        assert_eq!(Class::of("unidrive"), Class::Other);
    }
}
