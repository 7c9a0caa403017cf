//! An in-process S3-compatible object-store server for tests and CI.
//!
//! `MockS3` binds an ephemeral loopback port, accepts keep-alive
//! HTTP/1.1 connections on a background thread, and serves a single
//! bucket backed by a [`MemCloud`] — so directory semantics, NotFound
//! behavior, and recursive delete match the in-memory reference
//! backend exactly (the way MinIO's filesystem backend mirrors a real
//! directory tree). The wire surface is the subset of the S3 REST API
//! that [`S3Cloud`](crate::S3Cloud) speaks:
//!
//! | request                                   | meaning            |
//! |-------------------------------------------|--------------------|
//! | `PUT /{bucket}/{key}`                     | upload object      |
//! | `PUT /{bucket}/{key}/`                    | create directory   |
//! | `GET /{bucket}/{key}`                     | download object    |
//! | `DELETE /{bucket}/{key}`                  | delete object/dir  |
//! | `GET /{bucket}?list-type=2&prefix=&delimiter=%2F` | list one level |
//!
//! The wire dialect follows real S3, so passing the conformance suite
//! over this server certifies behavior a real endpoint would also
//! show: listings carry the `xmlns` attribute on `ListBucketResult`,
//! pages are capped at [`set_page_size`](MockS3::set_page_size) keys
//! (default 1000, like S3) and chained with
//! `IsTruncated`/`NextContinuationToken`, `DELETE` of a missing key
//! answers 204, and listing a prefix that was never created answers an
//! empty listing — the idempotent not-found dialect `S3Cloud` declares
//! via `CloudCaps::strict_not_found = false`.
//!
//! Fault hooks — [`fail_next`](MockS3::fail_next) and
//! [`throttle_next`](MockS3::throttle_next) — make the next N requests
//! fail with 500/503 (throttling adds `Retry-After: 0`), letting
//! integration tests drive the retry path over real sockets with a
//! seeded, deterministic fault budget. Responses whose body is at
//! least [`CHUNK_THRESHOLD`] bytes go out chunked, so both of the
//! client's body decoders are exercised.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{
    percent_decode, read_request, write_response, HttpRequest, HttpResponse,
};
use crate::{CloudError, CloudStore, MemCloud};

/// Idle poll interval while waiting for the next request on a
/// keep-alive connection; bounds shutdown latency.
const IDLE_POLL: Duration = Duration::from_millis(25);
/// Read timeout once a request has started arriving.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Response bodies at or above this many bytes are sent with chunked
/// transfer-encoding; smaller ones carry a `Content-Length`.
const CHUNK_THRESHOLD: usize = 64 * 1024;

/// Shared fault-injection and accounting state.
struct Hooks {
    fail_500: AtomicU32,
    fail_503: AtomicU32,
    throttle: AtomicU32,
    requests: AtomicU64,
    faults_injected: AtomicU64,
    /// Maximum keys per listing page (real S3: 1000).
    page_size: AtomicUsize,
}

/// An in-process S3-compatible server on an ephemeral loopback port.
pub struct MockS3 {
    addr: SocketAddr,
    store: Arc<MemCloud>,
    hooks: Arc<Hooks>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for MockS3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MockS3")
            .field("addr", &self.addr)
            .field("requests", &self.hooks.requests.load(Ordering::Relaxed))
            .finish()
    }
}

impl MockS3 {
    /// Boots a server on `127.0.0.1:0` (ephemeral port) and returns
    /// once it is accepting connections.
    pub fn start() -> io::Result<MockS3> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let store = Arc::new(MemCloud::new("mock-s3"));
        let hooks = Arc::new(Hooks {
            fail_500: AtomicU32::new(0),
            fail_503: AtomicU32::new(0),
            throttle: AtomicU32::new(0),
            requests: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            page_size: AtomicUsize::new(1000),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let store = Arc::clone(&store);
            let hooks = Arc::clone(&hooks);
            let stop = Arc::clone(&stop);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("mock-s3-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let store = Arc::clone(&store);
                        let hooks = Arc::clone(&hooks);
                        let stop2 = Arc::clone(&stop);
                        let handle = std::thread::Builder::new()
                            .name("mock-s3-conn".into())
                            .spawn(move || serve_connection(stream, &store, &hooks, &stop2))
                            .expect("spawn mock-s3 connection thread");
                        conn_threads.lock().unwrap().push(handle);
                    }
                })?
        };
        Ok(MockS3 {
            addr,
            store,
            hooks,
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The server's `host:port` endpoint string.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The backing in-memory store (for white-box assertions).
    pub fn store(&self) -> &Arc<MemCloud> {
        &self.store
    }

    /// Makes the next `count` requests fail with `status` (500 or 503)
    /// before touching the store.
    pub fn fail_next(&self, status: u16, count: u32) {
        match status {
            500 => self.hooks.fail_500.fetch_add(count, Ordering::SeqCst),
            503 => self.hooks.fail_503.fetch_add(count, Ordering::SeqCst),
            other => panic!("MockS3::fail_next supports 500 and 503, got {other}"),
        };
    }

    /// Makes the next `count` requests fail with a throttling 503
    /// carrying `Retry-After: 0`.
    pub fn throttle_next(&self, count: u32) {
        self.hooks.throttle.fetch_add(count, Ordering::SeqCst);
    }

    /// Caps listing pages at `keys` entries (default 1000, mirroring
    /// real S3): larger listings are chained with `IsTruncated` and
    /// `NextContinuationToken`. Tests set a small value so the
    /// client's pagination path is exercised on small directories.
    pub fn set_page_size(&self, keys: usize) {
        assert!(keys > 0, "page size must be positive");
        self.hooks.page_size.store(keys, Ordering::SeqCst);
    }

    /// Total requests served (including injected failures).
    pub fn requests(&self) -> u64 {
        self.hooks.requests.load(Ordering::SeqCst)
    }

    /// Total injected 500/503/throttle responses actually served.
    pub fn faults_injected(&self) -> u64 {
        self.hooks.faults_injected.load(Ordering::SeqCst)
    }
}

impl Drop for MockS3 {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Kick the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conn_threads.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Serves one keep-alive connection until EOF, error, or shutdown.
fn serve_connection(stream: TcpStream, store: &MemCloud, hooks: &Hooks, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let mut reader = std::io::BufReader::new(stream);
    loop {
        // Poll for the first byte of the next request so shutdown is
        // prompt even while a client holds the connection idle.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
        match reader.get_ref().peek(&mut [0u8; 1]) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
                continue
            }
            Err(_) => return,
        }
        let _ = reader.get_ref().set_read_timeout(Some(REQUEST_TIMEOUT));
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(_) => {
                let resp = error_response(400, "Bad Request", "MalformedRequest");
                let _ = send(reader.get_mut(), &resp, usize::MAX);
                return;
            }
        };
        hooks.requests.fetch_add(1, Ordering::SeqCst);
        let resp = match injected_fault(hooks) {
            Some(resp) => resp,
            None => handle(&req, store, hooks),
        };
        if send(reader.get_mut(), &resp, CHUNK_THRESHOLD).is_err() {
            return;
        }
    }
}

fn send(stream: &mut TcpStream, resp: &HttpResponse, chunk_threshold: usize) -> io::Result<()> {
    let chunked = resp.body.len() >= chunk_threshold;
    // Buffer the frame writes: chunked encoding emits three small
    // writes per 16 KiB frame, and with TCP_NODELAY each unbuffered
    // write becomes its own segment — an order of magnitude off on
    // large downloads.
    let mut w = io::BufWriter::with_capacity(64 * 1024, stream);
    write_response(&mut w, resp, chunked)?;
    w.flush()
}

/// Takes one pending injected fault, if any (500 first, then 503,
/// then throttle — tests arm one kind at a time).
fn injected_fault(hooks: &Hooks) -> Option<HttpResponse> {
    if take_one(&hooks.fail_500) {
        hooks.faults_injected.fetch_add(1, Ordering::SeqCst);
        return Some(error_response(500, "Internal Server Error", "InternalError"));
    }
    if take_one(&hooks.fail_503) {
        hooks.faults_injected.fetch_add(1, Ordering::SeqCst);
        return Some(error_response(503, "Service Unavailable", "ServiceUnavailable"));
    }
    if take_one(&hooks.throttle) {
        hooks.faults_injected.fetch_add(1, Ordering::SeqCst);
        return Some(
            error_response(503, "Slow Down", "SlowDown").header("Retry-After", "0"),
        );
    }
    None
}

/// Atomically decrements `counter` if positive.
fn take_one(counter: &AtomicU32) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

fn error_response(status: u16, reason: &str, code: &str) -> HttpResponse {
    let body = format!("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Error><Code>{code}</Code></Error>");
    HttpResponse::new(status, reason)
        .header("Content-Type", "application/xml")
        .body(body.into_bytes())
}

fn store_error(e: &CloudError) -> HttpResponse {
    match e {
        CloudError::NotFound { .. } => error_response(404, "Not Found", "NoSuchKey"),
        CloudError::InvalidPath { .. } => error_response(400, "Bad Request", "InvalidRequest"),
        CloudError::QuotaExceeded { .. } => {
            error_response(507, "Insufficient Storage", "QuotaExceeded")
        }
        _ => error_response(500, "Internal Server Error", "InternalError"),
    }
}

/// Routes one request against the backing store.
fn handle(req: &HttpRequest, store: &MemCloud, hooks: &Hooks) -> HttpResponse {
    let (raw_path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.target.as_str(), None),
    };
    let path = percent_decode(raw_path);
    let Some(stripped) = path.strip_prefix('/') else {
        return error_response(400, "Bad Request", "InvalidURI");
    };
    // Single-bucket server: the first segment names the bucket and is
    // otherwise ignored; the rest is the object key.
    let (bucket, key) = match stripped.split_once('/') {
        Some((b, k)) => (b, k),
        None => (stripped, ""),
    };
    if bucket.is_empty() {
        return error_response(400, "Bad Request", "InvalidBucketName");
    }
    match (req.method.as_str(), key, query) {
        // GET on the bucket itself is a listing (the only bucket-level
        // operation this dialect speaks).
        ("GET", "", q) => list_objects(store, q.unwrap_or(""), hooks.page_size.load(Ordering::SeqCst)),
        ("PUT", _, _) if key.ends_with('/') => {
            match store.create_dir(key.trim_end_matches('/')) {
                Ok(()) => HttpResponse::new(200, "OK"),
                Err(e) => store_error(&e),
            }
        }
        ("PUT", _, _) => match store.upload(key, req.body.clone()) {
            Ok(()) => HttpResponse::new(200, "OK"),
            Err(e) => store_error(&e),
        },
        ("GET", _, _) => match store.download(key) {
            Ok(data) => HttpResponse::new(200, "OK")
                .header("Content-Type", "application/octet-stream")
                .body(data),
            Err(e) => store_error(&e),
        },
        // Real S3 dialect: deleting a missing key succeeds with 204.
        ("DELETE", _, _) => match store.delete(key) {
            Ok(()) | Err(CloudError::NotFound { .. }) => HttpResponse::new(204, "No Content"),
            Err(e) => store_error(&e),
        },
        _ => error_response(405, "Method Not Allowed", "MethodNotAllowed"),
    }
}

fn is_list(query: &str) -> bool {
    query.split('&').any(|kv| kv == "list-type=2")
}

/// Serves `GET /{bucket}?list-type=2&prefix=...&delimiter=%2F` from
/// the backing store's one-level listing, paginated at `page_size`
/// keys per response with an S3-style continuation chain.
fn list_objects(store: &MemCloud, query: &str, page_size: usize) -> HttpResponse {
    if !is_list(query) {
        return error_response(400, "Bad Request", "InvalidRequest");
    }
    let mut prefix = String::new();
    let mut token: Option<String> = None;
    for kv in query.split('&') {
        if let Some((k, v)) = kv.split_once('=') {
            match k {
                "prefix" => prefix = percent_decode(v),
                "continuation-token" => token = Some(percent_decode(v)),
                _ => {}
            }
        }
    }
    let dir = prefix.trim_end_matches('/');
    // Real S3 dialect: a prefix nothing was ever stored under is an
    // empty listing, not an error.
    let mut entries = match store.list(dir) {
        Ok(entries) => entries,
        Err(CloudError::NotFound { .. }) => Vec::new(),
        Err(e) => return store_error(&e),
    };
    // Stable lexicographic order (S3's contract) so index-based
    // continuation tokens stay consistent across pages.
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    // The token is opaque to clients; here it encodes the next start
    // index into the sorted listing.
    let start = match token {
        None => 0,
        Some(t) => match t.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return error_response(400, "Bad Request", "InvalidArgument"),
        },
    };
    let end = entries.len().min(start.saturating_add(page_size));
    let page = entries.get(start..end).unwrap_or(&[]);
    let key_prefix = if dir.is_empty() {
        String::new()
    } else {
        format!("{dir}/")
    };
    let mut xml = String::from(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
         <ListBucketResult xmlns=\"http://s3.amazonaws.com/doc/2006-03-01/\">",
    );
    xml.push_str(&format!("<Prefix>{}</Prefix>", xml_escape(&prefix)));
    xml.push_str(&format!("<KeyCount>{}</KeyCount>", page.len()));
    for entry in page {
        if entry.is_dir {
            xml.push_str(&format!(
                "<CommonPrefixes><Prefix>{}{}/</Prefix></CommonPrefixes>",
                xml_escape(&key_prefix),
                xml_escape(&entry.name)
            ));
        } else {
            xml.push_str(&format!(
                "<Contents><Key>{}{}</Key><Size>{}</Size></Contents>",
                xml_escape(&key_prefix),
                xml_escape(&entry.name),
                entry.size
            ));
        }
    }
    if end < entries.len() {
        xml.push_str(&format!(
            "<IsTruncated>true</IsTruncated><NextContinuationToken>{end}</NextContinuationToken>"
        ));
    } else {
        xml.push_str("<IsTruncated>false</IsTruncated>");
    }
    xml.push_str("</ListBucketResult>");
    HttpResponse::new(200, "OK")
        .header("Content-Type", "application/xml")
        .body(xml.into_bytes())
}

/// Escapes the five XML special characters.
pub fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`xml_escape`].
pub fn xml_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('&') {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let known = [
            ("&amp;", '&'),
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ];
        match known.iter().find(|(e, _)| rest.starts_with(e)) {
            Some((entity, ch)) => {
                out.push(*ch);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}
