//! Minimal std-only HTTP/1.1 framing and a pooled blocking client.
//!
//! This is the transport under [`S3Cloud`](crate::S3Cloud) and the
//! in-process [`MockS3`](crate::MockS3) server. Both sides share the
//! same framing code (request/response head parsing, content-length
//! and chunked bodies), so the integration tests exercise exactly the
//! bytes a real S3-compatible endpoint would see — over real loopback
//! sockets, with zero external crates.
//!
//! The client keeps one connection pool per [`HttpClient`] (one
//! endpoint), sized by the data plane's `connections_per_cloud`.
//! Checkout parks on the runtime's [`Notifier`] eventcount (the PR 2
//! primitive) instead of spinning: a releasing request bumps the
//! generation and wakes every parked waiter, which re-checks the idle
//! list. Keep-alive reuse is transparent; a request that fails on a
//! *reused* connection is retried once on a fresh one, because a
//! keep-alive peer may have closed the socket between requests
//! (classic stale-connection race), while a failure on a fresh
//! connection is reported as-is.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use unidrive_sim::{Notifier, Runtime};

/// Longest accepted request/status/header line, in bytes. Lines beyond
/// this indicate a corrupt or hostile peer; the read fails cleanly.
const MAX_LINE: usize = 64 * 1024;
/// Maximum number of headers in one message head.
const MAX_HEADERS: usize = 128;
/// Largest accepted message body, declared or accumulated, on any
/// framing. Far above anything the client writes or reads back (blocks
/// are θ/k of a segment, metadata images and listings are smaller
/// still); a peer announcing more is lying or hostile, and the read
/// fails before anything of that size is allocated.
const MAX_BODY: usize = 256 * 1024 * 1024;
/// Socket read timeout: a hung peer surfaces as a timeout error (which
/// the cloud layer maps to a retryable transient) instead of wedging a
/// worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Socket write timeout: the same, for a peer that stops draining.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Connect timeout, per resolved address.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Bodies at or above this size are written with chunked
/// transfer-encoding by [`write_response`] when `chunked` is requested.
const CHUNK_SIZE: usize = 64 * 1024;

/// One parsed HTTP request (either side of the wire).
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `PUT`, `DELETE`, ...).
    pub method: String,
    /// Origin-form request target: percent-encoded path plus optional
    /// `?query`.
    pub target: String,
    /// Header name/value pairs in arrival order. Names are
    /// case-insensitive on lookup (see [`header`]).
    pub headers: Vec<(String, String)>,
    /// Decoded message body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A new request with no headers and an empty body.
    pub fn new(method: &str, target: &str) -> HttpRequest {
        HttpRequest {
            method: method.to_owned(),
            target: target.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: &str, value: &str) -> HttpRequest {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: Vec<u8>) -> HttpRequest {
        self.body = body;
        self
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (200, 404, 503, ...).
    pub status: u16,
    /// Reason phrase from the status line (informational only).
    pub reason: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Decoded (de-chunked) message body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A new response with no headers and an empty body.
    pub fn new(status: u16, reason: &str) -> HttpResponse {
        HttpResponse {
            status,
            reason: reason.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: &str, value: &str) -> HttpResponse {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: Vec<u8>) -> HttpResponse {
        self.body = body;
        self
    }
}

/// Case-insensitive header lookup (first match wins, as both our peers
/// emit each header at most once).
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("http: {what}"))
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the
/// terminator. Returns `None` on clean EOF before any byte.
fn read_line<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(invalid("unexpected EOF inside line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let s = String::from_utf8(line)
                        .map_err(|_| invalid("non-UTF-8 header line"))?;
                    return Ok(Some(s));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(invalid("header line too long"));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads a header block (terminated by an empty line).
fn read_headers<R: BufRead>(r: &mut R) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| invalid("EOF inside headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid("malformed header line"))?;
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
    }
}

/// Reads a body framed by the given headers: `Content-Length`, chunked
/// transfer-encoding, or (responses only, when `to_eof` is set) until
/// the peer closes the connection. On every framing a body beyond
/// `max` bytes ([`MAX_BODY`] on the wire) is an `InvalidData` error.
fn read_body<R: BufRead>(
    r: &mut R,
    headers: &[(String, String)],
    to_eof: bool,
    max: usize,
) -> io::Result<Vec<u8>> {
    if let Some(te) = header(headers, "Transfer-Encoding") {
        if te.eq_ignore_ascii_case("chunked") {
            return read_chunked(r, max);
        }
        return Err(invalid("unsupported transfer-encoding"));
    }
    if let Some(cl) = header(headers, "Content-Length") {
        let len: usize = cl
            .parse()
            .map_err(|_| invalid("bad content-length"))?;
        if len > max {
            return Err(invalid("content-length over the body limit"));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        return Ok(body);
    }
    if to_eof {
        let mut body = Vec::new();
        r.take(max as u64 + 1).read_to_end(&mut body)?;
        if body.len() > max {
            return Err(invalid("unframed body over the body limit"));
        }
        return Ok(body);
    }
    Ok(Vec::new())
}

/// Reads a chunked body: hex-sized chunks, a zero-size terminator, and
/// an (ignored) trailer section.
fn read_chunked<R: BufRead>(r: &mut R, max: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| invalid("EOF inside chunked body"))?;
        let size_part = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_part, 16)
            .map_err(|_| invalid("bad chunk size"))?;
        if size == 0 {
            // Trailers until the blank line.
            loop {
                match read_line(r)? {
                    Some(l) if l.is_empty() => return Ok(body),
                    Some(_) => {}
                    None => return Err(invalid("EOF inside trailers")),
                }
            }
        }
        let at = body.len();
        if size > max - at {
            return Err(invalid("chunked body over the body limit"));
        }
        body.resize(at + size, 0);
        r.read_exact(&mut body[at..])?;
        let crlf = read_line(r)?.ok_or_else(|| invalid("EOF after chunk"))?;
        if !crlf.is_empty() {
            return Err(invalid("missing CRLF after chunk"));
        }
    }
}

/// Reads one request from a server-side connection. Returns `None` on
/// clean EOF before the request line (keep-alive peer went away).
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<HttpRequest>> {
    let line = match read_line(r)? {
        Some(l) => l,
        None => return Ok(None),
    };
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next().ok_or_else(|| invalid("empty request line"))?;
    let target = parts.next().ok_or_else(|| invalid("request line missing target"))?;
    let version = parts.next().ok_or_else(|| invalid("request line missing version"))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(invalid("unsupported HTTP version"));
    }
    let headers = read_headers(r)?;
    let body = read_body(r, &headers, false, MAX_BODY)?;
    Ok(Some(HttpRequest {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body,
    }))
}

/// Writes one request. `Content-Length` is always supplied by this
/// function; callers must not set framing headers themselves.
pub fn write_request<W: Write>(w: &mut W, req: &HttpRequest) -> io::Result<()> {
    let mut head = format!("{} {} HTTP/1.1\r\n", req.method, req.target);
    for (name, value) in &req.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", req.body.len()));
    w.write_all(head.as_bytes())?;
    w.write_all(&req.body)?;
    w.flush()
}

/// Reads one response from a client-side connection.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<HttpResponse> {
    let line = read_line(r)?.ok_or_else(|| invalid("EOF before status line"))?;
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("bad status line"));
    }
    let status: u16 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| invalid("bad status code"))?;
    let reason = parts.next().unwrap_or("").to_owned();
    let headers = read_headers(r)?;
    // 204 has no body by definition; everything else frames by headers.
    let body = if status == 204 {
        Vec::new()
    } else {
        let close = header(&headers, "Connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        let unframed = header(&headers, "Content-Length").is_none()
            && header(&headers, "Transfer-Encoding").is_none();
        read_body(r, &headers, close && unframed, MAX_BODY)?
    };
    Ok(HttpResponse {
        status,
        reason,
        headers,
        body,
    })
}

/// Writes one response. With `chunked` set, large bodies go out in
/// `Transfer-Encoding: chunked` frames (exercising the client's
/// de-chunking path); otherwise `Content-Length` framing is used.
/// Framing headers are always supplied by this function.
pub fn write_response<W: Write>(w: &mut W, resp: &HttpResponse, chunked: bool) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
    for (name, value) in &resp.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if resp.status == 204 {
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        return w.flush();
    }
    if chunked && !resp.body.is_empty() {
        head.push_str("Transfer-Encoding: chunked\r\n\r\n");
        w.write_all(head.as_bytes())?;
        for chunk in resp.body.chunks(CHUNK_SIZE) {
            write!(w, "{:x}\r\n", chunk.len())?;
            w.write_all(chunk)?;
            w.write_all(b"\r\n")?;
        }
        w.write_all(b"0\r\n\r\n")?;
    } else {
        head.push_str(&format!("Content-Length: {}\r\n\r\n", resp.body.len()));
        w.write_all(head.as_bytes())?;
        w.write_all(&resp.body)?;
    }
    w.flush()
}

/// Percent-encodes one path for the request target: unreserved
/// characters and `/` pass through, everything else becomes `%XX`.
pub fn percent_encode_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for b in path.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b'/' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Percent-encodes one query-string value (`/` is also escaped).
pub fn percent_encode_query(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decodes `%XX` escapes (and `+` is left alone — we never emit it).
/// Invalid escapes pass through literally, matching lenient servers.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hi = (bytes[i + 1] as char).to_digit(16);
            let lo = (bytes[i + 2] as char).to_digit(16);
            if let (Some(hi), Some(lo)) = (hi, lo) {
                out.push((hi * 16 + lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One pooled keep-alive connection.
struct Conn {
    reader: BufReader<TcpStream>,
    /// Whether this connection has already served at least one request
    /// (a failure on a reused connection is retried once; see module
    /// docs).
    reused: bool,
}

struct PoolState {
    idle: VecDeque<Conn>,
    /// Connections currently checked out or idle (never exceeds `max`).
    open: usize,
}

/// A blocking HTTP/1.1 client for one endpoint with a bounded
/// keep-alive connection pool.
pub struct HttpClient {
    addr: String,
    max: usize,
    notifier: Arc<dyn Notifier>,
    state: Mutex<PoolState>,
}

impl std::fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap();
        f.debug_struct("HttpClient")
            .field("addr", &self.addr)
            .field("max", &self.max)
            .field("open", &state.open)
            .field("idle", &state.idle.len())
            .finish()
    }
}

impl HttpClient {
    /// A client for `addr` (`host:port`) holding at most `max`
    /// concurrent connections; callers beyond that park on the
    /// runtime's notifier until a connection frees up.
    pub fn new(rt: &Arc<dyn Runtime>, addr: &str, max: usize) -> HttpClient {
        HttpClient {
            addr: addr.to_owned(),
            max: max.max(1),
            notifier: rt.notifier(),
            state: Mutex::new(PoolState {
                idle: VecDeque::new(),
                open: 0,
            }),
        }
    }

    /// The endpoint this client talks to, as `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one request and reads its response, transparently
    /// checking a pooled connection out and back in. Retries exactly
    /// once, on a fresh connection, if a *reused* keep-alive
    /// connection fails mid-request.
    pub fn request(&self, req: &HttpRequest) -> io::Result<HttpResponse> {
        let mut conn = self.checkout()?;
        let was_reused = conn.reused;
        match self.roundtrip(&mut conn, req) {
            Ok(resp) => {
                self.check_in(conn, &resp);
                Ok(resp)
            }
            Err(first) => {
                self.discard();
                if !was_reused {
                    return Err(first);
                }
                // Stale keep-alive socket: the server may have closed
                // it between requests. One fresh attempt.
                let mut fresh = self.checkout_fresh()?;
                match self.roundtrip(&mut fresh, req) {
                    Ok(resp) => {
                        self.check_in(fresh, &resp);
                        Ok(resp)
                    }
                    Err(e) => {
                        self.discard();
                        Err(e)
                    }
                }
            }
        }
    }

    fn roundtrip(&self, conn: &mut Conn, req: &HttpRequest) -> io::Result<HttpResponse> {
        write_request(conn.reader.get_mut(), req)?;
        read_response(&mut conn.reader)
    }

    fn connect(&self) -> io::Result<Conn> {
        // `TcpStream::connect`, with a bound on each address tried.
        let mut stream = None;
        for addr in self.addr.to_socket_addrs()? {
            stream = Some(TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT));
            if matches!(stream, Some(Ok(_))) {
                break;
            }
        }
        let stream = stream.ok_or_else(|| invalid("address resolved to nothing"))??;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            reused: false,
        })
    }

    /// Checks a connection out of the pool: an idle one if available,
    /// a new one if below the cap, else parks on the notifier until a
    /// release wakes us.
    fn checkout(&self) -> io::Result<Conn> {
        loop {
            let seen = self.notifier.generation();
            {
                let mut state = self.state.lock().unwrap();
                if let Some(mut conn) = state.idle.pop_front() {
                    conn.reused = true;
                    return Ok(conn);
                }
                if state.open < self.max {
                    state.open += 1;
                    drop(state);
                    return match self.connect() {
                        Ok(conn) => Ok(conn),
                        Err(e) => {
                            self.discard();
                            Err(e)
                        }
                    };
                }
            }
            self.notifier.wait(seen);
        }
    }

    /// Opens a fresh connection for the stale-reuse retry. The failed
    /// connection's slot has already been released, so this takes a
    /// regular slot (and may briefly park like any checkout).
    fn checkout_fresh(&self) -> io::Result<Conn> {
        loop {
            let seen = self.notifier.generation();
            {
                let mut state = self.state.lock().unwrap();
                if state.open < self.max {
                    state.open += 1;
                } else if state.idle.pop_front().is_some() {
                    // Trade an idle (possibly equally stale) connection
                    // for a fresh one; `open` stays constant.
                } else {
                    drop(state);
                    self.notifier.wait(seen);
                    continue;
                }
            }
            return match self.connect() {
                Ok(conn) => Ok(conn),
                Err(e) => {
                    self.discard();
                    Err(e)
                }
            };
        }
    }

    /// Returns a connection to the idle list (keep-alive) or closes it
    /// if either side asked for `Connection: close`.
    fn check_in(&self, mut conn: Conn, resp: &HttpResponse) {
        let close = header(&resp.headers, "Connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        if close {
            self.discard();
            return;
        }
        conn.reused = true;
        let mut state = self.state.lock().unwrap();
        state.idle.push_back(conn);
        drop(state);
        self.notifier.notify_all();
    }

    /// Releases one connection slot without returning a connection.
    fn discard(&self) {
        let mut state = self.state.lock().unwrap();
        state.open = state.open.saturating_sub(1);
        drop(state);
        self.notifier.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip_content_length() {
        let req = HttpRequest::new("PUT", "/b/k%20ey")
            .header("Host", "x")
            .body(b"hello".to_vec());
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let mut r = BufReader::new(Cursor::new(wire));
        let parsed = read_request(&mut r).unwrap().unwrap();
        assert_eq!(parsed.method, "PUT");
        assert_eq!(parsed.target, "/b/k%20ey");
        assert_eq!(header(&parsed.headers, "host"), Some("x"));
        assert_eq!(parsed.body, b"hello");
        // Clean EOF after the request => keep-alive loop sees None.
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn response_roundtrip_plain_and_chunked() {
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for chunked in [false, true] {
            let resp = HttpResponse::new(200, "OK").body(body.clone());
            let mut wire = Vec::new();
            write_response(&mut wire, &resp, chunked).unwrap();
            let mut r = BufReader::new(Cursor::new(wire));
            let parsed = read_response(&mut r).unwrap();
            assert_eq!(parsed.status, 200);
            assert_eq!(parsed.body, body, "chunked={chunked}");
        }
    }

    #[test]
    fn response_204_has_no_body() {
        let resp = HttpResponse::new(204, "No Content");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, false).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(!text.contains("Content-Length"), "{text}");
        let mut r = BufReader::new(Cursor::new(wire));
        let parsed = read_response(&mut r).unwrap();
        assert_eq!(parsed.status, 204);
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn percent_coding_roundtrips() {
        let path = "dir with space/näme%7E/file.bin";
        let enc = percent_encode_path(path);
        assert!(!enc.contains(' '), "{enc}");
        assert_eq!(percent_decode(&enc), path);
        assert_eq!(percent_encode_query("a/b c"), "a%2Fb%20c");
        assert_eq!(percent_decode("a%2Fb%20c"), "a/b c");
    }

    /// A body stream that never ends, and panics if more than `budget`
    /// bytes of it are ever pulled: the reader must give up at its
    /// limit, not buffer whatever the peer keeps sending.
    struct Endless {
        budget: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(self.budget >= buf.len(), "reader pulled past its budget");
            self.budget -= buf.len();
            buf.fill(b'x');
            Ok(buf.len())
        }
    }

    fn over_the_limit(e: io::Error) -> bool {
        e.kind() == io::ErrorKind::InvalidData && e.to_string().contains("over the body limit")
    }

    #[test]
    fn a_lying_content_length_is_refused_before_allocating() {
        // usize::MAX bytes claimed, three sent: at the parent this was
        // `vec![0u8; usize::MAX]`, a capacity-overflow abort.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nabc";
        let err = read_response(&mut BufReader::new(Cursor::new(wire.to_vec()))).unwrap_err();
        assert!(over_the_limit(err));
        // The server side shares the framing code.
        let wire = b"PUT /b/k HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\nabc";
        let err = read_request(&mut BufReader::new(Cursor::new(wire.to_vec()))).unwrap_err();
        assert!(over_the_limit(err));
        // One past the limit is refused, the limit itself is a size.
        let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let err = read_response(&mut BufReader::new(Cursor::new(head.into_bytes()))).unwrap_err();
        assert!(over_the_limit(err));
        let mut r = BufReader::new(Cursor::new(b"abcd".to_vec()));
        let headers = [("Content-Length".to_owned(), "4".to_owned())];
        assert_eq!(read_body(&mut r, &headers, false, 4).unwrap(), b"abcd");
    }

    #[test]
    fn a_lying_chunk_size_is_refused_before_allocating() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nabc";
        let err = read_response(&mut BufReader::new(Cursor::new(wire.to_vec()))).unwrap_err();
        assert!(over_the_limit(err));
        // Honest chunks that add up past the limit are refused at the
        // chunk that crosses it.
        let mut r = BufReader::new(Cursor::new(b"3\r\nabc\r\n3\r\ndef\r\n0\r\n\r\n".to_vec()));
        assert!(over_the_limit(read_chunked(&mut r, 5).unwrap_err()));
        let mut r = BufReader::new(Cursor::new(b"3\r\nabc\r\n3\r\ndef\r\n0\r\n\r\n".to_vec()));
        assert_eq!(read_chunked(&mut r, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn an_endless_unframed_body_is_cut_at_the_limit() {
        // `Connection: close` with no framing reads to EOF; this peer
        // never closes. 1 KiB limit: the reader may pull the limit plus
        // one buffer's worth, never more.
        let mut r = BufReader::with_capacity(512, Endless { budget: 1024 + 1 + 512 });
        assert!(over_the_limit(read_body(&mut r, &[], true, 1024).unwrap_err()));
        // Through the public reader the same framing is picked.
        let head = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nabc".to_vec();
        let resp = read_response(&mut BufReader::new(Cursor::new(head))).unwrap();
        assert_eq!(resp.body, b"abc");
    }

    #[test]
    fn chunked_reader_rejects_garbage_sizes() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n".to_vec();
        let mut r = BufReader::new(Cursor::new(wire));
        assert!(read_response(&mut r).is_err());
    }
}
