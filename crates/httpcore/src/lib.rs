//! The shared HTTP/1.1 front end of the workspace's hand-rolled
//! `std::net` servers (`sfn-metrics` and `sfn-serve`).
//!
//! Security posture: every byte off the socket is hostile.
//! [`parse_request`] is the single entry point for raw request heads —
//! strict, allocation-bounded, and fuzzed as the `http` target.
//! [`accept_loop`] is the one accept loop (bounded connection threads,
//! socket timeouts) and [`read_request`] the one bounded request
//! reader, so both servers (and the fuzzer) agree on exactly what
//! parses. Routing, counters, thread names and the overload reply stay
//! with each server; every response is `Connection: close`.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Hard cap on the bytes of one request head (request line + headers
/// + terminator). Larger requests are rejected before parsing.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Maximum number of headers accepted in one request.
pub const MAX_HEADERS: usize = 32;

/// Maximum length of the request target (path + query).
pub const MAX_TARGET_BYTES: usize = 1024;

/// Maximum length of one header name / value.
pub const MAX_HEADER_NAME_BYTES: usize = 128;
/// Maximum length of one header value.
pub const MAX_HEADER_VALUE_BYTES: usize = 1024;

/// Hard cap on a declared request body (`Content-Length`). Requests
/// declaring more are refused before any body byte is read.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A parsed, validated HTTP/1.x request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `HEAD`, …). Parsing accepts any
    /// token; routing decides what is allowed.
    pub method: String,
    /// Request target, always starting with `/`.
    pub target: String,
    /// Minor HTTP version: 0 for `HTTP/1.0`, 1 for `HTTP/1.1`.
    pub minor_version: u8,
    /// Header `(name, trimmed value)` pairs in request order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// Canonical wire rendering of the head (used by the fuzz oracle:
    /// `parse ∘ render` must be a fixed point).
    pub fn render(&self) -> Vec<u8> {
        let mut out = String::with_capacity(64);
        out.push_str(&self.method);
        out.push(' ');
        out.push_str(&self.target);
        out.push_str(" HTTP/1.");
        out.push(if self.minor_version == 0 { '0' } else { '1' });
        out.push_str("\r\n");
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.into_bytes()
    }

    /// First header value whose name matches `name` case-insensitively
    /// (header names are case-insensitive per RFC 9110).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Declared body length from `Content-Length`. `Ok(0)` when the
    /// header is absent; refuses non-numeric, duplicate-conflicting
    /// or over-[`MAX_BODY_BYTES`] declarations.
    pub fn content_length(&self) -> Result<usize, RequestError> {
        let mut declared: Option<usize> = None;
        for (name, value) in &self.headers {
            if !name.eq_ignore_ascii_case("content-length") {
                continue;
            }
            let n: usize = value
                .parse()
                .map_err(|_| RequestError::Malformed("content-length is not a number"))?;
            match declared {
                Some(prev) if prev != n => {
                    return Err(RequestError::Malformed("conflicting content-length headers"))
                }
                _ => declared = Some(n),
            }
        }
        let n = declared.unwrap_or(0);
        if n > MAX_BODY_BYTES {
            return Err(RequestError::BodyTooLarge);
        }
        Ok(n)
    }
}

/// Why a request was refused. Every variant maps to a 4xx response;
/// none of them may panic, allocate unboundedly, or loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// Head exceeds [`MAX_REQUEST_BYTES`].
    TooLarge,
    /// Structurally invalid head (missing terminator, bad request
    /// line, illegal characters…). The payload names the first check
    /// that failed.
    Malformed(&'static str),
    /// Not an `HTTP/1.0` / `HTTP/1.1` request.
    UnsupportedVersion,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// Declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TooLarge => write!(f, "request head exceeds {MAX_REQUEST_BYTES} bytes"),
            RequestError::Malformed(why) => write!(f, "malformed request: {why}"),
            RequestError::UnsupportedVersion => write!(f, "only HTTP/1.0 and HTTP/1.1 are served"),
            RequestError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            RequestError::BodyTooLarge => write!(f, "declared body exceeds {MAX_BODY_BYTES} bytes"),
        }
    }
}

fn is_tchar(b: u8) -> bool {
    // RFC 9110 token characters.
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Byte offset of the first payload byte: one past the `\r\n\r\n`
/// head terminator, if the buffer holds a complete head yet.
pub fn head_len(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Strictly parses one request head from raw socket bytes. Bytes after
/// the `\r\n\r\n` terminator (a body) are ignored here — callers that
/// accept bodies pair this with [`head_len`] and
/// [`Request::content_length`] to read a bounded body separately.
pub fn parse_request(raw: &[u8]) -> Result<Request, RequestError> {
    if raw.len() > MAX_REQUEST_BYTES {
        return Err(RequestError::TooLarge);
    }
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(RequestError::Malformed("missing \\r\\n\\r\\n terminator"))?;
    // Include the first `\r\n` of the terminator so every line in the
    // head carries its CRLF and bare-LF lines are detectable.
    let head = &raw[..head_end + 2];
    let mut lines: Vec<&[u8]> = head.split(|&b| b == b'\n').collect();
    // `head` ends with `\n`, so the final split piece is always empty.
    lines.pop();
    let mut lines = lines.into_iter();

    let request_line = lines.next().unwrap_or_default();
    let request_line = request_line
        .strip_suffix(b"\r")
        .ok_or(RequestError::Malformed("bare LF in request line"))?;
    let mut parts = request_line.split(|&b| b == b' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(RequestError::Malformed("request line is not `METHOD SP target SP version`")),
    };

    if method.is_empty() || method.len() > 16 || !method.iter().all(|&b| b.is_ascii_uppercase()) {
        return Err(RequestError::Malformed("method is not an uppercase token"));
    }
    if target.len() > MAX_TARGET_BYTES {
        return Err(RequestError::Malformed("target too long"));
    }
    if target.first() != Some(&b'/') || !target.iter().all(|&b| (0x21..=0x7e).contains(&b)) {
        return Err(RequestError::Malformed("target must be /-rooted visible ASCII"));
    }
    let minor_version = match version {
        b"HTTP/1.0" => 0,
        b"HTTP/1.1" => 1,
        _ => return Err(RequestError::UnsupportedVersion),
    };

    let mut headers = Vec::new();
    for line in lines {
        let line = line
            .strip_suffix(b"\r")
            .ok_or(RequestError::Malformed("bare LF in header line"))?;
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::TooManyHeaders);
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(RequestError::Malformed("header line without colon"))?;
        let (name, value) = (&line[..colon], &line[colon + 1..]);
        if name.is_empty() || name.len() > MAX_HEADER_NAME_BYTES || !name.iter().all(|&b| is_tchar(b)) {
            return Err(RequestError::Malformed("header name is not a token"));
        }
        // Obsolete line folding (a header line starting with
        // whitespace) never reaches here: it would parse as a header
        // name with illegal characters and be rejected above.
        let value = trim_ows(value);
        if value.len() > MAX_HEADER_VALUE_BYTES {
            return Err(RequestError::Malformed("header value too long"));
        }
        if !value.iter().all(|&b| b == b'\t' || (0x20..=0x7e).contains(&b)) {
            return Err(RequestError::Malformed("header value has control bytes"));
        }
        headers.push((
            String::from_utf8_lossy(name).into_owned(),
            String::from_utf8_lossy(value).into_owned(),
        ));
    }

    Ok(Request {
        method: String::from_utf8_lossy(method).into_owned(),
        target: String::from_utf8_lossy(target).into_owned(),
        minor_version,
        headers,
    })
}

fn trim_ows(mut v: &[u8]) -> &[u8] {
    while let Some((first, rest)) = v.split_first() {
        if *first == b' ' || *first == b'\t' {
            v = rest;
        } else {
            break;
        }
    }
    while let Some((last, rest)) = v.split_last() {
        if *last == b' ' || *last == b'\t' {
            v = rest;
        } else {
            break;
        }
    }
    v
}

/// Canonical reason phrase for the status codes the workspace servers
/// emit; anything unmapped renders as `Error`.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

/// Writes one `Connection: close` response (head + body) to `stream`.
/// `extra_headers` lets callers attach e.g. `Retry-After`; names and
/// values are trusted (server-originated, never echoed client bytes).
pub fn write_response(
    stream: &mut dyn std::io::Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// Read and write timeout set on every accepted connection.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// How long [`accept_loop`] sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Accepts connections on the non-blocking `listener` until `stop` is
/// set, polling every 20 ms while idle. Each connection gets 2 s
/// read/write timeouts and runs `handle` on its own
/// thread named `conn_name`. Past `max_conns` live connection threads,
/// `overloaded` answers the connection inline instead; a connection
/// whose thread cannot be spawned is dropped.
pub fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    max_conns: usize,
    conn_name: &str,
    overloaded: impl Fn(TcpStream),
    handle: impl Fn(TcpStream) + Send + Sync + 'static,
) {
    let handle = Arc::new(handle);
    let active = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::Relaxed) >= max_conns {
                    overloaded(stream);
                    continue;
                }
                let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                active.fetch_add(1, Ordering::Relaxed);
                let handle = Arc::clone(&handle);
                let conn_active = Arc::clone(&active);
                let spawned = std::thread::Builder::new().name(conn_name.into()).spawn(move || {
                    handle(stream);
                    conn_active.fetch_sub(1, Ordering::Relaxed);
                });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Reads one request — the head plus the body its `Content-Length`
/// declares — under the socket's timeouts. A head that does not parse
/// is returned as read, so the caller produces the typed refusal.
/// `Err` carries the status and plain-text body to answer with.
pub fn read_request(stream: &mut impl Read) -> Result<Vec<u8>, (u16, &'static str)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(n) = head_len(&buf) {
            break n;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err((431, "request head too large\n"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err((400, "incomplete request\n")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err((408, "request read timed out\n")),
        }
    };
    let declared = match parse_request(&buf[..head_end]) {
        Ok(head) => match head.content_length() {
            Ok(n) => n,
            Err(RequestError::BodyTooLarge) => return Err((413, "body too large\n")),
            Err(_) => return Err((400, "bad content-length\n")),
        },
        Err(_) => return Ok(buf),
    };
    while buf.len() < head_end + declared {
        match stream.read(&mut chunk) {
            Ok(0) => return Err((400, "body shorter than content-length\n")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err((408, "body read timed out\n")),
        }
    }
    buf.truncate(head_end + declared);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(raw: &[u8]) -> Request {
        parse_request(raw).expect("parses")
    }

    #[test]
    fn parses_minimal_get() {
        let r = ok(b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/metrics");
        assert_eq!(r.minor_version, 1);
        assert!(r.headers.is_empty());
    }

    #[test]
    fn parses_headers_and_trims_optional_whitespace() {
        let r = ok(b"GET / HTTP/1.0\r\nHost:  localhost:9090 \r\nAccept: */*\r\n\r\nignored body");
        assert_eq!(r.minor_version, 0);
        assert_eq!(r.headers[0], ("Host".into(), "localhost:9090".into()));
        assert_eq!(r.headers[1], ("Accept".into(), "*/*".into()));
    }

    #[test]
    fn render_parse_is_a_fixed_point() {
        let r = ok(b"HEAD /snapshot.json?x=1 HTTP/1.1\r\nHost: a\r\nX-B: c\t d\r\n\r\n");
        assert_eq!(ok(&r.render()), r);
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let r = ok(b"POST /simulate HTTP/1.1\r\nX-Tenant: acme\r\ncontent-length: 12\r\n\r\n");
        assert_eq!(r.header("x-tenant"), Some("acme"));
        assert_eq!(r.header("Content-Length"), Some("12"));
        assert_eq!(r.header("absent"), None);
        assert_eq!(r.content_length(), Ok(12));
    }

    #[test]
    fn content_length_rejects_garbage_conflicts_and_floods() {
        let r = ok(b"POST / HTTP/1.1\r\nContent-Length: twelve\r\n\r\n");
        assert!(matches!(r.content_length(), Err(RequestError::Malformed(_))));
        let r = ok(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n");
        assert!(matches!(r.content_length(), Err(RequestError::Malformed(_))));
        let r = ok(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\n");
        assert_eq!(r.content_length(), Ok(3));
        let r = ok(format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1)
            .as_bytes());
        assert_eq!(r.content_length(), Err(RequestError::BodyTooLarge));
        let r = ok(b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(r.content_length(), Ok(0));
    }

    #[test]
    fn head_len_finds_the_terminator() {
        assert_eq!(head_len(b"GET / HTTP/1.1\r\n\r\nbody"), Some(18));
        assert_eq!(head_len(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn read_request_reads_the_declared_body_only() {
        let mut wire: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcdef";
        let read = read_request(&mut wire).unwrap();
        assert_eq!(read, b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc");
        let mut short: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc";
        assert_eq!(read_request(&mut short).unwrap_err().0, 400);
        let mut cut: &[u8] = b"GET / HTTP/1.1\r\n";
        assert_eq!(read_request(&mut cut).unwrap_err().0, 400);
        let mut garbage: &[u8] = b"\x00garbage\r\n\r\n";
        let read = read_request(&mut garbage).unwrap();
        assert_eq!(read, b"\x00garbage\r\n\r\n", "returned for the caller to refuse");
        let huge = vec![b'A'; MAX_REQUEST_BYTES + 2048];
        assert_eq!(read_request(&mut huge.as_slice()).unwrap_err().0, 431);
        let mut flood: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(read_request(&mut flood).unwrap_err().0, 413);
    }

    #[test]
    fn rejects_malformed_heads() {
        for (raw, why) in [
            (&b"GET /metrics HTTP/1.1"[..], "no terminator"),
            (b"GET /metrics HTTP/1.1\n\n", "LF-only terminator"),
            (b"GET /metrics HTTP/1.1\nX: y\r\n\r\n", "bare LF line ending"),
            (b"get /metrics HTTP/1.1\r\n\r\n", "lowercase method"),
            (b"GET metrics HTTP/1.1\r\n\r\n", "target not /-rooted"),
            (b"GET /me trics HTTP/1.1\r\n\r\n", "space in target"),
            (b"GET /metrics HTTP/2\r\n\r\n", "unsupported version"),
            (b"GET /metrics HTTP/1.1 extra\r\n\r\n", "four request-line parts"),
            (b"GET /metrics HTTP/1.1\r\nNoColonHere\r\n\r\n", "header without colon"),
            (b"GET /metrics HTTP/1.1\r\n: empty-name\r\n\r\n", "empty header name"),
            (b"GET /metrics HTTP/1.1\r\nX: a\x01b\r\n\r\n", "control byte in value"),
            (b"\r\n\r\n", "empty request line"),
        ] {
            assert!(parse_request(raw).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn rejects_oversize_and_header_floods() {
        let huge = vec![b'A'; MAX_REQUEST_BYTES + 1];
        assert_eq!(parse_request(&huge), Err(RequestError::TooLarge));

        let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS + 1 {
            flood.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        flood.extend_from_slice(b"\r\n");
        assert_eq!(parse_request(&flood), Err(RequestError::TooManyHeaders));

        let long_target = [b"GET /".to_vec(), vec![b'a'; MAX_TARGET_BYTES], b" HTTP/1.1\r\n\r\n".to_vec()]
            .concat();
        assert!(matches!(parse_request(&long_target), Err(RequestError::Malformed(_))));
    }
}
