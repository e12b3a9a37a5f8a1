//! Minimal, dependency-free HTTP/1.1 support: enough to parse one
//! request from a stream and write one `Connection: close` response.
//!
//! This is deliberately not a general HTTP implementation. The service
//! speaks exactly the subset its JSON API needs — a request line,
//! headers (only `Content-Length` and `Expect` are interpreted), an
//! optional body, and a single response per connection — with hard
//! limits on header and body size so a misbehaving client cannot make
//! the server allocate without bound.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use sustain_sim_core::ctl::Deadline;

/// Hard cap on the request head (request line + headers).
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest single read while looking for the end of the head.
const HEAD_CHUNK: usize = 4 * 1024;

/// Hard cap on a request body.
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Granularity of the socket read timeout used to poll an idle-read
/// [`Deadline`]: small enough that a fired deadline is noticed
/// promptly, large enough that a healthy request pays no extra
/// syscalls (the timeout only triggers when the peer stalls).
const READ_SLICE: Duration = Duration::from_millis(100);

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request path (query strings are kept verbatim; the API routes on
    /// the full path and defines none).
    pub path: String,
    /// Raw request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Verbatim `If-None-Match` header value, if the client sent one.
    /// `POST /run` compares it against the deterministic scenario ETag
    /// and answers `304 Not Modified` on an exact match.
    pub if_none_match: Option<String>,
}

/// Why a request could not be parsed. Every variant maps to a 4xx
/// response; the connection is closed afterwards either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HttpError {
    /// The request line or headers were malformed or over the size cap.
    BadRequest(String),
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    PayloadTooLarge(usize),
    /// The peer closed or timed out before a full request arrived.
    Incomplete(String),
    /// The idle-read [`Deadline`] fired before a full request arrived —
    /// the connection sat open without sending one. Maps to 408 with
    /// the typed kind `timeout`.
    Timeout(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "malformed request: {m}"),
            HttpError::PayloadTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            HttpError::Incomplete(m) => write!(f, "incomplete request: {m}"),
            HttpError::Timeout(m) => write!(f, "request read timed out: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One blocking-or-sliced read: with a deadline attached, timeout
/// errors poll the deadline and keep waiting until it fires; without
/// one, they surface as [`HttpError::Incomplete`] (legacy blocking
/// behavior under whatever socket timeout the caller configured).
fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Option<&Deadline>,
) -> Result<usize, HttpError> {
    loop {
        match stream.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                match deadline {
                    Some(d) if d.expired() => {
                        return Err(HttpError::Timeout(format!(
                            "no complete request within the read deadline of {:.3}s",
                            d.budget().as_secs_f64()
                        )))
                    }
                    Some(_) => continue,
                    None => return Err(HttpError::Incomplete(format!("read error: {e}"))),
                }
            }
            Err(e) => return Err(HttpError::Incomplete(format!("read error: {e}"))),
        }
    }
}

/// Best-effort drain of any unread request bytes, called *after* the
/// response is written on paths that answered without consuming the
/// full request (429 rejections, read faults, handler panics). Closing
/// a socket with data still in its receive buffer sends an RST, which
/// can discard the response before the peer reads it — so signal EOF
/// with a write-side shutdown, then read until the peer closes (or a
/// short timeout for peers that never do).
pub(crate) fn drain_unread(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    while let Ok(n) = stream.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
}

/// Reads and parses one request from `stream`.
///
/// Honors `Expect: 100-continue` (curl sends it for larger POST bodies)
/// by emitting the interim response before reading the body.
///
/// With `read_deadline` attached, socket reads run in [`READ_SLICE`]
/// timeout slices and an idle or stalling peer is answered with a
/// typed [`HttpError::Timeout`] once the deadline fires, so one silent
/// connection can never pin a worker forever. `None` preserves plain
/// blocking reads.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    read_deadline: Option<Deadline>,
) -> Result<Request, HttpError> {
    sustain_sim_core::faultpoint!("service::read")
        .map_err(|e| HttpError::BadRequest(e.to_string()))?;
    if read_deadline.is_some() {
        // Failure to arm the slice timeout degrades to blocking reads;
        // the deadline then simply cannot fire early, which is the
        // pre-deadline behavior, not a new hazard.
        let _ = stream.set_read_timeout(Some(READ_SLICE));
    }
    let deadline = read_deadline.as_ref();
    // Chunked reads until CRLFCRLF, never holding more than the head
    // cap; bytes that arrived past the terminator are the body's start.
    let mut buf: Vec<u8> = Vec::with_capacity(HEAD_CHUNK);
    let mut chunk = [0u8; HEAD_CHUNK];
    let mut scanned = 0usize;
    let head_end = loop {
        // A terminator may straddle two reads: rescan 3 old bytes.
        let from = scanned.saturating_sub(3);
        if let Some(p) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + p + 4;
        }
        scanned = buf.len();
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let want = chunk.len().min(MAX_HEAD_BYTES - buf.len());
        match read_some(stream, &mut chunk[..want], deadline)? {
            0 => {
                return Err(HttpError::Incomplete(format!(
                    "connection closed after {} header bytes",
                    buf.len()
                )))
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head_text = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| HttpError::BadRequest(format!("bad request line: {request_line:?}")))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut content_length: usize = 0;
    let mut expects_continue = false;
    let mut if_none_match: Option<String> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("bad header line {line:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expects_continue = true;
        } else if name.eq_ignore_ascii_case("if-none-match") {
            if_none_match = Some(value.to_string());
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::PayloadTooLarge(content_length));
    }
    // The body starts with whatever the head reads over-fetched; bytes
    // past the declared length (a pipelined request) are dropped, as
    // the connection closes after one response.
    let mut body = buf.split_off(head_end);
    body.truncate(content_length);
    let mut filled = body.len();
    if expects_continue && filled < content_length {
        // Best-effort: a client that did not wait is fine too.
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
    }
    body.resize(content_length, 0);
    while filled < content_length {
        match read_some(stream, &mut body[filled..], deadline)? {
            0 => {
                return Err(HttpError::Incomplete(format!(
                    "body read error: connection closed after {filled} of {content_length} bytes"
                )))
            }
            n => filled += n,
        }
    }
    Ok(Request {
        method,
        path,
        body,
        if_none_match,
    })
}

/// Standard reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one JSON response and flushes; the connection is then done
/// (`Connection: close`). Write failures are returned so the caller can
/// count them, but there is nothing more to do for this peer.
pub(crate) fn write_json_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
) -> std::io::Result<()> {
    write_json_response_with_headers(stream, status, body, &[])
}

/// [`write_json_response`] with extra response headers (e.g. a
/// deterministic `ETag`) spliced in before the blank line. A `304`
/// carries no body per RFC 9110, whatever `body` the caller passed.
pub(crate) fn write_json_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let body = if status == 304 { "" } else { body };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs the parser against a raw byte stream via a real loopback
    /// socket (the parser takes `TcpStream`, not a generic reader, to
    /// stay mirror-free with production).
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        parse_raw_in(&[raw])
    }

    /// [`parse_raw`] with the bytes sent as separate writes a short
    /// pause apart (Nagle off), so each reaches the parser as a segment
    /// of its own.
    fn parse_raw_in(segments: &[&[u8]]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let segments: Vec<Vec<u8>> = segments.iter().map(|s| s.to_vec()).collect();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            for (i, segment) in segments.iter().enumerate() {
                if i > 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                s.write_all(segment).unwrap();
            }
            // Close the write half so reads observe EOF.
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let parsed = read_request(&mut conn, None);
        writer.join().unwrap();
        parsed
    }

    /// Accepts one connection whose peer sends `raw` and then stalls
    /// (never closing), and parses it under `deadline`.
    fn parse_stalled(raw: &'static [u8], deadline: Deadline) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw).unwrap();
            // Keep the socket open (no EOF) until the parser returns.
            let _ = done_rx.recv();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let parsed = read_request(&mut conn, Some(deadline));
        let _ = done_tx.send(());
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_raw(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(
            parse_raw(b"not http at all\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x HTT"),
            Err(HttpError::Incomplete(_))
        ));
        assert!(matches!(
            parse_raw(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Incomplete(_))
        ));
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_raw(huge.as_bytes()),
            Err(HttpError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn head_and_body_split_at_every_byte_offset() {
        let raw = b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        for at in 1..raw.len() {
            let req = parse_raw_in(&[&raw[..at], &raw[at..]])
                .unwrap_or_else(|e| panic!("split at {at}: {e}"));
            assert_eq!(req.path, "/run", "split at {at}");
            assert_eq!(req.body, b"hello world", "split at {at}");
        }
    }

    #[test]
    fn body_arriving_with_the_head_is_kept() {
        // One write: the first chunked head read over-fetches into the
        // body, which is larger than a chunk, so the rest is read after.
        let body = "x".repeat(3 * HEAD_CHUNK);
        let raw = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse_raw(raw.as_bytes()).unwrap();
        assert_eq!(req.body, body.as_bytes());
        // Bytes past the declared length are not part of this request.
        let req = parse_raw(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\n\r\nabGET /").unwrap();
        assert_eq!(req.body, b"ab");
    }

    #[test]
    fn expect_continue_gets_the_interim_response_before_the_body() {
        let head = b"POST /run HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n";
        // Body in the same segment: parsed like any other request.
        let mut whole = head.to_vec();
        whole.extend_from_slice(b"abcd");
        assert_eq!(parse_raw(&whole).unwrap().body, b"abcd");
        // Body held back until the interim response arrives.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(head).unwrap();
            let mut interim = [0u8; 25];
            s.read_exact(&mut interim).unwrap();
            s.write_all(b"abcd").unwrap();
            interim
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn, Some(Deadline::after_millis(5_000))).unwrap();
        assert_eq!(&client.join().unwrap(), b"HTTP/1.1 100 Continue\r\n\r\n");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn over_cap_head_is_a_bad_request() {
        let raw = format!(
            "GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        match parse_raw(raw.as_bytes()) {
            Err(HttpError::BadRequest(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // Up to the cap, a head is fine.
        let line = "GET /x HTTP/1.1\r\nX-Pad: \r\n\r\n";
        let raw = line.replace(
            "X-Pad: ",
            &format!("X-Pad: {}", "a".repeat(MAX_HEAD_BYTES - line.len())),
        );
        assert_eq!(raw.len(), MAX_HEAD_BYTES);
        assert_eq!(parse_raw(raw.as_bytes()).unwrap().path, "/x");
    }

    #[test]
    fn idle_connection_times_out_with_a_typed_error() {
        // A peer that connects and never sends a byte.
        let err = parse_stalled(b"", Deadline::after_millis(50)).unwrap_err();
        match err {
            HttpError::Timeout(m) => assert!(m.contains("read deadline"), "{m}"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        // A peer that stalls mid-body is the same hazard.
        let err = parse_stalled(
            b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf",
            Deadline::after_millis(50),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Timeout(_)), "{err:?}");
    }

    #[test]
    fn deadline_does_not_fire_on_a_healthy_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn, Some(Deadline::after_millis(5_000))).unwrap();
        writer.join().unwrap();
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"abcd");
    }
}
