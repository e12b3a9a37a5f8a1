//! A one-request-per-connection HTTP/1.1 client, matching the server's
//! `Connection: close` responses.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No request in any workload legitimately takes this long.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub etag: Option<String>,
    /// Offset of the body in the caller's buffer.
    pub body_start: usize,
}

/// Sends one request and reads the whole response into `buf` (reused
/// across calls so large bodies do not reallocate every time).
pub fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    if_none_match: Option<&str>,
    buf: &mut Vec<u8>,
) -> Result<Response, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(tag) = if_none_match {
        request.push_str("If-None-Match: ");
        request.push_str(tag);
        request.push_str("\r\n");
    }
    request.push_str("\r\n");
    let mut bytes = request.into_bytes();
    bytes.extend_from_slice(body);
    conn.write_all(&bytes).map_err(|e| format!("write: {e}"))?;
    buf.clear();
    conn.read_to_end(buf).map_err(|e| format!("read: {e}"))?;
    parse(buf)
}

fn parse(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no complete head")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let mut etag = None;
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("etag") {
                etag = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let body_start = head_end + 4;
    if length != Some(raw.len() - body_start) {
        return Err(format!(
            "body of {} bytes does not match Content-Length {length:?}",
            raw.len() - body_start
        ));
    }
    Ok(Response {
        status,
        etag,
        body_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_etag_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: \"ab\"\r\n\r\n{}";
        let r = parse(raw).expect("parses");
        assert_eq!(r.status, 200);
        assert_eq!(r.etag.as_deref(), Some("\"ab\""));
        assert_eq!(&raw[r.body_start..], b"{}");
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}").is_err());
    }
}
