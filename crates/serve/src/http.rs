//! A deliberately tiny HTTP/1.1 surface: enough to read one request line
//! plus headers from a socket and write one response, nothing more.
//!
//! The daemon speaks `Connection: close` semantics — one request per
//! connection — so there is no keep-alive state machine, no chunked
//! transfer coding, and no body parsing (every route is a `GET` query
//! string or a bodyless `POST`). Request heads are capped at 16 KiB so a
//! hostile or broken client cannot grow memory by streaming an endless
//! header section.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Upper bound on the request head (request line + headers), bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Room for a response's status line and fixed headers with a long
/// content type, so assembling one never regrows its buffer.
const HEAD_BYTES: usize = 128;

/// One parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// The path component before any `?`.
    pub path: String,
    /// The raw query string after `?` (empty when absent), still
    /// percent-encoded.
    pub query: String,
}

/// Reads one request head from `stream`.
///
/// # Errors
///
/// `InvalidData` on a malformed request line or a head exceeding 16 KiB;
/// any underlying socket error is passed through.
pub fn read_request<S: Read>(stream: S) -> io::Result<Request> {
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64));
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let method = method.to_string();
    // Drain the header section so the client sees a clean close; the
    // routes carry everything in the request line.
    let mut consumed = line.len();
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        consumed += n;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if consumed >= MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
    }
    Ok(Request {
        method,
        path,
        query,
    })
}

/// Writes one complete response and flushes. `extra_headers` are emitted
/// verbatim (no trailing CRLF), e.g. `["Retry-After: 2"]`.
///
/// The status line, headers, blank line and body are assembled in one
/// buffer and handed to `stream` in a single `write_all`: on a socket each
/// `write` is its own `send`, and a small response costs per-send latency,
/// not bytes.
pub fn write_response<S: Write>(
    mut stream: S,
    status: u16,
    content_type: &str,
    extra_headers: &[&str],
    body: &str,
) -> io::Result<()> {
    let reason = reason_phrase(status);
    let headers_len: usize = extra_headers.iter().map(|h| h.len() + 2).sum();
    let mut response = String::with_capacity(HEAD_BYTES + headers_len + body.len());
    // Formatting into a `String` cannot fail.
    let _ = write!(
        response,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for header in extra_headers {
        response.push_str(header);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The canonical reason phrase for the statuses the daemon emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_method_path_and_query() {
        let raw = b"GET /v1/cell?sku=h100&batch=8 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/cell");
        assert_eq!(req.query, "sku=h100&batch=8");
    }

    #[test]
    fn a_bare_path_has_an_empty_query() {
        let req = read_request(&b"POST /v1/drain HTTP/1.1\r\n\r\n"[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/drain");
        assert_eq!(req.query, "");
    }

    #[test]
    fn an_endless_header_section_is_rejected_not_buffered() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for _ in 0..2048 {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        let err = read_request(&raw[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_is_invalid_data() {
        assert!(read_request(&b"\r\n"[..]).is_err());
    }

    #[test]
    fn responses_carry_length_and_extra_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "text/plain", &["Retry-After: 2"], "shed\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Content-Length: 5\r\n"), "{text}");
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nshed\n"), "{text}");
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn written(status: u16, content_type: &str, extra: &[&str], body: &str) -> CountingWriter {
        let mut out = CountingWriter::default();
        write_response(&mut out, status, content_type, extra, body).unwrap();
        out
    }

    #[test]
    fn responses_match_the_golden_wire_format() {
        let golden: [(u16, &str, &[&str], &str, &str); 4] = [
            (
                200,
                "application/json",
                &["X-Olab-Outcome: executed"],
                "{\"ok\": true}\n",
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 13\r\n\
                 Connection: close\r\nX-Olab-Outcome: executed\r\n\r\n{\"ok\": true}\n",
            ),
            (
                429,
                "text/plain",
                &["Retry-After: 2"],
                "shed\n",
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/plain\r\n\
                 Content-Length: 5\r\nConnection: close\r\nRetry-After: 2\r\n\r\nshed\n",
            ),
            (
                503,
                "text/plain",
                &[],
                "",
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
                 Content-Length: 0\r\nConnection: close\r\n\r\n",
            ),
            (
                200,
                "text/plain; version=0.0.4",
                &["A: 1", "B: 2"],
                "x",
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: 1\r\nConnection: close\r\nA: 1\r\nB: 2\r\n\r\nx",
            ),
        ];
        for (status, content_type, extra, body, expected) in golden {
            let out = written(status, content_type, extra, body);
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
        }
    }

    #[test]
    fn every_response_is_one_write() {
        let statuses = [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (429, "Too Many Requests"),
            (500, "Internal Server Error"),
            (503, "Service Unavailable"),
            (504, "Gateway Timeout"),
        ];
        // Larger than the 8 KiB buffer `write!` would otherwise reach
        // for, as a `/metricsz` exposition is.
        let large = "olab_metric_total 1\n".repeat(1024);
        for (status, reason) in statuses {
            for extra in [
                &[][..],
                &["X-Olab-Outcome: coalesced", "Retry-After: 3"][..],
            ] {
                for body in ["", large.as_str()] {
                    let out = written(status, "text/plain", extra, body);
                    assert_eq!(
                        out.writes,
                        1,
                        "{status} with {extra:?}, {} B body",
                        body.len()
                    );
                    let mut expected = format!(
                        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain\r\n\
                         Content-Length: {}\r\nConnection: close\r\n",
                        body.len()
                    );
                    for header in extra {
                        expected += &format!("{header}\r\n");
                    }
                    expected += "\r\n";
                    expected += body;
                    assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
                }
            }
        }
    }
}
