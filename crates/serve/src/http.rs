//! Minimal HTTP/1.1 framing over `TcpStream`.
//!
//! The server speaks just enough HTTP for a JSON API: request line +
//! headers + `Content-Length` body in, status line + JSON body out, with
//! keep-alive connections (the client holds one connection for its whole
//! session). Anything fancier — chunked encoding, multipart, TLS — is out
//! of scope by design; the interesting machinery lives in the session
//! pool and job runner, not the framing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (64 MiB — a featured table upload).
pub const MAX_BODY: usize = 64 << 20;

/// Initial capacity of a request body's buffer, whatever `Content-Length`
/// promises; it grows with the bytes actually received.
const BODY_CHUNK: usize = 64 << 10;

/// Largest accepted request line / header line.
const MAX_LINE: usize = 16 << 10;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request path, without the query string.
    pub path: String,
    /// Raw query string (everything after `?`, empty when absent). The
    /// protocol uses it only for boolean flags — see
    /// [`Request::query_flag`].
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// False when the client sent `Connection: close`.
    pub keep_alive: bool,
}

impl Request {
    /// True when the query string enables flag `name`: bare (`?profile`),
    /// `=1`, or `=true`. `=0`/`=false` (or absence) leave it off.
    pub fn query_flag(&self, name: &str) -> bool {
        self.query.split('&').any(|pair| {
            let (k, v) = match pair.split_once('=') {
                Some((k, v)) => (k, v),
                None => (pair, ""),
            };
            k == name && matches!(v, "" | "1" | "true")
        })
    }
}

/// Read one request off a keep-alive connection. Returns `Ok(None)` on a
/// clean EOF between requests (client hung up), an error on malformed
/// framing mid-request.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let line = match read_line(reader, true)? {
        Some(l) => l,
        None => return Ok(None),
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_ascii_uppercase(), p.to_string(), v)
        }
        _ => return Err(bad(format!("malformed request line {line:?}"))),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    loop {
        let header = read_line(reader, false)?.ok_or_else(|| bad("eof in headers"))?;
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header {header:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| bad("bad content-length"))?;
                if content_length > MAX_BODY {
                    return Err(bad("body too large"));
                }
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    // The buffer follows the bytes that arrive, not the header: a
    // connection that declares 64 MiB and sends nothing costs one chunk.
    let mut body = Vec::with_capacity(content_length.min(BODY_CHUNK));
    reader
        .by_ref()
        .take(content_length as u64)
        .read_to_end(&mut body)?;
    if body.len() != content_length {
        return Err(bad("eof mid-body"));
    }
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

/// One CRLF (or bare-LF) terminated line, without the terminator.
/// `at_request_boundary` turns a clean EOF into `None` instead of an
/// error.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    at_request_boundary: bool,
) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return if at_request_boundary && buf.is_empty() {
                Ok(None)
            } else {
                Err(bad("eof mid-line"))
            };
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                buf.extend_from_slice(&available[..nl]);
                reader.consume(nl + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                let line = String::from_utf8(buf).map_err(|_| bad("non-utf8 header"))?;
                return Ok(Some(line));
            }
            None => {
                buf.extend_from_slice(available);
                let n = available.len();
                reader.consume(n);
                if buf.len() > MAX_LINE {
                    return Err(bad("header line too long"));
                }
            }
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reason phrase for the status codes the protocol uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a JSON response. Head and body go out in one `write` so a
/// response is never split across two TCP segments waiting on Nagle +
/// delayed ACK (callers also set `TCP_NODELAY`, but one write keeps the
/// fast path fast even without it).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_typed(stream, status, "application/json", body, keep_alive)
}

/// [`write_response`] with an explicit `Content-Type` — the `/metrics`
/// endpoint answers in Prometheus text exposition format, not JSON.
pub fn write_response_typed(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}
