//! A minimal HTTP/1.1 framing layer over `std::net::TcpStream`, built for
//! **persistent connections**.
//!
//! The shim situation (no registry access, so no hyper/tokio) means the
//! transport is hand-rolled; this module keeps it to exactly what the
//! serving layer needs, split so one connection can carry many requests:
//!
//! * [`read_head`] parses a request line + headers from a long-lived
//!   `BufRead` (the connection's reader), leaving the body unread — the
//!   server decides per route whether to buffer it ([`read_body_string`]),
//!   stream it (`reader.take(len)`), or discard it ([`drain_body`]).
//! * [`frame_response`] frames a response for the connection's write
//!   queue, [`write_response`] writes one to a `Write`, and
//!   [`write_continue`] writes the interim `100 Continue`, with explicit
//!   [`ConnectionDirective`] headers
//!   (`Connection: keep-alive` + `Keep-Alive: timeout=…, max=…`, or
//!   `Connection: close`).
//!
//! Because a desynchronized body would be parsed as the *next* pipelined
//! request, framing is strict where it matters for request smuggling:
//! duplicate or non-digit `Content-Length` values, `Transfer-Encoding`
//! (unsupported), whitespace before the header colon, and unknown
//! `Expect` values are all rejected with 400 — and the server closes the
//! connection rather than guess where the next request starts.

use std::io::{self, BufRead, Read, Write};
use std::time::Duration;

/// A parsed request line + headers; the body (if any) is still on the
/// reader, `content_length` bytes of it.
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// Request method (`GET`, `POST`, `DELETE`, …), uppercase.
    pub method: String,
    /// Request path (`/histories/retail/batch`), query string stripped.
    pub path: String,
    /// Declared body length (0 when the request has none).
    pub content_length: usize,
    /// The client announced `Expect: 100-continue` and is holding the
    /// body back until an interim response arrives.
    pub expect_continue: bool,
    /// What the head asks of the connection: HTTP/1.1 defaults to
    /// keep-alive unless `Connection: close` is sent; HTTP/1.0 defaults
    /// to close unless `Connection: keep-alive` is sent.
    pub keep_alive: bool,
    /// A client-supplied `X-Request-Id`, kept only when it is safe to
    /// echo into response headers and log lines (1–64 characters of
    /// `[A-Za-z0-9._-]`; see `mahif_obs::valid_request_id`). Anything
    /// else is treated as absent and the server generates its own id —
    /// reflecting arbitrary header bytes is an injection vector.
    pub request_id: Option<String>,
}

impl RequestHead {
    /// The path split on `/`, without the leading empty segment:
    /// `/histories/retail/batch` → `["histories", "retail", "batch"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (peer went away, timeout).
    Io(io::Error),
    /// The bytes were not a well-formed HTTP request. Framing can no
    /// longer be trusted, so the connection must close after the 400.
    Malformed(&'static str),
    /// The declared body exceeds the configured limit (maps to 413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Cap on the request line + headers together. Without it, a client
/// streaming newline-free bytes (or endless header lines) would grow the
/// line buffer without bound — the body caps only bound the *declared*
/// body. Distinct from (and much smaller than) any per-route body cap.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Reads one `\n`-terminated line, charging each byte against `budget`.
/// `Ok(None)` means clean EOF before the line's first byte.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (found, used) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(HttpError::Io(e)),
            };
            if buf.is_empty() {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("connection closed mid-line"));
            }
            let window = &buf[..buf.len().min(*budget)];
            match window.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    line.extend_from_slice(&window[..i]);
                    (true, i + 1)
                }
                None => {
                    if buf.len() > window.len() {
                        // The newline (if any) lies beyond the head cap.
                        return Err(HttpError::Malformed("request head exceeds the 64 KiB cap"));
                    }
                    line.extend_from_slice(window);
                    (false, window.len())
                }
            }
        };
        reader.consume(used);
        *budget -= used;
        if found {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Malformed("header bytes are not UTF-8"));
        }
        if *budget == 0 {
            return Err(HttpError::Malformed("request head exceeds the 64 KiB cap"));
        }
    }
}

/// Strict `Content-Length` value parse: optional surrounding spaces/tabs,
/// then ASCII digits only. Signs, inner whitespace, hex, or empty values
/// are rejected — with pipelining, a permissively parsed length is a
/// request-smuggling vector (the attacker desynchronizes where the next
/// request begins).
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    let v = value.trim_matches(|c| c == ' ' || c == '\t');
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed("invalid Content-Length (digits only)"));
    }
    v.parse()
        .map_err(|_| HttpError::Malformed("Content-Length out of range"))
}

/// Reads one request head from the connection's reader. `Ok(None)` is a
/// clean close (EOF before the first byte); the body — `content_length`
/// bytes — is left on the reader for the caller.
pub fn read_head<R: BufRead>(reader: &mut R) -> Result<Option<RequestHead>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    // RFC 9112 §2.2: ignore empty lines before the request line (clients
    // commonly send a stray CRLF after a POST body; on a reused
    // connection that lands here). The head budget still bounds a peer
    // streaming CRLFs forever.
    let request_line = loop {
        match read_line_capped(reader, &mut budget)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => continue,
            Some(line) => break line,
        }
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("request line has no target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("request line has no HTTP version"))?;
    // HTTP/1.1 is keep-alive by default; HTTP/1.0 must opt in.
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Malformed("unsupported HTTP version")),
    };

    let mut content_length: Option<usize> = None;
    let mut expect_continue = false;
    let mut request_id: Option<String> = None;
    loop {
        let line = match read_line_capped(reader, &mut budget)? {
            None => return Err(HttpError::Malformed("headers ended without a blank line")),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        // RFC 9112 §5.2: obsolete line folding (a header line starting
        // with whitespace continues the previous one) must be rejected in
        // requests — a proxy that merges the fold and a server that reads
        // it as a standalone header disagree about which headers exist,
        // which is a smuggling primitive.
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpError::Malformed(
                "obsolete line folding (leading whitespace) in headers",
            ));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without a colon"))?;
        // RFC 9112 §5.1: whitespace between the field name and the colon
        // must be rejected — proxies that strip it and servers that honor
        // it disagree about which header is in effect (smuggling).
        if name.ends_with(' ') || name.ends_with('\t') {
            return Err(HttpError::Malformed("whitespace before the header colon"));
        }
        if name.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                // Even two *identical* values are rejected: accepting any
                // duplicate trains clients/proxies to send them, and the
                // conflicting-pair case is where smuggling lives.
                return Err(HttpError::Malformed("duplicate Content-Length header"));
            }
            content_length = Some(parse_content_length(value)?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked bodies are unsupported; silently ignoring the header
            // while honoring Content-Length is the classic TE.CL smuggling
            // setup, so the request is refused outright.
            return Err(HttpError::Malformed(
                "Transfer-Encoding is not supported (use Content-Length)",
            ));
        } else if name.eq_ignore_ascii_case("expect") {
            if value.trim().eq_ignore_ascii_case("100-continue") {
                expect_continue = true;
            } else {
                return Err(HttpError::Malformed("unsupported Expect value"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("x-request-id") {
            let value = value.trim_matches(|c| c == ' ' || c == '\t');
            if mahif_obs::valid_request_id(value) {
                request_id = Some(value.to_string());
            }
        }
    }
    Ok(Some(RequestHead {
        method,
        path,
        content_length: content_length.unwrap_or(0),
        expect_continue,
        keep_alive,
        request_id,
    }))
}

/// Attempts to parse one request head out of an accumulating buffer (the
/// reactor's per-connection read buffer). Returns:
///
/// * `Ok(Some((head, consumed)))` — a complete head occupies
///   `buf[..consumed]` (leading stray CRLFs included); the body, if any,
///   begins at `consumed`.
/// * `Ok(None)` — the head is not complete yet; read more bytes.
/// * `Err(Malformed)` — the bytes can never become a valid head (includes
///   exceeding [`MAX_HEAD_BYTES`] without a terminator, so a slow-dribble
///   or newline-free client cannot grow the buffer without bound).
///
/// Parsing itself is delegated to [`read_head`] over the complete slice,
/// so buffered and streaming callers enforce identical strictness.
pub fn parse_head_buffered(buf: &[u8]) -> Result<Option<(RequestHead, usize)>, HttpError> {
    // Skip the stray empty lines read_head tolerates before the request
    // line — they must not satisfy the head-terminator search below.
    let mut start = 0usize;
    loop {
        match buf[start..] {
            [b'\r', b'\n', ..] => start += 2,
            [b'\n', ..] => start += 1,
            // A lone CR could still become CRLF; wait for the next byte.
            [b'\r'] => return incomplete(buf.len()),
            _ => break,
        }
    }
    if start >= buf.len() {
        return incomplete(buf.len());
    }
    // The head ends at the first empty line after the request line:
    // "\n\r\n" or "\n\n" (read_head accepts bare-LF line endings).
    let rest = &buf[start..];
    let mut end = None;
    for (i, _) in rest.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        match rest[i + 1..] {
            [b'\n', ..] => {
                end = Some(start + i + 2);
                break;
            }
            [b'\r', b'\n', ..] => {
                end = Some(start + i + 3);
                break;
            }
            _ => {}
        }
    }
    let Some(end) = end else {
        return incomplete(buf.len());
    };
    if end > MAX_HEAD_BYTES {
        return Err(HttpError::Malformed("request head exceeds the 64 KiB cap"));
    }
    let mut slice = &buf[..end];
    match read_head(&mut slice)? {
        Some(head) => Ok(Some((head, end))),
        // Unreachable in practice (a nonempty line exists), but harmless.
        None => Ok(None),
    }
}

/// Incomplete-head verdict for [`parse_head_buffered`]: still waiting —
/// unless the buffer already blew the head cap with no terminator in
/// sight.
fn incomplete(buffered: usize) -> Result<Option<(RequestHead, usize)>, HttpError> {
    if buffered >= MAX_HEAD_BYTES {
        return Err(HttpError::Malformed("request head exceeds the 64 KiB cap"));
    }
    Ok(None)
}

/// Reads exactly `len` body bytes into a UTF-8 string.
pub fn read_body_string<R: BufRead>(reader: &mut R, len: usize) -> Result<String, HttpError> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8"))
}

/// Discards `len` body bytes so the next pipelined request starts at a
/// request line, not inside a leftover body. Returns an error if the
/// bytes never arrive (the caller then closes the connection).
pub fn drain_body<R: BufRead>(reader: &mut R, len: u64) -> io::Result<()> {
    let copied = io::copy(&mut reader.take(len), &mut io::sink())?;
    if copied != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the declared body ended",
        ));
    }
    Ok(())
}

/// What the response tells the client about the connection's future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionDirective {
    /// `Connection: close` — this response is the last on the socket.
    Close,
    /// `Connection: keep-alive` plus a `Keep-Alive: timeout=…, max=…`
    /// hint: how long a parked connection may idle and how many further
    /// requests it will be allowed.
    KeepAlive {
        /// The server's keep-alive idle timeout.
        timeout: Duration,
        /// Requests left before the server closes the connection.
        remaining: usize,
    },
}

/// The reason phrase for the status codes the serving layer emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes the `100 Continue` interim response. Sent only after the server
/// has decided it *wants* the body (caps and admission passed) — an
/// unconditional interim response invites bodies the server then has to
/// drain.
pub fn write_continue<W: Write>(writer: &mut W) -> io::Result<()> {
    writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    writer.flush()
}

/// A response framed for the connection's write queue: the head (status
/// line and headers) and the body, written in that order. A small body
/// rides at the end of `head` and `body` is empty (see [`frame_response`]).
#[derive(Debug)]
pub struct Framed {
    /// Status line and headers, followed by a small body.
    pub head: Vec<u8>,
    /// A large body, handed over without a copy; empty for small ones.
    pub body: Vec<u8>,
}

/// Small responses go out as ONE write: on a keep-alive socket two tiny
/// segments interact with Nagle + delayed ACK (the second waits ~40 ms for
/// the ACK of the first), which would swamp every cheap response. Large
/// bodies already fill segments — copying megabytes behind the head would
/// only double the transient memory — so they go out as their own buffer
/// (TCP_NODELAY covers the tail segment).
const COMBINE_CAP: usize = 8 * 1024;

/// The status line and headers of a response with a `body_len`-byte body,
/// through the blank line that ends them (see [`frame_response`]).
fn response_head(
    status: u16,
    body_len: usize,
    extra: &[(&str, String)],
    directive: ConnectionDirective,
) -> String {
    let content_type = extra
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("content-type"))
        .map(|(_, value)| value.as_str())
        .unwrap_or("application/json");
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        reason(status),
        content_type,
        body_len
    );
    match directive {
        ConnectionDirective::Close => head.push_str("Connection: close\r\n"),
        ConnectionDirective::KeepAlive { timeout, remaining } => {
            head.push_str(&format!(
                "Connection: keep-alive\r\nKeep-Alive: timeout={}, max={}\r\n",
                timeout.as_secs().max(1),
                remaining
            ));
        }
    }
    for (name, value) in extra {
        if name.eq_ignore_ascii_case("content-type") {
            continue; // already merged into the framing headers above
        }
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head
}

/// Frames a complete response. `extra` headers are written verbatim after
/// the framing headers — `Retry-After` on a 429/503, `X-Request-Id`,
/// `Server-Timing` — and an extra `Content-Type` *replaces* the
/// `application/json` default (the `/metrics` exposition is
/// `text/plain`); `directive` writes the connection-lifecycle headers.
/// Header names and values must be header-safe (no CR/LF) — callers pass
/// validated or server-generated values only.
pub fn frame_response(
    status: u16,
    body: String,
    extra: &[(&str, String)],
    directive: ConnectionDirective,
) -> Framed {
    let mut head = response_head(status, body.len(), extra, directive);
    if body.len() <= COMBINE_CAP {
        head.push_str(&body);
        Framed {
            head: head.into_bytes(),
            body: Vec::new(),
        }
    } else {
        Framed {
            head: head.into_bytes(),
            body: body.into_bytes(),
        }
    }
}

/// Writes a complete response — the bytes [`frame_response`] frames — and
/// flushes.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    extra: &[(&str, String)],
    directive: ConnectionDirective,
) -> io::Result<()> {
    let mut head = response_head(status, body.len(), extra, directive);
    if body.len() <= COMBINE_CAP {
        head.push_str(body);
        writer.write_all(head.as_bytes())?;
    } else {
        writer.write_all(head.as_bytes())?;
        writer.write_all(body.as_bytes())?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn head_of(request: &str) -> Result<Option<RequestHead>, HttpError> {
        let mut reader = BufReader::new(request.as_bytes());
        read_head(&mut reader)
    }

    #[test]
    fn parses_request_line_headers_and_leaves_the_body() {
        let raw = "POST /histories/retail/batch?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbodyGET /next HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let head = read_head(&mut reader).unwrap().unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/histories/retail/batch");
        assert_eq!(head.segments(), vec!["histories", "retail", "batch"]);
        assert_eq!(head.content_length, 4);
        assert!(head.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(read_body_string(&mut reader, 4).unwrap(), "body");
        // The pipelined follow-up is intact on the same reader.
        let next = read_head(&mut reader).unwrap().unwrap();
        assert_eq!(next.path, "/next");
    }

    #[test]
    fn connection_header_and_version_drive_keep_alive() {
        let head = head_of("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!head.keep_alive);
        let head = head_of("GET /x HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!head.keep_alive, "HTTP/1.0 defaults to close");
        let head = head_of("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(head.keep_alive, "HTTP/1.0 can opt in");
        let head = head_of("GET /x HTTP/1.1\r\nConnection: Keep-Alive, TE\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(
            head.keep_alive,
            "token lists are scanned case-insensitively"
        );
        assert!(matches!(
            head_of("GET /x HTTP/2\r\n\r\n").unwrap_err(),
            HttpError::Malformed(m) if m.contains("version")
        ));
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert!(head_of("").unwrap().is_none());
    }

    #[test]
    fn smuggling_shaped_content_lengths_are_rejected() {
        // Duplicate headers — even agreeing ones — are refused; the
        // conflicting pair is the request-smuggling primitive.
        for dup in [
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nbody",
        ] {
            assert!(
                matches!(
                    head_of(dup).unwrap_err(),
                    HttpError::Malformed(m) if m.contains("duplicate Content-Length")
                ),
                "{dup}"
            );
        }
        // Signs, inner whitespace, lists, hex, empty: digits only.
        for bad in ["+4", "-4", "4 4", "4,4", "0x4", "", " ", "4b"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length:{bad}\r\n\r\n");
            assert!(
                matches!(head_of(&raw).unwrap_err(), HttpError::Malformed(_)),
                "Content-Length {bad:?} must be rejected"
            );
        }
        // Surrounding OWS is fine; the value itself must be digits.
        let head = head_of("POST /x HTTP/1.1\r\nContent-Length:  17\t\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.content_length, 17);
        // Whitespace before the colon hides the header from strict peers.
        assert!(matches!(
            head_of("POST /x HTTP/1.1\r\nContent-Length : 4\r\n\r\nbody").unwrap_err(),
            HttpError::Malformed(m) if m.contains("colon")
        ));
        // Transfer-Encoding (the TE.CL setup) is refused outright.
        assert!(matches!(
            head_of("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            HttpError::Malformed(m) if m.contains("Transfer-Encoding")
        ));
        // Obsolete line folding: a proxy that merges the fold sees one
        // harmless header; honoring the folded line as a standalone
        // Content-Length would desynchronize framing against it.
        assert!(matches!(
            head_of("POST /x HTTP/1.1\r\nX-Ignore: a\r\n Content-Length: 100\r\n\r\n")
                .unwrap_err(),
            HttpError::Malformed(m) if m.contains("folding")
        ));
        assert!(matches!(
            head_of("POST /x HTTP/1.1\r\n\tContent-Length: 4\r\n\r\nbody").unwrap_err(),
            HttpError::Malformed(m) if m.contains("folding")
        ));
    }

    #[test]
    fn stray_crlf_before_the_request_line_is_skipped() {
        // RFC 9112 §2.2: clients commonly send an extra CRLF after a POST
        // body; on a reused connection the next head read must skip it.
        let raw = "\r\n\r\nGET /after HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let head = read_head(&mut reader).unwrap().unwrap();
        assert_eq!(head.path, "/after");
        // A stream of pure CRLFs still hits the head cap, not a spin.
        let endless = "\r\n".repeat(40 * 1024);
        assert!(matches!(
            head_of(&endless).unwrap_err(),
            HttpError::Malformed(m) if m.contains("64 KiB")
        ));
    }

    #[test]
    fn unbounded_heads_are_cut_off_at_the_cap() {
        // A newline-free request line bigger than the head cap must error
        // out instead of buffering forever.
        let huge = format!("GET /{} HTTP/1.1", "a".repeat(80 * 1024));
        assert!(matches!(
            head_of(&huge).unwrap_err(),
            HttpError::Malformed(m) if m.contains("64 KiB")
        ));
        // Endless header lines hit the same cap.
        let mut many_headers = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..8_000 {
            many_headers.push_str(&format!("X-{i}: {}\r\n", "v".repeat(16)));
        }
        assert!(matches!(
            head_of(&many_headers).unwrap_err(),
            HttpError::Malformed(m) if m.contains("64 KiB")
        ));
        // The head cap does not constrain the body: a body bigger than
        // the head cap still reads fine.
        let body = "b".repeat(2 * MAX_HEAD_BYTES);
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut reader = BufReader::new(raw.as_bytes());
        let head = read_head(&mut reader).unwrap().unwrap();
        assert_eq!(
            read_body_string(&mut reader, head.content_length).unwrap(),
            body
        );
    }

    #[test]
    fn drain_body_skips_exactly_the_declared_bytes() {
        let raw = "xxxxGET /after HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        drain_body(&mut reader, 4).unwrap();
        let head = read_head(&mut reader).unwrap().unwrap();
        assert_eq!(head.path, "/after");
        // A body the peer never finishes is an error, not a silent short
        // drain.
        let mut reader = BufReader::new(&b"xy"[..]);
        assert!(drain_body(&mut reader, 5).is_err());
    }

    #[test]
    fn responses_carry_connection_lifecycle_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", &[], ConnectionDirective::Close).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(
            text.contains("Content-Type: application/json\r\n"),
            "{text}"
        );

        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "{}",
            &[("Retry-After", "1".to_string())],
            ConnectionDirective::KeepAlive {
                timeout: Duration::from_secs(5),
                remaining: 7,
            },
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Keep-Alive: timeout=5, max=7\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    }

    #[test]
    fn framing_matches_write_response_and_moves_large_bodies() {
        for len in [2, 64 * 1024] {
            let body = "x".repeat(len);
            let ptr = body.as_ptr();
            let mut written = Vec::new();
            write_response(&mut written, 200, &body, &[], ConnectionDirective::Close).unwrap();
            let framed = frame_response(200, body, &[], ConnectionDirective::Close);
            assert_eq!(written, [framed.head.as_slice(), &framed.body].concat());
            if len > 8 * 1024 {
                assert_eq!(framed.body.as_ptr(), ptr, "moved, not copied");
            } else {
                assert!(framed.body.is_empty(), "a small body rides in the head");
            }
        }
    }

    #[test]
    fn extra_headers_are_written_and_content_type_is_overridable() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "# metrics",
            &[
                ("Content-Type", "text/plain; version=0.0.4".to_string()),
                ("X-Request-Id", "abc123".to_string()),
                ("Server-Timing", "parse;dur=0.1".to_string()),
            ],
            ConnectionDirective::Close,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{text}"
        );
        assert!(
            !text.contains("application/json"),
            "an extra Content-Type replaces the default: {text}"
        );
        assert_eq!(
            text.matches("Content-Type").count(),
            1,
            "exactly one Content-Type header: {text}"
        );
        assert!(text.contains("X-Request-Id: abc123\r\n"), "{text}");
        assert!(text.contains("Server-Timing: parse;dur=0.1\r\n"), "{text}");
    }

    #[test]
    fn request_ids_are_parsed_and_unsafe_ones_discarded() {
        let head = head_of("GET /x HTTP/1.1\r\nX-Request-Id:  client-42.a_b \r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.request_id.as_deref(), Some("client-42.a_b"));
        // Unsafe or overlong ids are treated as absent, not as errors.
        let head = head_of("GET /x HTTP/1.1\r\nX-Request-Id: no spaces allowed\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.request_id, None);
        let long = "a".repeat(65);
        let head = head_of(&format!("GET /x HTTP/1.1\r\nX-Request-Id: {long}\r\n\r\n"))
            .unwrap()
            .unwrap();
        assert_eq!(head.request_id, None);
        let head = head_of("GET /x HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(head.request_id, None);
    }

    #[test]
    fn buffered_head_parse_tracks_completeness_exactly() {
        let raw = b"POST /histories/retail/batch HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /next HTTP/1.1\r\n\r\n";
        // Every strict prefix that lacks the blank line is incomplete.
        let head_len = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        for cut in 0..head_len {
            assert!(
                parse_head_buffered(&raw[..cut]).unwrap().is_none(),
                "cut at {cut} must be incomplete"
            );
        }
        let (head, consumed) = parse_head_buffered(raw).unwrap().unwrap();
        assert_eq!(consumed, head_len);
        assert_eq!(head.path, "/histories/retail/batch");
        assert_eq!(head.content_length, 4);
        // The body and the pipelined follow-up sit beyond `consumed`,
        // untouched.
        assert_eq!(&raw[consumed..consumed + 4], b"body");
    }

    #[test]
    fn buffered_head_parse_skips_stray_crlf_and_rejects_oversize() {
        let (head, consumed) = parse_head_buffered(b"\r\n\r\nGET /after HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(head.path, "/after");
        assert_eq!(consumed, 4 + "GET /after HTTP/1.1\r\n\r\n".len());
        // Pure CRLFs with no request line yet: still waiting.
        assert!(parse_head_buffered(b"\r\n\r\n").unwrap().is_none());
        assert!(parse_head_buffered(b"\r\n\r").unwrap().is_none());
        // A newline-free flood can never become a head: reject at the cap
        // instead of buffering forever.
        let flood = vec![b'a'; MAX_HEAD_BYTES];
        assert!(matches!(
            parse_head_buffered(&flood).unwrap_err(),
            HttpError::Malformed(m) if m.contains("64 KiB")
        ));
        // Same verdict as the streaming parser for strict-framing
        // violations once the head is complete.
        assert!(matches!(
            parse_head_buffered(
                b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody"
            )
            .unwrap_err(),
            HttpError::Malformed(m) if m.contains("duplicate Content-Length")
        ));
    }

    #[test]
    fn reasons_cover_the_emitted_codes() {
        for status in [200, 201, 400, 404, 405, 409, 413, 422, 429, 500, 503] {
            assert_ne!(reason(status), "Unknown", "{status}");
        }
    }
}
