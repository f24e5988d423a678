//! A deliberately minimal HTTP/1.1 subset — just enough for the
//! campaign API, hand-rolled on `std` so the daemon carries no
//! registry dependencies.
//!
//! Supported: `GET`/`POST`, `Content-Length` bodies, chunked response
//! streaming. Everything is bounded: the request line, header count,
//! header size and body size all have hard caps, and any violation is
//! a typed one-line [`HttpError`] mapped to a `400`/`413` — never a
//! panic, however hostile the peer.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Maximum request-line and per-header-line length in bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of request headers.
pub const MAX_HEADERS: usize = 64;
/// Maximum request-body size in bytes (campaign specs are small).
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected at parse time).
    pub method: String,
    /// The request target, e.g. `/campaigns/3/results`.
    pub path: String,
    /// Raw `(name, value)` headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lower-case name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The request violated the protocol subset; the message is safe to
    /// echo back in a 400 body.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`] (maps to 413).
    BodyTooLarge(usize),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge(n) => {
                write!(
                    f,
                    "request body of {n} bytes exceeds the {MAX_BODY}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// Read one CRLF- (or LF-) terminated line, bounded by [`MAX_LINE`].
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                return Err(malformed("connection closed mid-line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| malformed("non-UTF-8 bytes in request head"))?;
                    return Ok(Some(text));
                }
                if line.len() >= MAX_LINE {
                    return Err(malformed(format!("line exceeds {MAX_LINE} bytes")));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Read and validate one request. `Ok(None)` means the peer closed the
/// connection cleanly before sending anything.
///
/// # Errors
///
/// Any protocol violation (bad request line, oversized line/body, too
/// many headers, non-numeric `Content-Length`, unsupported method)
/// returns a typed [`HttpError`].
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    let version = parts.next().unwrap_or_default();
    if parts.next().is_some() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("bad request line {request_line:?}")));
    }
    if method != "GET" && method != "POST" {
        return Err(malformed(format!("unsupported method {method:?}")));
    }
    if !path.starts_with('/') {
        return Err(malformed(format!(
            "request target {path:?} must be absolute"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or_else(|| malformed("EOF before end of headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(malformed(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("header line {line:?} lacks a colon")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(malformed(format!("invalid header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut body = Vec::new();
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| malformed(format!("non-numeric content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY {
        return Err(HttpError::BodyTooLarge(length));
    }
    if length > 0 {
        body.resize(length, 0);
        reader
            .read_exact(&mut body)
            .map_err(|_| malformed("connection closed mid-body"))?;
    }

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Write a complete (non-streaming) response.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    respond_with_headers(stream, status, content_type, &[], body)
}

/// [`respond`] with extra response headers (each a pre-formatted
/// `name: value` pair) — used for overload shedding's `Retry-After`.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn respond_with_headers(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    // One buffer, one write: a shed connection is closed with its
    // request unread, and the reset that follows must not cut a
    // response that is still being written piecemeal.
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(&format!("{name}: {value}\r\n"));
    }
    response.push_str("\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response body writer.
///
/// Each [`ChunkedWriter::chunk`] blocks until the peer drains its
/// socket — backpressure is the transport's own flow control, applied
/// per client connection.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    stream: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Write the response head and return the body writer.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn start(mut stream: W, content_type: &str) -> io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\n\
             transfer-encoding: chunked\r\nconnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Write one chunk (skipped when `data` is empty, since an empty
    /// chunk would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors (a vanished client, typically).
    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n{data}\r\n", data.len())?;
        self.stream.flush()
    }

    /// Terminate the stream.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn finish(mut self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_and_post() {
        let req = parse("GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());

        let req = parse("POST /campaigns HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn clean_eof_yields_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn bare_lf_lines_are_accepted() {
        let req = parse("GET / HTTP/1.1\nhost: x\n\n").unwrap().unwrap();
        assert_eq!(req.path, "/");
    }

    #[test]
    fn hostile_requests_are_one_line_errors() {
        let cases = [
            "NONSENSE\r\n\r\n",
            "DELETE /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/9.9\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nbroken header\r\n\r\n",
            "GET / HTTP/1.1\r\n: novalue\r\n\r\n",
            "POST / HTTP/1.1\r\ncontent-length: wat\r\n\r\n",
            "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort",
            "GET / HTTP/1.1\r\ntruncated",
        ];
        for raw in cases {
            let err = parse(raw).map(|_| ()).unwrap_err().to_string();
            assert!(!err.contains('\n'), "multi-line error for {raw:?}: {err:?}");
        }
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        match parse(&raw) {
            Err(HttpError::BodyTooLarge(n)) => assert_eq!(n, MAX_BODY + 1),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn header_count_is_bounded() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut buf = Vec::new();
        {
            let mut w = ChunkedWriter::start(&mut buf, "application/jsonl").unwrap();
            w.chunk("hello\n").unwrap();
            w.chunk("").unwrap();
            w.chunk("world\n").unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.ends_with("6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n"));
    }
}
