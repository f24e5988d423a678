//! Thin std-only clients for the daemon: one-shot requests and the
//! chunked result-stream reader. Shared by `repro submit`/`watch` and
//! the integration tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A decoded one-shot response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The full body (chunked bodies are de-framed).
    pub body: String,
}

fn io_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Read the status line and headers; returns `(status, headers)`.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io_err(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    Ok((status, headers))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Read one chunk's payload; `Ok(None)` on the terminal zero chunk.
fn read_chunk(reader: &mut impl BufRead) -> std::io::Result<Option<Vec<u8>>> {
    let mut size_line = String::new();
    reader.read_line(&mut size_line)?;
    let size = vpsim_json::parse_unsigned(size_line.trim(), 16)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| io_err(format!("bad chunk size {size_line:?}")))?;
    if size == 0 {
        let mut trailer = String::new();
        let _ = reader.read_line(&mut trailer);
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    reader.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    Ok(Some(data))
}

/// Issue one request and read the whole response.
///
/// # Errors
///
/// Fails on connection errors or a response outside the supported
/// subset (no status line, bad chunk framing, non-UTF-8 body).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let mut raw = Vec::new();
    if header(&headers, "transfer-encoding").is_some_and(|v| v.contains("chunked")) {
        while let Some(chunk) = read_chunk(&mut reader)? {
            raw.extend_from_slice(&chunk);
        }
    } else if let Some(n) = header(&headers, "content-length")
        .and_then(|v| vpsim_json::parse_unsigned(v, 10))
        .and_then(|n| usize::try_from(n).ok())
    {
        raw.resize(n, 0);
        reader.read_exact(&mut raw)?;
    } else {
        reader.read_to_end(&mut raw)?;
    }
    let body = String::from_utf8(raw).map_err(|_| io_err("non-UTF-8 response body"))?;
    Ok(Response { status, body })
}

/// Stream `GET <path>` and hand each JSONL line to `on_line` as it
/// arrives. Returns the HTTP status (lines are only delivered for
/// `200`).
///
/// # Errors
///
/// Fails on connection errors or malformed chunk framing.
pub fn stream(addr: &str, path: &str, mut on_line: impl FnMut(&str)) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    if status != 200 {
        return Ok(status);
    }
    let chunked = header(&headers, "transfer-encoding").is_some_and(|v| v.contains("chunked"));
    let mut pending = String::new();
    let feed = |data: &[u8], pending: &mut String, on_line: &mut dyn FnMut(&str)| {
        pending.push_str(&String::from_utf8_lossy(data));
        while let Some(pos) = pending.find('\n') {
            let line = pending[..pos].to_owned();
            pending.drain(..=pos);
            if !line.is_empty() {
                on_line(&line);
            }
        }
    };
    if chunked {
        while let Some(chunk) = read_chunk(&mut reader)? {
            feed(&chunk, &mut pending, &mut on_line);
        }
    } else {
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf)?;
        feed(&buf, &mut pending, &mut on_line);
    }
    if !pending.is_empty() {
        on_line(&pending);
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_sizes_are_hex_digits_only() {
        let chunk = |raw: &str| read_chunk(&mut raw.as_bytes());
        assert_eq!(chunk("5\r\nhello\r\n").unwrap(), Some(b"hello".to_vec()));
        assert_eq!(chunk("0\r\n\r\n").unwrap(), None);
        assert!(chunk("+5\r\nhello\r\n").is_err());
    }
}
