//! The benchmark's one HTTP/1.1 response reader: keep-alive, pipelined,
//! `Content-Length`-framed.
//!
//! Bytes arrive in whatever pieces the socket hands over; [`ResponseReader::feed`]
//! buffers them and [`ResponseReader::next_response`] yields each complete
//! response in order. It knows only what the `/v1` server speaks: every
//! response carries `Content-Length` (no chunked bodies).

use std::fmt;

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// A response the reader cannot frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad response: {}", self.0)
    }
}

/// Largest response head accepted before the reader gives up.
const MAX_HEAD: usize = 64 * 1024;

/// Incremental reader for a stream of pipelined responses.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte in `buf`.
    pos: usize,
}

impl ResponseReader {
    /// An empty reader.
    pub fn new() -> ResponseReader {
        ResponseReader::default()
    }

    /// Appends bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` when more bytes are needed.
    pub fn next_response(&mut self) -> Result<Option<Response>, WireError> {
        let pending = &self.buf[self.pos..];
        let Some(head_len) = pending.windows(4).position(|w| w == b"\r\n\r\n") else {
            if pending.len() > MAX_HEAD {
                return Err(WireError("response head too long".to_string()));
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&pending[..head_len])
            .map_err(|_| WireError("response head is not UTF-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| WireError(format!("bad status line {status_line:?}")))?;
        let mut length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| WireError(format!("bad Content-Length {value:?}")))?,
                    );
                }
            }
        }
        let length = length.ok_or_else(|| WireError("no Content-Length".to_string()))?;
        let body_start = head_len + 4;
        if pending.len() < body_start + length {
            return Ok(None);
        }
        let body = pending[body_start..body_start + length].to_vec();
        self.pos += body_start + length;
        Ok(Some(Response { status, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"a\":\"b c\"}");
        s.extend_from_slice(
            b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nConnection: keep-alive\r\n\r\n{}",
        );
        s.extend_from_slice(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n");
        s.extend_from_slice(b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 4\r\n\r\n\r\n\r\n");
        s
    }

    fn drain(reader: &mut ResponseReader, out: &mut Vec<Response>) {
        while let Some(r) = reader.next_response().expect("well-formed stream") {
            out.push(r);
        }
    }

    #[test]
    fn drip_fed_bytes_parse_like_one_shot_bytes() {
        let bytes = stream();
        let mut one_shot = Vec::new();
        let mut reader = ResponseReader::new();
        reader.feed(&bytes);
        drain(&mut reader, &mut one_shot);
        assert_eq!(one_shot.len(), 4);
        assert_eq!(one_shot[0].status, 200);
        assert_eq!(one_shot[0].body, b"{\"a\":\"b c\"}");
        assert_eq!(one_shot[1].status, 404);
        assert_eq!(one_shot[2].body, b"");
        assert_eq!(one_shot[3].body, b"\r\n\r\n");

        for chunk in 1..=7 {
            let mut dripped = Vec::new();
            let mut reader = ResponseReader::new();
            for piece in bytes.chunks(chunk) {
                reader.feed(piece);
                drain(&mut reader, &mut dripped);
            }
            assert_eq!(dripped, one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn incomplete_body_waits_and_garbage_is_an_error() {
        let mut reader = ResponseReader::new();
        reader.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab");
        assert_eq!(reader.next_response(), Ok(None));
        reader.feed(b"cde");
        assert_eq!(reader.next_response().unwrap().unwrap().body, b"abcde");

        let mut reader = ResponseReader::new();
        reader.feed(b"SPDY/9 200 OK\r\nContent-Length: 0\r\n\r\n");
        assert!(reader.next_response().is_err());
        let mut reader = ResponseReader::new();
        reader.feed(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(reader.next_response().is_err());
    }
}
