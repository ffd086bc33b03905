//! A blocking HTTP/1.1 keep-alive client connection: one request in
//! flight, as a synchronous grid proxy would keep it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Split a bound address like `http://host-a/services/X` into
/// (`host-a`, `/services/X`).
pub fn split_address(address: &str) -> Option<(&str, &str)> {
    let rest = address.split_once("://")?.1;
    let slash = rest.find('/')?;
    Some((&rest[..slash], &rest[slash..]))
}

pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
}

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(HttpConn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            out: Vec::with_capacity(8 * 1024),
        })
    }

    /// Frame `body` as a keep-alive POST and write it out.
    pub fn send(&mut self, host: &str, target: &str, body: &str) -> io::Result<()> {
        self.out.clear();
        ogsa_serve::http::write_request(&mut self.out, target, host, true, body);
        self.stream.write_all(&self.out)
    }

    /// Read one response; returns (status, body).
    pub fn recv(&mut self) -> io::Result<(u16, String)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((status, head_len, len)) = parse_response_head(&self.buf)? {
                while self.buf.len() < head_len + len {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer closed mid-body",
                        ));
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                let body =
                    String::from_utf8_lossy(&self.buf[head_len..head_len + len]).into_owned();
                self.buf.drain(..head_len + len);
                return Ok((status, body));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// (status, head length, content length) once a whole head is buffered.
fn parse_response_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let status = head
        .get(9..12)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let len = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("no Content-Length"))?;
    Ok(Some((status, end + 4, len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_addresses_and_parses_heads() {
        assert_eq!(
            split_address("http://host-a/services/Counter"),
            Some(("host-a", "/services/Counter"))
        );
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse_response_head(wire).unwrap(), Some((200, 38, 3)));
        assert_eq!(parse_response_head(b"HTTP/1.1 200 OK\r\n").unwrap(), None);
    }
}
