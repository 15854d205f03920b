//! Loopback HTTP client for the engine's exposition server: one connection
//! per request (the server answers `Connection: close`), `TCP_NODELAY`,
//! response read to EOF.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A socket error the run cannot continue past.
#[derive(Debug)]
pub struct Fatal(pub String);

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Time `connect` took, in microseconds.
    pub connect_us: f64,
    /// Request plus response bytes on the wire.
    pub bytes: usize,
}

/// Send one request and read the whole response.
///
/// `EADDRNOTAVAIL` means the loopback port range is exhausted by sockets
/// in `TIME_WAIT`; every later connect would fail or stall the same way,
/// so it is reported as [`Fatal`] at once instead of letting the run crawl.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, Fatal> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(|e| {
        if e.kind() == ErrorKind::AddrNotAvailable {
            Fatal(format!(
                "connect {addr}: {e} — loopback port range exhausted (check \
                 net.ipv4.tcp_tw_reuse and ip_local_port_range)"
            ))
        } else {
            Fatal(format!("connect {addr}: {e}"))
        }
    })?;
    let connect_us = t0.elapsed().as_secs_f64() * 1e6;
    let io = |what: &str, e: std::io::Error| Fatal(format!("{what} {addr}{path}: {e}"));
    stream.set_nodelay(true).map_err(|e| io("set_nodelay", e))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| io("set timeout", e))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    // one write: head and body leave in a single segment
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body.as_bytes());
    stream.write_all(&wire).map_err(|e| io("write", e))?;
    let mut raw = Vec::with_capacity(512);
    stream.read_to_end(&mut raw).map_err(|e| io("read", e))?;
    let (status, body) = parse_response(&raw)
        .ok_or_else(|| Fatal(format!("malformed response from {addr}{path}")))?;
    Ok(Reply { status, body, connect_us, bytes: wire.len() + raw.len() })
}

/// Split a raw `HTTP/1.1` response into status code and body.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"error\":\"busy\"}";
        assert_eq!(parse_response(raw), Some((429, "{\"error\":\"busy\"}".to_string())));
        assert_eq!(parse_response(b"garbage"), None);
    }

    #[test]
    fn round_trips_against_a_socket_and_reads_to_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let n = s.read(&mut buf).unwrap();
            let got = String::from_utf8_lossy(&buf[..n]).into_owned();
            // two writes: the client must keep reading until the close
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n").unwrap();
            s.write_all(b"done").unwrap();
            got
        });
        let reply = request(addr, "POST", "/plan", "{}").unwrap();
        let got = server.join().unwrap();
        assert!(got.starts_with("POST /plan HTTP/1.1\r\n") && got.ends_with("\r\n\r\n{}"));
        assert_eq!((reply.status, reply.body.as_str()), (200, "done"));
        assert_eq!(reply.bytes, got.len() + 42);
    }

    #[test]
    fn a_dead_port_is_fatal_not_slow() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t0 = Instant::now();
        assert!(request(addr, "GET", "/healthz", "").is_err());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
