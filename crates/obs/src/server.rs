//! Embedded exposition + intake server: a nonblocking multi-connection
//! HTTP/1.1 responder on a single `mio` readiness loop. No async runtime,
//! no HTTP dependency.
//!
//! Routes:
//!
//! * `GET /metrics`  — Prometheus text format 0.0.4
//! * `GET /snapshot` — the engine's `MetricsSnapshot` as JSON
//! * `GET /healthz`  — liveness: 200 while the server thread is alive
//! * `GET /readyz`   — readiness: 200/503 from the [`ObsHooks::readiness`] hook
//! * `GET /profile`  — collapsed-stack profiler samples (404 when no profiler)
//! * `GET /flight`   — flight-recorder ring status JSON (404 when no recorder)
//! * `GET /slo`      — per-tenant SLO budgets/alerts JSON (404 when no SLO engine)
//! * `POST /plan`    — planning intake (404 when no [`ObsHooks::plan`] hook):
//!   200 with the response JSON, 400 on a malformed body, or 429 +
//!   `Retry-After` when the tenant's shard refuses admission
//!
//! One thread, many connections: every socket is nonblocking and driven by
//! readiness events, so a slow or stalled client occupies a connection
//! slot, never the server. A `/plan` request whose solve is still running
//! parks in a *pending* state and is polled between readiness events —
//! scrapes keep flowing while plans compute. Responses are assembled fully
//! in memory with a `Content-Length` header and `Connection: close`, so a
//! scraper can never observe a torn body short of a socket error.
//! Shutdown is cooperative: a stop flag plus a self-connect to wake the
//! poll, then a join.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::net::{TcpListener as MioListener, TcpStream as MioStream};
use mio::{Events, Interest, Poll, Token};

/// Readiness verdict served on `/readyz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Readiness {
    /// `true` → 200, `false` → 503.
    pub ready: bool,
    /// Short plain-text explanation included in the response body, e.g.
    /// `"queue depth 131 over high-water 128"`.
    pub detail: String,
}

impl Readiness {
    pub fn ready(detail: impl Into<String>) -> Self {
        Self { ready: true, detail: detail.into() }
    }

    pub fn not_ready(detail: impl Into<String>) -> Self {
        Self { ready: false, detail: detail.into() }
    }
}

/// What the host decided about one `POST /plan` body.
pub enum PlanDecision {
    /// Admission refused (shard queue over high-water): answered 429 with
    /// a `Retry-After` header derived from `retry_after_ms` (rounded up to
    /// whole seconds, min 1).
    Busy { retry_after_ms: u64, body: String },
    /// Request invalid (or intake unsupported): answered with `status`.
    Reject { status: u16, body: String },
    /// Request accepted; poll the [`PendingPlan`] for the eventual
    /// response.
    Accepted(PendingPlan),
}

/// An accepted plan's completion probe. Called between readiness events;
/// returns `None` while the solve is still running, `Some((status, json))`
/// once the response is ready. Must never block — the whole server runs on
/// one thread.
pub type PendingPlan = Box<dyn FnMut() -> Option<(u16, String)> + Send>;

/// What the server serves. The engine (or any host) supplies closures so
/// `rrp-obs` never needs to know engine types — the dependency points the
/// other way.
pub struct ObsHooks {
    /// Body of `/metrics` (Prometheus text format).
    pub metrics_text: Box<dyn Fn() -> String + Send + Sync>,
    /// Body of `/snapshot` (JSON).
    pub snapshot_json: Box<dyn Fn() -> String + Send + Sync>,
    /// Verdict for `/readyz`.
    pub readiness: Box<dyn Fn() -> Readiness + Send + Sync>,
    /// Body of `/profile` (collapsed-stack text). `None` → the route
    /// answers 404, so hosts without a profiler expose nothing new.
    pub profile_text: Option<Box<dyn Fn() -> String + Send + Sync>>,
    /// Body of `/flight` (flight-recorder status JSON). `None` → 404.
    pub flight_json: Option<Box<dyn Fn() -> String + Send + Sync>>,
    /// Body of `/slo` (per-tenant budget/burn/exemplar JSON). `None` → 404.
    pub slo_json: Option<Box<dyn Fn() -> String + Send + Sync>>,
    /// `POST /plan` intake: given the request body, admit/refuse/reject.
    /// `None` → the route answers 404. Must not block (admission control
    /// is the refusal path, not queueing inside the hook).
    pub plan: Option<Box<dyn Fn(&str) -> PlanDecision + Send + Sync>>,
}

/// Request head cap: anything longer is not a client we serve (431).
const HEAD_CAP: usize = 8 * 1024;
/// `POST /plan` body cap (413 beyond it).
const BODY_CAP: usize = 256 * 1024;
/// A connection must deliver its full request within this long.
const READ_DEADLINE: Duration = Duration::from_secs(5);
/// An accepted plan must produce its response within this long (the
/// engine enforces per-request deadlines far below this; the cap only
/// bounds a wedged worker's hold on a connection).
const PENDING_DEADLINE: Duration = Duration::from_secs(30);
/// Poll timeout while any plan is pending (the host files completion in
/// memory, not on an fd, so it must be polled) vs. fully idle.
const PENDING_POLL: Duration = Duration::from_millis(2);
const IDLE_POLL: Duration = Duration::from_millis(200);

const LISTENER: Token = Token(0);

/// A running exposition server. Dropping it shuts it down gracefully.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    poll_thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`, or `"127.0.0.1:0"` for an
    /// ephemeral port) and start serving. Fails only if the bind or the
    /// poll setup fails.
    pub fn bind<A: ToSocketAddrs>(addr: A, hooks: ObsHooks) -> std::io::Result<Self> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut listener = MioListener::from_std(listener)?;
        let poll = Poll::new()?;
        poll.registry().register(&mut listener, LISTENER, Interest::READABLE)?;
        let stop = Arc::new(AtomicBool::new(false));
        let poll_thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("rrp-obs-poll".to_string())
                .spawn(move || event_loop(poll, listener, stop, hooks))?
        };
        Ok(Self { addr: local, stop, poll_thread: Some(poll_thread) })
    }

    /// The bound address — use with `127.0.0.1:0` to learn the port.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the poll loop, and join it. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the poll with a throwaway connection so the flag is seen
        // immediately rather than at the next timeout
        if let Ok(s) = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250)) {
            drop(s);
        }
        if let Some(h) = self.poll_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection state machine: read the request, maybe park on a
/// pending plan, write the response, close.
enum ConnState {
    /// Accumulating the request head (+ body for `POST /plan`).
    Reading,
    /// `/plan` accepted; polling the probe for the response.
    Pending(PendingPlan, Instant),
    /// Response assembled; draining it to the socket.
    Writing { out: Vec<u8>, written: usize },
}

struct Conn {
    stream: MioStream,
    buf: Vec<u8>,
    state: ConnState,
    /// Read-phase deadline (slow-loris bound).
    read_deadline: Instant,
}

enum Step {
    /// Keep the connection; `true` → its interest changed to writable.
    Keep {
        now_writing: bool,
    },
    Drop,
}

fn event_loop(mut poll: Poll, listener: MioListener, stop: Arc<AtomicBool>, hooks: ObsHooks) {
    let mut events = Events::with_capacity(64);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token: usize = 1;
    loop {
        let pending = conns.values().any(|c| matches!(c.state, ConnState::Pending(..)));
        let timeout = if pending { PENDING_POLL } else { IDLE_POLL };
        if poll.poll(&mut events, Some(timeout)).is_err() {
            // a failing selector is unrecoverable; stop serving rather
            // than spin
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        for event in &events {
            match event.token() {
                LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let mut stream = stream;
                            let token = next_token;
                            next_token += 1;
                            if poll
                                .registry()
                                .register(&mut stream, Token(token), Interest::READABLE)
                                .is_ok()
                            {
                                conns.insert(
                                    token,
                                    Conn {
                                        stream,
                                        buf: Vec::with_capacity(512),
                                        state: ConnState::Reading,
                                        read_deadline: now + READ_DEADLINE,
                                    },
                                );
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                },
                Token(t) => {
                    let Some(conn) = conns.get_mut(&t) else { continue };
                    let step = match &mut conn.state {
                        ConnState::Reading if event.is_readable() => on_readable(conn, &hooks),
                        ConnState::Writing { .. } if event.is_writable() => on_writable(conn),
                        ConnState::Pending(..) if event.is_readable() => {
                            // drain (and detect close); a client hanging up
                            // mid-solve frees the slot, the worker's reply
                            // lands in a dropped probe's slot harmlessly
                            let mut sink = [0u8; 256];
                            match conn.stream.read(&mut sink) {
                                Ok(0) => Step::Drop,
                                Ok(_) => Step::Keep { now_writing: false },
                                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                    Step::Keep { now_writing: false }
                                }
                                Err(_) => Step::Drop,
                            }
                        }
                        _ => Step::Keep { now_writing: false },
                    };
                    advance(&poll, &mut conns, t, step);
                }
            }
        }
        // between readiness events: poll pending plans, expire deadlines
        let tokens: Vec<usize> = conns.keys().copied().collect();
        for t in tokens {
            let Some(conn) = conns.get_mut(&t) else { continue };
            let step = match &mut conn.state {
                ConnState::Pending(probe, deadline) => match probe() {
                    Some((status, body)) => {
                        start_response(conn, status, "application/json", &body, &[]);
                        Step::Keep { now_writing: true }
                    }
                    None if now > *deadline => {
                        start_response(
                            conn,
                            504,
                            "application/json",
                            "{\"error\":\"plan timed out\"}",
                            &[],
                        );
                        Step::Keep { now_writing: true }
                    }
                    None => Step::Keep { now_writing: false },
                },
                ConnState::Reading if now > conn.read_deadline => {
                    // slow-loris bound: a client may not hold a slot open
                    // with a dribbled request
                    start_response(
                        conn,
                        408,
                        "text/plain; charset=utf-8",
                        "request timeout\n",
                        &[],
                    );
                    Step::Keep { now_writing: true }
                }
                _ => Step::Keep { now_writing: false },
            };
            advance(&poll, &mut conns, t, step);
        }
    }
}

/// Apply a state-machine step: switch interest to writable, try the first
/// write eagerly, or drop the connection.
fn advance(poll: &Poll, conns: &mut HashMap<usize, Conn>, token: usize, step: Step) {
    match step {
        Step::Keep { now_writing: false } => {}
        Step::Keep { now_writing: true } => {
            let Some(conn) = conns.get_mut(&token) else { return };
            // eager first write: most responses fit the socket buffer, so
            // the common case finishes without another poll round-trip
            match on_writable(conn) {
                Step::Drop => {
                    conns.remove(&token);
                }
                Step::Keep { .. } => {
                    let keep = poll
                        .registry()
                        .reregister(&mut conn.stream, Token(token), Interest::WRITABLE)
                        .is_ok();
                    if !keep {
                        conns.remove(&token);
                    }
                }
            }
        }
        Step::Drop => {
            conns.remove(&token);
        }
    }
}

/// Read whatever the socket has; dispatch once the request is complete.
fn on_readable(conn: &mut Conn, hooks: &ObsHooks) -> Step {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Step::Drop,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                if conn.buf.len() > HEAD_CAP + BODY_CAP {
                    start_response(
                        conn,
                        413,
                        "text/plain; charset=utf-8",
                        "payload too large\n",
                        &[],
                    );
                    return Step::Keep { now_writing: true };
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Step::Drop,
        }
    }
    dispatch_if_complete(conn, hooks)
}

/// If the buffered bytes hold a complete request, route it and move to
/// `Writing`/`Pending`; otherwise keep reading.
fn dispatch_if_complete(conn: &mut Conn, hooks: &ObsHooks) -> Step {
    let Some(head_end) = find_head_end(&conn.buf) else {
        if conn.buf.len() >= HEAD_CAP {
            start_response(
                conn,
                431,
                "text/plain; charset=utf-8",
                "request header too large\n",
                &[],
            );
            return Step::Keep { now_writing: true };
        }
        return Step::Keep { now_writing: false };
    };
    let head = String::from_utf8_lossy(&conn.buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default();
    let path = path.split('?').next().unwrap_or(path).to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);

    if method == "POST" && path == "/plan" {
        if content_length > BODY_CAP {
            start_response(conn, 413, "text/plain; charset=utf-8", "payload too large\n", &[]);
            return Step::Keep { now_writing: true };
        }
        let body_start = head_end + 4;
        if conn.buf.len() < body_start + content_length {
            // body still in flight
            return Step::Keep { now_writing: false };
        }
        let Some(plan) = &hooks.plan else {
            start_response(
                conn,
                404,
                "text/plain; charset=utf-8",
                "no planning intake attached\n",
                &[],
            );
            return Step::Keep { now_writing: true };
        };
        let body = String::from_utf8_lossy(&conn.buf[body_start..body_start + content_length])
            .into_owned();
        match plan(&body) {
            PlanDecision::Reject { status, body } => {
                start_response(conn, status, "application/json", &body, &[]);
                Step::Keep { now_writing: true }
            }
            PlanDecision::Busy { retry_after_ms, body } => {
                let retry_after_s = retry_after_ms.div_ceil(1000).max(1);
                let header = format!("Retry-After: {retry_after_s}\r\n");
                start_response(conn, 429, "application/json", &body, &[&header]);
                Step::Keep { now_writing: true }
            }
            PlanDecision::Accepted(probe) => {
                conn.state = ConnState::Pending(probe, Instant::now() + PENDING_DEADLINE);
                Step::Keep { now_writing: false }
            }
        }
    } else {
        let (status, content_type, body) = route_get(&method, &path, hooks);
        start_response(conn, status, content_type, &body, &[]);
        Step::Keep { now_writing: true }
    }
}

/// The GET routes (and the method guard). Identical taxonomy to the
/// pre-scale-out server.
fn route_get(method: &str, path: &str, hooks: &ObsHooks) -> (u16, &'static str, String) {
    if method != "GET" {
        return (405, "text/plain; charset=utf-8", "method not allowed\n".to_string());
    }
    match path {
        "/metrics" => (200, "text/plain; version=0.0.4; charset=utf-8", (hooks.metrics_text)()),
        "/snapshot" => (200, "application/json", (hooks.snapshot_json)()),
        "/healthz" => (200, "text/plain; charset=utf-8", "ok\n".to_string()),
        "/readyz" => {
            let r = (hooks.readiness)();
            let code = if r.ready { 200 } else { 503 };
            (code, "text/plain; charset=utf-8", format!("{}\n", r.detail))
        }
        "/profile" => match &hooks.profile_text {
            Some(f) => (200, "text/plain; charset=utf-8", f()),
            None => (404, "text/plain; charset=utf-8", "no profiler attached\n".to_string()),
        },
        "/flight" => match &hooks.flight_json {
            Some(f) => (200, "application/json", f()),
            None => (404, "text/plain; charset=utf-8", "no flight recorder attached\n".to_string()),
        },
        "/slo" => match &hooks.slo_json {
            Some(f) => (200, "application/json", f()),
            None => (404, "text/plain; charset=utf-8", "no slo engine attached\n".to_string()),
        },
        "/plan" => (405, "text/plain; charset=utf-8", "method not allowed\n".to_string()),
        _ => (404, "text/plain; charset=utf-8", "not found\n".to_string()),
    }
}

/// Assemble the full response into the connection's write buffer.
fn start_response(
    conn: &mut Conn,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[&str],
) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    };
    let mut out = Vec::with_capacity(body.len() + 160);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n",
            body.len()
        )
        .as_bytes(),
    );
    for h in extra_headers {
        out.extend_from_slice(h.as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
    conn.state = ConnState::Writing { out, written: 0 };
}

/// Drain the write buffer; close the connection when done.
fn on_writable(conn: &mut Conn) -> Step {
    let ConnState::Writing { out, written } = &mut conn.state else {
        return Step::Keep { now_writing: false };
    };
    while *written < out.len() {
        match conn.stream.write(&out[*written..]) {
            Ok(0) => return Step::Drop,
            Ok(n) => *written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return Step::Keep { now_writing: false }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Step::Drop,
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Write);
    Step::Drop
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A minimal HTTP/1.1 client for this server's routes: send one request
/// (`body` with a `Content-Length`) and read the `Connection: close`
/// response to its end. Returns `(status, head, body)`; `None` on any
/// socket error or malformed response — a refused connect after a good
/// scrape means the server went away.
pub fn http_request<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Option<(u16, String, String)> {
    let addr = addr.to_socket_addrs().ok()?.next()?;
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    let (body, len) = (body.unwrap_or(""), body.map_or(0, str::len));
    let head = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len}\r\n");
    s.write_all(format!("{head}\r\n{body}").as_bytes()).ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, head.to_string(), body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_hooks(ready: Arc<AtomicBool>) -> ObsHooks {
        ObsHooks {
            metrics_text: Box::new(|| "m_total 1\n".to_string()),
            snapshot_json: Box::new(|| "{\"completed\":1}".to_string()),
            readiness: Box::new(move || {
                if ready.load(Ordering::SeqCst) {
                    Readiness::ready("ok")
                } else {
                    Readiness::not_ready("queue over high-water")
                }
            }),
            profile_text: Some(Box::new(|| "request;milp 3\n".to_string())),
            flight_json: Some(Box::new(|| "{\"ring_events\":2}".to_string())),
            slo_json: Some(Box::new(|| "{\"schema\":\"rrp-slo/1\"}".to_string())),
            plan: None,
        }
    }

    #[test]
    fn routes_and_status_codes() {
        let ready = Arc::new(AtomicBool::new(true));
        let server =
            ObsServer::bind("127.0.0.1:0", test_hooks(Arc::clone(&ready))).expect("ephemeral bind");
        let addr = server.local_addr();

        let (code, _, body) = http_request(addr, "GET", "/metrics", None).expect("metrics scrape");
        assert_eq!(code, 200);
        assert_eq!(body, "m_total 1\n");

        let (code, _, body) = http_request(addr, "GET", "/snapshot", None).expect("snapshot fetch");
        assert_eq!(code, 200);
        assert!(body.contains("\"completed\":1"));

        let (code, _, _) = http_request(addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(code, 200);

        let (code, _, body) = http_request(addr, "GET", "/readyz", None).expect("readyz up");
        assert_eq!(code, 200);
        assert_eq!(body, "ok\n");

        ready.store(false, Ordering::SeqCst);
        let (code, _, body) = http_request(addr, "GET", "/readyz", None).expect("readyz degraded");
        assert_eq!(code, 503);
        assert!(body.contains("high-water"), "{body}");

        let (code, _, body) = http_request(addr, "GET", "/profile", None).expect("profile fetch");
        assert_eq!(code, 200);
        assert_eq!(body, "request;milp 3\n");

        let (code, _, body) = http_request(addr, "GET", "/flight", None).expect("flight fetch");
        assert_eq!(code, 200);
        assert!(body.contains("\"ring_events\":2"), "{body}");

        let (code, _, body) = http_request(addr, "GET", "/slo", None).expect("slo fetch");
        assert_eq!(code, 200);
        assert!(body.contains("rrp-slo/1"), "{body}");

        let (code, _, _) = http_request(addr, "GET", "/nope", None).expect("unknown route");
        assert_eq!(code, 404);
    }

    #[test]
    fn profiling_routes_404_without_hooks() {
        let ready = Arc::new(AtomicBool::new(true));
        let mut hooks = test_hooks(ready);
        hooks.profile_text = None;
        hooks.flight_json = None;
        hooks.slo_json = None;
        let server = ObsServer::bind("127.0.0.1:0", hooks).expect("ephemeral bind");
        let addr = server.local_addr();
        assert_eq!(http_request(addr, "GET", "/profile", None).expect("profile").0, 404);
        assert_eq!(http_request(addr, "GET", "/flight", None).expect("flight").0, 404);
        assert_eq!(http_request(addr, "GET", "/slo", None).expect("slo").0, 404);
    }

    #[test]
    fn non_get_is_rejected() {
        let ready = Arc::new(AtomicBool::new(true));
        let server = ObsServer::bind("127.0.0.1:0", test_hooks(ready)).expect("ephemeral bind");
        let addr = server.local_addr();
        let (code, _, _) = http_request(addr, "POST", "/metrics", Some("")).expect("post");
        assert_eq!(code, 405);
        // and /plan without an intake hook is 404, not 405
        let (code, _, _) = http_request(addr, "POST", "/plan", Some("{}")).expect("plan post");
        assert_eq!(code, 404);
        let (code, _, _) = http_request(addr, "GET", "/plan", None).expect("plan get");
        assert_eq!(code, 405, "GET /plan is the wrong method even with no hook");
    }

    #[test]
    fn shutdown_stops_serving_and_is_idempotent() {
        let ready = Arc::new(AtomicBool::new(true));
        let mut server = ObsServer::bind("127.0.0.1:0", test_hooks(ready)).expect("ephemeral bind");
        let addr = server.local_addr();
        assert!(http_request(addr, "GET", "/healthz", None).is_some(), "alive before shutdown");
        server.shutdown();
        server.shutdown(); // second call is a no-op
                           // the listener is gone: either the connect fails outright or the
                           // connection is never answered
        if let Some((code, _, _)) = http_request(addr, "GET", "/healthz", None) {
            panic!("server answered after shutdown with {code}");
        }
    }

    #[test]
    fn slow_client_does_not_block_other_connections() {
        let ready = Arc::new(AtomicBool::new(true));
        let server = ObsServer::bind("127.0.0.1:0", test_hooks(ready)).expect("ephemeral bind");
        let addr = server.local_addr();
        // a slow-loris connection: partial request head, then silence
        let mut loris = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
        loris.write_all(b"GET /metrics HT").expect("partial head");
        // …and a handful of idle connections holding slots open
        let idle: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("idle conn"))
            .collect();
        // scrapes must keep answering promptly while all of those sit open
        let t0 = Instant::now();
        for _ in 0..3 {
            let (code, _, _) =
                http_request(addr, "GET", "/healthz", None).expect("healthz during loris");
            assert_eq!(code, 200);
        }
        assert!(
            t0.elapsed() < READ_DEADLINE,
            "scrapes stalled behind a slow client: {:?}",
            t0.elapsed()
        );
        drop(idle);
        drop(loris);
    }

    #[test]
    fn many_concurrent_scrapes_all_answer() {
        let ready = Arc::new(AtomicBool::new(true));
        let server = ObsServer::bind("127.0.0.1:0", test_hooks(ready)).expect("ephemeral bind");
        let addr = server.local_addr();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    s.spawn(move || {
                        let path = if i % 2 == 0 { "/metrics" } else { "/snapshot" };
                        let (code, _, body) =
                            http_request(addr, "GET", path, None).expect("scrape");
                        assert_eq!(code, 200);
                        assert!(!body.is_empty());
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("scrape thread");
            }
        });
    }

    fn plan_hooks(decision: impl Fn(&str) -> PlanDecision + Send + Sync + 'static) -> ObsHooks {
        let mut hooks = test_hooks(Arc::new(AtomicBool::new(true)));
        hooks.plan = Some(Box::new(decision));
        hooks
    }

    #[test]
    fn plan_intake_round_trips_through_pending() {
        // the probe answers on its third poll, standing in for a solve
        // that finishes a few event-loop iterations later
        let hooks = plan_hooks(|body| {
            assert!(body.contains("tenant-1"), "hook sees the body: {body}");
            let mut polls = 0u32;
            PlanDecision::Accepted(Box::new(move || {
                polls += 1;
                (polls >= 3).then(|| (200, "{\"objective\":1.25}".to_string()))
            }))
        });
        let server = ObsServer::bind("127.0.0.1:0", hooks).expect("ephemeral bind");
        let (code, _, body) =
            http_request(server.local_addr(), "POST", "/plan", Some("{\"app_id\":\"tenant-1\"}"))
                .expect("plan round trip");
        assert_eq!(code, 200);
        assert!(body.contains("\"objective\":1.25"), "{body}");
    }

    #[test]
    fn plan_busy_maps_to_429_with_retry_after() {
        let hooks = plan_hooks(|_| PlanDecision::Busy {
            retry_after_ms: 1500,
            body: "{\"error\":\"busy\"}".to_string(),
        });
        let server = ObsServer::bind("127.0.0.1:0", hooks).expect("ephemeral bind");
        let (code, head, body) =
            http_request(server.local_addr(), "POST", "/plan", Some("{}")).expect("busy");
        assert_eq!(code, 429);
        assert!(head.contains("Retry-After: 2"), "1500ms rounds up to 2s: {head}");
        assert!(body.contains("busy"), "{body}");
    }

    #[test]
    fn plan_reject_maps_to_status() {
        let hooks = plan_hooks(|_| PlanDecision::Reject {
            status: 400,
            body: "{\"error\":\"invalid JSON\"}".to_string(),
        });
        let server = ObsServer::bind("127.0.0.1:0", hooks).expect("ephemeral bind");
        let (code, _, body) =
            http_request(server.local_addr(), "POST", "/plan", Some("not json")).expect("reject");
        assert_eq!(code, 400);
        assert!(body.contains("invalid JSON"), "{body}");
    }

    #[test]
    fn oversized_plan_body_is_413() {
        let hooks = plan_hooks(|_| PlanDecision::Reject { status: 400, body: String::new() });
        let server = ObsServer::bind("127.0.0.1:0", hooks).expect("ephemeral bind");
        let addr = server.local_addr();
        let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        // Content-Length alone over the cap: refused before any body bytes
        s.write_all(
            format!("POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", BODY_CAP + 1)
                .as_bytes(),
        )
        .expect("send head");
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 413"), "{text}");
    }
}
