//! The serving tier: a real TCP listener in front of the container host.
//!
//! Threading model: one acceptor thread plus a small pool of workers.
//! Each worker owns its own epoll instance, its own connection table, and
//! its own dispatcher scratch buffers — accepted connections are handed
//! over round-robin through a mutex-guarded inbox plus an eventfd wake,
//! and from then on everything about a connection happens on one thread.
//! That per-worker sharding is what keeps the request path lock-free: the
//! only cross-thread touches after accept are the container handler's own
//! internals.
//!
//! Dispatch goes through [`Network::handler_for`]: the serving tier looks
//! up the handler bound at `{scheme}://{Host}{target}` and calls it
//! directly, bypassing the simulated wire. Real-socket serving charges no
//! virtual time and injects no simulated faults — the virtual-time twin
//! stays the paper-invariant instrument, this tier is the wall-clock one.
//!
//! On non-Linux hosts a portable fallback (blocking accept, one thread
//! per connection) provides the same API; the epoll path is the one the
//! benches gate.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ogsa_soap::Envelope;
use ogsa_telemetry::{wall_now_us, Counter, Histogram, MetricsRegistry, SpanKind};
use ogsa_transport::Network;

use crate::admin::{AdminDispatcher, AdminPlane, ObsConfig, ReadyState};
use crate::conn::{Conn, Dispatch, Request};
use crate::http;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Local address to listen on; port 0 picks a free port.
    pub addr: String,
    /// Worker event loops. Keep small on small hosts: each worker is a
    /// busy thread under load.
    pub workers: usize,
    /// When false every response carries `Connection: close` — the
    /// serving-tier analogue of running with the paper's socket caching
    /// disabled (§4.1.3).
    pub keep_alive: bool,
    /// Scheme used to reconstruct the bound address (`http` unless the
    /// container was deployed with a TLS policy).
    pub scheme: String,
    /// Live observability plane (admin port, wall-clock latency cells,
    /// flight recorder). On by default; [`ObsConfig::disabled`] is the
    /// instrumentation-stripped ablation.
    pub observe: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            keep_alive: true,
            scheme: "http".to_owned(),
            observe: ObsConfig::default(),
        }
    }
}

/// Error statuses the serving tier answers with, as `serve.http_errors`
/// `status` labels; anything else counts under `other`.
const ERROR_STATUSES: [&str; 8] = ["400", "404", "405", "411", "413", "431", "500", "other"];

/// Wall-clock serving counters, shared across workers: this server's cells
/// of the `serve.*` series (which sum every server on the network).
#[derive(Debug)]
pub struct ServeStats {
    accepted: Counter,
    requests: Counter,
    handshakes: Counter,
    resumptions: Counter,
    dispatch_panics: Counter,
    /// One cell per [`ERROR_STATUSES`] label.
    http_errors: [Counter; ERROR_STATUSES.len()],
}

impl ServeStats {
    fn new(metrics: &MetricsRegistry) -> Self {
        ServeStats {
            accepted: metrics.cell("serve.accepted", &[]),
            requests: metrics.cell("serve.requests", &[]),
            handshakes: metrics.cell("serve.handshakes", &[]),
            resumptions: metrics.cell("serve.resumptions", &[]),
            dispatch_panics: metrics.cell("serve.dispatch_panics", &[]),
            http_errors: ERROR_STATUSES
                .map(|s| metrics.cell("serve.http_errors", &[("status", s)])),
        }
    }

    fn http_error(&self, status: u16) -> &Counter {
        let label = ERROR_STATUSES
            .iter()
            .position(|s| s.parse::<u16>() == Ok(status))
            .unwrap_or(ERROR_STATUSES.len() - 1);
        &self.http_errors[label]
    }

    /// Connections accepted since bind.
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Requests that reached dispatch (including ones answered 4xx/5xx).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Requests answered with an error status.
    pub fn http_errors(&self) -> u64 {
        self.http_errors.iter().map(Counter::get).sum()
    }

    /// Handler panics converted into 500s.
    pub fn dispatch_panics(&self) -> u64 {
        self.dispatch_panics.get()
    }
}

/// Per-worker observability hooks: the latency cell this worker records
/// into plus shared plane handles. `None` when the plane is disabled —
/// the stripped dispatch path then touches no wall clocks at all.
struct WorkerObs {
    plane: AdminPlane,
    latency: Histogram,
    /// Scratch copy of the request target, taken before dispatch borrows
    /// the read buffer, so a retained flight trace can own it.
    target_buf: String,
}

/// Turns parsed requests into HTTP responses by calling the container
/// handler bound on the [`Network`]. One per worker: the scratch buffers
/// make the happy path allocation-free once warmed.
struct Dispatcher {
    net: Network,
    scheme: String,
    force_close: bool,
    stats: Arc<ServeStats>,
    obs: Option<WorkerObs>,
    /// Scratch for the reconstructed bound address.
    addr_buf: String,
    /// Pooled response-serialisation buffer (`Envelope::to_wire_into`).
    body_buf: String,
}

impl Dispatcher {
    fn new(
        net: Network,
        config: &ServeConfig,
        stats: Arc<ServeStats>,
        obs: Option<WorkerObs>,
    ) -> Dispatcher {
        Dispatcher {
            net,
            scheme: config.scheme.clone(),
            force_close: !config.keep_alive,
            stats,
            obs,
            addr_buf: String::with_capacity(64),
            body_buf: String::with_capacity(4096),
        }
    }

    fn answer_error(&self, error: http::HttpError, keep_alive: bool, out: &mut Vec<u8>) {
        let status = error.status();
        self.stats.http_error(status).inc();
        http::write_response(out, status, error.reason(), keep_alive, "");
    }
}

impl Dispatch for Dispatcher {
    fn dispatch(&mut self, req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>) {
        // The stripped path: exactly the pre-observability dispatch.
        let Some(mut obs) = self.obs.take() else {
            return self.handle(req, keep_alive, out);
        };
        // The instrumented path brackets the handler with a wall-clock
        // read on each side and a span capture; all sinks are per-worker
        // cells or lock-on-retention rings, so nothing here serialises
        // workers against each other.
        obs.target_buf.clear();
        obs.target_buf
            .push_str(std::str::from_utf8(req.target).unwrap_or("?"));
        let tel = self.net.telemetry().clone();
        tel.begin_capture();
        let t0 = wall_now_us();
        self.handle(req, keep_alive, out);
        let latency_us = wall_now_us().saturating_sub(t0);
        let spans = tel.end_capture();
        obs.latency.record(latency_us);
        let slow = latency_us >= obs.plane.recorder().threshold_us();
        if let Some(seq) = obs
            .plane
            .recorder()
            .offer(latency_us, &obs.target_buf, spans)
        {
            // Only threshold-crossing traces become bucket exemplars;
            // reservoir picks stay reachable via /debug/trace.
            if slow {
                obs.plane.exemplars().note(latency_us, seq);
            }
        }
        self.obs = Some(obs);
    }
}

impl Dispatcher {
    fn handle(&mut self, req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>) {
        let tel = self.net.telemetry().clone();
        let mut span = tel.span(SpanKind::Server, "serve:request");
        self.stats.requests.inc();
        // Connection-reuse ledger, mirroring the TLS session cache: the
        // first request on a connection is the "handshake", every
        // pipelined/keep-alive follow-up a "resumption".
        if req.first_on_connection {
            self.stats.handshakes.inc();
        } else {
            self.stats.resumptions.inc();
        }
        let keep_alive = keep_alive && !self.force_close;

        // SOAP dispatch is POST-only; GETs belong on the admin port.
        if req.method != http::Method::Post {
            span.set_attr("outcome", "method-not-allowed");
            return self.answer_error(http::HttpError::MethodNotAllowed, keep_alive, out);
        }

        let (Some(host), Ok(target)) = (
            req.host.and_then(|h| std::str::from_utf8(h).ok()),
            std::str::from_utf8(req.target),
        ) else {
            span.set_attr("outcome", "bad-request");
            return self.answer_error(http::HttpError::BadRequest, keep_alive, out);
        };
        self.addr_buf.clear();
        self.addr_buf.push_str(&self.scheme);
        self.addr_buf.push_str("://");
        self.addr_buf.push_str(host);
        self.addr_buf.push_str(target);

        let Some(handler) = self.net.handler_for(&self.addr_buf) else {
            span.set_attr("outcome", "not-found");
            self.stats.http_error(404).inc();
            http::write_response(out, 404, "Not Found", keep_alive, "");
            return;
        };

        let envelope = match std::str::from_utf8(req.body)
            .ok()
            .and_then(|wire| Envelope::from_wire(wire).ok())
        {
            Some(env) => env,
            None => {
                span.set_attr("outcome", "bad-envelope");
                return self.answer_error(http::HttpError::BadRequest, keep_alive, out);
            }
        };

        // The container pipeline nests its own spans under serve:request
        // (it picks up tel.current() on this thread). A panicking handler
        // must not take the worker down with it: answer 500 and move on.
        match catch_unwind(AssertUnwindSafe(|| handler(envelope))) {
            Ok(response) => {
                self.body_buf.clear();
                response.to_wire_into(&mut self.body_buf);
                span.set_attr("outcome", "ok");
                http::write_response(out, 200, "OK", keep_alive, &self.body_buf);
            }
            Err(_) => {
                span.set_attr("outcome", "panic");
                self.stats.dispatch_panics.inc();
                self.stats.http_error(500).inc();
                http::write_response(out, 500, "Internal Server Error", false, "");
            }
        }
    }
}

/// A running serving tier. Dropping (or calling [`Server::shutdown`])
/// stops the acceptor, drains the workers, and closes every connection.
pub struct Server {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    plane: Option<AdminPlane>,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    platform: platform::Shutdown,
}

impl Server {
    /// Bind the listener and start the acceptor + workers. Handlers are
    /// resolved per request, so services may be deployed on `net` before
    /// or after the server starts.
    pub fn bind(net: &Network, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServeStats::new(net.telemetry().metrics()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let admin = if config.observe.enabled {
            let admin_listener = TcpListener::bind(&config.observe.admin_addr)?;
            let admin_addr = admin_listener.local_addr()?;
            let plane = AdminPlane::new(
                config.workers.max(1),
                &config.observe,
                net.telemetry().clone(),
            );
            // Spans opened while serving carry wall timestamps from here
            // on; the deterministic exporters never render them.
            net.telemetry().set_wall_clock(true);
            Some((admin_listener, admin_addr, plane))
        } else {
            None
        };
        let plane = admin.as_ref().map(|(_, _, p)| p.clone());
        let admin_addr = admin.as_ref().map(|(_, a, _)| *a);
        let (threads, platform) = platform::start(
            net,
            &config,
            listener,
            admin.map(|(l, _, p)| (l, p)),
            stats.clone(),
            shutdown.clone(),
        )?;
        if let Some(p) = &plane {
            p.set_state(ReadyState::Ready);
        }
        Ok(Server {
            addr,
            admin_addr,
            plane,
            stats,
            shutdown,
            threads,
            platform,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin-plane address, when observability is enabled.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The live observability plane, when enabled — for registering
    /// readiness probes or inspecting the flight recorder in-process.
    pub fn plane(&self) -> Option<&AdminPlane> {
        self.plane.as_ref()
    }

    /// Wall-clock serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Stop accepting, close every connection, join every thread.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(p) = &self.plane {
            p.set_state(ReadyState::Draining);
        }
        self.platform.wake_all(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(target_os = "linux")]
mod platform {
    //! Linux: nonblocking acceptor + per-worker epoll event loops.

    use super::*;
    use crate::epoll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::net::SocketAddr;
    use std::os::fd::AsRawFd;

    /// Token reserved for each loop's eventfd; connections start above it.
    const WAKE: u64 = 0;
    /// Acceptor tokens for the service and admin listeners.
    const SERVICE_LISTENER: u64 = 1;
    const ADMIN_LISTENER: u64 = 2;

    /// Handles the shutdown path needs to reach from the control thread.
    pub(super) struct Shutdown {
        wakes: Vec<Arc<EventFd>>,
    }

    impl Shutdown {
        pub(super) fn wake_all(&self, _addr: SocketAddr) {
            for w in &self.wakes {
                w.wake();
            }
        }
    }

    struct WorkerShared {
        wake: Arc<EventFd>,
        /// Accepted connections awaiting pickup; the bool marks admin-port
        /// connections, which dispatch to the [`AdminDispatcher`].
        inbox: Mutex<Vec<(TcpStream, bool)>>,
    }

    pub(super) fn start(
        net: &Network,
        config: &ServeConfig,
        listener: TcpListener,
        admin: Option<(TcpListener, AdminPlane)>,
        stats: Arc<ServeStats>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<(Vec<JoinHandle<()>>, Shutdown)> {
        listener.set_nonblocking(true)?;
        let (admin_listener, plane) = match admin {
            Some((l, p)) => {
                l.set_nonblocking(true)?;
                (Some(l), Some(p))
            }
            None => (None, None),
        };
        let workers = config.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        let mut shared = Vec::with_capacity(workers);
        let mut wakes = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let ws = Arc::new(WorkerShared {
                wake: Arc::new(EventFd::new()?),
                inbox: Mutex::new(Vec::new()),
            });
            wakes.push(ws.wake.clone());
            shared.push(ws.clone());
            let obs = plane.as_ref().map(|p| WorkerObs {
                plane: p.clone(),
                latency: p.worker(i).latency.clone(),
                target_buf: String::with_capacity(64),
            });
            let dispatcher = Dispatcher::new(net.clone(), config, stats.clone(), obs);
            let admin_dispatcher = plane.as_ref().map(|p| AdminDispatcher::new(p.clone()));
            let worker_plane = plane.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ogsa-serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(ws, i, dispatcher, admin_dispatcher, worker_plane, shutdown)
                    })?,
            );
        }

        let accept_wake = Arc::new(EventFd::new()?);
        wakes.push(accept_wake.clone());
        {
            let stats = stats.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("ogsa-serve-accept".into())
                    .spawn(move || {
                        accept_loop(
                            listener,
                            admin_listener,
                            plane,
                            shared,
                            accept_wake,
                            stats,
                            shutdown,
                        )
                    })?,
            );
        }
        Ok((threads, Shutdown { wakes }))
    }

    /// Drain one listener's accept backlog, handing connections to the
    /// workers round-robin. Returns the advanced round-robin cursor.
    fn drain_accepts(
        listener: &TcpListener,
        is_admin: bool,
        workers: &[Arc<WorkerShared>],
        plane: &Option<AdminPlane>,
        stats: &ServeStats,
        mut next: usize,
    ) -> usize {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stats.accepted.inc();
                    let idx = next % workers.len();
                    let w = &workers[idx];
                    next += 1;
                    let depth = {
                        let mut inbox = w.inbox.lock();
                        inbox.push((stream, is_admin));
                        inbox.len() as u64
                    };
                    if let Some(p) = plane {
                        p.worker(idx)
                            .pending_handoffs
                            .store(depth, Ordering::Relaxed);
                    }
                    w.wake.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (e.g.
                // ECONNABORTED, EMFILE) must not kill the acceptor.
                Err(_) => break,
            }
        }
        next
    }

    fn accept_loop(
        listener: TcpListener,
        admin_listener: Option<TcpListener>,
        plane: Option<AdminPlane>,
        workers: Vec<Arc<WorkerShared>>,
        wake: Arc<EventFd>,
        stats: Arc<ServeStats>,
        shutdown: Arc<AtomicBool>,
    ) {
        let Ok(ep) = Epoll::new() else { return };
        if ep
            .add(listener.as_raw_fd(), EPOLLIN, SERVICE_LISTENER)
            .is_err()
        {
            return;
        }
        if let Some(al) = &admin_listener {
            if ep.add(al.as_raw_fd(), EPOLLIN, ADMIN_LISTENER).is_err() {
                return;
            }
        }
        if ep.add(wake.raw(), EPOLLIN, WAKE).is_err() {
            return;
        }
        let mut events = [EpollEvent::zeroed(); 16];
        let mut next = 0usize;
        while !shutdown.load(Ordering::SeqCst) {
            let n = match ep.wait(&mut events, -1) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in &events[..n] {
                match ev.parts().0 {
                    WAKE => {
                        wake.drain();
                    }
                    ADMIN_LISTENER => {
                        if let Some(al) = &admin_listener {
                            next = drain_accepts(al, true, &workers, &plane, &stats, next);
                        }
                    }
                    _ => {
                        next = drain_accepts(&listener, false, &workers, &plane, &stats, next);
                    }
                }
            }
        }
    }

    struct Entry {
        conn: Conn,
        wants_write: bool,
        admin: bool,
    }

    fn worker_loop(
        shared: Arc<WorkerShared>,
        index: usize,
        mut dispatcher: Dispatcher,
        mut admin_dispatcher: Option<AdminDispatcher>,
        plane: Option<AdminPlane>,
        shutdown: Arc<AtomicBool>,
    ) {
        let Ok(ep) = Epoll::new() else { return };
        if ep.add(shared.wake.raw(), EPOLLIN, WAKE).is_err() {
            return;
        }
        let gauges = plane.as_ref().map(|p| p.worker(index));
        let mut conns: HashMap<u64, Entry> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut events = [EpollEvent::zeroed(); 256];
        loop {
            let n = match ep.wait(&mut events, -1) {
                Ok(n) => n,
                Err(_) => return,
            };
            if let Some(g) = gauges {
                g.wakeups.fetch_add(1, Ordering::Relaxed);
            }
            for ev in &events[..n] {
                let (token, bits) = ev.parts();
                if token == WAKE {
                    shared.wake.drain();
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let fresh = std::mem::take(&mut *shared.inbox.lock());
                    // Depth of the hand-off queue at wake: how far the
                    // acceptor ran ahead of this worker.
                    if let Some(g) = gauges {
                        g.queue_depth.store(fresh.len() as u64, Ordering::Relaxed);
                        g.pending_handoffs.store(0, Ordering::Relaxed);
                    }
                    for (stream, admin) in fresh {
                        let Ok(conn) = Conn::new(stream) else {
                            continue;
                        };
                        let token = next_token;
                        next_token += 1;
                        if ep
                            .add(conn.stream().as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                            .is_ok()
                        {
                            conns.insert(
                                token,
                                Entry {
                                    conn,
                                    wants_write: false,
                                    admin,
                                },
                            );
                        }
                    }
                    if let Some(g) = gauges {
                        g.connections.store(conns.len() as u64, Ordering::Relaxed);
                    }
                    continue;
                }
                let Some(entry) = conns.get_mut(&token) else {
                    continue;
                };
                if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    let entry = conns.remove(&token).unwrap();
                    ep.delete(entry.conn.stream().as_raw_fd());
                    if let Some(g) = gauges {
                        g.connections.store(conns.len() as u64, Ordering::Relaxed);
                    }
                    continue;
                }
                let advance = match (&mut admin_dispatcher, entry.admin) {
                    (Some(ad), true) => entry.conn.advance(ad),
                    _ => entry.conn.advance(&mut dispatcher),
                };
                match advance {
                    crate::conn::Advance::Closed => {
                        let entry = conns.remove(&token).unwrap();
                        ep.delete(entry.conn.stream().as_raw_fd());
                        if let Some(g) = gauges {
                            g.connections.store(conns.len() as u64, Ordering::Relaxed);
                        }
                    }
                    crate::conn::Advance::Open { wants_write } => {
                        if wants_write != entry.wants_write {
                            entry.wants_write = wants_write;
                            let mut interest = EPOLLIN | EPOLLRDHUP;
                            if wants_write {
                                interest |= crate::epoll::EPOLLOUT;
                            }
                            let _ = ep.modify(entry.conn.stream().as_raw_fd(), interest, token);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod platform {
    //! Portable fallback: blocking accept, one thread per connection.

    use super::*;
    use std::net::SocketAddr;

    pub(super) struct Shutdown {
        admin_addr: Option<SocketAddr>,
    }

    impl Shutdown {
        pub(super) fn wake_all(&self, addr: SocketAddr) {
            // Unblock the acceptors with throwaway connections.
            let _ = TcpStream::connect(addr);
            if let Some(a) = self.admin_addr {
                let _ = TcpStream::connect(a);
            }
        }
    }

    fn serve_blocking(stream: TcpStream, dispatch: &mut impl Dispatch) {
        // A blocking stream makes Conn::advance a read-dispatch-write
        // cycle per call.
        let Ok(mut conn) = Conn::new(stream) else {
            return;
        };
        let _ = conn.stream().set_nonblocking(false);
        loop {
            match conn.advance(dispatch) {
                crate::conn::Advance::Closed => break,
                crate::conn::Advance::Open { .. } => {}
            }
        }
    }

    pub(super) fn start(
        net: &Network,
        config: &ServeConfig,
        listener: TcpListener,
        admin: Option<(TcpListener, AdminPlane)>,
        stats: Arc<ServeStats>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<(Vec<JoinHandle<()>>, Shutdown)> {
        let mut threads = Vec::new();
        let mut admin_addr = None;
        let plane = admin.as_ref().map(|(_, p)| p.clone());
        if let Some((admin_listener, plane)) = admin {
            admin_addr = admin_listener.local_addr().ok();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("ogsa-serve-admin-accept".into())
                    .spawn(move || {
                        for stream in admin_listener.incoming() {
                            if shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(stream) = stream else { continue };
                            let mut dispatcher = AdminDispatcher::new(plane.clone());
                            let _ = std::thread::Builder::new()
                                .name("ogsa-serve-admin-conn".into())
                                .spawn(move || serve_blocking(stream, &mut dispatcher));
                        }
                    })?,
            );
        }
        let net = net.clone();
        let config = config.clone();
        threads.push(
            std::thread::Builder::new()
                .name("ogsa-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        stats.accepted.inc();
                        let obs = plane.as_ref().map(|p| WorkerObs {
                            plane: p.clone(),
                            latency: p.worker(0).latency.clone(),
                            target_buf: String::with_capacity(64),
                        });
                        let mut dispatcher =
                            Dispatcher::new(net.clone(), &config, stats.clone(), obs);
                        let _ = std::thread::Builder::new()
                            .name("ogsa-serve-conn".into())
                            .spawn(move || serve_blocking(stream, &mut dispatcher));
                    }
                })?,
        );
        Ok((threads, Shutdown { admin_addr }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_xml::Element;
    use std::io::{Read, Write};
    use std::sync::Arc as StdArc;

    fn echo_net() -> Network {
        let net = Network::free();
        net.bind(
            "http://host-a/services/echo",
            StdArc::new(|req: Envelope| Envelope::new(req.body)),
        );
        net.bind(
            "http://host-a/services/boom",
            StdArc::new(|_req: Envelope| panic!("service blew up")),
        );
        net
    }

    fn raw_request(addr: SocketAddr, wire: &[u8]) -> String {
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(wire).unwrap();
        c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let _ = c.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = c.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    fn soap_request(target: &str, keep_alive: bool) -> Vec<u8> {
        let env = Envelope::new(Element::text_element("Ping", "hello"));
        let mut wire = Vec::new();
        http::write_request(&mut wire, target, "host-a", keep_alive, &env.to_wire());
        wire
    }

    #[test]
    fn serves_soap_over_a_real_socket() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        assert!(text.contains("hello"));
        assert_eq!(server.stats().requests(), 1);
        assert_eq!(server.stats().http_errors(), 0);
    }

    #[test]
    fn unknown_service_is_404_and_unparsable_body_400() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &soap_request("/services/nope", false));
        assert!(text.starts_with("HTTP/1.1 404 "), "got: {text}");

        let mut wire = Vec::new();
        http::write_request(
            &mut wire,
            "/services/echo",
            "host-a",
            false,
            "not xml at all",
        );
        let text = raw_request(server.addr(), &wire);
        assert!(text.starts_with("HTTP/1.1 400 "), "got: {text}");
        assert_eq!(server.stats().http_errors(), 2);
    }

    #[test]
    fn handler_panic_becomes_500_and_worker_survives() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &soap_request("/services/boom", false));
        assert!(text.starts_with("HTTP/1.1 500 "), "got: {text}");
        assert_eq!(server.stats().dispatch_panics(), 1);
        // The pool is still alive and serving.
        let text = raw_request(server.addr(), &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    }

    #[test]
    fn keep_alive_false_forces_connection_close() {
        let net = echo_net();
        let server = Server::bind(
            &net,
            ServeConfig {
                keep_alive: false,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Client asks for keep-alive; the ablation config overrides.
        let text = raw_request(server.addr(), &soap_request("/services/echo", true));
        assert!(text.contains("Connection: close"), "got: {text}");
    }

    #[test]
    fn keep_alive_charges_one_handshake_for_many_requests() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let wire = soap_request("/services/echo", true);
        let mut buf = vec![0u8; 65536];
        for _ in 0..3 {
            c.write_all(&wire).unwrap();
            let mut got = String::new();
            loop {
                let n = c.read(&mut buf).unwrap();
                assert!(n > 0);
                got.push_str(&String::from_utf8_lossy(&buf[..n]));
                if got.ends_with("Envelope>") {
                    break;
                }
            }
            assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "got: {got}");
        }
        let m = net.telemetry().metrics().snapshot();
        assert_eq!(m.counter("serve.handshakes"), 1);
        assert_eq!(m.counter("serve.resumptions"), 2);
        assert_eq!(m.counter("serve.requests"), 3);
        assert_eq!(server.stats().accepted(), 1);
    }

    #[test]
    fn two_servers_on_one_network_count_their_own_requests() {
        // Each server's stats are its own cells; the `serve.*` series sum
        // every server bound on the network (the `obs` gate's shape).
        let net = echo_net();
        let a = Server::bind(&net, ServeConfig::default()).unwrap();
        let b = Server::bind(&net, ServeConfig::default()).unwrap();
        for target in ["/services/echo", "/services/nope"] {
            let text = raw_request(a.addr(), &soap_request(target, false));
            assert!(text.starts_with("HTTP/1.1 "), "got: {text}");
        }
        for _ in 0..3 {
            let text = raw_request(b.addr(), &soap_request("/services/echo", false));
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        }
        assert_eq!((a.stats().requests(), a.stats().http_errors()), (2, 1));
        assert_eq!((b.stats().requests(), b.stats().http_errors()), (3, 0));
        let m = net.telemetry().metrics().snapshot();
        assert_eq!(m.counter("serve.requests"), 5);
        assert_eq!(m.counter("serve.http_errors{status=404}"), 1);
        assert_eq!(m.counter_total("serve.http_errors"), 1);
        assert_eq!(m.counter("serve.accepted"), 5);
    }

    fn get_request(target: &str) -> Vec<u8> {
        let mut wire = Vec::new();
        http::write_get_request(&mut wire, target, "admin", false);
        wire
    }

    #[test]
    fn get_on_the_service_port_is_405() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let text = raw_request(server.addr(), &get_request("/services/echo"));
        assert!(text.starts_with("HTTP/1.1 405 "), "got: {text}");
    }

    #[test]
    fn admin_endpoints_answer_over_the_shared_workers() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let admin = server.admin_addr().expect("observability on by default");

        // Generate some traffic so /metrics has latency observations.
        for _ in 0..3 {
            let text = raw_request(server.addr(), &soap_request("/services/echo", false));
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        }

        let health = raw_request(admin, &get_request("/healthz"));
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "got: {health}");

        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");
        assert!(ready.contains("ready"), "got: {ready}");

        let metrics = raw_request(admin, &get_request("/metrics"));
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "got: {metrics}");
        let body = metrics.split("\r\n\r\n").nth(1).unwrap();
        let exp = ogsa_telemetry::prometheus::parse_exposition(body).expect("scrape parses");
        exp.check_histograms().expect("histograms consistent");
        let count = exp
            .get("serve_request_wall_us_count", &[])
            .expect("latency histogram present");
        assert!(count.value as u64 >= 3, "got: {}", count.value);
        assert!(exp.get("serve_ready", &[]).unwrap().value as u64 == 1);

        let vars = raw_request(admin, &get_request("/vars"));
        let body = vars.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with('{'), "got: {body}");
        assert!(body.contains("\"state\":\"ready\""), "got: {body}");
        assert!(body.contains("\"workers\":["), "got: {body}");

        let nope = raw_request(admin, &get_request("/nope"));
        assert!(nope.starts_with("HTTP/1.1 404 "), "got: {nope}");

        // The admin plane is GET-only.
        let post = raw_request(admin, &soap_request("/metrics", false));
        assert!(post.starts_with("HTTP/1.1 405 "), "got: {post}");
    }

    #[test]
    fn slow_requests_are_retained_with_exemplars() {
        let net = echo_net();
        let server = Server::bind(
            &net,
            ServeConfig {
                observe: ObsConfig {
                    // Everything counts as slow: every request must be
                    // retained in full and attached as an exemplar.
                    slow_threshold_us: 0,
                    ..ObsConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let admin = server.admin_addr().unwrap();
        let text = raw_request(server.addr(), &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");

        let trace = raw_request(admin, &get_request("/debug/trace"));
        let body = trace.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("\"slow\":true"), "got: {body}");
        assert!(body.contains("/services/echo"), "got: {body}");
        assert!(body.contains("serve:request"), "got: {body}");

        let metrics = raw_request(admin, &get_request("/metrics"));
        let body = metrics.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# {seq=\""), "no exemplar in: {body}");

        let plane = server.plane().unwrap();
        assert!(!plane.recorder().is_empty());
        assert!(plane.recorder().dump().iter().all(|t| t.slow));
    }

    #[test]
    fn admin_metrics_render_one_network_wide_latency_family_with_exemplars() {
        // Two servers share one network; only `a` has the plane on. Its
        // /metrics renders every series from one gathered snapshot, and
        // its /vars counts only its own latency cells.
        let net = echo_net();
        net.bind(
            "http://host-a/services/slow",
            StdArc::new(|req: Envelope| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Envelope::new(req.body)
            }),
        );
        let a = Server::bind(
            &net,
            ServeConfig {
                observe: ObsConfig {
                    slow_threshold_us: 20_000,
                    ..ObsConfig::default()
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let b = Server::bind(
            &net,
            ServeConfig {
                observe: ObsConfig::disabled(),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for (server, target) in [
            (&b, "/services/echo"),
            (&a, "/services/echo"),
            (&b, "/services/echo"),
            (&a, "/services/echo"),
            (&b, "/services/echo"),
            (&a, "/services/slow"),
        ] {
            let text = raw_request(server.addr(), &soap_request(target, false));
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        }

        let admin = a.admin_addr().unwrap();
        let metrics = raw_request(admin, &get_request("/metrics"));
        let body = metrics.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(
            body.matches("# TYPE serve_request_wall_us histogram")
                .count(),
            1,
            "got: {body}"
        );
        let exp = ogsa_telemetry::prometheus::parse_exposition(body).expect("scrape parses");
        exp.check_histograms().expect("histograms consistent");
        assert_eq!(exp.get("serve_requests", &[]).unwrap().value, 6.0);
        let count = exp.get("serve_request_wall_us_count", &[]).unwrap();
        assert_eq!(count.value, 3.0, "only plane-enabled workers own cells");

        // The slow request's exemplar sits on its bucket's line.
        let slow = a
            .plane()
            .unwrap()
            .recorder()
            .dump()
            .into_iter()
            .find(|t| t.target == "/services/slow")
            .expect("slow request retained");
        let le = ogsa_telemetry::histogram::WALL_PROM_BUCKETS_US
            .get(ogsa_telemetry::histogram::prom_bucket_of(slow.latency_us))
            .map_or_else(|| "+Inf".to_owned(), u64::to_string);
        let line = body
            .lines()
            .find(|l| l.starts_with(&format!("serve_request_wall_us_bucket{{le=\"{le}\"}}")))
            .expect("bucket line");
        assert!(
            line.ends_with(&format!("# {{seq=\"{}\"}} {}", slow.seq, slow.latency_us)),
            "got: {line}"
        );

        let vars = raw_request(admin, &get_request("/vars"));
        assert!(vars.contains("\"requests\":3,"), "got: {vars}");
    }

    #[test]
    fn disabled_observability_binds_no_admin_port() {
        let net = echo_net();
        let server = Server::bind(
            &net,
            ServeConfig {
                observe: ObsConfig::disabled(),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert!(server.admin_addr().is_none());
        assert!(server.plane().is_none());
        let text = raw_request(server.addr(), &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
    }

    #[test]
    fn readiness_probe_failure_turns_readyz_503() {
        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let admin = server.admin_addr().unwrap();
        let healthy = StdArc::new(AtomicBool::new(true));
        let h = healthy.clone();
        server.plane().unwrap().add_ready_probe(Box::new(move || {
            if h.load(Ordering::SeqCst) {
                Ok(())
            } else {
                Err("wal disk died".to_owned())
            }
        }));
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");
        healthy.store(false, Ordering::SeqCst);
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 503 "), "got: {ready}");
        assert!(ready.contains("wal disk died"), "got: {ready}");
    }

    /// The replication-aware readiness seam: a primary whose replicas fall
    /// more than `max_lag` records behind stops advertising ready, so a
    /// load balancer drains it before the unreplicated window grows.
    #[test]
    fn replica_lag_probe_gates_readyz() {
        use ogsa_xmldb::repl::{LoopbackFabric, ReplConfig, ReplicaNode, Replicator};
        use ogsa_xmldb::wal::WalOp;
        use ogsa_xmldb::{FsyncPolicy, WalObserver};

        let net = echo_net();
        let server = Server::bind(&net, ServeConfig::default()).unwrap();
        let admin = server.admin_addr().unwrap();

        let fabric = LoopbackFabric::new();
        fabric.register("r1", ReplicaNode::new(FsyncPolicy::PerWrite));
        let repl = StdArc::new(Replicator::new(
            "primary",
            &["r1"],
            fabric.clone(),
            ReplConfig {
                quorum: 1,
                max_retries: 2,
            },
        ));
        let probe_repl = repl.clone();
        server
            .plane()
            .unwrap()
            .add_ready_probe(Box::new(move || probe_repl.lag_check(1)));

        let put = |key: &str| WalOp::Put {
            collection: "c".to_owned(),
            key: key.to_owned(),
            doc: ogsa_xml::Element::new("d"),
        };
        // In sync: ready.
        repl.on_append(&put("k1"), true);
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");

        // Partition the replica; writes pile up past the lag budget.
        fabric.sever("primary", "r1");
        repl.on_append(&put("k2"), true);
        repl.on_append(&put("k3"), true);
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 503 "), "got: {ready}");
        assert!(ready.contains("lag"), "got: {ready}");

        // Heal and catch up: ready again.
        fabric.heal("primary", "r1");
        assert!(repl.catch_up("r1"));
        let ready = raw_request(admin, &get_request("/readyz"));
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ready}");
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let net = echo_net();
        let mut server = Server::bind(&net, ServeConfig::default()).unwrap();
        let addr = server.addr();
        let text = raw_request(addr, &soap_request("/services/echo", false));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        server.shutdown();
        // Idempotent.
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly into a dead backlog; a write or
                // read must then fail fast.
                let mut c = TcpStream::connect(addr).unwrap();
                c.set_read_timeout(Some(std::time::Duration::from_secs(2)))
                    .unwrap();
                let _ = c.write_all(b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
                let mut b = [0u8; 16];
                matches!(c.read(&mut b), Ok(0) | Err(_))
            }
        );
    }
}
