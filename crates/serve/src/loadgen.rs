//! Wall-clock load generator for the serving tier.
//!
//! One thread drives every connection through its own epoll instance
//! (mirroring the server's worker structure), replaying a pre-serialised
//! request template over keep-alive connections. Two modes:
//!
//! * **Closed loop** — each connection keeps exactly one request in
//!   flight; the next is sent the instant the response lands. Measures
//!   peak sustainable throughput.
//! * **Open loop** — requests arrive on a fixed global schedule
//!   regardless of completions, round-robined across connections;
//!   latency is measured from the *scheduled* arrival, so queueing delay
//!   is charged to the server the way an outside observer would see it.
//!
//! Latencies land in the same [`Histogram`] the server records into (log
//! buckets, ≤ ~3% relative error) so p50/p99/p999 come out of a fixed
//! table no matter how many requests run.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ogsa_telemetry::{Histogram, HistogramSnapshot};

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// One request in flight per connection, back-to-back.
    Closed,
    /// Fixed arrival rate (requests/second) across all connections.
    Open { rps: f64 },
}

/// One load run against a bound server.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    pub addr: SocketAddr,
    /// Concurrent keep-alive connections to hold open.
    pub connections: usize,
    /// Measured window (after warmup).
    pub duration: Duration,
    /// Requests completed before this much time are not recorded.
    pub warmup: Duration,
    pub mode: LoadMode,
    /// Request target, e.g. `/services/counter`.
    pub target: String,
    /// `Host` header value (picks the container on the network).
    pub host: String,
    /// Pre-serialised request body — signed once, replayed verbatim; the
    /// server still verifies and signs per request.
    pub body: String,
    /// When set, a scraper thread GETs `/metrics` from this admin address
    /// mid-run (halfway through the measured window) and again after the
    /// run, proving the exposition stays parseable under sustained load
    /// and that the server-side request counter squares with the
    /// client-side tally ([`ScrapeCheck`]).
    pub scrape_admin: Option<SocketAddr>,
}

/// What the optional mid-run admin scrape saw.
#[derive(Debug, Clone)]
pub struct ScrapeCheck {
    /// Whether the mid-run exposition parsed and its histograms were
    /// cumulative + consistent.
    pub mid_run_parsed: bool,
    /// `serve_requests` from the mid-run scrape.
    pub mid_run_server_requests: u64,
    /// `serve_requests` from the post-run scrape.
    pub final_server_requests: u64,
}

impl ScrapeCheck {
    /// Server-vs-client consistency: a mid-run scrape must parse, the
    /// server counter must be monotone across scrapes, and the final
    /// server-side count must cover every request the client measured
    /// (the server also counts warmup and foreign traffic, so `>=`).
    pub fn consistent_with(&self, client_requests: u64) -> bool {
        self.mid_run_parsed
            && self.mid_run_server_requests <= self.final_server_requests
            && self.final_server_requests >= client_requests
    }
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub connections_requested: usize,
    pub connections_established: usize,
    pub requests: u64,
    pub errors: u64,
    pub elapsed: Duration,
    /// Completed requests per wall-clock second over the measured window.
    pub rps: f64,
    pub mean_us: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
    pub max_us: u64,
    /// Present when [`LoadConfig::scrape_admin`] was set.
    pub scrape: Option<ScrapeCheck>,
}

// ---- RLIMIT_NOFILE ---------------------------------------------------------

/// Raise the soft open-file limit toward `want` (capped at the hard
/// limit), returning the resulting soft limit. Thousands of sockets need
/// more than the 1024 default on stock CI runners. No-op off Linux.
#[cfg(target_os = "linux")]
pub fn raise_nofile_limit(want: u64) -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    unsafe {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.cur < want {
            let raised = Rlimit {
                cur: want.min(lim.max),
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
                return raised.cur;
            }
        }
        lim.cur
    }
}

#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit(_want: u64) -> u64 {
    u64::MAX
}

// ---- response framing ------------------------------------------------------

/// Locate one complete HTTP response at the front of `buf`, returning
/// `(total_len, status)`.
fn parse_response(buf: &[u8]) -> Option<(usize, u16)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = &buf[..head_end];
    // "HTTP/1.1 NNN ..."
    if head.len() < 12 || !head.starts_with(b"HTTP/1.") {
        return Some((head_end, 999)); // unframable: force an error
    }
    let status =
        (head[9] - b'0') as u16 * 100 + (head[10] - b'0') as u16 * 10 + (head[11] - b'0') as u16;
    let mut content_length = 0usize;
    for line in head.split(|&b| b == b'\n') {
        let lower_prefix = b"content-length:";
        if line.len() > lower_prefix.len()
            && line[..lower_prefix.len()].eq_ignore_ascii_case(lower_prefix)
        {
            let digits = &line[lower_prefix.len()..];
            content_length = std::str::from_utf8(digits).ok()?.trim().parse().ok()?;
        }
    }
    let total = head_end + content_length;
    if buf.len() >= total {
        Some((total, status))
    } else {
        None
    }
}

// ---- admin scraping --------------------------------------------------------

/// Fetch one `/metrics` body from an admin address over a throwaway
/// connection (blocking; used by the scraper thread, never the hot path).
pub fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut wire = Vec::new();
    crate::http::write_get_request(&mut wire, "/metrics", "loadgen", false);
    stream.write_all(&wire)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    match text.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_owned()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "admin /metrics did not answer 200",
        )),
    }
}

/// `serve_requests` from an exposition body, when it parses cleanly with
/// consistent histograms.
fn parse_server_requests(body: &str) -> Option<u64> {
    let exp = ogsa_telemetry::prometheus::parse_exposition(body).ok()?;
    exp.check_histograms().ok()?;
    Some(exp.get("serve_requests", &[])?.value as u64)
}

// ---- the generator ---------------------------------------------------------

struct ClientConn {
    stream: TcpStream,
    /// Offset into the template for an in-progress send; `None` = idle.
    wpos: Option<usize>,
    rbuf: Vec<u8>,
    /// Send (closed) or scheduled-arrival (open) instants of in-flight
    /// requests, oldest first.
    inflight: VecDeque<Instant>,
    /// Open loop: arrivals assigned while the connection was busy.
    backlog: u32,
    dead: bool,
}

/// Run one load scenario. The template is built once; every request on
/// every connection replays the same bytes.
pub fn run(config: &LoadConfig) -> io::Result<LoadReport> {
    let mut template = Vec::new();
    crate::http::write_request(
        &mut template,
        &config.target,
        &config.host,
        true,
        &config.body,
    );
    // The scraper rides a separate thread and a separate connection, so
    // a scrape under sustained load is exactly what production sees.
    let scraper = config.scrape_admin.map(|admin| {
        let delay = config.warmup + config.duration / 2;
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            scrape_metrics(admin).ok()
        })
    });
    let mut report = imp::run(config, &template)?;
    if let Some(handle) = scraper {
        let mid = handle
            .join()
            .ok()
            .flatten()
            .as_deref()
            .and_then(parse_server_requests);
        let fin = config
            .scrape_admin
            .and_then(|a| scrape_metrics(a).ok())
            .as_deref()
            .and_then(parse_server_requests);
        report.scrape = Some(ScrapeCheck {
            mid_run_parsed: mid.is_some(),
            mid_run_server_requests: mid.unwrap_or(0),
            final_server_requests: fin.unwrap_or(0),
        });
    }
    Ok(report)
}

fn finish(
    config: &LoadConfig,
    established: usize,
    hist: &HistogramSnapshot,
    errors: u64,
    measured: Duration,
) -> LoadReport {
    let secs = measured.as_secs_f64().max(1e-9);
    LoadReport {
        connections_requested: config.connections,
        connections_established: established,
        requests: hist.count,
        errors,
        elapsed: measured,
        rps: hist.count as f64 / secs,
        mean_us: hist.mean_us(),
        p50_us: hist.quantile_us(0.50),
        p99_us: hist.quantile_us(0.99),
        p999_us: hist.quantile_us(0.999),
        max_us: hist.max_us,
        scrape: None,
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::*;
    use crate::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use std::os::fd::AsRawFd;

    pub(super) fn run(config: &LoadConfig, template: &[u8]) -> io::Result<LoadReport> {
        raise_nofile_limit(config.connections as u64 * 2 + 512);
        let ep = Epoll::new()?;
        let mut conns = Vec::with_capacity(config.connections);
        for i in 0..config.connections {
            let stream = TcpStream::connect(config.addr)?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            ep.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, i as u64)?;
            conns.push(ClientConn {
                stream,
                wpos: None,
                rbuf: Vec::new(),
                inflight: VecDeque::new(),
                backlog: 0,
                dead: false,
            });
        }
        let established = conns.len();

        let start = Instant::now();
        let measure_from = start + config.warmup;
        let deadline = measure_from + config.duration;
        let hist = Histogram::default();
        let mut errors = 0u64;

        // Closed loop: prime one request per connection. Open loop: the
        // schedule below issues them.
        let open_interval = match config.mode {
            LoadMode::Closed => {
                for (i, conn) in conns.iter_mut().enumerate() {
                    start_request(&ep, conn, i, template, Instant::now(), &mut errors);
                }
                None
            }
            LoadMode::Open { rps } => Some(Duration::from_secs_f64(1.0 / rps.max(1e-9))),
        };
        let mut next_arrival = start;
        let mut next_conn = 0usize;

        let mut events = [EpollEvent::zeroed(); 256];
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Issue every open-loop arrival that is due, on schedule.
            if let Some(interval) = open_interval {
                while next_arrival <= now {
                    let i = next_conn % conns.len();
                    next_conn += 1;
                    let scheduled = next_arrival;
                    next_arrival += interval;
                    let c = &mut conns[i];
                    if c.dead {
                        errors += 1;
                        continue;
                    }
                    c.inflight.push_back(scheduled);
                    if c.wpos.is_none() && c.inflight.len() == 1 {
                        start_request(&ep, c, i, template, scheduled, &mut errors);
                    } else {
                        c.backlog += 1;
                    }
                }
            }

            let timeout = match open_interval {
                Some(_) => next_arrival
                    .saturating_duration_since(Instant::now())
                    .min(deadline.saturating_duration_since(Instant::now()))
                    .as_millis() as i32,
                None => deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis()
                    .min(100) as i32,
            };
            let n = ep.wait(&mut events, timeout)?;
            for ev in &events[..n] {
                let (token, bits) = ev.parts();
                let i = token as usize;
                let c = &mut conns[i];
                if c.dead {
                    continue;
                }
                if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    kill(&ep, c, &mut errors);
                    continue;
                }
                if bits & EPOLLOUT != 0 {
                    continue_write(&ep, c, i, template, &mut errors);
                }
                if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                    drain_responses(
                        &ep,
                        c,
                        i,
                        template,
                        open_interval.is_some(),
                        measure_from,
                        &hist,
                        &mut errors,
                    );
                }
            }
        }
        let measured = Instant::now().saturating_duration_since(measure_from);
        Ok(finish(
            config,
            established,
            &hist.snapshot(),
            errors,
            measured,
        ))
    }

    fn interest(c: &ClientConn) -> u32 {
        let mut bits = EPOLLIN | EPOLLRDHUP;
        if c.wpos.is_some() {
            bits |= EPOLLOUT;
        }
        bits
    }

    fn kill(ep: &Epoll, c: &mut ClientConn, errors: &mut u64) {
        if !c.dead {
            c.dead = true;
            *errors += 1;
            ep.delete(c.stream.as_raw_fd());
        }
    }

    /// Begin sending one request; `at` is recorded as its start instant.
    fn start_request(
        ep: &Epoll,
        c: &mut ClientConn,
        token: usize,
        template: &[u8],
        at: Instant,
        errors: &mut u64,
    ) {
        if c.inflight.is_empty() {
            c.inflight.push_back(at);
        }
        c.wpos = Some(0);
        continue_write(ep, c, token, template, errors);
    }

    fn continue_write(
        ep: &Epoll,
        c: &mut ClientConn,
        token: usize,
        template: &[u8],
        errors: &mut u64,
    ) {
        let Some(mut pos) = c.wpos else { return };
        loop {
            match c.stream.write(&template[pos..]) {
                Ok(n) => {
                    pos += n;
                    if pos == template.len() {
                        c.wpos = None;
                        let _ = ep.modify(c.stream.as_raw_fd(), interest(c), token as u64);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    c.wpos = Some(pos);
                    let _ = ep.modify(c.stream.as_raw_fd(), interest(c), token as u64);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    kill(ep, c, errors);
                    return;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn drain_responses(
        ep: &Epoll,
        c: &mut ClientConn,
        token: usize,
        template: &[u8],
        open_loop: bool,
        measure_from: Instant,
        hist: &Histogram,
        errors: &mut u64,
    ) {
        // Read everything available.
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    kill(ep, c, errors);
                    return;
                }
                Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    kill(ep, c, errors);
                    return;
                }
            }
        }
        // Account every complete response.
        let mut consumed = 0;
        while let Some((len, status)) = parse_response(&c.rbuf[consumed..]) {
            consumed += len;
            let now = Instant::now();
            let started = c.inflight.pop_front();
            if status == 200 {
                if let Some(t0) = started {
                    if now >= measure_from && t0 >= measure_from {
                        hist.record(now.saturating_duration_since(t0).as_micros() as u64);
                    }
                }
            } else {
                *errors += 1;
            }
            if open_loop {
                if c.backlog > 0 {
                    c.backlog -= 1;
                    // Latency for the queued request still counts from its
                    // scheduled arrival, already at inflight front.
                    c.wpos = Some(0);
                    continue_write(ep, c, token, template, errors);
                }
            } else {
                start_request(ep, c, token, template, now, errors);
            }
            if c.dead {
                return;
            }
        }
        if consumed > 0 {
            c.rbuf.drain(..consumed);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    //! Portable fallback: one blocking thread per connection. Open loop
    //! paces each thread at `rps / connections` from a per-thread
    //! schedule; queueing is still charged from the scheduled instant.

    use super::*;

    pub(super) fn run(config: &LoadConfig, template: &[u8]) -> io::Result<LoadReport> {
        let start = Instant::now();
        let measure_from = start + config.warmup;
        let deadline = measure_from + config.duration;
        let per_conn_interval = match config.mode {
            LoadMode::Closed => None,
            LoadMode::Open { rps } => Some(Duration::from_secs_f64(
                config.connections as f64 / rps.max(1e-9),
            )),
        };
        let mut threads = Vec::new();
        for _ in 0..config.connections {
            let addr = config.addr;
            let template = template.to_vec();
            threads.push(std::thread::spawn(move || {
                let hist = Histogram::default();
                let mut errors = 0u64;
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return (hist.snapshot(), 1u64, false);
                };
                let _ = stream.set_nodelay(true);
                let mut rbuf = Vec::new();
                let mut chunk = [0u8; 16 * 1024];
                let mut next = Instant::now();
                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let scheduled = if let Some(interval) = per_conn_interval {
                        if next > now {
                            std::thread::sleep(next - now);
                        }
                        let s = next;
                        next += interval;
                        s
                    } else {
                        now
                    };
                    if stream.write_all(&template).is_err() {
                        errors += 1;
                        break;
                    }
                    let total = loop {
                        if let Some((len, status)) = parse_response(&rbuf) {
                            if status != 200 {
                                errors += 1;
                            }
                            break len;
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => break 0,
                            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                        }
                    };
                    if total == 0 {
                        errors += 1;
                        break;
                    }
                    rbuf.drain(..total);
                    let done = Instant::now();
                    if done >= measure_from && scheduled >= measure_from {
                        hist.record(done.saturating_duration_since(scheduled).as_micros() as u64);
                    }
                }
                (hist.snapshot(), errors, true)
            }));
        }
        let mut hist = HistogramSnapshot::default();
        let mut errors = 0u64;
        let mut established = 0usize;
        for t in threads {
            if let Ok((h, e, ok)) = t.join() {
                hist.merge(&h);
                errors += e;
                established += ok as usize;
            }
        }
        let measured = Instant::now().saturating_duration_since(measure_from);
        Ok(finish(config, established, &hist, errors, measured))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_frames_exactly() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
        assert_eq!(parse_response(wire), Some((wire.len(), 200)));
        assert_eq!(parse_response(&wire[..wire.len() - 1]), None);
        let mut two = wire.to_vec();
        two.extend_from_slice(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
        let (len, status) = parse_response(&two).unwrap();
        assert_eq!((len, status), (wire.len(), 200));
        assert_eq!(parse_response(&two[len..]), Some((two.len() - len, 404)));
    }
}
