//! The live observability plane for the serving tier.
//!
//! A second listener (the *admin port*) rides on the same acceptor and
//! worker epoll loops as the service port, answering bodyless GETs:
//!
//! * `GET /metrics` — Prometheus text exposition of one gathered
//!   [`MetricsRegistry`](ogsa_telemetry::MetricsRegistry) snapshot. Each
//!   worker records request latency into its own cell of the
//!   `serve.request_wall_us` histogram (merged at scrape time; workers
//!   never synchronise on the hot path), whose buckets carry tail-latency
//!   exemplars linking them to flight-recorder traces.
//! * `GET /healthz` — liveness: answers 200 while the process serves.
//! * `GET /readyz` — readiness: 200 only after startup completes, until
//!   shutdown begins, and while every registered probe (e.g. the WAL
//!   backend's disk health) passes; 503 otherwise.
//! * `GET /vars` — JSON snapshot of the serving gauges: per-worker queue
//!   depth, connection count, epoll wakeups, and accept-backlog handoffs.
//! * `GET /debug/trace` — JSON dump of the [`FlightRecorder`]: every
//!   retained slow trace plus the fast-traffic reservoir.
//!
//! Everything here is observation, never diversion: scraping merges
//! atomic counters and clones ring buffers, and the flight recorder's
//! span capture copies records that still flow (unchanged) into the
//! deterministic telemetry store, so virtual-time dumps stay
//! byte-identical whether or not the plane is enabled.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use ogsa_telemetry::prometheus::render;
use ogsa_telemetry::{ExemplarStore, FlightRecorder, Histogram, MetricsSnapshot, Telemetry};
use parking_lot::Mutex;

use crate::conn::{Dispatch, Request};
use crate::http::{self, Method};

/// Observability knobs for [`crate::ServeConfig`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch. When false no admin listener is bound, no wall
    /// clocks are read, and dispatch runs exactly as before this plane
    /// existed (the "instrumentation-stripped" arm of the obs bench).
    pub enabled: bool,
    /// Admin listener address; port 0 picks a free port.
    pub admin_addr: String,
    /// Requests at or above this wall latency are always retained in
    /// full by the flight recorder and attached as histogram exemplars.
    pub slow_threshold_us: u64,
    /// Capacity of the slow-trace ring.
    pub slow_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            admin_addr: "127.0.0.1:0".to_owned(),
            slow_threshold_us: ogsa_telemetry::flight::DEFAULT_SLOW_THRESHOLD_US,
            slow_capacity: ogsa_telemetry::flight::DEFAULT_SLOW_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// The stripped configuration: no admin port, no instrumentation.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }
}

/// Readiness of the serving tier as exposed by `/readyz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReadyState {
    /// Bound but workers not yet confirmed up.
    Starting = 0,
    /// Accepting and dispatching.
    Ready = 1,
    /// Shutdown has begun; new traffic should go elsewhere.
    Draining = 2,
}

/// A pluggable readiness probe: `Ok(())` when healthy, `Err(reason)`
/// otherwise. The durable tier registers one that reports a died WAL
/// disk; anything else the embedding process cares about can join.
pub type ReadyProbe = Box<dyn Fn() -> Result<(), String> + Send + Sync>;

/// The network-wide request-latency histogram series; every worker of
/// every plane-enabled server on the network owns one cell of it.
const REQUEST_WALL_US: &str = "serve.request_wall_us";

/// Per-worker liveness gauges, updated with relaxed stores from the
/// worker's own loop and read only at scrape time, plus the worker's
/// request-latency cell.
#[derive(Debug, Default)]
pub struct WorkerGauges {
    /// This worker's cell of the `serve.request_wall_us` series.
    pub latency: Histogram,
    /// Epoll wakeups (returns from `epoll_wait`) in this worker.
    pub wakeups: AtomicU64,
    /// Connections currently registered with this worker.
    pub connections: AtomicU64,
    /// Handoff-queue depth observed at the last inbox drain.
    pub queue_depth: AtomicU64,
    /// Connections sitting in the inbox right now (accept backlog beyond
    /// the kernel's): incremented by the acceptor, zeroed on drain.
    pub pending_handoffs: AtomicU64,
}

/// Shared state of the admin plane: exemplars, the flight recorder,
/// readiness, and per-worker gauges and latency cells. Cloning shares.
#[derive(Clone)]
pub struct AdminPlane {
    inner: Arc<PlaneInner>,
}

struct PlaneInner {
    telemetry: Telemetry,
    exemplars: ExemplarStore,
    recorder: FlightRecorder,
    state: AtomicU8,
    probes: Mutex<Vec<ReadyProbe>>,
    workers: Vec<WorkerGauges>,
}

impl AdminPlane {
    pub fn new(workers: usize, config: &ObsConfig, telemetry: Telemetry) -> AdminPlane {
        let workers = (0..workers.max(1))
            .map(|_| WorkerGauges {
                latency: telemetry.metrics().histogram_cell(REQUEST_WALL_US, &[]),
                ..WorkerGauges::default()
            })
            .collect();
        AdminPlane {
            inner: Arc::new(PlaneInner {
                telemetry,
                exemplars: ExemplarStore::new(),
                recorder: FlightRecorder::new(config.slow_threshold_us, config.slow_capacity),
                state: AtomicU8::new(ReadyState::Starting as u8),
                probes: Mutex::new(Vec::new()),
                workers,
            }),
        }
    }

    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    pub fn exemplars(&self) -> &ExemplarStore {
        &self.inner.exemplars
    }

    pub(crate) fn worker(&self, i: usize) -> &WorkerGauges {
        &self.inner.workers[i % self.inner.workers.len()]
    }

    pub fn set_state(&self, s: ReadyState) {
        self.inner.state.store(s as u8, Ordering::SeqCst);
    }

    pub fn state(&self) -> ReadyState {
        match self.inner.state.load(Ordering::SeqCst) {
            0 => ReadyState::Starting,
            1 => ReadyState::Ready,
            _ => ReadyState::Draining,
        }
    }

    /// Register a readiness probe; `/readyz` fails while any probe fails.
    pub fn add_ready_probe(&self, probe: ReadyProbe) {
        self.inner.probes.lock().push(probe);
    }

    /// Readiness verdict: the lifecycle state must be `Ready` and every
    /// registered probe must pass.
    pub fn ready(&self) -> Result<(), String> {
        match self.state() {
            ReadyState::Ready => {}
            ReadyState::Starting => return Err("starting".to_owned()),
            ReadyState::Draining => return Err("draining".to_owned()),
        }
        for probe in self.inner.probes.lock().iter() {
            probe()?;
        }
        Ok(())
    }

    /// Fold the serving gauges into a gathered metrics snapshot.
    fn fill_gauges(&self, snap: &mut MetricsSnapshot) {
        snap.set_gauge("serve.ready", &[], u64::from(self.ready().is_ok()));
        snap.set_gauge("serve.flight_traces", &[], self.inner.recorder.len() as u64);
        for (i, w) in self.inner.workers.iter().enumerate() {
            let idx = i.to_string();
            let labels: &[(&str, &str)] = &[("worker", idx.as_str())];
            snap.set_gauge(
                "serve.worker_wakeups",
                labels,
                w.wakeups.load(Ordering::Relaxed),
            );
            snap.set_gauge(
                "serve.worker_connections",
                labels,
                w.connections.load(Ordering::Relaxed),
            );
            snap.set_gauge(
                "serve.worker_queue_depth",
                labels,
                w.queue_depth.load(Ordering::Relaxed),
            );
            snap.set_gauge(
                "serve.worker_pending_handoffs",
                labels,
                w.pending_handoffs.load(Ordering::Relaxed),
            );
        }
    }

    /// The full `/metrics` body: one gathered registry snapshot with this
    /// plane's gauges and request-latency exemplars.
    pub fn render_metrics(&self) -> String {
        let mut snap = self.inner.telemetry.metrics().gather();
        self.fill_gauges(&mut snap);
        snap.exemplars
            .insert(REQUEST_WALL_US.to_owned(), self.inner.exemplars.snapshot());
        render(&snap)
    }

    /// The `/vars` body: a JSON snapshot of the live serving gauges.
    /// `requests` counts this server's own latency cells only.
    pub fn vars_json(&self) -> String {
        let requests: u64 = self.inner.workers.iter().map(|w| w.latency.count()).sum();
        let mut out = String::with_capacity(512);
        out.push_str("{\"state\":\"");
        out.push_str(match self.state() {
            ReadyState::Starting => "starting",
            ReadyState::Ready => "ready",
            ReadyState::Draining => "draining",
        });
        out.push_str("\",\"ready\":");
        out.push_str(if self.ready().is_ok() {
            "true"
        } else {
            "false"
        });
        out.push_str(",\"requests\":");
        out.push_str(&requests.to_string());
        out.push_str(",\"flight_traces\":");
        out.push_str(&self.inner.recorder.len().to_string());
        out.push_str(",\"slow_threshold_us\":");
        out.push_str(&self.inner.recorder.threshold_us().to_string());
        out.push_str(",\"workers\":[");
        for (i, w) in self.inner.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"wakeups\":");
            out.push_str(&w.wakeups.load(Ordering::Relaxed).to_string());
            out.push_str(",\"connections\":");
            out.push_str(&w.connections.load(Ordering::Relaxed).to_string());
            out.push_str(",\"queue_depth\":");
            out.push_str(&w.queue_depth.load(Ordering::Relaxed).to_string());
            out.push_str(",\"pending_handoffs\":");
            out.push_str(&w.pending_handoffs.load(Ordering::Relaxed).to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Debug for AdminPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminPlane")
            .field("state", &self.state())
            .field("workers", &self.inner.workers.len())
            .finish_non_exhaustive()
    }
}

/// Dispatcher for connections accepted on the admin port. GET-only: the
/// admin plane never mutates, so POST gets the mirror-image 405 of the
/// service port's GET refusal.
pub(crate) struct AdminDispatcher {
    plane: AdminPlane,
}

impl AdminDispatcher {
    pub(crate) fn new(plane: AdminPlane) -> AdminDispatcher {
        AdminDispatcher { plane }
    }
}

impl Dispatch for AdminDispatcher {
    fn dispatch(&mut self, req: Request<'_>, keep_alive: bool, out: &mut Vec<u8>) {
        if req.method != Method::Get {
            http::write_response_typed(
                out,
                405,
                "Method Not Allowed",
                keep_alive,
                "text/plain; charset=utf-8",
                "admin plane is GET-only\n",
            );
            return;
        }
        match req.target {
            b"/metrics" => http::write_response_typed(
                out,
                200,
                "OK",
                keep_alive,
                "text/plain; version=0.0.4; charset=utf-8",
                &self.plane.render_metrics(),
            ),
            b"/healthz" => http::write_response_typed(
                out,
                200,
                "OK",
                keep_alive,
                "text/plain; charset=utf-8",
                "ok\n",
            ),
            b"/readyz" => match self.plane.ready() {
                Ok(()) => http::write_response_typed(
                    out,
                    200,
                    "OK",
                    keep_alive,
                    "text/plain; charset=utf-8",
                    "ready\n",
                ),
                Err(reason) => http::write_response_typed(
                    out,
                    503,
                    "Service Unavailable",
                    keep_alive,
                    "text/plain; charset=utf-8",
                    &format!("not ready: {reason}\n"),
                ),
            },
            b"/vars" => http::write_response_typed(
                out,
                200,
                "OK",
                keep_alive,
                "application/json",
                &self.plane.vars_json(),
            ),
            b"/debug/trace" => http::write_response_typed(
                out,
                200,
                "OK",
                keep_alive,
                "application/json",
                &self.plane.recorder().to_json(),
            ),
            _ => http::write_response_typed(
                out,
                404,
                "Not Found",
                keep_alive,
                "text/plain; charset=utf-8",
                "unknown admin endpoint\n",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_tracks_lifecycle_and_probes() {
        let plane = AdminPlane::new(2, &ObsConfig::default(), Telemetry::disabled());
        assert_eq!(plane.ready(), Err("starting".to_owned()));
        plane.set_state(ReadyState::Ready);
        assert_eq!(plane.ready(), Ok(()));

        let healthy = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let h = healthy.clone();
        plane.add_ready_probe(Box::new(move || {
            if h.load(Ordering::SeqCst) {
                Ok(())
            } else {
                Err("disk died".to_owned())
            }
        }));
        assert_eq!(plane.ready(), Ok(()));
        healthy.store(false, Ordering::SeqCst);
        assert_eq!(plane.ready(), Err("disk died".to_owned()));
        healthy.store(true, Ordering::SeqCst);

        plane.set_state(ReadyState::Draining);
        assert_eq!(plane.ready(), Err("draining".to_owned()));
    }

    #[test]
    fn vars_json_counts_recorded_requests() {
        let plane = AdminPlane::new(2, &ObsConfig::default(), Telemetry::disabled());
        plane.worker(0).latency.record(100);
        plane.worker(1).latency.record(20_000);
        plane.worker(1).connections.store(3, Ordering::Relaxed);
        let vars = plane.vars_json();
        assert!(vars.contains("\"requests\":2"), "got: {vars}");
        assert!(vars.contains("\"connections\":3"), "got: {vars}");
        assert!(vars.contains("\"state\":\"starting\""), "got: {vars}");
    }

    #[test]
    fn metrics_render_includes_latency_histogram_and_worker_gauges() {
        let plane = AdminPlane::new(2, &ObsConfig::default(), Telemetry::disabled());
        plane.set_state(ReadyState::Ready);
        plane.worker(0).latency.record(150);
        plane.worker(0).wakeups.store(7, Ordering::Relaxed);
        let text = plane.render_metrics();
        assert!(
            text.contains("# TYPE serve_request_wall_us histogram"),
            "got: {text}"
        );
        assert!(
            text.contains("serve_request_wall_us_count 1"),
            "got: {text}"
        );
        assert!(
            text.contains("serve_worker_wakeups{worker=\"0\"} 7"),
            "got: {text}"
        );
        assert!(text.contains("serve_ready 1"), "got: {text}");
        let exp = ogsa_telemetry::prometheus::parse_exposition(&text).expect("parses");
        exp.check_histograms().expect("consistent");
    }
}
