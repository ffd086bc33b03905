//! Causal tracing and virtual-time metrics for the simulated OGSA substrate.
//!
//! The paper's argument is quantitative — *where* a WSRF or WS-Transfer
//! request spends its time (Xindice, WS-Security, the wire) and *how many*
//! messages each interaction pattern costs. This crate records exactly that:
//!
//! * [`Telemetry`] hands out RAII [`Span`] guards. Every client invoke opens
//!   a trace; container pipeline stages, security processing, database
//!   operations, wire crossings, and one-way delivery attempts nest under it
//!   via a per-thread context stack, and trace/span IDs ride the simulated
//!   wire in `tel:` SOAP headers (next to WS-Addressing `MessageID`) so the
//!   tree survives process — here: thread — hops.
//! * Injected faults, backoff sleeps, redelivery attempts, and dead letters
//!   are span *events*, timestamped on the virtual clock like everything
//!   else. Under the network's synchronous-delivery mode a whole run is
//!   single-threaded, so two runs of the same seed produce byte-identical
//!   span dumps.
//! * [`MetricsRegistry`] keeps monotonic counters and virtual-time latency
//!   histograms keyed by `name{label=value,...}` series.
//! * [`export`] renders Chrome-trace JSON (load in `chrome://tracing` /
//!   Perfetto), sorted JSONL span dumps, and metrics JSON; [`analysis`]
//!   folds a span forest into per-kind self-time — the db/security/wire
//!   component breakdowns of `BENCH_counter.json` and `BENCH_gridbox.json`.

mod metrics;
mod span;

pub mod analysis;
pub mod export;
pub mod flight;
pub mod prometheus;
pub mod wallclock;
pub mod wire;

pub use flight::{FlightRecorder, FlightTrace};
pub use metrics::{
    series_key, Counter, Histogram, MetricsRegistry, MetricsSnapshot, LATENCY_BUCKETS_US,
};
pub use span::{SpanEvent, SpanId, SpanKind, SpanRecord, TraceId};
pub use wallclock::{
    wall_now_us, Exemplar, ExemplarStore, ShardedWallHistogram, WallHistogram, WallSnapshot,
};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ogsa_sim::{SimInstant, VirtualClock};
use parking_lot::Mutex;

thread_local! {
    /// Per-thread stack of open spans, keyed by Telemetry instance (the
    /// `Arc` pointer). Thread-local instead of a shared
    /// `Mutex<HashMap<ThreadId, ...>>`: span open/close is the serving
    /// tier's hot path, and a global lock there is exactly the kind of
    /// cross-worker synchronisation the observability plane must not add.
    static CTX: RefCell<HashMap<usize, Vec<(TraceId, SpanId)>>> =
        RefCell::new(HashMap::new());
    /// Per-thread capture buffers, keyed the same way. While a capture is
    /// active, this thread's finished spans are copied here — even on a
    /// globally disabled instance — so a serving worker can collect one
    /// request's span tree for the flight recorder without turning on
    /// unbounded global span accumulation.
    static CAPTURE: RefCell<HashMap<usize, Vec<SpanRecord>>> =
        RefCell::new(HashMap::new());
}

/// The tracing handle: shared by everything wired to one virtual clock
/// (cloning shares the store). A disabled instance ([`Telemetry::disabled`])
/// costs one branch per call and records nothing.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

struct TelemetryInner {
    clock: VirtualClock,
    enabled: bool,
    /// Next span id; trace ids are drawn from the same counter (a trace id
    /// is its root span's id), so both are unique per instance.
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
    /// When set, spans additionally carry monotonic host-clock stamps
    /// ([`wallclock::wall_now_us`]). Excluded from every deterministic
    /// exporter; read by the live-observability plane.
    wall: AtomicBool,
}

impl Telemetry {
    /// An enabled instance recording against `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                clock,
                enabled: true,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
                wall: AtomicBool::new(false),
            }),
        }
    }

    /// An instance that records nothing (for components constructed without
    /// a testbed).
    pub fn disabled() -> Self {
        let mut t = Telemetry::new(VirtualClock::new());
        // Safe: we are the only holder right after construction.
        Arc::get_mut(&mut t.inner)
            .expect("freshly constructed")
            .enabled = false;
        t
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The key identifying this instance (shared by clones) in the
    /// thread-local context/capture maps.
    fn instance_key(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// Stamp wall-clock timestamps onto spans from now on. Wall stamps are
    /// excluded from the deterministic exporters, so flipping this cannot
    /// change any virtual-time figure or dump.
    pub fn set_wall_clock(&self, on: bool) {
        self.inner.wall.store(on, Ordering::Relaxed);
    }

    pub fn wall_clock_enabled(&self) -> bool {
        self.inner.wall.load(Ordering::Relaxed)
    }

    /// Start capturing this thread's finished spans into a private buffer.
    /// Works even on a disabled instance — the global store stays empty (or,
    /// on an enabled instance, is fed exactly as without the capture), so
    /// deterministic dumps are unaffected. The serving tier brackets each
    /// request with this to feed the flight recorder.
    pub fn begin_capture(&self) {
        let key = self.instance_key();
        CAPTURE.with(|c| {
            c.borrow_mut().insert(key, Vec::new());
        });
    }

    /// Stop the capture started by [`Telemetry::begin_capture`] and return
    /// the spans this thread finished since. Empty if no capture was active.
    pub fn end_capture(&self) -> Vec<SpanRecord> {
        let key = self.instance_key();
        CAPTURE
            .with(|c| c.borrow_mut().remove(&key))
            .unwrap_or_default()
    }

    /// Is a capture active on this thread for this instance?
    pub fn is_capturing(&self) -> bool {
        let key = self.instance_key();
        CAPTURE.with(|c| c.borrow().contains_key(&key))
    }

    /// Should spans opened on this thread record right now?
    fn recording_here(&self) -> bool {
        self.inner.enabled || self.is_capturing()
    }

    /// The innermost open span on this thread, if any.
    pub fn current(&self) -> Option<(TraceId, SpanId)> {
        if !self.recording_here() {
            return None;
        }
        let key = self.instance_key();
        CTX.with(|c| c.borrow().get(&key).and_then(|stack| stack.last().copied()))
    }

    /// Open a span under the thread's current context; with no context open,
    /// this starts a **new trace** rooted here.
    pub fn span(&self, kind: SpanKind, name: &'static str) -> Span {
        if !self.recording_here() {
            return Span { state: None };
        }
        match self.current() {
            Some((trace, parent)) => self.open(kind, name, trace, Some(parent)),
            None => {
                let id = self.next_id();
                self.open_with_id(kind, name, TraceId(id.0), None, id)
            }
        }
    }

    /// Open a span with explicit parentage — how a delivery worker thread
    /// re-joins the sender's trace carried in the message headers.
    pub fn child_span(
        &self,
        kind: SpanKind,
        name: &'static str,
        trace: TraceId,
        parent: Option<SpanId>,
    ) -> Span {
        if !self.recording_here() {
            return Span { state: None };
        }
        self.open(kind, name, trace, parent)
    }

    fn next_id(&self) -> SpanId {
        SpanId(self.inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn open(
        &self,
        kind: SpanKind,
        name: &'static str,
        trace: TraceId,
        parent: Option<SpanId>,
    ) -> Span {
        let id = self.next_id();
        self.open_with_id(kind, name, trace, parent, id)
    }

    fn open_with_id(
        &self,
        kind: SpanKind,
        name: &'static str,
        trace: TraceId,
        parent: Option<SpanId>,
        id: SpanId,
    ) -> Span {
        let key = self.instance_key();
        CTX.with(|c| c.borrow_mut().entry(key).or_default().push((trace, id)));
        let wall_start = if self.inner.wall.load(Ordering::Relaxed) {
            Some(wallclock::wall_now_us())
        } else {
            None
        };
        Span {
            state: Some(SpanState {
                tel: self.clone(),
                trace,
                id,
                parent,
                name,
                kind,
                start: self.inner.clock.now(),
                wall_start,
                attrs: Vec::new(),
                events: Vec::new(),
            }),
        }
    }

    fn record(&self, record: SpanRecord) {
        let key = self.instance_key();
        CAPTURE.with(|c| match c.borrow_mut().get_mut(&key) {
            Some(buf) => {
                // A capture observes; it never diverts. The global store is
                // fed exactly as it would be without the capture, so
                // deterministic dumps are unchanged by live observation.
                if self.inner.enabled {
                    self.inner.spans.lock().push(record.clone());
                }
                buf.push(record);
            }
            None => {
                if self.inner.enabled {
                    self.inner.spans.lock().push(record);
                }
            }
        });
    }

    fn pop_ctx(&self, trace: TraceId, id: SpanId) {
        let key = self.instance_key();
        CTX.with(|c| {
            let mut ctx = c.borrow_mut();
            if let Some(stack) = ctx.get_mut(&key) {
                if let Some(pos) = stack.iter().rposition(|&e| e == (trace, id)) {
                    stack.remove(pos);
                }
                if stack.is_empty() {
                    ctx.remove(&key);
                }
            }
        });
    }

    /// Copies of every finished span, in finish order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().clone()
    }

    /// Drain the finished spans (a fresh measurement window).
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.inner.spans.lock())
    }

    /// Forget finished spans without returning them.
    pub fn clear_spans(&self) {
        self.inner.spans.lock().clear();
    }

    pub fn span_count(&self) -> usize {
        self.inner.spans.lock().len()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.enabled)
            .field("finished_spans", &self.span_count())
            .finish()
    }
}

struct SpanState {
    tel: Telemetry,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    kind: SpanKind,
    start: SimInstant,
    wall_start: Option<u64>,
    attrs: Vec<(&'static str, String)>,
    events: Vec<SpanEvent>,
}

/// An open span. Dropping it stamps the end time (virtual clock) and files
/// the record. All methods are no-ops on a disabled instance's spans.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// A span that records nothing (placeholder on untraced paths).
    pub fn noop() -> Span {
        Span { state: None }
    }

    /// Is this span actually recording?
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    pub fn trace_id(&self) -> Option<TraceId> {
        self.state.as_ref().map(|s| s.trace)
    }

    pub fn id(&self) -> Option<SpanId> {
        self.state.as_ref().map(|s| s.id)
    }

    /// Attach a key/value attribute.
    pub fn set_attr(&mut self, key: &'static str, value: impl AsRef<str>) {
        if let Some(s) = &mut self.state {
            s.attrs.push((key, value.as_ref().to_owned()));
        }
    }

    /// Record a point event at the current virtual time.
    pub fn event(&mut self, name: &'static str) {
        self.event_with(name, &[]);
    }

    /// Record a point event with attributes at the current virtual time.
    pub fn event_with(&mut self, name: &'static str, attrs: &[(&'static str, &str)]) {
        if let Some(s) = &mut self.state {
            let at = s.tel.inner.clock.now();
            s.events.push(SpanEvent {
                at,
                name,
                attrs: attrs.iter().map(|(k, v)| (*k, (*v).to_owned())).collect(),
            });
        }
    }

    /// Close the span now (same as dropping, but reads better at call
    /// sites that want an explicit end).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        let end = s.tel.inner.clock.now();
        let wall_end = s.wall_start.map(|_| wallclock::wall_now_us());
        s.tel.pop_ctx(s.trace, s.id);
        s.tel.record(SpanRecord {
            trace: s.trace,
            id: s.id,
            parent: s.parent,
            name: s.name,
            kind: s.kind,
            start: s.start,
            end,
            wall_start_us: s.wall_start,
            wall_end_us: wall_end,
            attrs: s.attrs,
            events: s.events,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ogsa_sim::SimDuration;

    #[test]
    fn nested_spans_share_a_trace_and_parent_correctly() {
        let tel = Telemetry::new(VirtualClock::new());
        {
            let root = tel.span(SpanKind::Client, "invoke");
            let root_id = root.id().unwrap();
            {
                let child = tel.span(SpanKind::Db, "db:get");
                assert_eq!(child.trace_id(), root.trace_id());
                let gchild = tel.span(SpanKind::Soap, "soap:encode");
                assert_eq!(gchild.trace_id(), root.trace_id());
                drop(gchild);
                drop(child);
            }
            assert_eq!(tel.current(), Some((root.trace_id().unwrap(), root_id)));
        }
        assert_eq!(tel.current(), None);
        let spans = tel.finished_spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "invoke").unwrap();
        let child = spans.iter().find(|s| s.name == "db:get").unwrap();
        let gchild = spans.iter().find(|s| s.name == "soap:encode").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(gchild.parent, Some(child.id));
        assert_eq!(root.trace.0, root.id.0, "trace id is the root span's id");
    }

    #[test]
    fn sibling_roots_get_distinct_traces() {
        let tel = Telemetry::new(VirtualClock::new());
        let a = tel.span(SpanKind::Client, "a");
        let ta = a.trace_id().unwrap();
        drop(a);
        let b = tel.span(SpanKind::Client, "b");
        assert_ne!(b.trace_id().unwrap(), ta);
    }

    #[test]
    fn spans_measure_virtual_time() {
        let clock = VirtualClock::new();
        let tel = Telemetry::new(clock.clone());
        {
            let mut s = tel.span(SpanKind::Db, "op");
            clock.advance(SimDuration::from_micros(250));
            s.event("halfway");
            clock.advance(SimDuration::from_micros(250));
        }
        let spans = tel.finished_spans();
        assert_eq!(spans[0].duration(), SimDuration::from_micros(500));
        assert_eq!(spans[0].events[0].at, SimInstant(250));
    }

    #[test]
    fn child_span_joins_a_remote_trace() {
        let tel = Telemetry::new(VirtualClock::new());
        let remote_trace = TraceId(99);
        let remote_parent = SpanId(7);
        {
            let s = tel.child_span(
                SpanKind::Delivery,
                "deliver",
                remote_trace,
                Some(remote_parent),
            );
            assert_eq!(tel.current(), Some((remote_trace, s.id().unwrap())));
            // Nested spans inherit the joined context.
            let inner = tel.span(SpanKind::Security, "verify");
            assert_eq!(inner.trace_id(), Some(remote_trace));
        }
        let spans = tel.finished_spans();
        assert_eq!(spans[1].parent, Some(remote_parent));
        assert_eq!(spans[0].parent, spans[1].id.into());
    }

    #[test]
    fn disabled_instance_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut s = tel.span(SpanKind::Client, "x");
        assert!(!s.is_recording());
        s.set_attr("k", "v");
        s.event("e");
        drop(s);
        assert_eq!(tel.span_count(), 0);
        assert_eq!(tel.current(), None);
    }

    #[test]
    fn take_spans_drains() {
        let tel = Telemetry::new(VirtualClock::new());
        tel.span(SpanKind::Other, "a").finish();
        assert_eq!(tel.take_spans().len(), 1);
        assert_eq!(tel.span_count(), 0);
    }

    #[test]
    fn capture_collects_spans_on_a_disabled_instance() {
        let tel = Telemetry::disabled();
        tel.begin_capture();
        {
            let root = tel.span(SpanKind::Server, "serve:request");
            assert!(root.is_recording(), "capture forces recording");
            let child = tel.span(SpanKind::Db, "db:get");
            assert_eq!(child.trace_id(), root.trace_id());
        }
        let captured = tel.end_capture();
        assert_eq!(captured.len(), 2);
        assert_eq!(tel.span_count(), 0, "global store stays empty");
        assert!(!tel.is_capturing());
        // After the capture ends the instance is silent again.
        tel.span(SpanKind::Other, "after").finish();
        assert!(tel.end_capture().is_empty());
        assert_eq!(tel.span_count(), 0);
    }

    #[test]
    fn capture_observes_without_diverting_on_an_enabled_instance() {
        let tel = Telemetry::new(VirtualClock::new());
        tel.begin_capture();
        tel.span(SpanKind::Other, "both").finish();
        let captured = tel.end_capture();
        assert_eq!(captured.len(), 1);
        assert_eq!(tel.span_count(), 1, "global store is fed as usual");
        assert_eq!(captured[0], tel.finished_spans()[0]);
    }

    #[test]
    fn captures_are_per_thread_and_per_instance() {
        let tel = Telemetry::disabled();
        tel.begin_capture();
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            // Same instance, different thread: not capturing here.
            assert!(!tel2.is_capturing());
            tel2.span(SpanKind::Other, "elsewhere").finish();
        })
        .join()
        .unwrap();
        let other = Telemetry::disabled();
        other.span(SpanKind::Other, "other-instance").finish();
        assert!(tel.end_capture().is_empty());
    }

    #[test]
    fn wall_clock_stamps_only_when_enabled() {
        let tel = Telemetry::new(VirtualClock::new());
        tel.span(SpanKind::Other, "before").finish();
        tel.set_wall_clock(true);
        assert!(tel.wall_clock_enabled());
        tel.span(SpanKind::Other, "after").finish();
        let spans = tel.finished_spans();
        assert_eq!(spans[0].wall_start_us, None);
        assert_eq!(spans[0].wall_end_us, None);
        let (ws, we) = (
            spans[1].wall_start_us.expect("stamped"),
            spans[1].wall_end_us.expect("stamped"),
        );
        assert!(we >= ws);
        // Virtual time is untouched by wall stamping.
        assert_eq!(spans[1].start, spans[1].end);
    }

    #[test]
    fn context_stacks_are_per_thread() {
        let tel = Telemetry::new(VirtualClock::new());
        let _root = tel.span(SpanKind::Client, "main-thread");
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            // A fresh thread sees no inherited context.
            assert_eq!(tel2.current(), None);
        })
        .join()
        .unwrap();
    }
}
