//! The counter workloads (the paper's §4.1 "hello world"), both stacks
//! interleaved request by request over real sockets with X.509 signing:
//!
//! * `counter-read` — WSRF `GetResourceProperty(cv)` and WS-Transfer
//!   `Get` spread uniformly over every counter of an in-memory store.
//! * `counter-write-notify` — mostly `SetResourceProperties` / `Put` on
//!   counters that each carry one content-filtered subscription, plus a
//!   small share of Create and Destroy on unsubscribed counters, on the
//!   durable (WAL) store. A connection waits for the notification of its
//!   Set before it sends again.
//!
//! Load is a closed loop: each generator thread owns one keep-alive
//! connection and one request in flight, as a synchronous grid proxy
//! does. Every request is built and signed fresh by
//! `ClientAgent::prepare_wire`; every response is verified by
//! `ClientAgent::decode_response` and checked against a per-counter model.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, InvokeError, Testbed};
use ogsa_counter::{CounterApi, NotificationWaiter, TransferCounter, WsrfCounter};
use ogsa_security::SecurityPolicy;
use ogsa_serve::{ServeConfig, Server};
use ogsa_sim::CostModel;
use ogsa_soap::Envelope;
use ogsa_transfer::messages as wxf_msg;
use ogsa_wsrf::properties::{self, SetComponent};
use ogsa_wsrf::proxy::actions as wsrf_actions;
use ogsa_xml::{Element, XPath, XPathContext};
use ogsa_xmldb::{BackendKind, Collection, DurableConfig};

use crate::report::{Failure, Report, Tally};
use crate::rng::SplitMix64;
use crate::stats::Summary;
use crate::sys;
use crate::trace::Tracer;
use crate::wire::{split_address, HttpConn};

/// Stack labels, indexed by `Op::stack`.
pub const STACKS: [&str; 2] = ["wsrf", "wxf"];
const SERVICE_HOST: &str = "host-a";
const CLIENT_HOST: &str = "host-b";
/// How long a Set may wait for its notification before it counts as lost.
const NOTIFY_DEADLINE: Duration = Duration::from_secs(5);
/// Requests sent before the measured window opens (checked, not timed).
const WARMUP: Duration = Duration::from_millis(1000);
/// Ops in the traced replay (half traced, half untraced, interleaved).
const REPLAY_OPS: usize = 2000;
const REPLAY_BUDGET: Duration = Duration::from_secs(6);
/// Ops a time window of the measured run must expect, so that its own
/// p90 has at least ten samples beyond it twice over.
const MIN_WINDOW_OPS: usize = 200;
const MAX_WINDOWS: usize = 20;
/// Fresh deployments timed per untraced run (one before the measurement,
/// the rest after it).
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    WriteNotify,
}

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Generator threads, each with one keep-alive connection (capped at
    /// the host's parallelism).
    pub connections: usize,
    /// Counters the main op targets, per stack.
    pub counters: usize,
    /// Of those, counters carrying one content-filtered subscription.
    pub subscribed: usize,
    /// Unsubscribed counters Create and Destroy work on, per stack.
    pub pool: usize,
}

impl Kind {
    pub fn sizes(self) -> Sizes {
        match self {
            // Two connections keep both cores busy; with one, the idle core's
            // wake-up latency makes whole runs bimodal.
            Kind::Read => Sizes {
                connections: 2,
                counters: 10_000,
                subscribed: 0,
                pool: 0,
            },
            // One connection: a Set's fan-out scan takes milliseconds of
            // server CPU, and two concurrent scans measure core contention
            // rather than the notification path.
            Kind::WriteNotify => Sizes {
                connections: 1,
                counters: 1_000,
                subscribed: 1_000,
                pool: 100,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Set(i64),
    Create,
    Destroy,
}

/// One generated operation: which stack, what, and on which counter
/// (`index` into the thread's main list, or its pool for Destroy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub stack: usize,
    pub kind: OpKind,
    pub index: usize,
}

/// The seeded operation stream of one generator thread. The op drawn
/// depends only on the seed, the stream and the pool sizes — which the
/// earlier ops of the same stream determine — so a seed replays exactly.
pub struct OpGen {
    rng: SplitMix64,
    kind: Kind,
}

impl OpGen {
    pub fn new(kind: Kind, seed: u64, stream: u64) -> OpGen {
        OpGen {
            rng: SplitMix64::new(seed, 0x0C0_0000 + stream),
            kind,
        }
    }

    /// Next op given `main[s]` targetable counters and `pool[s]`
    /// unsubscribed ones on stack `s`.
    pub fn next(&mut self, main: [usize; 2], pool: [usize; 2]) -> Op {
        let stack = self.rng.index(2);
        match self.kind {
            Kind::Read => Op {
                stack,
                kind: OpKind::Get,
                index: self.rng.index(main[stack]),
            },
            Kind::WriteNotify => {
                let r = self.rng.below(1000);
                if r < 900 {
                    let value = self.rng.range(1, 999_999);
                    Op {
                        stack,
                        kind: OpKind::Set(value),
                        index: self.rng.index(main[stack]),
                    }
                } else if r < 950 || pool[stack] == 0 {
                    Op {
                        stack,
                        kind: OpKind::Create,
                        index: 0,
                    }
                } else {
                    Op {
                        stack,
                        kind: OpKind::Destroy,
                        index: self.rng.index(pool[stack]),
                    }
                }
            }
        }
    }
}

/// One counter and its model value.
pub struct Counter {
    pub epr: EndpointReference,
    pub value: i64,
    /// The counter's subscription consumer (behind a mutex only so the
    /// fixture can be shared read-only across generator threads).
    pub waiter: Option<Mutex<Box<dyn NotificationWaiter>>>,
}

/// The counters one generator thread owns.
#[derive(Default)]
pub struct Shard {
    pub main: [Vec<Counter>; 2],
    pub pool: [Vec<Counter>; 2],
}

impl Shard {
    fn sizes(&self) -> ([usize; 2], [usize; 2]) {
        (
            [self.main[0].len(), self.main[1].len()],
            [self.pool[0].len(), self.pool[1].len()],
        )
    }

    /// Apply a checked op to the model; `created` is the new counter's EPR.
    fn apply(&mut self, op: Op, created: Option<EndpointReference>) {
        match op.kind {
            OpKind::Get => {}
            OpKind::Set(v) => self.main[op.stack][op.index].value = v,
            OpKind::Create => {
                if let Some(epr) = created {
                    self.pool[op.stack].push(Counter {
                        epr,
                        value: 0,
                        waiter: None,
                    });
                }
            }
            OpKind::Destroy => {
                self.pool[op.stack].swap_remove(op.index);
            }
        }
    }

    fn target(&self, op: Op) -> &Counter {
        match op.kind {
            OpKind::Destroy => &self.pool[op.stack][op.index],
            _ => &self.main[op.stack][op.index],
        }
    }
}

/// A deployed counter container with its counters and client agents.
pub struct Fixture {
    pub kind: Kind,
    pub tb: Testbed,
    pub wsrf: WsrfCounter,
    pub wxf: TransferCounter,
    pub agents: Vec<ClientAgent>,
    pub shards: Vec<Shard>,
    /// Mean wall time of one Subscribe, per stack (µs); 0 without any.
    pub subscribe_us: [f64; 2],
}

fn representation(value: i64) -> Element {
    Element::new("counter").with_child(Element::text_element("value", value.to_string()))
}

impl Fixture {
    /// Deploy both counter services, create and value the counters, and
    /// subscribe the subscribed ones. Inputs come from `seed`.
    pub fn setup(kind: Kind, seed: u64, threads: usize) -> Fixture {
        let sizes = kind.sizes();
        let mut tb = Testbed::new_quiet(CostModel::free(), BackendKind::Memory);
        if kind == Kind::WriteNotify {
            tb = tb.with_durable(DurableConfig::default());
        }
        let container = tb.container(SERVICE_HOST, SecurityPolicy::X509Sign);
        let wsrf = WsrfCounter::deploy(&container);
        let wxf = TransferCounter::deploy(&container);
        let agents: Vec<ClientAgent> = (0..threads)
            .map(|t| {
                tb.client(
                    CLIENT_HOST,
                    &format!("CN=bench-client-{t},O=UVA-VO"),
                    SecurityPolicy::X509Sign,
                )
            })
            .collect();

        // One set-up thread per stack.
        let per_stack: Vec<(Vec<Counter>, Vec<Counter>, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|stack| {
                    let agent = tb.client(
                        CLIENT_HOST,
                        &format!("CN=bench-setup-{stack},O=UVA-VO"),
                        SecurityPolicy::X509Sign,
                    );
                    let (wsrf, wxf) = (&wsrf, &wxf);
                    s.spawn(move || populate(kind, sizes, seed, stack, wsrf, wxf, agent))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("set-up thread panicked"))
                .collect()
        });

        let mut shards: Vec<Shard> = (0..threads).map(|_| Shard::default()).collect();
        let mut subscribe_us = [0.0; 2];
        for (stack, (main, pool, sub_us)) in per_stack.into_iter().enumerate() {
            subscribe_us[stack] = sub_us;
            match kind {
                // Reads never change the model: every thread may read
                // every counter.
                Kind::Read => {
                    for shard in &mut shards {
                        shard.main[stack] = main
                            .iter()
                            .map(|c| Counter {
                                epr: c.epr.clone(),
                                value: c.value,
                                waiter: None,
                            })
                            .collect();
                    }
                }
                // Writes partition the counters so each thread's model is
                // exact.
                Kind::WriteNotify => {
                    for (i, c) in main.into_iter().enumerate() {
                        shards[i % threads].main[stack].push(c);
                    }
                    for (i, c) in pool.into_iter().enumerate() {
                        shards[i % threads].pool[stack].push(c);
                    }
                }
            }
        }
        Fixture {
            kind,
            tb,
            wsrf,
            wxf,
            agents,
            shards,
            subscribe_us,
        }
    }

    fn api(&self, stack: usize, agent: &ClientAgent) -> Box<dyn CounterApi> {
        match stack {
            0 => Box::new(self.wsrf.client(agent.clone())),
            _ => Box::new(self.wxf.client(agent.clone())),
        }
    }

    /// The signed request for `op`: (target, action, body).
    fn request(&self, op: Op, shard: &Shard) -> (EndpointReference, &'static str, Element) {
        match (op.stack, op.kind) {
            (0, OpKind::Get) => (
                shard.target(op).epr.clone(),
                wsrf_actions::GET_RP,
                properties::get_property_request("cv"),
            ),
            (0, OpKind::Set(v)) => (
                shard.target(op).epr.clone(),
                wsrf_actions::SET_RP,
                properties::set_properties_request(&[SetComponent::Update(vec![
                    Element::text_element("cv", v.to_string()),
                ])]),
            ),
            (0, OpKind::Create) => (
                self.wsrf.service_epr.clone(),
                "urn:counter/create",
                Element::new("create"),
            ),
            (0, OpKind::Destroy) => (
                shard.target(op).epr.clone(),
                wsrf_actions::DESTROY,
                ogsa_wsrf::lifetime::destroy_request(),
            ),
            (_, OpKind::Get) => (
                shard.target(op).epr.clone(),
                wxf_msg::actions::GET,
                wxf_msg::get_request(),
            ),
            (_, OpKind::Set(v)) => (
                shard.target(op).epr.clone(),
                wxf_msg::actions::PUT,
                wxf_msg::put_request(representation(v)),
            ),
            (_, OpKind::Create) => (
                self.wxf.factory_epr.clone(),
                wxf_msg::actions::CREATE,
                wxf_msg::create_request(representation(0)),
            ),
            (_, OpKind::Destroy) => (
                shard.target(op).epr.clone(),
                wxf_msg::actions::DELETE,
                wxf_msg::delete_request(),
            ),
        }
    }

    /// The store collections of the two counter services.
    fn collections(&self) -> [std::sync::Arc<Collection>; 2] {
        let db = self.tb.db(SERVICE_HOST);
        [
            db.collection("wsrf:/services/CounterService"),
            db.collection("wxf:/services/Counter"),
        ]
    }
}

/// Create (and value, and subscribe) one stack's counters.
fn populate(
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    stack: usize,
    wsrf: &WsrfCounter,
    wxf: &TransferCounter,
    agent: ClientAgent,
) -> (Vec<Counter>, Vec<Counter>, f64) {
    let mut rng = SplitMix64::new(seed, 0x5E7_0000 + stack as u64);
    let api: Box<dyn CounterApi> = match stack {
        0 => Box::new(wsrf.client(agent.clone())),
        _ => Box::new(wxf.client(agent.clone())),
    };
    let total = sizes.counters + sizes.pool;
    let eprs = api.create_many(total).expect("set-up: create counters");
    let mut counters: Vec<Counter> = eprs
        .into_iter()
        .map(|epr| Counter {
            epr,
            value: 0,
            waiter: None,
        })
        .collect();
    if kind == Kind::Read {
        for c in &mut counters {
            c.value = rng.range(1, 999_999);
            api.set(&c.epr, c.value).expect("set-up: value a counter");
        }
    }
    let pool = counters.split_off(sizes.counters);
    let t = Instant::now();
    for c in counters.iter_mut().take(sizes.subscribed) {
        c.waiter = Some(Mutex::new(
            api.subscribe(&c.epr).expect("set-up: subscribe"),
        ));
    }
    let sub_us = if sizes.subscribed == 0 {
        0.0
    } else {
        t.elapsed().as_secs_f64() * 1e6 / sizes.subscribed as f64
    };
    (counters, pool, sub_us)
}

/// Verify and decode a response the way a proxy does.
pub fn decode(agent: &ClientAgent, status: u16, body: &str) -> Result<Element, Failure> {
    if status != 200 {
        return Err(Failure::Status);
    }
    agent.decode_response(body).map_err(|e| match e {
        InvokeError::Fault(_) => Failure::Fault,
        InvokeError::Security(_) => Failure::Signature,
        InvokeError::Transport(_) => Failure::Garbled,
    })
}

/// Check a decoded response against the model; a Create yields the new
/// counter's EPR.
pub fn check(
    stack: usize,
    kind: OpKind,
    resp: &Element,
    expected: i64,
) -> Result<Option<EndpointReference>, Failure> {
    match kind {
        OpKind::Get => {
            let got: Option<i64> = if stack == 0 {
                resp.child_elements()
                    .next()
                    .and_then(|e| e.text().trim().parse().ok())
            } else {
                wxf_msg::parse_get_response(resp).and_then(|r| r.child_parse("value"))
            };
            if got == Some(expected) {
                Ok(None)
            } else {
                Err(Failure::Value)
            }
        }
        OpKind::Set(_) | OpKind::Destroy => Ok(None),
        OpKind::Create => {
            let epr = if stack == 0 {
                resp.child_elements()
                    .next()
                    .and_then(|e| EndpointReference::from_element(e).ok())
            } else {
                wxf_msg::parse_create_response(resp).map(|(epr, _)| epr)
            };
            epr.map(Some).ok_or(Failure::Value)
        }
    }
}

/// Wait for the notification a Set on `counter` must raise.
fn await_notification(counter: &Counter, value: i64) -> Result<(), Failure> {
    let waiter = counter.waiter.as_ref().ok_or(Failure::Notification)?;
    let waiter = waiter
        .lock()
        .expect("a waiter is only used by its owning thread");
    match waiter.wait(NOTIFY_DEADLINE) {
        Some(v) if v == value => Ok(()),
        _ => Err(Failure::Notification),
    }
}

/// One measured op.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Seconds from the window opening to the op's completion.
    at_s: f64,
    stack: usize,
    /// Send until the response is verified and, for a Set, its
    /// notification has arrived.
    op_us: f64,
    /// Set sent until its notification arrived.
    notify_us: Option<f64>,
}

/// What one generator thread measured.
#[derive(Default)]
struct ThreadOut {
    tally: Tally,
    samples: Vec<Sample>,
    max_gap_us: f64,
    cpu: Duration,
    requests: u64,
    window: Duration,
}

/// Drives one connection in a closed loop.
fn drive(
    fx: &Fixture,
    shard: &mut Shard,
    agent: &ClientAgent,
    addr: SocketAddr,
    mut gen: OpGen,
    measure: Duration,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    let cpu0 = sys::thread_cpu();
    let mut conn = match HttpConn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.tally.attempt();
            out.tally.fail(Failure::Status);
            return out;
        }
    };
    let start = Instant::now();
    let window_open = start + WARMUP;
    let deadline = window_open + measure;
    let mut landed: Option<Instant> = None;
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let measured = t0 >= window_open;
        let (main, pool) = shard.sizes();
        let op = gen.next(main, pool);
        let (target, action, body) = fx.request(op, shard);
        let (address, wire) = agent.prepare_wire(&target, action, body);
        let (host, path) = split_address(&address).expect("bound addresses are http URLs");
        let t_send = Instant::now();
        if let (Some(l), true) = (landed, measured) {
            out.max_gap_us = out.max_gap_us.max((t_send - l).as_secs_f64() * 1e6);
        }
        out.tally.attempt();
        out.requests += 1;
        let reply = conn.send(host, path, &wire).and_then(|()| conn.recv());
        let t_land = Instant::now();
        landed = Some(t_land);
        let (status, resp) = match reply {
            Ok(r) => r,
            Err(_) => {
                out.tally.fail(Failure::Status);
                match HttpConn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
                continue;
            }
        };
        let expected = shard.target(op).value;
        let checked =
            decode(agent, status, &resp).and_then(|e| check(op.stack, op.kind, &e, expected));
        let created = match checked {
            Ok(c) => c,
            Err(f) => {
                out.tally.fail(f);
                continue;
            }
        };
        let mut notified_at = None;
        if let OpKind::Set(v) = op.kind {
            if fx.kind == Kind::WriteNotify {
                if let Err(f) = await_notification(shard.target(op), v) {
                    out.tally.fail(f);
                    shard.apply(op, created);
                    continue;
                }
                notified_at = Some(Instant::now());
            }
        }
        shard.apply(op, created);
        let t_end = Instant::now();
        // The gap to the next send excludes the notification wait, which
        // is the protocol's, not the generator's.
        landed = Some(notified_at.unwrap_or(t_land));
        if measured {
            out.samples.push(Sample {
                at_s: (t_end - window_open).as_secs_f64(),
                stack: op.stack,
                op_us: (t_end - t0).as_secs_f64() * 1e6,
                notify_us: notified_at.map(|n| (n - t0).as_secs_f64() * 1e6),
            });
        }
    }
    out.window = start.elapsed().saturating_sub(WARMUP);
    out.cpu = sys::thread_cpu().saturating_sub(cpu0);
    out
}

/// Read every counter back in-process and compare with the model.
fn verify_models(fx: &Fixture, tally: &mut Tally) {
    let agent = &fx.agents[0];
    for shard in &fx.shards {
        for stack in 0..2 {
            let api = fx.api(stack, agent);
            for c in shard.main[stack].iter().chain(shard.pool[stack].iter()) {
                let got = api.get(&c.epr);
                tally.record(match got {
                    Ok(v) if v == c.value => Ok(()),
                    Ok(_) => Err(Failure::Value),
                    Err(_) => Err(Failure::Fault),
                });
            }
        }
    }
}

/// Run one counter workload and fill `report`.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let sizes = kind.sizes();
    let threads = sizes.connections.min(sys::nproc());
    report.info("loop", "closed; one request in flight per connection");
    report.info("threads", threads);
    report.info("connections", threads);
    report.info("counters_per_stack", sizes.counters);
    report.info("subscriptions_per_stack", sizes.subscribed);
    report.info("create_destroy_pool_per_stack", sizes.pool);
    report.info("server_workers", ServeConfig::default().workers);
    if kind == Kind::WriteNotify {
        report.info("durable", format!("{:?}", DurableConfig::default()));
    }

    let t = Instant::now();
    let mut fx = Fixture::setup(kind, seed, threads);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let mut server =
        Server::bind(fx.tb.network(), ServeConfig::default()).expect("bind serving tier");
    let addr = server.addr();
    let measure = Duration::from_secs(seconds);
    let pcpu0 = sys::process_cpu();
    let outs: Vec<ThreadOut> = {
        let mut shards = std::mem::take(&mut fx.shards);
        let fx_ref = &fx;
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter_mut()
                .enumerate()
                .map(|(t, shard)| {
                    let agent = &fx_ref.agents[t];
                    let gen = OpGen::new(kind, seed, t as u64);
                    s.spawn(move || drive(fx_ref, shard, agent, addr, gen, measure))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        fx.shards = shards;
        outs
    };
    let pcpu = sys::process_cpu().saturating_sub(pcpu0);
    let peak_rss = sys::peak_rss_mb();

    let mut tally = Tally::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut requests = 0;
    let mut gen_cpu = Duration::ZERO;
    let mut max_gap: f64 = 0.0;
    let mut window = Duration::ZERO;
    for o in &outs {
        tally.merge(&o.tally);
        samples.extend_from_slice(&o.samples);
        requests += o.requests;
        gen_cpu += o.cpu;
        max_gap = max_gap.max(o.max_gap_us);
        window = window.max(o.window);
    }
    fx.tb.network().quiesce(Duration::from_secs(10));
    let stats = server.stats();
    tally.attempt();
    if stats.requests() < requests {
        tally.fail(Failure::ServerCount);
    }
    for _ in 0..stats.http_errors() + stats.dispatch_panics() {
        tally.fail(Failure::Status);
    }
    if kind == Kind::WriteNotify {
        verify_models(&fx, &mut tally);
    }

    // The end-to-end figures are medians over equal time windows of the
    // measured run, each large enough for its own tail, so a burst of
    // host noise moves one window, not the run's figure.
    let timed: Vec<(f64, f64)> = samples.iter().map(|s| (s.at_s, s.op_us)).collect();
    let ops = timed.len();
    let n_windows = (ops / MIN_WINDOW_OPS).clamp(1, MAX_WINDOWS);
    let win_s = window.as_secs_f64() / n_windows as f64;
    let wins = crate::stats::windows(&timed, window.as_secs_f64(), n_windows, 90.0);
    let med =
        |f: &dyn Fn(&Summary) -> f64| crate::stats::median(&wins.iter().map(f).collect::<Vec<_>>());
    let ops_per_s = med(&|w| w.count as f64 / win_s);
    let op_p50 = med(&|w| w.p50);
    let op_p90 = med(&|w| w.tail.value);
    let p90_pct = wins.iter().map(|w| w.tail.pct).fold(90.0, f64::min);
    let whole = Summary::of(timed.iter().map(|t| t.1).collect(), 99.0);
    let notify = Summary::of(samples.iter().filter_map(|s| s.notify_us).collect(), 99.0);

    report.info(
        "op_p90_us",
        format!("{op_p90:.1} (median of window p{p90_pct}, n={ops})"),
    );
    report.info(
        "op_p99_us",
        format!("{:.1} (p{}, n={ops})", whole.tail.value, whole.tail.pct),
    );
    if kind == Kind::WriteNotify {
        report.info(
            "notify_p50_us",
            format!("{:.1} (n={})", notify.p50, notify.count),
        );
        report.info(
            "notify_p99_us",
            format!(
                "{:.1} (p{}, n={})",
                notify.tail.value, notify.tail.pct, notify.count
            ),
        );
    }
    let cpu_share = gen_cpu.as_secs_f64() / pcpu.as_secs_f64().max(1e-9);
    report.info("loadgen.cpu_share", format!("{cpu_share:.3}"));
    report.info("loadgen.max_gap_us", format!("{max_gap:.1}"));

    if traced {
        // Harness and stack splits come from the untraced run above.
        for (s, name) in STACKS.iter().enumerate() {
            let on_stack = samples.iter().filter(|x| x.stack == s);
            let op = Summary::of(on_stack.clone().map(|x| x.op_us).collect(), 99.0);
            let nt = Summary::of(on_stack.filter_map(|x| x.notify_us).collect(), 99.0);
            report.layer(
                &format!("{name}.op_p50_us"),
                op.p50,
                "us",
                Some(op.count),
                "untraced",
            );
            report.layer(
                &format!("{name}.notify_p50_us"),
                nt.p50,
                "us",
                Some(nt.count),
                "untraced; 0 without notifications",
            );
        }
        report.layer(
            "loadgen.cpu_share",
            cpu_share,
            "ratio",
            None,
            "generator thread CPU over process CPU",
        );
        report.layer(
            "loadgen.max_gap_us",
            max_gap,
            "us",
            None,
            "largest response-landed to next-send gap",
        );
        report.layer("serve.requests", stats.requests() as f64, "count", None, "");
        report.layer(
            "serve.http_errors",
            stats.http_errors() as f64,
            "count",
            None,
            "must be 0",
        );
        report.layer(
            "serve.dispatch_panics",
            stats.dispatch_panics() as f64,
            "count",
            None,
            "must be 0",
        );
        server.shutdown();
        replay(&mut fx, seed, op_p50, &mut tally, report);
    } else {
        server.shutdown();
        // The remaining set-ups run after the measurement, so their
        // garbage can disturb neither its timings nor its peak RSS.
        drop(fx);
        for _ in 1..SETUPS {
            let t = Instant::now();
            drop(Fixture::setup(kind, seed, threads));
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    report.info("setups", setup_s.len());

    report.e2e(
        "setup_s",
        crate::stats::median(&setup_s),
        "s",
        Some(setup_s.len()),
        "median set-up of fresh deployments",
    );
    report.e2e(
        "ops_per_s",
        ops_per_s,
        "1/s",
        Some(ops),
        &format!("median over {n_windows} windows of completed ops"),
    );
    report.e2e(
        "op_p50_us",
        op_p50,
        "us",
        Some(ops),
        "send to verified response (and notification, for a Set); median of window p50s",
    );
    report.e2e(
        "peak_rss_mb",
        peak_rss,
        "MB",
        None,
        "VmHWM at the end of the measured run",
    );
    report.tally = tally;
}

/// Per-op counters of the traced ops.
#[derive(Default)]
struct Counts {
    ops: u64,
    sets: u64,
    req_bytes: u64,
    resp_bytes: u64,
    c14n: u64,
    db_reads: u64,
    db_writes: u64,
    wal_appends: u64,
    wal_fsyncs: u64,
    wal_bytes: u64,
    calls: u64,
    oneways: u64,
    net_bytes: u64,
    delivered: u64,
    scanned: u64,
}

/// The traced run: a seeded sample replayed single-threaded through the
/// public functions the server calls, in the server's order, every other
/// op wrapped in the benchmark's spans and the rest timed bare.
fn replay(fx: &mut Fixture, seed: u64, socket_p50_us: f64, tally: &mut Tally, report: &mut Report) {
    let tel = fx.tb.telemetry().clone();
    tel.set_wall_clock(true);
    let net = fx.tb.network().clone();
    let db = fx.tb.db(SERVICE_HOST);
    let durable = fx.tb.durable(SERVICE_HOST);
    let agent = fx.agents[0].clone();
    let mut shard = std::mem::take(&mut fx.shards[0]);
    let subscribers = crate::subscribers(&tel);
    let mut gen = OpGen::new(fx.kind, seed, 0xACE);
    let mut tracer = Tracer::new();
    let mut bare = Tracer::disabled();
    let mut bare_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut counts = Counts::default();
    let mut req = Vec::with_capacity(8192);
    let mut resp_wire = String::with_capacity(8192);
    let mut resp_http = Vec::with_capacity(8192);
    let budget = Instant::now() + REPLAY_BUDGET;
    for i in 0..REPLAY_OPS {
        if Instant::now() >= budget {
            break;
        }
        let traced = i % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut bare };
        let (main, pool) = shard.sizes();
        let op = gen.next(main, pool);
        let before = traced.then(|| snapshot(&db, durable.as_deref(), &net, &tel));
        let t0 = Instant::now();
        tr.begin_trace();
        tr.enter("op");
        let (target, action, body) = fx.request(op, &shard);
        let (address, wire) = tr.time("client.prepare_wire", || {
            agent.prepare_wire(&target, action, body)
        });
        let (host, path) = split_address(&address).expect("bound addresses are http URLs");
        tr.time("client.frame", || {
            req.clear();
            ogsa_serve::http::write_request(&mut req, path, host, true, &wire);
        });
        let head = tr.time("serve.parse_head", || ogsa_serve::http::parse_head(&req));
        let ogsa_serve::HeadParse::Parsed(head) = head else {
            tr.exit();
            tally.record::<()>(Err(Failure::Status));
            continue;
        };
        let handler = tr.time("container.handler_for", || net.handler_for(&address));
        let body = &req[head.head_len..head.head_len + head.content_length];
        let env = tr.time("soap.parse", || {
            std::str::from_utf8(body)
                .ok()
                .and_then(|w| Envelope::from_wire(w).ok())
        });
        let (Some(handler), Some(env)) = (handler, env) else {
            tr.exit();
            tally.record::<()>(Err(Failure::Status));
            continue;
        };
        tr.enter("container.handle");
        if traced {
            tel.begin_capture();
        }
        let response = handler(env);
        if traced {
            tr.import(&tel.end_capture());
        }
        tr.exit();
        tr.time("soap.write", || {
            resp_wire.clear();
            response.to_wire_into(&mut resp_wire);
        });
        tr.time("serve.write_response", || {
            resp_http.clear();
            ogsa_serve::http::write_response(&mut resp_http, 200, "OK", true, &resp_wire);
        });
        let expected = shard.target(op).value;
        let checked = tr.time("client.decode_response", || {
            decode(&agent, 200, &resp_wire).and_then(|e| check(op.stack, op.kind, &e, expected))
        });
        let ok = tally.record(checked);
        if let (Some(_), OpKind::Set(v), Kind::WriteNotify) = (&ok, op.kind, fx.kind) {
            let target = shard.target(op);
            if tr
                .time("notify.wait", || await_notification(target, v))
                .is_err()
            {
                tally.fail(Failure::Notification);
            }
        }
        tr.exit();
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        if let Some(created) = ok {
            shard.apply(op, created);
        }
        if let Some(b) = before {
            let a = snapshot(&db, durable.as_deref(), &net, &tel);
            counts.ops += 1;
            counts.req_bytes += wire.len() as u64;
            counts.resp_bytes += resp_wire.len() as u64;
            counts.c14n += a.c14n - b.c14n;
            counts.db_reads += a.db_reads - b.db_reads;
            counts.db_writes += a.db_writes - b.db_writes;
            counts.wal_appends += a.wal_appends - b.wal_appends;
            counts.wal_fsyncs += a.wal_fsyncs - b.wal_fsyncs;
            // A snapshot compaction truncates the log: count what follows.
            counts.wal_bytes += if a.wal_len >= b.wal_len {
                a.wal_len - b.wal_len
            } else {
                a.wal_len
            };
            counts.calls += a.calls - b.calls;
            counts.oneways += a.oneways - b.oneways;
            counts.net_bytes += a.net_bytes - b.net_bytes;
            if let OpKind::Set(_) = op.kind {
                counts.sets += 1;
                counts.delivered += a.delivered - b.delivered;
                counts.scanned += subscribers[op.stack];
            }
            traced_us.push(dur_us);
        } else {
            bare_us.push(dur_us);
        }
    }
    net.quiesce(Duration::from_secs(10));
    tel.set_wall_clock(false);
    fx.shards[0] = shard;

    let path = std::path::Path::new(crate::OUT_DIR)
        .join(format!("spans-{}-seed{seed}.jsonl", report.workload));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
    report.info("spans", path.display());

    let n = counts.ops.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    let self_us = |name: &str| us(tracer.self_named(name));
    let bare_p50 = Summary::of(bare_us, 99.0).p50;
    let traced_p50 = Summary::of(traced_us, 99.0).p50;
    let notify_tail = Summary::of(
        tracer
            .durations("notify.wait")
            .iter()
            .map(|ns| *ns as f64 / 1e3)
            .collect(),
        99.0,
    );
    let ops = Some(counts.ops as usize);

    report.layer(
        "serve.frame_us",
        self_us("serve.parse_head") + self_us("serve.write_response"),
        "us",
        ops,
        "http::parse_head + write_response per op",
    );
    report.layer(
        "serve.residual_us",
        socket_p50_us - bare_p50,
        "us",
        ops,
        "socket op p50 minus in-process replay p50",
    );
    report.layer(
        "soap.parse_us",
        self_us("soap.parse"),
        "us",
        ops,
        "server Envelope::from_wire per op",
    );
    report.layer(
        "soap.write_us",
        self_us("soap.write"),
        "us",
        ops,
        "server to_wire_into per op",
    );
    report.layer(
        "soap.req_bytes",
        counts.req_bytes as f64 / n,
        "bytes",
        ops,
        "",
    );
    report.layer(
        "soap.resp_bytes",
        counts.resp_bytes as f64 / n,
        "bytes",
        ops,
        "",
    );
    report.layer(
        "security.verify_us",
        self_us("x509:verify"),
        "us",
        ops,
        "server-side verify per op",
    );
    report.layer(
        "security.sign_us",
        self_us("x509:sign"),
        "us",
        ops,
        "server-side signing per op (responses and notifications)",
    );
    report.layer(
        "security.c14n_passes_per_op",
        counts.c14n as f64 / n,
        "count",
        ops,
        "client and server, this thread",
    );
    report.layer(
        "container.client_sign_us",
        self_us("client.prepare_wire"),
        "us",
        ops,
        "ClientAgent::prepare_wire per op",
    );
    report.layer(
        "container.client_verify_us",
        self_us("client.decode_response"),
        "us",
        ops,
        "ClientAgent::decode_response per op",
    );
    report.layer(
        "container.handle_us",
        us(tracer.total("container.handle")),
        "us",
        ops,
        "Network::handler_for handler per op",
    );
    report.layer(
        "container.dispatch_self_us",
        self_us("container.handle")
            + us(tracer.program_self(&["server", "dispatch", "service", "other"])),
        "us",
        ops,
        "handler minus verify, sign, db and fan-out send",
    );
    layer_db(report, &fx.collections(), &counts, n, fx.kind);
    report.layer(
        "fanout.subscribers",
        (subscribers[0] + subscribers[1]) as f64,
        "count",
        None,
        "both stacks",
    );
    let sets = counts.sets.max(1) as f64;
    report.layer(
        "fanout.deliveries_per_notify",
        counts.delivered as f64 / sets,
        "count",
        Some(counts.sets as usize),
        "",
    );
    report.layer(
        "fanout.useful_ratio",
        if counts.scanned == 0 {
            0.0
        } else {
            counts.delivered as f64 / counts.scanned as f64
        },
        "ratio",
        Some(counts.sets as usize),
        "deliveries over subscriptions scanned",
    );
    report.layer(
        "fanout.notify_tail_us",
        notify_tail.p50,
        "us",
        Some(notify_tail.count),
        "notify latency minus Set response latency, p50",
    );
    report.layer(
        "wsn.subscribe_us",
        fx.subscribe_us[0],
        "us",
        None,
        "mean set-up Subscribe",
    );
    report.layer(
        "eventing.subscribe_us",
        fx.subscribe_us[1],
        "us",
        None,
        "mean set-up Subscribe",
    );
    report.layer(
        "transport.calls_per_op",
        counts.calls as f64 / n,
        "count",
        ops,
        "simulated-network request/response calls",
    );
    report.layer(
        "transport.oneways_per_op",
        counts.oneways as f64 / n,
        "count",
        ops,
        "",
    );
    report.layer(
        "transport.bytes_per_op",
        counts.net_bytes as f64 / n,
        "bytes",
        ops,
        "simulated-network bytes",
    );
    report.layer(
        "transport.dead_letters",
        net.stats().dead_letters() as f64,
        "count",
        None,
        "must be 0",
    );
    for step in crate::gridbox::STEPS {
        report.layer(
            &format!("gridbox.{step}_ms"),
            0.0,
            "ms",
            None,
            "gridbox-jobs only",
        );
    }
    report.layer(
        "gridbox.growth_ratio",
        0.0,
        "ratio",
        None,
        "gridbox-jobs only",
    );
    report.layer(
        "gridbox.subscriptions_end",
        0.0,
        "count",
        None,
        "gridbox-jobs only",
    );
    report.layer(
        "trace.coverage",
        tracer.coverage("op"),
        "ratio",
        ops,
        "traced op time covered by directly timed calls",
    );
    report.layer(
        "telemetry.trace_overhead",
        traced_p50 / bare_p50.max(1e-9),
        "ratio",
        ops,
        "traced replay op p50 over untraced replay op p50",
    );
    for f in net.dead_letters() {
        eprintln!("perfbench: dead letter {f:?}");
    }
}

/// Direct per-call timings of the store on the run's own data, plus the
/// replay's per-op store and WAL counts.
fn layer_db(
    report: &mut Report,
    colls: &[std::sync::Arc<Collection>; 2],
    counts: &Counts,
    n: f64,
    kind: Kind,
) {
    let (get_us, upsert_us) = time_get_upsert(colls);
    let query_us = time_query(&[
        (&colls[0], "/CounterResource[cv='-1']"),
        (&colls[1], "/counter[value='-1']"),
    ]);
    let ops = Some(counts.ops as usize);
    report.layer(
        "xmldb.get_us",
        get_us,
        "us",
        None,
        "Collection::get on sampled keys",
    );
    report.layer(
        "xmldb.upsert_us",
        upsert_us,
        "us",
        None,
        "Collection::upsert of an unchanged document",
    );
    report.layer(
        "xmldb.query_us",
        query_us,
        "us",
        None,
        "full-scan XPath at end-of-run size",
    );
    report.layer(
        "xmldb.reads_per_op",
        counts.db_reads as f64 / n,
        "count",
        ops,
        "",
    );
    report.layer(
        "xmldb.writes_per_op",
        counts.db_writes as f64 / n,
        "count",
        ops,
        "",
    );
    report.layer(
        "xmldb.wal_appends_per_op",
        counts.wal_appends as f64 / n,
        "count",
        ops,
        "",
    );
    report.layer(
        "xmldb.wal_fsyncs_per_op",
        counts.wal_fsyncs as f64 / n,
        "count",
        ops,
        "",
    );
    report.layer(
        "xmldb.wal_bytes_per_op",
        counts.wal_bytes as f64 / n,
        "bytes",
        ops,
        if kind == Kind::Read {
            "in-memory store"
        } else {
            ""
        },
    );
}

/// Mean µs of `get` and of `upsert` (writing back the same document) over
/// up to 256 keys of each collection.
pub fn time_get_upsert(colls: &[std::sync::Arc<Collection>]) -> (f64, f64) {
    let (mut get_ns, mut put_ns, mut n) = (0u128, 0u128, 0u32);
    for c in colls {
        let keys = c.keys();
        let step = (keys.len() / 256).max(1);
        for k in keys.iter().step_by(step) {
            let t = Instant::now();
            let doc = std::hint::black_box(c.get(k));
            get_ns += t.elapsed().as_nanos();
            if let Some(doc) = doc {
                let t = Instant::now();
                c.upsert(k, doc);
                put_ns += t.elapsed().as_nanos();
            }
            n += 1;
        }
    }
    let n = f64::from(n.max(1));
    (get_ns as f64 / 1e3 / n, put_ns as f64 / 1e3 / n)
}

/// Mean µs of one full-scan XPath query, over a few repetitions.
pub fn time_query(queries: &[(&std::sync::Arc<Collection>, &str)]) -> f64 {
    let ctx = XPathContext::new();
    let mut total = 0u128;
    let mut n = 0u32;
    for (coll, xp) in queries {
        let xp = XPath::compile(xp).expect("static query");
        for _ in 0..5 {
            let t = Instant::now();
            let _ = std::hint::black_box(coll.query(&xp, &ctx));
            total += t.elapsed().as_nanos();
            n += 1;
        }
    }
    total as f64 / 1e3 / f64::from(n.max(1))
}

/// Counter readings the replay diffs around each traced op.
struct Snap {
    c14n: u64,
    db_reads: u64,
    db_writes: u64,
    wal_appends: u64,
    wal_fsyncs: u64,
    wal_len: u64,
    calls: u64,
    oneways: u64,
    net_bytes: u64,
    delivered: u64,
}

fn snapshot(
    db: &ogsa_xmldb::Database,
    durable: Option<&ogsa_xmldb::DurableBackend>,
    net: &ogsa_transport::Network,
    tel: &ogsa_telemetry::Telemetry,
) -> Snap {
    let s = db.stats();
    let n = net.stats().snapshot();
    Snap {
        c14n: ogsa_security::c14n_passes(),
        db_reads: s.reads(),
        db_writes: s.inserts() + s.updates() + s.deletes(),
        wal_appends: durable.map_or(0, |d| d.appended_ops()),
        wal_fsyncs: durable.map_or(0, |d| d.fsyncs()),
        wal_len: durable.map_or(0, |d| d.wal_len()),
        calls: n.requests,
        oneways: n.oneways,
        net_bytes: n.bytes,
        delivered: tel.metrics().snapshot().counter_total("oneway.delivered"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(kind: Kind, seed: u64) -> Vec<Op> {
        let mut gen = OpGen::new(kind, seed, 0);
        let mut pool = [3usize, 3];
        (0..2000)
            .map(|_| {
                let op = gen.next([1000, 1000], pool);
                match op.kind {
                    OpKind::Create => pool[op.stack] += 1,
                    OpKind::Destroy => pool[op.stack] -= 1,
                    _ => {}
                }
                op
            })
            .collect()
    }

    #[test]
    fn the_same_seed_generates_identical_inputs() {
        for kind in [Kind::Read, Kind::WriteNotify] {
            assert_eq!(ops(kind, 42), ops(kind, 42));
            assert_ne!(ops(kind, 42), ops(kind, 43));
        }
        let w = ops(Kind::WriteNotify, 9);
        let sets = w
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Set(_)))
            .count();
        assert!(sets > 1700 && sets < 1900, "mostly Sets: {sets}");
        assert!(w.iter().any(|o| o.kind == OpKind::Destroy));
        assert!(w.iter().any(|o| o.stack == 0) && w.iter().any(|o| o.stack == 1));
    }

    /// A signed Get answered over the real serving tier, then tampered with
    /// or checked against the wrong model value: each is counted as a
    /// failed attempt, never dropped.
    #[test]
    fn tampered_signatures_and_wrong_values_count_as_failed() {
        let fx = Fixture::setup(Kind::Read, 5, 1);
        let agent = &fx.agents[0];
        let shard = &fx.shards[0];
        let op = Op {
            stack: 1,
            kind: OpKind::Get,
            index: 3,
        };
        let (target, action, body) = fx.request(op, shard);
        let (address, wire) = agent.prepare_wire(&target, action, body);
        let (host, path) = split_address(&address).unwrap();
        let mut server = Server::bind(fx.tb.network(), ServeConfig::default()).unwrap();
        let mut conn = HttpConn::connect(server.addr()).unwrap();
        conn.send(host, path, &wire).unwrap();
        let (status, resp) = conn.recv().unwrap();
        server.shutdown();
        let expected = shard.target(op).value;

        let mut tally = Tally::default();
        let good =
            decode(agent, status, &resp).and_then(|e| check(op.stack, op.kind, &e, expected));
        assert!(tally.record(good).is_some());

        let digits = expected.to_string();
        let forged = resp.replacen(&format!(">{digits}<"), &format!(">{}<", expected + 1), 1);
        assert_ne!(forged, resp, "the value appears in the body");
        let tampered =
            decode(agent, status, &forged).and_then(|e| check(op.stack, op.kind, &e, expected));
        assert_eq!(tampered.as_ref().err(), Some(&Failure::Signature));
        assert!(tally.record(tampered).is_none());

        let wrong =
            decode(agent, status, &resp).and_then(|e| check(op.stack, op.kind, &e, expected + 1));
        assert_eq!(wrong.as_ref().err(), Some(&Failure::Value));
        assert!(tally.record(wrong).is_none());

        assert_eq!(decode(agent, 500, &resp).err(), Some(Failure::Status));
        assert_eq!((tally.attempted, tally.failed()), (3, 2));
    }
}
