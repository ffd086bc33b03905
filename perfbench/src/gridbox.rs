//! The `gridbox-jobs` workload: the Figure-6 cycle through
//! `GridScenario` — discover, reserve, upload, instantiate, finish,
//! delete, unreserve — then Destroy (WSRF) or Delete (WS-Transfer) of the
//! job EPR. It runs in-process over the simulated network with X.509
//! signing on every hop, two sessions under distinct DNs, each job on a
//! seeded stack.
//!
//! Job latency grows with the number of jobs a VO has run (every
//! instantiate adds a subscription nothing removes, and every job-ended
//! notification goes to all of them), so a run is made of rounds, each a
//! fixed number of jobs from a freshly deployed VO. A round is never cut
//! short and never redeployed part-way.

use std::time::{Duration, Instant};

use ogsa_addressing::EndpointReference;
use ogsa_container::{ClientAgent, InvokeError, Testbed};
use ogsa_gridbox::{GridScenario, ScenarioError, TransferGrid, WsrfGrid};
use ogsa_security::SecurityPolicy;
use ogsa_sim::{CostModel, SimDuration};
use ogsa_transfer::TransferProxy;
use ogsa_wsrf::WsrfProxy;
use ogsa_xmldb::BackendKind;

use crate::report::{Failure, Report, Tally};
use crate::rng::SplitMix64;
use crate::stats::Summary;
use crate::sys;
use crate::trace::{Origin, Span, Tracer};

/// The timed steps of one job, in order.
pub const STEPS: [&str; 8] = [
    "discover",
    "reserve",
    "upload",
    "instantiate",
    "finish",
    "delete",
    "unreserve",
    "destroy",
];
const USERS: [&str; 2] = ["CN=alice,O=UVA-VO", "CN=bob,O=UVA-VO"];
const SITES: [&str; 2] = ["site-a", "site-b"];
const HOSTS: [&str; 3] = ["vo-host", "site-a", "site-b"];
const APPLICATION: &str = "blast";
/// Jobs per stack per session in one round: each VO runs twice this many.
pub const JOBS_PER_STACK: usize = 40;
/// The exit code `GridScenario::instantiate_job` scripts for every job.
const SCRIPTED_EXIT: i32 = 0;
const FINISH_WAIT: Duration = Duration::from_secs(10);

/// One job's seeded inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobInput {
    pub stack: usize,
    pub file_bytes: usize,
    pub runtime_ms: f64,
}

/// A session's jobs for one round: `JOBS_PER_STACK` per stack in a seeded
/// order, with seeded file sizes and job runtimes.
pub fn session_inputs(seed: u64, round: u64, session: usize) -> Vec<JobInput> {
    let mut rng = SplitMix64::new(seed, 0x6B0_0000 + round * 8 + session as u64);
    let mut stacks: Vec<usize> = (0..2 * JOBS_PER_STACK).map(|i| i % 2).collect();
    for i in (1..stacks.len()).rev() {
        stacks.swap(i, rng.index(i + 1));
    }
    stacks
        .into_iter()
        .map(|stack| JobInput {
            stack,
            file_bytes: 1024 + rng.index(31 * 1024),
            runtime_ms: rng.range(100, 3000) as f64,
        })
        .collect()
}

/// A round's jobs in running order: the two sessions alternate job by
/// job. Yields (session, job number, inputs).
fn interleaved(seed: u64, round: u64) -> Vec<(usize, usize, JobInput)> {
    let [a, b] = [0, 1].map(|s| session_inputs(seed, round, s));
    a.into_iter()
        .zip(b)
        .enumerate()
        .flat_map(|(j, (x, y))| [(0, j, x), (1, j, y)])
        .collect()
}

/// Both VOs, each on its own testbed.
struct Vo {
    tb: [Testbed; 2],
    wsrf: WsrfGrid,
    wxf: TransferGrid,
}

impl Vo {
    fn deploy() -> Vo {
        let tb = [(); 2].map(|_| Testbed::new_quiet(CostModel::free(), BackendKind::Memory));
        let wsrf = WsrfGrid::deploy(
            &tb[0],
            SecurityPolicy::X509Sign,
            &SITES,
            &[APPLICATION],
            &USERS,
        );
        let wxf = TransferGrid::deploy(
            &tb[1],
            SecurityPolicy::X509Sign,
            &SITES,
            &[APPLICATION],
            &USERS,
        );
        Vo { tb, wsrf, wxf }
    }

    /// Per stack, the session's client agent.
    fn agents(&self, session: usize) -> [ClientAgent; 2] {
        [0, 1].map(|s| {
            self.tb[s].client(
                &format!("client-{session}"),
                USERS[session],
                SecurityPolicy::X509Sign,
            )
        })
    }
}

fn failure(e: &ScenarioError) -> Failure {
    match e {
        ScenarioError::Invoke(InvokeError::Fault(_)) => Failure::Fault,
        ScenarioError::Invoke(InvokeError::Security(_)) => Failure::Signature,
        ScenarioError::Invoke(InvokeError::Transport(_)) => Failure::Garbled,
        ScenarioError::State(_) => Failure::Job,
    }
}

/// Run the steps of one job through `sc`, each inside a span; returns
/// the per-step wall times (µs). `capture` brackets each step with a
/// capture of the program's own spans.
fn cycle<S: GridScenario>(
    sc: &mut S,
    job_epr: impl Fn(&S) -> Option<EndpointReference>,
    destroy: impl Fn(&EndpointReference) -> Result<(), InvokeError>,
    input: JobInput,
    name: &str,
    tr: &mut Tracer,
    tel: &ogsa_telemetry::Telemetry,
) -> Result<[f64; 8], Failure> {
    let mut step_us = [0.0; 8];
    let mut step = |i: usize, tr: &mut Tracer, f: &mut dyn FnMut() -> Result<(), Failure>| {
        let t = Instant::now();
        tr.enter(STEPS[i]);
        if tr.is_enabled() {
            tel.begin_capture();
        }
        let r = f();
        if tr.is_enabled() {
            tr.import(&tel.end_capture());
        }
        tr.exit();
        step_us[i] = t.elapsed().as_secs_f64() * 1e6;
        r
    };
    let scen = |e: ScenarioError| failure(&e);
    let sc = std::cell::RefCell::new(sc);
    step(0, tr, &mut || {
        sc.borrow_mut()
            .get_available_resource(APPLICATION)
            .map_err(scen)
    })?;
    step(1, tr, &mut || {
        sc.borrow_mut().make_reservation().map_err(scen)
    })?;
    step(2, tr, &mut || {
        sc.borrow_mut()
            .upload_file(name, input.file_bytes)
            .map_err(scen)
    })?;
    step(3, tr, &mut || {
        sc.borrow_mut()
            .instantiate_job(SimDuration::from_millis(input.runtime_ms))
            .map_err(scen)
    })?;
    step(
        4,
        tr,
        &mut || match sc.borrow_mut().finish_job(FINISH_WAIT) {
            Ok(SCRIPTED_EXIT) => Ok(()),
            Ok(_) => Err(Failure::Job),
            Err(ScenarioError::State(_)) => Err(Failure::Notification),
            Err(e) => Err(failure(&e)),
        },
    )?;
    step(5, tr, &mut || {
        sc.borrow_mut().delete_file(name).map_err(scen)
    })?;
    step(6, tr, &mut || {
        sc.borrow_mut().unreserve_resource().map_err(scen)
    })?;
    let job = job_epr(&sc.borrow()).ok_or(Failure::Job)?;
    step(7, tr, &mut || {
        destroy(&job).map_err(|e| failure(&ScenarioError::Invoke(e)))
    })?;
    Ok(step_us)
}

/// One job on its stack's VO.
fn run_job(
    vo: &Vo,
    agents: &[ClientAgent; 2],
    input: JobInput,
    name: &str,
    tr: &mut Tracer,
) -> Result<[f64; 8], Failure> {
    let agent = agents[input.stack].clone();
    let tel = vo.tb[input.stack].telemetry();
    if input.stack == 0 {
        let mut sc = vo.wsrf.scenario(agent.clone());
        cycle(
            &mut sc,
            |s| s.job_epr().cloned(),
            |job| WsrfProxy::new(&agent).destroy(job),
            input,
            name,
            tr,
            tel,
        )
    } else {
        let mut sc = vo.wxf.scenario(agent.clone());
        cycle(
            &mut sc,
            |s| s.job_epr().cloned(),
            |job| TransferProxy::new(&agent).delete(job),
            input,
            name,
            tr,
            tel,
        )
    }
}

/// What one round measured.
#[derive(Debug, Default)]
struct RoundOut {
    tally: Tally,
    job_us: [Vec<f64>; 2],
    max_gap_us: f64,
    setup_s: f64,
    took_s: f64,
    rss_mb: f64,
    dead_letters: u64,
    /// CPU seconds of the session thread and of the whole round process.
    cpu_s: (f64, f64),
}

impl RoundOut {
    /// The line protocol a round process prints on its standard output.
    fn encode(&self) -> String {
        let mut s = format!(
            "setup_s {}\ntook_s {}\nrss_mb {}\ndead_letters {}\nmax_gap_us {}\ncpu_s {} {}\nattempted {}\n",
            self.setup_s,
            self.took_s,
            self.rss_mb,
            self.dead_letters,
            self.max_gap_us,
            self.cpu_s.0,
            self.cpu_s.1,
            self.tally.attempted
        );
        for (f, n) in &self.tally.failures {
            s += &format!("fail {} {n}\n", f.label());
        }
        for (stack, v) in self.job_us.iter().enumerate() {
            for us in v {
                s += &format!("job {stack} {us}\n");
            }
        }
        s
    }

    fn decode(text: &str) -> Option<RoundOut> {
        let mut o = RoundOut::default();
        for line in text.lines() {
            let mut w = line.split_whitespace();
            let key = w.next()?;
            let mut num = || w.next()?.parse::<f64>().ok();
            match key {
                "setup_s" => o.setup_s = num()?,
                "took_s" => o.took_s = num()?,
                "rss_mb" => o.rss_mb = num()?,
                "dead_letters" => o.dead_letters = num()? as u64,
                "max_gap_us" => o.max_gap_us = num()?,
                "cpu_s" => o.cpu_s = (num()?, num()?),
                "attempted" => o.tally.attempted = num()? as u64,
                "fail" => {
                    let f = Failure::from_label(w.next()?)?;
                    let n: u64 = w.next()?.parse().ok()?;
                    *o.tally.failures.entry(f).or_default() += n;
                }
                "job" => {
                    let stack: usize = w.next()?.parse().ok()?;
                    let us: f64 = w.next()?.parse().ok()?;
                    o.job_us.get_mut(stack)?.push(us);
                }
                _ => return None,
            }
        }
        Some(o)
    }
}

/// Child side of [`round_in_child`]: deploy, run one round, print it.
pub fn child_round(seed: u64, round: u64) {
    let cpu0 = (sys::thread_cpu(), sys::process_cpu());
    let t = Instant::now();
    let vo = Vo::deploy();
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut o = run_round(&vo, seed, round);
    o.took_s = t.elapsed().as_secs_f64();
    o.setup_s = setup_s;
    for tb in &vo.tb {
        tb.network().quiesce(Duration::from_secs(10));
        o.dead_letters += tb.network().stats().dead_letters();
    }
    o.rss_mb = sys::peak_rss_mb();
    o.cpu_s = (
        (sys::thread_cpu() - cpu0.0).as_secs_f64(),
        (sys::process_cpu() - cpu0.1).as_secs_f64(),
    );
    print!("{}", o.encode());
}

/// Run one round in a process of its own. A VO's testbeds are never
/// freed once deployed (their handlers and containers hold each other),
/// and in one process every finished round slows the next; a process per
/// round keeps rounds independent.
fn round_in_child(seed: u64, round: u64) -> RoundOut {
    let out = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--workload", "gridbox-jobs", "--seed", &seed.to_string()])
            .args(["--round", &round.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let decoded = match out {
        Ok(o) if o.status.success() => RoundOut::decode(&String::from_utf8_lossy(&o.stdout)),
        _ => None,
    };
    decoded.unwrap_or_else(|| {
        let mut o = RoundOut::default();
        o.tally.record::<()>(Err(Failure::Job));
        o
    })
}

/// One round on a fresh VO: the two sessions' jobs alternate on this
/// thread, job by job. (Two sessions on two threads would race for the
/// same free site between discover and reserve, which the VO answers
/// with a fault by design.)
fn run_round(vo: &Vo, seed: u64, round: u64) -> RoundOut {
    let agents = [vo.agents(0), vo.agents(1)];
    let mut out = RoundOut::default();
    let mut tr = Tracer::disabled();
    let mut last_end: Option<Instant> = None;
    for (s, j, input) in interleaved(seed, round) {
        let t0 = Instant::now();
        if let Some(l) = last_end {
            out.max_gap_us = out.max_gap_us.max((t0 - l).as_secs_f64() * 1e6);
        }
        let r = run_job(
            vo,
            &agents[s],
            input,
            &format!("input-{s}-{j}.dat"),
            &mut tr,
        );
        if out.tally.record(r).is_some() {
            out.job_us[input.stack].push(t0.elapsed().as_secs_f64() * 1e6);
        }
        last_end = Some(Instant::now());
    }
    out
}

/// Run the workload and fill `report`.
pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    report.info(
        "loop",
        "closed; one thread, the two sessions' jobs alternating",
    );
    report.info("threads", 1);
    report.info("sessions", USERS.len());
    report.info("jobs_per_round", USERS.len() * 2 * JOBS_PER_STACK);
    report.info("jobs_per_vo_per_round", USERS.len() * JOBS_PER_STACK);
    report.info("sites", SITES.len());

    let budget = Duration::from_secs(seconds);
    let mut tally = Tally::default();
    let mut job_us: [Vec<f64>; 2] = Default::default();
    let mut setup_s = Vec::new();
    // Per round: jobs per second and the job latency summary.
    let mut per_round: Vec<(f64, Summary)> = Vec::new();
    let mut busy = Duration::ZERO;
    let mut max_gap: f64 = 0.0;
    let mut cpu = (0.0, 0.0);
    let mut rss = Vec::new();
    let mut round = 0u64;
    while round == 0 || busy < budget {
        let o = round_in_child(seed, round);
        busy += Duration::from_secs_f64(o.took_s);
        setup_s.push(o.setup_s);
        rss.push(o.rss_mb);
        tally.merge(&o.tally);
        for _ in 0..o.dead_letters {
            tally.fail(Failure::Notification);
        }
        let this: Vec<f64> = o.job_us.iter().flatten().copied().collect();
        per_round.push((
            this.len() as f64 / o.took_s.max(1e-9),
            Summary::of(this, 90.0),
        ));
        for (acc, v) in job_us.iter_mut().zip(&o.job_us) {
            acc.extend_from_slice(v);
        }
        max_gap = max_gap.max(o.max_gap_us);
        cpu = (cpu.0 + o.cpu_s.0, cpu.1 + o.cpu_s.1);
        round += 1;
    }
    report.info("rounds", round);

    // Rounds are the run's windows: each figure is the median over rounds.
    let med = |f: &dyn Fn(&(f64, Summary)) -> f64| {
        crate::stats::median(&per_round.iter().map(f).collect::<Vec<_>>())
    };
    let all: Vec<f64> = job_us.iter().flatten().copied().collect();
    let jobs = all.len();
    let job = Summary::of(all, 99.0);
    report.e2e(
        "setup_s",
        crate::stats::median(&setup_s),
        "s",
        Some(setup_s.len()),
        "median VO deployment (both stacks), one per round process",
    );
    report.e2e(
        "ops_per_s",
        med(&|r| r.0),
        "1/s",
        Some(jobs),
        "jobs per second, median over rounds",
    );
    report.e2e(
        "op_p50_us",
        med(&|r| r.1.p50),
        "us",
        Some(jobs),
        "whole job cycle, median of round p50s",
    );
    report.e2e(
        "peak_rss_mb",
        crate::stats::median(&rss),
        "MB",
        None,
        "median VmHWM of the round processes",
    );
    let p90 = Summary::of(job_us.iter().flatten().copied().collect(), 90.0);
    report.info(
        "jobs_per_s",
        format!(
            "{:.2} (n={jobs})",
            jobs as f64 / busy.as_secs_f64().max(1e-9)
        ),
    );
    report.info(
        "job_p50_ms",
        format!("{:.3} (n={})", job.p50 / 1e3, job.count),
    );
    report.info(
        "job_p99_ms",
        format!(
            "{:.3} (p{}, n={})",
            job.tail.value / 1e3,
            job.tail.pct,
            job.count
        ),
    );
    report.info(
        "job_p90_ms",
        format!(
            "{:.3} (p{}, n={})",
            p90.tail.value / 1e3,
            p90.tail.pct,
            p90.count
        ),
    );
    let cpu_share = cpu.0 / cpu.1.max(1e-9);
    report.info("loadgen.cpu_share", format!("{cpu_share:.3}"));

    if traced {
        for (s, name) in crate::counter::STACKS.iter().enumerate() {
            let st = Summary::of(job_us[s].clone(), 99.0);
            report.layer(
                &format!("{name}.op_p50_us"),
                st.p50,
                "us",
                Some(st.count),
                "untraced job p50",
            );
            report.layer(
                &format!("{name}.notify_p50_us"),
                0.0,
                "us",
                None,
                "counter-write-notify only",
            );
        }
        report.layer(
            "loadgen.cpu_share",
            cpu_share,
            "ratio",
            None,
            "session thread CPU over process CPU (sessions run every layer in-process)",
        );
        report.layer(
            "loadgen.max_gap_us",
            max_gap,
            "us",
            None,
            "largest gap between one job's end and the next job's start",
        );
        for m in [
            "serve.requests",
            "serve.http_errors",
            "serve.dispatch_panics",
        ] {
            report.layer(m, 0.0, "count", None, "gridbox-jobs skips the serve layer");
        }
        replay(seed, &mut tally, report);
    }
    report.tally = tally;
}

/// Per-job readings diffed around each traced job.
#[derive(Default, Clone, Copy)]
struct Reading {
    c14n: u64,
    reads: u64,
    writes: u64,
    calls: u64,
    oneways: u64,
    bytes: u64,
    delivered: u64,
}

fn reading(vo: &Vo) -> Reading {
    let mut r = Reading {
        c14n: ogsa_security::c14n_passes(),
        ..Reading::default()
    };
    for tb in &vo.tb {
        for host in HOSTS {
            let s = tb.db(host).stats().clone();
            r.reads += s.reads();
            r.writes += s.inserts() + s.updates() + s.deletes();
        }
        let n = tb.network().stats().snapshot();
        r.calls += n.requests;
        r.oneways += n.oneways;
        r.bytes += n.bytes;
        r.delivered += tb
            .telemetry()
            .metrics()
            .snapshot()
            .counter_total("oneway.delivered");
    }
    r
}

/// Live subscriptions across both VOs: the fan-out tables' gauges plus
/// subscription resources kept as documents (the WSRF ExecService's).
fn subscribers_total(vo: &Vo) -> u64 {
    vo.tb
        .iter()
        .map(|tb| {
            let [w, e] = crate::subscribers(tb.telemetry());
            let docs: usize = HOSTS
                .iter()
                .flat_map(|h| {
                    let db = tb.db(h);
                    db.collection_names()
                        .into_iter()
                        .filter(|c| c.ends_with("/subscriptions"))
                        .map(move |c| db.collection(&c).len())
                })
                .sum();
            w + e + docs as u64
        })
        .sum()
}

/// The traced run: one fresh round replayed on one thread, the two
/// sessions' jobs alternating, every other job wrapped in spans (with the
/// program's own spans captured inside each step) and the rest bare.
fn replay(seed: u64, tally: &mut Tally, report: &mut Report) {
    let vo = Vo::deploy();
    for tb in &vo.tb {
        tb.telemetry().set_wall_clock(true);
    }
    let agents = [vo.agents(0), vo.agents(1)];
    let mut tracer = Tracer::new();
    let mut bare = Tracer::disabled();
    let (mut traced_us, mut bare_us, mut all_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut step_sum = [0.0f64; 8];
    let mut d = Reading::default();

    for (s, j, input) in interleaved(seed, 1000) {
        let traced = all_us.len() % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut bare };
        let before = traced.then(|| reading(&vo));
        let t0 = Instant::now();
        tr.begin_trace();
        tr.enter("job");
        let r = run_job(&vo, &agents[s], input, &format!("trace-{s}-{j}.dat"), tr);
        tr.exit();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        all_us.push(us);
        let Some(steps) = tally.record(r) else {
            continue;
        };
        if let Some(b) = before {
            let a = reading(&vo);
            d.c14n += a.c14n - b.c14n;
            d.reads += a.reads - b.reads;
            d.writes += a.writes - b.writes;
            d.calls += a.calls - b.calls;
            d.oneways += a.oneways - b.oneways;
            d.bytes += a.bytes - b.bytes;
            d.delivered += a.delivered - b.delivered;
            for (acc, v) in step_sum.iter_mut().zip(steps) {
                *acc += v;
            }
            traced_us.push(us);
        } else {
            bare_us.push(us);
        }
    }
    let mut dead = 0;
    for tb in &vo.tb {
        tb.network().quiesce(Duration::from_secs(10));
        tb.telemetry().set_wall_clock(false);
        dead += tb.network().stats().dead_letters();
    }
    let path = std::path::Path::new(crate::OUT_DIR)
        .join(format!("spans-{}-seed{seed}.jsonl", report.workload));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
    report.info("spans", path.display());

    let jobs = traced_us.len();
    let n = jobs.max(1) as f64;
    let cnt = Some(jobs);
    let under_client = |name: &'static str, client: bool| {
        move |s: &Span, p: Option<&Span>| {
            s.name == name && p.is_some_and(|p| p.name == "client:invoke") == client
        }
    };
    let us = |ns: u64| ns as f64 / 1e3 / n;

    for m in ["serve.frame_us", "serve.residual_us"] {
        report.layer(m, 0.0, "us", None, "gridbox-jobs skips the serve layer");
    }
    report.layer(
        "soap.parse_us",
        us(tracer.self_named("soap:decode")),
        "us",
        cnt,
        "per job, both sides",
    );
    report.layer(
        "soap.write_us",
        us(tracer.self_named("soap:encode")),
        "us",
        cnt,
        "per job, both sides",
    );
    report.layer(
        "soap.req_bytes",
        0.0,
        "bytes",
        None,
        "counter workloads only; see transport.bytes_per_op",
    );
    report.layer(
        "soap.resp_bytes",
        0.0,
        "bytes",
        None,
        "counter workloads only; see transport.bytes_per_op",
    );
    report.layer(
        "security.verify_us",
        us(tracer.self_where(under_client("x509:verify", false))),
        "us",
        cnt,
        "service-side verify per job",
    );
    report.layer(
        "security.sign_us",
        us(tracer.self_where(under_client("x509:sign", false))),
        "us",
        cnt,
        "service-side signing per job",
    );
    report.layer(
        "security.c14n_passes_per_op",
        d.c14n as f64 / n,
        "count",
        cnt,
        "per job, this thread",
    );
    report.layer(
        "container.client_sign_us",
        us(tracer.self_where(under_client("x509:sign", true))),
        "us",
        cnt,
        "caller-side signing per job",
    );
    report.layer(
        "container.client_verify_us",
        us(tracer.self_where(under_client("x509:verify", true))),
        "us",
        cnt,
        "caller-side verify per job",
    );
    report.layer(
        "container.handle_us",
        us(tracer.total_outermost("container:pipeline")),
        "us",
        cnt,
        "outermost service pipelines per job",
    );
    report.layer(
        "container.dispatch_self_us",
        us(tracer.program_self(&["server", "dispatch", "service", "other"])),
        "us",
        cnt,
        "pipeline, dispatch and service self time per job",
    );
    let colls: Vec<_> = vo
        .tb
        .iter()
        .flat_map(|tb| {
            HOSTS.iter().flat_map(move |h| {
                let db = tb.db(h);
                db.collection_names()
                    .into_iter()
                    .map(move |c| db.collection(&c))
            })
        })
        .collect();
    let (get_us, upsert_us) = crate::counter::time_get_upsert(&colls);
    let jobs_wsrf: Vec<_> = colls
        .iter()
        .filter(|c| c.name().contains("Exec") && c.name().starts_with("wsrf:"))
        .collect();
    let jobs_wxf: Vec<_> = colls
        .iter()
        .filter(|c| c.name().contains("Exec") && c.name().starts_with("wxf:"))
        .collect();
    let mut queries: Vec<(&std::sync::Arc<ogsa_xmldb::Collection>, &str)> = Vec::new();
    queries.extend(
        jobs_wsrf
            .iter()
            .map(|c| (*c, "/JobResource[notified='false']")),
    );
    queries.extend(jobs_wxf.iter().map(|c| (*c, "/job[notified='false']")));
    report.info(
        "query_collections",
        queries
            .iter()
            .map(|(c, _)| c.name().to_owned())
            .collect::<Vec<_>>()
            .join(","),
    );
    report.layer(
        "xmldb.get_us",
        get_us,
        "us",
        None,
        "Collection::get on sampled keys of every VO collection",
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
        crate::counter::time_query(&queries),
        "us",
        None,
        "completion-pump XPath at end-of-round size",
    );
    report.layer(
        "xmldb.reads_per_op",
        d.reads as f64 / n,
        "count",
        cnt,
        "per job",
    );
    report.layer(
        "xmldb.writes_per_op",
        d.writes as f64 / n,
        "count",
        cnt,
        "per job",
    );
    for m in ["xmldb.wal_appends_per_op", "xmldb.wal_fsyncs_per_op"] {
        report.layer(m, 0.0, "count", None, "in-memory store");
    }
    report.layer(
        "xmldb.wal_bytes_per_op",
        0.0,
        "bytes",
        None,
        "in-memory store",
    );
    let subs_end = subscribers_total(&vo);
    report.layer(
        "fanout.subscribers",
        subs_end as f64,
        "count",
        None,
        "at end of the traced round",
    );
    report.layer(
        "fanout.deliveries_per_notify",
        d.delivered as f64 / n,
        "count",
        cnt,
        "oneway deliveries per job",
    );
    // Every job-ended event goes to every live subscription; one of them
    // is the job's own.
    report.layer(
        "fanout.useful_ratio",
        jobs as f64 / d.delivered.max(1) as f64,
        "ratio",
        cnt,
        "the job's own delivery over all deliveries",
    );
    let tail = us(tracer.self_where(|s, _| s.name == "finish" && s.origin == Origin::Bench));
    report.layer(
        "fanout.notify_tail_us",
        tail,
        "us",
        cnt,
        "finish step minus its calls: waiting for job-ended",
    );
    for m in ["wsn.subscribe_us", "eventing.subscribe_us"] {
        report.layer(m, 0.0, "us", None, "counter-write-notify only");
    }
    report.layer(
        "transport.calls_per_op",
        d.calls as f64 / n,
        "count",
        cnt,
        "per job",
    );
    report.layer(
        "transport.oneways_per_op",
        d.oneways as f64 / n,
        "count",
        cnt,
        "per job",
    );
    report.layer(
        "transport.bytes_per_op",
        d.bytes as f64 / n,
        "bytes",
        cnt,
        "per job",
    );
    report.layer(
        "transport.dead_letters",
        dead as f64,
        "count",
        None,
        "must be 0",
    );
    for (i, step) in STEPS.iter().enumerate() {
        report.layer(
            &format!("gridbox.{step}_ms"),
            step_sum[i] / 1e3 / n,
            "ms",
            cnt,
            "",
        );
    }
    let decile = (all_us.len() / 10).max(1);
    let first: f64 = all_us[..decile].iter().sum::<f64>() / decile as f64;
    let last: f64 = all_us[all_us.len() - decile..].iter().sum::<f64>() / decile as f64;
    report.layer(
        "gridbox.growth_ratio",
        last / first.max(1e-9),
        "ratio",
        Some(all_us.len()),
        "last-decile over first-decile job latency",
    );
    report.layer(
        "gridbox.subscriptions_end",
        subs_end as f64,
        "count",
        None,
        "",
    );
    report.layer(
        "trace.coverage",
        tracer.coverage("job"),
        "ratio",
        cnt,
        "traced job time covered by timed steps",
    );
    report.layer(
        "telemetry.trace_overhead",
        Summary::of(traced_us, 99.0).p50 / Summary::of(bare_us, 99.0).p50.max(1e-9),
        "ratio",
        cnt,
        "traced job p50 over untraced job p50, same round",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_survives_the_trip_between_processes() {
        let mut o = RoundOut {
            setup_s: 0.25,
            took_s: 1.5,
            rss_mb: 5.125,
            dead_letters: 1,
            max_gap_us: 3.0,
            cpu_s: (1.0, 1.25),
            ..RoundOut::default()
        };
        o.tally.record::<()>(Ok(()));
        o.tally.record::<()>(Err(Failure::Job));
        o.job_us[1].push(2500.5);
        let back = RoundOut::decode(&o.encode()).expect("decodes");
        assert_eq!(back.encode(), o.encode());
        assert_eq!((back.tally.attempted, back.tally.failed()), (2, 1));
        assert!(RoundOut::decode("bogus 1\n").is_none());
    }

    #[test]
    fn the_same_seed_generates_identical_jobs() {
        assert_eq!(session_inputs(3, 0, 1), session_inputs(3, 0, 1));
        assert_ne!(session_inputs(3, 0, 1), session_inputs(4, 0, 1));
        assert_ne!(session_inputs(3, 0, 0), session_inputs(3, 0, 1));
        let jobs = session_inputs(3, 0, 0);
        assert_eq!(jobs.iter().filter(|j| j.stack == 0).count(), JOBS_PER_STACK);
        assert_eq!(jobs.iter().filter(|j| j.stack == 1).count(), JOBS_PER_STACK);
    }
}
