//! `serve_hot` and `serve_churn`: closed loops of two TCP callers
//! against the daemon that `mpmc serve` runs (`PredictionService::
//! run_tcp` with `mpmc serve`'s default limits and two workers).
//!
//! Each caller is a scheduler that waits for its answer before it sends
//! the next request, so throughput is about 2 / latency. The client
//! sends every request as one write (body and newline) with
//! `TCP_NODELAY` on its socket, so any stall left is the daemon's.
//! Latency is timed from the send to the full response line.
//!
//! Every answer is checked bit for bit against an in-process
//! `CombinedModel` on the same inputs.

use crate::fixtures::{self, Stream};
use crate::stats::{peak_rss_mb, Samples};
use crate::trace::{Tracer, TracerView};
use crate::{Config, Outcome, SetupTimes, WORKERS};
use cmpsim::machine::MachineConfig;
use mpmc_model::assignment::{Assignment, CombinedModel};
use mpmc_model::equilibrium;
use mpmc_model::power::PowerModel;
use mpmc_model::profile::ProcessProfile;
use mpmc_service::json::{self, Json};
use mpmc_service::{PredictionService, ServeOptions};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Callers (connections), one per host CPU of the reference host.
const CLIENTS: usize = 2;
/// Registered processes in `serve_hot`.
const HOT_PROCESSES: usize = 8;
/// Placements in `serve_hot`'s catalogue.
const CATALOGUE: usize = 24;
/// Processes resident on each `serve_churn` node between arrivals.
const RESIDENT: usize = 6;
/// `serve_churn`'s daemon cache bound, below the co-run sets a run
/// touches (every arrival brings new ones).
const CHURN_CACHE: usize = 32;
/// Arrivals drawn together as one Latin-hypercube set of profiles.
const ARRIVAL_SET: usize = 8;
/// Requests replayed through the in-process layer probes.
const PROBE_REQUESTS: usize = 1000;

/// A daemon serving TCP on a loopback port from its own thread.
struct Daemon {
    service: Arc<PredictionService>,
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn serve_options(cache_capacity: usize) -> ServeOptions {
    ServeOptions { workers: WORKERS, cache_capacity, ..ServeOptions::default() }
}

impl Daemon {
    fn start(machine: &MachineConfig, power: &PowerModel, opts: ServeOptions) -> Daemon {
        let service =
            Arc::new(PredictionService::with_options(machine.clone(), power.clone(), opts));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let svc = Arc::clone(&service);
        let thread = Some(std::thread::spawn(move || svc.run_tcp(listener)));
        Daemon { service, addr, thread }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.service.request_shutdown();
        if let Some(t) = self.thread.take() {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("perfbench: daemon accept loop failed: {e}"),
                Err(_) => eprintln!("perfbench: daemon thread panicked"),
            }
        }
    }
}

/// One caller's connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
        Client { writer: stream, reader, buf: Vec::new() }
    }

    /// Sends `body` and its newline in one write and reads one response
    /// line.
    fn call(&mut self, body: &str) -> std::io::Result<String> {
        self.buf.clear();
        self.buf.extend_from_slice(body.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// A call whose answer must be `ok`; used during set-up.
    fn must(&mut self, body: &str) -> Json {
        let line = self.call(body).expect("set-up request answered");
        let resp = json::parse(&line).expect("well-formed response");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "set-up request failed: {line}");
        resp
    }
}

fn num(resp: &Json, path: &[&str]) -> f64 {
    let mut v = resp;
    for p in path {
        match v.get(p) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

fn register_body(name: &str, text: &str) -> String {
    Json::Obj(vec![
        ("op".into(), Json::str("register")),
        ("name".into(), Json::str(name)),
        ("profile".into(), Json::str(text)),
    ])
    .render()
}

fn queues_json(queues: &[Vec<String>]) -> Json {
    Json::Arr(
        queues
            .iter()
            .map(|q| Json::Arr(q.iter().map(|n| Json::str(n.as_str())).collect()))
            .collect(),
    )
}

/// The profile list and assignment the daemon builds from per-core name
/// queues: profiles in order of first appearance.
fn resolve(
    registry: &BTreeMap<String, ProcessProfile>,
    queues: &[Vec<String>],
    num_cores: usize,
) -> (Vec<ProcessProfile>, Vec<String>, Assignment) {
    let mut names: Vec<String> = Vec::new();
    let mut profiles = Vec::new();
    let mut asg = Assignment::new(num_cores);
    for (core, q) in queues.iter().enumerate() {
        for name in q {
            let idx = match names.iter().position(|n| n == name) {
                Some(i) => i,
                None => {
                    names.push(name.clone());
                    profiles.push(registry[name].clone());
                    names.len() - 1
                }
            };
            asg.assign(core, idx);
        }
    }
    (profiles, names, asg)
}

/// Counters from the daemon's `stats` op, as per-layer metrics.
fn stats_metrics(stats: &Json, out: &mut Outcome) {
    let hits = num(stats, &["eq_cache", "hits"]);
    let misses = num(stats, &["eq_cache", "misses"]);
    out.metric("service.shed", num(stats, &["admission", "shed"]));
    out.metric("service.deadline_exceeded", num(stats, &["requests", "deadline_exceeded"]));
    out.metric("service.singleflight_shared", num(stats, &["singleflight", "shared"]));
    out.metric("service.breaker_trips", num(stats, &["breaker", "trips"]));
    out.metric("service.degraded", num(stats, &["requests", "degraded"]));
    out.metric("core.eqcache_hits", hits);
    out.metric("core.eqcache_misses", misses);
    out.metric("core.eqcache_evictions", num(stats, &["eq_cache", "evictions"]));
    out.metric("core.eqcache_hit_ratio", hits / (hits + misses).max(1.0));
    out.metric("core.solver_fallbacks", num(stats, &["solver_fallbacks"]));
}

/// End-to-end metrics of a closed loop.
fn e2e_metrics(setup: &SetupTimes, elapsed_s: f64, times: &mut Samples, out: &mut Outcome) {
    out.metric("setup_s", setup.median());
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("throughput_per_s", times.len() as f64 / elapsed_s);
    out.metric("latency_p50_us", times.percentile(0.5) * 1e6);
    out.metric("latency_p90_us", times.percentile(0.9) * 1e6);
    out.metric("latency_p99_us", times.percentile(0.99) * 1e6);
    out.detail("requests", times.summary_us());
}

/// Per-request wall time of an in-process `run_stdio` session over
/// `lines`, skipping the first `skip` (warm-up) requests: from the read
/// of a request line to the write of its response's newline.
fn session_times(service: &PredictionService, lines: &[String], skip: usize) -> Samples {
    struct Input<'a> {
        lines: &'a [String],
        line: usize,
        pos: usize,
        started: Vec<Instant>,
    }
    impl std::io::Read for Input<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            self.consume(n);
            Ok(n)
        }
    }
    impl BufRead for Input<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            let Some(line) = self.lines.get(self.line) else { return Ok(&[]) };
            if self.pos == 0 && self.started.len() == self.line {
                self.started.push(Instant::now());
            }
            let bytes = line.as_bytes();
            // The line, then its newline as a one-byte tail.
            Ok(if self.pos < bytes.len() { &bytes[self.pos..] } else { b"\n" })
        }
        fn consume(&mut self, n: usize) {
            self.pos += n;
            if self.pos > self.lines[self.line].len() {
                self.line += 1;
                self.pos = 0;
            }
        }
    }
    struct Output {
        finished: Vec<Instant>,
    }
    impl Write for Output {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.last() == Some(&b'\n') {
                self.finished.push(Instant::now());
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut input = Input { lines, line: 0, pos: 0, started: Vec::new() };
    let mut output = Output { finished: Vec::new() };
    service.run_stdio(&mut input, &mut output).expect("in-memory session runs");
    let mut times = Samples::default();
    for (s, f) in input.started.iter().zip(&output.finished).skip(skip) {
        times.push(f.duration_since(*s).as_secs_f64());
    }
    times
}

/// Mean seconds of `json::parse` over request lines and of
/// `Json::render` over the parsed response lines.
fn json_times(tracer: &Tracer, requests: &[&str], responses: &[&str]) -> (f64, f64) {
    let mut parse = Samples::default();
    for (i, line) in requests.iter().enumerate() {
        let (r, secs) = tracer.span("service.json_parse", 0, i as u64, |_| json::parse(line));
        r.expect("request lines are valid JSON");
        parse.push(secs);
    }
    let mut render = Samples::default();
    for (i, line) in responses.iter().enumerate() {
        let doc = json::parse(line).expect("responses are valid JSON");
        let (text, secs) = tracer.span("service.json_render", 0, i as u64, |_| doc.render());
        std::hint::black_box(text);
        render.push(secs);
    }
    (parse.mean(), render.mean())
}

/// Mean seconds of `equilibrium::solve` over distinct co-run sets.
fn solve_times(tracer: &Tracer, machine: &MachineConfig, sets: &[Vec<&ProcessProfile>]) -> f64 {
    let mut t = Samples::default();
    for (i, set) in sets.iter().enumerate() {
        let fv: Vec<_> = set.iter().map(|p| &p.feature).collect();
        let (r, secs) = tracer.span("core.equilibrium_solve", 0, i as u64, |_| {
            equilibrium::solve(&fv, machine.l2_assoc())
        });
        r.expect("co-run set solves");
        t.push(secs);
    }
    t.mean()
}

/// Closes the serve ledger: mean client round trip = wire + JSON parse
/// + JSON render + core + unaccounted, per request in microseconds.
fn ledger(
    out: &mut Outcome,
    rtt_s: f64,
    session: &mut Samples,
    parse_s: f64,
    render_s: f64,
    core_s: f64,
) {
    let rtt = rtt_s * 1e6;
    let session_us = session.mean() * 1e6;
    let wire = rtt - session_us;
    let (parse, render, core) = (parse_s * 1e6, render_s * 1e6, core_s * 1e6);
    let unaccounted = rtt - wire - parse - render - core;
    out.metric("service.wire_us", wire);
    out.metric("service.session_us", session_us);
    out.metric("service.json_parse_us", parse);
    out.metric("service.json_render_us", render);
    out.metric("unaccounted_us", unaccounted);
    out.metric("unaccounted_s", unaccounted / 1e6);
    out.detail("session", session.summary_us());
    out.detail(
        "ledger_us_per_request",
        Json::Obj(vec![
            ("round_trip".into(), Json::Num(rtt)),
            ("wire".into(), Json::Num(wire)),
            ("json_parse".into(), Json::Num(parse)),
            ("json_render".into(), Json::Num(render)),
            ("core".into(), Json::Num(core)),
            ("unaccounted".into(), Json::Num(unaccounted)),
        ]),
    );
}

// ---------------------------------------------------------------- hot

struct HotInputs {
    machine: MachineConfig,
    power: PowerModel,
    names: Vec<String>,
    texts: Vec<String>,
    /// Catalogue placements as per-core name queues.
    catalogue: Vec<Vec<Vec<String>>>,
    /// `"op":"estimate","assignment":...}` tail of each request body.
    bodies: Vec<String>,
}

fn hot_inputs(seed: u64) -> HotInputs {
    let machine = fixtures::machine();
    let power = fixtures::power_model(&machine, seed);
    let names: Vec<String> = (0..HOT_PROCESSES).map(|i| format!("p{i}")).collect();
    let texts = fixtures::profiles(&names, &machine, seed, 0x4077)
        .iter()
        .map(fixtures::profile_text)
        .collect();
    // Each placement: a seeded shuffle of the 8 processes, two per core.
    let mut rng = Stream::new(seed, 0xCA7A);
    let cores = machine.num_cores();
    let catalogue: Vec<Vec<Vec<String>>> = (0..CATALOGUE)
        .map(|_| {
            let mut order: Vec<usize> = (0..HOT_PROCESSES).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut queues = vec![Vec::new(); cores];
            for (slot, &p) in order.iter().enumerate() {
                queues[slot % cores].push(names[p].clone());
            }
            queues
        })
        .collect();
    let bodies = catalogue
        .iter()
        .map(|q| format!("\"op\":\"estimate\",\"assignment\":{}}}", queues_json(q).render()))
        .collect();
    HotInputs { machine, power, names, texts, catalogue, bodies }
}

fn hot_body(inputs: &HotInputs, id: u64, rank: usize) -> String {
    format!("{{\"id\":{id},{}", inputs.bodies[rank])
}

/// Starts a daemon, registers the processes and puts every co-run set
/// of the catalogue in its cache, both callers working in parallel.
fn hot_setup(inputs: &HotInputs) -> (Daemon, Vec<Client>) {
    let daemon = Daemon::start(&inputs.machine, &inputs.power, serve_options(4096));
    let mut clients: Vec<Client> = (0..CLIENTS).map(|_| Client::connect(daemon.addr)).collect();
    std::thread::scope(|s| {
        for (c, client) in clients.iter_mut().enumerate() {
            s.spawn(move || {
                for i in (c..inputs.names.len()).step_by(CLIENTS) {
                    client.must(&register_body(&inputs.names[i], &inputs.texts[i]));
                }
            });
        }
    });
    std::thread::scope(|s| {
        for (c, client) in clients.iter_mut().enumerate() {
            s.spawn(move || {
                for rank in (c..CATALOGUE).step_by(CLIENTS) {
                    client.must(&hot_body(inputs, 0, rank));
                }
            });
        }
    });
    (daemon, clients)
}

/// One caller's closed loop: Zipf-skewed catalogue estimates for
/// `seconds`. Returns round-trip times, attempted, failed, and the
/// first requests with their response lines for the probes.
#[allow(clippy::type_complexity)]
fn hot_loop(
    inputs: &HotInputs,
    expected: &[u64],
    client: &mut Client,
    rng: &mut Stream,
    caller: u64,
    seconds: f64,
    view: &TracerView<'_>,
) -> (Samples, u64, u64, Vec<(usize, String)>) {
    let mut times = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut log = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let rank = fixtures::zipf_rank(rng, CATALOGUE);
        let id = (caller << 40) | attempted;
        let body = hot_body(inputs, id, rank);
        attempted += 1;
        let (resp, secs) = view.span("serve.request", 0, id, |_| client.call(&body));
        let Ok(line) = resp else {
            failed += 1;
            break;
        };
        times.push(secs);
        let good = json::parse(&line).is_ok_and(|r| {
            r.get("ok") == Some(&Json::Bool(true))
                && r.get("id").and_then(Json::as_f64) == Some(id as f64)
                && r.get("power_w").and_then(Json::as_f64).map(f64::to_bits) == Some(expected[rank])
        });
        if !good {
            failed += 1;
        }
        if log.len() < PROBE_REQUESTS / CLIENTS {
            log.push((rank, line));
        }
    }
    (times, attempted, failed, log)
}

/// Runs both callers for `seconds`; returns merged times, elapsed wall
/// time and the probe log.
fn hot_phase(
    inputs: &HotInputs,
    expected: &[u64],
    clients: &mut [Client],
    rngs: &mut [Stream],
    seconds: f64,
    view: &TracerView<'_>,
    out: &mut Outcome,
) -> (Samples, f64, Vec<(usize, String)>) {
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(c, (client, rng))| {
                s.spawn(move || hot_loop(inputs, expected, client, rng, c as u64, seconds, view))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut times = Samples::default();
    let mut log = Vec::new();
    for (t, attempted, failed, l) in results {
        times.extend(&t);
        out.attempted += attempted;
        out.failed += failed;
        log.extend(l);
    }
    (times, elapsed, log)
}

pub fn hot(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs = hot_inputs(cfg.seed);
    let registry: BTreeMap<String, ProcessProfile> = inputs
        .names
        .iter()
        .zip(&inputs.texts)
        .map(|(n, t)| {
            (n.clone(), mpmc_model::persist::read_profile(t.as_bytes()).expect("profile"))
        })
        .collect();
    let cores = inputs.machine.num_cores();

    // Reference answers, in process, before set-up.
    let reference = CombinedModel::new(&inputs.machine, &inputs.power);
    let expected: Vec<u64> = inputs
        .catalogue
        .iter()
        .map(|q| {
            let (profiles, _, asg) = resolve(&registry, q, cores);
            reference
                .estimate_processor_power(&profiles, &asg)
                .expect("reference estimate")
                .to_bits()
        })
        .collect();

    let mut setup = SetupTimes::default();
    let (daemon, mut clients) = setup.repeat(3, || hot_setup(&inputs));
    let mut rngs: Vec<Stream> =
        (0..CLIENTS).map(|c| Stream::new(cfg.seed, 0x2000 + c as u64)).collect();

    if !cfg.trace {
        let view = tracer.with_enabled(false);
        let (mut times, elapsed, _) =
            hot_phase(&inputs, &expected, &mut clients, &mut rngs, cfg.seconds, &view, &mut out);
        out.correct = out.failed == 0;
        e2e_metrics(&setup, elapsed, &mut times, &mut out);
        drop(clients);
        drop(daemon);
        return out;
    }

    let half = cfg.seconds / 2.0;
    let (mut plain, _, log) = hot_phase(
        &inputs,
        &expected,
        &mut clients,
        &mut rngs,
        half,
        &tracer.with_enabled(false),
        &mut out,
    );
    let (mut traced, _, _) = hot_phase(
        &inputs,
        &expected,
        &mut clients,
        &mut rngs,
        half,
        &tracer.with_enabled(true),
        &mut out,
    );
    out.correct = out.failed == 0;
    let stats = clients[0].must("{\"op\":\"stats\"}");
    stats_metrics(&stats, &mut out);
    drop(clients);
    drop(daemon);

    // In-process session over the same requests, after the same warm-up.
    let probe = PredictionService::with_options(
        inputs.machine.clone(),
        inputs.power.clone(),
        serve_options(4096),
    );
    for (n, p) in &registry {
        probe.register_profile(n, p.clone()).expect("register in process");
    }
    let mut lines: Vec<String> = (0..CATALOGUE).map(|r| hot_body(&inputs, 0, r)).collect();
    lines.extend(log.iter().enumerate().map(|(i, (rank, _))| hot_body(&inputs, i as u64, *rank)));
    let mut session = session_times(&probe, &lines, CATALOGUE);

    let requests: Vec<&str> = lines[CATALOGUE..].iter().map(String::as_str).collect();
    let responses: Vec<&str> = log.iter().map(|(_, l)| l.as_str()).collect();
    let (parse_s, render_s) = json_times(tracer, &requests, &responses);

    // Core: the same estimates with every co-run set cached, then with
    // no cache at all.
    let warm = CombinedModel::new(&inputs.machine, &inputs.power);
    let resolved: Vec<_> = inputs.catalogue.iter().map(|q| resolve(&registry, q, cores)).collect();
    for (profiles, _, asg) in &resolved {
        warm.estimate_processor_power(profiles, asg).expect("warm-up estimate");
    }
    let mut warm_t = Samples::default();
    for (i, (rank, _)) in log.iter().enumerate() {
        let (profiles, _, asg) = &resolved[*rank];
        let (r, secs) = tracer.span("core.estimate_warm", 0, i as u64, |_| {
            warm.estimate_processor_power(profiles, asg)
        });
        r.expect("cached estimate");
        warm_t.push(secs);
    }
    let cold =
        CombinedModel::new(&inputs.machine, &inputs.power).with_equilibrium_cache_capacity(0);
    let mut solve_t = Samples::default();
    for (i, (rank, _)) in log.iter().take(100).enumerate() {
        let (profiles, _, asg) = &resolved[*rank];
        let (r, secs) = tracer.span("core.estimate_solve", 0, i as u64, |_| {
            cold.estimate_processor_power(profiles, asg)
        });
        r.expect("uncached estimate");
        solve_t.push(secs);
    }
    let mut sets = std::collections::BTreeSet::new();
    for (_, names, asg) in &resolved {
        for set in fixtures::corun_sets(&inputs.machine, &asg.to_queues()) {
            let mut key: Vec<&str> = set.iter().map(|&i| names[i].as_str()).collect();
            key.sort_unstable();
            sets.insert(key);
        }
    }
    let sets: Vec<Vec<&ProcessProfile>> =
        sets.iter().map(|k| k.iter().map(|n| &registry[*n]).collect()).collect();
    let eq_s = solve_times(tracer, &inputs.machine, &sets);

    out.metric("core.estimate_warm_us", warm_t.mean() * 1e6);
    out.metric("core.estimate_solve_us", solve_t.mean() * 1e6);
    out.metric("core.equilibrium_solve_us", eq_s * 1e6);
    out.metric(
        "trace_overhead_pct",
        (traced.percentile(0.5) / plain.percentile(0.5) - 1.0) * 100.0,
    );
    out.detail("requests_untraced", plain.summary_us());
    out.detail("requests_traced", traced.summary_us());
    out.detail("distinct_corun_sets", Json::Num(sets.len() as f64));
    ledger(&mut out, plain.mean(), &mut session, parse_s, render_s, warm_t.mean());
    out
}

// -------------------------------------------------------------- churn

/// One churn request as the caller sent it, with its answer.
enum Op {
    Register { name: String, text: String },
    Assign { process: String, current: Vec<Vec<String>> },
    Estimate { queues: Vec<Vec<String>> },
    Unregister { name: String },
}

struct Logged {
    op: Op,
    body: String,
    response: String,
}

/// One scheduler node, driven over one connection.
struct Node {
    caller: usize,
    queues: Vec<Vec<String>>,
    resident: VecDeque<String>,
    arrivals: u64,
    /// Set-up registrations, replayed before the log.
    initial: Vec<(String, String)>,
    /// The current set of arrivals: its index and profile texts.
    arriving: (u64, Vec<String>),
}

impl Node {
    /// Name and profile text of arrival `k`. Arrivals are drawn in sets
    /// of `ARRIVAL_SET` (see `fixtures::profiles`).
    fn arrival(&mut self, machine: &MachineConfig, seed: u64, k: u64) -> (String, String) {
        let set = k / ARRIVAL_SET as u64;
        if self.arriving.1.is_empty() || self.arriving.0 != set {
            let first = set * ARRIVAL_SET as u64;
            let names: Vec<String> = (first..first + ARRIVAL_SET as u64)
                .map(|j| format!("c{}_{j}", self.caller))
                .collect();
            let salt = 0xC4_0000_0000 + ((self.caller as u64) << 32) + set;
            let texts = fixtures::profiles(&names, machine, seed, salt);
            self.arriving = (set, texts.iter().map(fixtures::profile_text).collect());
        }
        let name = format!("c{}_{k}", self.caller);
        (name, self.arriving.1[(k % ARRIVAL_SET as u64) as usize].clone())
    }
}

fn churn_setup(
    machine: &MachineConfig,
    power: &PowerModel,
    seed: u64,
) -> (Daemon, Vec<(Client, Node)>) {
    let daemon = Daemon::start(machine, power, serve_options(CHURN_CACHE));
    let mut nodes: Vec<(Client, Node)> = (0..CLIENTS)
        .map(|caller| {
            let node = Node {
                caller,
                queues: vec![Vec::new(); machine.num_cores()],
                resident: VecDeque::new(),
                arrivals: 0,
                initial: Vec::new(),
                arriving: (0, Vec::new()),
            };
            (Client::connect(daemon.addr), node)
        })
        .collect();
    std::thread::scope(|s| {
        for (client, node) in &mut nodes {
            s.spawn(move || {
                for k in 0..RESIDENT as u64 {
                    let (name, text) = node.arrival(machine, seed, k);
                    client.must(&register_body(&name, &text));
                    node.queues[k as usize % machine.num_cores()].push(name.clone());
                    node.resident.push_back(name.clone());
                    node.initial.push((name, text));
                }
                node.arrivals = RESIDENT as u64;
            });
        }
    });
    (daemon, nodes)
}

/// One caller's closed loop of arrive/place/run/depart cycles.
fn churn_loop(
    machine: &MachineConfig,
    seed: u64,
    client: &mut Client,
    node: &mut Node,
    seconds: f64,
    view: &TracerView<'_>,
) -> (Samples, Vec<Logged>, bool) {
    let mut times = Samples::default();
    let mut log = Vec::new();
    let mut request = 0u64;
    let caller = node.caller as u64;
    let mut send = |op: Op, body: String, log: &mut Vec<Logged>| -> Option<String> {
        let id = (caller << 40) | request;
        request += 1;
        let (resp, secs) = view.span("serve.request", 0, id, |_| client.call(&body));
        let response = resp.ok()?;
        times.push(secs);
        log.push(Logged { op, body, response: response.clone() });
        Some(response)
    };
    let start = Instant::now();
    let mut alive = true;
    while alive && start.elapsed().as_secs_f64() < seconds {
        let k = node.arrivals;
        node.arrivals += 1;
        let (name, text) = node.arrival(machine, seed, k);
        let body = register_body(&name, &text);
        alive &= send(Op::Register { name: name.clone(), text }, body, &mut log).is_some();

        let current = node.queues.clone();
        let body = Json::Obj(vec![
            ("op".into(), Json::str("assign")),
            ("process".into(), Json::str(name.as_str())),
            ("current".into(), queues_json(&current)),
        ])
        .render();
        let answer = send(Op::Assign { process: name.clone(), current }, body, &mut log);
        alive &= answer.is_some();
        let best = answer
            .and_then(|l| json::parse(&l).ok())
            .and_then(|r| r.get("best_core").and_then(Json::as_usize))
            .filter(|&c| c < machine.num_cores())
            .unwrap_or(k as usize % machine.num_cores());
        node.queues[best].push(name.clone());
        node.resident.push_back(name);

        let queues = node.queues.clone();
        let body = Json::Obj(vec![
            ("op".into(), Json::str("estimate")),
            ("assignment".into(), queues_json(&queues)),
        ])
        .render();
        alive &= send(Op::Estimate { queues }, body, &mut log).is_some();

        let gone = node.resident.pop_front().expect("a resident process departs");
        for q in &mut node.queues {
            q.retain(|n| *n != gone);
        }
        let body = Json::Obj(vec![
            ("op".into(), Json::str("unregister")),
            ("name".into(), Json::str(gone.as_str())),
        ])
        .render();
        alive &= send(Op::Unregister { name: gone }, body, &mut log).is_some();
    }
    (times, log, alive)
}

/// Failed ops of a replayed log, and core seconds per call kind.
struct Replay {
    failed: u64,
    assign: Samples,
    estimate: Samples,
}

/// Replays a caller's log in process, checking every answer bit for
/// bit against a `CombinedModel` with the daemon's cache bound, and
/// times the core calls of the first `timed` entries.
fn replay(
    machine: &MachineConfig,
    power: &PowerModel,
    initial: &[(String, String)],
    log: &[&Logged],
    timed: usize,
    tracer: &Tracer,
) -> Replay {
    let model = CombinedModel::new(machine, power).with_equilibrium_cache_capacity(CHURN_CACHE);
    let parse = |t: &str| mpmc_model::persist::read_profile(t.as_bytes()).expect("profile text");
    let mut registry: BTreeMap<String, ProcessProfile> =
        initial.iter().map(|(n, t)| (n.clone(), parse(t))).collect();
    let cores: Vec<usize> = (0..machine.num_cores()).collect();
    let mut r = Replay { failed: 0, assign: Samples::default(), estimate: Samples::default() };
    for (i, entry) in log.iter().enumerate() {
        let resp = json::parse(&entry.response).ok();
        let field = |k: &str| resp.as_ref().and_then(|r| r.get(k)).and_then(Json::as_f64);
        let ok = resp.as_ref().and_then(|r| r.get("ok")) == Some(&Json::Bool(true));
        let good = ok
            && match &entry.op {
                Op::Register { name, text } => {
                    registry.insert(name.clone(), parse(text));
                    true
                }
                Op::Unregister { name } => registry.remove(name).is_some(),
                Op::Assign { process, current } => {
                    let (mut profiles, names, asg) = resolve(&registry, current, cores.len());
                    let idx = match names.iter().position(|n| n == process) {
                        Some(i) => i,
                        None => {
                            profiles.push(registry[process].clone());
                            profiles.len() - 1
                        }
                    };
                    let (est, secs) = tracer.span("core.assign_candidates", 0, i as u64, |_| {
                        model.estimate_candidates(&profiles, &asg, idx, &cores, 1)
                    });
                    if i < timed {
                        r.assign.push(secs);
                    }
                    let est = est.expect("candidate estimates");
                    let mut best = 0;
                    for c in 1..est.len() {
                        if est[c] < est[best] {
                            best = c;
                        }
                    }
                    field("best_core") == Some(best as f64)
                        && field("best_power_w").map(f64::to_bits) == Some(est[best].to_bits())
                }
                Op::Estimate { queues } => {
                    let (profiles, _, asg) = resolve(&registry, queues, cores.len());
                    let (est, secs) = tracer.span("core.estimate", 0, i as u64, |_| {
                        model.estimate_processor_power(&profiles, &asg)
                    });
                    if i < timed {
                        r.estimate.push(secs);
                    }
                    field("power_w").map(f64::to_bits) == Some(est.expect("estimate").to_bits())
                }
            };
        if !good {
            r.failed += 1;
        }
    }
    r
}

fn churn_phase(
    machine: &MachineConfig,
    seed: u64,
    nodes: &mut [(Client, Node)],
    seconds: f64,
    view: &TracerView<'_>,
    out: &mut Outcome,
) -> (Samples, f64, Vec<Vec<Logged>>) {
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter_mut()
            .map(|(client, node)| {
                s.spawn(move || churn_loop(machine, seed, client, node, seconds, view))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut times = Samples::default();
    let mut logs = Vec::new();
    for (t, log, alive) in results {
        times.extend(&t);
        out.attempted += log.len() as u64 + u64::from(!alive);
        out.failed += u64::from(!alive);
        logs.push(log);
    }
    (times, elapsed, logs)
}

pub fn churn(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let machine = fixtures::machine();
    let power = fixtures::power_model(&machine, cfg.seed);
    let mut setup = SetupTimes::default();
    let (daemon, mut nodes) = setup.repeat(3, || churn_setup(&machine, &power, cfg.seed));
    let initial: Vec<Vec<(String, String)>> =
        nodes.iter().map(|(_, n)| n.initial.clone()).collect();

    if !cfg.trace {
        let view = tracer.with_enabled(false);
        let (mut times, elapsed, logs) =
            churn_phase(&machine, cfg.seed, &mut nodes, cfg.seconds, &view, &mut out);
        drop(nodes);
        drop(daemon);
        // Check every answer after timing, one replay per caller.
        let failed: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = initial
                .iter()
                .zip(&logs)
                .map(|(init, log)| {
                    let log: Vec<&Logged> = log.iter().collect();
                    let (machine, power) = (&machine, &power);
                    s.spawn(move || replay(machine, power, init, &log, 0, tracer).failed)
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("replay thread")).sum()
        });
        out.failed += failed;
        out.correct = out.failed == 0;
        e2e_metrics(&setup, elapsed, &mut times, &mut out);
        return out;
    }

    let half = cfg.seconds / 2.0;
    let (mut plain, _, logs) =
        churn_phase(&machine, cfg.seed, &mut nodes, half, &tracer.with_enabled(false), &mut out);
    let (mut traced, _, traced_logs) =
        churn_phase(&machine, cfg.seed, &mut nodes, half, &tracer.with_enabled(true), &mut out);
    let stats = nodes[0].0.must("{\"op\":\"stats\"}");
    stats_metrics(&stats, &mut out);
    drop(nodes);
    drop(daemon);

    // Replay both phases of each caller in process: checks every answer
    // and times the untraced phase's core calls with the daemon's cache
    // bound.
    let replays: Vec<Replay> = initial
        .iter()
        .zip(logs.iter().zip(&traced_logs))
        .map(|(init, (a, b))| {
            let both: Vec<&Logged> = a.iter().chain(b).collect();
            replay(&machine, &power, init, &both, a.len(), tracer)
        })
        .collect();
    out.failed += replays.iter().map(|r| r.failed).sum::<u64>();
    out.correct = out.failed == 0;

    let mut assign = Samples::default();
    let mut estimate = Samples::default();
    for r in &replays {
        assign.extend(&r.assign);
        estimate.extend(&r.estimate);
    }
    let ops: usize = logs.iter().map(Vec::len).sum();
    let core_per_op = (assign.sum() + estimate.sum()) / ops.max(1) as f64;

    // In-process session over the same requests after the same set-up.
    let probe =
        PredictionService::with_options(machine.clone(), power.clone(), serve_options(CHURN_CACHE));
    let mut lines: Vec<String> =
        initial.iter().flatten().map(|(n, t)| register_body(n, t)).collect();
    let skip = lines.len();
    lines.extend(logs.iter().flatten().map(|l| l.body.clone()));
    let mut session = session_times(&probe, &lines, skip);

    let requests: Vec<&str> = lines[skip..].iter().map(String::as_str).collect();
    let responses: Vec<&str> = logs.iter().flatten().map(|l| l.response.as_str()).collect();
    let (parse_s, render_s) = json_times(tracer, &requests, &responses);

    // The run's estimates with every set cached and with no cache, and
    // the distinct co-run sets they touch, solved one by one.
    let mut registry: BTreeMap<String, ProcessProfile> = BTreeMap::new();
    let parse = |t: &str| mpmc_model::persist::read_profile(t.as_bytes()).expect("profile text");
    for (n, t) in initial.iter().flatten() {
        registry.insert(n.clone(), parse(t));
    }
    let mut estimates = Vec::new();
    for l in logs.iter().flatten() {
        match &l.op {
            Op::Register { name, text } => {
                registry.insert(name.clone(), parse(text));
            }
            Op::Estimate { queues } if estimates.len() < PROBE_REQUESTS => {
                estimates.push(resolve(&registry, queues, machine.num_cores()));
            }
            _ => {}
        }
    }
    let warm = CombinedModel::new(&machine, &power);
    let cold = CombinedModel::new(&machine, &power).with_equilibrium_cache_capacity(0);
    let mut warm_t = Samples::default();
    let mut solve_t = Samples::default();
    let mut sets = BTreeMap::new();
    for (i, (profiles, names, asg)) in estimates.iter().enumerate() {
        let (r, secs) = tracer.span("core.estimate_solve", 0, i as u64, |_| {
            cold.estimate_processor_power(profiles, asg)
        });
        r.expect("uncached estimate");
        solve_t.push(secs);
        warm.estimate_processor_power(profiles, asg).expect("warm-up estimate");
        let (r, secs) = tracer.span("core.estimate_warm", 0, i as u64, |_| {
            warm.estimate_processor_power(profiles, asg)
        });
        r.expect("cached estimate");
        warm_t.push(secs);
        for set in fixtures::corun_sets(&machine, &asg.to_queues()) {
            let mut key: Vec<String> = set.iter().map(|&i| names[i].clone()).collect();
            key.sort_unstable();
            let members: Vec<&ProcessProfile> = set.iter().map(|&i| &profiles[i]).collect();
            sets.entry(key).or_insert(members);
        }
    }
    let sets: Vec<Vec<&ProcessProfile>> = sets.into_values().collect();
    let eq_s = solve_times(tracer, &machine, &sets);

    out.metric("core.estimate_warm_us", warm_t.mean() * 1e6);
    out.metric("core.estimate_solve_us", solve_t.mean() * 1e6);
    out.metric("core.assign_candidates_us", assign.mean() * 1e6);
    out.metric("core.equilibrium_solve_us", eq_s * 1e6);
    out.metric(
        "trace_overhead_pct",
        (traced.percentile(0.5) / plain.percentile(0.5) - 1.0) * 100.0,
    );
    out.detail("requests_untraced", plain.summary_us());
    out.detail("requests_traced", traced.summary_us());
    out.detail("distinct_corun_sets", Json::Num(sets.len() as f64));
    ledger(&mut out, plain.mean(), &mut session, parse_s, render_s, core_per_op);
    out
}
