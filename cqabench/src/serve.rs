//! The two serving workloads, both against an in-process
//! `cqa_server::serve` driven from this process over loopback TCP.
//!
//! * `serve_read`: warm reads in a closed loop over one persistent
//!   connection, every one a cache hit, so the solvers sit idle and only
//!   wire, JSON, manager and cache costs show.
//! * `serve_rw`: open-loop reads (≈1000/s) on one connection beside
//!   open-loop live updates (≈10/s) on another; both are timed from the
//!   moment they were due, so a stall shows in every request behind it.

use crate::gen::{spawn_generator, Inputs};
use crate::reference::CostMeter;
use crate::report::{cpu_seconds, peak_rss_mb, Outcome};
use crate::spec::THREADS;
use crate::stats::{mean, quantile, reportable, sorted};
use crate::trace::Tracer;
use crate::worker::{engine_config, WorkerCtx};
use cqa::{CqaEngine, SharedSession};
use cqa_cli::dbfmt::read_database;
use cqa_query::{parse_query, Query};
use cqa_server::json::{obj, Json};
use cqa_server::protocol::{encode_request, ok_response, parse_request, parse_response};
use cqa_server::{
    parse_delta_script, serve, Client, Loader, ManagerStats, Method, Request, ServeConfig,
    ServerHandle, SessionManager,
};
use cqa_workloads::queries::derive_seed;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One `read_database` call made by the server's loader.
#[derive(Clone, Copy, Debug)]
struct Load {
    seconds: f64,
    facts: usize,
    approx_bytes: usize,
}

/// The served texts, kept in memory; the loader parses them with
/// `read_database`, so loading costs what a fact file costs minus the
/// disk.
struct Texts {
    names: Vec<String>,
    by_name: HashMap<String, Arc<String>>,
    /// Query lines per text, in spec order.
    queries: Vec<Vec<&'static str>>,
}

impl Texts {
    fn new(inputs: &Inputs) -> Texts {
        Texts {
            names: inputs
                .texts
                .iter()
                .map(|(k, _)| k.name().to_string())
                .collect(),
            by_name: inputs
                .texts
                .iter()
                .map(|(k, t)| (k.name().to_string(), Arc::new(t.clone())))
                .collect(),
            queries: inputs
                .texts
                .iter()
                .map(|(k, _)| k.queries().to_vec())
                .collect(),
        }
    }

    fn loader(&self, loads: Option<Arc<Mutex<Vec<Load>>>>) -> Loader {
        let by_name = self.by_name.clone();
        Arc::new(move |path: &str| {
            let text = by_name
                .get(path)
                .ok_or_else(|| format!("no text named {path}"))?;
            let start = Instant::now();
            let db = read_database(text.as_bytes()).map_err(|e| e.to_string())?;
            if let Some(loads) = &loads {
                loads.lock().expect("load log lock poisoned").push(Load {
                    seconds: start.elapsed().as_secs_f64(),
                    facts: db.len(),
                    approx_bytes: db.approx_bytes(),
                });
            }
            Ok(db)
        })
    }
}

/// A running in-process server plus what its loader recorded.
struct Served {
    handle: ServerHandle,
    loads: Arc<Mutex<Vec<Load>>>,
}

fn start_server(texts: &Texts) -> Served {
    let loads = Arc::new(Mutex::new(Vec::new()));
    let mut config = ServeConfig::new(texts.loader(Some(Arc::clone(&loads))));
    config.addr = "127.0.0.1:0".into();
    config.threads = THREADS;
    config.engine = engine_config();
    let handle = serve(config).expect("the benchmark server binds a loopback port");
    Served { handle, loads }
}

fn connect(served: &Served) -> Client {
    Client::connect(served.handle.addr()).expect("the in-process server accepts")
}

/// Window lengths of the read percentiles. A `serve_rw` window at 1000
/// reads/s still has ten samples beyond its p99.
const READ_WINDOW_SECONDS: u64 = 1;
const RW_WINDOW_SECONDS: u64 = 4;

/// Length of the windows the serving workloads' CPU time is taken over.
const CPU_WINDOW: Duration = Duration::from_millis(250);

/// More closed-loop reads per second than a 2-CPU host completes.
const READ_CAPACITY_PER_SECOND: usize = 100_000;

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}

/// A seeded draw below `n` for request `request`: the traffic mix is a
/// function of the seed. `stream` keeps the draws of one request apart.
fn draw(seed: u64, request: usize, stream: u64, n: usize) -> usize {
    (derive_seed(seed, request as u64, stream) % n as u64) as usize
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies of a `seconds`-long timed phase in consecutive windows of
/// about `window_seconds` each, appended in time order.
///
/// The buffer is sized and written once before timing starts, so its
/// pages are resident in set-up and `peak_rss_mb` does not grow with the
/// number of requests a run completes.
struct Windows {
    span: f64,
    count: usize,
    /// Index of each window's first latency.
    starts: Vec<usize>,
    /// Milliseconds.
    latencies: Vec<f32>,
}

impl Windows {
    fn new(seconds: u64, window_seconds: u64, capacity: usize) -> Windows {
        let count = ((seconds / window_seconds) as usize).max(1);
        let mut latencies = Vec::with_capacity(capacity);
        latencies.resize(capacity, 1.0);
        std::hint::black_box(&mut latencies);
        latencies.clear();
        Windows {
            span: seconds as f64 / count as f64,
            count,
            starts: vec![0],
            latencies,
        }
    }

    /// Add the latency of a request sent `offset` seconds into the phase.
    fn push(&mut self, offset: f64, latency_ms: f64) {
        let window = ((offset / self.span) as usize).min(self.count - 1);
        while self.starts.len() <= window {
            self.starts.push(self.latencies.len());
        }
        self.latencies.push(latency_ms as f32);
    }

    fn len(&self) -> usize {
        self.latencies.len()
    }

    /// Each window's latencies, in milliseconds.
    fn windows(&self) -> Vec<Vec<f64>> {
        let end = self.latencies.len();
        (0..self.count)
            .map(|w| {
                let from = self.starts.get(w).copied().unwrap_or(end);
                let to = self.starts.get(w + 1).copied().unwrap_or(end);
                self.latencies[from..to]
                    .iter()
                    .map(|&l| f64::from(l))
                    .collect()
            })
            .collect()
    }
}

/// Process CPU time of consecutive windows of at least `CPU_WINDOW`,
/// each handed to a [`CostMeter`] with the operations it completed.
struct CpuWindows {
    meter: CostMeter,
    /// When the open window began, and the CPU clock then.
    opened: (Instant, f64),
    ops: usize,
}

impl CpuWindows {
    fn start() -> CpuWindows {
        let meter = CostMeter::start();
        CpuWindows {
            meter,
            opened: (Instant::now(), cpu_seconds()),
            ops: 0,
        }
    }

    /// Count `ops` operations completed since the last call, and close
    /// the window once it is `CPU_WINDOW` long. The reference runs
    /// between windows, outside both.
    fn tick(&mut self, now: Instant, ops: usize) {
        self.ops += ops;
        if now - self.opened.0 >= CPU_WINDOW {
            self.meter.add(cpu_seconds() - self.opened.1, self.ops);
            self.opened = (Instant::now(), cpu_seconds());
            self.ops = 0;
        }
    }
}

/// The mean over windows of each window's p50 and `tail` percentile.
///
/// A serving worker's threads share one CPU and switch, every few
/// seconds, between a fast and a slow hand-off regime, so its latencies
/// have two modes. A median over windows, like a median over the run,
/// jumps from one mode to the other as their shares shift; the mean of
/// the windows moves in proportion to the shares. The tail is `None`
/// unless every window has ten samples beyond it.
fn windowed_percentiles(windows: &[Vec<f64>], tail: f64) -> Option<(f64, Option<f64>)> {
    if windows.iter().any(Vec::is_empty) {
        return None;
    }
    let sorted_windows: Vec<Vec<f64>> = windows.iter().map(|w| sorted(w.clone())).collect();
    let p50s: Vec<f64> = sorted_windows.iter().map(|w| quantile(w, 0.5)).collect();
    let tails = sorted_windows
        .iter()
        .all(|w| reportable(w.len(), tail))
        .then(|| {
            let values: Vec<f64> = sorted_windows.iter().map(|w| quantile(w, tail)).collect();
            mean(&values)
        });
    Some((mean(&p50s), tails))
}

/// Per-layer metrics every serving workload reports.
fn common_layer_metrics(out: &mut Outcome, served: &Served, before: &ManagerStats, rss: f64) {
    let loads = served.loads.lock().expect("load log lock poisoned").clone();
    let read_s: f64 = loads.iter().map(|l| l.seconds).sum();
    let facts: usize = loads.iter().map(|l| l.facts).sum();
    let approx: usize = loads.iter().map(|l| l.approx_bytes).sum();
    out.layer_metric("dbfmt.read_s", read_s, "s", loads.len());
    out.layer_metric(
        "dbfmt.facts_per_s",
        facts as f64 / read_s.max(1e-9),
        "1/s",
        loads.len(),
    );
    let approx_mb = approx as f64 / (1024.0 * 1024.0);
    out.layer_metric("model.approx_mb", approx_mb, "MiB", loads.len());
    out.layer_metric(
        "model.rss_per_approx",
        rss / approx_mb.max(1e-9),
        "ratio",
        1,
    );
    let after = served.handle.manager_stats();
    let queries = after.queries.saturating_sub(before.queries);
    let hits = after.cache_hits.saturating_sub(before.cache_hits);
    out.layer_metric(
        "server.cache_hit_ratio",
        hits as f64 / queries.max(1) as f64,
        "ratio",
        queries,
    );
    out.layer_metric("server.queue_peak", after.queue_peak as f64, "count", 1);
    out.layer_metric("server.shed", after.shed as f64, "count", 1);
}

/// What a timed read came back with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Got {
    /// Verdict bits, query line `i` at bit `i` for a batch.
    Verdicts(u8),
    /// The wire error code.
    Error(&'static str),
}

fn pack(verdicts: &[bool]) -> u8 {
    verdicts
        .iter()
        .enumerate()
        .fold(0u8, |acc, (i, &v)| acc | (u8::from(v) << i))
}

/// In-process sessions answering every query of every text: the
/// reference the served verdicts are checked against, and the replica
/// the traced run replays hidden layers on.
struct Replica {
    manager: SessionManager,
    names: Vec<String>,
    sessions: Vec<Arc<SharedSession>>,
    queries: Vec<Vec<Query>>,
}

impl Replica {
    fn new(texts: &Texts) -> Replica {
        let manager = SessionManager::new(texts.loader(None), engine_config(), None);
        let mut sessions = Vec::new();
        let mut queries = Vec::new();
        for (name, lines) in texts.names.iter().zip(&texts.queries) {
            let session = manager.get_or_load(name).expect("in-memory texts parse");
            let qs: Vec<Query> = lines
                .iter()
                .map(|q| parse_query(q).expect("workload queries parse"))
                .collect();
            for q in &qs {
                session.certain(q);
            }
            sessions.push(session);
            queries.push(qs);
        }
        Replica {
            manager,
            names: texts.names.clone(),
            sessions,
            queries,
        }
    }

    fn verdict(&self, db: usize, line: usize) -> bool {
        self.sessions[db].certain(&self.queries[db][line]).certain
    }

    fn batch(&self, db: usize) -> u8 {
        let v: Vec<bool> = (0..self.queries[db].len())
            .map(|i| self.verdict(db, i))
            .collect();
        pack(&v)
    }
}

/// How often each answer came back, per kind of `serve_read` request:
/// `(text index, query line or None for the five-line batch, answer)`.
/// A fixed handful of entries, whatever the request count.
type Answers = HashMap<(usize, Option<usize>, Got), u64>;

pub fn run_read(ctx: &WorkerCtx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = spawn_generator(&ctx.gen_args()).expect("the generator produces the inputs");
    let texts = Texts::new(&inputs);
    drop(inputs);
    let served = start_server(&texts);
    let mut client = connect(&served);
    for name in &texts.names {
        client.load(name).expect("set-up load succeeds");
    }
    for (name, lines) in texts.names.iter().zip(&texts.queries) {
        for q in lines {
            client
                .certain(name, q)
                .expect("set-up first-sight solve succeeds");
        }
    }
    let batches: Vec<String> = texts.queries.iter().map(|l| l.join("\n")).collect();
    ctx.setup_done(&mut out);
    if ctx.setup_only {
        return out;
    }
    // The traced run's replica is the tracer's own set-up, kept out of
    // `setup_s`.
    let tracer = &ctx.tracer;
    let replica = tracer.enabled().then(|| Replica::new(&texts));

    let before = served.handle.manager_stats();
    let batch_per_mille = (ctx.spec.batch_share * 1000.0).round() as usize;
    let mut answers = Answers::new();
    let mut latencies = Windows::new(
        ctx.seconds,
        READ_WINDOW_SECONDS,
        READ_CAPACITY_PER_SECOND * ctx.seconds as usize,
    );
    let mut cpu = CpuWindows::start();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(ctx.seconds);
    let mut end = start;
    let mut request = 0;
    while end < deadline {
        let db = draw(ctx.seed, request, 0, texts.names.len());
        let line = (draw(ctx.seed, request, 1, 1000) >= batch_per_mille)
            .then(|| draw(ctx.seed, request, 2, texts.queries[db].len()));
        let name = &texts.names[db];
        let sent = Instant::now();
        let got = match line {
            Some(i) => client.certain(name, texts.queries[db][i]).map(u8::from),
            None => client.batch(name, &batches[db]).map(|v| pack(&v)),
        };
        end = Instant::now();
        cpu.tick(end, 1);
        latencies.push((sent - start).as_secs_f64(), ms(end - sent));
        let got = match got {
            Ok(bits) => Got::Verdicts(bits),
            Err(e) => {
                out.failed += 1;
                Got::Error(e.code)
            }
        };
        *answers.entry((db, line, got)).or_default() += 1;
        if let Some(replica) = &replica {
            replay_read(
                tracer,
                replica,
                &texts,
                &batches,
                request as u64,
                (sent, end),
                db,
                line,
            );
        }
        request += 1;
    }
    let rss = peak_rss_mb();
    out.attempted += request as u64;
    let n = latencies.len();
    let wall = (end - start).as_secs_f64();
    cpu.meter.report(&mut out);
    out.metric("peak_rss_mb", rss, "MiB", 1);
    out.metric("server.read_qps", n as f64 / wall, "1/s", n);
    if let Some((p50, p99)) = windowed_percentiles(&latencies.windows(), 0.99) {
        out.metric("server.read_p50_ms", p50, "ms", n);
        if let Some(p99) = p99 {
            out.metric("server.read_p99_ms", p99, "ms", n);
        }
    }
    if tracer.enabled() {
        common_layer_metrics(&mut out, &served, &before, rss);
        read_layer_metrics(&mut out, tracer);
    }
    drop(client);
    drop(served);
    if ctx.check {
        if ctx.flip {
            flip_one(&mut answers);
        }
        let replica = replica.unwrap_or_else(|| Replica::new(&texts));
        check_reads(&mut out, &replica, &answers);
    }
    out
}

/// Test-only fault injection: turn one recorded answer into a wrong one.
fn flip_one(answers: &mut Answers) {
    let Some(&(db, line, got)) = answers.keys().next() else {
        return;
    };
    let Got::Verdicts(bits) = got else {
        return;
    };
    let n = answers
        .get_mut(&(db, line, got))
        .expect("the key was just seen");
    *n -= 1;
    if *n == 0 {
        answers.remove(&(db, line, got));
    }
    *answers
        .entry((db, line, Got::Verdicts(bits ^ 1)))
        .or_default() += 1;
}

/// Replay, as children of the round trip, the layers the server ran for
/// it: JSON encode/decode of both frames, the manager lookup, and the
/// session's verdict-cache hits.
#[allow(clippy::too_many_arguments)]
fn replay_read(
    tracer: &Tracer,
    replica: &Replica,
    texts: &Texts,
    batches: &[String],
    request: u64,
    (sent, returned): (Instant, Instant),
    db: usize,
    line: Option<usize>,
) {
    let rtt = tracer.record("wire.rtt", sent, returned, None, request);
    let name = &texts.names[db];
    tracer.time("json.codec", rtt, request, || {
        let method = match line {
            Some(i) => Method::Certain {
                db: name.clone(),
                query: texts.queries[db][i].to_string(),
            },
            None => Method::Batch {
                db: name.clone(),
                queries: batches[db].clone(),
            },
        };
        let frame = encode_request(&Request {
            id: Some(request as i64),
            method,
            deadline_ms: None,
        });
        let parsed = parse_request(&frame).expect("encoded requests parse");
        let result = match line {
            Some(i) => obj([
                ("certain", Json::Bool(replica.verdict(db, i))),
                ("answered_by", Json::Str("ComponentCertK".into())),
                ("budget_exhausted", Json::Bool(false)),
            ]),
            None => obj([
                (
                    "verdicts",
                    Json::Arr(
                        (0..texts.queries[db].len())
                            .map(|i| Json::Bool(replica.verdict(db, i)))
                            .collect(),
                    ),
                ),
                ("count", Json::Int(texts.queries[db].len() as i64)),
            ]),
        };
        parse_response(&ok_response(parsed.id, result)).expect("encoded responses parse")
    });
    let _ = tracer.time("manager.hit", rtt, request, || {
        replica.manager.get_or_load(name)
    });
    tracer.time("session.hit", rtt, request, || match line {
        Some(i) => u8::from(replica.verdict(db, i)),
        None => replica.batch(db),
    });
}

fn read_layer_metrics(out: &mut Outcome, tracer: &Tracer) {
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let rtt = get("wire.rtt");
    let per_request_us = |s: f64| s * 1e6 / rtt.count.max(1) as f64;
    let (session, manager, json) = (get("session.hit"), get("manager.hit"), get("json.codec"));
    out.layer_metric(
        "session.hit_us",
        per_request_us(session.total_s),
        "us",
        session.count,
    );
    out.layer_metric(
        "manager.hit_us",
        per_request_us(manager.total_s),
        "us",
        manager.count,
    );
    out.layer_metric(
        "json.codec_us",
        per_request_us(json.total_s),
        "us",
        json.count,
    );
    out.layer_metric(
        "wire.overhead_us",
        per_request_us(rtt.total_s - session.total_s - manager.total_s),
        "us",
        rtt.count,
    );
}

/// Every served response must equal the in-process session's verdict.
fn check_reads(out: &mut Outcome, replica: &Replica, answers: &Answers) {
    let (mut total, mut wrong) = (0u64, 0u64);
    let mut mismatches = Vec::new();
    for (&(db, line, got), &n) in answers {
        total += n;
        let want = match line {
            Some(l) => u8::from(replica.verdict(db, l)),
            None => replica.batch(db),
        };
        if got != Got::Verdicts(want) {
            wrong += n;
            mismatches.push(format!(
                "{} {}: {n} got {got:?}, want bits {want}",
                replica.names[db],
                line.map_or("batch".to_string(), |l| format!("line {l}"))
            ));
        }
    }
    mismatches.sort();
    out.check(
        wrong == 0,
        format!(
            "serve_read: {} of {total} responses equal the in-process session{}",
            total - wrong,
            if mismatches.is_empty() {
                String::new()
            } else {
                format!("; mismatches: {}", mismatches.join(", "))
            }
        ),
    );
}

/// The `serve_rw` deltas replayed through a `SharedSession` chain: every
/// version's verdicts, for checking reads against the versions they may
/// have seen.
struct Chain {
    session: SharedSession,
    queries: Vec<Query>,
    /// `versions[v]`: verdict bits after `v` applied updates.
    versions: Vec<u8>,
    with_delta_s: Vec<f64>,
}

impl Chain {
    fn new(text: &str, lines: &[&str]) -> Chain {
        let db = read_database(text.as_bytes()).expect("in-memory texts parse");
        let session = SharedSession::new(Arc::new(db), engine_config());
        let queries: Vec<Query> = lines
            .iter()
            .map(|q| parse_query(q).expect("workload queries parse"))
            .collect();
        let mut chain = Chain {
            session,
            queries,
            versions: Vec::new(),
            with_delta_s: Vec::new(),
        };
        let v = chain.verdicts();
        chain.versions.push(v);
        chain
    }

    /// Replay the set-up warm-up script and then every update the server
    /// applied, each traced as a child of its `rw.update` span. Runs after
    /// the timed phase, so the timed latencies hold the server's work only.
    fn replay(
        tracer: &Tracer,
        text: &str,
        lines: &[&str],
        scripts: &[String],
        updates: &[RwUpdate],
    ) -> Chain {
        let mut chain = Chain::new(text, lines);
        chain.apply(tracer, None, 0, &scripts[0]);
        for (u, script) in updates.iter().zip(&scripts[1..]) {
            if u.ok {
                chain.apply(tracer, u.span, u.request, script);
            }
        }
        chain
    }

    fn verdicts(&self) -> u8 {
        let v: Vec<bool> = self
            .queries
            .iter()
            .map(|q| self.session.certain(q).certain)
            .collect();
        pack(&v)
    }

    /// Apply one script, tracing its layers when the tracer is on:
    /// `protocol.parse_delta`, then `delta.with_delta` with the replayed
    /// `model.clone` and `model.apply_delta` as its children, so its self
    /// time is the incremental patch.
    fn apply(&mut self, tracer: &Tracer, parent: Option<usize>, request: u64, script: &str) {
        let (parsed, _) = tracer.time("protocol.parse_delta", parent, request, || {
            parse_delta_script(script)
        });
        let delta = parsed.expect("generated scripts parse");
        let start = Instant::now();
        let (next, _) = self
            .session
            .with_delta(&delta.inserts, &delta.retracts)
            .expect("generated scripts match the signature");
        let end = Instant::now();
        self.with_delta_s.push((end - start).as_secs_f64());
        let span = tracer.record("delta.with_delta", start, end, parent, request);
        if tracer.enabled() {
            let (mut copy, _) = tracer.time("model.clone", span, request, || {
                (**self.session.db()).clone()
            });
            let _ = tracer.time("model.apply_delta", span, request, || {
                copy.apply_delta(&delta.inserts, &delta.retracts)
            });
        }
        self.session = next;
        let v = self.verdicts();
        self.versions.push(v);
    }
}

struct RwRead {
    line: usize,
    due: Instant,
    sent: Instant,
    returned: Instant,
    got: Got,
}

struct RwUpdate {
    due: Instant,
    sent: Instant,
    acked: Instant,
    ok: bool,
    facts: Option<i64>,
    /// The request id and, in the traced run, the `rw.update` span.
    request: u64,
    span: Option<usize>,
}

pub fn run_rw(ctx: &WorkerCtx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = spawn_generator(&ctx.gen_args()).expect("the generator produces the inputs");
    let texts = Texts::new(&inputs);
    let scripts = inputs.scripts;
    let name = texts.names[0].clone();
    let lines = texts.queries[0].clone();
    let served = start_server(&texts);
    let mut reader = connect(&served);
    let mut updater = connect(&served);
    reader.load(&name).expect("set-up load succeeds");
    for q in &lines {
        reader
            .certain(&name, q)
            .expect("set-up first-sight solve succeeds");
    }
    // The first update builds every query's incremental state cold; pay
    // it in set-up so the timed updates are steady-state patches.
    updater
        .update(&name, &scripts[0])
        .expect("set-up warm-up update succeeds");
    let tracer = &ctx.tracer;
    ctx.setup_done(&mut out);
    if ctx.setup_only {
        return out;
    }

    let before = served.handle.manager_stats();
    let spec = &ctx.spec;
    let (reads_due, updates_due) = (spec.reads_due(ctx.seconds), spec.updates_due(ctx.seconds));
    let read_lines: Vec<usize> = (0..reads_due)
        .map(|i| draw(ctx.seed, i, 3, lines.len()))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let read_gap = Duration::from_secs_f64(1.0 / spec.read_rate);
    let update_gap = Duration::from_secs_f64(1.0 / spec.update_rate);
    let reads_done = AtomicUsize::new(0);
    let mut cpu = CpuWindows::start();
    let (reads, updates) = thread::scope(|s| {
        let reads = s.spawn(|| {
            let mut recs = Vec::with_capacity(reads_due);
            for (i, &line) in read_lines.iter().enumerate() {
                let due = t0 + read_gap * i as u32;
                sleep_until(due);
                let sent = Instant::now();
                let got = reader.certain(&name, lines[line]);
                let returned = Instant::now();
                reads_done.fetch_add(1, Ordering::Relaxed);
                tracer.record("rw.read", sent, returned, None, i as u64);
                recs.push(RwRead {
                    line,
                    due,
                    sent,
                    returned,
                    got: match got {
                        Ok(v) => Got::Verdicts(u8::from(v)),
                        Err(e) => Got::Error(e.code),
                    },
                });
            }
            recs
        });
        let mut recs = Vec::with_capacity(updates_due);
        for (j, script) in scripts[1..=updates_due].iter().enumerate() {
            let due = t0 + update_gap * j as u32;
            sleep_until(due);
            let sent = Instant::now();
            let got = updater.update(&name, script);
            let acked = Instant::now();
            cpu.tick(acked, 1 + reads_done.swap(0, Ordering::Relaxed));
            let request = (reads_due + j) as u64;
            recs.push(RwUpdate {
                due,
                sent,
                acked,
                ok: got.is_ok(),
                facts: got.ok().and_then(|r| r.get("facts").and_then(Json::as_int)),
                request,
                span: tracer.record("rw.update", sent, acked, None, request),
            });
        }
        (
            reads.join().expect("the reader thread does not panic"),
            recs,
        )
    });
    let rss = peak_rss_mb();
    let failed = reads
        .iter()
        .filter(|r| matches!(r.got, Got::Error(_)))
        .count()
        + updates.iter().filter(|u| !u.ok).count();
    out.attempted += (reads.len() + updates.len()) as u64;
    out.failed += failed as u64;
    // The open-loop latencies follow the host more than the code on a
    // shared 2-CPU machine: between sets of runs of identical code the
    // read median spread up to 0.3 of itself, the update median 0.25 and
    // the tails 0.4-0.5, as neighbours came and went. They are per-layer
    // metrics of the traced run, not bounded end-to-end ones; the CPU
    // time spent per operation is.
    cpu.meter.report(&mut out);
    out.metric("peak_rss_mb", rss, "MiB", 1);
    let chain = (tracer.enabled() || ctx.check)
        .then(|| Chain::replay(tracer, &texts.by_name[&name], &lines, &scripts, &updates));
    if tracer.enabled() {
        let chain = chain.as_ref().expect("the traced run replays the chain");
        common_layer_metrics(&mut out, &served, &before, rss);
        rw_layer_metrics(&mut out, tracer, &served, &before, chain, &reads, &updates);
        let mut read_windows = Windows::new(ctx.seconds, RW_WINDOW_SECONDS, reads.len());
        for r in &reads {
            read_windows.push((r.due - t0).as_secs_f64(), ms(r.returned - r.due));
        }
        let update_latencies: Vec<f64> = updates.iter().map(|u| ms(u.acked - u.due)).collect();
        let split = |p: Option<(f64, Option<f64>)>| {
            p.map_or((0.0, 0.0), |(p50, tail)| (p50, tail.unwrap_or(0.0)))
        };
        let (read_p50, read_tail) = split(windowed_percentiles(&read_windows.windows(), 0.99));
        let (update_p50, update_tail) = split(windowed_percentiles(&[update_latencies], 0.95));
        out.layer_metric("rw.read_p50_ms", read_p50, "ms", reads.len());
        out.layer_metric("rw.read_p99_ms", read_tail, "ms", reads.len());
        out.layer_metric("rw.update_p50_ms", update_p50, "ms", updates.len());
        out.layer_metric("rw.update_p95_ms", update_tail, "ms", updates.len());
    }

    if ctx.check {
        let chain = chain.as_ref().expect("a checked run replays the chain");
        let mut reads = reads;
        if ctx.flip {
            if let Some(Got::Verdicts(bits)) = reads.first().map(|r| r.got) {
                reads[0].got = Got::Verdicts(bits ^ 1);
            }
        }
        check_rw(&mut out, chain, &reads, &updates);
        let finals: Vec<bool> = lines
            .iter()
            .map(|q| reader.certain(&name, q).unwrap_or(false))
            .collect();
        let served_final = pack(&finals);
        let chain_final = *chain.versions.last().expect("a chain has a base version");
        let cold: Vec<bool> = chain
            .queries
            .iter()
            .map(|q| {
                CqaEngine::with_config(q.clone(), engine_config())
                    .certain(chain.session.db())
                    .certain
            })
            .collect();
        out.check(
            served_final == chain_final && pack(&cold) == chain_final,
            format!(
                "serve_rw final state: served {served_final:05b}, replayed {chain_final:05b}, cold {:05b}",
                pack(&cold)
            ),
        );
        let last_facts = updates.iter().rev().find_map(|u| u.facts);
        out.check(
            last_facts.is_none_or(|f| f == chain.session.db().len() as i64),
            format!(
                "serve_rw final fact count: served {last_facts:?}, replayed {}",
                chain.session.db().len()
            ),
        );
    }
    drop(reader);
    drop(updater);
    drop(served);
    out
}

/// Each read must match a version between the updates acknowledged
/// before it was sent and the updates sent before it returned.
fn check_rw(out: &mut Outcome, chain: &Chain, reads: &[RwRead], updates: &[RwUpdate]) {
    // Version 1 is the state after the set-up warm-up update.
    let applied: Vec<&RwUpdate> = updates.iter().filter(|u| u.ok).collect();
    let mut wrong = 0usize;
    let mut first_wrong = None;
    for (i, r) in reads.iter().enumerate() {
        let lo = 1 + applied.iter().filter(|u| u.acked <= r.sent).count();
        let hi = 1 + applied.iter().filter(|u| u.sent < r.returned).count();
        let ok = match r.got {
            Got::Verdicts(bit) => chain.versions[lo..=hi]
                .iter()
                .any(|v| (v >> r.line) & 1 == bit),
            Got::Error(_) => false,
        };
        if !ok {
            wrong += 1;
            first_wrong.get_or_insert((i, lo, hi));
        }
    }
    out.check(
        wrong == 0,
        format!(
            "serve_rw: {} of {} reads match a version they could have seen{}",
            reads.len() - wrong,
            reads.len(),
            first_wrong.map_or(String::new(), |(i, lo, hi)| format!(
                "; first mismatch at read {i} (versions {lo}..={hi})"
            ))
        ),
    );
}

#[allow(clippy::too_many_arguments)]
fn rw_layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    served: &Served,
    before: &ManagerStats,
    chain: &Chain,
    reads: &[RwRead],
    updates: &[RwUpdate],
) {
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let n = updates.len().max(1) as f64;
    let per_update_ms = |name: &str, self_time: bool| {
        let t = get(name);
        (if self_time { t.self_s } else { t.total_s }) * 1e3 / n
    };
    let count = updates.len();
    out.layer_metric(
        "protocol.parse_delta_ms",
        per_update_ms("protocol.parse_delta", false),
        "ms",
        count,
    );
    out.layer_metric(
        "model.clone_ms",
        per_update_ms("model.clone", false),
        "ms",
        count,
    );
    out.layer_metric(
        "model.apply_delta_ms",
        per_update_ms("model.apply_delta", false),
        "ms",
        count,
    );
    out.layer_metric(
        "delta.with_delta_ms",
        per_update_ms("delta.with_delta", false),
        "ms",
        count,
    );
    out.layer_metric(
        "delta.patch_ms",
        per_update_ms("delta.with_delta", true),
        "ms",
        count,
    );
    let after = served.handle.manager_stats();
    let applied = after
        .delta_applied
        .saturating_sub(before.delta_applied)
        .max(1) as f64;
    out.layer_metric(
        "delta.retained_per_update",
        after
            .verdicts_retained
            .saturating_sub(before.verdicts_retained) as f64
            / applied,
        "count",
        count,
    );
    out.layer_metric(
        "delta.reseeded_per_update",
        after.blocks_reseeded.saturating_sub(before.blocks_reseeded) as f64 / applied,
        "count",
        count,
    );
    // The first `with_delta` of the chain is the set-up warm-up, which
    // builds every query's incremental state cold.
    out.layer_metric("delta.state_build_s", chain.with_delta_s[0], "s", 1);
    let overlaps = |r: &RwRead| {
        updates
            .iter()
            .any(|u| u.sent < r.returned && r.sent < u.acked)
    };
    let (overlap, clear): (Vec<&RwRead>, Vec<&RwRead>) = reads.iter().partition(|r| overlaps(r));
    for (name, group) in [
        ("rw.read_overlap_p99_ms", overlap),
        ("rw.read_clear_p99_ms", clear),
    ] {
        let lat: Vec<f64> = group.iter().map(|r| ms(r.returned - r.due)).collect();
        let n = lat.len();
        let v = if n == 0 {
            0.0
        } else {
            quantile(&sorted(lat), 0.99)
        };
        out.layer_metric(name, v, "ms", n);
    }
    let late = reads
        .iter()
        .map(|r| r.sent - r.due)
        .chain(updates.iter().map(|u| u.sent - u.due))
        .max()
        .unwrap_or_default();
    out.layer_metric(
        "loadgen.late_max_ms",
        ms(late),
        "ms",
        reads.len() + updates.len(),
    );
}
