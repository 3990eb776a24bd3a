//! The `cqa serve` TCP server: accept loop, per-connection framing,
//! request fan-out over a [`minipool::Pool`].
//!
//! Threading model:
//!
//! * one **accept thread** owns the listener;
//! * one lightweight **connection thread** per client runs the framing
//!   loop (these spend their life blocked on the socket, polling a
//!   250 ms read timeout so shutdown is prompt). It also answers every
//!   request that needs no worker: `ping`, `stats`, `shutdown`, and a
//!   `certain` or `batch` whose every query already has a cached
//!   verdict on a resident database;
//! * only work that may **load, solve or update** goes to one shared
//!   [`minipool::Pool`] of `--threads` workers, so CPU parallelism is
//!   bounded no matter how many clients connect. A worker panic is
//!   contained by the pool and surfaced to that one client as an `io`
//!   error; the connection and the server live on.
//!
//! Every response leaves in one `write` ([`write_frame`]), newline
//! included.
//!
//! Cancellation is cooperative and fine-grained: a pool request
//! carrying `deadline_ms` is checked when a worker *picks it up*
//! (queued past the deadline → `deadline-exceeded` without computing),
//! and the remaining allowance is then threaded into the solver as a
//! [`CancelToken`] polled once per fixpoint block derivation / brute
//! budget tranche — a deadline that expires *mid-solve* stops the run
//! within roughly one block's worth of work and answers
//! `deadline-exceeded` with the partial statistics derived before the
//! cancel. Cancellation only withholds verdicts (never invents them),
//! so cancelled requests are always safely retryable. A cached answer
//! has nothing left to cancel and ignores `deadline_ms`.
//!
//! Admission control bounds the pending queue: beyond `--threads`
//! running requests, at most [`ServeConfig::max_queue`] pool requests
//! may wait; excess ones are shed immediately with the `overloaded`
//! code and a `retry_after_ms` backoff hint instead of accumulating
//! unbounded latency. Requests answered on the connection thread never
//! reach the gate, so an overloaded server stays observable, stoppable
//! and able to serve what it has already computed. `docs/SERVER.md`
//! spells out both contracts.
//!
//! Shutdown: the `shutdown` method (or [`ServerHandle::shutdown`]) sets
//! a flag and wakes the accept thread with a throwaway self-connection;
//! connection loops notice the flag within one poll interval, finish
//! their in-flight response and exit; the pool drains before the accept
//! thread joins them and returns.

use crate::json::{obj, Json};
use crate::manager::{Loader, ManagerStats, SessionManager, UpdateError};
use crate::protocol::{
    err_response, ok_response, parse_request, write_frame, Frame, FrameReader, Method, Request,
    WireError, MAX_FRAME,
};
use cqa::solvers::{certain_brute_over, BruteOutcome, CancelToken, SolutionSet};
use cqa::{CertainAnswer, EngineConfig, SharedSession};
use cqa_query::{parse_queries_for, parse_query_for, Query, QueryError};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked connection reads wake up to check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// Everything `serve` needs. Construct with [`ServeConfig::new`], then
/// override fields.
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Worker threads for query execution; 0 means all cores.
    pub threads: usize,
    /// Evict least-recently-used databases past this many approximate
    /// bytes (`None`: keep everything).
    pub memory_budget: Option<usize>,
    /// Per-frame byte cap (both directions).
    pub max_frame: usize,
    /// Admission bound: how many pool requests (`load`, `falsify`,
    /// `update`, and a `certain` or `batch` not answered from cache) may
    /// *wait* for a worker beyond the `threads` already running. Excess
    /// requests are shed with the `overloaded` code. `None` picks
    /// `max(32, threads × 4)` — deep enough that ordinary connection
    /// fan-in never sheds, shallow enough to bound queueing latency.
    pub max_queue: Option<usize>,
    /// How sessions classify and solve.
    pub engine: EngineConfig,
    /// How database paths become databases (the CLI injects its
    /// fact-file loader; tests inject synthetic ones).
    pub loader: Loader,
}

impl ServeConfig {
    /// Defaults: `127.0.0.1:7878`, all cores, no budget, 1 MiB frames.
    pub fn new(loader: Loader) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            memory_budget: None,
            max_frame: MAX_FRAME,
            max_queue: None,
            engine: EngineConfig::default(),
            loader,
        }
    }
}

/// Shared state every connection and worker sees.
struct ServerCtx {
    manager: SessionManager,
    pool: minipool::Pool,
    threads: usize,
    max_frame: usize,
    max_queue: usize,
    stop: AtomicBool,
    addr: SocketAddr,
    /// Pool requests admitted and not yet answered (running or waiting
    /// for a worker).
    inflight: AtomicUsize,
    /// Requests refused at admission (`overloaded`).
    shed: AtomicUsize,
    /// Requests whose deadline expired mid-solve (`deadline-exceeded`
    /// on the cancel path; the pickup-refusal path does not count).
    cancelled: AtomicUsize,
    /// Peak of `inflight - threads` (requests actually waiting).
    queue_peak: AtomicUsize,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when the config
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Session-manager counters plus the server's overload counters
    /// (`shed`, `cancelled`, `queue_peak`); tests and `cqa serve
    /// --stats` read these without a round trip.
    pub fn manager_stats(&self) -> ManagerStats {
        server_stats(&self.ctx)
    }

    /// Stop accepting, let in-flight requests finish, join everything.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.ctx.stop.store(true, Ordering::SeqCst);
        wake_accept(self.ctx.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Block until the server stops (a client sends `shutdown`, or
    /// another thread calls [`ServerHandle::shutdown`]). This is what
    /// `cqa serve` sits in; returns the final session-manager counters
    /// for the `--stats` report.
    pub fn wait(mut self) -> ManagerStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        server_stats(&self.ctx)
    }
}

/// Manager counters with the server's own overload counters merged in.
fn server_stats(ctx: &ServerCtx) -> ManagerStats {
    let mut stats = ctx.manager.stats();
    stats.shed = ctx.shed.load(Ordering::Relaxed);
    stats.cancelled = ctx.cancelled.load(Ordering::Relaxed);
    stats.queue_peak = ctx.queue_peak.load(Ordering::Relaxed);
    stats
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Nudge a listener blocked in `accept` so it re-checks the stop flag.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

/// Bind and start serving; returns as soon as the listener is live.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let threads = if config.threads == 0 {
        minipool::max_threads()
    } else {
        config.threads
    };
    let max_queue = config.max_queue.unwrap_or_else(|| 32.max(threads * 4));
    let ctx = Arc::new(ServerCtx {
        manager: SessionManager::new(config.loader, config.engine, config.memory_budget),
        pool: minipool::Pool::new(threads),
        threads,
        max_frame: config.max_frame,
        max_queue,
        stop: AtomicBool::new(false),
        addr,
        inflight: AtomicUsize::new(0),
        shed: AtomicUsize::new(0),
        cancelled: AtomicUsize::new(0),
        queue_peak: AtomicUsize::new(0),
    });
    let accept_ctx = Arc::clone(&ctx);
    let accept = thread::Builder::new()
        .name("cqa-accept".to_string())
        .spawn(move || accept_loop(listener, accept_ctx))?;
    Ok(ServerHandle {
        ctx,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if ctx.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        conns.retain(|h| !h.is_finished());
        let conn_ctx = Arc::clone(&ctx);
        let spawned = thread::Builder::new()
            .name("cqa-conn".to_string())
            .spawn(move || {
                let _ = run_connection(stream, conn_ctx);
            });
        if let Ok(h) = spawned {
            conns.push(h);
        }
    }
    // Stop flag is set: connections exit within one poll interval.
    for h in conns {
        let _ = h.join();
    }
}

/// One client's framing loop. Protocol errors answer and continue; only
/// EOF, a hard I/O error or shutdown end the loop.
fn run_connection(stream: TcpStream, ctx: Arc<ServerCtx>) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    // Responses are single small frames; Nagle + delayed ACK would
    // stall every request after the first on a reused connection.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut frames = FrameReader::new();
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let frame = match frames.next(&mut reader, ctx.max_frame) {
            Ok(f) => f,
            Err(_) => return Ok(()), // peer reset — nothing to answer
        };
        let line = match frame {
            Frame::Pending => continue,
            Frame::Eof => return Ok(()),
            Frame::TooLong { limit } => {
                let e = WireError::new(
                    "frame-too-long",
                    format!("frame exceeds the {limit}-byte limit (dropped; connection resynchronised at the next newline)"),
                );
                write_frame(&mut writer, err_response(None, &e))?;
                continue;
            }
            Frame::NotUtf8 => {
                let e = WireError::new("bad-utf8", "frame is not valid UTF-8 (dropped)");
                write_frame(&mut writer, err_response(None, &e))?;
                continue;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(&line) {
            Err(e) => err_response(None, &e),
            Ok(req) => {
                let is_shutdown = matches!(req.method, Method::Shutdown);
                let response = dispatch(&ctx, req);
                if is_shutdown {
                    write_frame(&mut writer, response)?;
                    ctx.stop.store(true, Ordering::SeqCst);
                    wake_accept(ctx.addr);
                    return Ok(());
                }
                response
            }
        };
        write_frame(&mut writer, response)?;
    }
}

/// Answer one request and return its response frame.
///
/// A request that needs no worker is answered here, on the connection
/// thread ([`route`]). Everything else goes to the pool, behind the
/// admission gate: past `threads + max_queue` in flight the request is
/// shed immediately with `overloaded` and a `retry_after_ms` hint
/// instead of queueing unboundedly.
fn dispatch(ctx: &Arc<ServerCtx>, req: Request) -> String {
    let held = match route(ctx, &req.method) {
        Route::Inline(outcome) => return response(req.id, outcome),
        Route::Pool(held) => held,
    };
    let inflight = ctx.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    if inflight > ctx.threads + ctx.max_queue {
        ctx.inflight.fetch_sub(1, Ordering::SeqCst);
        ctx.shed.fetch_add(1, Ordering::Relaxed);
        // Scale the hint with how far past capacity we are: the
        // deeper the overload, the longer the drain.
        let excess = (inflight - ctx.threads - ctx.max_queue) as u64;
        let retry_after_ms = (25 * excess).clamp(25, 1000);
        let e = WireError::new(
            "overloaded",
            format!(
                "server at capacity ({} requests in flight, queue bound {}); retry in {retry_after_ms}ms",
                inflight - 1,
                ctx.max_queue
            ),
        )
        .with_retry_after(retry_after_ms);
        return err_response(req.id, &e);
    }
    let waiting = inflight.saturating_sub(ctx.threads);
    ctx.queue_peak.fetch_max(waiting, Ordering::Relaxed);
    let (tx, rx) = mpsc::channel::<Result<Json, WireError>>();
    let worker_ctx = Arc::clone(ctx);
    let enqueued = Instant::now();
    let method = req.method.clone();
    let deadline_ms = req.deadline_ms;
    ctx.pool.execute(move || {
        let outcome = match deadline_ms {
            Some(ms) if enqueued.elapsed() > Duration::from_millis(ms) => Err(WireError::new(
                "deadline-exceeded",
                format!(
                    "request waited {}ms in the queue, past its {ms}ms deadline",
                    enqueued.elapsed().as_millis()
                ),
            )),
            _ => {
                // The deadline's remaining allowance rides into the
                // solver as a token polled mid-fixpoint.
                let token = deadline_ms.map(|ms| {
                    CancelToken::deadline_in(
                        Duration::from_millis(ms).saturating_sub(enqueued.elapsed()),
                    )
                });
                execute(&worker_ctx, &method, token.as_ref(), held)
            }
        };
        worker_ctx.inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = tx.send(outcome);
    });
    let outcome = rx.recv().unwrap_or_else(|_| {
        // The worker died before answering: its panic was contained by
        // the pool; this client gets an error, the server keeps going.
        Err(WireError::new(
            "io",
            "worker panicked while executing the request",
        ))
    });
    response(req.id, outcome)
}

/// The response frame for request `id`'s outcome.
fn response(id: Option<i64>, outcome: Result<Json, WireError>) -> String {
    match outcome {
        Ok(result) => ok_response(id, result),
        Err(e) => err_response(id, &e),
    }
}

/// Where [`route`] sends a request.
enum Route {
    /// Answered on the connection thread.
    Inline(Result<Json, WireError>),
    /// Needs a worker. Carries the session [`route`] already looked up,
    /// so the pool path neither looks it up nor counts its session hit
    /// a second time.
    Pool(Option<Arc<SharedSession>>),
}

/// Decide where `method` runs. Only work that may load, solve or update
/// needs a worker. `ping`, `stats` and `shutdown` never do, and neither
/// does a `certain`, or a `batch` whose queries are all cached, on a
/// resident session: a verdict is a pure function of the database and
/// the query, so a cached one needs no solver, no load and nothing to
/// cancel (a deadline is moot, as in
/// [`SharedSession::certain_cancellable`]). Every query of a batch is
/// checked before any is counted, so each answered query moves
/// `queries` and `cache_hits` once, as the pool path would. A parse
/// error, a database that is not resident, an uncached query or a set
/// stop flag goes to the pool, which answers it.
fn route(ctx: &ServerCtx, method: &Method) -> Route {
    if matches!(method, Method::Ping | Method::Stats | Method::Shutdown) {
        return Route::Inline(execute(ctx, method, None, None));
    }
    let (db, text, single) = match method {
        Method::Certain { db, query } => (db, query, true),
        Method::Batch { db, queries } => (db, queries, false),
        _ => return Route::Pool(None),
    };
    if ctx.stop.load(Ordering::SeqCst) {
        return Route::Pool(None);
    }
    let Some(session) = ctx.manager.resident(db) else {
        return Route::Pool(None);
    };
    let signature = session.db().signature();
    let queries = if single {
        parse_query_for(text, signature).ok().map(|q| vec![q])
    } else {
        parse_queries_for(text, signature).ok()
    };
    let answers: Option<Vec<CertainAnswer>> =
        queries.and_then(|qs| qs.iter().map(|q| session.cached(q)).collect());
    let Some(answers) = answers else {
        return Route::Pool(Some(session));
    };
    session.count_cached(answers.len());
    Route::Inline(Ok(if single {
        certain_result(&answers[0])
    } else {
        batch_result(answers.iter().map(|ans| ans.certain).collect())
    }))
}

/// The result object of a `certain` request.
fn certain_result(ans: &CertainAnswer) -> Json {
    obj([
        ("certain", Json::Bool(ans.certain)),
        ("answered_by", Json::Str(format!("{:?}", ans.answered_by))),
        ("budget_exhausted", Json::Bool(ans.budget_exhausted)),
    ])
}

/// The result object of a `batch` request.
fn batch_result(verdicts: Vec<bool>) -> Json {
    let count = verdicts.len();
    obj([
        (
            "verdicts",
            Json::Arr(verdicts.into_iter().map(Json::Bool).collect()),
        ),
        ("count", Json::Int(count as i64)),
    ])
}

/// The `deadline-exceeded` answer for a solve the token stopped
/// mid-run, carrying `evidence` of the work done before the cancel.
fn cancelled_error(ctx: &ServerCtx, evidence: &str) -> WireError {
    ctx.cancelled.fetch_add(1, Ordering::Relaxed);
    WireError::new(
        "deadline-exceeded",
        format!("deadline expired mid-solve; verdict withheld ({evidence})"),
    )
}

/// A query the request's database cannot answer: `signature-mismatch`
/// when it parsed over the wrong schema, `bad-query` otherwise.
fn query_error(e: QueryError) -> WireError {
    let code = match e {
        QueryError::SignatureMismatch { .. } => "signature-mismatch",
        _ => "bad-query",
    };
    WireError::new(code, e.to_string())
}

/// Answer `q` on `session`: under the request's deadline when it
/// carries one, through the single-flight cache path otherwise.
fn answer(
    ctx: &ServerCtx,
    session: &SharedSession,
    q: &Query,
    token: Option<&CancelToken>,
) -> Result<CertainAnswer, WireError> {
    match token {
        Some(token) => session.certain_cancellable(q, token).map_err(|partial| {
            let evidence = match &partial.certk_stats {
                Some(s) => format!(
                    "derived {} blocks over {} rounds before the cancel",
                    s.blocks_derived, s.rounds
                ),
                None => "the solver that stopped keeps no fixpoint counters".to_string(),
            };
            cancelled_error(ctx, &evidence)
        }),
        None => Ok(session.certain(q)),
    }
}

/// Execute one method against the session manager. Every error path
/// returns a coded [`WireError`]; none of them tear the connection
/// down. `token` carries the request's remaining deadline allowance
/// into the solvers (`None`: solve to completion). `held` is the
/// request's session when [`route`] already looked it up.
fn execute(
    ctx: &ServerCtx,
    method: &Method,
    token: Option<&CancelToken>,
    mut held: Option<Arc<SharedSession>>,
) -> Result<Json, WireError> {
    if ctx.stop.load(Ordering::SeqCst) && !matches!(method, Method::Shutdown) {
        return Err(WireError::new("shutting-down", "server is shutting down"));
    }
    let mut session_for = |db: &str| match held.take() {
        Some(session) => Ok(session),
        None => ctx
            .manager
            .get_or_load(db)
            .map_err(|msg| WireError::new("load-failed", msg)),
    };
    match method {
        Method::Ping => Ok(obj([("pong", Json::Bool(true))])),
        Method::Load { path } => {
            let session = session_for(path)?;
            let db = session.db();
            Ok(obj([
                ("db", Json::Str(path.clone())),
                ("facts", Json::Int(db.len() as i64)),
                ("blocks", Json::Int(db.block_count() as i64)),
                ("approx_bytes", Json::Int(session.approx_bytes() as i64)),
            ]))
        }
        Method::Certain { db, query } => {
            let session = session_for(db)?;
            let q = parse_query_for(query, session.db().signature()).map_err(query_error)?;
            Ok(certain_result(&answer(ctx, &session, &q, token)?))
        }
        Method::Falsify { db, query, budget } => {
            let session = session_for(db)?;
            let q = parse_query_for(query, session.db().signature()).map_err(query_error)?;
            let db_ref = session.db();
            let outcome = certain_brute_over(
                db_ref,
                &SolutionSet::enumerate(&q, db_ref),
                *budget,
                token.unwrap_or(&CancelToken::new()),
            )
            .ok_or_else(|| cancelled_error(ctx, "brute-force search stopped mid-tranche"))?;
            Ok(match outcome {
                BruteOutcome::Certain => obj([("outcome", Json::Str("certain".to_string()))]),
                BruteOutcome::NotCertain(r) => obj([
                    ("outcome", Json::Str("not-certain".to_string())),
                    (
                        "repair",
                        Json::Arr(
                            r.facts()
                                .iter()
                                .map(|&id| Json::Str(db_ref.fact(id).to_string()))
                                .collect(),
                        ),
                    ),
                ]),
                BruteOutcome::BudgetExhausted => obj([
                    ("outcome", Json::Str("budget-exhausted".to_string())),
                    (
                        "budget",
                        Json::Int(i64::try_from(*budget).unwrap_or(i64::MAX)),
                    ),
                ]),
            })
        }
        Method::Batch { db, queries } => {
            let session = session_for(db)?;
            // Same line discipline and error text as `cqa batch`
            // (asserted byte-equal by the parity suite).
            let queries = parse_queries_for(queries, session.db().signature())
                .map_err(|e| WireError::new("bad-batch", e))?;
            let verdicts = queries
                .iter()
                .map(|q| answer(ctx, &session, q, token).map(|ans| ans.certain))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(batch_result(verdicts))
        }
        Method::Update { db, deltas } => {
            // Updates are atomic and set-semantic (idempotent), so a
            // client that times out may safely retry; the deadline is
            // enforced at pickup only — once `apply_update` starts the
            // whole delta lands or none of it does.
            let script = crate::deltas::parse_update_script(deltas)
                .map_err(|e| WireError::new("bad-delta", e))?;
            let (session, report) = ctx.manager.apply_update(db, &script).map_err(|e| match e {
                UpdateError::LoadFailed(msg) => WireError::new("load-failed", msg),
                UpdateError::BadDelta(msg) => WireError::new("bad-delta", msg),
            })?;
            Ok(obj([
                ("db", Json::Str(db.clone())),
                ("facts", Json::Int(session.db().len() as i64)),
                ("inserted", Json::Int(report.inserted.len() as i64)),
                ("retracted", Json::Int(report.retracted.len() as i64)),
                ("touched_blocks", Json::Int(report.touched.len() as i64)),
                ("fresh_blocks", Json::Int(report.fresh_blocks.len() as i64)),
                ("growth_only", Json::Bool(report.growth_only())),
            ]))
        }
        Method::Stats => {
            let s = server_stats(ctx);
            Ok(obj([
                ("sessions", Json::Int(s.sessions as i64)),
                ("loads", Json::Int(s.loads as i64)),
                ("session_hits", Json::Int(s.session_hits as i64)),
                ("evictions", Json::Int(s.evictions as i64)),
                ("resident_bytes", Json::Int(s.resident_bytes as i64)),
                ("queries", Json::Int(s.queries as i64)),
                ("distinct_queries", Json::Int(s.distinct_queries as i64)),
                ("cache_hits", Json::Int(s.cache_hits as i64)),
                ("threads", Json::Int(ctx.threads as i64)),
                (
                    "memory_budget",
                    ctx.manager
                        .memory_budget()
                        .map_or(Json::Null, |b| Json::Int(b as i64)),
                ),
                ("max_queue", Json::Int(ctx.max_queue as i64)),
                ("shed", Json::Int(s.shed as i64)),
                ("cancelled", Json::Int(s.cancelled as i64)),
                ("queue_peak", Json::Int(s.queue_peak as i64)),
                ("delta_applied", Json::Int(s.delta_applied as i64)),
                ("blocks_reseeded", Json::Int(s.blocks_reseeded as i64)),
                ("verdicts_retained", Json::Int(s.verdicts_retained as i64)),
            ]))
        }
        Method::Shutdown => Ok(obj([("stopping", Json::Bool(true))])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_response;
    use cqa_model::{Database, Fact, Signature};
    use std::io::BufRead;

    /// Synthetic loader: "db:N" is an N-fact chain; "slow:MS" sleeps
    /// MS milliseconds and serves a 4-fact chain (for occupancy tests);
    /// "forced:N" is an N-link forced chain for the coNP query
    /// [`FORCED_QUERY`]; anything else fails.
    fn chain_loader() -> Loader {
        Arc::new(|path: &str| {
            if let Some(n) = path.strip_prefix("forced:") {
                let n: usize = n.parse().map_err(|_| format!("bad length: {path}"))?;
                let mut db = Database::new(Signature::new(3, 1).unwrap());
                for i in 0..n {
                    let (k, w, next) = (format!("k{i}"), format!("w{i}"), format!("k{}", i + 1));
                    db.insert(Fact::from_names([&k, &w, &w]))
                        .map_err(|e| e.to_string())?;
                    db.insert(Fact::from_names([&next, &k, &w]))
                        .map_err(|e| e.to_string())?;
                }
                return Ok(db);
            }
            let (n, delay_ms) = if let Some(ms) = path.strip_prefix("slow:") {
                let ms: u64 = ms.parse().map_err(|_| format!("bad delay: {path}"))?;
                (4, ms)
            } else {
                let n: usize = path
                    .strip_prefix("db:")
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("no such database: {path}"))?;
                (n, 0)
            };
            if delay_ms > 0 {
                thread::sleep(Duration::from_millis(delay_ms));
            }
            let mut db = Database::new(Signature::new(2, 1).unwrap());
            for i in 0..n {
                db.insert(Fact::from_names([format!("a{i}"), format!("a{}", i + 1)]))
                    .map_err(|e| e.to_string())?;
            }
            Ok(db)
        })
    }

    /// A coNP query whose brute-force search on "forced:N" is one forced
    /// block decision per link: block `k_i` keeps `R(k_i | w_i w_i)` only
    /// while `R(k_i | k_{i-1} w_{i-1})` completes a solution, up to block
    /// `k_N`, which has no viable fact.
    const FORCED_QUERY: &str = "R(y | v v) R(u | y v)";

    fn test_server() -> ServerHandle {
        let mut config = ServeConfig::new(chain_loader());
        config.addr = "127.0.0.1:0".to_string();
        config.threads = 2;
        serve(config).expect("bind test server")
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut impl BufRead, frame: &str) -> String {
        write_frame(stream, frame.to_string()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn serve_answers_and_survives_garbage() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let pong = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":1,"method":"ping","params":{}}"#,
        );
        let r = parse_response(&pong).unwrap();
        assert_eq!(r.id, Some(1));
        assert!(r.outcome.is_ok());

        // Garbage does not kill the connection.
        let err = roundtrip(&mut stream, &mut reader, "{not json");
        assert_eq!(
            parse_response(&err).unwrap().outcome.unwrap_err().code,
            "bad-json"
        );
        let err = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":2,"method":"warp","params":{}}"#,
        );
        let e = parse_response(&err).unwrap().outcome.unwrap_err();
        assert_eq!(e.code, "unknown-method");

        // Still alive: a real query round-trips.
        let ok = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":3,"method":"certain","params":{"db":"db:4","query":"R(x | y) R(y | z)"}}"#,
        );
        let r = parse_response(&ok).unwrap();
        assert_eq!(r.id, Some(3));
        let result = r.outcome.unwrap();
        assert!(result.get("certain").and_then(Json::as_bool).is_some());

        // Unknown database: load-failed, connection still fine.
        let err = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":4,"method":"certain","params":{"db":"missing","query":"R(x | y) R(y | z)"}}"#,
        );
        let e = parse_response(&err).unwrap().outcome.unwrap_err();
        assert_eq!(e.code, "load-failed");
        assert!(e.message.contains("missing"));
    }

    #[test]
    fn a_long_forced_chain_is_answered_and_the_server_lives_on() {
        // The search depth grows with the chain, so a search that took a
        // call-stack frame per decision would overflow a pool thread's
        // stack here and take the whole server down.
        let server = test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let frame = format!(
            r#"{{"id":1,"method":"certain","params":{{"db":"forced:8000","query":"{FORCED_QUERY}"}}}}"#
        );
        let v = roundtrip(&mut s, &mut r, &frame);
        let v = parse_response(&v).unwrap().outcome.unwrap();
        assert_eq!(v.get("certain").and_then(Json::as_bool), Some(true));
        let pong = roundtrip(&mut s, &mut r, r#"{"id":2,"method":"ping","params":{}}"#);
        assert!(parse_response(&pong).unwrap().outcome.is_ok());
    }

    #[test]
    fn update_patches_verdicts_live_and_surfaces_counters() {
        let server = test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());

        // db:1 is the lone fact a0→a1: no two-step path, not certain.
        let v = roundtrip(
            &mut s,
            &mut r,
            r#"{"id":1,"method":"certain","params":{"db":"db:1","query":"R(x | y) R(y | z)"}}"#,
        );
        let v = parse_response(&v).unwrap().outcome.unwrap();
        assert_eq!(v.get("certain").and_then(Json::as_bool), Some(false));

        // Grow the chain; the session's cached verdict is patched, not
        // recomputed from scratch.
        let up = roundtrip(
            &mut s,
            &mut r,
            r##"{"id":2,"method":"update","params":{"db":"db:1","deltas":"# grow\n+ R(a1 | a2)\n"}}"##,
        );
        let u = parse_response(&up).unwrap().outcome.unwrap();
        assert_eq!(u.get("facts").and_then(Json::as_int), Some(2));
        assert_eq!(u.get("inserted").and_then(Json::as_int), Some(1));
        assert_eq!(u.get("retracted").and_then(Json::as_int), Some(0));
        assert_eq!(u.get("growth_only").and_then(Json::as_bool), Some(true));

        let v = roundtrip(
            &mut s,
            &mut r,
            r#"{"id":3,"method":"certain","params":{"db":"db:1","query":"R(x | y) R(y | z)"}}"#,
        );
        let v = parse_response(&v).unwrap().outcome.unwrap();
        assert_eq!(v.get("certain").and_then(Json::as_bool), Some(true));

        // Retract it again: the verdict flips back; not growth-only.
        let up = roundtrip(
            &mut s,
            &mut r,
            r#"{"id":4,"method":"update","params":{"db":"db:1","deltas":"- R(a1 | a2)\n"}}"#,
        );
        let u = parse_response(&up).unwrap().outcome.unwrap();
        assert_eq!(u.get("retracted").and_then(Json::as_int), Some(1));
        assert_eq!(u.get("growth_only").and_then(Json::as_bool), Some(false));
        let v = roundtrip(
            &mut s,
            &mut r,
            r#"{"id":5,"method":"certain","params":{"db":"db:1","query":"R(x | y) R(y | z)"}}"#,
        );
        let v = parse_response(&v).unwrap().outcome.unwrap();
        assert_eq!(v.get("certain").and_then(Json::as_bool), Some(false));

        // The delta counters surface in stats.
        let st = roundtrip(&mut s, &mut r, r#"{"id":6,"method":"stats","params":{}}"#);
        let st = parse_response(&st).unwrap().outcome.unwrap();
        assert_eq!(st.get("delta_applied").and_then(Json::as_int), Some(2));

        // Error paths, all non-fatal to the connection: unparsable
        // script, empty script, key length clashing with the database
        // signature, unknown database.
        for (id, frame, code) in [
            (
                7,
                r#"{"id":7,"method":"update","params":{"db":"db:1","deltas":"+ nope"}}"#,
                "bad-delta",
            ),
            (
                8,
                r##"{"id":8,"method":"update","params":{"db":"db:1","deltas":"# only comments\n"}}"##,
                "bad-delta",
            ),
            (
                9,
                r#"{"id":9,"method":"update","params":{"db":"db:1","deltas":"+ R(a b |)"}}"#,
                "bad-delta",
            ),
            (
                10,
                r#"{"id":10,"method":"update","params":{"db":"missing","deltas":"+ R(a | b)"}}"#,
                "load-failed",
            ),
        ] {
            let err = roundtrip(&mut s, &mut r, frame);
            let resp = parse_response(&err).unwrap();
            assert_eq!(resp.id, Some(id));
            assert_eq!(resp.outcome.unwrap_err().code, code, "frame {id}");
        }

        // Still alive and still on the retracted database.
        let v = roundtrip(
            &mut s,
            &mut r,
            r#"{"id":11,"method":"load","params":{"path":"db:1"}}"#,
        );
        let v = parse_response(&v).unwrap().outcome.unwrap();
        assert_eq!(v.get("facts").and_then(Json::as_int), Some(1));
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let server = test_server();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let bye = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":9,"method":"shutdown","params":{}}"#,
        );
        assert!(parse_response(&bye).unwrap().outcome.is_ok());
        // wait() returns because the wire shutdown stopped the accept loop.
        server.wait();
        // And the port is released eventually; a fresh bind on the same
        // addr family works.
        let _ = TcpListener::bind("127.0.0.1:0").unwrap();
    }

    #[test]
    fn oversized_frames_are_dropped_but_the_loop_survives() {
        let mut config = ServeConfig::new(chain_loader());
        config.addr = "127.0.0.1:0".to_string();
        config.threads = 1;
        config.max_frame = 256;
        let server = serve(config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let huge = format!(
            "{{\"id\":1,\"method\":\"ping\",\"params\":{{\"pad\":\"{}\"}}}}",
            "x".repeat(1000)
        );
        let err = roundtrip(&mut stream, &mut reader, &huge);
        let e = parse_response(&err).unwrap().outcome.unwrap_err();
        assert_eq!(e.code, "frame-too-long");
        assert!(e.message.contains("256"));
        let pong = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"id":2,"method":"ping","params":{}}"#,
        );
        assert!(parse_response(&pong).unwrap().outcome.is_ok());
    }

    #[test]
    fn overload_sheds_with_a_retry_hint_and_counts() {
        // One worker, zero queue slots: while a slow load occupies the
        // worker, any further request that needs the pool is shed
        // immediately.
        let (server, addr) = saturated_server();
        let occupant = occupy(addr);

        let mut s2 = TcpStream::connect(addr).unwrap();
        let mut r2 = BufReader::new(s2.try_clone().unwrap());
        let shed = roundtrip(
            &mut s2,
            &mut r2,
            r#"{"id":2,"method":"certain","params":{"db":"db:4","query":"R(x | y) R(y | z)"}}"#,
        );
        let e = parse_response(&shed).unwrap().outcome.unwrap_err();
        assert_eq!(e.code, "overloaded");
        let hint = e.retry_after_ms.expect("overloaded carries a hint");
        assert!((25..=1000).contains(&hint), "hint {hint} out of range");

        // Control-plane methods are answered on the connection thread:
        // the overloaded server is still observable, and promptly, while
        // the worker is still busy.
        for (id, method) in [(3, "ping"), (4, "stats")] {
            let sent = Instant::now();
            let frame = format!(r#"{{"id":{id},"method":"{method}","params":{{}}}}"#);
            let reply = roundtrip(&mut s2, &mut r2, &frame);
            let waited = sent.elapsed();
            assert!(parse_response(&reply).unwrap().outcome.is_ok(), "{method}");
            assert!(
                waited < Duration::from_millis(100),
                "{method} waited {waited:?} behind the busy worker"
            );
        }
        assert!(!occupant.is_finished(), "the worker was busy throughout");

        // The occupant finishes normally; nothing was wedged.
        let loaded = occupant.join().unwrap();
        assert!(parse_response(&loaded).unwrap().outcome.is_ok());
        let stats = server.manager_stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.cancelled, 0);
    }

    /// A one-worker server with no queue slots: while its worker is
    /// busy, any request that needs the pool is shed.
    fn saturated_server() -> (ServerHandle, SocketAddr) {
        let mut config = ServeConfig::new(chain_loader());
        config.addr = "127.0.0.1:0".to_string();
        config.threads = 1;
        config.max_queue = Some(0);
        let server = serve(config).unwrap();
        let addr = server.addr();
        (server, addr)
    }

    /// Hold the server's worker in a 600 ms load; returns once the load
    /// has started, with the thread that will read its response.
    fn occupy(addr: SocketAddr) -> JoinHandle<String> {
        let occupant = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            roundtrip(
                &mut s,
                &mut r,
                r#"{"id":1,"method":"load","params":{"path":"slow:600"}}"#,
            )
        });
        thread::sleep(Duration::from_millis(150));
        occupant
    }

    #[test]
    fn cache_hits_are_answered_while_the_pool_is_saturated() {
        let (server, addr) = saturated_server();
        let mut s = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let certain =
            r#"{"id":2,"method":"certain","params":{"db":"db:4","query":"R(x | y) R(y | z)"}}"#;
        let batch = r#"{"id":3,"method":"batch","params":{"db":"db:4","queries":"R(x | y) R(y | z)\nR(x|y) R(y|z)"}}"#;
        // Prime the cache while the worker is free.
        let cold = roundtrip(&mut s, &mut r, certain);
        assert!(parse_response(&cold).unwrap().outcome.is_ok());

        let occupant = occupy(addr);
        // Cached: answered, not shed, with the pool's exact bytes.
        assert_eq!(roundtrip(&mut s, &mut r, certain), cold);
        let all_cached = parse_response(&roundtrip(&mut s, &mut r, batch)).unwrap();
        assert_eq!(
            all_cached
                .outcome
                .unwrap()
                .get("count")
                .and_then(Json::as_int),
            Some(2)
        );
        // Needs a worker: shed. A database that is not resident, an
        // uncached query, a batch with one uncached query, a parse error.
        for (id, params) in [
            (4, r#""db":"db:5","query":"R(x | y) R(y | z)""#),
            (5, r#""db":"db:4","query":"R(x | y) R(z | y)""#),
            (6, r#""db":"db:4","query":"R(x | y""#),
        ] {
            let frame = format!(r#"{{"id":{id},"method":"certain","params":{{{params}}}}}"#);
            let e = parse_response(&roundtrip(&mut s, &mut r, &frame))
                .unwrap()
                .outcome
                .unwrap_err();
            assert_eq!(e.code, "overloaded", "frame {id}");
        }
        let mixed = r#"{"id":7,"method":"batch","params":{"db":"db:4","queries":"R(x | y) R(y | z)\nR(x | y) R(x | z)"}}"#;
        let e = parse_response(&roundtrip(&mut s, &mut r, mixed))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(e.code, "overloaded");
        assert!(!occupant.is_finished(), "the worker was busy throughout");

        assert!(parse_response(&occupant.join().unwrap())
            .unwrap()
            .outcome
            .is_ok());
        let stats = server.manager_stats();
        assert_eq!(stats.shed, 4);
        // Shed requests never reached a session: only the three answered
        // reads counted (1 cold + 1 cached certain + 2 cached batch lines).
        assert_eq!((stats.queries, stats.cache_hits), (4, 3));
    }

    #[test]
    fn stats_totals_match_the_requests_on_both_paths() {
        let server = test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let certain = |id: i64, q: &str| {
            format!(r#"{{"id":{id},"method":"certain","params":{{"db":"db:4","query":"{q}"}}}}"#)
        };
        let batch = |id: i64, qs: &str| {
            format!(r#"{{"id":{id},"method":"batch","params":{{"db":"db:4","queries":"{qs}"}}}}"#)
        };
        let q3 = "R(x | y) R(y | z)";
        let q4 = "R(x | y) R(x | z)";
        let q5 = "R(y | x) R(x | y)";
        for frame in [
            certain(1, q3),                    // load, cold solve
            certain(2, q3),                    // cached
            batch(3, &format!("{q3}\\n{q4}")), // mixed: q3 hit, q4 cold
            batch(4, &format!("{q4}\\n{q3}")), // all cached
            certain(5, q5),                    // uncached on a resident db
            certain(6, q5),                    // cached
            certain(7, "R(x | y"),             // parse error: no query
        ] {
            let _ = roundtrip(&mut s, &mut r, &frame);
        }
        let st = roundtrip(&mut s, &mut r, r#"{"id":8,"method":"stats","params":{}}"#);
        let st = parse_response(&st).unwrap().outcome.unwrap();
        let count = |key: &str| st.get(key).and_then(Json::as_int);
        assert_eq!(count("loads"), Some(1));
        // Every request after the load found db:4 resident, once each.
        assert_eq!(count("session_hits"), Some(6));
        // 1 + 1 + 2 + 2 + 1 + 1 answered queries; the parse error none.
        assert_eq!(count("queries"), Some(8));
        // Hits: request 2, q3 of 3, both lines of 4, request 6.
        assert_eq!(count("cache_hits"), Some(5));
        assert_eq!(count("distinct_queries"), Some(3));
        assert_eq!(count("shed"), Some(0));
    }

    #[test]
    fn deadline_expiring_mid_solve_cancels_with_partial_evidence() {
        // A 300k-fact load + solve cannot finish inside 150ms, so
        // the token expires while the request is running (not queued —
        // the pool is idle at pickup) and the fixpoint bails at a poll.
        let server = test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let refused = roundtrip(
            &mut s,
            &mut r,
            r#"{"id":1,"method":"certain","params":{"db":"db:300000","query":"R(x | y) R(y | z)"},"deadline_ms":150}"#,
        );
        let e = parse_response(&refused).unwrap().outcome.unwrap_err();
        assert_eq!(e.code, "deadline-exceeded");
        assert!(
            e.message.contains("mid-solve"),
            "cancel-path message with evidence, got: {}",
            e.message
        );
        assert_eq!(server.manager_stats().cancelled, 1);

        // The verdict was withheld, not cached: a patient retry still
        // gets the real answer on the same connection.
        let ok = roundtrip(
            &mut s,
            &mut r,
            r#"{"id":2,"method":"certain","params":{"db":"db:300000","query":"R(x | y) R(y | z)"}}"#,
        );
        let result = parse_response(&ok).unwrap().outcome.unwrap();
        assert_eq!(result.get("certain"), Some(&Json::Bool(true)));
    }

    #[test]
    fn queued_past_deadline_is_refused() {
        // threads=1 and a deliberately slow first request: the second
        // request (deadline 0ms) must queue behind it and get refused.
        let server = test_server();
        let mut s1 = TcpStream::connect(server.addr()).unwrap();
        let mut r1 = BufReader::new(s1.try_clone().unwrap());
        // Prime the session so the deadline test isn't racing a load.
        let _ = roundtrip(
            &mut s1,
            &mut r1,
            r#"{"id":1,"method":"load","params":{"path":"db:4"}}"#,
        );
        let refused = roundtrip(
            &mut s1,
            &mut r1,
            r#"{"id":2,"method":"certain","params":{"db":"db:4","query":"R(x | y) R(y | z)"},"deadline_ms":0}"#,
        );
        // With deadline_ms:0 the enqueue-to-pickup latency always
        // exceeds the deadline (elapsed > 0).
        let e = parse_response(&refused).unwrap().outcome.unwrap_err();
        assert_eq!(e.code, "deadline-exceeded");
    }
}
