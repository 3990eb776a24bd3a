//! `cqa serve` and `cqa client`: the CLI front ends of [`cqa_server`].
//!
//! `serve` binds the listener, announces the address on stderr (so
//! harnesses can poll for readiness), then blocks until a client sends
//! `shutdown`; `client` issues one request against a running server and
//! prints results in the same shapes the single-shot commands use —
//! `client batch` output is byte-identical to `cqa batch` stdout, which
//! the CI smoke diffs.

use crate::{load_db_file, read_file, threads_flag, CliError, CmdOut, Flags};
use cqa_server::{serve, Client, Json, Loader, RetryPolicy, ServeConfig, WireError};
use std::fmt::Write as _;
use std::sync::Arc;

/// Parse a byte count with an optional binary suffix: `65536`, `64k`,
/// `16m`, `2g` (powers of 1024, case-insensitive).
pub fn parse_bytes(v: &str) -> Result<usize, CliError> {
    let bad = || {
        CliError::new(format!(
            "bad byte count {v:?} (want e.g. 65536, 64k, 16m, 2g)"
        ))
    };
    let (digits, shift) = match v.chars().last() {
        Some('k' | 'K') => (&v[..v.len() - 1], 10),
        Some('m' | 'M') => (&v[..v.len() - 1], 20),
        Some('g' | 'G') => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_shl(shift)
        .filter(|_| n.leading_zeros() as usize > shift as usize)
        .ok_or_else(bad)
}

/// `cqa serve [--addr HOST:PORT] [--memory-budget BYTES] [--threads N]
/// [--max-queue N] [--stats]`: run the query server until a client
/// sends `shutdown`.
///
/// `--threads` sizes the shared worker pool (default: all cores); each
/// request solves single-threaded, so parallelism comes from concurrent
/// requests and the machine is never oversubscribed. `--memory-budget`
/// caps resident databases (approximate bytes; LRU eviction past it).
/// `--max-queue` bounds how many requests that need a worker (loads,
/// solves, updates) may wait beyond the pool width before new ones are
/// shed with `overloaded`; cache hits and `ping`/`stats`/`shutdown` are
/// answered without one and never shed (default:
/// `max(32, 4×threads)`). With `--stats`, the final session-manager and
/// overload counters go to stderr on shutdown.
pub fn cmd_serve(args: &[&str]) -> Result<CmdOut, CliError> {
    let mut flags = Flags::new("serve", args);
    let addr = flags
        .value("--addr")?
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let memory_budget = match flags.value::<String>("--memory-budget")? {
        Some(v) => Some(parse_bytes(&v)?),
        None => None,
    };
    let max_queue = flags.value("--max-queue")?;
    let threads = threads_flag(&mut flags)?;
    let want_stats = flags.switch("--stats");
    flags.finish()?;
    let loader: Loader = Arc::new(|path: &str| load_db_file(path).map_err(|e| e.message));
    let mut config = ServeConfig::new(loader);
    config.addr = addr.clone();
    config.threads = threads.unwrap_or(0);
    config.memory_budget = memory_budget;
    config.max_queue = max_queue;
    // One solver thread per request: the pool is the parallelism.
    config.engine = cqa::EngineConfig::default().with_threads(1);
    let handle = serve(config).map_err(|e| CliError {
        message: format!("cannot bind {addr}: {e}"),
        code: 2,
    })?;
    // Announced before blocking so scripts can wait for readiness.
    eprintln!(
        "cqa serve: listening on {} (threads={}, memory-budget={})",
        handle.addr(),
        if threads.unwrap_or(0) == 0 {
            "all-cores".to_string()
        } else {
            threads.unwrap_or(0).to_string()
        },
        memory_budget.map_or("none".to_string(), |b| b.to_string()),
    );
    let stats = handle.wait();
    let mut err = String::new();
    if want_stats {
        let _ = writeln!(
            err,
            "stats: serve sessions={} loads={} session-hits={} evictions={} resident-bytes={}",
            stats.sessions, stats.loads, stats.session_hits, stats.evictions, stats.resident_bytes
        );
        let _ = writeln!(
            err,
            "stats: serve queries={} distinct={} cache-hits={}",
            stats.queries, stats.distinct_queries, stats.cache_hits
        );
        let _ = writeln!(
            err,
            "stats: serve shed={} cancelled={} queue-peak={}",
            stats.shed, stats.cancelled, stats.queue_peak
        );
        let _ = writeln!(
            err,
            "stats: serve delta-applied={} blocks-reseeded={} verdicts-retained={}",
            stats.delta_applied, stats.blocks_reseeded, stats.verdicts_retained
        );
    }
    Ok(CmdOut {
        stdout: "cqa serve: stopped\n".to_string(),
        stderr: err,
    })
}

/// `cqa client [--deadline-ms N] [--retries N] [--retry-seed S]
/// [--repeat N] <addr> <request...>`: one request against a running
/// server. Requests:
///
/// ```text
/// cqa client 127.0.0.1:7878 ping
/// cqa client 127.0.0.1:7878 load     <db-path>
/// cqa client 127.0.0.1:7878 certain  <db-path> "<query>"
/// cqa client 127.0.0.1:7878 batch    <db-path> <queries-file>
/// cqa client 127.0.0.1:7878 update   <db-path> <deltas-file>
/// cqa client 127.0.0.1:7878 falsify  <db-path> "<query>" [budget]
/// cqa client 127.0.0.1:7878 stats
/// cqa client 127.0.0.1:7878 shutdown
/// ```
///
/// Database paths are resolved by the *server*. `batch` prints one
/// `true`/`false` per query line — exactly `cqa batch` stdout.
///
/// `--retries N` retries `overloaded` responses and transport failures
/// up to N times under bounded exponential backoff with seeded jitter
/// (`--retry-seed`, default 0); verdicts and all other coded errors are
/// never retried. `--repeat N` issues the request N times over the one
/// connection (a persistent-connection benchmark mode), asserts the
/// responses are byte-identical (`stats` excepted — its counters move),
/// and prints a single copy.
pub fn cmd_client(args: &[&str]) -> Result<CmdOut, CliError> {
    let mut flags = Flags::new("client", args);
    let deadline_ms = flags.value("--deadline-ms")?;
    let retries: u32 = flags.value("--retries")?.unwrap_or(0);
    let retry_seed = flags.value("--retry-seed")?.unwrap_or(0);
    let repeat: u64 = match flags.value("--repeat")? {
        Some(0) => return Err(CliError::new("bad repeat count \"0\" (want >= 1)")),
        n => n.unwrap_or(1),
    };
    let positional = flags.positionals()?;
    let [addr, request @ ..] = positional.as_slice() else {
        return Err(CliError::new(
            "client needs a server address and a request (ping, load, certain, batch, update, falsify, stats, shutdown)",
        ));
    };
    if repeat > 1 && request == ["shutdown"] {
        return Err(CliError::new("--repeat does not apply to shutdown"));
    }
    let mut client = Client::connect(addr).map_err(|e| CliError {
        message: format!("cannot connect to {addr}: {e}"),
        code: 2,
    })?;
    client.deadline_ms = deadline_ms;
    if retries > 0 {
        client.retry = Some(RetryPolicy::new(retries, retry_seed));
    }
    let mut first: Option<String> = None;
    for round in 0..repeat {
        let out = run_request(&mut client, request)?;
        match &mut first {
            None => first = Some(out),
            // Stats counters legitimately move between rounds; every
            // other request must answer byte-identically.
            Some(_) if request == ["stats"] => first = Some(out),
            Some(prev) if *prev != out => {
                return Err(CliError::new(format!(
                    "--repeat round {round} diverged from the first response"
                )));
            }
            Some(_) => {}
        }
    }
    Ok(CmdOut {
        stdout: first.unwrap_or_default(),
        stderr: String::new(),
    })
}

/// Execute one parsed client request and render its stdout text.
fn run_request(client: &mut Client, request: &[&str]) -> Result<String, CliError> {
    let wire = |e: WireError| CliError::new(format!("server error ({}): {}", e.code, e.message));
    let mut out = String::new();
    match request {
        ["ping"] => {
            client.ping().map_err(wire)?;
            out.push_str("pong\n");
        }
        ["load", db] => {
            let facts = client.load(db).map_err(wire)?;
            let _ = writeln!(out, "loaded {db}: {facts} facts");
        }
        ["certain", db, query] => {
            let v = client.certain(db, query).map_err(wire)?;
            let _ = writeln!(out, "certain:     {v}");
        }
        ["batch", db, queries_file] => {
            let text = read_file(queries_file)?;
            let verdicts = client.batch(db, &text).map_err(|e| CliError {
                message: format!("{queries_file}: server error ({}): {}", e.code, e.message),
                code: 1,
            })?;
            out.push_str(&cqa_server::render_verdicts(&verdicts));
        }
        ["update", db, deltas_file] => {
            let text = read_file(deltas_file)?;
            let result = client.update(db, &text).map_err(|e| CliError {
                message: format!("{deltas_file}: server error ({}): {}", e.code, e.message),
                code: 1,
            })?;
            let n = |key: &str| result.get(key).and_then(Json::as_int).unwrap_or(0);
            let _ = writeln!(
                out,
                "updated {db}: +{} -{} facts={} touched-blocks={} fresh-blocks={} growth-only={}",
                n("inserted"),
                n("retracted"),
                n("facts"),
                n("touched_blocks"),
                n("fresh_blocks"),
                result
                    .get("growth_only")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            );
        }
        ["falsify", db, query] | ["falsify", db, query, _] => {
            let budget = match request {
                [_, _, _, b] => b
                    .parse()
                    .map_err(|_| CliError::new(format!("bad budget {b:?}")))?,
                _ => u64::MAX,
            };
            let result = client.falsify(db, query, budget).map_err(wire)?;
            // Same lines cmd_falsify prints, so eyeballs and greps
            // transfer between the two front ends.
            match result.get("outcome").and_then(Json::as_str) {
                Some("certain") => out.push_str("certain: every repair satisfies the query\n"),
                Some("not-certain") => {
                    let facts = match result.get("repair") {
                        Some(Json::Arr(facts)) => facts.as_slice(),
                        _ => &[],
                    };
                    let _ = writeln!(
                        out,
                        "not certain — falsifying repair ({} facts):",
                        facts.len()
                    );
                    for f in facts {
                        let _ = writeln!(out, "  {}", f.as_str().unwrap_or("?"));
                    }
                }
                _ => {
                    let _ = writeln!(out, "inconclusive: search budget ({budget}) exhausted");
                }
            }
        }
        ["stats"] => {
            let s = client.stats().map_err(wire)?;
            // One aligned `key: value` row per counter, in wire order.
            if let Json::Obj(members) = &s {
                for (key, value) in members {
                    let shown = match value {
                        Json::Null => "none".to_string(),
                        Json::Int(n) => n.to_string(),
                        other => other.encode(),
                    };
                    let _ = writeln!(out, "{key:<16} {shown}");
                }
            }
        }
        ["shutdown"] => {
            client.shutdown().map_err(wire)?;
            out.push_str("server stopping\n");
        }
        _ => {
            return Err(CliError::new(
                "unknown client request (want ping, load, certain, batch, update, falsify, stats or shutdown)",
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("65536").unwrap(), 65536);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("16M").unwrap(), 16 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("k").is_err());
        assert!(parse_bytes("12q").is_err());
        assert!(parse_bytes("999999999999999999999g").is_err());
    }

    #[test]
    fn serve_rejects_unknown_flags_without_binding() {
        let e = cmd_serve(&["--port", "99"]).unwrap_err();
        assert!(e.message.contains("unknown serve option"));
        let e = cmd_serve(&["--memory-budget"]).unwrap_err();
        assert!(e.message.contains("needs a value"));
        let e = cmd_serve(&["--memory-budget", "soon"]).unwrap_err();
        assert!(e.message.contains("bad byte count"));
        let e = cmd_serve(&["--memory-budget=soon"]).unwrap_err();
        assert!(e.message.contains("bad byte count"));
        let e = cmd_serve(&["--threads", "0"]).unwrap_err();
        assert!(e.message.contains("bad thread count"));
        let e = cmd_serve(&["127.0.0.1:7878"]).unwrap_err();
        assert!(e.message.contains("no positional arguments"));
    }

    #[test]
    fn client_rejects_malformed_invocations_without_connecting() {
        let e = cmd_client(&[]).unwrap_err();
        assert!(e.message.contains("server address"));
        let e = cmd_client(&["--deadline-ms", "x", "127.0.0.1:1"]).unwrap_err();
        assert!(e.message.contains("bad value \"x\" for --deadline-ms"));
        let e = cmd_client(&["--retries", "many", "127.0.0.1:1", "ping"]).unwrap_err();
        assert!(e.message.contains("bad value \"many\" for --retries"));
        let e = cmd_client(&["--retry-seed", "-1", "127.0.0.1:1", "ping"]).unwrap_err();
        assert!(e.message.contains("bad value \"-1\" for --retry-seed"));
        let e = cmd_client(&["--repeat", "0", "127.0.0.1:1", "ping"]).unwrap_err();
        assert!(e.message.contains("bad repeat count"));
        let e = cmd_client(&["--timeout", "5", "127.0.0.1:1", "ping"]).unwrap_err();
        assert!(e.message.contains("unknown client option \"--timeout\""));
        let e = cmd_client(&["--repeat", "2", "127.0.0.1:1", "shutdown"]).unwrap_err();
        assert!(e.message.contains("does not apply to shutdown"));
    }

    #[test]
    fn serve_rejects_bad_queue_bounds_without_binding() {
        let e = cmd_serve(&["--max-queue"]).unwrap_err();
        assert!(e.message.contains("needs a value"));
        let e = cmd_serve(&["--max-queue", "deep"]).unwrap_err();
        assert!(e.message.contains("bad value \"deep\" for --max-queue"));
    }
}
