//! A blocking client for the `cqa serve` wire protocol — the library
//! behind `cqa client`, and the workhorse of the parity and load
//! harnesses.

use crate::json::Json;
use crate::protocol::{
    encode_request, parse_response, write_frame, Frame, FrameReader, Method, Request, WireError,
    MAX_FRAME,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded exponential backoff with deterministic seeded jitter.
///
/// Retries apply only to `overloaded` responses and transport (`io`)
/// failures — both leave the verdict uncomputed or undelivered, so a
/// retry can never change an answer, only obtain one. A response that
/// *is* a verdict (even `false`) or any other coded error is returned
/// as-is, never retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts after the initial try.
    pub retries: u32,
    /// Seed for the jitter stream; a fixed seed gives a reproducible
    /// delay schedule.
    pub seed: u64,
    /// First backoff window in milliseconds (the window doubles per
    /// attempt).
    pub base_ms: u64,
    /// Ceiling on any single delay, in milliseconds.
    pub cap_ms: u64,
}

impl RetryPolicy {
    /// A policy with the default window shape: 25 ms base, 2 s cap.
    pub fn new(retries: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            retries,
            seed,
            base_ms: 25,
            cap_ms: 2000,
        }
    }
}

/// The full delay schedule a policy produces, in milliseconds: attempt
/// `k` sleeps a jittered draw from `[w/2, w]` where
/// `w = min(base_ms << k, cap_ms)`. Pure — same policy, same schedule —
/// which is what makes retry behaviour unit-testable.
pub fn backoff_delays_ms(policy: &RetryPolicy) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(policy.seed);
    (0..policy.retries)
        .map(|attempt| {
            let window = policy
                .base_ms
                .saturating_mul(1u64 << attempt.min(20))
                .min(policy.cap_ms)
                .max(1);
            rng.gen_range(window / 2..=window)
        })
        .collect()
}

/// Would a retry be safe *and* useful for this error? `overloaded` is
/// an explicit "come back later"; `io` means the response was never
/// delivered (verdicts are pure, so re-asking cannot change one).
/// Everything else — verdicts, deadline expiries, bad input — is final.
pub fn is_retryable(err: &WireError) -> bool {
    err.code == "overloaded" || err.code == "io"
}

/// One connection to a `cqa serve` instance. Requests are issued
/// strictly in order (the protocol answers in order, one line per
/// request); open more clients for concurrency.
pub struct Client {
    addr: String,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frames: FrameReader,
    next_id: i64,
    /// Applied to every request issued by this client (`None`: no
    /// deadline).
    pub deadline_ms: Option<u64>,
    /// When set, [`Client::call`] retries `overloaded`/transport
    /// failures under this policy (reconnecting after transport
    /// errors). `None`: every call is a single attempt.
    pub retry: Option<RetryPolicy>,
}

impl Client {
    /// Connect to a server. The address is remembered so the retry
    /// path can reconnect after a transport failure.
    pub fn connect(addr: impl ToSocketAddrs + ToString) -> std::io::Result<Client> {
        let text = addr.to_string();
        let writer = TcpStream::connect(addr)?;
        // Generous safety net so a dead server cannot hang a harness.
        writer.set_read_timeout(Some(Duration::from_secs(600)))?;
        // Requests are single small frames; without this, Nagle +
        // delayed ACK stall every request after the first on a
        // persistent connection.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            addr: text,
            writer,
            reader,
            frames: FrameReader::new(),
            next_id: 1,
            deadline_ms: None,
            retry: None,
        })
    }

    /// Tear down the connection and dial the remembered address again.
    /// Deadline and retry settings carry over; request ids restart,
    /// which is fine because ids only pair requests with responses
    /// within one connection.
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        let mut fresh = Client::connect(self.addr.as_str())
            .map_err(|e| WireError::new("io", format!("reconnect to {} failed: {e}", self.addr)))?;
        fresh.deadline_ms = self.deadline_ms;
        fresh.retry = self.retry.take();
        *self = fresh;
        Ok(())
    }

    /// Issue one request and wait for its response, retrying under
    /// [`Client::retry`] when set. Returns the `result` object on
    /// success, the server's coded error otherwise; transport problems
    /// surface as the `io` code.
    pub fn call(&mut self, method: Method) -> Result<Json, WireError> {
        let delays = match &self.retry {
            None => return self.call_once(method),
            Some(policy) => backoff_delays_ms(policy),
        };
        let mut last = self.call_once(method.clone());
        for delay in delays {
            let (wait, transport) = match &last {
                Ok(_) => return last,
                Err(e) if is_retryable(e) => (
                    // A shed server names its own price; honour the
                    // hint when it exceeds the jittered schedule.
                    e.retry_after_ms.map_or(delay, |hint| delay.max(hint)),
                    e.code == "io",
                ),
                Err(_) => return last,
            };
            std::thread::sleep(Duration::from_millis(wait));
            if transport {
                if let Err(e) = self.reconnect() {
                    last = Err(e);
                    continue;
                }
            }
            last = self.call_once(method.clone());
        }
        last
    }

    /// A single request/response exchange, no retries.
    pub fn call_once(&mut self, method: Method) -> Result<Json, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(&Request {
            id: Some(id),
            method,
            deadline_ms: self.deadline_ms,
        });
        write_frame(&mut self.writer, frame)
            .map_err(|e| WireError::new("io", format!("send failed: {e}")))?;
        loop {
            match self
                .frames
                .next(&mut self.reader, MAX_FRAME)
                .map_err(|e| WireError::new("io", format!("receive failed: {e}")))?
            {
                Frame::Pending => continue,
                Frame::Eof => return Err(WireError::new("io", "server closed the connection")),
                Frame::TooLong { limit } => {
                    return Err(WireError::new(
                        "io",
                        format!("response exceeded the {limit}-byte frame limit"),
                    ))
                }
                Frame::NotUtf8 => return Err(WireError::new("io", "response is not valid UTF-8")),
                Frame::Line(line) => {
                    let response = parse_response(&line)?;
                    if response.id != Some(id) {
                        return Err(WireError::new(
                            "bad-response",
                            format!(
                                "response id {:?} does not match request id {id}",
                                response.id
                            ),
                        ));
                    }
                    return response.outcome;
                }
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), WireError> {
        self.call(Method::Ping).map(|_| ())
    }

    /// Load (or touch) a database; returns its fact count.
    pub fn load(&mut self, path: &str) -> Result<i64, WireError> {
        let result = self.call(Method::Load {
            path: path.to_string(),
        })?;
        result
            .get("facts")
            .and_then(Json::as_int)
            .ok_or_else(|| WireError::new("bad-response", "load result missing facts"))
    }

    /// `certain(query)` on `db`; the boolean verdict.
    pub fn certain(&mut self, db: &str, query: &str) -> Result<bool, WireError> {
        let result = self.call(Method::Certain {
            db: db.to_string(),
            query: query.to_string(),
        })?;
        result
            .get("certain")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::new("bad-response", "certain result missing verdict"))
    }

    /// A whole queries text; verdicts in input order — the same
    /// `true`/`false` lines `cqa batch` prints.
    pub fn batch(&mut self, db: &str, queries: &str) -> Result<Vec<bool>, WireError> {
        let result = self.call(Method::Batch {
            db: db.to_string(),
            queries: queries.to_string(),
        })?;
        let Some(Json::Arr(verdicts)) = result.get("verdicts") else {
            return Err(WireError::new(
                "bad-response",
                "batch result missing verdicts",
            ));
        };
        verdicts
            .iter()
            .map(|v| {
                v.as_bool()
                    .ok_or_else(|| WireError::new("bad-response", "non-boolean verdict"))
            })
            .collect()
    }

    /// Apply a delta script to `db` atomically; the raw result object
    /// (`facts`, `inserted`, `retracted`, `touched_blocks`,
    /// `fresh_blocks`, `growth_only`). Updates are set-semantic, so a
    /// retried `update` (after `overloaded` or a transport error) is
    /// harmless.
    pub fn update(&mut self, db: &str, deltas: &str) -> Result<Json, WireError> {
        self.call(Method::Update {
            db: db.to_string(),
            deltas: deltas.to_string(),
        })
    }

    /// Brute-force falsification; the raw result object (`outcome`,
    /// optional `repair`).
    pub fn falsify(&mut self, db: &str, query: &str, budget: u64) -> Result<Json, WireError> {
        self.call(Method::Falsify {
            db: db.to_string(),
            query: query.to_string(),
            budget,
        })
    }

    /// Server counters as a raw object.
    pub fn stats(&mut self) -> Result<Json, WireError> {
        self.call(Method::Stats)
    }

    /// Ask the server to stop.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.call(Method::Shutdown).map(|_| ())
    }
}

/// Render batch verdicts exactly as `cqa batch` prints them: one
/// `true`/`false` per line. The parity suite diffs this against the CLI
/// byte for byte.
pub fn render_verdicts(verdicts: &[bool]) -> String {
    let mut out = String::new();
    for v in verdicts {
        out.push_str(if *v { "true\n" } else { "false\n" });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{decode, obj};
    use crate::protocol::{err_response, ok_response};
    use std::io::{BufRead, Write};
    use std::net::{SocketAddr, TcpListener};
    use std::thread;

    #[test]
    fn render_matches_cli_batch_shape() {
        assert_eq!(render_verdicts(&[true, false, true]), "true\nfalse\ntrue\n");
        assert_eq!(render_verdicts(&[]), "");
    }

    #[test]
    fn backoff_schedule_is_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            retries: 8,
            seed: 42,
            base_ms: 25,
            cap_ms: 2000,
        };
        let a = backoff_delays_ms(&policy);
        let b = backoff_delays_ms(&policy);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(a.len(), 8);
        for (attempt, delay) in a.iter().enumerate() {
            let window = (25u64 << attempt).min(2000);
            assert!(
                (window / 2..=window).contains(delay),
                "attempt {attempt}: delay {delay} outside [{}, {window}]",
                window / 2
            );
        }
        let other = backoff_delays_ms(&RetryPolicy { seed: 43, ..policy });
        assert_ne!(a, other, "different seeds should jitter differently");
    }

    #[test]
    fn only_overloaded_and_transport_errors_are_retryable() {
        assert!(is_retryable(&WireError::new("overloaded", "shed")));
        assert!(is_retryable(&WireError::new("io", "broken pipe")));
        for code in ["deadline-exceeded", "bad-query", "unknown-db", "error"] {
            assert!(!is_retryable(&WireError::new(code, "x")), "{code}");
        }
    }

    /// A scripted one-connection server: answers each incoming request
    /// with the next canned line (responding with the request's own
    /// id), then keeps reading so the main thread can count how many
    /// requests actually arrived.
    fn scripted(
        responses: Vec<Box<dyn Fn(i64) -> String + Send>>,
    ) -> (SocketAddr, thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = std::io::BufReader::new(stream);
            let mut seen = 0usize;
            for (line, respond) in reader.lines().map_while(Result::ok).zip(responses) {
                seen += 1;
                let id = decode(&line)
                    .ok()
                    .and_then(|doc| doc.get("id").and_then(Json::as_int))
                    .unwrap();
                writeln!(writer, "{}", respond(id)).unwrap();
            }
            seen
        });
        (addr, handle)
    }

    fn verdict(value: bool) -> Box<dyn Fn(i64) -> String + Send> {
        Box::new(move |id| ok_response(Some(id), obj([("certain", Json::Bool(value))])))
    }

    fn coded(code: &'static str, hint: Option<u64>) -> Box<dyn Fn(i64) -> String + Send> {
        Box::new(move |id| {
            let mut err = WireError::new(code, "scripted");
            if let Some(ms) = hint {
                err = err.with_retry_after(ms);
            }
            err_response(Some(id), &err)
        })
    }

    fn fast_policy(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            seed: 7,
            base_ms: 1,
            cap_ms: 2,
        }
    }

    #[test]
    fn overloaded_is_retried_until_the_verdict_lands() {
        let (addr, server) = scripted(vec![coded("overloaded", Some(1)), verdict(false)]);
        let mut client = Client::connect(addr).unwrap();
        client.retry = Some(fast_policy(3));
        assert_eq!(client.certain("db", "q"), Ok(false));
        drop(client);
        assert_eq!(server.join().unwrap(), 2, "one shed, one answered");
    }

    #[test]
    fn a_verdict_even_false_is_never_retried() {
        let (addr, server) = scripted(vec![verdict(false), verdict(true)]);
        let mut client = Client::connect(addr).unwrap();
        client.retry = Some(fast_policy(3));
        assert_eq!(client.certain("db", "q"), Ok(false));
        drop(client);
        assert_eq!(server.join().unwrap(), 1, "a false verdict is final");
    }

    #[test]
    fn non_retryable_codes_pass_through_untouched() {
        let (addr, server) = scripted(vec![coded("deadline-exceeded", None)]);
        let mut client = Client::connect(addr).unwrap();
        client.retry = Some(fast_policy(3));
        let err = client.certain("db", "q").unwrap_err();
        assert_eq!(err.code, "deadline-exceeded");
        drop(client);
        assert_eq!(server.join().unwrap(), 1);
    }

    #[test]
    fn retries_stop_at_the_cap() {
        let (addr, server) = scripted(vec![
            coded("overloaded", Some(1)),
            coded("overloaded", Some(1)),
            coded("overloaded", Some(1)),
        ]);
        let mut client = Client::connect(addr).unwrap();
        client.retry = Some(fast_policy(2));
        let err = client.certain("db", "q").unwrap_err();
        assert_eq!(err.code, "overloaded", "cap reached: last error surfaces");
        drop(client);
        assert_eq!(server.join().unwrap(), 3, "initial try + exactly 2 retries");
    }

    #[test]
    fn transport_failures_reconnect_and_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            // First connection: read the request, answer nothing, hang up.
            let (stream, _) = listener.accept().unwrap();
            let mut lines = std::io::BufReader::new(stream).lines();
            let _ = lines.next();
            drop(lines);
            // Second connection (the client's reconnect): answer properly.
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let line = std::io::BufReader::new(stream)
                .lines()
                .next()
                .unwrap()
                .unwrap();
            let id = decode(&line)
                .unwrap()
                .get("id")
                .and_then(Json::as_int)
                .unwrap();
            writeln!(
                writer,
                "{}",
                ok_response(Some(id), obj([("certain", Json::Bool(true))]))
            )
            .unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        client.deadline_ms = Some(5000);
        client.retry = Some(fast_policy(3));
        assert_eq!(client.certain("db", "q"), Ok(true));
        assert_eq!(
            client.deadline_ms,
            Some(5000),
            "settings survive the reconnect"
        );
        server.join().unwrap();
    }
}
