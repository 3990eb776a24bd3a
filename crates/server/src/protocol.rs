//! The `cqa serve` wire protocol: line-delimited JSON-RPC-ish frames.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"id":1,"method":"load","params":{"path":"emp.facts"}}
//! ← {"id":1,"ok":true,"result":{"db":"emp.facts","facts":100000,...}}
//! → {"id":2,"method":"certain","params":{"db":"emp.facts","query":"R(x | y) R(y | z)"}}
//! ← {"id":2,"ok":true,"result":{"certain":true,"answered_by":"ComponentCertK"}}
//! → {"id":3,"method":"nope","params":{}}
//! ← {"id":3,"ok":false,"error":{"code":"unknown-method","message":"..."}}
//! ```
//!
//! Every failure is a *positioned* error response (`bad-json` carries the
//! byte offset inside the frame, `bad-query`/`bad-batch` the line/offset
//! inside the query text — the same positions `cqa batch` prints), and no
//! failure ever terminates the connection: malformed JSON, unknown
//! methods, oversized and non-UTF-8 frames all produce an error response
//! and the loop reads on. The full grammar and error table live in
//! `docs/SERVER.md`.
//!
//! Framing is handled by [`FrameReader`]: frames longer than the
//! server's limit are drained (never buffered) and reported as
//! [`Frame::TooLong`]; bytes that are not UTF-8 yield [`Frame::NotUtf8`];
//! a read timeout yields [`Frame::Pending`] with all partial input
//! retained, so a polling server loop can check its shutdown flag
//! without dropping half-received requests.

use crate::json::{decode, obj, Json, JsonError};
use std::io::{self, BufRead, Write};

/// Default cap on one frame (request or response line), in bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// A request, decoded from one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Echoed verbatim into the response (`null` if absent).
    pub id: Option<i64>,
    /// What to do.
    pub method: Method,
    /// Optional per-request deadline in milliseconds: if the server
    /// cannot *start* the request within it (queueing, cache misses
    /// ahead of it on the connection), it answers `deadline-exceeded`
    /// instead of computing a stale answer.
    pub deadline_ms: Option<u64>,
}

/// The request verbs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// Liveness probe.
    Ping,
    /// Load (or touch) the database at a server-visible path.
    Load {
        /// Fact-file path on the server's filesystem.
        path: String,
    },
    /// `certain(q)` on a loaded (or lazily loaded) database.
    Certain {
        /// Database path (the session key).
        db: String,
        /// Query text, `cqa certain` syntax.
        query: String,
    },
    /// Brute-force falsification witness search.
    Falsify {
        /// Database path (the session key).
        db: String,
        /// Query text.
        query: String,
        /// Node budget (`u64::MAX` when omitted).
        budget: u64,
    },
    /// A whole queries file in one frame (`\n`-separated lines, `cqa
    /// batch` grammar: `#` comments, blank lines skipped).
    Batch {
        /// Database path (the session key).
        db: String,
        /// Queries text.
        queries: String,
    },
    /// Apply an insert/retract delta to a loaded (or lazily loaded)
    /// database, patching its cached verdicts incrementally. The delta
    /// text is a `\n`-separated script: `+ R(a | b)` inserts (the `+` is
    /// optional), `- R(a | b)` retracts, `#` comments and blank lines are
    /// skipped. Atomic per request: on any error the session is
    /// unchanged.
    Update {
        /// Database path (the session key).
        db: String,
        /// Delta script text.
        deltas: String,
    },
    /// Server + session-manager counters.
    Stats,
    /// Stop accepting connections and exit cleanly.
    Shutdown,
}

/// A protocol-level failure: the machine-readable code plus a message.
/// The codes are enumerated in `docs/SERVER.md`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Stable kebab-case error code (`bad-json`, `unknown-method`, …).
    pub code: &'static str,
    /// Human-readable detail, with positions where applicable.
    pub message: String,
    /// Machine-readable backoff hint, only on `overloaded` responses:
    /// how long (in milliseconds) the client should wait before
    /// retrying. Other codes leave it `None`.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A new error.
    pub fn new(code: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// This error with a `retry_after_ms` backoff hint attached.
    pub fn with_retry_after(mut self, ms: u64) -> WireError {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> WireError {
        WireError::new("bad-json", e.to_string())
    }
}

/// Decode one request frame. Positioned errors for malformed JSON;
/// `bad-request` / `unknown-method` / `missing-param` for shape problems.
pub fn parse_request(frame: &str) -> Result<Request, WireError> {
    let doc = decode(frame)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(WireError::new("bad-request", "request must be an object"));
    }
    let id = match doc.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Int(n)) => Some(*n),
        Some(_) => {
            return Err(WireError::new(
                "bad-request",
                "id must be an integer or null",
            ))
        }
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(Json::Int(n)) if *n >= 0 => Some(*n as u64),
        Some(_) => {
            return Err(WireError::new(
                "bad-request",
                "deadline_ms must be a non-negative integer",
            ))
        }
    };
    let method_name = doc
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new("bad-request", "missing string field \"method\""))?;
    let params = doc.get("params").unwrap_or(&Json::Null);
    let str_param = |name: &str| -> Result<String, WireError> {
        params
            .get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                WireError::new(
                    "missing-param",
                    format!("method {method_name:?} needs a string param {name:?}"),
                )
            })
    };
    let method = match method_name {
        "ping" => Method::Ping,
        "load" => Method::Load {
            path: str_param("path")?,
        },
        "certain" => Method::Certain {
            db: str_param("db")?,
            query: str_param("query")?,
        },
        "falsify" => Method::Falsify {
            db: str_param("db")?,
            query: str_param("query")?,
            budget: match params.get("budget") {
                None | Some(Json::Null) => u64::MAX,
                Some(Json::Int(n)) if *n >= 0 => *n as u64,
                Some(_) => {
                    return Err(WireError::new(
                        "bad-request",
                        "budget must be a non-negative integer",
                    ))
                }
            },
        },
        "batch" => Method::Batch {
            db: str_param("db")?,
            queries: str_param("queries")?,
        },
        "update" => Method::Update {
            db: str_param("db")?,
            deltas: str_param("deltas")?,
        },
        "stats" => Method::Stats,
        "shutdown" => Method::Shutdown,
        other => {
            return Err(WireError::new(
                "unknown-method",
                format!(
                    "unknown method {other:?} (want ping, load, certain, falsify, batch, update, stats or shutdown)"
                ),
            ))
        }
    };
    Ok(Request {
        id,
        method,
        deadline_ms,
    })
}

/// Send `frame` as one wire frame: append the newline and hand the whole
/// line to a single `write_all`. Writing text and newline separately
/// sends two TCP segments (the sockets run with `TCP_NODELAY`), and the
/// peer's [`FrameReader`] wakes for each.
pub fn write_frame(w: &mut impl Write, mut frame: String) -> io::Result<()> {
    frame.push('\n');
    w.write_all(frame.as_bytes())?;
    w.flush()
}

/// Encode a request (the client side of [`parse_request`]).
pub fn encode_request(req: &Request) -> String {
    let id = match req.id {
        Some(n) => Json::Int(n),
        None => Json::Null,
    };
    let (method, params) = match &req.method {
        Method::Ping => ("ping", obj([])),
        Method::Load { path } => ("load", obj([("path", Json::Str(path.clone()))])),
        Method::Certain { db, query } => (
            "certain",
            obj([
                ("db", Json::Str(db.clone())),
                ("query", Json::Str(query.clone())),
            ]),
        ),
        Method::Falsify { db, query, budget } => (
            "falsify",
            obj([
                ("db", Json::Str(db.clone())),
                ("query", Json::Str(query.clone())),
                (
                    "budget",
                    Json::Int(i64::try_from(*budget).unwrap_or(i64::MAX)),
                ),
            ]),
        ),
        Method::Batch { db, queries } => (
            "batch",
            obj([
                ("db", Json::Str(db.clone())),
                ("queries", Json::Str(queries.clone())),
            ]),
        ),
        Method::Update { db, deltas } => (
            "update",
            obj([
                ("db", Json::Str(db.clone())),
                ("deltas", Json::Str(deltas.clone())),
            ]),
        ),
        Method::Stats => ("stats", obj([])),
        Method::Shutdown => ("shutdown", obj([])),
    };
    let mut members = vec![
        ("id", id),
        ("method", Json::Str(method.to_string())),
        ("params", params),
    ];
    if let Some(ms) = req.deadline_ms {
        members.push((
            "deadline_ms",
            Json::Int(i64::try_from(ms).unwrap_or(i64::MAX)),
        ));
    }
    obj(members).encode()
}

/// Build a success response frame (without the trailing newline).
pub fn ok_response(id: Option<i64>, result: Json) -> String {
    let id = id.map_or(Json::Null, Json::Int);
    obj([("id", id), ("ok", Json::Bool(true)), ("result", result)]).encode()
}

/// Build an error response frame (without the trailing newline).
pub fn err_response(id: Option<i64>, error: &WireError) -> String {
    let id = id.map_or(Json::Null, Json::Int);
    let mut members = vec![
        ("code", Json::Str(error.code.to_string())),
        ("message", Json::Str(error.message.clone())),
    ];
    if let Some(ms) = error.retry_after_ms {
        members.push((
            "retry_after_ms",
            Json::Int(i64::try_from(ms).unwrap_or(i64::MAX)),
        ));
    }
    obj([
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", obj(members)),
    ])
    .encode()
}

/// A decoded response, for the client side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The echoed request id.
    pub id: Option<i64>,
    /// `Ok(result)` or `Err(error)`.
    pub outcome: Result<Json, WireError>,
}

/// Decode one response frame.
pub fn parse_response(frame: &str) -> Result<Response, WireError> {
    let doc = decode(frame)?;
    let id = match doc.get("id") {
        Some(Json::Int(n)) => Some(*n),
        _ => None,
    };
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let result = doc
                .get("result")
                .cloned()
                .ok_or_else(|| WireError::new("bad-response", "ok response missing result"))?;
            Ok(Response {
                id,
                outcome: Ok(result),
            })
        }
        Some(false) => {
            let error = doc
                .get("error")
                .ok_or_else(|| WireError::new("bad-response", "error response missing error"))?;
            let code = error.get("code").and_then(Json::as_str).unwrap_or("error");
            let message = error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            // Codes are 'static in WireError; map the known ones through,
            // fold anything else to "error".
            let code = KNOWN_CODES
                .iter()
                .copied()
                .find(|k| *k == code)
                .unwrap_or("error");
            let mut wire = WireError::new(code, message);
            if let Some(Json::Int(ms)) = error.get("retry_after_ms") {
                if *ms >= 0 {
                    wire.retry_after_ms = Some(*ms as u64);
                }
            }
            Ok(Response {
                id,
                outcome: Err(wire),
            })
        }
        None => Err(WireError::new(
            "bad-response",
            "response missing boolean \"ok\"",
        )),
    }
}

/// Every error code this protocol emits (the rows of the error table in
/// `docs/SERVER.md`).
pub const KNOWN_CODES: &[&str] = &[
    "bad-json",
    "bad-request",
    "unknown-method",
    "missing-param",
    "frame-too-long",
    "bad-utf8",
    "load-failed",
    "bad-query",
    "bad-batch",
    "bad-delta",
    "signature-mismatch",
    "deadline-exceeded",
    "overloaded",
    "shutting-down",
    "bad-response",
    "io",
    "error",
];

/// One framing outcome from [`FrameReader::next`].
#[derive(Debug)]
pub enum Frame {
    /// A complete line (terminator stripped).
    Line(String),
    /// The line exceeded the frame limit; its bytes were drained up to
    /// the next newline, so the connection is resynchronised.
    TooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The line was not valid UTF-8 (fully consumed; connection is
    /// resynchronised).
    NotUtf8,
    /// The peer closed the connection.
    Eof,
    /// A read timeout fired before the line completed; partial input is
    /// retained — call again.
    Pending,
}

/// Incremental line framing over a [`BufRead`], robust to read timeouts
/// (partial frames survive a [`Frame::Pending`]) and to oversized lines
/// (drained without buffering).
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// In overflow mode: discarding until the next newline.
    overflow: bool,
}

impl FrameReader {
    /// A fresh reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Read the next frame, buffering at most `max` bytes. I/O errors
    /// other than timeouts propagate.
    pub fn next(&mut self, r: &mut impl BufRead, max: usize) -> io::Result<Frame> {
        loop {
            let chunk = match r.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Frame::Pending)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF. A final unterminated line still counts as a frame.
                if self.overflow {
                    self.overflow = false;
                    return Ok(Frame::TooLong { limit: max });
                }
                if self.buf.is_empty() {
                    return Ok(Frame::Eof);
                }
                return Ok(self.take_line());
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            if self.overflow {
                // Discard up to and including the newline, then report.
                match newline {
                    Some(i) => {
                        r.consume(i + 1);
                        self.overflow = false;
                        return Ok(Frame::TooLong { limit: max });
                    }
                    None => {
                        let n = chunk.len();
                        r.consume(n);
                        continue;
                    }
                }
            }
            match newline {
                Some(i) => {
                    if self.buf.len() + i > max {
                        r.consume(i + 1);
                        self.buf.clear();
                        return Ok(Frame::TooLong { limit: max });
                    }
                    self.buf.extend_from_slice(&chunk[..i]);
                    r.consume(i + 1);
                    return Ok(self.take_line());
                }
                None => {
                    let n = chunk.len();
                    if self.buf.len() + n > max {
                        self.buf.clear();
                        self.overflow = true;
                        r.consume(n);
                        continue;
                    }
                    self.buf.extend_from_slice(chunk);
                    r.consume(n);
                }
            }
        }
    }

    fn take_line(&mut self) -> Frame {
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        let bytes = std::mem::take(&mut self.buf);
        match String::from_utf8(bytes) {
            Ok(line) => Frame::Line(line),
            Err(_) => Frame::NotUtf8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_encode_parse_round_trip() {
        let cases = [
            Request {
                id: Some(1),
                method: Method::Ping,
                deadline_ms: None,
            },
            Request {
                id: None,
                method: Method::Load {
                    path: "a b/emp.facts".into(),
                },
                deadline_ms: Some(250),
            },
            Request {
                id: Some(-3),
                method: Method::Certain {
                    db: "x.facts".into(),
                    query: "R(x | y) R(y | z)".into(),
                },
                deadline_ms: None,
            },
            Request {
                id: Some(7),
                method: Method::Falsify {
                    db: "x.facts".into(),
                    query: "R(x | y) R(y | z)".into(),
                    budget: 1000,
                },
                deadline_ms: None,
            },
            Request {
                id: Some(8),
                method: Method::Batch {
                    db: "x.facts".into(),
                    queries: "# mix\nR(x | y) R(y | z)\n".into(),
                },
                deadline_ms: None,
            },
            Request {
                id: Some(9),
                method: Method::Update {
                    db: "x.facts".into(),
                    deltas: "# grow\n+ R(a | b)\n- R(c | d)\n".into(),
                },
                deadline_ms: Some(500),
            },
            Request {
                id: Some(9),
                method: Method::Stats,
                deadline_ms: None,
            },
            Request {
                id: Some(10),
                method: Method::Shutdown,
                deadline_ms: None,
            },
        ];
        for req in cases {
            let frame = encode_request(&req);
            assert_eq!(parse_request(&frame).unwrap(), req, "{frame}");
        }
    }

    #[test]
    fn response_round_trip() {
        let ok = ok_response(Some(4), obj([("certain", Json::Bool(true))]));
        let parsed = parse_response(&ok).unwrap();
        assert_eq!(parsed.id, Some(4));
        assert_eq!(
            parsed.outcome.unwrap().get("certain"),
            Some(&Json::Bool(true))
        );
        let err = err_response(None, &WireError::new("bad-query", "parse error at byte 3"));
        let parsed = parse_response(&err).unwrap();
        assert_eq!(parsed.id, None);
        let e = parsed.outcome.unwrap_err();
        assert_eq!(e.code, "bad-query");
        assert!(e.message.contains("byte 3"));
    }

    #[test]
    fn overloaded_round_trips_its_retry_hint() {
        let e = WireError::new("overloaded", "server at capacity").with_retry_after(75);
        let frame = err_response(Some(2), &e);
        let parsed = parse_response(&frame).unwrap().outcome.unwrap_err();
        assert_eq!(parsed.code, "overloaded");
        assert_eq!(parsed.retry_after_ms, Some(75));
        // Errors without a hint stay hint-free on the wire and back.
        let plain = err_response(None, &WireError::new("io", "x"));
        assert!(!plain.contains("retry_after_ms"));
        let parsed = parse_response(&plain).unwrap().outcome.unwrap_err();
        assert_eq!(parsed.retry_after_ms, None);
    }

    #[test]
    fn malformed_requests_get_stable_codes() {
        assert_eq!(parse_request("nope").unwrap_err().code, "bad-json");
        assert_eq!(parse_request("[1]").unwrap_err().code, "bad-request");
        assert_eq!(
            parse_request("{\"method\":\"zap\",\"params\":{}}")
                .unwrap_err()
                .code,
            "unknown-method"
        );
        assert_eq!(
            parse_request("{\"method\":\"certain\",\"params\":{\"db\":\"x\"}}")
                .unwrap_err()
                .code,
            "missing-param"
        );
        assert_eq!(
            parse_request("{\"id\":\"x\",\"method\":\"ping\"}")
                .unwrap_err()
                .code,
            "bad-request"
        );
        // bad-json errors carry the JSON byte offset.
        let e = parse_request("{\"id\":1,").unwrap_err();
        assert!(e.message.contains("byte offset"), "{}", e.message);
    }

    #[test]
    fn frame_reader_splits_lines_and_handles_crlf() {
        let mut r = BufReader::new("a\r\nbb\nccc".as_bytes());
        let mut fr = FrameReader::new();
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::Line(l) if l == "a"));
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::Line(l) if l == "bb"));
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::Line(l) if l == "ccc"));
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::Eof));
    }

    #[test]
    fn frame_reader_drains_oversized_lines_and_resyncs() {
        let long = "x".repeat(1000);
        let text = format!("{long}\nok\n");
        let mut r = BufReader::with_capacity(16, text.as_bytes());
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.next(&mut r, 100).unwrap(),
            Frame::TooLong { limit: 100 }
        ));
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::Line(l) if l == "ok"));
        // Oversized final line without newline also reports, then EOF.
        let mut r = BufReader::with_capacity(16, long.as_bytes());
        let mut fr = FrameReader::new();
        assert!(matches!(
            fr.next(&mut r, 100).unwrap(),
            Frame::TooLong { .. }
        ));
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::Eof));
    }

    #[test]
    fn frame_reader_reports_non_utf8_and_survives() {
        let bytes: &[u8] = b"\xff\xfe\xfd\nok\n";
        let mut r = BufReader::new(bytes);
        let mut fr = FrameReader::new();
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::NotUtf8));
        assert!(matches!(fr.next(&mut r, 100).unwrap(), Frame::Line(l) if l == "ok"));
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_sends_each_frame_in_one_write() {
        // The server's three kinds of frame and the client's request.
        let request = encode_request(&Request {
            id: Some(7),
            method: Method::Certain {
                db: "emp.facts".into(),
                query: "R(x | y) R(y | z)".into(),
            },
            deadline_ms: Some(50),
        });
        let frames = [
            ok_response(Some(1), obj([("pong", Json::Bool(true))])),
            err_response(None, &WireError::new("bad-utf8", "dropped")),
            err_response(
                Some(2),
                &WireError::new("overloaded", "busy").with_retry_after(25),
            ),
            request,
        ];
        for frame in frames {
            let mut w = CountingWriter::default();
            write_frame(&mut w, frame.clone()).unwrap();
            assert_eq!(w.writes, vec![format!("{frame}\n").into_bytes()]);
        }
    }
}
