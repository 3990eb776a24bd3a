//! Parser-facing fuzz targets: fact files, queries, and the batch front
//! end. Each target treats a clean positioned error as [`Verdict::Reject`]
//! and asserts round-trip / accounting invariants on accepted input —
//! violated invariants panic, which the driver reports as a crash.

use cqa_cli::cmd_batch;
use cqa_cli::dbfmt::{
    parse_database, read_database, write_database, DbReadError, StreamingDbParser,
};
use cqa_model::Database;
use cqa_query::parse_query;
use minifuzz::Verdict;
use std::sync::OnceLock;

/// Inputs past this size stop teaching us anything about the grammar and
/// only slow the loop down.
const MAX_TEXT: usize = 4096;

/// Fact-file parser target.
///
/// Accepted input must satisfy:
/// * write→parse→write is a fixpoint (the `dbfmt_props` guarantee);
/// * the streaming parser agrees with whole-string parsing and accounts
///   for every input byte ([`StreamingDbParser::bytes`]);
/// * the [`read_database`] reader path agrees too, over one whole buffer
///   and over a 7-byte one, where lines cross fills;
/// * a CRLF re-encoding of an LF input parses to the same database.
///
/// Rejected input must carry a sane position (1-based line within the
/// input, offset no further than its length, bounded echoed text), and
/// the reader over a 7-byte buffer rejects it with the same error.
pub fn dbfmt(input: &[u8]) -> Verdict {
    let Ok(text) = std::str::from_utf8(input) else {
        return Verdict::Reject;
    };
    if text.len() > MAX_TEXT {
        return Verdict::Reject;
    }
    let db = match parse_database(text) {
        Err(e) => {
            let lines = text.split_inclusive('\n').count();
            // `line 0` is reserved for the whole-file "no facts" error on
            // empty input; every line-level error is 1-based.
            assert!(
                e.line >= 1 || text.is_empty(),
                "error line 0 on non-empty input"
            );
            assert!(
                e.line <= lines + 1,
                "error line {} out of range for {lines}-line input",
                e.line
            );
            assert!(
                e.offset <= text.len() as u64,
                "error offset {} past input length {}",
                e.offset,
                text.len()
            );
            assert!(!e.message.is_empty(), "empty error message");
            assert!(
                e.text.chars().count() <= 121,
                "echoed error text not truncated: {} chars",
                e.text.chars().count()
            );
            match read_database(small_fills(text)) {
                Err(DbReadError::Fmt(r)) => assert_eq!(r, e, "reader rejects elsewhere"),
                other => panic!("reader disagrees with parse_database's {e}: {other:?}"),
            }
            return Verdict::Reject;
        }
        Ok(db) => db,
    };
    let written = write_database(&db);
    let db2 = parse_database(&written)
        .unwrap_or_else(|e| panic!("rewrite of accepted input does not re-parse: {e}"));
    let written2 = write_database(&db2);
    assert_eq!(written, written2, "write→parse→write is not a fixpoint");
    assert_eq!(db2.len(), db.len(), "fact count changed across round trip");
    assert_eq!(
        db2.block_count(),
        db.block_count(),
        "block partition changed across round trip"
    );

    let mut streaming = StreamingDbParser::new();
    for raw in text.split_inclusive('\n') {
        streaming
            .feed_line(raw)
            .unwrap_or_else(|e| panic!("streaming rejects what parse_database accepted: {e}"));
    }
    assert_eq!(
        streaming.bytes(),
        text.len() as u64,
        "streaming byte accounting lost bytes"
    );
    let db3 = streaming.finish().expect("parse_database accepted");
    assert_eq!(
        write_database(&db3),
        written,
        "streaming parse differs from whole-string parse"
    );

    let db4 = read_database(std::io::Cursor::new(text.as_bytes()))
        .unwrap_or_else(|e| panic!("reader rejects what parse_database accepted: {e}"));
    assert_eq!(
        write_database(&db4),
        written,
        "reader parse differs from whole-string parse"
    );
    let db5 = read_database(small_fills(text))
        .unwrap_or_else(|e| panic!("7-byte reader rejects what parse_database accepted: {e}"));
    assert_eq!(
        write_database(&db5),
        written,
        "7-byte reader parse differs from whole-string parse"
    );

    if !text.contains('\r') {
        let crlf = text.replace('\n', "\r\n");
        let db6 =
            parse_database(&crlf).unwrap_or_else(|e| panic!("CRLF re-encoding rejected: {e}"));
        assert_eq!(
            write_database(&db6),
            written,
            "CRLF re-encoding parses differently"
        );
    }
    Verdict::Ok
}

/// `text` behind a 7-byte reader buffer, so most lines cross a fill.
fn small_fills(text: &str) -> std::io::BufReader<&[u8]> {
    std::io::BufReader::with_capacity(7, text.as_bytes())
}

/// Query parser target: accepted queries must round-trip through
/// [`cqa_query::Query::display`] to an equal query, and the display form
/// must itself be a fixpoint.
pub fn query(input: &[u8]) -> Verdict {
    let Ok(text) = std::str::from_utf8(input) else {
        return Verdict::Reject;
    };
    if text.len() > MAX_TEXT {
        return Verdict::Reject;
    }
    let q = match parse_query(text) {
        Err(e) => {
            assert!(!e.to_string().is_empty(), "empty query parse error");
            return Verdict::Reject;
        }
        Ok(q) => q,
    };
    let shown = q.display();
    let q2 = parse_query(&shown)
        .unwrap_or_else(|e| panic!("display {shown:?} of accepted query does not re-parse: {e}"));
    assert_eq!(q, q2, "display {shown:?} re-parses to a different query");
    assert_eq!(q2.display(), shown, "display is not a fixpoint");
    Verdict::Ok
}

/// The fixed database every [`batch`] input runs against — tiny, so even
/// coNP-complete query lines solve instantly.
fn batch_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        parse_database("R(alice | bob)\nR(alice | carol)\nR(bob | dave)\nR(carol | dave)\n")
            .expect("fixed batch database parses")
    })
}

/// Batch queries-file target: the input is the queries file. A malformed
/// or signature-mismatched line is a clean [`Verdict::Reject`]; an
/// accepted file must produce exactly one `true`/`false` verdict line per
/// query line.
pub fn batch(input: &[u8]) -> Verdict {
    let Ok(text) = std::str::from_utf8(input) else {
        return Verdict::Reject;
    };
    if text.len() > MAX_TEXT {
        return Verdict::Reject;
    }
    match cmd_batch(batch_db(), text, Some(1), None, false) {
        Err(e) => {
            assert!(!e.message.is_empty(), "empty batch error message");
            Verdict::Reject
        }
        Ok(out) => {
            assert!(
                !out.stdout.is_empty(),
                "batch accepted input but printed no verdicts"
            );
            for line in out.stdout.lines() {
                assert!(
                    line == "true" || line == "false",
                    "batch verdict line {line:?} is not a boolean"
                );
            }
            Verdict::Ok
        }
    }
}
