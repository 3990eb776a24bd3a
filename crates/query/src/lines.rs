//! The front-end input discipline, shared by every consumer of query
//! text: `cqa certain`/`falsify`/`batch`/`update`, the `cqa serve`
//! request handlers and the fuzz targets.
//!
//! * [`parse_query_for`] parses one query and checks it against the
//!   database's signature — `certain(q)` is only defined when the query
//!   and the database share one schema (Section 2) — keeping "does not
//!   parse" ([`QueryError::Parse`]/[`QueryError::Unsupported`]) apart
//!   from "wrong signature" ([`QueryError::SignatureMismatch`]), so the
//!   server can answer each with its own wire code.
//! * [`parse_queries_for`] does the same for a *queries text*: one query
//!   per line, `#` starts a comment, blank (or comment-only) lines are
//!   skipped, and a bad line is reported with its 1-based line number
//!   and the byte offset of the line's start — the positions the
//!   fact-file loader reports, so errors stay actionable on inputs far
//!   too large to eyeball. Every line is parsed before any query is
//!   solved.
//! * [`signature_mismatch`] is the one wording of a schema mismatch
//!   (queries here, delta scripts in `cqa-server`), and
//!   [`truncate_error_text`] bounds the quote of an offending line (also
//!   used for fact-file and delta-script errors).
//!
//! Front ends only wrap these errors in their own type (exit code or
//! wire code); the positions, quotes and wording are decided here.

use crate::{parse_query, Query, QueryError};
use cqa_model::Signature;
use std::fmt::Display;

/// Longest prefix of an offending line that an error message quotes
/// (fact and query files can legally hold very long lines; errors should
/// stay bounded).
pub const ERROR_TEXT_MAX: usize = 120;

/// An offending line bounded for an error message: the first
/// [`ERROR_TEXT_MAX`] characters, with `…` marking a cut.
pub fn truncate_error_text(line: &str) -> String {
    let mut text: String = line.chars().take(ERROR_TEXT_MAX).collect();
    if text.len() < line.len() {
        text.push('…');
    }
    text
}

/// One non-empty query line of a queries text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryLine<'a> {
    /// 1-based line number within the text.
    pub line: usize,
    /// Byte offset of the start of this line within the text.
    pub offset: usize,
    /// The full line as written (terminators stripped), for error quotes.
    pub raw: &'a str,
    /// The query text: comment stripped, trimmed, guaranteed non-empty.
    pub text: &'a str,
}

/// Iterate the query-bearing lines of `text` in order, skipping blank
/// and comment-only lines. CRLF terminators are handled; offsets count
/// bytes of the original text (terminators included), so they agree with
/// what a streaming reader of the same bytes would report.
pub fn query_lines(text: &str) -> impl Iterator<Item = QueryLine<'_>> {
    let mut offset = 0usize;
    text.split_inclusive('\n')
        .enumerate()
        .filter_map(move |(idx, chunk)| {
            let line_start = offset;
            offset += chunk.len();
            let raw = chunk.strip_suffix('\n').unwrap_or(chunk);
            let raw = raw.strip_suffix('\r').unwrap_or(raw);
            let body = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            };
            let query_text = body.trim();
            if query_text.is_empty() {
                return None;
            }
            Some(QueryLine {
                line: idx + 1,
                offset: line_start,
                raw,
                text: query_text,
            })
        })
}

/// The one wording of a schema mismatch against the database signature
/// `db`; `what` names the side that differs (`query signature [2, 1]`,
/// `delta key length 2`).
pub fn signature_mismatch(what: impl Display, db: &Signature) -> String {
    format!("{what} does not match database signature {db}")
}

/// Parse `text` as a query over the database signature `db`.
pub fn parse_query_for(text: &str, db: &Signature) -> Result<Query, QueryError> {
    let q = parse_query(text)?;
    if q.signature() != db {
        return Err(QueryError::SignatureMismatch {
            query: *q.signature(),
            db: *db,
        });
    }
    Ok(q)
}

/// Parse every query line of a queries text ([`query_lines`]) through
/// [`parse_query_for`], in order. The first bad line fails the whole
/// text with `queries line L (byte offset N): <error>` and the quoted
/// line; a text without a single query is an error too, not an empty
/// answer.
pub fn parse_queries_for(text: &str, db: &Signature) -> Result<Vec<Query>, String> {
    let mut queries = Vec::new();
    for ql in query_lines(text) {
        let q = parse_query_for(ql.text, db).map_err(|e| {
            format!(
                "queries line {} (byte offset {}): {e}\n  | {}",
                ql.line,
                ql.offset,
                truncate_error_text(ql.raw)
            )
        })?;
        queries.push(q);
    }
    if queries.is_empty() {
        return Err("queries file holds no queries (empty, blank or comment-only)".to_string());
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_positions_and_strips_comments() {
        let text = "# header\nR(x | y) R(y | z)\n\nR(x|y) R(z|y)  # tail\r\n";
        let lines: Vec<_> = query_lines(text).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].line, 2);
        assert_eq!(lines[0].offset, 9);
        assert_eq!(lines[0].text, "R(x | y) R(y | z)");
        assert_eq!(lines[1].line, 4);
        assert_eq!(lines[1].offset, 28);
        assert_eq!(lines[1].text, "R(x|y) R(z|y)");
        assert_eq!(lines[1].raw, "R(x|y) R(z|y)  # tail");
    }

    #[test]
    fn empty_and_comment_only_texts_yield_nothing() {
        assert_eq!(query_lines("").count(), 0);
        assert_eq!(query_lines("# a\n\n  \n# b").count(), 0);
    }

    #[test]
    fn no_trailing_newline_still_yields_the_last_line() {
        let lines: Vec<_> = query_lines("R(x | y) R(y | z)").collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].line, 1);
        assert_eq!(lines[0].offset, 0);
    }

    fn sig(arity: usize, key_len: usize) -> Signature {
        Signature::new(arity, key_len).unwrap()
    }

    #[test]
    fn parse_query_for_keeps_parse_errors_apart_from_signature_errors() {
        let q = parse_query_for("R(x | y) R(y | z)", &sig(2, 1)).unwrap();
        assert_eq!(q.signature(), &sig(2, 1));
        let err = parse_query_for("R(x | y) R(", &sig(2, 1)).unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }), "{err}");
        let err = parse_query_for("R(x | y) R(y | z)", &sig(3, 2)).unwrap_err();
        assert!(matches!(err, QueryError::SignatureMismatch { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "query signature [2, 1] does not match database signature [3, 2]"
        );
    }

    #[test]
    fn parse_queries_for_positions_every_error() {
        let db = sig(2, 1);
        let qs = parse_queries_for("# h\nR(x | y) R(y | z)\n\nR(x|y) R(z|y)\n", &db).unwrap();
        assert_eq!(qs.len(), 2);
        // Line 3 is malformed; byte offset = len("# header\n") + len("R(x | y) R(y | z)\n").
        let err =
            parse_queries_for("# header\nR(x | y) R(y | z)\nnonsense query\n", &db).unwrap_err();
        assert!(
            err.starts_with("queries line 3 (byte offset 27): "),
            "{err}"
        );
        assert!(err.ends_with("\n  | nonsense query"), "{err}");
        let err = parse_queries_for("R(x | y) R(y | z)\nR(x y | z) R(z y | w)\n", &db).unwrap_err();
        assert!(err.starts_with("queries line 2 (byte offset 18): query signature [3, 2] does not match database signature [2, 1]"), "{err}");
        let err = parse_queries_for("# only comments\n\n", &db).unwrap_err();
        assert_eq!(
            err,
            "queries file holds no queries (empty, blank or comment-only)"
        );
    }
}
