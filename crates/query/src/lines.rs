//! The *queries-file* line discipline, shared by every consumer of a
//! multi-query text: `cqa batch`, the `cqa serve` batch request handler
//! and the fuzz targets. One query per line, `#` starts a comment, blank
//! (or comment-only) lines are skipped, and every yielded line carries
//! its 1-based line number and the byte offset of the line's start — the
//! positions the fact-file loader reports, so batch errors stay
//! actionable on inputs far too large to eyeball.
//!
//! This module walks and strips lines and bounds the quote of an
//! offending line ([`truncate_error_text`], also used for fact-file
//! errors); parsing the query text is the caller's job
//! ([`crate::parse_query`]), because the rest of error assembly (error
//! type, exit code or wire code) differs per front end while positions
//! and quotes must not.

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
}
