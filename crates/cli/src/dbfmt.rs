//! A line-oriented text format for databases.
//!
//! ```text
//! # comments start with '#'
//! R(alice bob | search lee)     # key positions before the bar
//! R(alice bob | cloud kim)      # same key: a block of two facts
//! R2(x1 | y)                    # R1/R2 for self-join-free databases
//! ```
//!
//! Every fact must agree on arity and key length; the signature is
//! inferred from the first fact. The full grammar — tokenisation,
//! `⟨…⟩` pair elements, signature inference and every error case — is
//! specified in `docs/FORMAT.md` at the workspace root.
//!
//! Two entry points parse the format:
//!
//! * [`parse_database`] — whole-string parsing, for text already in
//!   memory;
//! * [`read_database`] / [`StreamingDbParser`] — **streaming**,
//!   line-at-a-time parsing over any [`BufRead`], in place in the
//!   reader's buffer (only a line crossing a fill is copied), so a
//!   million-line fact file is never held in memory at once. Errors carry the 1-based line number, the **byte offset** of
//!   the offending line's start, and the line text itself
//!   ([`DbFmtError`]), which keeps failures actionable on files far too
//!   large to eyeball.

use cqa_model::{Database, FactLineBuf, Signature};
use cqa_query::truncate_error_text;
use std::fmt::Write as _;
use std::io::BufRead;

/// A parse failure with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbFmtError {
    /// 1-based line number.
    pub line: usize,
    /// Byte offset of the start of the offending line within the input.
    pub offset: u64,
    /// The offending line's text (terminator stripped, truncated to a
    /// bounded length); empty for whole-file errors like an empty input.
    pub text: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DbFmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {} (byte offset {}): {}",
            self.line, self.offset, self.message
        )?;
        if !self.text.is_empty() {
            write!(f, "\n  | {}", self.text)?;
        }
        Ok(())
    }
}

impl std::error::Error for DbFmtError {}

/// A failure of the streaming reader: either the underlying I/O or the
/// format itself.
#[derive(Debug)]
pub enum DbReadError {
    /// Reading from the source failed.
    Io(std::io::Error),
    /// The source was readable but malformed.
    Fmt(DbFmtError),
}

impl std::fmt::Display for DbReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbReadError::Io(e) => write!(f, "{e}"),
            DbReadError::Fmt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DbReadError {}

impl From<std::io::Error> for DbReadError {
    fn from(e: std::io::Error) -> DbReadError {
        DbReadError::Io(e)
    }
}

impl From<DbFmtError> for DbReadError {
    fn from(e: DbFmtError) -> DbReadError {
        DbReadError::Fmt(e)
    }
}

// One fact line — `R(a b | c d)` — is parsed by
// [`cqa_model::parse_fact_line`]: the grammar is shared with the delta
// scripts of `cqa update` and the server's `update` verb, so it lives in
// the model crate next to `Fact` itself.

/// Incremental, line-at-a-time fact-file parser.
///
/// Feed raw lines (terminators included or not — `\n` and `\r\n` are both
/// accepted and counted toward byte offsets) with
/// [`StreamingDbParser::feed_line`], then take the database with
/// [`StreamingDbParser::finish`]. [`parse_database`] and
/// [`read_database`] are thin wrappers over this type; drive it directly
/// to stream from sources that are neither strings nor readers (sockets,
/// decompressors, generators).
#[derive(Debug, Default)]
pub struct StreamingDbParser {
    db: Option<Database>,
    /// The line being parsed: one buffer for every line, whose fact is
    /// inserted into the database by reference.
    buf: FactLineBuf,
    sig_key_len: usize,
    /// Lines consumed so far.
    line: usize,
    /// Byte offset of the next line's start.
    offset: u64,
}

impl StreamingDbParser {
    /// A parser that has seen no input.
    pub fn new() -> StreamingDbParser {
        StreamingDbParser::default()
    }

    /// Lines consumed so far.
    pub fn lines(&self) -> usize {
        self.line
    }

    /// Bytes consumed so far.
    pub fn bytes(&self) -> u64 {
        self.offset
    }

    /// Facts parsed so far.
    pub fn facts(&self) -> usize {
        self.db.as_ref().map_or(0, Database::len)
    }

    /// Consume one line. `raw` may include its `\n` or `\r\n` terminator
    /// (byte offsets in errors assume it does, as with
    /// [`BufRead::read_line`]); a trailing `\r` is stripped either way,
    /// so CRLF files parse identically to LF files.
    pub fn feed_line(&mut self, raw: &str) -> Result<(), DbFmtError> {
        self.line += 1;
        let stripped = raw.strip_suffix('\n').unwrap_or(raw);
        let stripped = stripped.strip_suffix('\r').unwrap_or(stripped);
        let result = self.feed_stripped(stripped);
        self.offset += raw.len() as u64;
        result
    }

    fn feed_stripped(&mut self, stripped: &str) -> Result<(), DbFmtError> {
        let content = stripped.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            return Ok(());
        }
        let (line, offset) = (self.line, self.offset);
        let error = |message: String| DbFmtError {
            line,
            offset,
            text: truncate_error_text(stripped),
            message,
        };
        let (fact, key_len) =
            cqa_model::parse_fact_line_into(content, &mut self.buf).map_err(error)?;
        let database = match &mut self.db {
            Some(d) => {
                if key_len != self.sig_key_len {
                    let want = self.sig_key_len;
                    return Err(error(format!(
                        "key length {key_len} differs from the first fact's {want}"
                    )));
                }
                d
            }
            None => {
                let sig =
                    Signature::new(fact.arity(), key_len).map_err(|e| error(e.to_string()))?;
                self.sig_key_len = key_len;
                self.db.insert(Database::new(sig))
            }
        };
        database
            .insert_ref(fact)
            .map_err(|e| error(e.to_string()))?;
        Ok(())
    }

    /// Finish parsing. Errors on input holding no facts at all.
    pub fn finish(self) -> Result<Database, DbFmtError> {
        match self.db {
            Some(d) => Ok(d),
            None => Err(DbFmtError {
                line: self.line,
                offset: self.offset,
                text: String::new(),
                message: "empty database file (no facts)".into(),
            }),
        }
    }
}

/// Parse a whole in-memory database file.
pub fn parse_database(input: &str) -> Result<Database, DbFmtError> {
    let mut parser = StreamingDbParser::new();
    for raw in input.split_inclusive('\n') {
        parser.feed_line(raw)?;
    }
    parser.finish()
}

/// Stream a database from any [`BufRead`]: the input is never held in
/// memory at once, so this is the entry point for million-line fact files
/// (the `cqa` `certain`/`falsify` commands load through it).
///
/// Lines are parsed where they lie in the reader's own buffer; only a
/// line that crosses the end of a fill is copied, into one reused carry
/// buffer. Input that is not UTF-8 fails as [`std::io::ErrorKind::InvalidData`],
/// as [`BufRead::read_line`] would.
pub fn read_database<R: BufRead>(mut reader: R) -> Result<Database, DbReadError> {
    let mut parser = StreamingDbParser::new();
    let mut carry = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut rest = chunk;
        while let Some(n) = rest.iter().position(|&b| b == b'\n') {
            let (line, tail) = rest.split_at(n + 1);
            if carry.is_empty() {
                feed_bytes(&mut parser, line)?;
            } else {
                carry.extend_from_slice(line);
                feed_bytes(&mut parser, &carry)?;
                carry.clear();
            }
            rest = tail;
        }
        carry.extend_from_slice(rest);
        let used = chunk.len();
        reader.consume(used);
    }
    if !carry.is_empty() {
        feed_bytes(&mut parser, &carry)?;
    }
    Ok(parser.finish()?)
}

/// Feed one raw line of a reader's bytes to `parser`.
fn feed_bytes(parser: &mut StreamingDbParser, raw: &[u8]) -> Result<(), DbReadError> {
    let raw = std::str::from_utf8(raw).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    Ok(parser.feed_line(raw)?)
}

/// Serialise a database to the text format, one fact per line, grouped by
/// block.
pub fn write_database(db: &Database) -> String {
    let sig = db.signature();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} facts, {} blocks, signature {}",
        db.len(),
        db.block_count(),
        sig
    );
    for b in db.block_ids() {
        for &id in db.block(b) {
            let f = db.fact(id);
            let _ = writeln!(out, "{}", cqa_model::render_fact_line(f, sig.key_len()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::ERROR_TEXT_MAX;

    #[test]
    fn parses_blocks_and_comments() {
        let text = "\
# employee directory
R(alice | bob)
R(alice | carol)   # key violation
R(bob | dave)
";
        let db = parse_database(text).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.block_count(), 2);
        assert_eq!(db.signature().arity(), 2);
        assert_eq!(db.signature().key_len(), 1);
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        assert!(parse_database("R(a | b)\nR(a b | c)").is_err()); // key len
        assert!(parse_database("R(a | b)\nR(a | b c)").is_err()); // arity
        assert!(parse_database("S(a | b)").is_err()); // relation
        assert!(parse_database("").is_err()); // empty
        assert!(parse_database("R a b").is_err()); // no parens
    }

    #[test]
    fn pair_elements_survive_round_trip() {
        // Gadget databases contain ⟨…⟩ pair elements with internal commas.
        let db = parse_database("R(⟨cl,0⟩ a | ⟨⟨x,y⟩,z⟩ b)").unwrap();
        assert_eq!(db.signature().arity(), 4);
        let db2 = parse_database(&write_database(&db)).unwrap();
        assert_eq!(db2.len(), 1);
    }

    #[test]
    fn pair_elements_may_contain_bars() {
        // Fuzz-found (minimised reproducer in crates/fuzz/regressions/
        // dbfmt/pair-bar-key-split): the key/value split used to find the
        // first '|' without ⟨…⟩ depth awareness, so a bar inside a pair
        // element corrupted both the element and the key length.
        let db = parse_database("R(⟨a|b⟩ x | y)").unwrap();
        assert_eq!(db.signature().arity(), 3);
        assert_eq!(db.signature().key_len(), 2);
        let (_, f) = db.facts().next().unwrap();
        let shown: Vec<String> = f.tuple().iter().map(|e| e.to_string()).collect();
        assert_eq!(shown, ["⟨a|b⟩", "x", "y"]);
        // …and the fixpoint holds from the first write on.
        let t1 = write_database(&db);
        let t2 = write_database(&parse_database(&t1).unwrap());
        assert_eq!(t1, t2);
    }

    #[test]
    fn full_key_facts_keep_their_trailing_bar() {
        // Fuzz-found (minimised reproducer in crates/fuzz/regressions/
        // dbfmt/full-key-trailing-bar): with `l = k` the writer used to
        // omit the bar entirely, so `R(a b |)` wrote back as `R(a b)` and
        // re-parsed with an *empty* key.
        let db = parse_database("R(a b |)\nR(a c |)").unwrap();
        assert_eq!(db.signature().key_len(), 2);
        assert_eq!(db.block_count(), 2, "full-key facts are their own blocks");
        let t1 = write_database(&db);
        let db2 = parse_database(&t1).unwrap();
        assert_eq!(db2.signature().key_len(), 2, "key length lost in writing");
        assert_eq!(write_database(&db2), t1);
    }

    #[test]
    fn unbalanced_brackets_are_positioned_errors() {
        // Stray '⟩' (fuzz regression dbfmt/stray-close).
        let err = parse_database("R(a | b)\nR(a⟩ | c)\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.offset, 9);
        assert_eq!(err.text, "R(a⟩ | c)");
        assert!(err.message.contains("stray '⟩'"), "{err}");
        // Unclosed '⟨' (fuzz regression dbfmt/unclosed-open).
        let err = parse_database("R(⟨a | b)").unwrap_err();
        assert!(err.message.contains("unclosed '⟨'"), "{err}");
        // A stray '⟩' in the value part is caught too.
        let err = parse_database("R(a | b⟩)").unwrap_err();
        assert!(err.message.contains("stray '⟩'"), "{err}");
        // Proper nesting still parses.
        let db = parse_database("R(⟨⟨x,y⟩,z⟩ | w)").unwrap();
        assert_eq!(db.signature().arity(), 2);
    }

    #[test]
    fn second_top_level_bar_is_an_error() {
        let err = parse_database("R(a | b | c)").unwrap_err();
        assert!(err.message.contains("unexpected '|'"), "{err}");
        // Inside a pair element a second bar is payload, not an error.
        assert!(parse_database("R(⟨a|b⟩ | ⟨c|d⟩)").is_ok());
    }

    #[test]
    fn trailing_garbage_after_close_paren_is_an_error() {
        let err = parse_database("R(a | b) x").unwrap_err();
        assert!(err.message.contains("trailing input"), "{err}");
        // A trailing comment is still fine.
        assert!(parse_database("R(a | b)   # note").is_ok());
    }

    #[test]
    fn sjf_relations_accepted() {
        let db = parse_database("R1(k | v)\nR2(k | w)").unwrap();
        assert_eq!(db.block_count(), 2);
    }

    #[test]
    fn round_trip_preserves_content() {
        // Writer output parses back to the same fact set (named elements).
        let text = "R(a b | c d)\nR(a b | e f)\nR(x y | z z)";
        let db = parse_database(text).unwrap();
        let db2 = parse_database(&write_database(&db)).unwrap();
        assert_eq!(db.len(), db2.len());
        for (_, f) in db.facts() {
            assert!(db2.contains(f), "{f} missing after round trip");
        }
    }

    #[test]
    fn crlf_files_parse_like_lf_files() {
        let lf = "# header\nR(a | b)\nR(b | c)\n";
        let crlf = lf.replace('\n', "\r\n");
        let d1 = parse_database(lf).unwrap();
        let d2 = parse_database(&crlf).unwrap();
        assert_eq!(d1.len(), d2.len());
        for (_, f) in d1.facts() {
            assert!(d2.contains(f));
        }
        // A final line without terminator still parses.
        let d3 = parse_database("R(a | b)\r\nR(b | c)").unwrap();
        assert_eq!(d3.len(), 2);
    }

    #[test]
    fn blank_and_comment_only_files_are_empty_errors() {
        for text in [
            "",
            "\n\n\n",
            "# only\n# comments\n",
            "   \n\t\n",
            "\r\n\r\n",
        ] {
            let err = parse_database(text).unwrap_err();
            assert!(
                err.message.contains("empty database file"),
                "{text:?}: {err}"
            );
            assert!(err.text.is_empty());
        }
    }

    #[test]
    fn mid_file_arity_mismatch_reports_line_offset_and_text() {
        let text = "# header\nR(a | b)\nR(c | d)\nR(e | f g)\n";
        let err = parse_database(text).unwrap_err();
        assert_eq!(err.line, 4);
        // Offset of the 4th line's first byte: "# header\n" (9) + 2 × "R(a | b)\n" (9).
        assert_eq!(err.offset, 9 + 9 + 9);
        assert_eq!(err.text, "R(e | f g)");
        assert!(err.message.contains("arity"), "{err}");
        let shown = err.to_string();
        assert!(shown.contains("line 4"), "{shown}");
        assert!(shown.contains("byte offset 27"), "{shown}");
        assert!(shown.contains("R(e | f g)"), "{shown}");
    }

    #[test]
    fn mid_file_key_length_mismatch_reports_position() {
        let err = parse_database("R(a | b)\nR(a b | c)\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.offset, 9);
        assert_eq!(err.text, "R(a b | c)");
        assert!(err.message.contains("key length"), "{err}");
    }

    #[test]
    fn error_text_is_truncated_on_absurd_lines() {
        // An arity-2000 fact in an arity-2 file: the error keeps a bounded
        // prefix of the line, not all 4000 bytes.
        let long = format!("R(a | {})", "x ".repeat(2000));
        let err = parse_database(&format!("R(a | b)\n{long}\n")).unwrap_err();
        assert!(err.message.contains("arity"), "{err}");
        assert!(err.text.chars().count() <= ERROR_TEXT_MAX + 1, "{err}");
        assert!(err.text.ends_with('…'));
    }

    #[test]
    fn streaming_reader_matches_whole_string_parse() {
        let text = "# h\nR(a | b)\r\nR(a | c)\nR(b | d)";
        let streamed = read_database(std::io::Cursor::new(text)).unwrap();
        let parsed = parse_database(text).unwrap();
        assert_eq!(streamed.len(), parsed.len());
        assert_eq!(streamed.block_count(), parsed.block_count());
        for (_, f) in parsed.facts() {
            assert!(streamed.contains(f));
        }
    }

    #[test]
    fn streaming_reader_reports_positions_too() {
        let text = "R(a | b)\nnonsense\n";
        match read_database(std::io::Cursor::new(text)) {
            Err(DbReadError::Fmt(e)) => {
                assert_eq!(e.line, 2);
                assert_eq!(e.offset, 9);
                assert_eq!(e.text, "nonsense");
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// `read_database` through a reader buffer of `k` bytes, for every
    /// small `k`, against `parse_database`: the same facts, or the same
    /// error with its line, offset, text and message.
    fn read_in_small_fills(text: &str) {
        let want = parse_database(text);
        for k in 1..=8 {
            let got = read_database(std::io::BufReader::with_capacity(k, text.as_bytes()));
            match (&want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        write_database(&got),
                        write_database(want),
                        "{text:?}, k = {k}"
                    )
                }
                (Err(want), Err(DbReadError::Fmt(got))) => assert_eq!(&got, want, "k = {k}"),
                (want, got) => panic!("{text:?}, k = {k}: want {want:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn reader_fills_split_lines_anywhere() {
        for text in [
            "# header\nR(alice | bob)\nR(alice | carol)\nR(bob | dave)\n",
            "R(a | b)\r\nR(b | c)\r\n# note\r\nR(c | d)\r\n",
            "R(⟨a,b⟩ x | ⟨c|d⟩)\nR(⟨a,b⟩ y | ⟨⟨e,f⟩,g⟩)\n",
            "R(a | b)\nR(b | c)",
            "R(a | b)\r\nR(b | c)\r",
            "\n\nR(long_name_longer_than_any_fill | v)",
        ] {
            read_in_small_fills(text);
        }
        for bad in [
            "R(a | b)\nR(a b | c)\n",
            "R(a | b)\r\nR(⟨a | b)\r\n",
            "R(a | b)\nR(a | ⟩b)",
            "R(a | b)\nnonsense",
            "# nothing\r\n",
        ] {
            read_in_small_fills(bad);
        }
    }

    #[test]
    fn reader_rejects_invalid_utf8_as_io() {
        let bytes: &[u8] = b"R(a | b)\nR(a | \xff)\n";
        for k in [1, 3, 64] {
            match read_database(std::io::BufReader::with_capacity(k, bytes)) {
                Err(DbReadError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
                other => panic!("k = {k}: expected InvalidData, got {other:?}"),
            }
        }
    }

    #[test]
    fn parser_exposes_progress_counters() {
        let mut p = StreamingDbParser::new();
        p.feed_line("# header\n").unwrap();
        p.feed_line("R(a | b)\n").unwrap();
        p.feed_line("R(a | c)\n").unwrap();
        assert_eq!(p.lines(), 3);
        assert_eq!(p.bytes(), 9 + 9 + 9);
        assert_eq!(p.facts(), 2);
        let db = p.finish().unwrap();
        assert_eq!(db.len(), 2);
    }
}
