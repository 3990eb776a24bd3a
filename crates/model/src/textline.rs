//! The one-fact text line: `R(a b | c d)`.
//!
//! This is the atom both the fact-file format (`crates/cli`'s `dbfmt`)
//! and the delta-script grammar (`cqa update`, the server's `update`
//! verb, `cqa_workloads::deltas`) are built from, so it lives here, next
//! to [`Fact`] itself — one grammar, one parser, one renderer, and the
//! `render ∘ parse` fixpoint is pinned once.
//!
//! A line names the relation (`R`, `R1` or `R2`), then the tuple with a
//! single `|` bar after the key positions; elements are whitespace- or
//! comma-separated names, with `⟨…⟩` pair elements allowed to contain
//! separators and bars. The bar makes every line *self-describing*: its
//! position is the key length, independent of any database signature
//! (`docs/FORMAT.md` specifies the corner cases).

use crate::{Elem, Fact, FactRef, RelId};
use std::fmt::Write as _;

/// Parse one fact line: `R(a b | c d)`. Returns the fact and the key
/// length the bar position declares (`R(a b | c)` → 2; a bar-free line
/// declares an empty key). Errors are bare messages; callers attach
/// position information.
pub fn parse_fact_line(text: &str) -> Result<(Fact, usize), String> {
    let mut buf = FactLineBuf::default();
    let (fact, key_len) = parse_fact_line_into(text, &mut buf)?;
    Ok((fact.to_fact(), key_len))
}

/// The reusable buffers of [`parse_fact_line_into`]: the elements of the
/// last line it parsed, and the bounds of their names in that line.
#[derive(Clone, Debug, Default)]
pub struct FactLineBuf {
    elems: Vec<Elem>,
    bounds: Vec<(usize, usize)>,
}

/// [`parse_fact_line`] into a caller's buffer: the fact is returned
/// borrowed from it, so a loader that reuses one buffer allocates nothing
/// per line beyond new names.
///
/// One pass over the text between the parentheses checks it, counts the
/// elements before the bar and records where each element lies. Only a
/// line that passed is interned, one borrowed `&str` per element, so a
/// rejected line adds no name and a known name allocates nothing.
pub fn parse_fact_line_into<'b>(
    text: &str,
    buf: &'b mut FactLineBuf,
) -> Result<(FactRef<'b>, usize), String> {
    let text = text.trim();
    let open = match text.find('(') {
        Some(i) => i,
        None => return Err("expected '(' in fact".into()),
    };
    let close = match text.rfind(')') {
        Some(i) if i > open => i,
        _ => return Err("expected closing ')'".into()),
    };
    let rel = match text[..open].trim() {
        "R" => RelId::R,
        "R1" => RelId::R1,
        "R2" => RelId::R2,
        other => return Err(format!("unknown relation {other:?} (use R, R1 or R2)")),
    };
    let trailing = text[close + 1..].trim();
    if !trailing.is_empty() {
        return Err(format!("trailing input {trailing:?} after ')'"));
    }
    let inner = &text[open + 1..close];
    let key_len = split_elements(inner, &mut buf.bounds)?;
    if buf.bounds.is_empty() {
        return Err("fact with no elements".into());
    }
    buf.elems.clear();
    let names = buf.bounds.iter().map(|&(start, end)| &inner[start..end]);
    buf.elems.extend(names.map(Elem::named));
    Ok((FactRef::new(rel, &buf.elems), key_len))
}

/// A separator between elements, outside every `⟨…⟩`: whitespace, a
/// comma, or the key/value bar.
fn is_separator(c: char) -> bool {
    c.is_whitespace() || c == ',' || c == '|'
}

/// Check a tuple's text and find its elements: their byte bounds replace
/// `bounds`, and the number of elements before the bar is returned. An
/// element is a maximal run of characters that are not separators at
/// `⟨…⟩` depth 0, so a pair element may hold commas, bars and whitespace.
/// Unbalanced brackets and a second top-level `|` are errors: silently
/// merging them into an element corrupts the tuple and breaks the
/// write→parse→write fixpoint.
fn split_elements(inner: &str, bounds: &mut Vec<(usize, usize)>) -> Result<usize, String> {
    bounds.clear();
    let (mut depth, mut bar, mut start) = (0usize, None, None);
    for (i, c) in inner.char_indices() {
        let separator = depth == 0 && is_separator(c);
        match (separator, start) {
            (true, Some(s)) => {
                bounds.push((s, i));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
        match c {
            '⟨' => depth += 1,
            '⟩' if depth == 0 => return Err("stray '⟩' with no matching '⟨'".into()),
            '⟩' => depth -= 1,
            '|' if separator && bar.is_some() => {
                return Err(
                    "unexpected '|' (one key/value separator per fact; a literal '|' \
                     must sit inside a ⟨…⟩ element)"
                        .into(),
                )
            }
            '|' if separator => bar = Some(bounds.len()),
            _ => {}
        }
    }
    if depth != 0 {
        return Err(format!("unclosed '⟨' ({depth} open at end of fact)"));
    }
    if let Some(s) = start {
        bounds.push((s, inner.len()));
    }
    Ok(bar.unwrap_or(0))
}

/// Render one fact as a parseable line: `R(a b | c d)`, with the bar
/// after `key_len` positions. The inverse of [`parse_fact_line`] —
/// unlike [`Fact`]'s `Display`, which omits the bar and is therefore
/// *not* re-parseable with the right key.
///
/// A full-key fact renders with a trailing bar (`R(a b |)`): omitting it
/// would re-parse the fact with an empty key.
///
/// # Panics
/// Panics if `key_len` exceeds the fact's arity.
pub fn render_fact_line<'f>(f: impl Into<FactRef<'f>>, key_len: usize) -> String {
    let f = f.into();
    assert!(key_len <= f.arity(), "key length exceeds fact arity");
    let mut out = String::new();
    let _ = write!(out, "{}(", f.rel());
    for (i, e) in f.tuple().iter().enumerate() {
        if i == key_len {
            let _ = write!(out, "| ");
        }
        let _ = write!(out, "{e}");
        if i + 1 != f.arity() {
            let _ = write!(out, " ");
        }
    }
    if key_len == f.arity() {
        let _ = write!(out, " |");
    }
    let _ = write!(out, ")");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trip() {
        for line in [
            "R(a b | c d)",
            "R1(k | v)",
            "R2(x |)",
            "R(⟨a,b⟩ | ⟨c,d⟩)",
            "R(| a b)",
        ] {
            let (fact, key_len) = parse_fact_line(line).unwrap();
            let rendered = render_fact_line(&fact, key_len);
            let (fact2, key_len2) = parse_fact_line(&rendered).unwrap();
            assert_eq!(fact, fact2, "{line}");
            assert_eq!(key_len, key_len2, "{line}");
        }
    }

    #[test]
    fn parsing_into_a_buffer_matches_parse_fact_line() {
        let mut buf = FactLineBuf::default();
        parse_fact_line_into("R(stale)", &mut buf).unwrap();
        for line in ["R(a b | c d)", "R1(k | ⟨v,w⟩)", "R2(x |)", "R(| a)"] {
            let (want, want_key_len) = parse_fact_line(line).unwrap();
            let (fact, key_len) = parse_fact_line_into(line, &mut buf).unwrap();
            assert_eq!((fact, key_len), (want.as_fact_ref(), want_key_len));
        }
        for bad in ["R(a | b | c)", "R()", "Q(a)"] {
            assert_eq!(
                parse_fact_line_into(bad, &mut buf).unwrap_err(),
                parse_fact_line(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn full_key_fact_keeps_its_trailing_bar() {
        let (fact, key_len) = parse_fact_line("R(a b |)").unwrap();
        assert_eq!(key_len, 2);
        assert_eq!(render_fact_line(&fact, key_len), "R(a b |)");
    }

    #[test]
    fn bad_lines_are_rejected() {
        for bad in ["R a b", "R(a b", "Q(a | b)", "R()", "R(a | b | c)", "R(⟨a)"] {
            assert!(parse_fact_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn pair_elements_may_contain_bars_and_commas() {
        let (fact, key_len) = parse_fact_line("R(⟨a|b⟩ x | y)").unwrap();
        assert_eq!(key_len, 2);
        assert_eq!(fact.arity(), 3);
    }

    #[test]
    fn elements_are_the_separated_tokens() {
        let (fact, key_len) =
            parse_fact_line("R( a,,⟨b, c|d⟩\u{2003}x⟨y z⟩w |\tv\u{3000}, )").unwrap();
        assert_eq!(key_len, 3);
        let want: Vec<Elem> = ["a", "⟨b, c|d⟩", "x⟨y z⟩w", "v"]
            .into_iter()
            .map(Elem::named)
            .collect();
        assert_eq!(fact.tuple(), &want[..]);
    }

    #[test]
    fn errors_name_the_first_fault() {
        for (line, message) in [
            ("R(a ⟩ | ⟨b)", "stray '⟩'"),
            ("R(⟨a | b)", "unclosed '⟨' (1 open"),
            ("R(a | b | ⟨c)", "unexpected '|'"),
            ("R(a | b ⟨c)", "unclosed '⟨' (1 open"),
            ("R( | , )", "fact with no elements"),
        ] {
            let err = parse_fact_line(line).unwrap_err();
            assert!(err.starts_with(message), "{line}: {err}");
        }
    }
}
