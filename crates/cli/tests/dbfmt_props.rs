//! Property tests for the fact-file format (`docs/FORMAT.md`):
//! parse→format→parse equality, CRLF invariance, and streaming/in-memory
//! agreement on arbitrary generated databases.

use cqa_cli::cmd_batch;
use cqa_cli::dbfmt::{parse_database, read_database, write_database};
use cqa_model::{parse_fact_line, render_fact_line, Database, Elem, Fact, RelId, Signature};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Elements whose display forms survive the tokenizer: names, integers
/// (reparsed as equal-looking names) and ⟨…⟩ pairs with inner commas.
fn elem_strategy() -> impl Strategy<Value = Elem> {
    prop_oneof![
        "[a-e][a-z0-9]{0,3}".prop_map(Elem::named),
        (0i64..50).prop_map(Elem::int),
        ((0i64..5), (0i64..5)).prop_map(|(a, b)| Elem::pair(Elem::int(a), Elem::int(b))),
    ]
}

/// Hostile-but-well-formed element payloads: reserved characters (`|`,
/// `(`, `)`, commas) inside balanced `⟨…⟩`, parens in bare names, and
/// non-ASCII — everything `docs/FORMAT.md` promises survives a round
/// trip. (Depth-0 `|`/`,`/whitespace and unbalanced brackets are *not*
/// element payload; those are rejected, and the fuzz targets cover them.)
fn hostile_payload() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("⟨a|b⟩".to_string()),
        Just("⟨x,y⟩".to_string()),
        Just("⟨⟨p,q⟩,r⟩".to_string()),
        Just("(paren".to_string()),
        Just("paren)".to_string()),
        Just("a(b)c".to_string()),
        Just("\u{e9}\u{27e8}\u{fc},\u{df}\u{27e9}".to_string()), // é⟨ü,ß⟩
        Just("⟨a b,c|d⟩".to_string()),
        "[a-z]{1,4}".prop_map(|s| format!("⟨{s}|{s}⟩")),
    ]
}

/// Elements mixing the tame [`elem_strategy`] pool with hostile payloads,
/// both as opaque names and as the payload of a pair element.
fn adversarial_elem_strategy() -> impl Strategy<Value = Elem> {
    prop_oneof![
        elem_strategy(),
        hostile_payload().prop_map(Elem::named),
        // No commas inside the components: the pair's one top-level comma
        // must stay unambiguous, or two distinct pairs could display
        // identically and legitimately merge on reparse.
        ("[a-c|() ]{1,5}", "[x-z|() ]{1,5}")
            .prop_map(|(a, b)| Elem::pair(Elem::named(a), Elem::named(b))),
    ]
}

/// A database over one random signature (any key length up to and
/// including the arity — full-key facts carry a trailing bar) with facts
/// spread over all three relation names.
fn db_with_elems(elems: BoxedStrategy<Elem>) -> impl Strategy<Value = Database> {
    (1usize..4)
        .prop_flat_map(|arity| {
            let key_len = 0..arity + 1;
            (Just(arity), key_len)
        })
        .prop_flat_map(move |(arity, key_len)| {
            let rel = prop_oneof![Just(RelId::R), Just(RelId::R1), Just(RelId::R2)];
            let fact = (rel, proptest::collection::vec(elems.clone(), arity));
            proptest::collection::vec(fact, 1..10).prop_map(move |rows| {
                let mut db = Database::new(Signature::new(arity, key_len).unwrap());
                for (rel, tuple) in rows {
                    db.insert(Fact::new(rel, tuple)).unwrap();
                }
                db
            })
        })
}

fn db_strategy() -> impl Strategy<Value = Database> {
    db_with_elems(elem_strategy().boxed())
}

/// Element payload inside `⟨…⟩`: commas, bars, ASCII and Unicode
/// whitespace (em space, ideographic space, no-break space), none of
/// which separates elements there.
const BRACKETED: &str = "[a-c,| \t\u{2003}\u{3000}\u{a0}]{0,5}";

/// One element token as it may appear in a line: a bare name (parens
/// included), a `⟨…⟩` group, a nested group, or a name glued to a group.
fn token_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-dé0-9_()]{1,4}",
        BRACKETED.prop_map(|s| format!("⟨{s}⟩")),
        (BRACKETED, BRACKETED, BRACKETED).prop_map(|(a, b, c)| format!("⟨{a}⟨{b}⟩{c}⟩")),
        ("[a-c]{1,2}", BRACKETED).prop_map(|(a, b)| format!("{a}⟨{b}⟩{a}")),
    ]
}

/// A run of separators between tokens: commas and ASCII or Unicode
/// whitespace, at least one character.
const SEPARATOR: &str = "[, \t\u{2003}\u{3000}]{1,3}";

/// A fact line with 0–3 key and 0–3 value tokens (at least one in all)
/// and random separators: `(line, key tokens, value tokens)`.
fn line_strategy() -> impl Strategy<Value = (String, Vec<String>, Vec<String>)> {
    (
        proptest::collection::vec((token_strategy(), SEPARATOR), 0..4),
        proptest::collection::vec((token_strategy(), SEPARATOR), 0..4),
        SEPARATOR,
    )
        .prop_filter("a fact needs an element", |(key, value, _)| {
            !key.is_empty() || !value.is_empty()
        })
        .prop_map(|(key, value, lead)| {
            let mut line = format!("R({lead}");
            for (token, sep) in &key {
                line.push_str(token);
                line.push_str(sep);
            }
            line.push('|');
            for (token, sep) in &value {
                line.push_str(sep);
                line.push_str(token);
            }
            line.push(')');
            let tokens = |side: Vec<(String, String)>| side.into_iter().map(|(t, _)| t).collect();
            (line, tokens(key), tokens(value))
        })
}

proptest! {
    // Bounded so the full workspace test run stays fast and, with the
    // vendored proptest's name-derived seeding, fully deterministic.
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn format_parse_format_is_a_fixpoint(db in db_strategy()) {
        // One write normalises (block grouping, single spaces); from then
        // on parse→format is the identity on the text.
        let text1 = write_database(&db);
        let reparsed = parse_database(&text1).unwrap();
        let text2 = write_database(&reparsed);
        prop_assert_eq!(&text1, &text2, "parse→format not idempotent");
        prop_assert_eq!(reparsed.len(), db.len());
        prop_assert_eq!(reparsed.block_count(), db.block_count());
        prop_assert_eq!(reparsed.signature(), db.signature());
    }

    #[test]
    fn display_level_round_trip(db in db_strategy()) {
        // Every fact's display form appears in the reparsed database too
        // (element identity may change — e.g. Int(3) reparses as the name
        // "3" — but the rendered database is the same).
        let reparsed = parse_database(&write_database(&db)).unwrap();
        let shown: std::collections::HashSet<String> =
            reparsed.facts().map(|(_, f)| f.to_string()).collect();
        for (_, f) in db.facts() {
            prop_assert!(shown.contains(&f.to_string()), "{f} lost in round trip");
        }
    }

    #[test]
    fn crlf_and_lf_files_agree(db in db_strategy()) {
        let lf = write_database(&db);
        let crlf = lf.replace('\n', "\r\n");
        let a = parse_database(&lf).unwrap();
        let b = parse_database(&crlf).unwrap();
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.block_count(), b.block_count());
        prop_assert_eq!(write_database(&a), write_database(&b));
    }

    #[test]
    fn streaming_agrees_with_in_memory(db in db_strategy()) {
        let text = write_database(&db);
        let streamed = read_database(std::io::Cursor::new(text.as_bytes())).unwrap();
        let parsed = parse_database(&text).unwrap();
        prop_assert_eq!(write_database(&streamed), write_database(&parsed));
    }

    #[test]
    fn adversarial_payloads_keep_the_fixpoint(
        db in db_with_elems(adversarial_elem_strategy().boxed()),
    ) {
        // Reserved characters inside balanced ⟨…⟩, parens in names,
        // non-ASCII: all element payload, none of it may corrupt the
        // write→parse→write fixpoint or the tuple shape.
        let t1 = write_database(&db);
        let parsed = match parse_database(&t1) {
            Ok(parsed) => parsed,
            Err(e) => return Err(TestCaseError::Fail(format!(
                "well-formed adversarial database rejected: {e}"
            ))),
        };
        prop_assert_eq!(&t1, &write_database(&parsed), "fixpoint broken");
        prop_assert_eq!(parsed.len(), db.len());
        prop_assert_eq!(parsed.block_count(), db.block_count());
        prop_assert_eq!(parsed.signature(), db.signature());
    }

    #[test]
    fn bracketed_separators_stay_element_payload((line, key, value) in line_strategy()) {
        // Each parsed element is the token the line was built from, even
        // when a ⟨…⟩ group holds commas, bars or Unicode whitespace.
        let (fact, key_len) = match parse_fact_line(&line) {
            Ok(parsed) => parsed,
            Err(e) => return Err(TestCaseError::Fail(format!("{line:?} rejected: {e}"))),
        };
        prop_assert_eq!(key_len, key.len(), "key length of {:?}", line);
        let want: Vec<Elem> = key.iter().chain(&value).map(Elem::named).collect();
        prop_assert_eq!(fact.tuple(), &want[..], "elements of {:?}", line);
        // write→parse→write is a fixpoint, for the line and for a file.
        let rendered = render_fact_line(&fact, key_len);
        let (again, again_key_len) = parse_fact_line(&rendered).unwrap();
        prop_assert_eq!(&again, &fact);
        prop_assert_eq!(render_fact_line(&again, again_key_len), rendered);
        let text = write_database(&parse_database(&line).unwrap());
        prop_assert_eq!(write_database(&parse_database(&text).unwrap()), text);
    }

    #[test]
    fn batch_errors_stay_positioned_under_adversarial_lines(
        n_valid in 0usize..4,
        junk in "[(|), $x]{0,20}",
        payload in hostile_payload(),
        pad_long in 0usize..2,
    ) {
        // Mirror of the fact-file error contract on the batch queries
        // file: the first malformed line is reported with its 1-based
        // line number, the byte offset of its start, and a bounded echo
        // of its text — no matter what reserved characters it holds.
        let db = parse_database("R(a | b)\nR(b | c)\n").unwrap();
        let valid = "R(x | y) R(y | z)\n";
        let mut text = valid.repeat(n_valid);
        let expected_line = n_valid + 1;
        let expected_offset = text.len();
        let mut bad = format!("${junk}{payload}");
        if pad_long == 1 {
            bad.push_str(&"x".repeat(140));
        }
        text.push_str(&bad);
        text.push('\n');
        text.push_str(valid);
        let err = match cmd_batch(&db, &text, Some(1), None, false) {
            Err(err) => err,
            Ok(_) => return Err(TestCaseError::Fail(format!(
                "malformed line {bad:?} was accepted"
            ))),
        };
        let head = format!("queries line {expected_line} (byte offset {expected_offset}): ");
        prop_assert!(
            err.message.starts_with(&head),
            "error {:?} does not start with {:?}", err.message, head
        );
        let echo = err.message.lines().last().unwrap_or("");
        prop_assert!(
            echo.starts_with("  | "),
            "error {:?} does not echo the offending line", err.message
        );
        prop_assert!(
            echo.chars().count() <= 4 + 121,
            "echoed line not truncated: {} chars", echo.chars().count()
        );
        if pad_long == 1 {
            prop_assert!(echo.ends_with('…'), "long line echo lacks the cut mark");
        }
    }
}
