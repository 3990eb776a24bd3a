//! Delta scripts: the text grammar of the `update` verb and `cqa update`.
//!
//! One operation per line:
//!
//! ```text
//! # comments and blank lines are skipped
//! + R(a | b)      # insert (the '+' is optional: bare lines insert)
//! - R(c | d)      # retract
//! ```
//!
//! Fact lines use the same self-describing grammar as fact files —
//! [`cqa_model::parse_fact_line`], bar position = key length — so a
//! delta script is just a fact file with signs. The whole script is one
//! atomic unit: servers apply all of it or none of it
//! ([`SessionManager::apply_update`](crate::SessionManager::apply_update)).
//!
//! [`parse_update_script`] and [`DeltaScript::check_for`] are the checks
//! `cqa update` and the server's `update` method share: a script must
//! hold an operation, and its key length must be the database's.

use cqa_model::{parse_fact_line, Fact, Signature};
use cqa_query::{query_lines, signature_mismatch, truncate_error_text};

/// A parsed delta script: what to insert and what to retract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaScript {
    /// Facts to insert, in script order.
    pub inserts: Vec<Fact>,
    /// Facts to retract, in script order.
    pub retracts: Vec<Fact>,
    /// The key length every fact line declared (bar position), `None`
    /// for an empty script. [`DeltaScript::check_for`] validates it
    /// against the target database's signature; [`parse_delta_script`]
    /// already rejects scripts whose lines disagree with each other.
    pub key_len: Option<usize>,
}

impl DeltaScript {
    /// `true` iff the script holds no operations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }

    /// Total operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.retracts.len()
    }

    /// Check the script against the signature of the database it
    /// updates. `Database::apply_delta` alone only checks arity, and
    /// silently reinterpreting `R(a | b c)` against a 2-key signature
    /// would corrupt blocks.
    pub fn check_for(&self, db: &Signature) -> Result<(), String> {
        match self.key_len {
            Some(kl) if kl != db.key_len() => Err(signature_mismatch(
                format_args!("delta key length {kl}"),
                db,
            )),
            _ => Ok(()),
        }
    }
}

/// [`parse_delta_script`] for an update: a script without a single
/// operation is an error, not a no-op.
pub fn parse_update_script(text: &str) -> Result<DeltaScript, String> {
    let script = parse_delta_script(text)?;
    if script.is_empty() {
        return Err("delta script holds no operations (empty, blank or comment-only)".to_string());
    }
    Ok(script)
}

/// Parse a delta script. Lines are read as in a queries file
/// ([`query_lines`]: `#` comments, blank lines skipped). Errors carry the
/// 1-based line number and the offending line bounded by
/// [`truncate_error_text`], in the same shape the batch and fact-file
/// loaders report.
pub fn parse_delta_script(text: &str) -> Result<DeltaScript, String> {
    let mut script = DeltaScript::default();
    for line in query_lines(text) {
        let err_at = |msg: String| {
            format!(
                "delta line {}: {msg}\n  | {}",
                line.line,
                truncate_error_text(line.raw.trim_end())
            )
        };
        let (retract, rest) = match line.text.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, line.text.strip_prefix('+').unwrap_or(line.text)),
        };
        let (fact, key_len) = parse_fact_line(rest).map_err(err_at)?;
        match script.key_len {
            None => script.key_len = Some(key_len),
            Some(want) if want != key_len => {
                return Err(err_at(format!(
                    "key length {key_len} differs from the script's first fact's {want}"
                )));
            }
            Some(_) => {}
        }
        if retract {
            script.retracts.push(fact);
        } else {
            script.inserts.push(fact);
        }
    }
    Ok(script)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_signs_comments_and_bare_lines() {
        let script = parse_delta_script(
            "# a mixed script\n+ R(a | b)\nR(c | d)  # bare line inserts\n- R(e | f)\n\n",
        )
        .unwrap();
        assert_eq!(script.inserts.len(), 2);
        assert_eq!(script.retracts.len(), 1);
        assert_eq!(script.key_len, Some(1));
        assert_eq!(script.len(), 3);
        assert_eq!(script.retracts[0], Fact::from_names(["e", "f"]));
    }

    #[test]
    fn empty_script_is_empty_not_an_error() {
        let script = parse_delta_script("# nothing\n\n").unwrap();
        assert!(script.is_empty());
        assert_eq!(script.key_len, None);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_delta_script("+ R(a | b)\n+ nope\n").unwrap_err();
        assert!(err.contains("delta line 2"), "{err}");
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn long_lines_are_quoted_up_to_the_error_text_bound() {
        use cqa_query::ERROR_TEXT_MAX;
        let line = format!("+ {}", "x".repeat(2 * ERROR_TEXT_MAX));
        let err = parse_delta_script(&line).unwrap_err();
        let quote = err.split("\n  | ").nth(1).expect("a quoted line");
        let kept: String = line.chars().take(ERROR_TEXT_MAX).collect();
        assert_eq!(quote, format!("{kept}…"));
        assert_eq!(quote.chars().count(), ERROR_TEXT_MAX + 1);
    }

    #[test]
    fn update_scripts_need_an_operation_and_the_database_key_length() {
        let err = parse_update_script("# nothing\n\n").unwrap_err();
        assert!(err.contains("no operations"), "{err}");
        let script = parse_update_script("+ R(a b | c)\n").unwrap();
        let sig = |arity, key_len| Signature::new(arity, key_len).unwrap();
        assert_eq!(script.check_for(&sig(3, 2)), Ok(()));
        assert_eq!(
            script.check_for(&sig(2, 1)).unwrap_err(),
            "delta key length 2 does not match database signature [2, 1]"
        );
    }

    #[test]
    fn inconsistent_key_lengths_are_rejected() {
        let err = parse_delta_script("+ R(a | b)\n- R(a b |)\n").unwrap_err();
        assert!(err.contains("key length 2"), "{err}");
        assert!(err.contains("delta line 2"), "{err}");
    }
}
