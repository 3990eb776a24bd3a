//! Query-mutating differential target: the dual of [`crate::diff`].
//!
//! Where `differential` mutates *databases* under fixed exemplar queries,
//! `querydiff` varies the *query* and drives the whole
//! classify → route → solve pipeline of [`cqa_cli::fleet::QueryHarness`]
//! on a skewed database: classification determinism, the
//! display → parse → classify round trip, agreement of every engine
//! route, `Cert_k` reference parity and (budgeted) brute-force ground
//! truth.
//!
//! The input is a positional byte script:
//!
//! ```text
//! bytes 0..8   little-endian u64 seed (query generation and database)
//! byte  8      generator preset (mod the preset count)
//! byte  9      database knob: skew family and fact budget
//! bytes 10..   optional query text; empty → generate from the seed
//! ```
//!
//! A tail that parses as concrete query syntax is the query: the
//! fuzzer's dictionary mutations then act on the query text itself, and
//! a crash minimises to a script whose tail *is* the offending query —
//! ready to check in under `regressions/querydiff/`. Otherwise the query
//! comes from the seeded generator ([`cqa_workloads::random_query`]), so
//! the 8 seed bytes explore generator space. A tail that is not query
//! text (not UTF-8, or unparseable) salts that seed instead of being
//! rejected: most mutants of a script land there, and each distinct one
//! now runs the pipeline on a distinct generated query and database.
//! Only scripts shorter than the 10-byte header are
//! [`Verdict::Reject`]; any harness disagreement or panic is a
//! [`Verdict::Crash`].

use cqa_cli::fleet::QueryHarness;
use cqa_query::parse_query;
use cqa_workloads::{derive_seed, random_query, skewed_db, QueryGenConfig, SkewFamily};
use minifuzz::Verdict;
use rand::{rngs::StdRng, SeedableRng};

/// Facts per database stay small: every pair pays for a budgeted brute
/// force, three engine routes and two `Cert_k` evaluations.
const MIN_FACTS: usize = 8;
const FACTS_SPAN: usize = 33;

/// The query-mutating differential target.
pub fn querydiff(input: &[u8]) -> Verdict {
    if input.len() < 10 {
        return Verdict::Reject;
    }
    let mut seed_bytes = [0u8; 8];
    seed_bytes.copy_from_slice(&input[..8]);
    let mut seed = u64::from_le_bytes(seed_bytes);
    let preset = input[8];
    let db_knob = input[9];
    let tail = &input[10..];

    let parsed = std::str::from_utf8(tail)
        .ok()
        .and_then(|text| Some((text.to_string(), parse_query(text).ok()?)));
    let (text, query) = match parsed {
        Some(text_query) => text_query,
        None => {
            if !tail.is_empty() {
                // FNV-1a over the tail: distinct non-query tails, distinct
                // seeds; an empty tail keeps the header's seed.
                let salt = tail.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
                seed = derive_seed(seed, salt, 0);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_query(&mut rng, &QueryGenConfig::preset(preset));
            (g.text, g.query)
        }
    };

    let harness = match QueryHarness::new(&text, query) {
        Ok(h) => h,
        Err(d) => return Verdict::Crash(d.to_string()),
    };
    let family = SkewFamily::ALL[db_knob as usize % SkewFamily::ALL.len()];
    let facts = MIN_FACTS + (db_knob as usize / 4) % FACTS_SPAN;
    let db = skewed_db(
        derive_seed(seed, u64::from(preset), u64::from(db_knob)),
        harness.query(),
        &family.config(facts),
    );
    match harness.check_db(&db) {
        Ok(_) => Verdict::Ok,
        Err(d) => Verdict::Crash(d.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: &[u8; 8], preset: u8, db_knob: u8, text: &[u8]) -> Vec<u8> {
        let mut s = seed.to_vec();
        s.push(preset);
        s.push(db_knob);
        s.extend_from_slice(text);
        s
    }

    #[test]
    fn generated_queries_pass_across_presets_and_knobs() {
        for preset in 0..5 {
            for db_knob in [0, 41, 97, 202] {
                let input = script(b"fuzzseed", preset, db_knob, b"");
                if let Verdict::Crash(msg) = querydiff(&input) {
                    panic!("preset {preset} knob {db_knob}: {msg}");
                }
            }
        }
    }

    #[test]
    fn explicit_query_text_is_exercised() {
        let input = script(b"12345678", 0, 7, b"R(x | y) R(y | z)");
        assert_eq!(querydiff(&input), Verdict::Ok);
    }

    #[test]
    fn non_query_tails_salt_the_generator_and_only_short_inputs_reject() {
        assert_eq!(querydiff(b"tiny"), Verdict::Reject);
        for tail in [b"R(x | y) R(".as_slice(), b"\xff\xfe", b"j"] {
            let input = script(b"12345678", 0, 0, tail);
            assert_eq!(querydiff(&input), Verdict::Ok, "{tail:?}");
        }
    }

    /// A fixed-seed run from the target's own seeds spends at least half
    /// its iterations on the classify → route → solve pipeline.
    #[test]
    fn a_fixed_seed_run_accepts_at_least_half_its_inputs() {
        let kind = crate::TargetKind::QueryDiff;
        let cfg = crate::Config {
            max_iterations: 1_000,
            ..crate::Config::default()
        };
        let report = minifuzz::fuzz_dict(&cfg, &kind.seeds(), &kind.dict(), querydiff);
        assert!(report.crashes.is_empty(), "{:?}", report.crashes);
        assert!(
            2 * report.accepted >= report.iterations,
            "{} of {} accepted",
            report.accepted,
            report.iterations
        );
    }
}
