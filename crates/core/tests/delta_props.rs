//! Delta-vs-recompute differential properties at session level: across
//! random q3 and q6 databases, the three `Trivial` (one-atom) queries
//! `R(x | y) R(z | y)`, `R(x | y) R(x | z)` and `R(y | x) R(x | x)` on
//! the q3 databases, random seeded insert/retract scripts
//! (every touch locality: same-block, cross-component, mixed) and
//! 1..=4 solver threads,
//!
//! * chaining deltas through [`SharedSession::with_delta`] — patched
//!   verdicts, re-solved dirty components, retained untouched ones —
//!   answers **identically** to a cold [`CqaEngine`] solving the
//!   post-delta database from scratch, after every step of the chain;
//! * both agree with exhaustive repair enumeration
//!   ([`cqa::solvers::certain_brute`]), the semantic definition of
//!   certainty, and (for the `Cert_k` class) with the frozen seed-era
//!   fixpoint oracle [`certk_reference`];
//! * the predecessor session keeps answering for its own database —
//!   deltas never mutate a live session in place.
//!
//! This is the acceptance gate of the live-update layer: if the dirty
//! region or verdict patching is wrong anywhere, some script in this space
//! flips a verdict and the differential catches it.

use cqa::solvers::certk::reference::certk_reference;
use cqa::solvers::{certain_brute, CertKConfig};
use cqa::{CqaEngine, EngineConfig, SharedSession};
use cqa_model::{Database, Elem, Fact, Signature};
use cqa_query::examples;
use cqa_workloads::{random_delta_ops, split_delta_ops, DeltaLocality, DeltaScriptConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

fn q3_db_strategy() -> impl Strategy<Value = Database> {
    let fact = proptest::collection::vec(0u8..4, 2);
    proptest::collection::vec(fact, 1..10).prop_map(|rows| {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            let t: Vec<Elem> = row.into_iter().map(|v| Elem::int(v as i64)).collect();
            db.insert(Fact::r(t)).unwrap();
        }
        db
    })
}

fn q6_db_strategy() -> impl Strategy<Value = Database> {
    let fact = proptest::collection::vec(0u8..3, 3);
    proptest::collection::vec(fact, 1..7).prop_map(|rows| {
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        for row in rows {
            let t: Vec<Elem> = row.into_iter().map(|v| Elem::int(v as i64)).collect();
            db.insert(Fact::r(t)).unwrap();
        }
        db
    })
}

/// The one-atom queries over the q3 signature `[2, 1]`: a retraction
/// onto either atom, and equal key tuples.
const TRIVIAL_QUERIES: [&str; 3] = [
    "R(x | y) R(z | y)",
    "R(x | y) R(x | z)",
    "R(y | x) R(x | x)",
];

/// One generated delta step: a script seed plus a locality selector.
fn step_strategy() -> impl Strategy<Value = (u64, u8)> {
    (0u64..1_000_000, 0u8..3)
}

fn locality_of(raw: u8) -> DeltaLocality {
    match raw % 3 {
        0 => DeltaLocality::SameBlock,
        1 => DeltaLocality::CrossComponent,
        _ => DeltaLocality::Mixed,
    }
}

/// The shared property body: replay `steps` as a with_delta chain and as
/// independent from-scratch recomputes, comparing verdicts after every
/// step at every thread count. `certk_oracle` additionally pins the
/// verdict to the frozen reference fixpoint (valid only for queries the
/// engine decides by `Cert_k` alone, i.e. q3 — q6 routes through the
/// Theorem 10.5 combined solver, where brute force is the oracle).
fn check_chain(
    q: &cqa_query::Query,
    db: &Database,
    steps: &[(u64, u8)],
    certk_oracle: bool,
) -> Result<(), TestCaseError> {
    for threads in 1..=4usize {
        let config = EngineConfig::default().with_threads(threads);
        let mut session = SharedSession::new(Arc::new(db.clone()), config);
        // Warm the pre-delta cache so with_delta patches rather than
        // lazily re-solves (both must be right; this path exercises the
        // patching).
        let base_verdict = session.certain(q).certain;
        prop_assert_eq!(
            base_verdict,
            certain_brute(q, db),
            "cold session verdict diverged from brute force on the base"
        );
        let mut current = db.clone();
        for (i, &(seed, raw_loc)) in steps.iter().enumerate() {
            let cfg = DeltaScriptConfig {
                ops: 5,
                insert_ratio: 0.6,
                locality: locality_of(raw_loc),
                domain: 4,
            };
            let (inserts, retracts) = split_delta_ops(&random_delta_ops(seed, &current, &cfg));
            let (next, _report) = session
                .with_delta(&inserts, &retracts)
                .expect("generated facts carry the database's signature");
            current.apply_delta(&inserts, &retracts).unwrap();

            let warm = next.certain(q).certain;
            let cold = CqaEngine::with_config(q.clone(), config)
                .certain(&current)
                .certain;
            prop_assert_eq!(
                warm, cold,
                "incremental and from-scratch verdicts diverged at step {} ({:?}, seed {}, {} threads)",
                i, locality_of(raw_loc), seed, threads
            );
            prop_assert_eq!(
                cold,
                certain_brute(q, &current),
                "engine verdict diverged from brute force at step {}",
                i
            );
            if certk_oracle {
                prop_assert_eq!(
                    cold,
                    certk_reference(q, &current, CertKConfig::new(2)).is_certain(),
                    "engine verdict diverged from the reference fixpoint at step {}",
                    i
                );
            }
            // The predecessor still answers for its own database.
            prop_assert_eq!(session.certain(q).certain, certain_brute(q, session.db()));
            prop_assert_eq!(next.delta_stats().delta_applied, (i + 1) as u64);
            session = next;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn q3_delta_chains_match_recompute(
        db in q3_db_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..4),
    ) {
        check_chain(&examples::q3(), &db, &steps, true)?;
    }

    #[test]
    fn trivial_delta_chains_match_recompute(
        db in q3_db_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..4),
    ) {
        for text in TRIVIAL_QUERIES {
            let q = cqa_query::parse_query(text).unwrap();
            prop_assert!(q.is_one_atom_equivalent(), "{} is not one-atom", text);
            check_chain(&q, &db, &steps, false)?;
        }
    }

    #[test]
    fn q6_delta_chains_match_recompute(
        db in q6_db_strategy(),
        steps in proptest::collection::vec(step_strategy(), 1..3),
    ) {
        check_chain(&examples::q6(), &db, &steps, false)?;
    }
}
