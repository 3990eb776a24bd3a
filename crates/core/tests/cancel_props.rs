//! Cancellation-correctness properties, at engine level: across random
//! q3 and q6 workloads, the coNP-complete q2 (answered by the brute-force
//! search), the one-atom query `R(x | y) R(x | z)` (answered by a block
//! scan) and `R(y | x) R(x | y)` on databases where it has no solution
//! (answered before any partition), and 1..=4 solver threads,
//!
//! * a run under a **cancelled** token never emits a verdict — it
//!   always comes back `Err(CancelledSolve)`;
//! * a run under a **calm** (never-firing) token is byte-identical to
//!   the deterministic `certain` path — cancellation plumbing must be
//!   invisible when it doesn't fire.
//!
//! Together these pin the contract the server relies on: a deadline can
//! only withhold an answer, never change one, so cancelled requests are
//! always safe to retry.

use cqa::solvers::{CancelToken, SolutionSet};
use cqa::{Complexity, CqaEngine, EngineConfig};
use cqa_model::{Database, Elem, Fact, Signature};
use cqa_query::{examples, parse_query};
use proptest::prelude::*;

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
    proptest::collection::vec(fact, 1..8).prop_map(|rows| {
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        for row in rows {
            let t: Vec<Elem> = row.into_iter().map(|v| Elem::int(v as i64)).collect();
            db.insert(Fact::r(t)).unwrap();
        }
        db
    })
}

/// Small random databases for q2 = `R(x u | x y) R(u y | x z)`
/// (signature `[4, 2]`): a three-value domain, so keys collide and facts
/// join.
fn q2_db_strategy() -> impl Strategy<Value = Database> {
    let fact = proptest::collection::vec(0u8..3, 4);
    proptest::collection::vec(fact, 1..8).prop_map(|rows| {
        let mut db = Database::new(Signature::new(4, 2).unwrap());
        for row in rows {
            let t: Vec<Elem> = row.into_iter().map(|v| Elem::int(v as i64)).collect();
            db.insert(Fact::r(t)).unwrap();
        }
        db
    })
}

/// The shared property body: raised token ⇒ no verdict; calm token ⇒
/// Debug-identical answer to the deterministic path at every thread
/// count.
fn check(query: &cqa_query::Query, db: &Database) {
    let raised = CancelToken::new();
    raised.cancel();
    for threads in 1..=4usize {
        let engine =
            CqaEngine::with_config(query.clone(), EngineConfig::default().with_threads(threads));
        prop_assert!(
            engine.certain_cancellable(db, &raised).is_err(),
            "a cancelled run emitted a verdict at {threads} threads"
        );
        let deterministic = engine.certain(db);
        let calm = engine
            .certain_cancellable(db, &CancelToken::new())
            .expect("a calm token must never cancel");
        prop_assert_eq!(
            format!("{deterministic:?}"),
            format!("{calm:?}"),
            "calm-token answer drifted from the deterministic path at {} threads",
            threads
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn q3_cancellation_withholds_but_never_changes_verdicts(db in q3_db_strategy()) {
        check(&examples::q3(), &db);
    }

    #[test]
    fn q6_cancellation_withholds_but_never_changes_verdicts(db in q6_db_strategy()) {
        check(&examples::q6(), &db);
    }

    #[test]
    fn conp_cancellation_withholds_but_never_changes_verdicts(db in q2_db_strategy()) {
        let q = examples::q2();
        prop_assert_eq!(
            CqaEngine::new(q.clone()).classification().complexity,
            Complexity::CoNpComplete
        );
        check(&q, &db);
    }

    #[test]
    fn trivial_cancellation_withholds_but_never_changes_verdicts(db in q3_db_strategy()) {
        let q = parse_query("R(x | y) R(x | z)").unwrap();
        prop_assert!(q.is_one_atom_equivalent());
        check(&q, &db);
    }

    #[test]
    fn no_solution_cancellation_withholds_but_never_changes_verdicts(db in q3_db_strategy()) {
        // Keep only facts a → b with a < b: then no two facts form a
        // cycle a → b → a, so R(y | x) R(x | y) has no solution.
        let mut acyclic = Database::new(*db.signature());
        for (_, f) in db.facts() {
            if f.at(0) < f.at(1) {
                acyclic.insert_ref(f).unwrap();
            }
        }
        let q = parse_query("R(y | x) R(x | y)").unwrap();
        prop_assert!(SolutionSet::enumerate(&q, &acyclic).is_empty());
        check(&q, &acyclic);
    }
}
