//! Property tests for the worklist fixpoint, differential-tested against
//! the naive seed-era evaluator (`cqa_solvers::certk::reference`). The
//! antichain's own differential test against the naive list lives in
//! `certk.rs`'s unit tests, since the antichain is private to that module.
//!
//! * The dirty-block worklist evaluator must reach the same
//!   `CertKOutcome` as the seed-era full-pass evaluator on random q3/q6
//!   databases (the fixpoint closure is confluent, so evaluation order
//!   must not matter), and remain exact for q3 per Theorem 6.1.
//! * The engine's component route (`DynamicComponents::solve` without the
//!   matching shortcut) must agree with the literal whole-database
//!   fixpoint (Proposition 10.6).

use cqa_model::{Database, Elem, Fact, Signature};
use cqa_query::examples;
use cqa_solvers::certk::reference::certk_reference;
use cqa_solvers::{
    certain_brute, certk, support_partition, CancelToken, CertKConfig, CombinedResult,
    DynamicComponents, SolutionSet,
};
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
    proptest::collection::vec(fact, 1..7).prop_map(|rows| {
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        for row in rows {
            let t: Vec<Elem> = row.into_iter().map(|v| Elem::int(v as i64)).collect();
            db.insert(Fact::r(t)).unwrap();
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn worklist_fixpoint_equals_full_pass_on_q3(db in q3_db_strategy()) {
        let q = examples::q3();
        for k in 1..=3usize {
            let cfg = CertKConfig::new(k);
            prop_assert_eq!(
                certk(&q, &db, cfg),
                certk_reference(&q, &db, cfg),
                "worklist and full-pass diverge at k={} on {:?}", k, db
            );
        }
    }

    #[test]
    fn worklist_fixpoint_equals_full_pass_on_q6(db in q6_db_strategy()) {
        let q = examples::q6();
        for k in 2..=3usize {
            let cfg = CertKConfig::new(k);
            prop_assert_eq!(
                certk(&q, &db, cfg),
                certk_reference(&q, &db, cfg),
                "worklist and full-pass diverge at k={} on {:?}", k, db
            );
        }
    }

    #[test]
    fn worklist_fixpoint_stays_exact_for_q3(db in q3_db_strategy()) {
        // Seed-era behaviour contract: Certain iff certain (Theorem 6.1),
        // NotDerived otherwise — the rework must not move a single verdict.
        let q = examples::q3();
        let out = certk(&q, &db, CertKConfig::new(2));
        prop_assert_eq!(out.is_certain(), certain_brute(&q, &db));
    }

    #[test]
    fn component_route_equals_literal_route(db in q3_db_strategy()) {
        // The engine's routing safety property (Proposition 10.6): the
        // per-component fan-out and the whole-database fixpoint agree.
        let q = examples::q3();
        let cfg = CertKConfig::new(2);
        let solutions = SolutionSet::enumerate(&q, &db);
        let routed = certk_by_components(&db, &solutions, cfg);
        let literal = certk(&q, &db, cfg);
        prop_assert_eq!(routed.certain, literal.is_certain());
        // The per-component path at several thread counts is also stable.
        let routed4 = certk_by_components(&db, &solutions, cfg.with_threads(4));
        prop_assert_eq!(format!("{:?}", routed.components), format!("{:?}", routed4.components));
    }
}

/// Per-component `Cert_k`: [`DynamicComponents::solve`] without the
/// matching shortcut, under a calm token.
fn certk_by_components(db: &Database, solutions: &SolutionSet, cfg: CertKConfig) -> CombinedResult {
    let calm = CancelToken::new();
    let partition =
        support_partition(db, solutions, &calm).expect("a calm token cannot cancel the partition");
    let comps = DynamicComponents::solve(db, solutions, partition, cfg, &calm, false)
        .expect("a calm token cannot cancel the fan-out");
    let components: Vec<_> = comps.verdicts().cloned().collect();
    CombinedResult {
        certain: components.iter().any(|v| v.certain),
        components,
    }
}
