//! Property tests for the block-indexed antichain and the worklist
//! fixpoint: both are differential-tested against naive seed-era
//! references (`cqa_solvers::certk::reference`).
//!
//! * The [`Antichain`] (block-keyed slot index + exact-member hash index +
//!   stale-slot compaction) must behave exactly like a flat list with
//!   linear scans under arbitrary `insert`/`covers` sequences — including
//!   inconsistent sets (two facts of one block), which the public API
//!   accepts even though the fixpoint never produces them.
//! * The dirty-block worklist evaluator must reach the same
//!   `CertKOutcome` as the seed-era full-pass evaluator on random q3/q6
//!   databases (the fixpoint closure is confluent, so evaluation order
//!   must not matter), and remain exact for q3 per Theorem 6.1.
//! * The engine's component route (`DynamicComponents::solve` without the
//!   matching shortcut) must agree with the literal whole-database
//!   fixpoint (Proposition 10.6).

use cqa_model::{Database, Elem, Fact, FactId, Signature};
use cqa_query::examples;
use cqa_solvers::certk::reference::{certk_reference, NaiveAntichain};
use cqa_solvers::{
    certain_brute, certk, support_partition, Antichain, CancelToken, CertKConfig, CombinedResult,
    DynamicComponents, SolutionSet,
};
use proptest::prelude::*;

/// A fixed 18-fact database (6 blocks × 3 facts) whose fact ids seed the
/// random set sequences: enough sharing for covers/prune collisions,
/// small enough for the naive reference to stay fast.
fn index_db() -> Database {
    let mut db = Database::new(Signature::new(2, 1).unwrap());
    for b in 0..6 {
        for v in 0..3 {
            db.insert(Fact::r(vec![Elem::int(b), Elem::int(100 + v)]))
                .unwrap();
        }
    }
    db
}

/// Random sorted fact-id sets over the 18 facts of [`index_db`]
/// (duplicates removed; possibly inconsistent, possibly empty).
fn fact_set_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..18, 0..5)
}

fn to_ids(raw: &[u8]) -> Vec<FactId> {
    let mut ids: Vec<FactId> = raw.iter().map(|&i| FactId(i as u32)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

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
    fn antichain_matches_naive_reference(
        inserts in proptest::collection::vec(fact_set_strategy(), 1..40),
        probes in proptest::collection::vec(fact_set_strategy(), 0..10),
    ) {
        let db = index_db();
        let mut indexed = Antichain::new(5);
        let mut naive = NaiveAntichain::new();
        for raw in &inserts {
            let s = to_ids(raw);
            // covers must agree *before* the insert…
            prop_assert_eq!(indexed.covers(&s), naive.covers(&s), "covers diverged on {:?}", s);
            // …and the insert outcomes must agree.
            let a = indexed.insert(s.clone());
            let b = naive.insert(s.clone());
            prop_assert_eq!(a, b, "insert diverged on {:?}", s);
            prop_assert_eq!(indexed.has_empty(), naive.has_empty());
            prop_assert_eq!(
                indexed.live_len(),
                if naive.has_empty() { 1 } else { naive.members().len() },
                "live count diverged after {:?}", s
            );
        }
        // Same final antichain, as sets of sets.
        let mut got: Vec<Vec<FactId>> =
            indexed.live_members().map(<[FactId]>::to_vec).collect();
        let mut want: Vec<Vec<FactId>> = naive.members().to_vec();
        got.sort();
        want.sort();
        if !naive.has_empty() {
            prop_assert_eq!(got, want);
        }
        // Arbitrary covers probes agree on the final state.
        for raw in &probes {
            let s = to_ids(raw);
            prop_assert_eq!(indexed.covers(&s), naive.covers(&s), "probe diverged on {:?}", s);
        }
        // members_with agrees for every fact.
        for f in db.fact_ids() {
            let mut got: Vec<&[FactId]> = indexed.members_with(f);
            let mut want: Vec<&[FactId]> = naive.members_with(f);
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "members_with diverged on {:?}", f);
        }
    }

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
    let partition = support_partition(db, solutions);
    let comps = DynamicComponents::solve(db, solutions, partition, cfg, &CancelToken::new(), false)
        .expect("a calm token cannot cancel the fan-out");
    let components: Vec<_> = comps.verdicts().cloned().collect();
    CombinedResult {
        certain: components.iter().any(|v| v.certain),
        components,
    }
}
