//! Integration: property-based end-to-end checks with proptest — repair
//! axioms, solution symmetry, the Lemma 6.2 zig-zag property, Lemma 7.1,
//! and engine consistency on generated databases.

use cqa::solvers::{certain_brute, SolutionSet};
use cqa::CqaEngine;
use cqa_model::{Database, Elem, Fact, RepairIter};
use cqa_query::{examples, is_solution, Query};
use proptest::prelude::*;

/// Strategy: a database for `q`'s signature over a tiny named domain.
fn db_strategy(q: &Query, max_facts: usize) -> impl Strategy<Value = Database> {
    let sig = *q.signature();
    let arity = sig.arity();
    let fact = proptest::collection::vec(0u8..4, arity);
    let q = q.clone();
    proptest::collection::vec(fact, 1..=max_facts).prop_map(move |rows| {
        let mut db = Database::new(*q.signature());
        for row in rows {
            let tuple: Vec<Elem> = row
                .into_iter()
                .map(|v| Elem::pair(Elem::named("pt"), Elem::int(v as i64)))
                .collect();
            db.insert(Fact::r(tuple)).expect("arity matches");
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn repairs_are_maximal_consistent_subsets(db in db_strategy(&examples::q3(), 6)) {
        let mut count = 0u128;
        for r in RepairIter::new(&db) {
            count += 1;
            // One fact per block, the fact belongs to its block.
            prop_assert_eq!(r.len(), db.block_count());
            for b in db.block_ids() {
                prop_assert_eq!(db.block_of(r.chosen(b)), b);
            }
        }
        prop_assert_eq!(count, db.repair_count());
    }

    #[test]
    fn solution_set_matches_definition(db in db_strategy(&examples::q2(), 6)) {
        let q = examples::q2();
        let sols = SolutionSet::enumerate(&q, &db);
        for (ia, fa) in db.facts() {
            for (ib, fb) in db.facts() {
                prop_assert_eq!(sols.holds(ia, ib), is_solution(&q, fa, fb));
            }
        }
    }

    #[test]
    fn zigzag_property_holds_for_thm61_queries(db in db_strategy(&examples::q3(), 6)) {
        // Lemma 6.2: if q(a b), q(c b′), b ∼ b′, a ≁ c, a ≠ b then q(a b′).
        let q = examples::q3();
        prop_assert!(cqa_query::conditions::zigzag_premise(&q));
        let sols = SolutionSet::enumerate(&q, &db);
        for (a, b) in sols.pairs() {
            if a == b {
                continue;
            }
            for (c, b2) in sols.pairs() {
                if db.key_equal(b, b2) && !db.key_equal(a, c) {
                    prop_assert!(
                        sols.holds(a, b2),
                        "zig-zag violated: q({a:?} {b:?}), q({c:?} {b2:?}) but not q({a:?} {b2:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn lemma71_partner_uniqueness_for_2way_determined(db in db_strategy(&examples::q6(), 6)) {
        // Lemma 7.1: q(a b) ∧ q(a c) ⇒ b ∼ c; q(a b) ∧ q(c b) ⇒ a ∼ c.
        let q = examples::q6();
        let sols = SolutionSet::enumerate(&q, &db);
        for (a, b) in sols.pairs() {
            for &c in sols.seconds_of(a) {
                prop_assert!(db.key_equal(b, c), "second partners must be key-equal");
            }
            for &c in sols.firsts_of(b) {
                prop_assert!(db.key_equal(a, c), "first partners must be key-equal");
            }
        }
    }

    #[test]
    fn engine_answers_match_brute_force_q6(db in db_strategy(&examples::q6(), 6)) {
        let engine = CqaEngine::new(examples::q6());
        let ans = engine.certain(&db);
        prop_assert!(!ans.budget_exhausted);
        prop_assert_eq!(ans.certain, certain_brute(&examples::q6(), &db));
    }

    #[test]
    fn engine_answers_match_brute_force_q4(db in db_strategy(&examples::q4(), 6)) {
        let engine = CqaEngine::new(examples::q4());
        let ans = engine.certain(&db);
        prop_assert!(!ans.budget_exhausted);
        prop_assert_eq!(ans.certain, certain_brute(&examples::q4(), &db));
    }

    #[test]
    fn certain_is_monotone_under_block_removal(db in db_strategy(&examples::q3(), 6)) {
        // Removing a whole block can only *preserve or lose* certainty when
        // the block was not the satisfied component... in general no
        // monotonicity holds; what DOES hold: adding a fact to an existing
        // block can only falsify (more repairs), never certify.
        let q = examples::q3();
        let before = certain_brute(&q, &db);
        if db.is_empty() {
            return Ok(());
        }
        // Add a dead-end fact to the first block.
        let first_key = db.fact(cqa_model::FactId(0)).key(q.signature()).to_vec();
        let mut bigger = db.clone();
        let mut tuple = first_key;
        tuple.push(Elem::fresh());
        bigger.insert(Fact::r(tuple)).unwrap();
        let after = certain_brute(&q, &bigger);
        prop_assert!(!after || before, "adding a block alternative must not create certainty");
    }

    #[test]
    fn consistent_databases_decide_by_single_repair(db in db_strategy(&examples::q2(), 5)) {
        // On a consistent database, certain(q) is just query evaluation.
        let q = examples::q2();
        let consistent = db.restrict(
            db.block_ids().map(|b| db.block(b)[0]),
        );
        let sols = SolutionSet::enumerate(&q, &consistent);
        prop_assert_eq!(certain_brute(&q, &consistent), !sols.is_empty());
    }
}

#[test]
fn full_pipeline_on_all_paper_queries() {
    // classify → engine → answer on a fixed small database each; no panics,
    // budget respected, PTime answers equal brute force.
    use cqa_workloads::{random_db, RandomDbConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(2024);
    for (name, q) in examples::all() {
        let engine = CqaEngine::new(q.clone());
        let db = random_db(
            &mut rng,
            &q,
            &RandomDbConfig {
                blocks: 4,
                max_block_size: 2,
                domain: 3,
            },
        );
        let ans = engine.certain(&db);
        if engine.classification().complexity.is_ptime() {
            assert_eq!(ans.certain, certain_brute(&q, &db), "{name}");
        } else {
            // coNP queries answer by (budgeted) brute force: equal by
            // construction here since the budget is effectively unbounded.
            assert_eq!(ans.certain, certain_brute(&q, &db), "{name}");
        }
    }
}
