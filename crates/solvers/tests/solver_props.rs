//! Property tests for the solver layer: soundness orderings, budget
//! monotonicity, component decomposition laws, and the sort-merge join against
//! the definition of a solution.

use cqa_model::{Database, Elem, Fact, FactId, Signature};
use cqa_query::{examples, is_solution, Query};
use cqa_solvers::{
    certain_brute, certain_brute_budgeted, certain_by_matching, certain_combined,
    certain_exhaustive, certk, q_connected_components, BruteOutcome, CancelToken, CertKConfig,
    SolutionSet,
};
use cqa_workloads::{random_query, QueryGenConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeSet;

fn q3_db_strategy() -> impl Strategy<Value = Database> {
    let fact = proptest::collection::vec(0u8..4, 2);
    proptest::collection::vec(fact, 1..8).prop_map(|rows| {
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

/// The query of a join case, drawn by `shape`: sharing from none to
/// total, repeated variables, or the most-shared of 16 wide queries whose
/// `B` only reuses `A`'s variables (three or four shared variables are
/// otherwise rare). Cases thus range over 0–4 shared variables, where
/// none is a cross product and three or four make the join key wider
/// than its packed two-column prefix. Arity stays at most 4; some queries
/// are self-join-free.
fn join_query(seed: u64, shape: u8) -> Query {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = QueryGenConfig {
        min_arity: 1,
        max_arity: 4,
        pool: 5,
        spelling: false,
        ..QueryGenConfig::default()
    };
    let (shared_bias, repeat_bias) = match shape % 4 {
        0 => (0.0, 0.3),
        1 => (0.5, 0.3),
        2 => (0.8, 0.6),
        _ => {
            let wide = QueryGenConfig {
                min_arity: 3,
                shared_bias: 1.0,
                repeat_bias: 0.0,
                pool: 9,
                ..d
            };
            return (0..16)
                .map(|_| random_query(&mut rng, &wide).query)
                .max_by_key(|q| q.shared_vars().len())
                .expect("16 draws");
        }
    };
    let cfg = QueryGenConfig {
        shared_bias,
        repeat_bias,
        ..d
    };
    random_query(&mut rng, &cfg).query
}

/// Facts over `q`'s signature from `(atom, elements)` rows: the relation
/// of atom `A` or `B`, elements from a domain of 3, cut to the arity.
fn join_facts(q: &Query, rows: &[(u8, Vec<u8>)]) -> Vec<Fact> {
    rows.iter()
        .map(|(atom, row)| {
            let rel = if atom % 2 == 0 {
                q.a().rel()
            } else {
                q.b().rel()
            };
            let t: Vec<Elem> = row[..q.signature().arity()]
                .iter()
                .map(|&v| Elem::int(i64::from(v)))
                .collect();
            Fact::new(rel, t)
        })
        .collect()
}

fn join_rows(max: usize) -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    proptest::collection::vec((0u8..2, proptest::collection::vec(0u8..3, 4)), 0..max)
}

fn join_case() -> impl Strategy<Value = (Query, Database)> {
    (0u64..u64::MAX, 0u8..4, join_rows(14)).prop_map(|(seed, shape, rows)| {
        let q = join_query(seed, shape);
        let mut db = Database::new(*q.signature());
        for f in join_facts(&q, &rows) {
            db.insert(f).unwrap();
        }
        (q, db)
    })
}

fn ascending(ids: &[FactId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// `sols` against the O(n²) product of the definition, accessor by
/// accessor, with every adjacency list strictly ascending.
fn check_against_definition(
    q: &Query,
    db: &Database,
    sols: &SolutionSet,
) -> Result<(), TestCaseError> {
    let mut expected = BTreeSet::new();
    for (a, fa) in db.facts() {
        for (b, fb) in db.facts() {
            if is_solution(q, fa, fb) {
                expected.insert((a, b));
            }
        }
    }
    let got: BTreeSet<(FactId, FactId)> = sols.pairs().collect();
    prop_assert_eq!(got.len(), sols.len(), "a pair is listed twice");
    prop_assert_eq!(&got, &expected, "pair set of {}", q);
    for a in db.fact_ids() {
        for b in db.fact_ids() {
            prop_assert_eq!(sols.holds(a, b), expected.contains(&(a, b)));
        }
        let seconds: Vec<FactId> = expected.iter().filter(|p| p.0 == a).map(|p| p.1).collect();
        let firsts: Vec<FactId> = expected.iter().filter(|p| p.1 == a).map(|p| p.0).collect();
        prop_assert!(ascending(sols.seconds_of(a)) && ascending(sols.firsts_of(a)));
        prop_assert_eq!(sols.seconds_of(a), &seconds[..]);
        prop_assert_eq!(sols.firsts_of(a), &firsts[..]);
        prop_assert_eq!(sols.self_loop(a), expected.contains(&(a, a)));
        let partners: BTreeSet<FactId> = seconds
            .into_iter()
            .chain(firsts)
            .filter(|&p| p != a)
            .collect();
        prop_assert_eq!(sols.partners(a), partners.into_iter().collect::<Vec<_>>());
    }
    Ok(())
}

/// `inc` against `fresh` on every accessor, over the whole id space:
/// retracted ids included, which must have no pairs in either.
fn check_same_accessors(
    db: &Database,
    inc: &SolutionSet,
    fresh: &SolutionSet,
) -> Result<(), TestCaseError> {
    let sorted = |s: &SolutionSet| {
        let mut v: Vec<(FactId, FactId)> = s.pairs().collect();
        v.sort_unstable();
        v
    };
    prop_assert_eq!(sorted(inc), sorted(fresh));
    let ids = || (0..db.fact_slots() as u32).map(FactId);
    for a in ids() {
        for b in ids() {
            prop_assert_eq!(inc.holds(a, b), fresh.holds(a, b));
        }
        prop_assert!(ascending(inc.seconds_of(a)) && ascending(inc.firsts_of(a)));
        prop_assert_eq!(inc.seconds_of(a), fresh.seconds_of(a));
        prop_assert_eq!(inc.firsts_of(a), fresh.firsts_of(a));
        prop_assert_eq!(inc.self_loop(a), fresh.self_loop(a));
        prop_assert_eq!(inc.partners(a), fresh.partners(a));
    }
    Ok(())
}

proptest! {
    // More cases than the suites below, so that every shape of
    // `join_query` is drawn dozens of times.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn enumeration_agrees_with_the_definition_on_random_queries((q, db) in join_case()) {
        check_against_definition(&q, &db, &SolutionSet::enumerate(&q, &db))?;
    }

    #[test]
    fn incremental_solutions_agree_with_enumeration_after_deltas(
        (q, db) in join_case(),
        steps in proptest::collection::vec(
            (join_rows(4), proptest::collection::vec(0usize..64, 0..4)),
            1..5,
        ),
    ) {
        let mut db = db;
        let mut inc = SolutionSet::enumerate(&q, &db);
        for (rows, picks) in &steps {
            let live: Vec<Fact> = db.facts().map(|(_, f)| f.to_fact()).collect();
            let retracts: Vec<Fact> = if live.is_empty() {
                Vec::new()
            } else {
                picks.iter().map(|&i| live[i % live.len()].clone()).collect()
            };
            let report = db.apply_delta(&join_facts(&q, rows), &retracts).unwrap();
            inc.apply_delta(&db, &report);
            check_same_accessors(&db, &inc, &SolutionSet::enumerate(&q, &db))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn brute_backtracking_equals_definition(db in q3_db_strategy()) {
        prop_assert_eq!(
            certain_brute(&examples::q3(), &db),
            certain_exhaustive(&examples::q3(), &db)
        );
    }

    #[test]
    fn certk_monotone_in_k(db in q3_db_strategy()) {
        let q = examples::q3();
        let mut prev = false;
        for k in 1..=3usize {
            let now = certk(&q, &db, CertKConfig::new(k)).is_certain();
            prop_assert!(!prev || now, "Cert_k lost certainty going from k={} to k={k}", k - 1);
            prev = now;
        }
    }

    #[test]
    fn certk_sound_and_exact_for_q3(db in q3_db_strategy()) {
        let q = examples::q3();
        let brute = certain_brute(&q, &db);
        let c2 = certk(&q, &db, CertKConfig::new(2)).is_certain();
        prop_assert_eq!(c2, brute, "Theorem 6.1 violated");
    }

    #[test]
    fn matching_sound_for_q6(db in q6_db_strategy()) {
        let q = examples::q6();
        if certain_by_matching(&q, &db) {
            prop_assert!(certain_brute(&q, &db), "¬matching unsound");
        }
    }

    #[test]
    fn matching_exact_for_clique_query_q6(db in q6_db_strategy()) {
        // q6 is a clique-query (Theorem 10.4): ¬matching is exact on every
        // database.
        let q = examples::q6();
        prop_assert!(cqa_solvers::is_clique_database(&q, &db));
        prop_assert_eq!(certain_by_matching(&q, &db), certain_brute(&q, &db));
    }

    #[test]
    fn budget_zero_always_exhausts_or_decides_trivially(db in q3_db_strategy()) {
        // With budget 0 the search can only answer without branching.
        match certain_brute_budgeted(&examples::q3(), &db, 0) {
            BruteOutcome::BudgetExhausted | BruteOutcome::Certain | BruteOutcome::NotCertain(_) => {}
        }
        // And an unbounded run never exhausts.
        let full = certain_brute_budgeted(&examples::q3(), &db, u64::MAX);
        prop_assert!(!matches!(full, BruteOutcome::BudgetExhausted));
    }

    #[test]
    fn components_partition_the_database(db in q6_db_strategy()) {
        let q = examples::q6();
        let comps = q_connected_components(&q, &db);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, db.len());
        // Original fact ids cover everything exactly once.
        let mut seen = std::collections::HashSet::new();
        for c in &comps {
            for &id in c.fact_ids() {
                prop_assert!(seen.insert(id));
            }
        }
        prop_assert_eq!(seen.len(), db.len());
    }

    #[test]
    fn certain_iff_some_component_certain(db in q6_db_strategy()) {
        // Proposition 10.6 (2).
        let q = examples::q6();
        let whole = certain_brute(&q, &db);
        let comps = q_connected_components(&q, &db);
        // Decide each component both on a materialised copy and in place
        // on its view against the parent's solution set: same verdicts.
        let some = comps.iter().any(|c| certain_brute(&q, &c.to_database()));
        prop_assert_eq!(whole, some);
        let sols = SolutionSet::enumerate(&q, &db);
        for c in &comps {
            let on_view = !cqa_solvers::analyze_view(c, &sols).accepts
                || cqa_solvers::certk_view(c, &sols, CertKConfig::new(2), &CancelToken::new())
                    .expect("a calm token cannot cancel")
                    .0
                    .is_certain();
            let on_copy = certain_brute(&q, &c.to_database());
            // q6 is a clique query: the matching test is exact per component.
            prop_assert_eq!(on_view, on_copy, "view and copy verdicts diverge");
        }
    }

    #[test]
    fn combined_verdict_independent_of_thread_count_q3(db in q3_db_strategy()) {
        // The parallel fan-out must not change anything observable: the
        // whole result (including per-component order and evidence) is
        // byte-identical across thread counts.
        let q = examples::q3();
        let cfg = CertKConfig::new(2);
        let seq = certain_combined(&q, &db, cfg.with_threads(1));
        let par = certain_combined(&q, &db, cfg.with_threads(4));
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn combined_verdict_independent_of_thread_count_q6(db in q6_db_strategy()) {
        let q = examples::q6();
        let cfg = CertKConfig::new(2);
        let seq = certain_combined(&q, &db, cfg.with_threads(1));
        let par = certain_combined(&q, &db, cfg.with_threads(3));
        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn solutions_never_cross_components(db in q6_db_strategy()) {
        let q = examples::q6();
        let sols = SolutionSet::enumerate(&q, &db);
        let comps = q_connected_components(&q, &db);
        let mut comp_of = std::collections::HashMap::new();
        for (ci, c) in comps.iter().enumerate() {
            for &id in c.fact_ids() {
                comp_of.insert(id, ci);
            }
        }
        for (a, b) in sols.pairs() {
            prop_assert_eq!(comp_of[&a], comp_of[&b], "solution crosses components");
        }
    }
}

/// The join cases reach every shape the sort-merge join must handle: 0–3
/// shared variables, repeated variables, arity 3 and both relation forms.
#[test]
fn join_queries_cover_every_shape() {
    let queries: Vec<Query> = (0..64u64).map(|s| join_query(s, s as u8)).collect();
    let shared: BTreeSet<usize> = queries.iter().map(|q| q.shared_vars().len()).collect();
    assert_eq!(shared, (0..=4).collect::<BTreeSet<_>>());
    let repeats = |q: &Query| [q.a(), q.b()].iter().any(|a| a.vars().len() < a.arity());
    assert!(queries.iter().any(repeats));
    assert!(queries.iter().any(|q| q.signature().arity() == 4));
    assert!(queries.iter().any(|q| q.is_self_join()) && queries.iter().any(|q| !q.is_self_join()));
}
