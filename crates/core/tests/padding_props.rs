//! Padding properties: blocks that hold no fact of any solution change
//! nothing. By Proposition 10.6 a q-connected component outside the
//! solution support is never certain, so the engine decides the support's
//! components only. For one query of every class, random databases are
//! padded with solution-free blocks (fresh, pairwise distinct elements in
//! every position, which no atom with a repeated variable matches and no
//! other fact joins), and
//!
//! * the engine's verdict on the padded database equals its verdict on the
//!   unpadded one and exhaustive repair enumeration on the padded one;
//! * `CertainAnswer::components`, where a component route reports it,
//!   equals the number of support components, padded or not, and so does
//!   the incremental state's count;
//! * a falsifying witness is a repair of the whole padded database, one
//!   fact per block, padding included.

use cqa::solvers::solution::satisfies;
use cqa::solvers::{
    certain_brute_budgeted, certain_exhaustive, support_partition, BruteOutcome, CancelToken,
    SolutionSet,
};
use cqa::{Complexity, CqaEngine, EngineConfig, RoutePolicy, SharedSession};
use cqa_model::{Database, Elem, Fact};
use cqa_query::{parse_query, Query};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// One query per class of the dichotomy.
const QUERIES: [(&str, Complexity); 5] = [
    ("R(y | x) R(x | x)", Complexity::Trivial),
    ("R(x | y) R(y | z)", Complexity::PTimeCert2),
    ("R(x | y x) R(y | x u)", Complexity::PTimeCertK),
    ("R(x | y z) R(z | x y)", Complexity::PTimeCombined),
    ("R(y | v v) R(u | y v)", Complexity::CoNpComplete),
];

/// `rows` over the query's signature, elements from a domain of 3.
fn base_db(q: &Query, rows: &[Vec<u8>]) -> Database {
    let mut db = Database::new(*q.signature());
    for row in rows {
        let t: Vec<Elem> = row[..q.signature().arity()]
            .iter()
            .map(|&v| Elem::int(i64::from(v)))
            .collect();
        db.insert(Fact::new(q.a().rel(), t)).unwrap();
    }
    db
}

/// `db` plus `pairs` two-fact blocks and `singles` one-fact blocks, every
/// element fresh and distinct.
fn padded(q: &Query, db: &Database, pairs: usize, singles: usize) -> Database {
    let mut out = db.clone();
    let arity = q.signature().arity();
    let key_len = q.signature().key_len();
    let sizes = std::iter::repeat(2)
        .take(pairs)
        .chain(std::iter::repeat(1).take(singles));
    for (block, size) in sizes.enumerate() {
        for fact in 0..size {
            let t: Vec<Elem> = (0..arity)
                .map(|pos| {
                    if pos < key_len {
                        Elem::named(format!("pad{block}k{pos}"))
                    } else {
                        Elem::named(format!("pad{block}f{fact}p{pos}"))
                    }
                })
                .collect();
            out.insert(Fact::new(q.a().rel(), t)).unwrap();
        }
    }
    out
}

fn check(
    q: &Query,
    class: Complexity,
    db: &Database,
    pairs: usize,
    singles: usize,
) -> Result<(), TestCaseError> {
    let big = padded(q, db, pairs, singles);
    prop_assert_eq!(big.block_count(), db.block_count() + pairs + singles);
    let (small_sols, big_sols) = (
        SolutionSet::enumerate(q, db),
        SolutionSet::enumerate(q, &big),
    );
    prop_assert_eq!(
        small_sols.len(),
        big_sols.len(),
        "the padding joins nothing"
    );
    let calm = CancelToken::new();
    prop_assert_eq!(
        small_sols.support_blocks(db, &calm),
        big_sols.support_blocks(&big, &calm)
    );
    let support = support_partition(&big, &big_sols, &calm).unwrap().len();
    prop_assert_eq!(
        support,
        support_partition(db, &small_sols, &calm).unwrap().len()
    );

    let oracle = certain_exhaustive(q, &big);
    let configs = [
        EngineConfig::default().with_threads(1),
        EngineConfig::default().with_route(RoutePolicy::Component),
    ];
    for config in configs {
        let engine = CqaEngine::with_config(q.clone(), config);
        prop_assert_eq!(engine.classification().complexity, class);
        let (small, large) = (engine.certain(db), engine.certain(&big));
        prop_assert_eq!(large.certain, small.certain, "padding moved the verdict");
        prop_assert_eq!(large.certain, oracle, "engine vs repair enumeration");
        prop_assert_eq!(large.components, small.components);
        if let Some(c) = large.components {
            prop_assert_eq!(c, support, "components counts the support only");
        }
        // The live state: an empty delta carries every supported query
        // with its answer read off that state.
        let session = SharedSession::new(Arc::new(big.clone()), config);
        session.certain(q);
        let (next, _) = session.with_delta(&[], &[]).unwrap();
        if let Some(state) = next.cached(q) {
            prop_assert_eq!(state.certain, oracle);
            if class != Complexity::Trivial {
                prop_assert_eq!(state.components, Some(support));
            }
        }
    }

    match certain_brute_budgeted(q, &big, u64::MAX) {
        BruteOutcome::Certain => prop_assert!(oracle),
        BruteOutcome::NotCertain(r) => {
            prop_assert!(!oracle);
            prop_assert_eq!(r.len(), big.block_count());
            let mut blocks: Vec<_> = r.facts().iter().map(|&f| big.block_of(f)).collect();
            blocks.sort_unstable();
            blocks.dedup();
            prop_assert_eq!(blocks.len(), big.block_count(), "one fact per block");
            prop_assert!(r.facts().iter().all(|&f| big.is_live(f)));
            prop_assert!(!satisfies(&big_sols, r.facts()), "the witness falsifies q");
        }
        BruteOutcome::BudgetExhausted => prop_assert!(false, "an unbounded search exhausted"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn solution_free_blocks_change_no_verdict_and_no_component_count(
        which in 0usize..QUERIES.len(),
        rows in proptest::collection::vec(proptest::collection::vec(0u8..3, 3), 1..9),
        pairs in 0usize..6,
        singles in 0usize..300,
    ) {
        let (text, class) = QUERIES[which];
        let q = parse_query(text).unwrap();
        check(&q, class, &base_db(&q, &rows), pairs, singles)?;
    }
}

/// Each class on one fixed case with solutions, so that none depends on
/// the draw.
#[test]
fn every_class_ignores_a_large_padding() {
    let rows = [
        vec![0, 1, 2],
        vec![2, 0, 1],
        vec![1, 0, 1],
        vec![1, 2, 2],
        vec![0, 1, 0],
        vec![2, 2, 0],
    ];
    for (text, class) in QUERIES {
        let q = parse_query(text).unwrap();
        let db = base_db(&q, &rows);
        assert!(!SolutionSet::enumerate(&q, &db).is_empty(), "{text}");
        check(&q, class, &db, 4, 2_000).unwrap();
    }
}
