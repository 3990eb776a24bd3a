//! Property tests for `CertKScratch` reuse: a component fan-out worker
//! decides all its components in one scratch, so what a scratch decided
//! before must never show in a later run. On random q3 and q6 databases,
//! every support component and then the whole database are decided one
//! after another in one scratch, and each run's `(outcome, CertKStats)`
//! must be Debug-equal to a fresh scratch's on the same view.

use cqa_model::{Database, Elem, Fact, Signature};
use cqa_query::{examples, Query};
use cqa_solvers::{
    certk_view, support_partition, CancelToken, CertKConfig, CertKScratch, SolutionSet,
};
use proptest::prelude::*;

/// Random databases over `signature`, each position drawn from
/// `0..domain`: small domains, so blocks collide and join.
fn db_strategy(
    key_len: usize,
    arity: usize,
    domain: u8,
    facts: std::ops::Range<usize>,
) -> impl Strategy<Value = Database> {
    let fact = proptest::collection::vec(0..domain, arity);
    proptest::collection::vec(fact, facts).prop_map(move |rows| {
        let mut db = Database::new(Signature::new(arity, key_len).unwrap());
        for row in rows {
            let t: Vec<Elem> = row.into_iter().map(|v| Elem::int(v as i64)).collect();
            db.insert(Fact::r(t)).unwrap();
        }
        db
    })
}

/// Decide every support component of `db`, then the whole database, in
/// one scratch per `k`, each run against a fresh scratch.
fn assert_reuse_is_invisible(q: &Query, db: &Database) {
    let solutions = SolutionSet::enumerate(q, db);
    let mut views: Vec<_> = support_partition(db, &solutions)
        .into_iter()
        .map(|blocks| db.view_of_blocks(blocks))
        .collect();
    views.push(db.full_view());
    let calm = CancelToken::new();
    for k in 1..=3usize {
        let cfg = CertKConfig::new(k);
        let mut reused = CertKScratch::default();
        for view in &views {
            let warm = reused.certk_view(view, &solutions, cfg, &calm);
            let fresh = certk_view(view, &solutions, cfg, &calm);
            assert_eq!(format!("{warm:?}"), format!("{fresh:?}"), "k={k} on {db:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn a_reused_scratch_decides_q3_like_a_fresh_one(db in db_strategy(1, 2, 6, 1..16)) {
        assert_reuse_is_invisible(&examples::q3(), &db);
    }

    #[test]
    fn a_reused_scratch_decides_q6_like_a_fresh_one(db in db_strategy(1, 3, 3, 1..9)) {
        assert_reuse_is_invisible(&examples::q6(), &db);
    }
}
