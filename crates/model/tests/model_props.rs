//! Property tests for the relational substrate: interner laws, block
//! partition invariants, repair axioms.

use cqa_model::{Database, Elem, ElemData, Fact, FactRef, Repair, RepairIter, Signature};
use proptest::prelude::*;
use std::collections::HashSet;

fn elem_strategy() -> impl Strategy<Value = Elem> {
    prop_oneof![
        "[a-e]{1,3}".prop_map(Elem::named),
        (-20i64..20).prop_map(Elem::int),
        ((-5i64..5), (-5i64..5)).prop_map(|(a, b)| Elem::pair(Elem::int(a), Elem::int(b))),
    ]
}

fn db_strategy(arity: usize, key_len: usize) -> impl Strategy<Value = Database> {
    proptest::collection::vec(proptest::collection::vec(elem_strategy(), arity), 0..12).prop_map(
        move |rows| {
            let mut db = Database::new(Signature::new(arity, key_len).unwrap());
            for row in rows {
                db.insert(Fact::r(row)).unwrap();
            }
            db
        },
    )
}

proptest! {
    // Bounded so the full workspace test run stays fast and, with the
    // vendored proptest's name-derived seeding, fully deterministic.
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn interning_is_injective_on_payloads(a in elem_strategy(), b in elem_strategy()) {
        prop_assert_eq!(a == b, a.data() == b.data());
    }

    #[test]
    fn pair_constructor_is_structural(a in elem_strategy(), b in elem_strategy()) {
        let p = Elem::pair(a, b);
        match p.data() {
            ElemData::Pair(x, y) => {
                prop_assert_eq!(x, a);
                prop_assert_eq!(y, b);
            }
            other => prop_assert!(false, "pair payload was {other:?}"),
        }
    }

    #[test]
    fn blocks_partition_facts(db in db_strategy(3, 1)) {
        // Every fact is in exactly one block; blocks hold key-equal facts;
        // facts in different blocks are not key-equal.
        let sig = *db.signature();
        let mut seen = HashSet::new();
        for b in db.block_ids() {
            for &f in db.block(b) {
                prop_assert!(seen.insert(f), "fact {f:?} in two blocks");
                prop_assert_eq!(db.block_of(f), b);
            }
            let first = db.fact(db.block(b)[0]);
            for &f in db.block(b) {
                prop_assert!(db.fact(f).key_equal(first, &sig));
            }
        }
        prop_assert_eq!(seen.len(), db.len());
    }

    #[test]
    fn insertion_is_idempotent_set_semantics(db in db_strategy(2, 1)) {
        let mut copy = db.clone();
        let before = copy.len();
        // Re-inserting every fact changes nothing.
        let facts: Vec<Fact> = db.facts().map(|(_, f)| f.to_fact()).collect();
        for f in facts {
            copy.insert(f).unwrap();
        }
        prop_assert_eq!(copy.len(), before);
        prop_assert_eq!(copy.block_count(), db.block_count());
    }

    #[test]
    fn repair_count_equals_block_size_product(db in db_strategy(2, 1)) {
        let expected: u128 = db.block_ids().map(|b| db.block(b).len() as u128).product();
        prop_assert_eq!(db.repair_count(), expected.max(1));
    }

    #[test]
    fn repair_iteration_enumerates_exactly_all(db in db_strategy(2, 1)) {
        prop_assume!(db.repair_count() <= 4096);
        let repairs: Vec<Repair> = RepairIter::new(&db).collect();
        prop_assert_eq!(repairs.len() as u128, db.repair_count());
        let set: HashSet<&Repair> = repairs.iter().collect();
        prop_assert_eq!(set.len(), repairs.len(), "duplicate repairs");
        for r in &repairs {
            // maximal + consistent: one chosen fact per block, right block.
            for b in db.block_ids() {
                prop_assert_eq!(db.block_of(r.chosen(b)), b);
            }
        }
    }

    #[test]
    fn replace_is_involutive(db in db_strategy(2, 1)) {
        prop_assume!(!db.is_empty());
        let r = Repair::first(&db);
        // Pick the first multi-fact block, if any.
        for b in db.block_ids() {
            let facts = db.block(b);
            if facts.len() >= 2 {
                let (f0, f1) = (facts[0], facts[1]);
                let swapped = r.replace(&db, f0, f1);
                prop_assert!(swapped.contains(&db, f1));
                let back = swapped.replace(&db, f1, f0);
                prop_assert_eq!(back, r);
                break;
            }
        }
    }

    #[test]
    fn restrict_preserves_membership(db in db_strategy(3, 2)) {
        let chosen: Vec<_> = db.fact_ids().step_by(2).collect();
        let sub = db.restrict(chosen.iter().copied());
        prop_assert_eq!(sub.len(), chosen.len());
        for id in chosen {
            prop_assert!(sub.contains(db.fact(id)));
        }
    }

    #[test]
    fn absorb_is_union(a in db_strategy(2, 1), b in db_strategy(2, 1)) {
        let mut u = a.clone();
        u.absorb(&b).unwrap();
        for (_, f) in a.facts() {
            prop_assert!(u.contains(f));
        }
        for (_, f) in b.facts() {
            prop_assert!(u.contains(f));
        }
        let distinct: HashSet<FactRef> =
            a.facts().map(|(_, f)| f).chain(b.facts().map(|(_, f)| f)).collect();
        prop_assert_eq!(u.len(), distinct.len());
    }
}

/// `R(i | j)` over small integers, so deltas collide with resident facts
/// and blocks.
fn int_fact(i: i64, j: i64) -> Fact {
    Fact::r(vec![Elem::int(i), Elem::int(j)])
}

/// A base of `n` facts spread over `n / 3 + 1` keys: large enough, for
/// `n` in the hundreds, to span several storage chunks and index shards.
fn base_rows(n: usize) -> Vec<Fact> {
    (0..n as i64)
        .map(|i| int_fact(i % (n as i64 / 3 + 1), i))
        .collect()
}

type Delta = (Vec<Fact>, Vec<Fact>);

fn delta_strategy() -> impl Strategy<Value = Delta> {
    let fact = ((0i64..40), (0i64..60)).prop_map(|(i, j)| int_fact(i, j));
    (
        proptest::collection::vec(fact.clone(), 0..6),
        proptest::collection::vec(fact, 0..6),
    )
}

/// Build the base and apply `deltas` in place on one database that is
/// never cloned, so it shares storage with nothing.
fn replay(base: &[Fact], deltas: &[Delta]) -> Database {
    let mut db = Database::new(Signature::new(2, 1).unwrap());
    db.insert_all(base.iter().cloned()).unwrap();
    for (ins, ret) in deltas {
        db.apply_delta(ins, ret).unwrap();
    }
    db
}

/// The blocks of `db` as sets of facts: the partition up to block ids.
fn partition(db: &Database) -> HashSet<Vec<Fact>> {
    db.block_ids()
        .map(|b| {
            let mut facts: Vec<Fact> = db.block(b).iter().map(|&f| db.fact(f).to_fact()).collect();
            facts.sort();
            facts
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every version of a delta chain, each derived from a clone of the
    /// one before and all kept alive, still equals a database built
    /// independently to the same point: no version's write shows up in
    /// another version through the storage they share.
    #[test]
    fn delta_chain_versions_stay_isolated(
        n in 0usize..700,
        deltas in proptest::collection::vec(delta_strategy(), 1..8),
    ) {
        let base = base_rows(n);
        let mut versions = vec![replay(&base, &[])];
        for (ins, ret) in &deltas {
            let mut next = versions.last().expect("the base is a version").clone();
            next.apply_delta(ins, ret).unwrap();
            versions.push(next);
        }
        for (v, db) in versions.iter().enumerate() {
            let want = replay(&base, &deltas[..v]);
            prop_assert_eq!(db.len(), want.len(), "version {}", v);
            prop_assert_eq!(db.fact_slots(), want.fact_slots(), "version {}", v);
            prop_assert_eq!(db.block_slots(), want.block_slots(), "version {}", v);
            prop_assert_eq!(db.block_count(), want.block_count(), "version {}", v);
            for i in 0..want.fact_slots() {
                let id = cqa_model::FactId(i as u32);
                prop_assert_eq!(db.is_live(id), want.is_live(id), "version {} slot {}", v, i);
                prop_assert_eq!(db.fact(id), want.fact(id), "version {} slot {}", v, i);
                prop_assert_eq!(db.id_of(want.fact(id)), want.id_of(want.fact(id)));
                if want.is_live(id) {
                    prop_assert_eq!(db.block_of(id), want.block_of(id));
                }
            }
            for b in want.block_ids() {
                prop_assert_eq!(db.block(b), want.block(b), "version {} block {:?}", v, b);
            }
            prop_assert!(db.block_ids().eq(want.block_ids()), "version {}", v);
            // And it equals a database rebuilt from its own live facts, up
            // to ids: the same fact set and the same block partition.
            let mut fresh = Database::new(*db.signature());
            fresh.insert_all(db.facts().map(|(_, f)| f.to_fact())).unwrap();
            prop_assert_eq!(fresh.len(), db.len());
            prop_assert_eq!(partition(&fresh), partition(db), "version {}", v);
        }
    }
}
