//! `certain(q)` for a query equivalent to one atom (Section 2): one scan
//! over the blocks, no solution set and no fixpoint.
//!
//! [`Query::is_one_atom_equivalent`] holds in two cases, and in both a
//! repair satisfies `q` iff it holds a fact `f` with `q(f f)`:
//!
//! 1. `q` retracts onto one atom, say `B`: then `q ≡ ∃ B`, and a fact
//!    matches `B` iff the retraction lets both atoms land on it;
//! 2. `key(A) = key(B)` as tuples: a solution `(f, g)` has key-equal
//!    facts, so in a repair, which keeps one fact per block, `f = g`.
//!
//! A repair picks one fact per block, independently of the other
//! blocks, so every repair holds such a fact iff some block consists only
//! of them. [`ForcingBlocks`] keeps that flag for every block: a cold
//! scan sets them all, and a delta rechecks only the blocks it touched.
//!
//! The per-fact test `q(f f)` ([`OneAtomPlan`]) reuses the atom plans
//! of the join (`crate::solution`): `f` must match both atoms, and its
//! projections onto the shared variables must agree. This is not the
//! position-wise unification [`Query::unified_atom`]: over signature
//! `[2, 0]`, `R(x v) R(v x)` unifies to an atom every fact matches, while
//! `q(f f)` needs `f = (a, a)`.

use crate::solution::{compile, holds_on_itself, AtomPlan};
use crate::CancelToken;
use cqa_model::{BlockId, Database, FactRef};
use cqa_query::Query;

/// How many blocks [`ForcingBlocks::scan`] scans between two polls of
/// its token.
const POLL_BLOCKS: usize = 1024;

/// The test `q(f f)`, compiled once from the query.
#[derive(Clone, Debug)]
pub struct OneAtomPlan([AtomPlan; 2]);

impl OneAtomPlan {
    /// Compile the test `q(f f)` for `q`.
    pub fn compile(q: &Query) -> OneAtomPlan {
        OneAtomPlan(compile(q))
    }

    /// `q(f f)`: one substitution sends both atoms to `fact`.
    pub fn holds<'f>(&self, fact: impl Into<FactRef<'f>>) -> bool {
        holds_on_itself(&self.0, fact.into())
    }

    /// Does block `b` of `db` hold facts, all of which pass [`Self::holds`]?
    /// Every repair then satisfies `q`. An emptied block is no witness.
    pub fn block_forces(&self, db: &Database, b: BlockId) -> bool {
        let facts = db.block(b);
        !facts.is_empty() && facts.iter().all(|&f| self.holds(db.fact(f)))
    }
}

/// `certain(q)` for a query with [`Query::is_one_atom_equivalent`], kept
/// per block: one flag per block slot of a database, "non-empty and every
/// fact `f` has `q(f f)`" ([`OneAtomPlan::block_forces`]), and the count
/// of set flags. `q` is certain iff the count is positive.
#[derive(Clone, Debug)]
pub struct ForcingBlocks {
    plan: OneAtomPlan,
    /// Indexed by block slot.
    forces: Vec<bool>,
    /// How many entries of `forces` are `true`.
    count: usize,
}

impl ForcingBlocks {
    /// The flag of every block of `db`. `None` when `token` was raised,
    /// which is checked before the first block and then every 1024
    /// blocks.
    pub fn scan(q: &Query, db: &Database, token: &CancelToken) -> Option<ForcingBlocks> {
        debug_assert!(
            q.is_one_atom_equivalent(),
            "{} is not one-atom",
            q.display()
        );
        let mut blocks = ForcingBlocks {
            plan: OneAtomPlan::compile(q),
            forces: vec![false; db.block_slots()],
            count: 0,
        };
        if token.is_cancelled() {
            return None;
        }
        for (n, b) in db.block_ids().enumerate() {
            if n % POLL_BLOCKS == POLL_BLOCKS - 1 && token.is_cancelled() {
                return None;
            }
            blocks.set(db, b);
        }
        Some(blocks)
    }

    /// Recompute the flags of `blocks` of `db`, such as the blocks a
    /// delta touched: a flag depends on its block alone.
    pub fn recheck(&mut self, db: &Database, blocks: impl IntoIterator<Item = BlockId>) {
        self.forces.resize(db.block_slots(), false);
        for b in blocks {
            self.set(db, b);
        }
    }

    fn set(&mut self, db: &Database, b: BlockId) {
        let now = self.plan.block_forces(db, b);
        let was = std::mem::replace(&mut self.forces[b.idx()], now);
        self.count = self.count + usize::from(now) - usize::from(was);
    }

    /// Does some block force `q`, so that every repair satisfies it?
    pub fn certain(&self) -> bool {
        self.count > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::certain_brute;
    use cqa_model::{Fact, Signature};
    use cqa_query::parse_query;

    fn db(sig: Signature, rows: &[&[&str]]) -> Database {
        let mut db = Database::new(sig);
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    fn decide(q: &Query, db: &Database) -> bool {
        ForcingBlocks::scan(q, db, &CancelToken::new())
            .expect("a calm token")
            .certain()
    }

    /// Over `[2, 0]` the whole relation is one block. `R(x v) R(v x)` has
    /// equal (empty) key tuples, and position-wise unification accepts
    /// every fact; `q(f f)` accepts only `(a, a)`.
    #[test]
    fn key_free_swap_needs_loops_not_the_unified_atom() {
        let q = parse_query("R(x v) R(v x)").unwrap();
        assert!(q.is_one_atom_equivalent());
        let sig = Signature::new(2, 0).unwrap();
        let unified = q.unified_atom().unwrap();
        assert_ne!(unified.at(0), unified.at(1), "the unifier is too weak");

        let non_loops = db(sig, &[&["a", "b"], &["b", "a"]]);
        assert!(!decide(&q, &non_loops));
        assert!(!certain_brute(&q, &non_loops));

        let loops = db(sig, &[&["a", "a"], &["b", "b"]]);
        assert!(decide(&q, &loops));
        assert!(certain_brute(&q, &loops));

        let mixed = db(sig, &[&["a", "a"], &["a", "b"]]);
        assert!(!decide(&q, &mixed));
        assert!(!certain_brute(&q, &mixed));
    }

    #[test]
    fn plan_checks_every_occurrence_in_both_atoms() {
        // x at A[0] and B[1], y at A[1] and B[0]: f[0] = f[1].
        let plan = OneAtomPlan::compile(&parse_query("R(y | x) R(x | x)").unwrap());
        assert!(plan.holds(&Fact::from_names(["a", "a"])));
        assert!(!plan.holds(&Fact::from_names(["a", "b"])));
        // No repeats anywhere: every fact passes.
        let plan = OneAtomPlan::compile(&parse_query("R(x | y) R(z | y)").unwrap());
        assert!(plan.holds(&Fact::from_names(["a", "b"])));
    }

    #[test]
    fn matches_brute_force_on_small_databases() {
        let sig = Signature::new(2, 1).unwrap();
        let dbs = [
            db(sig, &[&["a", "b"]]),
            db(sig, &[&["a", "a"], &["a", "b"]]),
            db(sig, &[&["a", "a"], &["a", "b"], &["c", "c"]]),
            db(sig, &[&["a", "b"], &["b", "a"], &["b", "b"]]),
            db(sig, &[&["a", "b"], &["b", "c"], &["c", "a"]]),
        ];
        for text in [
            "R(x | y) R(z | y)",
            "R(x | y) R(x | z)",
            "R(y | x) R(x | x)",
        ] {
            let q = parse_query(text).unwrap();
            assert!(q.is_one_atom_equivalent(), "{text}");
            for d in &dbs {
                assert_eq!(decide(&q, d), certain_brute(&q, d), "{text} on {d:?}");
            }
        }
    }

    #[test]
    fn raised_token_withholds_even_on_an_empty_view() {
        let q = parse_query("R(x | y) R(x | z)").unwrap();
        let raised = CancelToken::new();
        raised.cancel();
        let empty = Database::new(Signature::new(2, 1).unwrap());
        assert!(ForcingBlocks::scan(&q, &empty, &raised).is_none());
        assert_eq!(
            ForcingBlocks::scan(&q, &empty, &CancelToken::new()).map(|b| b.certain()),
            Some(false)
        );
    }
}
