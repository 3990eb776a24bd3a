//! Copy-free views over a subset of a database's blocks.
//!
//! The component solvers (Proposition 10.6) repeatedly need "the database
//! restricted to these blocks". Materialising that restriction with
//! [`Database::restrict`] clones every fact, re-hashes every key and
//! rebuilds the dedup index — measured at ~2.8× over the literal solver on
//! certain-early mixed instances (see `BASELINES.md`). A [`DbView`] is the
//! copy-free alternative: it borrows the parent database and carries only
//! the parent's block and fact *ids*, so building one is two `Vec`
//! allocations of ids and nothing else.
//!
//! Views are always **block-aligned**: they contain whole blocks, never a
//! strict subset of a block. That is the shape every consumer needs (a
//! repair picks one fact per block, and q-connected components are unions
//! of blocks), and it keeps `repair_count`/`is_consistent` meaningful.
//!
//! Fact and block ids seen through a view are the **parent's** ids — a
//! view performs no renumbering. Consumers that need dense local indices
//! (e.g. graph adjacency arrays) use [`DbView::local_fact_index`] /
//! [`DbView::local_block_index`], which are `O(1)` on a full view and a
//! binary search otherwise.

use crate::{BlockId, Database, FactId, FactRef, Signature};

/// A borrowed, block-aligned view of a subset of a [`Database`].
///
/// Cheap to build (no fact is cloned, no element re-interned) and cheap to
/// consult (all lookups delegate to the parent). Fact and block ids seen
/// through a view are the **parent's** ids — no renumbering happens; use
/// the `local_*_index` methods for dense `0..len` indices.
#[derive(Clone, Debug)]
pub struct DbView<'a> {
    db: &'a Database,
    /// Parent block ids in ascending order.
    blocks: Vec<BlockId>,
    /// Parent fact ids in ascending order (exactly the facts of `blocks`).
    facts: Vec<FactId>,
}

impl Database {
    /// A view of the given blocks of this database (each block in full).
    /// Duplicate block ids are deduplicated.
    pub fn view_of_blocks(&self, blocks: impl IntoIterator<Item = BlockId>) -> DbView<'_> {
        let mut bs: Vec<BlockId> = blocks.into_iter().collect();
        bs.sort_unstable();
        bs.dedup();
        let mut facts: Vec<FactId> = Vec::with_capacity(bs.len());
        for &b in &bs {
            facts.extend_from_slice(self.block(b));
        }
        facts.sort_unstable();
        DbView {
            db: self,
            blocks: bs,
            facts,
        }
    }

    /// A view of the whole database. Local indices coincide with the
    /// parent ids, so consumers hit the `O(1)` index fast path.
    pub fn full_view(&self) -> DbView<'_> {
        DbView {
            db: self,
            blocks: self.block_ids().collect(),
            facts: self.fact_ids().collect(),
        }
    }
}

impl<'a> DbView<'a> {
    /// The database this view borrows from.
    pub fn parent(&self) -> &'a Database {
        self.db
    }

    /// The signature shared by all facts.
    pub fn signature(&self) -> &Signature {
        self.db.signature()
    }

    /// Number of facts in the view.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// `true` iff the view holds no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// `true` iff the view covers every fact of the parent.
    pub fn is_full(&self) -> bool {
        self.facts.len() == self.db.len()
    }

    /// The parent block ids of the view, ascending.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Number of blocks in the view.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The parent fact ids of the view, ascending.
    pub fn fact_ids(&self) -> &[FactId] {
        &self.facts
    }

    /// Iterator over `(parent id, fact)` pairs of the view.
    pub fn facts(&self) -> impl Iterator<Item = (FactId, FactRef<'a>)> + '_ {
        self.facts.iter().map(|&id| (id, self.db.fact(id)))
    }

    /// The fact with the given **parent** id (must belong to the view's
    /// parent; membership in the view itself is not checked).
    pub fn fact(&self, id: FactId) -> FactRef<'a> {
        self.db.fact(id)
    }

    /// The facts of a block, by **parent** block id.
    pub fn block(&self, b: BlockId) -> &'a [FactId] {
        self.db.block(b)
    }

    /// `true` iff the fact (parent id) belongs to the view.
    pub fn contains_fact(&self, id: FactId) -> bool {
        // Identity fast path only when raw ids are dense 0..len indices —
        // after a retraction the parent has tombstoned slots and full
        // coverage no longer implies identity.
        if self.is_full() && self.db.is_dense() {
            return id.idx() < self.db.len();
        }
        self.facts.binary_search(&id).is_ok()
    }

    /// Dense position of a view fact in `0..len()`, or `None` when the
    /// fact is not part of the view. `O(1)` on a full view of a dense
    /// (never-retracted-from) database.
    pub fn local_fact_index(&self, id: FactId) -> Option<usize> {
        if self.is_full() && self.db.is_dense() {
            return (id.idx() < self.db.len()).then(|| id.idx());
        }
        self.facts.binary_search(&id).ok()
    }

    /// Dense position of a view block in `0..block_count()`, or `None`
    /// when the block is not part of the view. `O(1)` on a full view of a
    /// dense database.
    pub fn local_block_index(&self, b: BlockId) -> Option<usize> {
        if self.blocks.len() == self.db.block_count() && self.db.is_dense() {
            return (b.idx() < self.blocks.len()).then(|| b.idx());
        }
        self.blocks.binary_search(&b).ok()
    }

    /// The number of repairs of the view (product of its block sizes,
    /// saturating at `u128::MAX`).
    pub fn repair_count(&self) -> u128 {
        let mut n: u128 = 1;
        for &b in &self.blocks {
            n = n.saturating_mul(self.db.block(b).len() as u128);
        }
        n
    }

    /// `true` iff every block of the view is a singleton.
    pub fn is_consistent(&self) -> bool {
        self.blocks.iter().all(|&b| self.db.block(b).len() == 1)
    }

    /// Materialise the view as a standalone [`Database`] (fact ids are
    /// **not** preserved). This is the old `restrict` copy — only for
    /// consumers that genuinely need an owned database, e.g. to insert
    /// more facts; the solvers operate on the view directly.
    pub fn to_database(&self) -> Database {
        self.db.restrict(self.facts.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Elem, Fact, Signature};

    fn db_2_1(rows: &[[&str; 2]]) -> Database {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn view_of_blocks_keeps_parent_ids() {
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"], ["c", "9"]]);
        let a1 = db.id_of(&Fact::from_names(["a", "1"])).unwrap();
        let ba = db.block_of(a1);
        let v = db.view_of_blocks([ba]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.block_count(), 1);
        assert!(v.contains_fact(a1));
        assert_eq!(v.local_fact_index(a1), Some(0));
        assert_eq!(v.fact(a1), db.fact(a1));
        assert!(!v.is_full());
        assert_eq!(v.repair_count(), 2);
        assert!(!v.is_consistent());
    }

    #[test]
    fn full_view_covers_everything_with_dense_indices() {
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        let v = db.full_view();
        assert!(v.is_full());
        assert_eq!(v.len(), db.len());
        assert_eq!(v.block_count(), db.block_count());
        for (i, (id, f)) in v.facts().enumerate() {
            assert_eq!(v.local_fact_index(id), Some(i));
            assert_eq!(f, db.fact(id));
        }
        assert_eq!(v.repair_count(), db.repair_count());
    }

    #[test]
    fn duplicate_blocks_deduplicate() {
        let db = db_2_1(&[["a", "1"], ["b", "2"]]);
        let b0 = crate::BlockId(0);
        let v = db.view_of_blocks([b0, b0]);
        assert_eq!(v.block_count(), 1);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn non_member_lookups_return_none() {
        let db = db_2_1(&[["a", "1"], ["b", "2"], ["c", "3"]]);
        let b1 = db.id_of(&Fact::from_names(["b", "2"])).unwrap();
        let v = db.view_of_blocks([db.block_of(b1)]);
        let a1 = db.id_of(&Fact::from_names(["a", "1"])).unwrap();
        assert!(!v.contains_fact(a1));
        assert_eq!(v.local_fact_index(a1), None);
        assert_eq!(v.local_block_index(db.block_of(a1)), None);
        assert_eq!(v.local_block_index(db.block_of(b1)), Some(0));
    }

    #[test]
    fn to_database_materialises_the_same_fact_set() {
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        let a1 = db.id_of(&Fact::from_names(["a", "1"])).unwrap();
        let v = db.view_of_blocks([db.block_of(a1)]);
        let owned = v.to_database();
        assert_eq!(owned.len(), 2);
        assert!(owned.contains(&Fact::from_names(["a", "1"])));
        assert!(owned.contains(&Fact::from_names(["a", "2"])));
    }

    #[test]
    fn full_view_over_tombstoned_db_uses_search_not_identity() {
        let mut db = db_2_1(&[["a", "1"], ["b", "2"], ["c", "3"]]);
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["a", "1"])])
            .unwrap();
        let dead = rep.retracted[0];
        let v = db.full_view();
        assert!(v.is_full());
        assert_eq!(v.len(), 2);
        assert!(!v.contains_fact(dead));
        assert_eq!(v.local_fact_index(dead), None);
        for (i, (id, f)) in v.facts().enumerate() {
            assert_eq!(v.local_fact_index(id), Some(i));
            assert_eq!(f, db.fact(id));
        }
        for (i, &b) in v.blocks().iter().enumerate() {
            assert_eq!(v.local_block_index(b), Some(i));
        }
    }

    #[test]
    fn empty_view_is_consistent_with_one_repair() {
        let db = db_2_1(&[["a", "1"]]);
        let v = db.view_of_blocks(std::iter::empty());
        assert!(v.is_empty());
        assert!(v.is_consistent());
        assert_eq!(v.repair_count(), 1);
        let _ = Elem::named("touch"); // keep the interner import honest
    }
}
