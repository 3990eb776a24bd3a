//! Databases, blocks and fact identifiers.
//!
//! A database is a finite set of facts (Section 2). It is partitioned into
//! *blocks*: maximal sets of key-equal facts. A database is *consistent*
//! when every block is a singleton. We maintain the block partition
//! incrementally under insertion, which makes block lookups O(1) and keeps
//! repair enumeration allocation-free per step.
//!
//! Databases are *live*: [`Database::apply_delta`] inserts and retracts
//! facts in place. Ids stay stable across deltas — retraction tombstones
//! the fact's slot instead of renumbering, so caches keyed by [`FactId`]
//! or [`BlockId`] (solution sets, antichains, component partitions) stay
//! valid for every untouched fact. See `docs/DELTAS.md`.
//!
//! Versions share storage. The id-indexed columns are chunked and the
//! hash indexes sharded, each piece behind an `Arc` and written
//! copy-on-write (the `store` module), so a clone copies piece pointers
//! (and each column's short append tail) and a delta applied to the
//! clone copies only the pieces it writes. A live update therefore costs
//! O(delta) in the database layer, and predecessor and successor stay
//! fully independent values.

use crate::store::{ChunkVec, ShardMap};
use crate::{Elem, Fact, ModelError, RelId, Signature};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// Index of a fact inside its [`Database`]. Stable: insertion never
/// renumbers, and retraction leaves a tombstoned slot behind rather than
/// shifting later ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub u32);

impl FactId {
    /// The index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Index of a block inside its [`Database`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A block's key: the relation and the key prefix of a member's shared
/// tuple. It hashes and compares only that prefix, so the block index
/// needs no key copy of its own.
#[derive(Clone)]
struct BlockKey {
    rel: RelId,
    key_len: u32,
    tuple: Arc<[Elem]>,
}

impl BlockKey {
    fn of(fact: &Fact, sig: &Signature) -> BlockKey {
        BlockKey {
            rel: fact.rel(),
            key_len: u32::try_from(sig.key_len()).expect("key length fits in u32"),
            tuple: Arc::clone(fact.shared_tuple()),
        }
    }

    fn key(&self) -> &[Elem] {
        &self.tuple[..self.key_len as usize]
    }
}

impl PartialEq for BlockKey {
    fn eq(&self, other: &BlockKey) -> bool {
        self.rel == other.rel && self.key() == other.key()
    }
}

impl Eq for BlockKey {}

impl Hash for BlockKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rel.hash(state);
        self.key().hash(state);
    }
}

/// Tombstone marker in `fact_block` for retracted fact slots.
const DEAD: BlockId = BlockId(u32::MAX);

/// Summary of one [`Database::apply_delta`] call: which facts actually
/// changed and which blocks were perturbed. No-op operations (inserting a
/// present fact, retracting an absent one) are not recorded — deltas are
/// set-semantic and idempotent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Ids of facts this delta added, in insertion order.
    pub inserted: Vec<FactId>,
    /// Ids of facts this delta removed (the ids are now tombstones).
    pub retracted: Vec<FactId>,
    /// Blocks that gained or lost at least one fact, ascending, deduped.
    pub touched: Vec<BlockId>,
    /// Subset of `touched`: blocks that held no fact before the delta.
    pub fresh_blocks: Vec<BlockId>,
}

impl DeltaReport {
    /// `true` iff the delta changed nothing.
    pub fn is_noop(&self) -> bool {
        self.inserted.is_empty() && self.retracted.is_empty()
    }

    /// `true` iff the delta only populated brand-new blocks: nothing was
    /// retracted and no pre-existing block changed. Reported to users by
    /// the wire `update` response and `cqa update --stats`.
    pub fn growth_only(&self) -> bool {
        self.retracted.is_empty() && self.touched.len() == self.fresh_blocks.len()
    }
}

/// An in-memory database of facts sharing one signature.
///
/// All relations in a database share the signature `[k, l]` — the paper's
/// setting has a single relation `R`, and its Section 4 detour uses two
/// relations `R1`, `R2` *of the same signature*.
///
/// `Clone` is cheap: it copies chunk and shard pointers (and each
/// column's append tail of under 256 entries), and the clone and the
/// original share every chunk and shard until one of them writes to it.
#[derive(Clone)]
pub struct Database {
    sig: Signature,
    facts: ChunkVec<Fact>,
    fact_block: ChunkVec<BlockId>,
    blocks: ChunkVec<Vec<FactId>>,
    by_key: ShardMap<BlockKey, BlockId>,
    dedup: ShardMap<Fact, FactId>,
    /// Facts minus tombstones. Equals `facts.len()` until a retraction.
    live_facts: usize,
    /// Blocks holding at least one live fact.
    live_blocks: usize,
}

impl Database {
    /// An empty database with the given signature.
    pub fn new(sig: Signature) -> Database {
        Database {
            sig,
            facts: ChunkVec::default(),
            fact_block: ChunkVec::default(),
            blocks: ChunkVec::default(),
            by_key: ShardMap::default(),
            dedup: ShardMap::default(),
            live_facts: 0,
            live_blocks: 0,
        }
    }

    /// The signature shared by all facts.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    /// Insert a fact. Databases are sets: inserting an existing fact returns
    /// the existing id and does not change the database.
    ///
    /// # Errors
    /// Rejects facts whose arity differs from the database signature.
    pub fn insert(&mut self, fact: Fact) -> Result<FactId, ModelError> {
        if fact.arity() != self.sig.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.sig.arity(),
                got: fact.arity(),
            });
        }
        let next =
            FactId(u32::try_from(self.facts.len()).expect("database exhausted (> 2^32 facts)"));
        let (id, new) = self.dedup.get_or_insert_with(fact.clone(), || next);
        if !new {
            return Ok(id);
        }
        let next = BlockId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        let (block, fresh) = self
            .by_key
            .get_or_insert_with(BlockKey::of(&fact, &self.sig), || next);
        if fresh {
            assert!(block != DEAD, "too many blocks");
            self.blocks.push(vec![id]);
            self.live_blocks += 1;
        } else {
            // The block may have been emptied by an earlier retraction;
            // refilling it revives the same BlockId.
            let members = self.blocks.get_mut(block.idx());
            if members.is_empty() {
                self.live_blocks += 1;
            }
            members.push(id);
        }
        self.facts.push(fact);
        self.fact_block.push(block);
        self.live_facts += 1;
        Ok(id)
    }

    /// Apply a batch of insertions and retractions in place, retractions
    /// first. Returns a [`DeltaReport`] of what actually changed.
    ///
    /// Deltas are set-semantic: inserting a fact already present and
    /// retracting one that is absent are no-ops, so re-applying the same
    /// delta (e.g. a retried wire `update`) leaves the fact set unchanged.
    /// Retraction tombstones the fact's slot — every other [`FactId`] and
    /// [`BlockId`] keeps its meaning, which is what lets solution sets,
    /// antichain snapshots and component partitions be patched instead of
    /// rebuilt. An emptied block keeps its id and revives if a key-equal
    /// fact is inserted later.
    ///
    /// # Errors
    /// Rejects the whole delta — mutating nothing — if any fact's arity
    /// differs from the database signature.
    pub fn apply_delta(
        &mut self,
        inserts: &[Fact],
        retracts: &[Fact],
    ) -> Result<DeltaReport, ModelError> {
        for f in inserts.iter().chain(retracts) {
            if f.arity() != self.sig.arity() {
                return Err(ModelError::ArityMismatch {
                    expected: self.sig.arity(),
                    got: f.arity(),
                });
            }
        }
        // block -> whether it held a fact before this delta started.
        let mut touched: HashMap<BlockId, bool> = HashMap::new();
        let mut report = DeltaReport::default();
        for f in retracts {
            let Some(&id) = self.dedup.get(f) else {
                continue;
            };
            let b = self.fact_block[id.idx()];
            touched.entry(b).or_insert(true);
            self.dedup.remove(f);
            let members = self.blocks.get_mut(b.idx());
            members.retain(|&m| m != id);
            if members.is_empty() {
                self.live_blocks -= 1;
            }
            *self.fact_block.get_mut(id.idx()) = DEAD;
            self.live_facts -= 1;
            report.retracted.push(id);
        }
        for f in inserts {
            if self.dedup.contains_key(f) {
                continue;
            }
            let was_nonempty = self
                .by_key
                .get(&BlockKey::of(f, &self.sig))
                .is_some_and(|b| !self.blocks[b.idx()].is_empty());
            let id = self.insert(f.clone())?;
            touched
                .entry(self.fact_block[id.idx()])
                .or_insert(was_nonempty);
            report.inserted.push(id);
        }
        let mut ts: Vec<(BlockId, bool)> = touched.into_iter().collect();
        ts.sort_unstable_by_key(|&(b, _)| b);
        for (b, was_nonempty) in ts {
            report.touched.push(b);
            if !was_nonempty {
                report.fresh_blocks.push(b);
            }
        }
        Ok(report)
    }

    /// Insert many facts; returns their ids in order.
    pub fn insert_all(
        &mut self,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Vec<FactId>, ModelError> {
        facts.into_iter().map(|f| self.insert(f)).collect()
    }

    /// Number of live facts (the paper's database *size* `n`).
    pub fn len(&self) -> usize {
        self.live_facts
    }

    /// `true` iff the database has no live facts.
    pub fn is_empty(&self) -> bool {
        self.live_facts == 0
    }

    /// Number of live (non-empty) blocks.
    pub fn block_count(&self) -> usize {
        self.live_blocks
    }

    /// Upper bound of the fact-id space: live facts plus tombstoned slots
    /// left behind by retractions. Use this — not [`Database::len`] — to
    /// size arrays indexed by raw [`FactId`] values.
    pub fn fact_slots(&self) -> usize {
        self.facts.len()
    }

    /// Upper bound of the block-id space, counting emptied blocks.
    pub fn block_slots(&self) -> usize {
        self.blocks.len()
    }

    /// `true` while no retraction has left holes: every fact slot is live
    /// and every block non-empty, so raw ids are dense `0..len` indices.
    pub fn is_dense(&self) -> bool {
        self.live_facts == self.facts.len() && self.live_blocks == self.blocks.len()
    }

    /// `true` iff the id refers to a live (non-retracted) fact.
    pub fn is_live(&self, id: FactId) -> bool {
        self.fact_block.get(id.idx()).is_some_and(|&b| b != DEAD)
    }

    /// The fact with the given id. A retracted id still resolves to its
    /// old fact value — the slot is kept so ids stay stable; check
    /// [`Database::is_live`] when liveness matters.
    pub fn fact(&self, id: FactId) -> &Fact {
        &self.facts[id.idx()]
    }

    /// Iterator over live `(id, fact)` pairs.
    pub fn facts(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts
            .slices()
            .zip(self.fact_block.slices())
            .flat_map(|(fs, bs)| fs.iter().zip(bs))
            .enumerate()
            .filter(|&(_, (_, &b))| b != DEAD)
            .map(|(i, (f, _))| (FactId(i as u32), f))
    }

    /// All live fact ids, ascending.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        self.fact_block
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b != DEAD)
            .map(|(i, _)| FactId(i as u32))
    }

    /// The id of `fact`, if present.
    pub fn id_of(&self, fact: &Fact) -> Option<FactId> {
        self.dedup.get(fact).copied()
    }

    /// `true` iff the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.dedup.contains_key(fact)
    }

    /// The block a fact belongs to. The id must be live.
    pub fn block_of(&self, id: FactId) -> BlockId {
        let b = self.fact_block[id.idx()];
        debug_assert!(b != DEAD, "block_of on a retracted fact id");
        b
    }

    /// The facts of a block.
    pub fn block(&self, b: BlockId) -> &[FactId] {
        &self.blocks[b.idx()]
    }

    /// Iterator over all live (non-empty) block ids, ascending.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(i, _)| BlockId(i as u32))
    }

    /// Key-equality of two facts in this database, `a ∼ b`. Both ids must
    /// be live.
    pub fn key_equal(&self, a: FactId, b: FactId) -> bool {
        debug_assert!(self.is_live(a) && self.is_live(b));
        self.fact_block[a.idx()] == self.fact_block[b.idx()]
    }

    /// `true` iff no block holds two distinct facts (Section 2).
    pub fn is_consistent(&self) -> bool {
        self.blocks.iter().all(|b| b.len() <= 1)
    }

    /// Approximate resident size of this database in bytes, for memory
    /// budgeting (the `cqa serve` session manager evicts by this number).
    /// O(1): a function of the slot and live counts and the signature.
    ///
    /// Per fact slot it counts the fact and its one shared tuple (the
    /// `Arc` counts and the elements), its `fact_block` entry, and its
    /// dedup-index entry, whose key shares that tuple; per block slot, the
    /// member list (header and buffer) and its key-index entry, whose key
    /// is a prefix of a member's tuple; per live fact, its 4-byte id in a
    /// member list. The global element interner is shared by every
    /// database of the process, so it is deliberately *not* attributed
    /// here. Versions of a live database share the
    /// chunks and shards they have not written, but each version counts
    /// every piece in full: the figure is an upper bound on what
    /// dropping the version alone would free, so a memory budget that
    /// sums it over resident sessions errs on the side of evicting. The
    /// estimate is deterministic in `(fact slots, block slots, live
    /// facts, signature)` and grows monotonically with insertions.
    pub fn approx_bytes(&self) -> usize {
        let (per_fact, per_block) = self.slot_bytes();
        self.facts.len() * per_fact
            + self.blocks.len() * per_block
            + self.live_facts * size_of::<FactId>()
    }

    /// [`Database::approx_bytes`]'s figures per fact slot and per block
    /// slot.
    fn slot_bytes(&self) -> (usize, usize) {
        let tuple = heap_bytes(2 * size_of::<usize>() + self.sig.arity() * size_of::<Elem>());
        let per_fact = size_of::<Fact>()
            + tuple
            + size_of::<BlockId>()
            + table_bytes(size_of::<(Fact, FactId)>());
        let per_block = size_of::<Vec<FactId>>()
            + heap_bytes(0)
            + table_bytes(size_of::<(BlockKey, BlockId)>());
        (per_fact, per_block)
    }

    /// The number of repairs, i.e. the product of block sizes, saturating at
    /// `u128::MAX`. Can be astronomically large — that is the point of the
    /// paper.
    pub fn repair_count(&self) -> u128 {
        let mut n: u128 = 1;
        for b in self.blocks.iter() {
            if !b.is_empty() {
                n = n.saturating_mul(b.len() as u128);
            }
        }
        n
    }

    /// A new database containing exactly the given facts of this one
    /// (sub-database). Fact ids are **not** preserved.
    pub fn restrict(&self, ids: impl IntoIterator<Item = FactId>) -> Database {
        let mut sub = Database::new(self.sig);
        for id in ids {
            sub.insert(self.fact(id).clone()).expect("same signature");
        }
        sub
    }

    /// Merge all facts of `other` into `self`. Signatures must agree.
    pub fn absorb(&mut self, other: &Database) -> Result<(), ModelError> {
        if other.sig != self.sig {
            return Err(ModelError::ArityMismatch {
                expected: self.sig.arity(),
                got: other.sig.arity(),
            });
        }
        for (_, f) in other.facts() {
            self.insert(f.clone())?;
        }
        Ok(())
    }
}

/// Heap footprint of a `bytes`-byte allocation: payload plus an 8-byte
/// allocator header, rounded up to 16, at least 32 (glibc's minimum
/// chunk).
const fn heap_bytes(bytes: usize) -> usize {
    let chunk = (bytes + 8).div_ceil(16) * 16;
    if chunk < 32 {
        32
    } else {
        chunk
    }
}

/// Footprint of one hash-table entry of `entry` bytes: the bucket and
/// its control byte, over an average load of 2/3 (the tables resize at
/// 7/8 full, which leaves them 7/16 full).
const fn table_bytes(entry: usize) -> usize {
    (entry + 1) * 3 / 2
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Database {} ({} facts, {} blocks):",
            self.sig,
            self.len(),
            self.block_count()
        )?;
        for b in self.block_ids() {
            write!(f, "  block {}:", b.0)?;
            for &id in self.block(b) {
                write!(f, " {}", self.fact(id))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_2_1(rows: &[[&str; 2]]) -> Database {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn blocks_partition_by_key() {
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.block_count(), 2);
        assert!(!db.is_consistent());
        assert_eq!(db.repair_count(), 2);
        let a1 = db.id_of(&Fact::from_names(["a", "1"])).unwrap();
        let a2 = db.id_of(&Fact::from_names(["a", "2"])).unwrap();
        let b1 = db.id_of(&Fact::from_names(["b", "1"])).unwrap();
        assert!(db.key_equal(a1, a2));
        assert!(!db.key_equal(a1, b1));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut db = db_2_1(&[["a", "1"]]);
        let id1 = db.id_of(&Fact::from_names(["a", "1"])).unwrap();
        let id2 = db.insert(Fact::from_names(["a", "1"])).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn different_relations_never_share_blocks() {
        let sig = Signature::new(2, 1).unwrap();
        let mut db = Database::new(sig);
        let k = Elem::named("k");
        let v = Elem::named("v");
        db.insert(Fact::new(RelId::R1, vec![k, v])).unwrap();
        db.insert(Fact::new(RelId::R2, vec![k, v])).unwrap();
        assert_eq!(db.block_count(), 2);
        assert!(db.is_consistent());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        let err = db.insert(Fact::from_names(["a", "b"])).unwrap_err();
        assert!(matches!(
            err,
            ModelError::ArityMismatch {
                expected: 3,
                got: 2
            }
        ));
    }

    #[test]
    fn empty_key_single_block() {
        let mut db = Database::new(Signature::new(1, 0).unwrap());
        db.insert(Fact::from_names(["a"])).unwrap();
        db.insert(Fact::from_names(["b"])).unwrap();
        db.insert(Fact::from_names(["c"])).unwrap();
        assert_eq!(db.block_count(), 1);
        assert_eq!(db.repair_count(), 3);
    }

    #[test]
    fn repair_count_saturates() {
        // 2^130 blocks would overflow u128; simulate with many 2-fact blocks.
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for i in 0..130 {
            db.insert(Fact::r(vec![Elem::int(i), Elem::named("x")]))
                .unwrap();
            db.insert(Fact::r(vec![Elem::int(i), Elem::named("y")]))
                .unwrap();
        }
        assert_eq!(db.repair_count(), u128::MAX);
    }

    #[test]
    fn restrict_builds_sub_database() {
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        let a1 = db.id_of(&Fact::from_names(["a", "1"])).unwrap();
        let b1 = db.id_of(&Fact::from_names(["b", "1"])).unwrap();
        let sub = db.restrict([a1, b1]);
        assert_eq!(sub.len(), 2);
        assert!(sub.is_consistent());
    }

    #[test]
    fn absorb_unions_fact_sets() {
        let mut d1 = db_2_1(&[["a", "1"]]);
        let d2 = db_2_1(&[["a", "1"], ["a", "2"]]);
        d1.absorb(&d2).unwrap();
        assert_eq!(d1.len(), 2);
        assert_eq!(d1.block_count(), 1);
    }

    #[test]
    fn apply_delta_reports_touched_and_fresh_blocks() {
        let mut db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        let rep = db
            .apply_delta(
                &[
                    Fact::from_names(["a", "3"]), // existing block
                    Fact::from_names(["c", "1"]), // brand-new block
                ],
                &[Fact::from_names(["b", "1"])],
            )
            .unwrap();
        assert_eq!(rep.inserted.len(), 2);
        assert_eq!(rep.retracted.len(), 1);
        assert_eq!(rep.touched.len(), 3);
        assert_eq!(rep.fresh_blocks.len(), 1);
        assert!(!rep.growth_only());
        assert_eq!(db.len(), 4);
        assert_eq!(db.block_count(), 2); // b's block is now empty
        assert_eq!(db.block_slots(), 3);
        assert!(!db.is_dense());
    }

    #[test]
    fn apply_delta_is_idempotent() {
        let mut db = db_2_1(&[["a", "1"], ["b", "1"]]);
        let ins = [Fact::from_names(["c", "1"])];
        let del = [Fact::from_names(["b", "1"])];
        db.apply_delta(&ins, &del).unwrap();
        let facts_after: Vec<Fact> = db.facts().map(|(_, f)| f.clone()).collect();
        let rep2 = db.apply_delta(&ins, &del).unwrap();
        assert!(rep2.is_noop());
        let facts_again: Vec<Fact> = db.facts().map(|(_, f)| f.clone()).collect();
        assert_eq!(facts_after, facts_again);
    }

    #[test]
    fn retraction_keeps_surviving_ids_stable() {
        let mut db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        let a2 = db.id_of(&Fact::from_names(["a", "2"])).unwrap();
        let b1 = db.id_of(&Fact::from_names(["b", "1"])).unwrap();
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["a", "1"])])
            .unwrap();
        let a1 = rep.retracted[0];
        assert!(!db.is_live(a1));
        assert!(db.is_live(a2));
        assert_eq!(db.id_of(&Fact::from_names(["a", "2"])), Some(a2));
        assert_eq!(db.id_of(&Fact::from_names(["b", "1"])), Some(b1));
        assert_eq!(db.len(), 2);
        assert_eq!(db.fact_slots(), 3);
        let ids: Vec<FactId> = db.fact_ids().collect();
        assert_eq!(ids, vec![a2, b1]);
        assert!(db.is_consistent());
        assert_eq!(db.repair_count(), 1);
    }

    #[test]
    fn emptied_block_revives_with_its_old_id() {
        let mut db = db_2_1(&[["a", "1"], ["b", "1"]]);
        let old_block = db.block_of(db.id_of(&Fact::from_names(["a", "1"])).unwrap());
        db.apply_delta(&[], &[Fact::from_names(["a", "1"])])
            .unwrap();
        assert_eq!(db.block_count(), 1);
        let rep = db
            .apply_delta(&[Fact::from_names(["a", "9"])], &[])
            .unwrap();
        assert_eq!(db.block_of(rep.inserted[0]), old_block);
        // The block existed before (as an empty shell) but held no fact, so
        // it counts as fresh.
        assert_eq!(rep.fresh_blocks, vec![old_block]);
        assert!(rep.growth_only());
    }

    #[test]
    fn growth_only_rejects_existing_block_touches() {
        let mut db = db_2_1(&[["a", "1"]]);
        let grow = db
            .apply_delta(&[Fact::from_names(["b", "7"])], &[])
            .unwrap();
        assert!(grow.growth_only());
        let touch = db
            .apply_delta(&[Fact::from_names(["a", "2"])], &[])
            .unwrap();
        assert!(!touch.growth_only());
    }

    #[test]
    fn apply_delta_rejects_bad_arity_atomically() {
        let mut db = db_2_1(&[["a", "1"]]);
        let err = db
            .apply_delta(
                &[Fact::from_names(["x", "y"])],
                &[Fact::from_names(["a", "1", "oops"])],
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
        assert_eq!(db.len(), 1);
        assert!(!db.contains(&Fact::from_names(["x", "y"])));
    }

    /// `(pieces shared with other, pieces in total)` over every chunked
    /// column and sharded index of `db`.
    fn sharing(db: &Database, other: &Database) -> (usize, usize) {
        let shared = db.facts.shared_with(&other.facts)
            + db.fact_block.shared_with(&other.fact_block)
            + db.blocks.shared_with(&other.blocks)
            + db.by_key.shared_with(&other.by_key)
            + db.dedup.shared_with(&other.dedup);
        let total = db.facts.pieces()
            + db.fact_block.pieces()
            + db.blocks.pieces()
            + db.by_key.pieces()
            + db.dedup.pieces();
        (shared, total)
    }

    #[test]
    fn one_fact_delta_copies_a_constant_number_of_pieces() {
        let mut loaded = Database::new(Signature::new(2, 1).unwrap());
        for i in 0..10_000 {
            loaded
                .insert(Fact::r(vec![Elem::int(i / 2), Elem::int(i)]))
                .unwrap();
        }
        // The first delta on a clone splits each index into shards (once);
        // its result is the version every later delta shares with.
        let mut base = loaded.clone();
        base.apply_delta(&[Fact::r(vec![Elem::int(-1), Elem::int(-1)])], &[])
            .unwrap();
        // A clone shares every sealed chunk and every shard; only the
        // three columns' unsealed tails are its own copies.
        let (shared, total) = sharing(&base.clone(), &base);
        assert_eq!(shared + 3, total);
        assert!(total > 100, "10^4 facts span many pieces ({total})");
        // Retract from an existing block, insert into an existing block,
        // open a fresh block: each writes a bounded set of pieces.
        for (ins, ret) in [
            (
                vec![],
                vec![Fact::r(vec![Elem::int(2_000), Elem::int(4_000)])],
            ),
            (vec![Fact::r(vec![Elem::int(3_000), Elem::int(-1)])], vec![]),
            (vec![Fact::r(vec![Elem::int(-5), Elem::int(-5)])], vec![]),
        ] {
            let mut next = base.clone();
            let report = next.apply_delta(&ins, &ret).unwrap();
            assert!(!report.is_noop());
            let (shared, total) = sharing(&next, &base);
            assert!(
                total - shared <= 6,
                "a one-fact delta copied {} of {total} pieces",
                total - shared
            );
            // The predecessor is untouched.
            assert_eq!(base.len(), 10_001);
            for f in ins.iter().chain(&ret) {
                assert_eq!(base.contains(f), ret.contains(f));
                assert_eq!(next.contains(f), ins.contains(f));
            }
        }
    }

    #[test]
    fn approx_bytes_pins_the_layout() {
        // [2, 1] on a 64-bit target. Per fact slot: the 24-byte `Fact`,
        // its 32-byte `Arc` tuple chunk (16 bytes of counts, two 4-byte
        // elements, the allocator header), a 4-byte block id, and a dedup
        // entry of 32 bytes at 2/3 load. Per block slot: the 24-byte
        // member `Vec`, its minimal 32-byte buffer, and a key-index entry
        // of 32 bytes at 2/3 load. A layout change must update both.
        let db = db_2_1(&[["a", "1"]]);
        assert_eq!(db.slot_bytes(), (24 + 32 + 4 + 49, 24 + 32 + 49));
        assert_eq!(db.approx_bytes(), 109 + 105 + 4);
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        assert_eq!(db.approx_bytes(), 3 * 109 + 2 * 105 + 3 * 4);
    }

    #[test]
    fn approx_bytes_is_monotone_and_scales_with_facts() {
        let empty = Database::new(Signature::new(2, 1).unwrap());
        assert_eq!(empty.approx_bytes(), 0);
        let small = db_2_1(&[["a", "1"]]);
        let big = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"], ["c", "9"]]);
        assert!(small.approx_bytes() > 0);
        assert!(big.approx_bytes() > small.approx_bytes());
        // Deterministic in the database shape.
        assert_eq!(
            big.approx_bytes(),
            db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"], ["c", "9"]]).approx_bytes()
        );
    }
}
