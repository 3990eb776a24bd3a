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
//! ### Layout
//! Facts are stored as columns indexed by [`FactId`]: a relation column
//! and one flat element column holding `arity` elements per fact, so a
//! fact costs its elements and nothing per fact beyond them; readers get
//! a borrowed [`FactRef`] into the columns. A block keeps up to four
//! member ids inline (the common case by far) and a longer member list
//! in a side map. The two hash indexes — facts by their tuple, blocks by
//! their key — hold one 8-byte word per id, tagged with the top half of
//! a keyed 64-bit hash, and check every tag hit against the columns (a
//! block through one of its facts), so they never hash a tuple twice.
//! Their hash keys are drawn per database and cloned with it.
//!
//! Versions share storage. The id-indexed columns are chunked and the
//! hash indexes split into pieces, each piece behind an `Arc` and written
//! copy-on-write (the `store` module), so a clone copies piece pointers
//! (and each column's short append tail) and a delta applied to the
//! clone copies only the pieces it writes. A live update therefore costs
//! O(delta) in the database layer, and predecessor and successor stay
//! fully independent values.

use crate::store::{ChunkVec, IdIndex, IndexHasher, ShardMap};
use crate::{Elem, Fact, FactRef, ModelError, RelId, Signature};
use std::collections::HashMap;
use std::fmt;
use std::mem::size_of;

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

/// Tombstone marker in `fact_block` for retracted fact slots.
const DEAD: BlockId = BlockId(u32::MAX);

/// Member ids a block holds without a heap allocation.
const INLINE: usize = 4;

/// A block's members. Up to [`INLINE`] ids sit in `ids`; a longer list
/// lives in [`Database`]'s `spilled` map. `ids[0]` is always a fact that
/// is or was a member, so it carries the block's key even when the block
/// is empty: the key index checks its hits against that fact.
#[derive(Clone, Copy, Debug)]
struct Members {
    len: u32,
    ids: [FactId; INLINE],
}

impl Members {
    fn one(id: FactId) -> Members {
        Members {
            len: 1,
            ids: [id; INLINE],
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }
}

/// The `spilled` key of block `b`: its id spread over all 64 bits by an
/// odd multiplier (a bijection, so keys never collide).
fn spill_key(b: BlockId) -> u64 {
    u64::from(b.0).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The facts by id: a relation column and a flat element column with
/// `arity` elements per fact.
#[derive(Clone)]
struct FactColumns {
    rels: ChunkVec<RelId>,
    elems: ChunkVec<Elem>,
}

impl FactColumns {
    fn new(arity: usize) -> FactColumns {
        FactColumns {
            rels: ChunkVec::default(),
            elems: ChunkVec::with_width(arity),
        }
    }

    fn len(&self) -> usize {
        self.rels.len()
    }

    fn get(&self, id: usize) -> FactRef<'_> {
        FactRef::new(self.rels[id], self.elems.row(id))
    }

    fn push(&mut self, fact: FactRef<'_>) {
        self.rels.push(fact.rel());
        self.elems.push_row(fact.tuple());
    }
}

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
/// `Clone` is cheap: it copies chunk, shard and index-piece pointers (and
/// each column's append tail of under 256 rows), and the clone and the
/// original share every such piece until one of them writes to it.
#[derive(Clone)]
pub struct Database {
    sig: Signature,
    facts: FactColumns,
    fact_block: ChunkVec<BlockId>,
    blocks: ChunkVec<Members>,
    /// Member lists of the blocks with more than [`INLINE`] members, by
    /// [`spill_key`].
    spilled: ShardMap<Vec<FactId>>,
    /// Ids held in `spilled`, for [`Database::approx_bytes`].
    spilled_ids: usize,
    /// Live fact ids by the hash of the whole fact.
    fact_index: IdIndex,
    /// Block ids by the hash of the relation and key.
    key_index: IdIndex,
    hasher: IndexHasher,
    /// Facts minus tombstones. Equals `facts.len()` until a retraction.
    live_facts: usize,
    /// Blocks holding at least one live fact.
    live_blocks: usize,
}

impl Database {
    /// An empty database with the given signature.
    pub fn new(sig: Signature) -> Database {
        Database::with_hasher(sig, IndexHasher::default())
    }

    fn with_hasher(sig: Signature, hasher: IndexHasher) -> Database {
        Database {
            sig,
            facts: FactColumns::new(sig.arity()),
            fact_block: ChunkVec::default(),
            blocks: ChunkVec::default(),
            spilled: ShardMap::default(),
            spilled_ids: 0,
            fact_index: IdIndex::default(),
            key_index: IdIndex::default(),
            hasher,
            live_facts: 0,
            live_blocks: 0,
        }
    }

    /// The signature shared by all facts.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    fn check_arity(&self, arity: usize) -> Result<(), ModelError> {
        if arity != self.sig.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.sig.arity(),
                got: arity,
            });
        }
        Ok(())
    }

    /// Insert a fact. Databases are sets: inserting an existing fact returns
    /// the existing id and does not change the database.
    ///
    /// # Errors
    /// Rejects facts whose arity differs from the database signature.
    pub fn insert(&mut self, fact: Fact) -> Result<FactId, ModelError> {
        self.insert_ref(fact.as_fact_ref())
    }

    /// [`Database::insert`] of a borrowed fact: its elements are copied
    /// into the columns, so the caller may reuse the buffer they sit in.
    ///
    /// # Errors
    /// Rejects facts whose arity differs from the database signature.
    pub fn insert_ref(&mut self, fact: FactRef<'_>) -> Result<FactId, ModelError> {
        self.check_arity(fact.arity())?;
        Ok(self.add(fact).0)
    }

    /// Insert a fact of the signature's arity, probing each index once.
    /// Returns its id and, if the fact is new, whether its block held a
    /// live fact before.
    fn add(&mut self, fact: FactRef<'_>) -> (FactId, Option<bool>) {
        let hash = self.hasher.hash(&fact);
        let facts = &self.facts;
        let (id, new) = self
            .fact_index
            .find_or_push(hash, |id| facts.get(id as usize) == fact);
        let id = FactId(id);
        if !new {
            return (id, None);
        }
        debug_assert_eq!(id.idx(), self.facts.len(), "ids are dense");
        self.facts.push(fact);
        let key = &fact.tuple()[..self.sig.key_len()];
        let hash = self.hasher.hash(&(fact.rel(), key));
        let (facts, blocks) = (&self.facts, &self.blocks);
        let (block, fresh) = self.key_index.find_or_push(hash, |b| {
            let rep = facts.get(blocks[b as usize].ids[0].idx());
            rep.rel() == fact.rel() && &rep.tuple()[..key.len()] == key
        });
        let block = BlockId(block);
        let was_nonempty = if fresh {
            self.blocks.push(Members::one(id));
            false
        } else {
            // The block may have been emptied by an earlier retraction;
            // refilling it revives the same BlockId.
            self.push_member(block, id)
        };
        if !was_nonempty {
            self.live_blocks += 1;
        }
        self.fact_block.push(block);
        self.live_facts += 1;
        (id, Some(was_nonempty))
    }

    /// Append `id` to block `b`'s members; returns whether it had any.
    fn push_member(&mut self, b: BlockId, id: FactId) -> bool {
        let members = self.blocks.get_mut(b.idx());
        let len = members.len();
        members.len += 1;
        if len < INLINE {
            members.ids[len] = id;
        } else if len == INLINE {
            let mut list = members.ids.to_vec();
            list.push(id);
            self.spilled.insert(spill_key(b), list);
            self.spilled_ids += INLINE + 1;
        } else {
            self.spilled
                .get_mut(spill_key(b))
                .expect("a long block's members are spilled")
                .push(id);
            self.spilled_ids += 1;
        }
        len > 0
    }

    /// Remove member `id` from block `b`, keeping the others in order;
    /// returns whether the block is now empty.
    fn remove_member(&mut self, b: BlockId, id: FactId) -> bool {
        let members = self.blocks.get_mut(b.idx());
        let len = members.len();
        members.len -= 1;
        if len <= INLINE {
            // Removing the last member leaves it in `ids[0]`: the empty
            // block keeps a fact with its key.
            let at = members.ids[..len]
                .iter()
                .position(|&m| m == id)
                .expect("the fact is a member of its block");
            members.ids.copy_within(at + 1..len, at);
        } else {
            let list = self
                .spilled
                .get_mut(spill_key(b))
                .expect("a long block's members are spilled");
            list.retain(|&m| m != id);
            self.spilled_ids -= 1;
            if len == INLINE + 1 {
                members.ids.copy_from_slice(list);
                self.spilled.remove(spill_key(b));
                self.spilled_ids -= INLINE;
            }
        }
        len == 1
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
    /// fact is inserted later. Each fact probes each index it needs once.
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
            self.check_arity(f.arity())?;
        }
        // block -> whether it held a fact before this delta started.
        let mut touched: HashMap<BlockId, bool> = HashMap::new();
        let mut report = DeltaReport::default();
        for f in retracts {
            let f = f.as_fact_ref();
            let hash = self.hasher.hash(&f);
            let facts = &self.facts;
            let Some(id) = self.fact_index.take(hash, |id| facts.get(id as usize) == f) else {
                continue;
            };
            let id = FactId(id);
            let b = self.fact_block[id.idx()];
            touched.entry(b).or_insert(true);
            if self.remove_member(b, id) {
                self.live_blocks -= 1;
            }
            *self.fact_block.get_mut(id.idx()) = DEAD;
            self.live_facts -= 1;
            report.retracted.push(id);
        }
        for f in inserts {
            let (id, Some(was_nonempty)) = self.add(f.as_fact_ref()) else {
                continue;
            };
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

    /// The fact with the given id, borrowed from the columns. A retracted
    /// id still resolves to its old fact value — the slot is kept so ids
    /// stay stable; check [`Database::is_live`] when liveness matters.
    pub fn fact(&self, id: FactId) -> FactRef<'_> {
        self.facts.get(id.idx())
    }

    /// Iterator over live `(id, fact)` pairs.
    pub fn facts(&self) -> impl Iterator<Item = (FactId, FactRef<'_>)> {
        let arity = self.sig.arity();
        self.facts
            .rels
            .slices()
            .zip(self.facts.elems.slices())
            .zip(self.fact_block.slices())
            .flat_map(move |((rels, elems), blocks)| {
                rels.iter().zip(elems.chunks_exact(arity)).zip(blocks)
            })
            .enumerate()
            .filter(|&(_, (_, &b))| b != DEAD)
            .map(|(i, ((&rel, tuple), _))| (FactId(i as u32), FactRef::new(rel, tuple)))
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
    pub fn id_of<'f>(&self, fact: impl Into<FactRef<'f>>) -> Option<FactId> {
        let fact = fact.into();
        let facts = &self.facts;
        self.fact_index
            .find(self.hasher.hash(&fact), |id| facts.get(id as usize) == fact)
            .map(FactId)
    }

    /// `true` iff the fact is present.
    pub fn contains<'f>(&self, fact: impl Into<FactRef<'f>>) -> bool {
        self.id_of(fact).is_some()
    }

    /// The block a fact belongs to. The id must be live.
    pub fn block_of(&self, id: FactId) -> BlockId {
        let b = self.fact_block[id.idx()];
        debug_assert!(b != DEAD, "block_of on a retracted fact id");
        b
    }

    /// The facts of a block.
    pub fn block(&self, b: BlockId) -> &[FactId] {
        let members = &self.blocks[b.idx()];
        match members.len() {
            len if len <= INLINE => &members.ids[..len],
            _ => self
                .spilled
                .get(spill_key(b))
                .expect("a long block's members are spilled"),
        }
    }

    /// Iterator over all live (non-empty) block ids, ascending.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, members)| members.len > 0)
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
        self.blocks.iter().all(|b| b.len <= 1)
    }

    /// Approximate resident size of this database in bytes, for memory
    /// budgeting (the `cqa serve` session manager evicts by this number).
    /// O(1): a function of the slot counts, the spilled member lists and
    /// the signature.
    ///
    /// Per fact slot it counts the fact's relation and elements in the
    /// columns, its `fact_block` entry, and its fact-index entry (one
    /// word in the table); per block slot, the inline member record and
    /// its key-index entry; per block of more than four facts, its
    /// spilled member list and that list's map entry. The global element
    /// interner is shared by every database of the process, so it is
    /// deliberately *not* attributed here. Versions
    /// of a live database share the chunks and pieces they have not
    /// written, but each version counts every piece in full: the figure
    /// is an upper bound on what dropping the version alone would free,
    /// so a memory budget that sums it over resident sessions errs on the
    /// side of evicting. The estimate is deterministic in the database's
    /// history and grows with every insertion.
    pub fn approx_bytes(&self) -> usize {
        let (per_fact, per_block) = self.slot_bytes();
        // A spilled list: its map entry and allocator header, and its ids
        // with the slack of a doubling `Vec`.
        let spilled = self.spilled.len() * (table_bytes(size_of::<(u64, Vec<FactId>)>()) + 16)
            + self.spilled_ids * size_of::<FactId>() * 3 / 2;
        self.facts.len() * per_fact + self.blocks.len() * per_block + spilled
    }

    /// [`Database::approx_bytes`]'s figures per fact slot and per block
    /// slot.
    fn slot_bytes(&self) -> (usize, usize) {
        let index_entry = INDEX_WORD_BYTES;
        let per_fact = size_of::<RelId>()
            + self.sig.arity() * size_of::<Elem>()
            + size_of::<BlockId>()
            + index_entry;
        let per_block = size_of::<Members>() + index_entry;
        (per_fact, per_block)
    }

    /// The number of repairs, i.e. the product of block sizes, saturating at
    /// `u128::MAX`. Can be astronomically large — that is the point of the
    /// paper.
    pub fn repair_count(&self) -> u128 {
        let mut n: u128 = 1;
        for b in self.blocks.iter() {
            if b.len > 0 {
                n = n.saturating_mul(u128::from(b.len));
            }
        }
        n
    }

    /// A new database containing exactly the given facts of this one
    /// (sub-database). Fact ids are **not** preserved.
    pub fn restrict(&self, ids: impl IntoIterator<Item = FactId>) -> Database {
        let mut sub = Database::new(self.sig);
        for id in ids {
            sub.add(self.fact(id));
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
            self.add(f);
        }
        Ok(())
    }
}

/// Footprint of one hash-table entry of `entry` bytes: the bucket and
/// its control byte, over an average load of 2/3 (the tables resize at
/// 7/8 full, which leaves them 7/16 full).
const fn table_bytes(entry: usize) -> usize {
    (entry + 1) * 3 / 2
}

/// Footprint of one id-index entry: an 8-byte word over an average load
/// of 9/16 (the tables double at 3/4 full, which leaves them 3/8 full).
const INDEX_WORD_BYTES: usize = size_of::<u64>() * 16 / 9;

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
    use std::collections::BTreeMap;

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
        let facts_after: Vec<Fact> = db.facts().map(|(_, f)| f.to_fact()).collect();
        let rep2 = db.apply_delta(&ins, &del).unwrap();
        assert!(rep2.is_noop());
        let facts_again: Vec<Fact> = db.facts().map(|(_, f)| f.to_fact()).collect();
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
    /// column, sharded map and id index of `db`.
    fn sharing(db: &Database, other: &Database) -> (usize, usize) {
        let shared = db.facts.rels.shared_with(&other.facts.rels)
            + db.facts.elems.shared_with(&other.facts.elems)
            + db.fact_block.shared_with(&other.fact_block)
            + db.blocks.shared_with(&other.blocks)
            + db.spilled.shared_with(&other.spilled)
            + db.fact_index.shared_with(&other.fact_index)
            + db.key_index.shared_with(&other.key_index);
        let total = db.facts.rels.pieces()
            + db.facts.elems.pieces()
            + db.fact_block.pieces()
            + db.blocks.pieces()
            + db.spilled.pieces()
            + db.fact_index.pieces()
            + db.key_index.pieces();
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
        // The first delta on a clone splits each index into pieces (once);
        // its result is the version every later delta shares with.
        let mut base = loaded.clone();
        base.apply_delta(&[Fact::r(vec![Elem::int(-1), Elem::int(-1)])], &[])
            .unwrap();
        // A clone shares every sealed chunk, shard and index piece; only
        // the four columns' unsealed tails are its own copies.
        let (shared, total) = sharing(&base.clone(), &base);
        assert_eq!(shared + 4, total);
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
            // Beyond the four tails, at most three written pieces: index
            // pieces, a member chunk and a block-id chunk.
            let (shared, total) = sharing(&next, &base);
            assert!(
                total - shared <= 4 + 3,
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
        // [2, 1] on a 64-bit target. Per fact slot: a 2-byte relation,
        // two 4-byte elements, a 4-byte block id, and a fact-index entry
        // (one 8-byte word at 9/16 load, 14 bytes). Per block slot: the
        // 20-byte inline member record and a key-index entry of 14 bytes.
        // A layout change must update both.
        let db = db_2_1(&[["a", "1"]]);
        assert_eq!(db.slot_bytes(), (2 + 8 + 4 + 14, 20 + 14));
        assert_eq!(db.approx_bytes(), 28 + 34);
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["b", "1"]]);
        assert_eq!(db.approx_bytes(), 3 * 28 + 2 * 34);
        // A fifth member spills the block's list: its map entry (49
        // bytes at 2/3 load), an allocator header, and 6 bytes per id.
        let db = db_2_1(&[["a", "1"], ["a", "2"], ["a", "3"], ["a", "4"], ["a", "5"]]);
        assert_eq!(db.approx_bytes(), 5 * 28 + 34 + (49 + 16) + 5 * 6);
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

    #[test]
    fn long_blocks_spill_and_return_inline_in_order() {
        let rows: Vec<[String; 2]> = (0..7).map(|i| ["a".into(), i.to_string()]).collect();
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        let ids: Vec<FactId> = rows
            .iter()
            .map(|r| db.insert(Fact::from_names(r)).unwrap())
            .collect();
        let b = db.block_of(ids[0]);
        assert_eq!(db.block(b), &ids[..]);
        assert_eq!((db.spilled.len(), db.spilled_ids), (1, 7));
        let drop = |i: usize| Fact::from_names(&rows[i]);
        db.apply_delta(&[], &[drop(1), drop(4), drop(0)]).unwrap();
        assert_eq!(db.block(b), &[ids[2], ids[3], ids[5], ids[6]]);
        assert_eq!((db.spilled.len(), db.spilled_ids), (0, 0), "back inline");
        db.apply_delta(&[], &[drop(2), drop(3), drop(5), drop(6)])
            .unwrap();
        assert!(db.block(b).is_empty());
        assert_eq!(db.block_count(), 0);
        let rep = db.apply_delta(&[drop(4)], &[]).unwrap();
        assert_eq!(db.block_of(rep.inserted[0]), b, "the emptied block revives");
        assert_eq!(rep.fresh_blocks, vec![b]);
    }

    /// A database whose two indexes hash every fact and every key to one
    /// value, so every lookup walks one probe run of equal tags.
    fn colliding(sig: Signature) -> Database {
        Database::with_hasher(sig, IndexHasher::constant())
    }

    #[test]
    fn one_collision_chain_keeps_facts_and_blocks_apart() {
        let mut db = colliding(Signature::new(2, 1).unwrap());
        let f = |k: &str, v: &str| Fact::from_names([k, v]);
        let a1 = db.insert(f("a", "1")).unwrap();
        let a2 = db.insert(f("a", "2")).unwrap();
        let b1 = db.insert(f("b", "1")).unwrap();
        assert_eq!(db.insert(f("a", "2")).unwrap(), a2, "a duplicate is found");
        assert_eq!((db.len(), db.block_count()), (3, 2));
        assert!(db.key_equal(a1, a2) && !db.key_equal(a1, b1));
        assert_eq!(db.id_of(&f("b", "1")), Some(b1));
        assert!(!db.contains(&f("b", "2")));
        // Retract from the middle of the fact run, and empty b's block.
        let base = db.clone();
        let rep = db.apply_delta(&[], &[f("a", "2"), f("b", "1")]).unwrap();
        assert_eq!(rep.retracted, vec![a2, b1]);
        assert_eq!(db.id_of(&f("a", "1")), Some(a1));
        assert!(!db.contains(&f("a", "2")) && !db.contains(&f("b", "1")));
        // The emptied block revives under its old id, found through the
        // retracted fact it kept.
        let rep = db.apply_delta(&[f("b", "9"), f("c", "1")], &[]).unwrap();
        assert_eq!(db.block_of(rep.inserted[0]), base.block_of(b1));
        assert_eq!(db.block_slots(), 3);
        // The clone the delta started from is unchanged.
        assert_eq!(base.len(), 3);
        for (id, fact) in [(a1, f("a", "1")), (a2, f("a", "2")), (b1, f("b", "1"))] {
            assert_eq!(base.id_of(&fact), Some(id));
        }
        assert!(!base.contains(&f("b", "9")));
    }

    /// A tiny deterministic generator (xorshift) for the model checks.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// What a database must hold, kept with plain ordered maps: every
    /// slot's fact, the live ids, and each block's members in order.
    #[derive(Clone, Default)]
    struct Model {
        slots: Vec<Fact>,
        ids: BTreeMap<Fact, FactId>,
        blocks: BTreeMap<(RelId, Vec<Elem>), BlockId>,
        members: Vec<Vec<FactId>>,
    }

    impl Model {
        fn apply(&mut self, sig: &Signature, ins: &[Fact], ret: &[Fact]) -> DeltaReport {
            let mut report = DeltaReport::default();
            for f in ret {
                if let Some(id) = self.ids.remove(f) {
                    let key = (f.rel(), f.key(sig).to_vec());
                    self.members[self.blocks[&key].idx()].retain(|&m| m != id);
                    report.retracted.push(id);
                }
            }
            for f in ins {
                if self.ids.contains_key(f) {
                    continue;
                }
                let id = FactId(self.slots.len() as u32);
                self.slots.push(f.clone());
                self.ids.insert(f.clone(), id);
                let next = BlockId(self.blocks.len() as u32);
                let b = *self
                    .blocks
                    .entry((f.rel(), f.key(sig).to_vec()))
                    .or_insert(next);
                if b == next {
                    self.members.push(Vec::new());
                }
                self.members[b.idx()].push(id);
                report.inserted.push(id);
            }
            report
        }

        fn check(&self, db: &Database) {
            assert_eq!(db.len(), self.ids.len());
            assert_eq!(db.fact_slots(), self.slots.len());
            assert_eq!(db.block_slots(), self.members.len());
            for (i, f) in self.slots.iter().enumerate() {
                let id = FactId(i as u32);
                assert_eq!(db.fact(id), *f);
                assert_eq!(db.is_live(id), self.ids.get(f) == Some(&id));
                assert_eq!(db.id_of(f), self.ids.get(f).copied(), "{f}");
            }
            for (b, members) in self.members.iter().enumerate() {
                assert_eq!(db.block(BlockId(b as u32)), &members[..], "block {b}");
            }
            let live = self.members.iter().filter(|m| !m.is_empty()).count();
            assert_eq!(db.block_count(), live);
            let spilled: usize = self
                .members
                .iter()
                .map(Vec::len)
                .filter(|&n| n > INLINE)
                .sum();
            assert_eq!(db.spilled_ids, spilled);
        }
    }

    /// Random deltas (with every earlier version kept and re-checked)
    /// against the model, under the real hash and under one hash shared
    /// by every fact and key.
    fn delta_chain_matches_the_model(hasher: fn() -> IndexHasher, seed: u64) {
        let sig = Signature::new(3, 1).unwrap();
        let mut rng = Rng(seed);
        let fact = |rng: &mut Rng| {
            let rel = if rng.below(4) == 0 {
                RelId::R1
            } else {
                RelId::R
            };
            let tuple: Vec<Elem> = [6, 3, 4].map(|n| Elem::int(rng.below(n) as i64)).to_vec();
            Fact::new(rel, tuple)
        };
        let mut versions = vec![(Database::with_hasher(sig, hasher()), Model::default())];
        for round in 0..40 {
            let (db, model) = versions.last().expect("a version");
            let (mut db, mut model) = (db.clone(), model.clone());
            let ins: Vec<Fact> = (0..rng.below(12)).map(|_| fact(&mut rng)).collect();
            let ret: Vec<Fact> = (0..rng.below(8)).map(|_| fact(&mut rng)).collect();
            let report = db.apply_delta(&ins, &ret).unwrap();
            let want = model.apply(&sig, &ins, &ret);
            assert_eq!(
                (report.inserted, report.retracted),
                (want.inserted, want.retracted),
                "round {round}"
            );
            model.check(&db);
            versions.push((db, model));
        }
        for (db, model) in &versions {
            model.check(db);
        }
    }

    #[test]
    fn delta_chains_match_the_model_under_the_real_hash() {
        for seed in [1, 2, 3] {
            delta_chain_matches_the_model(IndexHasher::default, seed);
        }
    }

    #[test]
    fn delta_chains_match_the_model_on_one_collision_chain() {
        for seed in [1, 2, 3] {
            delta_chain_matches_the_model(IndexHasher::constant, seed);
        }
    }
}
