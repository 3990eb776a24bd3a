//! The greedy fixpoint algorithm `Cert_k(q)` (Section 5, after \[3\]).
//!
//! `Δ_k(q, D)` is the least set of *k-sets* (consistent fact sets of size
//! ≤ k) closed under:
//!
//! * **seeds** — every k-set `S` with `S ⊨ q`;
//! * **derivation** — add `S` whenever some block `B` satisfies: for every
//!   fact `u ∈ B` there is `S′ ⊆ S ∪ {u}` with `S′ ∈ Δ_k(q, D)`.
//!
//! The invariant is that every repair containing a member of `Δ` satisfies
//! `q`; the algorithm answers *yes* iff `∅ ∈ Δ`. It is an
//! under-approximation of `certain(q)` for every `k`, exact for all PTime
//! self-join-free and path queries (with `k` = number of atoms), and — per
//! this paper — exact for 2way-determined queries without tripaths
//! (Proposition 8.2).
//!
//! ### Representation
//! `Δ` is kept as a ⊆-**antichain**: membership tests are all of the form
//! "`∃ S′ ∈ Δ, S′ ⊆ X`", so supersets of members are redundant. Derivation
//! candidates are generated per block as minimal unions `⋃_{u∈B} (M_u∖{u})`
//! over members `M_u ∋ u` — choices with `u ∉ M_u` can be discarded because
//! they force `S ⊇ M_u`, which the antichain already covers.
//!
//! A run numbers the view's facts `0..len` in parent-id order, so every
//! sorted fact set keeps its order, and nothing it stores allocates per
//! member, per requirement or per candidate:
//!
//! * the [`Antichain`] holds its members inline in one vector with stride
//!   `min(k, blocks)`, addressed by `u32` slot with a live flag per slot;
//!   a per-fact slot answers singleton probes and an open-addressing
//!   table of slots, hashed once per probe by a keyed hasher (fact ids
//!   follow the client's file order), answers longer ones; one intrusive
//!   list per fact links the slots holding it;
//! * each fact's ⊆-minimal requirement family is one `(offset, sets)`
//!   entry into one flat arena of `k − 1`-wide sets;
//! * the derivation search keeps its open partials and its candidates in
//!   flat stride-`k` buffers.
//!
//! All of it lives in a [`CertKScratch`], cleared between runs and not
//! freed: a component fan-out gives each worker one for all its
//! components, and drops it when the fan-out returns.
//!
//! ### Evaluation strategy
//! The fixpoint is evaluated *semi-naively*: superset pruning and the
//! requirement families reach members through the per-fact slot lists,
//! and stale slots are compacted once pruned members outnumber live ones;
//! each fact's requirement family is cached across rounds and invalidated
//! only when a member containing the fact is inserted or pruned; and a
//! **dirty-block worklist** replaces full passes — a block is re-derived
//! only when a member touching one of its facts changed, so converged
//! regions of the database are never rescanned. The reached fixpoint is the same as the naive full-pass evaluation (the
//! closure is confluent); the [`reference`](mod@reference) module keeps
//! the seed-era full-pass evaluator for differential testing.

use crate::cancel::POLL_STRIDE;
use crate::{CancelToken, SolutionSet};
use cqa_model::{Database, DbView, FactId};
use cqa_query::Query;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Tuning for [`certk_view`] and the component fan-out.
#[derive(Clone, Copy, Debug)]
pub struct CertKConfig {
    /// Maximum k-set size. The paper's proofs use enormous constants
    /// (`k = 2^{2κ+1} + κ − 1`); in practice small `k` converges — the
    /// experiment harness measures the k needed per query family.
    pub k: usize,
    /// Budget on derivation-search steps; exceeding it returns
    /// [`CertKOutcome::BudgetExhausted`]. Keeps the algorithm total on
    /// adversarial inputs where `Δ` blows up.
    pub node_budget: u64,
    /// Worker threads for the per-component fan-out of a cold
    /// [`DynamicComponents::solve`](crate::DynamicComponents::solve)
    /// ([`apply`](crate::DynamicComponents::apply) decides a delta's
    /// dirty region on the caller's thread). The fixpoint
    /// itself is sequential; this knob only controls how many components
    /// are decided concurrently. `1` preserves the fully sequential path
    /// (no threads spawned); the default is the host's available
    /// parallelism.
    ///
    /// Fan-out results are identical across thread counts — each
    /// component gets this same configuration (including `node_budget`)
    /// either way.
    pub threads: usize,
}

impl CertKConfig {
    /// Configuration with the given `k`, a generous default budget, and
    /// one solver thread per available hardware thread.
    pub fn new(k: usize) -> CertKConfig {
        CertKConfig {
            k,
            node_budget: 50_000_000,
            threads: minipool::max_threads(),
        }
    }

    /// This configuration with an explicit component-fan-out thread count
    /// (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> CertKConfig {
        self.threads = threads.max(1);
        self
    }
}

impl Default for CertKConfig {
    fn default() -> CertKConfig {
        CertKConfig::new(2)
    }
}

/// Result of running `Cert_k(q)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertKOutcome {
    /// `∅ ∈ Δ_k(q, D)` — the query is certain (sound for every `k`).
    Certain,
    /// The fixpoint completed without deriving `∅`. Not a proof of
    /// non-certainty unless the query class makes `Cert_k` exact.
    NotDerived,
    /// The step budget was exhausted; treat as [`CertKOutcome::NotDerived`]
    /// for soundness.
    BudgetExhausted,
}

impl CertKOutcome {
    /// `true` for [`CertKOutcome::Certain`].
    pub fn is_certain(self) -> bool {
        self == CertKOutcome::Certain
    }
}

/// `covers` enumerates the subsets of sets up to this size against the
/// exact-member index (≤ 2⁶ probes); larger sets fall back to scanning
/// the slot lists of their facts. `Cert_k` runs with k = 2 or 3, so the
/// fixpoint never leaves the fast path.
const COVERS_SUBSET_ENUM_MAX: usize = 6;

/// The end of a slot list, an empty index cell, a stale family entry, and
/// the padding of an inline set past its last fact (greater than every
/// fact, so padded sets of one length compare as their facts do).
const NIL: u32 = u32::MAX;
/// An index cell whose member was removed.
const TOMB: u32 = u32::MAX - 1;
const PAD: FactId = FactId(NIL);

/// A ⊆-antichain of sorted fact sets of at most `width` facts each.
///
/// Member `s` sits inline at `facts[s·width..]` with its length and a
/// live flag beside it; pruning a member clears the flag and leaves the
/// slot in place. Exact-member lookups let `covers` on a small set probe
/// its `2^|s| − 1` subsets directly: a singleton `{f}` through a per-fact
/// slot, a longer member through an open-addressing table of slots under
/// a keyed hash of the member (fact ids follow the client's file order,
/// so an unkeyed hash could be driven into collisions). Every fact heads
/// an intrusive list, threaded through one link per stored fact, of the
/// slots whose member holds it (`members_with` and superset pruning walk
/// these, pruning the shortest list among the new member's facts). Once
/// pruned slots outnumber live members the slots are compacted in order
/// (renumbering is invisible to callers, which only ever see member
/// slices). Nothing here allocates per member, and a [`CertKScratch`]
/// empties its antichain for the next run without freeing.
pub struct Antichain {
    /// Most facts a member may hold: the stride of `facts`.
    width: usize,
    /// Member slots, `width` facts each; a member's tail past its length
    /// is padding.
    facts: Vec<FactId>,
    /// Member length by slot.
    len: Vec<u32>,
    /// `false` for members pruned since the last compaction.
    live: Vec<bool>,
    /// Per fact: the first link of its slot list, or `NIL`.
    head: Vec<u32>,
    /// Per fact: the links in its slot list, stale ones included.
    listed: Vec<u32>,
    /// Per stored fact `slot·width + j`: the next link of that fact's list.
    next: Vec<u32>,
    /// Per fact `f`: the live slot of the member `{f}`, or `NIL`.
    unit: Vec<u32>,
    /// The live slots of members of two or more facts.
    table: SlotTable,
    /// Old slot → new slot (or `NIL`) during a compaction.
    renumbered: Vec<u32>,
    hasher: RandomState,
    has_empty: bool,
    live_count: usize,
    /// Pruned slots not yet reclaimed by compaction.
    dead: usize,
    peak_live: usize,
    compacted: usize,
}

impl Antichain {
    /// An empty antichain whose members hold at most `width` facts.
    pub fn new(width: usize) -> Antichain {
        let mut chain = Antichain {
            width: 0,
            facts: Vec::new(),
            len: Vec::new(),
            live: Vec::new(),
            head: Vec::new(),
            listed: Vec::new(),
            next: Vec::new(),
            unit: Vec::new(),
            table: SlotTable::default(),
            renumbered: Vec::new(),
            hasher: RandomState::new(),
            has_empty: false,
            live_count: 0,
            dead: 0,
            peak_live: 0,
            compacted: 0,
        };
        chain.reset(width);
        chain
    }

    /// Empty the antichain for members of at most `width` facts, keeping
    /// its allocations.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.clear_members();
        self.has_empty = false;
        self.live_count = 0;
        self.peak_live = 0;
        self.compacted = 0;
    }

    fn clear_members(&mut self) {
        self.facts.clear();
        self.len.clear();
        self.live.clear();
        self.head.clear();
        self.listed.clear();
        self.next.clear();
        self.unit.clear();
        self.table.clear();
        self.dead = 0;
    }

    /// Has `∅` been inserted? (It covers everything; all other members
    /// are dropped when it arrives.)
    pub fn has_empty(&self) -> bool {
        self.has_empty
    }

    /// Number of live members.
    pub fn live_len(&self) -> usize {
        self.live_count
    }

    /// Most members ever live at once.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total stale slots reclaimed by compaction so far.
    pub fn stale_compacted(&self) -> usize {
        self.compacted
    }

    /// Iterator over the live members (arbitrary order). Once `∅` has
    /// been inserted it is the antichain's single member and the one
    /// (empty) slice yielded here, keeping the count equal to
    /// [`Antichain::live_len`].
    pub fn live_members(&self) -> impl Iterator<Item = &[FactId]> {
        let empty = self.has_empty.then_some(&[][..]);
        empty.into_iter().chain(
            (0..self.len.len() as u32)
                .filter(|&s| self.live[s as usize])
                .map(|s| self.member(s)),
        )
    }

    fn member(&self, slot: u32) -> &[FactId] {
        let start = slot as usize * self.width;
        &self.facts[start..start + self.len[slot as usize] as usize]
    }

    /// The slots listed under fact `f`, stale ones included.
    fn slots_with(&self, f: FactId) -> impl Iterator<Item = u32> + '_ {
        let mut link = self.head.get(f.idx()).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            (link != NIL).then(|| {
                let slot = link / self.width as u32;
                link = self.next[link as usize];
                slot
            })
        })
    }

    /// The live slots whose member holds `f`.
    fn live_slots_with(&self, f: FactId) -> impl Iterator<Item = u32> + '_ {
        self.slots_with(f).filter(|&s| self.live[s as usize])
    }

    /// `∃ member ⊆ s`? (`s` sorted)
    pub fn covers(&self, s: &[FactId]) -> bool {
        if self.has_empty {
            return true;
        }
        if s.len() <= COVERS_SUBSET_ENUM_MAX {
            // Probe every non-empty subset of s that fits a member in the
            // exact-member index: bounded work independent of how many
            // members share a fact with s, and no heap traffic (this runs
            // once per candidate and per insert — the fixpoint's hottest
            // path).
            let mut probe = [PAD; COVERS_SUBSET_ENUM_MAX];
            for mask in 1u32..(1u32 << s.len()) {
                if mask.count_ones() as usize > self.width {
                    continue;
                }
                let mut len = 0;
                for (i, &f) in s.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        probe[len] = f;
                        len += 1;
                    }
                }
                if self.contains(&probe[..len]) {
                    return true;
                }
            }
            return false;
        }
        // Fallback for large sets: a non-empty member of s holds some
        // fact of s, so it is listed under that fact.
        s.iter().any(|&f| {
            self.live_slots_with(f)
                .any(|slot| is_subset(self.member(slot), s))
        })
    }

    /// Insert `s` (sorted) unless covered; prunes member supersets of `s`.
    /// Returns `true` if inserted.
    ///
    /// # Panics
    /// If `s` holds more facts than the antichain's width.
    pub fn insert(&mut self, s: impl AsRef<[FactId]>) -> bool {
        self.insert_tracked(s.as_ref(), &mut Vec::new())
    }

    /// [`Antichain::insert`], appending to `changed` every fact whose
    /// member family changed: the inserted set's facts and the facts of
    /// every pruned superset. (Nothing is appended on a covered no-op
    /// insert; `changed` is not cleared first.) This is the invalidation
    /// feed for cached requirement families and the dirty-block worklist.
    ///
    /// Exception: inserting `∅` wipes the whole antichain and reports
    /// **no** changed facts — after it, `covers` is constantly true and
    /// per-fact member families are moot, so callers must check
    /// [`Antichain::has_empty`] (and stop) rather than rely on `changed`,
    /// exactly as the fixpoint loop does.
    pub fn insert_tracked(&mut self, s: &[FactId], changed: &mut Vec<FactId>) -> bool {
        if self.covers(s) {
            return false;
        }
        if s.is_empty() {
            self.has_empty = true;
            self.clear_members();
            self.live_count = 1;
            self.peak_live = self.peak_live.max(1);
            return true;
        }
        assert!(
            s.len() <= self.width,
            "a {}-fact set exceeds the antichain's width {}",
            s.len(),
            self.width
        );
        // Remove supersets: they hold *every* fact of s, so they sit in
        // every one of its facts' lists — scanning the shortest suffices
        // (on contested workloads s usually pairs a fact of one wide
        // shared block with a fact of a narrow private one).
        let shortest = s
            .iter()
            .copied()
            .min_by_key(|f| self.listed.get(f.idx()).copied().unwrap_or(0))
            .expect("s is not empty");
        let mut link = self.head.get(shortest.idx()).copied().unwrap_or(NIL);
        while link != NIL {
            let slot = link / self.width as u32;
            link = self.next[link as usize];
            if self.live[slot as usize] && is_subset(s, self.member(slot)) {
                self.unindex(slot);
                self.live[slot as usize] = false;
                self.live_count -= 1;
                self.dead += 1;
                changed.extend_from_slice(self.member(slot));
            }
        }
        let slot = u32::try_from(self.len.len()).expect("slot ids fit in u32");
        self.facts.extend_from_slice(s);
        self.facts.resize((slot as usize + 1) * self.width, PAD);
        self.len.push(s.len() as u32);
        self.live.push(true);
        self.next.resize(self.facts.len(), NIL);
        self.link(slot);
        self.index(slot);
        changed.extend_from_slice(s);
        self.live_count += 1;
        self.peak_live = self.peak_live.max(self.live_count);
        self.maybe_compact();
        true
    }

    /// Live members containing fact `f`.
    pub fn members_with(&self, f: FactId) -> Vec<&[FactId]> {
        self.live_slots_with(f).map(|s| self.member(s)).collect()
    }

    /// Thread `slot` onto the list of each of its facts.
    fn link(&mut self, slot: u32) {
        let start = slot as usize * self.width;
        for j in 0..self.len[slot as usize] as usize {
            let f = self.facts[start + j].idx();
            if f >= self.head.len() {
                self.head.resize(f + 1, NIL);
                self.listed.resize(f + 1, 0);
                self.unit.resize(f + 1, NIL);
            }
            let link = u32::try_from(start + j).expect("link ids fit in u32");
            self.next[start + j] = self.head[f];
            self.head[f] = link;
            self.listed[f] += 1;
        }
    }

    /// The keyed hash of a member; pairs (every table member when
    /// k = 2) hash as one packed word.
    fn hash(&self, s: &[FactId]) -> u32 {
        let h = match *s {
            [a, b] => self.hasher.hash_one(u64::from(a.0) << 32 | u64::from(b.0)),
            _ => self.hasher.hash_one(s),
        };
        h as u32
    }

    /// Is `s` (sorted, non-empty) a live member?
    fn contains(&self, s: &[FactId]) -> bool {
        match *s {
            [f] => self.unit.get(f.idx()).is_some_and(|&slot| slot != NIL),
            _ => self
                .table
                .find(self.hash(s), |slot| self.member(slot) == s)
                .is_some(),
        }
    }

    /// Enter live `slot`, which is not indexed yet: a singleton in `unit`,
    /// a longer member in the table.
    fn index(&mut self, slot: u32) {
        match *self.member(slot) {
            [f] => self.unit[f.idx()] = slot,
            _ => self.table.insert(slot, self.hash(self.member(slot))),
        }
    }

    fn unindex(&mut self, slot: u32) {
        if let [f] = *self.member(slot) {
            self.unit[f.idx()] = NIL;
            return;
        }
        let cell = self
            .table
            .find(self.hash(self.member(slot)), |s| s == slot)
            .expect("a live member is indexed");
        self.table.remove(cell);
    }

    /// Compact the slots once pruned ones outnumber the live members.
    /// Without this the slot lists only ever grow: on contested workloads
    /// the lists of shared-block facts would accumulate an unbounded tail
    /// of dead slots that every `covers`/`members_with` call rescans.
    fn maybe_compact(&mut self) {
        if self.dead <= 32 || self.dead < self.live_count {
            return;
        }
        self.compacted += self.dead;
        for i in 0..self.facts.len() {
            let f = self.facts[i];
            if f != PAD {
                self.head[f.idx()] = NIL;
                self.listed[f.idx()] = 0;
                self.unit[f.idx()] = NIL;
            }
        }
        let w = self.width;
        self.renumbered.clear();
        let mut kept = 0;
        for slot in 0..self.len.len() {
            if self.live[slot] {
                self.renumbered.push(kept as u32);
                self.facts.copy_within(slot * w..(slot + 1) * w, kept * w);
                self.len[kept] = self.len[slot];
                kept += 1;
            } else {
                self.renumbered.push(NIL);
            }
        }
        self.facts.truncate(kept * w);
        self.len.truncate(kept);
        self.live.clear();
        self.live.resize(kept, true);
        self.next.truncate(kept * w);
        self.dead = 0;
        for slot in 0..kept as u32 {
            self.link(slot);
            if let [f] = *self.member(slot) {
                self.unit[f.idx()] = slot;
            }
        }
        let renumbered = &self.renumbered;
        self.table.rebuild(|slot| renumbered[slot as usize]);
    }
}

/// An open-addressing table of slots under 32-bit keyed hashes of their
/// members, probed linearly. Each cell keeps its slot's hash, so a probe
/// compares a member only on a hash match, and growing or renumbering
/// re-places the cells without hashing or reading a member again.
#[derive(Default)]
struct SlotTable {
    /// `(slot, hash)` per cell, slot `NIL` when empty and `TOMB` when
    /// removed; the length is a power of two.
    cells: Vec<(u32, u32)>,
    /// Cells that are not empty.
    used: usize,
    /// Cells holding a slot.
    live: usize,
}

impl SlotTable {
    fn clear(&mut self) {
        self.cells.clear();
        self.cells.resize(16, (NIL, 0));
        self.used = 0;
        self.live = 0;
    }

    /// The cell of a slot stored under `hash` for which `is` holds.
    fn find(&self, hash: u32, is: impl Fn(u32) -> bool) -> Option<usize> {
        let mask = self.cells.len() - 1;
        let mut cell = hash as usize & mask;
        loop {
            match self.cells[cell] {
                (NIL, _) => return None,
                (slot, h) if h == hash && slot != TOMB && is(slot) => return Some(cell),
                _ => {}
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Store `slot`, not in the table yet, under `hash`.
    fn insert(&mut self, slot: u32, hash: u32) {
        if (self.used + 1) * 8 > self.cells.len() * 7 {
            self.rebuild(|slot| slot);
        }
        self.place(slot, hash);
        self.live += 1;
    }

    fn place(&mut self, slot: u32, hash: u32) {
        let mask = self.cells.len() - 1;
        let mut cell = hash as usize & mask;
        while self.cells[cell].0 < TOMB {
            cell = (cell + 1) & mask;
        }
        if self.cells[cell].0 == NIL {
            self.used += 1;
        }
        self.cells[cell] = (slot, hash);
    }

    fn remove(&mut self, cell: usize) {
        self.cells[cell].0 = TOMB;
        self.live -= 1;
    }

    /// Re-place every stored slot, renamed by `renumber`, into a fresh
    /// table at most half full.
    fn rebuild(&mut self, renumber: impl Fn(u32) -> u32) {
        let size = ((self.live + 1) * 2).next_power_of_two().max(16);
        let old = std::mem::replace(&mut self.cells, vec![(NIL, 0); size]);
        self.used = 0;
        for (slot, hash) in old {
            if slot < TOMB {
                self.place(renumber(slot), hash);
            }
        }
    }
}

/// Subset test for sorted slices.
fn is_subset(small: &[FactId], big: &[FactId]) -> bool {
    let mut it = big.iter();
    'outer: for x in small {
        for y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

/// Insert `f` into the sorted set `v` if consistent; `None` when `v`
/// already holds a *different* fact of `f`'s block (not a k-set) .
fn add_consistent(db: &Database, v: &[FactId], f: FactId) -> Option<Vec<FactId>> {
    let bf = db.block_of(f);
    for &g in v {
        if g == f {
            return Some(v.to_vec());
        }
        if db.block_of(g) == bf {
            return None;
        }
    }
    let mut out = v.to_vec();
    let pos = out.partition_point(|&g| g < f);
    out.insert(pos, f);
    Some(out)
}

/// Execution statistics of one `Cert_k` run — the instrumentation behind
/// the paper's concluding conjecture that FO-solvable queries are exactly
/// those whose fixpoint terminates in a *bounded* number of rounds
/// irrespective of database size, plus the antichain health counters that
/// make the slot index and the worklist observable (`cqa certain
/// --stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertKStats {
    /// Fixpoint rounds executed. A round is one drained generation of the
    /// dirty-block worklist: the first round visits every block, later
    /// rounds only the re-queued ones (a full-pass evaluator would
    /// rescan everything each round).
    pub rounds: usize,
    /// Number of antichain members ever inserted (seeds + derived).
    pub inserted: usize,
    /// Derivation-search steps consumed.
    pub steps: u64,
    /// Antichain high-water mark: most members live at once.
    pub peak_members: usize,
    /// Stale (pruned) member slots reclaimed by index compaction.
    pub stale_compacted: usize,
    /// Block derivations actually executed by the worklist.
    pub blocks_derived: usize,
    /// Block derivations skipped relative to a full-pass evaluator
    /// (converged blocks that a naive round would have rescanned).
    pub blocks_skipped: usize,
}

impl CertKStats {
    /// Fold another run's counters into this one: sums throughout, except
    /// `peak_members`, which takes the max. Used by the component path to
    /// aggregate per-component fixpoint statistics into one summary.
    pub fn absorb(&mut self, other: &CertKStats) {
        self.rounds += other.rounds;
        self.inserted += other.inserted;
        self.steps += other.steps;
        self.peak_members = self.peak_members.max(other.peak_members);
        self.stale_compacted += other.stale_compacted;
        self.blocks_derived += other.blocks_derived;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// Run `Cert_k(q)` on `db` — the paper's whole-database procedure, never
/// cancelled. Everything else goes through [`certk_view`].
pub fn certk(q: &Query, db: &Database, cfg: CertKConfig) -> CertKOutcome {
    let solutions = SolutionSet::enumerate(q, db);
    certk_view(&db.full_view(), &solutions, cfg, &CancelToken::new())
        .expect("a never-raised token cannot interrupt the fixpoint")
        .0
}

/// Run `Cert_k(q)` on a copy-free [`DbView`] with a fresh
/// [`CertKScratch`]: [`CertKScratch::certk_view`], for a caller that
/// decides one view.
pub fn certk_view(
    view: &DbView<'_>,
    solutions: &SolutionSet,
    cfg: CertKConfig,
    token: &CancelToken,
) -> Result<(CertKOutcome, CertKStats), CertKStats> {
    CertKScratch::default().certk_view(view, solutions, cfg, token)
}

/// Everything one `Cert_k` run stores: the antichain, the view's block
/// layout, the requirement-family arena, the derivation search's buffers
/// and the worklist. Each run clears what it uses and frees nothing, so a
/// scratch reused across many small views (a fan-out worker's
/// components) allocates only while it grows to the largest of them. It
/// keeps that memory until it is dropped.
pub struct CertKScratch {
    chain: Antichain,
    layout: Layout,
    reqs: Requirements,
    search: Search,
    /// Facts whose member family changed in the current insertion.
    changed: Vec<FactId>,
    /// Per view block: already in `next`.
    queued: Vec<bool>,
    current: Vec<u32>,
    next: Vec<u32>,
}

impl Default for CertKScratch {
    fn default() -> CertKScratch {
        CertKScratch {
            chain: Antichain::new(1),
            layout: Layout::default(),
            reqs: Requirements::default(),
            search: Search::default(),
            changed: Vec::new(),
            queued: Vec::new(),
            current: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// The partial evidence of a cancelled run: `stats` plus the steps
/// consumed so far and the antichain health counters at the cancel
/// observation. The antichain stays in its scratch, which frees it in a
/// handful of deallocations whenever its owner drops it.
fn cancelled(mut stats: CertKStats, chain: &Antichain, consumed: u64) -> CertKStats {
    stats.steps = consumed;
    stats.peak_members = chain.peak_live();
    stats.stale_compacted = chain.stale_compacted();
    stats
}

impl CertKScratch {
    /// Run `Cert_k(q)` on a copy-free [`DbView`] — the one live entry
    /// point of the fixpoint. The view is typically one q-connected
    /// component or a full view; `solutions` is the **parent database's**
    /// solution set. Only the solutions among the view's facts
    /// participate (a solution is a property of its two facts alone, so
    /// the parent's set restricted to the view is exactly the view's set),
    /// and derivation runs over the view's blocks only.
    ///
    /// The fixpoint polls `token` once per view fact while seeding and
    /// once per block derivation, so a token that fires mid-fixpoint stops
    /// the run within roughly one block's worth of work. A cancelled run
    /// returns `Err` with its **partial statistics** — the work done
    /// before the cancel observation, the evidence a server attaches to a
    /// `deadline-exceeded` answer. The outcome is withheld: a cancelled
    /// fixpoint proves nothing either way. Pass [`CancelToken::new`] when
    /// nothing can cancel.
    ///
    /// Outcome and statistics do not depend on what the scratch decided
    /// before.
    pub fn certk_view(
        &mut self,
        view: &DbView<'_>,
        solutions: &SolutionSet,
        cfg: CertKConfig,
        token: &CancelToken,
    ) -> Result<(CertKOutcome, CertKStats), CertKStats> {
        let CertKScratch {
            chain,
            layout,
            reqs,
            search,
            changed,
            queued,
            current,
            next,
        } = self;
        let db = view.parent();
        let mut stats = CertKStats::default();
        if cfg.k == 0 {
            return Ok((CertKOutcome::NotDerived, stats));
        }
        let nb = view.block_count();
        // A k-set holds one fact per block, so no member is wider than
        // the view has blocks.
        let width = cfg.k.min(nb).max(1);
        chain.reset(width);
        let mut budget = cfg.node_budget;

        // Seeds: solutions within the view that fit in a k-set, visited by
        // first fact in id order, then by partner in id order, whatever the
        // solution set's own layout. Partners outside the view are skipped
        // — that *is* the restriction of the solution set to the view (a
        // no-op on q-closed views like components and full views).
        for (ai, &a) in view.fact_ids().iter().enumerate() {
            if token.is_cancelled() {
                return Err(cancelled(stats, chain, cfg.node_budget - budget));
            }
            let ai = FactId(ai as u32);
            for &b in solutions.seconds_of(a) {
                let Some(bi) = view.local_fact_index(b) else {
                    continue;
                };
                let bi = FactId(bi as u32);
                changed.clear();
                if a == b {
                    stats.inserted += chain.insert_tracked(&[ai], changed) as usize;
                } else if !db.key_equal(a, b) && cfg.k >= 2 {
                    let pair = if ai < bi { [ai, bi] } else { [bi, ai] };
                    stats.inserted += chain.insert_tracked(&pair, changed) as usize;
                }
                // Distinct key-equal facts never share a repair: no seed.
            }
        }
        // The remaining set-up is linear in the view; it polls the token
        // every `POLL_STRIDE` steps.
        if !layout.build(view, token) {
            return Err(cancelled(stats, chain, cfg.node_budget - budget));
        }
        reqs.reset(view.len(), width - 1);
        queued.clear();
        queued.resize(nb, false);
        current.clear();
        current.extend(0..nb as u32);
        next.clear();
        // Dirty-block worklist, drained in generations ("rounds"): the first
        // generation holds every block; afterwards a block re-enters only when
        // a member touching one of its facts is inserted or pruned —
        // derive_block's output depends on the chain solely through the
        // requirement families of the block's facts, so an untouched block
        // cannot produce a new (uncovered) candidate and is safe to skip.
        let outcome = 'fixpoint: loop {
            if chain.has_empty() {
                break CertKOutcome::Certain;
            }
            if current.is_empty() {
                break CertKOutcome::NotDerived;
            }
            stats.rounds += 1;
            for &bi in current.iter() {
                if token.is_cancelled() {
                    let consumed = cfg.node_budget - budget;
                    return Err(cancelled(stats, chain, consumed));
                }
                stats.blocks_derived += 1;
                let bi = bi as usize;
                if derive_block(layout, chain, reqs, search, bi, cfg.k, &mut budget).is_err() {
                    break 'fixpoint CertKOutcome::BudgetExhausted;
                }
                for &c in &search.cands {
                    changed.clear();
                    if chain.insert_tracked(search.found.set(c as usize), changed) {
                        stats.inserted += 1;
                        for &f in changed.iter() {
                            reqs.invalidate(f);
                            let bf = layout.block_of[f.idx()] as usize;
                            if !queued[bf] {
                                queued[bf] = true;
                                next.push(bf as u32);
                            }
                        }
                    }
                }
                if chain.has_empty() {
                    break 'fixpoint CertKOutcome::Certain;
                }
            }
            if next.is_empty() {
                break CertKOutcome::NotDerived;
            }
            stats.blocks_skipped += nb - next.len();
            // Hand the dirty set over as the next generation, in ascending
            // block order (deterministic, and the order a full pass uses).
            next.sort_unstable();
            for &b in next.iter() {
                queued[b as usize] = false;
            }
            std::mem::swap(current, next);
            next.clear();
        };
        stats.steps = if outcome == CertKOutcome::BudgetExhausted {
            cfg.node_budget
        } else {
            cfg.node_budget - budget
        };
        stats.peak_members = chain.peak_live();
        stats.stale_compacted = chain.stale_compacted();
        Ok((outcome, stats))
    }
}

/// A view's blocks over its view-local facts.
#[derive(Default)]
struct Layout {
    /// View-local block of each view-local fact.
    block_of: Vec<u32>,
    /// The facts of view block `b` are `facts[start[b]..start[b + 1]]`,
    /// in the parent block's order.
    start: Vec<u32>,
    facts: Vec<FactId>,
}

impl Layout {
    /// Lay out `view`, polling `token` every `POLL_STRIDE` blocks; `false`
    /// when it fired.
    fn build(&mut self, view: &DbView<'_>, token: &CancelToken) -> bool {
        self.block_of.clear();
        self.block_of.resize(view.len(), 0);
        self.start.clear();
        self.facts.clear();
        for (bi, &b) in view.blocks().iter().enumerate() {
            if bi % POLL_STRIDE == 0 && token.is_cancelled() {
                return false;
            }
            self.start.push(self.facts.len() as u32);
            for &f in view.block(b) {
                let local = view
                    .local_fact_index(f)
                    .expect("block fact belongs to the view");
                self.block_of[local] = bi as u32;
                self.facts.push(FactId(local as u32));
            }
        }
        self.start.push(self.facts.len() as u32);
        true
    }

    fn block(&self, b: usize) -> &[FactId] {
        &self.facts[self.start[b] as usize..self.start[b + 1] as usize]
    }
}

/// The cached ⊆-minimal requirement families
/// `R_u = min { M ∖ {u} : M ∈ Δ, u ∈ M }`, by view-local fact, in one
/// arena of sets `width` facts wide (padded). A recomputed family is
/// appended and its stale predecessor left in place: the arena is
/// cleared between runs only.
#[derive(Default)]
struct Requirements {
    width: usize,
    /// Per fact: `(offset, sets)` of its family in `arena`; offset `NIL`
    /// when stale (a member containing the fact changed since the last
    /// computation, or it was never computed).
    entry: Vec<(u32, u32)>,
    arena: Vec<FactId>,
    /// The sets of the family being computed, and their order.
    gathered: Vec<FactId>,
    order: Vec<u32>,
}

impl Requirements {
    fn reset(&mut self, facts: usize, width: usize) {
        self.width = width;
        self.entry.clear();
        self.entry.resize(facts, (NIL, 0));
        self.arena.clear();
    }

    fn invalidate(&mut self, f: FactId) {
        self.entry[f.idx()].0 = NIL;
    }

    fn family(&self, f: FactId) -> Family<'_> {
        let (offset, sets) = self.entry[f.idx()];
        let start = offset as usize;
        Family {
            sets: &self.arena[start..start + sets as usize * self.width],
            count: sets as usize,
            width: self.width,
        }
    }

    /// Recompute `f`'s family if it is stale.
    fn refresh(&mut self, chain: &Antichain, u: FactId) {
        if self.entry[u.idx()].0 != NIL {
            return;
        }
        let w = self.width;
        if w == 0 {
            // k = 1: the one ⊆-minimal requirement is ∅, if a member
            // holds u.
            let any = chain.live_slots_with(u).next().is_some();
            self.entry[u.idx()] = (0, u32::from(any));
            return;
        }
        self.gathered.clear();
        for slot in chain.live_slots_with(u) {
            let start = self.gathered.len();
            self.gathered
                .extend(chain.member(slot).iter().filter(|&&f| f != u));
            self.gathered.resize(start + w, PAD);
        }
        let set = |i: u32| &self.gathered[i as usize * w..(i as usize + 1) * w];
        let len = |i: u32| set(i).iter().take_while(|&&f| f != PAD).count();
        // Sort by (length, content): duplicates become adjacent and every
        // potential strict subset of a set precedes it, so one forward
        // pass keeps exactly the ⊆-minimal sets — equal-length distinct
        // sets are never subsets of each other, so only strictly shorter
        // accepted sets need checking (on wide contested blocks the family
        // is mostly singletons and this pass is linear). Padding sorts
        // after every fact, so equal-length padded sets compare as their
        // facts do.
        self.order.clear();
        self.order.extend(0..(self.gathered.len() / w) as u32);
        self.order
            .sort_unstable_by(|&a, &b| (len(a), set(a)).cmp(&(len(b), set(b))));
        self.order.dedup_by(|a, b| set(*a) == set(*b));
        let offset = self.arena.len();
        let mut kept = 0;
        for &t in &self.order {
            let t_set = &set(t)[..len(t)];
            let covered = self.arena[offset..]
                .chunks_exact(w)
                .map(|m| &m[..m.iter().take_while(|&&f| f != PAD).count()])
                .take_while(|m| m.len() < t_set.len())
                .any(|m| is_subset(m, t_set));
            if !covered {
                self.arena.extend_from_slice(set(t));
                kept += 1;
            }
        }
        let offset = u32::try_from(offset).expect("arena offsets fit in u32");
        self.entry[u.idx()] = (offset, kept);
    }
}

/// One requirement family: `count` sets of `width` facts each, padded.
#[derive(Clone, Copy)]
struct Family<'a> {
    sets: &'a [FactId],
    count: usize,
    width: usize,
}

impl<'a> Family<'a> {
    fn iter(self) -> impl Iterator<Item = &'a [FactId]> {
        (0..self.count).map(move |i| {
            let set = &self.sets[i * self.width..(i + 1) * self.width];
            &set[..set.iter().take_while(|&&f| f != PAD).count()]
        })
    }
}

/// Sorted fact sets of at most `width` facts, padded in one flat buffer,
/// each with a tag.
#[derive(Default)]
struct SetStack {
    width: usize,
    facts: Vec<FactId>,
    /// `(tag, length)` per set.
    meta: Vec<(u32, u32)>,
}

impl SetStack {
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.facts.clear();
        self.meta.clear();
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    fn push(&mut self, tag: u32, s: &[FactId]) {
        self.facts.extend_from_slice(s);
        self.facts.resize((self.meta.len() + 1) * self.width, PAD);
        self.meta.push((tag, s.len() as u32));
    }

    /// Pop the last set into `out`, returning its tag.
    fn pop_into(&mut self, out: &mut Vec<FactId>) -> Option<u32> {
        let (tag, len) = self.meta.pop()?;
        let start = self.meta.len() * self.width;
        out.clear();
        out.extend_from_slice(&self.facts[start..start + len as usize]);
        self.facts.truncate(start);
        Some(tag)
    }

    fn set(&self, i: usize) -> &[FactId] {
        let start = i * self.width;
        &self.facts[start..start + self.meta[i].1 as usize]
    }
}

/// The derivation search's buffers.
#[derive(Default)]
struct Search {
    /// The block's facts, fewest requirement options first.
    order: Vec<FactId>,
    /// Open partials, tagged with their depth.
    open: SetStack,
    partial: Vec<FactId>,
    union: Vec<FactId>,
    /// Complete unions.
    found: SetStack,
    /// Indices into `found`, ascending by set, duplicates removed: the
    /// block's candidates.
    cands: Vec<u32>,
}

/// Leave in `search.cands` the candidate minimal unions for one view
/// block, or `Err(())` on budget exhaustion. Requirement families are
/// read through `reqs` and recomputed only for facts whose entry was
/// invalidated since the last visit.
fn derive_block(
    layout: &Layout,
    chain: &Antichain,
    reqs: &mut Requirements,
    search: &mut Search,
    block: usize,
    k: usize,
    budget: &mut u64,
) -> Result<(), ()> {
    search.cands.clear();
    let facts = layout.block(block);
    for &u in facts {
        reqs.refresh(chain, u);
    }
    if facts.iter().any(|&u| reqs.family(u).count == 0) {
        // A fact that cannot be discharged yet: the block derives
        // nothing until a member containing it appears.
        return Ok(());
    }
    // Process facts with fewest options first for earlier pruning (a
    // stable sort: ties keep the block's order).
    search.order.clear();
    search.order.extend_from_slice(facts);
    search.order.sort_by_key(|&u| reqs.family(u).count);
    search.open.reset(chain.width);
    search.found.reset(chain.width);
    search.open.push(0, &[]);
    while let Some(depth) = search.open.pop_into(&mut search.partial) {
        *budget = budget.checked_sub(1).ok_or(())?;
        if *budget == 0 {
            return Err(());
        }
        let depth = depth as usize;
        if depth == search.order.len() {
            search.found.push(0, &search.partial);
            continue;
        }
        push_children(
            &layout.block_of,
            chain,
            &search.partial,
            reqs.family(search.order[depth]),
            k,
            depth as u32 + 1,
            &mut search.union,
            &mut search.open,
        );
    }
    let found = &search.found;
    search.cands.extend(0..found.len() as u32);
    search
        .cands
        .sort_unstable_by(|&a, &b| found.set(a as usize).cmp(found.set(b as usize)));
    search
        .cands
        .dedup_by(|a, b| found.set(*a as usize) == found.set(*b as usize));
    Ok(())
}

/// Push onto `open`, at `depth`, the unions of `partial` with each
/// option of one requirement `family` that stay consistent (`block_of`
/// gives each fact's block), within the size cap `k` and uncovered by
/// `chain`; `union` is the buffer each union is built in.
///
/// Dominance: when some option is already `⊆ partial`, its union is
/// `partial` itself and every sibling union is a superset of it.
/// Consistency and the size cap hold for a subset whenever they hold for
/// a superset, so every candidate a sibling could reach is a superset of
/// one `partial` reaches — redundant in the antichain. `partial` is then
/// pushed once and the rest of the family is skipped; without the rule a
/// full `partial` was pushed once per covering option, and those
/// duplicates multiplied with depth.
#[allow(clippy::too_many_arguments)]
fn push_children(
    block_of: &[u32],
    chain: &Antichain,
    partial: &[FactId],
    family: Family<'_>,
    k: usize,
    depth: u32,
    union: &mut Vec<FactId>,
    open: &mut SetStack,
) {
    // Coverage is monotone — a member is only ever pruned in favour of a
    // subset, so whatever is covered now stays covered. A covered union
    // is therefore dropped for good: every union it could grow into is a
    // superset of a covered set, i.e. redundant.
    if family.iter().any(|t| is_subset(t, partial)) {
        if !chain.covers(partial) {
            open.push(depth, partial);
        }
        return;
    }
    for t in family.iter() {
        // Union t into partial, maintaining consistency and the size cap.
        union.clear();
        union.extend_from_slice(partial);
        let fits = t
            .iter()
            .all(|&f| add_fact(block_of, union, f) && union.len() <= k);
        if fits && !chain.covers(union) {
            open.push(depth, union);
        }
    }
}

/// Insert `f` into the sorted set `v` if consistent; `false` when `v`
/// already holds a *different* fact of `f`'s block (not a k-set).
fn add_fact(block_of: &[u32], v: &mut Vec<FactId>, f: FactId) -> bool {
    let bf = block_of[f.idx()];
    for &g in v.iter() {
        if g == f {
            return true;
        }
        if block_of[g.idx()] == bf {
            return false;
        }
    }
    let pos = v.partition_point(|&g| g < f);
    v.insert(pos, f);
    true
}

/// Convenience wrapper: `Cert_2(q)` — the instance Theorem 6.1 proves
/// complete for queries failing condition (1) of Theorem 4.2.
pub fn cert2(q: &Query, db: &Database) -> CertKOutcome {
    certk(q, db, CertKConfig::new(2))
}

/// Differential-testing references — **frozen, not the live evaluator**.
///
/// This module preserves the *seed-era* `Cert_k` implementation exactly as
/// it was before the PR 4 rework: a full-pass fixpoint (every block
/// re-derived every round) over a [`NaiveAntichain`] whose every operation
/// is a linear scan. The live evaluator is [`certk_view`] above
/// — block-keyed subset index, cached requirement families, dirty-block
/// worklist, statistics, cooperative cancellation — none of which exists
/// here, deliberately: the `antichain_props` property suite (and the
/// exhaustive small-grid unit test above) differential-tests the live
/// engine against this one to assert that no optimisation ever moved a
/// verdict. Do not "improve" this module; its value is in staying behind.
///
/// Not part of the supported API.
///
/// [`certk_view`]: super::certk_view
/// [`NaiveAntichain`]: reference::NaiveAntichain
#[doc(hidden)]
pub mod reference {
    use super::{add_consistent, is_subset, CertKConfig, CertKOutcome};
    use crate::SolutionSet;
    use cqa_model::{BlockId, Database, FactId};
    use cqa_query::Query;

    /// A ⊆-antichain held as a flat list of live members; every operation
    /// is a linear scan over all members (quadratic overall).
    #[derive(Clone, Debug, Default)]
    pub struct NaiveAntichain {
        sets: Vec<Vec<FactId>>,
        has_empty: bool,
    }

    impl NaiveAntichain {
        /// An empty naive antichain.
        pub fn new() -> NaiveAntichain {
            NaiveAntichain::default()
        }

        /// Has `∅` been inserted?
        pub fn has_empty(&self) -> bool {
            self.has_empty
        }

        /// The live members, in insertion order.
        pub fn members(&self) -> &[Vec<FactId>] {
            &self.sets
        }

        /// `∃ member ⊆ s`? (`s` sorted)
        pub fn covers(&self, s: &[FactId]) -> bool {
            self.has_empty || self.sets.iter().any(|m| is_subset(m, s))
        }

        /// Insert `s` (sorted) unless covered; prunes member supersets.
        pub fn insert(&mut self, s: Vec<FactId>) -> bool {
            if self.covers(&s) {
                return false;
            }
            if s.is_empty() {
                self.has_empty = true;
                self.sets.clear();
                return true;
            }
            self.sets.retain(|m| !is_subset(&s, m));
            self.sets.push(s);
            true
        }

        /// Live members containing fact `f`.
        pub fn members_with(&self, f: FactId) -> Vec<&[FactId]> {
            self.sets
                .iter()
                .filter(|m| m.binary_search(&f).is_ok())
                .map(Vec::as_slice)
                .collect()
        }
    }

    /// The seed-era evaluator: full passes over every block until a pass
    /// inserts nothing, requirement families recomputed from scratch at
    /// every visit. Verdict-equivalent to [`super::certk`] (for budgets
    /// large enough that neither evaluator exhausts).
    pub fn certk_reference(q: &Query, db: &Database, cfg: CertKConfig) -> CertKOutcome {
        let solutions = SolutionSet::enumerate(q, db);
        if cfg.k == 0 {
            return CertKOutcome::NotDerived;
        }
        let mut chain = NaiveAntichain::new();
        let mut budget = cfg.node_budget;
        for a in db.fact_ids() {
            for &b in solutions.seconds_of(a) {
                if a == b {
                    chain.insert(vec![a]);
                } else if !db.key_equal(a, b) && cfg.k >= 2 {
                    let mut s = vec![a, b];
                    s.sort_unstable();
                    chain.insert(s);
                }
            }
        }
        let blocks: Vec<BlockId> = db.block_ids().collect();
        loop {
            if chain.has_empty() {
                return CertKOutcome::Certain;
            }
            let mut changed = false;
            for &b in &blocks {
                match derive_block_reference(db, &chain, b, cfg.k, &mut budget) {
                    Ok(cands) => {
                        for c in cands {
                            changed |= chain.insert(c);
                        }
                    }
                    Err(()) => return CertKOutcome::BudgetExhausted,
                }
                if chain.has_empty() {
                    return CertKOutcome::Certain;
                }
            }
            if !changed {
                return CertKOutcome::NotDerived;
            }
        }
    }

    /// The seed-era `derive_block`: requirement families rebuilt from the
    /// antichain on every call, minimality by symmetric pairwise filtering.
    fn derive_block_reference(
        db: &Database,
        chain: &NaiveAntichain,
        block: BlockId,
        k: usize,
        budget: &mut u64,
    ) -> Result<Vec<Vec<FactId>>, ()> {
        let facts = db.block(block);
        let mut reqs: Vec<Vec<Vec<FactId>>> = Vec::with_capacity(facts.len());
        for &u in facts {
            let mut ts: Vec<Vec<FactId>> = chain
                .members_with(u)
                .into_iter()
                .map(|m| m.iter().copied().filter(|&f| f != u).collect::<Vec<_>>())
                .collect();
            ts.sort();
            ts.dedup();
            let mut minimal: Vec<Vec<FactId>> = Vec::new();
            'next: for t in ts {
                if minimal.iter().any(|m| is_subset(m, &t)) {
                    continue 'next;
                }
                minimal.retain(|m| !is_subset(&t, m));
                minimal.push(t);
            }
            if minimal.is_empty() {
                return Ok(Vec::new());
            }
            reqs.push(minimal);
        }
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_by_key(|&i| reqs[i].len());

        let mut out = Vec::new();
        let mut stack: Vec<(usize, Vec<FactId>)> = vec![(0, Vec::new())];
        while let Some((depth, partial)) = stack.pop() {
            *budget = budget.checked_sub(1).ok_or(())?;
            if *budget == 0 {
                return Err(());
            }
            if depth == order.len() {
                out.push(partial);
                continue;
            }
            for t in &reqs[order[depth]] {
                let mut union = Some(partial.clone());
                for &f in t {
                    union = union.and_then(|v| add_consistent(db, &v, f));
                    if union.as_ref().is_some_and(|v| v.len() > k) {
                        union = None;
                    }
                    if union.is_none() {
                        break;
                    }
                }
                if let Some(u) = union {
                    if !chain.covers(&u) {
                        stack.push((depth + 1, u));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::certain_brute;
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;

    fn db2(rows: &[[&str; 2]]) -> Database {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn certain_chain() {
        let d = db2(&[["a", "b"], ["b", "c"]]);
        assert_eq!(cert2(&examples::q3(), &d), CertKOutcome::Certain);
    }

    #[test]
    fn not_certain_with_alternative() {
        let d = db2(&[["a", "b"], ["a", "x"], ["b", "c"]]);
        assert_eq!(cert2(&examples::q3(), &d), CertKOutcome::NotDerived);
    }

    #[test]
    fn derivation_through_blocks() {
        // Block a = {a->b, a->c}; blocks b = {b->d}, c = {c->d}: every
        // repair contains a solution for q3 (either (ab,bd) or (ac,cd)).
        let d = db2(&[["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]);
        assert!(certain_brute(&examples::q3(), &d));
        assert_eq!(cert2(&examples::q3(), &d), CertKOutcome::Certain);
    }

    #[test]
    fn self_loop_seed() {
        let d = db2(&[["a", "a"]]);
        assert_eq!(cert2(&examples::q3(), &d), CertKOutcome::Certain);
        // Even k = 1 suffices for a self-loop in a singleton block.
        assert_eq!(
            certk(&examples::q3(), &d, CertKConfig::new(1)),
            CertKOutcome::Certain
        );
    }

    #[test]
    fn k_zero_never_derives() {
        let d = db2(&[["a", "a"]]);
        assert_eq!(
            certk(&examples::q3(), &d, CertKConfig::new(0)),
            CertKOutcome::NotDerived
        );
    }

    #[test]
    fn monotone_in_k() {
        // If Cert_k says yes then Cert_{k+1} must too.
        let dbs = [
            db2(&[["a", "b"], ["b", "c"]]),
            db2(&[["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]),
            db2(&[["a", "b"], ["a", "x"], ["b", "c"]]),
            db2(&[["a", "a"], ["a", "b"]]),
        ];
        let q = examples::q3();
        for d in &dbs {
            let mut prev = false;
            for k in 1..=4 {
                let now = certk(&q, d, CertKConfig::new(k)).is_certain();
                assert!(!prev || now, "Cert_k not monotone in k on {d:?}");
                prev = now;
            }
        }
    }

    #[test]
    fn certk_under_approximates_certain() {
        // Soundness on a grid of small databases for several queries.
        let names = ["a", "b"];
        let mut all_rows = Vec::new();
        for x in names {
            for y in names {
                all_rows.push([x, y]);
            }
        }
        let mut dbs = Vec::new();
        for mask in 1u32..(1 << all_rows.len()) {
            let rows: Vec<[&str; 2]> = (0..all_rows.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| all_rows[i])
                .collect();
            dbs.push(db2(&rows));
        }
        let q = examples::q3();
        for d in &dbs {
            if cert2(&q, d).is_certain() {
                assert!(certain_brute(&q, d), "Cert_2 unsound on {d:?}");
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let d = db2(&[["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]);
        let out = certk(
            &examples::q3(),
            &d,
            CertKConfig {
                k: 2,
                node_budget: 1,
                threads: 1,
            },
        );
        assert_eq!(out, CertKOutcome::BudgetExhausted);
    }

    #[test]
    fn cert2_complete_for_thm61_query_on_small_grid() {
        // Theorem 6.1: for q3 (condition (1) false), certain(q) = Cert_2(q).
        // Exhaustive check on all databases with ≤ 4 facts over {a,b} x {a,b}.
        let names = ["a", "b"];
        let mut all_rows = Vec::new();
        for x in names {
            for y in names {
                all_rows.push([x, y]);
            }
        }
        let q = examples::q3();
        for mask in 1u32..(1 << all_rows.len()) {
            let rows: Vec<[&str; 2]> = (0..all_rows.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| all_rows[i])
                .collect();
            let d = db2(&rows);
            assert_eq!(
                cert2(&q, &d).is_certain(),
                certain_brute(&q, &d),
                "Theorem 6.1 violated on {d:?}"
            );
        }
    }

    /// An uncancellable run of [`certk_view`].
    fn run(view: &DbView<'_>, sols: &SolutionSet, cfg: CertKConfig) -> (CertKOutcome, CertKStats) {
        certk_view(view, sols, cfg, &CancelToken::new())
            .expect("a never-raised token cannot interrupt the fixpoint")
    }

    #[test]
    fn cancellable_fixpoint_honours_the_flag() {
        let d = db2(&[["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]);
        let q = examples::q3();
        let sols = SolutionSet::enumerate(&q, &d);
        let view = d.full_view();
        // A pre-raised flag aborts before any work.
        let raised = CancelToken::new();
        raised.cancel();
        assert!(certk_view(&view, &sols, CertKConfig::new(2), &raised).is_err());
        // A never-raised flag reproduces the plain run exactly.
        let calm = CancelToken::new();
        let got = certk_view(&view, &sols, CertKConfig::new(2), &calm)
            .expect("no cancellation requested");
        assert_eq!(got, run(&view, &sols, CertKConfig::new(2)));
    }

    #[test]
    fn cancel_token_fixpoint_reports_partial_stats() {
        let d = db2(&[["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]);
        let q = examples::q3();
        let sols = SolutionSet::enumerate(&q, &d);
        let view = d.full_view();
        // A pre-raised token cancels before any block is derived, and the
        // partial evidence says so.
        let raised = CancelToken::new();
        raised.cancel();
        let partial = certk_view(&view, &sols, CertKConfig::new(2), &raised)
            .expect_err("a raised token must cancel the fixpoint");
        assert_eq!(partial.blocks_derived, 0);
        assert_eq!(partial.rounds, 0);
        // A far-deadline token reproduces the deterministic run exactly,
        // statistics included.
        let calm = CancelToken::deadline_in(std::time::Duration::from_secs(3600));
        let got = certk_view(&view, &sols, CertKConfig::new(2), &calm)
            .expect("a far deadline cannot cancel this fixpoint");
        assert_eq!(got, run(&view, &sols, CertKConfig::new(2)));
    }

    #[test]
    fn antichain_block_index_basics() {
        let d = db2(&[["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]);
        let ids: Vec<FactId> = d.fact_ids().collect();
        let mut chain = Antichain::new(2);
        assert!(chain.insert(vec![ids[0], ids[2]]));
        assert!(chain.insert(vec![ids[1], ids[3]]));
        // A covered insert is a no-op…
        assert!(!chain.insert(vec![ids[0], ids[2]]));
        assert_eq!(chain.live_len(), 2);
        // …covers sees members through the block index…
        assert!(chain.covers(&[ids[0], ids[2], ids[3]]));
        assert!(!chain.covers(&[ids[0], ids[3]]));
        // …and a subset insert prunes its supersets, reporting the change.
        let mut changed = Vec::new();
        assert!(chain.insert_tracked(&[ids[0]], &mut changed));
        assert_eq!(chain.live_len(), 2);
        assert!(changed.contains(&ids[0]) && changed.contains(&ids[2]));
        assert_eq!(chain.members_with(ids[2]), Vec::<&[FactId]>::new());
        assert_eq!(chain.members_with(ids[0]), vec![&[ids[0]][..]]);
        assert_eq!(chain.peak_live(), 2);
    }

    /// Every set on `open`, bottom first, with its depth.
    fn drain(open: &mut SetStack) -> Vec<(u32, Vec<FactId>)> {
        let mut out = Vec::new();
        let mut set = Vec::new();
        while let Some(depth) = open.pop_into(&mut set) {
            out.push((depth, set.clone()));
        }
        out.reverse();
        out
    }

    #[test]
    fn a_full_partial_with_several_covering_options_yields_one_child() {
        // Four facts in four blocks.
        let ids: Vec<FactId> = (0..4).map(FactId).collect();
        let block_of = [0, 1, 2, 3];
        let chain = Antichain::new(3);
        let (mut union, mut open) = (Vec::new(), SetStack::default());
        open.reset(3);
        // |partial| = k, and three of the four options are inside it.
        let partial = vec![ids[0], ids[1], ids[2]];
        let p = PAD;
        let sets = [ids[0], p, ids[1], p, ids[0], ids[2], ids[3], p];
        let family = Family {
            sets: &sets,
            count: 4,
            width: 2,
        };
        push_children(
            &block_of, &chain, &partial, family, 3, 1, &mut union, &mut open,
        );
        assert_eq!(drain(&mut open), vec![(1, partial)]);
        // With no option inside `partial`, every admissible union is a
        // child.
        let family = Family {
            sets: &[ids[1], ids[2]],
            count: 2,
            width: 1,
        };
        push_children(
            &block_of,
            &chain,
            &[ids[0]],
            family,
            3,
            1,
            &mut union,
            &mut open,
        );
        assert_eq!(
            drain(&mut open),
            vec![(1, vec![ids[0], ids[1]]), (1, vec![ids[0], ids[2]])]
        );
    }

    #[test]
    fn antichain_empty_set_dominates() {
        let d = db2(&[["a", "b"], ["b", "c"]]);
        let ids: Vec<FactId> = d.fact_ids().collect();
        let mut chain = Antichain::new(2);
        assert!(chain.insert(vec![ids[0]]));
        assert!(chain.insert(Vec::new()));
        assert!(chain.has_empty());
        assert!(chain.covers(&[]));
        assert!(chain.covers(&[ids[1]]));
        assert!(!chain.insert(vec![ids[1]]));
    }

    #[test]
    fn antichain_compacts_stale_slots() {
        // Insert many 2-sets sharing fact 0's block, then prune them all
        // with the singleton {0}: the dead slots must be reclaimed once
        // they outnumber live members.
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        let mut rows = vec![Fact::from_names(["hub", "x"])];
        for i in 0..80 {
            rows.push(Fact::from_names(["hub", &format!("v{i}")]));
            rows.push(Fact::from_names([&format!("k{i}"), "w"]));
        }
        let mut ids = Vec::new();
        for f in rows {
            ids.push(db.insert(f).unwrap());
        }
        let mut chain = Antichain::new(2);
        let hub = ids[0];
        for i in 0..80 {
            let other = ids[2 + 2 * i];
            let mut s = vec![hub, other];
            s.sort_unstable();
            assert!(chain.insert(s));
        }
        assert_eq!(chain.live_len(), 80);
        assert!(chain.insert(vec![hub]));
        assert_eq!(chain.live_len(), 1);
        assert!(
            chain.stale_compacted() >= 80,
            "80 pruned slots should trigger compaction, compacted {}",
            chain.stale_compacted()
        );
        assert!(chain.covers(&[hub, ids[1]]));
        assert_eq!(chain.members_with(hub).len(), 1);
    }

    #[test]
    fn worklist_stats_report_skipped_blocks() {
        // A funnel whose w-blocks all carry a private escape: the tail
        // block derives the {wᵢ→tail} singletons in round 1 (pruning the
        // seed pairs), round 2 re-derives only the touched blocks and
        // finds nothing more, and the solution-free side blocks are never
        // re-derived at all — the worklist must skip them.
        let mut rows: Vec<[String; 2]> = Vec::new();
        for i in 0..6 {
            rows.push([format!("w{i}"), "tail".into()]);
            rows.push([format!("w{i}"), format!("dead{i}")]);
        }
        rows.push(["tail".into(), "sink".into()]);
        // Inert components: contested blocks with no solutions at all.
        for i in 0..5 {
            rows.push([format!("x{i}"), format!("y{i}")]);
            rows.push([format!("x{i}"), format!("z{i}")]);
        }
        let mut d = Database::new(Signature::new(2, 1).unwrap());
        for row in &rows {
            d.insert(Fact::from_names(row.iter().map(String::as_str)))
                .unwrap();
        }
        let q = examples::q3();
        assert!(!certain_brute(&q, &d));
        let sols = SolutionSet::enumerate(&q, &d);
        let (out, stats) = run(&d.full_view(), &sols, CertKConfig::new(2));
        assert_eq!(out, CertKOutcome::NotDerived);
        assert!(
            stats.rounds >= 2,
            "expected multi-round derivation: {stats:?}"
        );
        assert!(
            stats.blocks_skipped >= 5 * (stats.rounds - 1),
            "worklist should skip the inert blocks: {stats:?}"
        );
        assert!(stats.peak_members > 0);
        assert!(
            stats.blocks_derived < stats.rounds * d.block_count(),
            "worklist must beat full passes: {stats:?}"
        );
    }

    #[test]
    fn worklist_agrees_with_reference_on_small_grid() {
        // Exhaustive differential check against the seed-era full-pass
        // evaluator on every database over {a,b} × {a,b}.
        let names = ["a", "b"];
        let mut all_rows = Vec::new();
        for x in names {
            for y in names {
                all_rows.push([x, y]);
            }
        }
        let q = examples::q3();
        for mask in 1u32..(1 << all_rows.len()) {
            let rows: Vec<[&str; 2]> = (0..all_rows.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| all_rows[i])
                .collect();
            let d = db2(&rows);
            for k in 1..=3 {
                assert_eq!(
                    certk(&q, &d, CertKConfig::new(k)),
                    reference::certk_reference(&q, &d, CertKConfig::new(k)),
                    "worklist and full-pass diverge on {d:?} at k={k}"
                );
            }
        }
    }
}
