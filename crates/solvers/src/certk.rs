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
//! ### Evaluation strategy
//! The fixpoint is evaluated *semi-naively*: the [`Antichain`] keys its
//! subset-query index by **block** (block → member slots touching the
//! block) and compacts stale slots once pruned members outnumber live
//! ones; each fact's ⊆-minimal requirement family `R_u` is cached across
//! rounds and invalidated only when a member containing `u` is inserted or
//! pruned; and a **dirty-block worklist** replaces full passes — a block is
//! re-derived only when a member touching one of its facts changed, so
//! converged regions of the database are never rescanned. The reached
//! fixpoint is the same as the naive full-pass evaluation (the closure is
//! confluent); the [`reference`](mod@reference) module keeps the seed-era
//! full-pass evaluator for differential testing.

use crate::{CancelToken, SolutionSet};
use cqa_model::{BlockId, Database, DbView, FactId};
use cqa_query::Query;
use std::collections::{HashMap, HashSet};

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
/// exact-member hash index (≤ 2⁶ probes); larger sets fall back to
/// scanning the block-keyed slot lists. `Cert_k` runs with k = 2 or 3, so
/// the fixpoint never leaves the fast path.
const COVERS_SUBSET_ENUM_MAX: usize = 6;

/// A ⊆-antichain of fact sets with a **block-keyed** subset-query index.
///
/// Members are sorted fact-id slices. The index maps each block to the
/// (possibly stale) member slots touching it — `members_with` and
/// superset pruning reach members through the blocks of the facts
/// involved, so index size tracks the number of blocks, not the number of
/// facts, and every shared-block membership list is maintained in one
/// place. An exact-member hash set lets `covers` on a small set `s` probe
/// its `2^|s| − 1` subsets directly instead of scanning shared-block
/// lists that grow with block width (the seed phase on contested
/// workloads is otherwise quadratic in the width). Slots of pruned
/// members go stale in place; once they outnumber the live members the
/// whole table is compacted (slot renumbering is invisible to callers,
/// which only ever see member slices).
pub struct Antichain<'a> {
    /// Block structure provider for the fact ids stored in members.
    db: &'a Database,
    /// Member slots; `None` marks members removed by superset pruning.
    sets: Vec<Option<Box<[FactId]>>>,
    /// block → slots of (possibly stale) members touching the block.
    touching: HashMap<BlockId, Vec<usize>>,
    /// The live members verbatim, for O(1) exact-subset probes.
    member_index: HashSet<Box<[FactId]>>,
    has_empty: bool,
    live: usize,
    /// Pruned slots not yet reclaimed by compaction.
    dead: usize,
    peak_live: usize,
    compacted: usize,
}

impl<'a> Antichain<'a> {
    /// An empty antichain over `db`'s facts (the database supplies the
    /// block of each fact for the index).
    pub fn new(db: &'a Database) -> Antichain<'a> {
        Antichain {
            db,
            sets: Vec::new(),
            touching: HashMap::new(),
            member_index: HashSet::new(),
            has_empty: false,
            live: 0,
            dead: 0,
            peak_live: 0,
            compacted: 0,
        }
    }

    /// Has `∅` been inserted? (It covers everything; all other members
    /// are dropped when it arrives.)
    pub fn has_empty(&self) -> bool {
        self.has_empty
    }

    /// Number of live members.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Most members ever live at once.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total stale slots reclaimed by index compaction so far.
    pub fn stale_compacted(&self) -> usize {
        self.compacted
    }

    /// Iterator over the live members (arbitrary order). Once `∅` has
    /// been inserted it is the antichain's single member and the one
    /// (empty) slice yielded here, keeping the count equal to
    /// [`Antichain::live_len`].
    pub fn live_members(&self) -> impl Iterator<Item = &[FactId]> {
        let empty = self.has_empty.then_some(&[][..]);
        empty
            .into_iter()
            .chain(self.sets.iter().filter_map(|s| s.as_deref()))
    }

    /// `∃ member ⊆ s`? (`s` sorted)
    pub fn covers(&self, s: &[FactId]) -> bool {
        if self.has_empty {
            return true;
        }
        if s.len() <= COVERS_SUBSET_ENUM_MAX {
            // Probe every non-empty subset of s in the exact-member index:
            // bounded work independent of how wide the touched blocks are,
            // and no heap traffic (this runs once per candidate and per
            // insert — the fixpoint's hottest path).
            let mut probe = [FactId(0); COVERS_SUBSET_ENUM_MAX];
            for mask in 1u32..(1u32 << s.len()) {
                let mut len = 0;
                for (i, &f) in s.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        probe[len] = f;
                        len += 1;
                    }
                }
                if self.member_index.contains(&probe[..len]) {
                    return true;
                }
            }
            return false;
        }
        // Fallback for large sets: a non-empty member of s contains some
        // fact of s, so it is indexed under that fact's block.
        s.iter().any(|&f| {
            self.touching.get(&self.db.block_of(f)).is_some_and(|idxs| {
                idxs.iter()
                    .any(|&i| self.sets[i].as_deref().is_some_and(|m| is_subset(m, s)))
            })
        })
    }

    /// Insert `s` (sorted) unless covered; prunes member supersets of `s`.
    /// Returns `true` if inserted.
    pub fn insert(&mut self, s: Vec<FactId>) -> bool {
        let mut sink = Vec::new();
        self.insert_tracked(s, &mut sink)
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
    pub fn insert_tracked(&mut self, s: Vec<FactId>, changed: &mut Vec<FactId>) -> bool {
        if self.covers(&s) {
            return false;
        }
        if s.is_empty() {
            self.has_empty = true;
            self.sets.clear();
            self.touching.clear();
            self.member_index.clear();
            self.live = 1;
            self.dead = 0;
            self.peak_live = self.peak_live.max(1);
            return true;
        }
        // Remove supersets: they contain *every* fact of s, so they sit
        // in every touched block's list — scanning the shortest one
        // suffices (on contested workloads s usually pairs one wide
        // shared block with a narrow private one; the private list is
        // O(1) where the shared list grows with width).
        let mut shortest: &[usize] = &[];
        let mut shortest_len = usize::MAX;
        for &f in &s {
            let len = self.touching.get(&self.db.block_of(f)).map_or(0, Vec::len);
            if len < shortest_len {
                shortest_len = len;
                shortest = self
                    .touching
                    .get(&self.db.block_of(f))
                    .map_or(&[], Vec::as_slice);
            }
        }
        let mut prune: Vec<usize> = Vec::new();
        for &i in shortest {
            if self.sets[i].as_deref().is_some_and(|m| is_subset(&s, m)) {
                prune.push(i);
            }
        }
        for i in prune {
            if let Some(m) = self.sets[i].take() {
                self.live -= 1;
                self.dead += 1;
                self.member_index.remove(&m[..]);
                changed.extend_from_slice(&m);
            }
        }
        let idx = self.sets.len();
        for b in distinct_blocks(self.db, &s) {
            self.touching.entry(b).or_default().push(idx);
        }
        changed.extend_from_slice(&s);
        let boxed: Box<[FactId]> = s.into_boxed_slice();
        self.member_index.insert(boxed.clone());
        self.sets.push(Some(boxed));
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.maybe_compact();
        true
    }

    /// Live members containing fact `f`.
    pub fn members_with(&self, f: FactId) -> Vec<&[FactId]> {
        match self.touching.get(&self.db.block_of(f)) {
            None => Vec::new(),
            Some(idxs) => idxs
                .iter()
                .filter_map(|&i| self.sets[i].as_deref())
                .filter(|m| m.binary_search(&f).is_ok())
                .collect(),
        }
    }

    /// Rebuild the slot table once pruned slots outnumber the live
    /// members. Without this the `touching` lists only ever grow: on
    /// contested workloads the shared-block lists would accumulate an
    /// unbounded tail of dead slots that every `covers`/`members_with`
    /// call rescans.
    fn maybe_compact(&mut self) {
        if self.dead <= 32 || self.dead < self.live {
            return;
        }
        self.compacted += self.dead;
        let old = std::mem::take(&mut self.sets);
        self.sets = old.into_iter().flatten().map(Some).collect();
        self.dead = 0;
        for list in self.touching.values_mut() {
            list.clear();
        }
        for i in 0..self.sets.len() {
            let m = self.sets[i]
                .take()
                .expect("compaction keeps only live slots");
            for b in distinct_blocks(self.db, &m) {
                self.touching.entry(b).or_default().push(i);
            }
            self.sets[i] = Some(m);
        }
        self.touching.retain(|_, list| !list.is_empty());
    }
}

/// The distinct blocks of a fact set. k-sets are consistent (one fact per
/// block, so this is the identity map), but the public [`Antichain`] API
/// accepts arbitrary sets — indexing a member once per *block* keeps
/// `members_with` duplicate-free either way.
fn distinct_blocks(db: &Database, s: &[FactId]) -> Vec<BlockId> {
    let mut blocks: Vec<BlockId> = s.iter().map(|&f| db.block_of(f)).collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
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
/// make the block index and the worklist observable (`cqa certain
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

/// Antichains at least this large are freed off the caller's thread
/// when their run is cancelled (see [`cancelled`]).
const BACKGROUND_FREE_MIN: usize = 1 << 16;

/// The partial evidence of a cancelled run: `stats` plus the steps
/// consumed so far and the antichain health counters at the cancel
/// observation. A large antichain and requirement cache are handed to a
/// short-lived thread to free, so the cancelled answer does not wait for
/// their teardown: freeing the 628k members that a 1.5M-fact chain holds
/// 0.7 s into its fixpoint took 265 ms in a release build on a 2-CPU VM,
/// more than a deadline's latency budget. If no thread can be spawned,
/// they are freed here.
fn cancelled(
    mut stats: CertKStats,
    chain: Antichain<'_>,
    reqs_cache: Vec<Option<Box<[Vec<FactId>]>>>,
    consumed: u64,
) -> CertKStats {
    stats.steps = consumed;
    stats.peak_members = chain.peak_live();
    stats.stale_compacted = chain.stale_compacted();
    if chain.live_len() >= BACKGROUND_FREE_MIN {
        let storage = (chain.sets, chain.touching, chain.member_index, reqs_cache);
        let _ = std::thread::Builder::new().spawn(move || drop(storage));
    }
    stats
}

/// Run `Cert_k(q)` on a copy-free [`DbView`] — the one live entry point
/// of the fixpoint. The view is typically one q-connected component or a
/// full view; `solutions` is the **parent database's** solution set. Only
/// the solutions among the view's facts participate (a solution is a
/// property of its two facts alone, so the parent's set restricted to the
/// view is exactly the view's set), and derivation runs over the view's
/// blocks only.
///
/// The fixpoint polls `token` once per seeded fact and once per block
/// derivation, so a token that fires mid-fixpoint stops the run within
/// roughly one block's worth of work. A cancelled run returns `Err` with
/// its **partial statistics** — the work done before the cancel
/// observation, the evidence a server attaches to a `deadline-exceeded`
/// answer. The outcome is withheld: a cancelled fixpoint proves nothing
/// either way. Pass [`CancelToken::new`] when nothing can cancel.
pub fn certk_view(
    view: &DbView<'_>,
    solutions: &SolutionSet,
    cfg: CertKConfig,
    token: &CancelToken,
) -> Result<(CertKOutcome, CertKStats), CertKStats> {
    let db = view.parent();
    let mut stats = CertKStats::default();
    if cfg.k == 0 {
        return Ok((CertKOutcome::NotDerived, stats));
    }
    let mut chain = Antichain::new(db);
    let mut budget = cfg.node_budget;

    // Seeds: solutions within the view that fit in a k-set, visited by
    // first fact in id order, then by partner in id order, whatever the
    // solution set's own layout. Partners outside the view are skipped — that
    // *is* the restriction of the solution set to the view (a no-op on
    // q-closed views like components and full views, where the
    // membership test is O(1)).
    for &a in view.fact_ids() {
        if token.is_cancelled() {
            return Err(cancelled(
                stats,
                chain,
                Vec::new(),
                cfg.node_budget - budget,
            ));
        }
        for &b in solutions.seconds_of(a) {
            if !view.contains_fact(b) {
                continue;
            }
            if a == b {
                stats.inserted += chain.insert(vec![a]) as usize;
            } else if !db.key_equal(a, b) && cfg.k >= 2 {
                let mut s = vec![a, b];
                s.sort_unstable();
                stats.inserted += chain.insert(s) as usize;
            }
            // Distinct key-equal facts never share a repair: no seed.
        }
    }

    let blocks = view.blocks();
    let nb = blocks.len();
    // Dirty-block worklist, drained in generations ("rounds"): the first
    // generation holds every block; afterwards a block re-enters only when
    // a member touching one of its facts is inserted or pruned —
    // derive_block's output depends on the chain solely through the
    // requirement families of the block's facts, so an untouched block
    // cannot produce a new (uncovered) candidate and is safe to skip.
    let mut current: Vec<BlockId> = blocks.to_vec();
    let mut next: Vec<BlockId> = Vec::new();
    // queued[i]: view block i is already in `next`.
    let mut queued = vec![false; nb];
    // Cached ⊆-minimal requirement families, by view-local fact index;
    // `None` = stale (a member containing the fact changed since the
    // last recomputation).
    let mut reqs_cache: Vec<Option<Box<[Vec<FactId>]>>> = vec![None; view.len()];
    let mut changed: Vec<FactId> = Vec::new();

    let outcome = loop {
        if chain.has_empty() {
            break CertKOutcome::Certain;
        }
        if current.is_empty() {
            break CertKOutcome::NotDerived;
        }
        stats.rounds += 1;
        let mut exhausted = false;
        'round: for &b in &current {
            if token.is_cancelled() {
                let consumed = cfg.node_budget - budget;
                return Err(cancelled(stats, chain, reqs_cache, consumed));
            }
            stats.blocks_derived += 1;
            let cands = match derive_block(db, view, &chain, b, cfg.k, &mut budget, &mut reqs_cache)
            {
                Ok(cands) => cands,
                Err(()) => {
                    exhausted = true;
                    break 'round;
                }
            };
            for c in cands {
                changed.clear();
                if chain.insert_tracked(c, &mut changed) {
                    stats.inserted += 1;
                    for &f in &changed {
                        if let Some(fi) = view.local_fact_index(f) {
                            reqs_cache[fi] = None;
                        }
                        let bf = db.block_of(f);
                        if let Some(bi) = view.local_block_index(bf) {
                            if !queued[bi] {
                                queued[bi] = true;
                                next.push(bf);
                            }
                        }
                    }
                }
            }
            if chain.has_empty() {
                break 'round;
            }
        }
        if exhausted {
            break CertKOutcome::BudgetExhausted;
        }
        if chain.has_empty() {
            break CertKOutcome::Certain;
        }
        if next.is_empty() {
            break CertKOutcome::NotDerived;
        }
        stats.blocks_skipped += nb - next.len();
        // Hand the dirty set over as the next generation, in ascending
        // block order (deterministic, and the order a full pass uses).
        next.sort_unstable();
        for &b in &next {
            queued[view
                .local_block_index(b)
                .expect("queued block is in the view")] = false;
        }
        std::mem::swap(&mut current, &mut next);
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

/// The ⊆-minimal requirement family
/// `R_u = min { M ∖ {u} : M ∈ Δ, u ∈ M }`.
fn minimal_requirements(chain: &Antichain<'_>, u: FactId) -> Box<[Vec<FactId>]> {
    let mut ts: Vec<Vec<FactId>> = chain
        .members_with(u)
        .into_iter()
        .map(|m| m.iter().copied().filter(|&f| f != u).collect::<Vec<_>>())
        .collect();
    // Sort by (length, content): duplicates become adjacent and every
    // potential strict subset of a set precedes it, so one forward pass
    // keeps exactly the ⊆-minimal sets — equal-length distinct sets are
    // never subsets of each other, so only strictly shorter accepted sets
    // need checking (on wide contested blocks the family is mostly
    // singletons and this pass is linear, where the symmetric pairwise
    // filter was quadratic).
    ts.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    ts.dedup();
    let mut minimal: Vec<Vec<FactId>> = Vec::new();
    for t in ts {
        let covered = minimal
            .iter()
            .take_while(|m| m.len() < t.len())
            .any(|m| is_subset(m, &t));
        if !covered {
            minimal.push(t);
        }
    }
    minimal.into_boxed_slice()
}

/// Candidate minimal unions for one block, or `Err(())` on budget
/// exhaustion. Requirement families are read through `reqs_cache`
/// (indexed by view-local fact id) and recomputed only for facts whose
/// cache entry was invalidated since the last visit.
fn derive_block(
    db: &Database,
    view: &DbView<'_>,
    chain: &Antichain<'_>,
    block: BlockId,
    k: usize,
    budget: &mut u64,
    reqs_cache: &mut [Option<Box<[Vec<FactId>]>>],
) -> Result<Vec<Vec<FactId>>, ()> {
    let facts = db.block(block);
    // Refresh stale entries first (separate pass so the reads below can
    // borrow the cache immutably).
    for &u in facts {
        let fi = view
            .local_fact_index(u)
            .expect("block fact belongs to the view");
        if reqs_cache[fi].is_none() {
            reqs_cache[fi] = Some(minimal_requirements(chain, u));
        }
    }
    let mut reqs: Vec<&[Vec<FactId>]> = Vec::with_capacity(facts.len());
    for &u in facts {
        let fi = view
            .local_fact_index(u)
            .expect("block fact belongs to the view");
        let family = reqs_cache[fi].as_deref().expect("refreshed above");
        if family.is_empty() {
            // This fact cannot be discharged yet: the block derives
            // nothing until a member containing it appears.
            return Ok(Vec::new());
        }
        reqs.push(family);
    }
    // Process facts with fewest options first for earlier pruning.
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
        push_children(
            db,
            chain,
            partial,
            reqs[order[depth]],
            k,
            depth + 1,
            &mut stack,
        );
    }
    // Deduplicate candidates.
    out.sort();
    out.dedup();
    Ok(out)
}

/// Push onto `stack`, at `depth`, the unions of `partial` with each
/// option of one requirement `family` that stay consistent, within the
/// size cap `k` and uncovered by `chain`.
///
/// Dominance: when some option is already `⊆ partial`, its union is
/// `partial` itself and every sibling union is a superset of it.
/// Consistency and the size cap hold for a subset whenever they hold for
/// a superset, so every candidate a sibling could reach is a superset of
/// one `partial` reaches — redundant in the antichain. `partial` is then
/// pushed once and the rest of the family is skipped; without the rule a
/// full `partial` was pushed once per covering option, and those
/// duplicates multiplied with depth.
fn push_children(
    db: &Database,
    chain: &Antichain<'_>,
    partial: Vec<FactId>,
    family: &[Vec<FactId>],
    k: usize,
    depth: usize,
    stack: &mut Vec<(usize, Vec<FactId>)>,
) {
    // Coverage is monotone — a member is only ever pruned in favour of a
    // subset, so whatever is covered now stays covered. A covered union
    // is therefore dropped for good: every union it could grow into is a
    // superset of a covered set, i.e. redundant.
    if family.iter().any(|t| is_subset(t, &partial)) {
        if !chain.covers(&partial) {
            stack.push((depth, partial));
        }
        return;
    }
    for t in family {
        // Union t into partial, maintaining consistency and the size cap.
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
                stack.push((depth, u));
            }
        }
    }
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
        let mut chain = Antichain::new(&d);
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
        assert!(chain.insert_tracked(vec![ids[0]], &mut changed));
        assert_eq!(chain.live_len(), 2);
        assert!(changed.contains(&ids[0]) && changed.contains(&ids[2]));
        assert_eq!(chain.members_with(ids[2]), Vec::<&[FactId]>::new());
        assert_eq!(chain.members_with(ids[0]), vec![&[ids[0]][..]]);
        assert_eq!(chain.peak_live(), 2);
    }

    #[test]
    fn a_full_partial_with_several_covering_options_yields_one_child() {
        let d = db2(&[["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"]]);
        let ids: Vec<FactId> = d.fact_ids().collect();
        let chain = Antichain::new(&d);
        // |partial| = k, and three of the four options are inside it.
        let partial = vec![ids[0], ids[1], ids[2]];
        let family = [
            vec![ids[0]],
            vec![ids[1]],
            vec![ids[0], ids[2]],
            vec![ids[3]],
        ];
        let mut stack = Vec::new();
        push_children(&d, &chain, partial.clone(), &family, 3, 1, &mut stack);
        assert_eq!(stack, vec![(1, partial)]);
        // With no option inside `partial`, every admissible union is a
        // child.
        let mut stack = Vec::new();
        let family = [vec![ids[1]], vec![ids[2]]];
        push_children(&d, &chain, vec![ids[0]], &family, 3, 1, &mut stack);
        assert_eq!(
            stack,
            vec![(1, vec![ids[0], ids[1]]), (1, vec![ids[0], ids[2]])]
        );
    }

    #[test]
    fn antichain_empty_set_dominates() {
        let d = db2(&[["a", "b"], ["b", "c"]]);
        let ids: Vec<FactId> = d.fact_ids().collect();
        let mut chain = Antichain::new(&d);
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
        let mut chain = Antichain::new(&db);
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
