//! Solution enumeration as join groups.
//!
//! A solution to `q = A B` in `D` is a pair `(a, b)` of facts with a single
//! substitution `μ` sending `A ↦ a` and `B ↦ b` (Section 2). Each atom is
//! compiled once into an `AtomPlan`: a fact matches an atom when its
//! relation and arity agree and every repeated variable sees one element,
//! and then `μ` on the shared variables is read off fixed positions. So
//! `q(a b)` iff `a` matches `A`, `b` matches `B` and their projections are
//! equal: the solutions are the disjoint union over join keys `κ` of
//! `A_κ × B_κ`. A [`SolutionSet`] stores one *join group* per key, its
//! `A` and `B` facts each ascending, and never a pair. The enumeration
//! sorts each side's matches as records of the projection's first two
//! elements packed into one word and the fact id, re-sorting a run of one
//! prefix by the remaining columns only when the key is wider, then cuts
//! the two sorted sides into groups in one two-cursor pass. No element is
//! hashed.
//! [`SolutionSet::apply_delta`] moves facts into and out of groups across
//! deltas.
//!
//! The facts of the groups with both sides non-empty are the *support*;
//! a q-connected component outside it is never certain (Proposition
//! 10.6), so the solvers decide the support's components only.

use crate::cancel::POLL_STRIDE;
use crate::CancelToken;
use cqa_model::{BlockId, Database, DeltaReport, Elem, FactId, FactRef, RelId};
use cqa_query::{match_pair, Atom, Query, Var};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// No group, or no owned runs.
const NONE: u32 = u32::MAX;

/// The two atoms, as indexes into the per-side arrays below.
const A: usize = 0;
const B: usize = 1;

/// All solutions of a query in a database, as join groups, patched in
/// place across deltas. Every array pair is indexed by side, `A` then
/// `B`.
#[derive(Clone, Debug)]
pub struct SolutionSet {
    /// The query's two atoms, compiled once.
    plan: [AtomPlan; 2],
    /// Each fact's group as a match of the side's atom, by fact id;
    /// [`NONE`] (or past the end) when it has none.
    group_of: [Vec<u32>; 2],
    /// The enumeration's matches of the side's atom, sorted by
    /// `(projection, id)`: group `g`'s run is `facts[s][start[s][g]..
    /// start[s][g + 1]]`. Groups are numbered in key order, and every key
    /// of either side has one.
    facts: [Vec<FactId>; 2],
    start: [Vec<u32>; 2],
    /// The runs of the groups a delta changed or created, and each
    /// group's index among them ([`NONE`] or past the end: the
    /// enumeration's runs).
    owned: Vec<[Vec<FactId>; 2]>,
    owned_at: Vec<u32>,
    /// The groups of keys the enumeration never saw, and the ids of those
    /// emptied on both sides, for reuse.
    new_keys: BTreeMap<Box<[Elem]>, u32>,
    free: Vec<u32>,
    /// `Σ |A_κ|·|B_κ|`, the number of ordered solutions.
    len: usize,
}

impl SolutionSet {
    /// Enumerate every ordered solution `q(a b)` in `db`: sort both sides
    /// by `(projection, id)`, then cut them into one group per key of
    /// either side.
    pub fn enumerate(q: &Query, db: &Database) -> SolutionSet {
        let plan = compile(q);
        let sides = [SortedSide::of(&plan[A], db), SortedSide::of(&plan[B], db)];
        let mut group_of = [vec![NONE; db.fact_slots()], vec![NONE; db.fact_slots()]];
        let (mut start, mut len, mut at) = ([vec![0], vec![0]], 0, [0, 0]);
        loop {
            // The next group is the smaller next key, from each side
            // that has it.
            let next = match [A, B].map(|s| at[s] < sides[s].recs.len()) {
                [true, true] => sides[A].cmp(at[A], &sides[B], at[B]),
                [true, false] => Ordering::Less,
                [false, true] => Ordering::Greater,
                [false, false] => break,
            };
            let mut end = at;
            if next.is_le() {
                end[A] = sides[A].run_end(at[A]);
            }
            if next.is_ge() {
                end[B] = sides[B].run_end(at[B]);
            }
            let g = start[A].len() as u32 - 1;
            for s in [A, B] {
                for r in &sides[s].recs[at[s]..end[s]] {
                    group_of[s][r.id.idx()] = g;
                }
                start[s].push(end[s] as u32);
            }
            len += (end[A] - at[A]) * (end[B] - at[B]);
            at = end;
        }
        let facts = sides.map(SortedSide::into_ids);
        let set = SolutionSet {
            plan,
            group_of,
            facts,
            start,
            owned: Vec::new(),
            owned_at: Vec::new(),
            new_keys: BTreeMap::new(),
            free: Vec::new(),
            len,
        };
        debug_assert!(set
            .pairs()
            .all(|(a, b)| match_pair(q, db.fact(a), db.fact(b)).is_some()));
        set
    }

    /// Side `s`'s run of group `g`, ascending.
    fn run(&self, g: usize, s: usize) -> &[FactId] {
        match self.owned_at.get(g).filter(|&&o| o != NONE) {
            Some(&o) => &self.owned[o as usize][s],
            None => &self.facts[s][self.start[s][g] as usize..self.start[s][g + 1] as usize],
        }
    }

    /// Join group `g`'s `A` facts and `B` facts, each ascending.
    pub(crate) fn group(&self, g: usize) -> (&[FactId], &[FactId]) {
        (self.run(g, A), self.run(g, B))
    }

    /// One past the largest group id.
    pub(crate) fn group_slots(&self) -> usize {
        self.owned_at
            .len()
            .max(self.start[A].len().saturating_sub(1))
    }

    /// `f`'s group as a match of side `s`'s atom.
    fn group_on(&self, s: usize, f: FactId) -> Option<usize> {
        let g = *self.group_of[s].get(f.idx())?;
        (g != NONE).then_some(g as usize)
    }

    /// Does group `g` hold a solution, with facts on both sides?
    fn has_solution(&self, g: usize) -> bool {
        !self.run(g, A).is_empty() && !self.run(g, B).is_empty()
    }

    /// All ordered solutions `(a, b)`, group by group.
    pub fn pairs(&self) -> impl Iterator<Item = (FactId, FactId)> + '_ {
        (0..self.group_slots()).flat_map(move |g| {
            let (a_run, b_run) = self.group(g);
            a_run
                .iter()
                .flat_map(move |&a| b_run.iter().map(move |&b| (a, b)))
        })
    }

    /// Number of ordered solutions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the query has no solution at all in the database.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `q(a b)`?
    pub fn holds(&self, a: FactId, b: FactId) -> bool {
        let g = self.group_on(A, a);
        g.is_some() && g == self.group_on(B, b)
    }

    /// `q{a b}` — `q(a b) ∨ q(b a)`?
    pub fn holds_unordered(&self, a: FactId, b: FactId) -> bool {
        self.holds(a, b) || self.holds(b, a)
    }

    /// `q(a a)`?
    pub fn self_loop(&self, a: FactId) -> bool {
        self.holds(a, a)
    }

    /// Facts `b` with `q(a b)`, ascending.
    pub fn seconds_of(&self, a: FactId) -> &[FactId] {
        self.group_on(A, a).map_or(&[], |g| self.run(g, B))
    }

    /// Facts `c` with `q(c b)`, ascending.
    pub fn firsts_of(&self, b: FactId) -> &[FactId] {
        self.group_on(B, b).map_or(&[], |g| self.run(g, A))
    }

    /// Neighbours of `a` in the solution graph: every `b ≠ a` with `q{a b}`,
    /// deduplicated, plus information about the loop is available via
    /// [`SolutionSet::self_loop`].
    pub fn partners(&self, a: FactId) -> Vec<FactId> {
        let mut out: Vec<FactId> = self
            .seconds_of(a)
            .iter()
            .chain(self.firsts_of(a))
            .copied()
            .filter(|&b| b != a)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The join groups with a solution that `f` belongs to: its `A`
    /// group, then its `B` group when that is another one. Every fact of
    /// a group is in a solution with every fact on its other side.
    pub(crate) fn groups_of(&self, f: FactId) -> impl Iterator<Item = usize> + '_ {
        let a = self.group_on(A, f);
        let b = self.group_on(B, f).filter(|&g| Some(g) != a);
        a.into_iter().chain(b).filter(|&g| self.has_solution(g))
    }

    /// The live blocks that hold a fact of some solution, ascending: the
    /// *support*. One pass over the groups and the block slots.
    pub fn support_blocks(&self, db: &Database) -> Vec<BlockId> {
        self.support_blocks_cancellable(db, &CancelToken::new())
            .expect("a never-raised token cannot cancel the pass")
    }

    /// [`SolutionSet::support_blocks`], polling `token` every
    /// `POLL_STRIDE` groups; `None` once it fired.
    pub(crate) fn support_blocks_cancellable(
        &self,
        db: &Database,
        token: &CancelToken,
    ) -> Option<Vec<BlockId>> {
        let mut marked = vec![false; db.block_slots()];
        for g in 0..self.group_slots() {
            if g % POLL_STRIDE == 0 && token.is_cancelled() {
                return None;
            }
            if self.has_solution(g) {
                for &f in self.run(g, A).iter().chain(self.run(g, B)) {
                    marked[db.block_of(f).idx()] = true;
                }
            }
        }
        Some(
            (0..marked.len())
                .filter(|&b| marked[b])
                .map(|b| BlockId(b as u32))
                .collect(),
        )
    }

    /// Patch the set after `db.apply_delta` produced `report`: it then
    /// equals (as a set of pairs) a fresh [`SolutionSet::enumerate`] on
    /// `db`; group and pair *order* may differ, which no verdict depends
    /// on. `db` must be the post-delta database (retracted ids still
    /// resolve through their tombstoned slots).
    ///
    /// Every join key with a fact on either side has a group, so an
    /// inserted fact joins its key's group and a retracted one leaves it:
    /// `O(delta × (log groups + group size))` instead of `O(n)`. A new
    /// key's group is freed (key and id) once both its sides are empty.
    pub fn apply_delta(&mut self, db: &Database, report: &DeltaReport) {
        let mut key = Vec::new();
        for s in [A, B] {
            for &id in &report.retracted {
                self.leave(s, db, id, &mut key);
            }
        }
        for s in [A, B] {
            for &id in &report.inserted {
                self.join(s, db, id, &mut key);
            }
        }
    }

    /// The group of `key`: a binary search over the enumeration's groups,
    /// in key order, each key read off the group's first fact (a
    /// retracted fact's slot still resolves); then the new keys.
    fn find(&self, db: &Database, key: &[Elem]) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.start[A].len().saturating_sub(1));
        while lo < hi {
            let mid = (lo + hi) / 2;
            let s = if self.start[A][mid] < self.start[A][mid + 1] {
                A
            } else {
                B
            };
            let first = self.facts[s][self.start[s][mid] as usize];
            match self.plan[s].cmp_key(db.fact(first), key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid as u32),
            }
        }
        self.new_keys.get(key).copied()
    }

    /// Group `g`'s runs, copied out of the enumeration's arrays on first
    /// use.
    fn owned_mut(&mut self, g: usize) -> &mut [Vec<FactId>; 2] {
        if self.owned_at.get(g).map_or(true, |&o| o == NONE) {
            let runs = [self.run(g, A).to_vec(), self.run(g, B).to_vec()];
            self.owned.push(runs);
            self.owned_at.resize(self.owned_at.len().max(g + 1), NONE);
            self.owned_at[g] = self.owned.len() as u32 - 1;
        }
        &mut self.owned[self.owned_at[g] as usize]
    }

    /// Put a fact new to the set into its key's group on side `s`, if it
    /// matches that atom. Ids only grow, so it goes last in its run.
    fn join(&mut self, s: usize, db: &Database, id: FactId, key: &mut Vec<Elem>) {
        key.clear();
        if !self.plan[s].project(db.fact(id), key) {
            return;
        }
        let g = match self.find(db, key) {
            Some(g) => g,
            None => {
                let g = match self.free.pop() {
                    Some(g) => g,
                    None => {
                        let g = self.group_slots();
                        self.owned.push(Default::default());
                        self.owned_at.resize(g + 1, NONE);
                        self.owned_at[g] = self.owned.len() as u32 - 1;
                        g as u32
                    }
                };
                self.new_keys.insert(key.as_slice().into(), g);
                g
            }
        };
        let runs = self.owned_mut(g as usize);
        assert!(
            runs[s].last() < Some(&id),
            "facts join their groups ascending"
        );
        runs[s].push(id);
        self.len += runs[1 - s].len();
        set_slot(&mut self.group_of[s], id, g);
    }

    /// Take a retracted fact out of its group on side `s`, freeing a new
    /// key's group when both its sides are then empty.
    fn leave(&mut self, s: usize, db: &Database, id: FactId, key: &mut Vec<Elem>) {
        let Some(g) = self.group_on(s, id) else {
            return;
        };
        self.group_of[s][id.idx()] = NONE;
        let runs = self.owned_mut(g);
        let at = runs[s]
            .binary_search(&id)
            .expect("a grouped fact is in its run");
        runs[s].remove(at);
        let (pairs, emptied) = (runs[1 - s].len(), runs.iter().all(Vec::is_empty));
        self.len -= pairs;
        if emptied && g >= self.start[A].len().saturating_sub(1) {
            key.clear();
            self.plan[s].project(db.fact(id), key);
            self.new_keys.remove(key.as_slice());
            self.free.push(g as u32);
        }
    }
}

/// Set `slots[f] = g`, growing the column with [`NONE`].
fn set_slot(slots: &mut Vec<u32>, f: FactId, g: u32) {
    if slots.len() <= f.idx() {
        slots.resize(f.idx() + 1, NONE);
    }
    slots[f.idx()] = g;
}

/// One atom compiled for matching: what a fact must look like to match
/// it, and where its projection onto the shared variables sits.
#[derive(Clone, Debug)]
pub(crate) struct AtomPlan {
    rel: RelId,
    arity: usize,
    /// `(i, j)` with `i < j`: the variable at `j` first occurs at `i`, so
    /// a matching fact has equal elements there.
    equal: Box<[(usize, usize)]>,
    /// The first position of each shared variable, in the query's
    /// shared-variable order.
    key: Box<[usize]>,
}

/// Both atoms of `q`, compiled once before a scan. `q(a b)` holds iff `a`
/// matches `A`, `b` matches `B`, and their projections are equal: the
/// substitution is then consistent on the shared variables, and each
/// atom's own repeats were checked by its match.
pub(crate) fn compile(q: &Query) -> [AtomPlan; 2] {
    let shared: Vec<Var> = q.shared_vars().into_iter().collect();
    [
        AtomPlan::compile(q.a(), &shared),
        AtomPlan::compile(q.b(), &shared),
    ]
}

/// `q(f f)` for the compiled atoms of `q`: `f` matches both, and its two
/// projections agree.
pub(crate) fn holds_on_itself([a, b]: &[AtomPlan; 2], fact: FactRef<'_>) -> bool {
    let t = fact.tuple();
    a.matches(fact) && b.matches(fact) && a.key.iter().zip(&*b.key).all(|(&i, &j)| t[i] == t[j])
}

impl AtomPlan {
    fn compile(atom: &Atom, shared: &[Var]) -> AtomPlan {
        let vars = atom.tuple();
        let first = |v: &Var| vars.iter().position(|w| w == v);
        AtomPlan {
            rel: atom.rel(),
            arity: vars.len(),
            equal: (0..vars.len())
                .filter_map(|j| first(&vars[j]).filter(|&i| i < j).map(|i| (i, j)))
                .collect(),
            key: shared
                .iter()
                .map(|v| first(v).expect("a shared variable occurs in both atoms"))
                .collect(),
        }
    }

    /// Does `fact` match the atom?
    fn matches(&self, fact: FactRef<'_>) -> bool {
        let t = fact.tuple();
        fact.rel() == self.rel
            && t.len() == self.arity
            && self.equal.iter().all(|&(i, j)| t[i] == t[j])
    }

    /// If `fact` matches the atom, append its projection onto the shared
    /// variables to `key` and return `true`.
    fn project(&self, fact: FactRef<'_>, key: &mut Vec<Elem>) -> bool {
        let matches = self.matches(fact);
        if matches {
            key.extend(self.key.iter().map(|&i| fact.tuple()[i]));
        }
        matches
    }

    /// The projection of the matching fact `id` past its first two
    /// elements.
    fn rest<'d>(&'d self, db: &'d Database, id: FactId) -> impl Iterator<Item = Elem> + 'd {
        let rest = self.key.get(2..).unwrap_or_default();
        rest.iter().map(move |&i| db.fact(id).tuple()[i])
    }

    /// The projection of `fact`, which matches the atom, against `key`.
    fn cmp_key(&self, fact: FactRef<'_>, key: &[Elem]) -> Ordering {
        self.key.iter().map(|&i| &fact.tuple()[i]).cmp(key)
    }
}

/// One match of an atom: the first two elements of its projection, read
/// as one word whose order is theirs (an [`Elem`] orders by its id), and
/// the fact's id. Twelve bytes, so a side's records take no more room
/// than an index, an id and a one-element key each.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Record {
    prefix: [u32; 2],
    id: FactId,
}

impl Record {
    fn prefix(self) -> u64 {
        (self.prefix[0] as u64) << 32 | self.prefix[1] as u64
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Record) -> Ordering {
        (self.prefix(), self.id).cmp(&(other.prefix(), other.id))
    }
}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Record) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The facts matching one atom, sorted by `(projection, id)`. The packed
/// prefix settles most comparisons; a key wider than two columns reads
/// the rest off the fact.
struct SortedSide<'d> {
    plan: &'d AtomPlan,
    db: &'d Database,
    recs: Vec<Record>,
}

impl<'d> SortedSide<'d> {
    /// Collect one record per match and sort them: by prefix and id, then,
    /// for a key wider than two columns, each run of one prefix again by
    /// the remaining columns and id. An empty key leaves the records in
    /// id order, which is already sorted.
    fn of(plan: &'d AtomPlan, db: &'d Database) -> SortedSide<'d> {
        // Room for every live fact, so collecting never copies the
        // records to grow; the unused tail is never written.
        let mut recs: Vec<Record> = Vec::with_capacity(db.len());
        recs.extend(
            db.facts()
                .filter(|&(_, fact)| plan.matches(fact))
                .map(|(id, fact)| {
                    let mut prefix = [0; 2];
                    for (p, &i) in prefix.iter_mut().zip(&*plan.key) {
                        *p = fact.tuple()[i].id();
                    }
                    Record { prefix, id }
                }),
        );
        if !plan.key.is_empty() {
            recs.sort_unstable();
        }
        let mut i = 0;
        while plan.key.len() > 2 && i < recs.len() {
            let prefix = recs[i].prefix;
            let end = i + recs[i..].partition_point(|r| r.prefix == prefix);
            recs[i..end].sort_unstable_by(|x, y| {
                plan.rest(db, x.id)
                    .cmp(plan.rest(db, y.id))
                    .then(x.id.cmp(&y.id))
            });
            i = end;
        }
        SortedSide { plan, db, recs }
    }

    /// Record `i`'s projection against record `j`'s of `other`.
    fn cmp(&self, i: usize, other: &SortedSide<'_>, j: usize) -> Ordering {
        let (x, y) = (self.recs[i], other.recs[j]);
        x.prefix().cmp(&y.prefix()).then_with(|| {
            self.plan
                .rest(self.db, x.id)
                .cmp(other.plan.rest(other.db, y.id))
        })
    }

    /// The end of the run of equal keys starting at `i`: the end of the
    /// records when the key is empty.
    fn run_end(&self, i: usize) -> usize {
        if self.plan.key.is_empty() {
            return self.recs.len();
        }
        (i + 1..self.recs.len())
            .find(|&j| self.cmp(i, self, j).is_ne())
            .unwrap_or(self.recs.len())
    }

    /// The ids in record order, sized to fit.
    fn into_ids(self) -> Vec<FactId> {
        let mut ids: Vec<FactId> = self.recs.into_iter().map(|r| r.id).collect();
        ids.shrink_to_fit();
        ids
    }
}

/// Does the *consistent* fact set `facts` (e.g. a repair) satisfy `q`?
/// It does iff some join group has a chosen fact on both sides.
pub fn satisfies(solutions: &SolutionSet, facts: &[FactId]) -> bool {
    let mut chosen_a = vec![false; solutions.group_slots()];
    for g in facts.iter().filter_map(|&f| solutions.group_on(A, f)) {
        chosen_a[g] = true;
    }
    facts
        .iter()
        .any(|&f| solutions.group_on(B, f).is_some_and(|g| chosen_a[g]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;

    fn db_from(sig: Signature, rows: &[&[&str]]) -> Database {
        let mut db = Database::new(sig);
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn q2_solutions_via_join() {
        // q2 = R(x u | x y) R(u y | x z). a = R(a b a c), b = R(b c a d).
        let q = examples::q2();
        let db = db_from(
            Signature::new(4, 2).unwrap(),
            &[
                &["a", "b", "a", "c"],
                &["b", "c", "a", "d"],
                &["b", "c", "b", "d"],
            ],
        );
        let sols = SolutionSet::enumerate(&q, &db);
        let a = db.id_of(&Fact::from_names(["a", "b", "a", "c"])).unwrap();
        let b = db.id_of(&Fact::from_names(["b", "c", "a", "d"])).unwrap();
        let c = db.id_of(&Fact::from_names(["b", "c", "b", "d"])).unwrap();
        assert!(sols.holds(a, b));
        assert!(!sols.holds(b, a));
        assert!(!sols.holds(a, c)); // x must recur at position 2
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.partners(a), vec![b]);
    }

    #[test]
    fn self_loops_detected() {
        let q = examples::q3(); // R(x | y) R(y | z)
        let db = db_from(Signature::new(2, 1).unwrap(), &[&["a", "a"], &["b", "c"]]);
        let sols = SolutionSet::enumerate(&q, &db);
        let aa = db.id_of(&Fact::from_names(["a", "a"])).unwrap();
        assert!(sols.self_loop(aa));
    }

    #[test]
    fn chain_solutions_for_q3() {
        // R(a b), R(b c), R(c d): q3 solutions (ab, bc), (bc, cd).
        let q = examples::q3();
        let db = db_from(
            Signature::new(2, 1).unwrap(),
            &[&["a", "b"], &["b", "c"], &["c", "d"]],
        );
        let sols = SolutionSet::enumerate(&q, &db);
        assert_eq!(sols.len(), 2);
        let ab = db.id_of(&Fact::from_names(["a", "b"])).unwrap();
        let bc = db.id_of(&Fact::from_names(["b", "c"])).unwrap();
        let cd = db.id_of(&Fact::from_names(["c", "d"])).unwrap();
        assert!(sols.holds(ab, bc));
        assert!(sols.holds(bc, cd));
        assert!(!sols.holds(ab, cd));
        assert!(sols.holds_unordered(cd, bc));
    }

    #[test]
    fn satisfies_detects_chosen_solutions() {
        let q = examples::q3();
        let db = db_from(
            Signature::new(2, 1).unwrap(),
            &[&["a", "b"], &["b", "c"], &["x", "y"]],
        );
        let sols = SolutionSet::enumerate(&q, &db);
        let ab = db.id_of(&Fact::from_names(["a", "b"])).unwrap();
        let bc = db.id_of(&Fact::from_names(["b", "c"])).unwrap();
        let xy = db.id_of(&Fact::from_names(["x", "y"])).unwrap();
        assert!(satisfies(&sols, &[ab, bc]));
        assert!(!satisfies(&sols, &[ab, xy]));
        assert!(!satisfies(&sols, &[ab]));
        assert!(!satisfies(&sols, &[]));
    }

    fn sorted_pairs(s: &SolutionSet) -> Vec<(FactId, FactId)> {
        let mut v: Vec<(FactId, FactId)> = s.pairs().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn incremental_solutions_track_deltas() {
        let q = examples::q3();
        let mut db = db_from(
            Signature::new(2, 1).unwrap(),
            &[&["a", "b"], &["b", "c"], &["x", "y"]],
        );
        let mut inc = SolutionSet::enumerate(&q, &db);
        assert_eq!(
            sorted_pairs(&inc),
            sorted_pairs(&SolutionSet::enumerate(&q, &db))
        );
        // Insert a chain extension and a self-loop, retract the x edge.
        let rep = db
            .apply_delta(
                &[Fact::from_names(["c", "d"]), Fact::from_names(["e", "e"])],
                &[Fact::from_names(["x", "y"])],
            )
            .unwrap();
        inc.apply_delta(&db, &rep);
        assert_eq!(
            sorted_pairs(&inc),
            sorted_pairs(&SolutionSet::enumerate(&q, &db))
        );
        let ee = db.id_of(&Fact::from_names(["e", "e"])).unwrap();
        assert!(inc.self_loop(ee));
        // Retract a fact that participates in pairs; indexes must shrink.
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["b", "c"])])
            .unwrap();
        inc.apply_delta(&db, &rep);
        assert_eq!(
            sorted_pairs(&inc),
            sorted_pairs(&SolutionSet::enumerate(&q, &db))
        );
        let ab = db.id_of(&Fact::from_names(["a", "b"])).unwrap();
        assert!(inc.seconds_of(ab).is_empty());
    }

    #[test]
    fn incremental_solutions_survive_reinsertion() {
        // Retract then re-insert the same fact: the fact gets a fresh id
        // and the pair set must match a from-scratch enumeration.
        let q = examples::q3();
        let mut db = db_from(Signature::new(2, 1).unwrap(), &[&["a", "b"], &["b", "c"]]);
        let mut inc = SolutionSet::enumerate(&q, &db);
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["b", "c"])])
            .unwrap();
        inc.apply_delta(&db, &rep);
        let rep = db
            .apply_delta(&[Fact::from_names(["b", "c"])], &[])
            .unwrap();
        inc.apply_delta(&db, &rep);
        assert_eq!(
            sorted_pairs(&inc),
            sorted_pairs(&SolutionSet::enumerate(&q, &db))
        );
        assert_eq!(inc.len(), 1);
    }

    #[test]
    fn enumeration_agrees_with_naive_product() {
        // Cross-check the sort-merge join against the O(n^2) definition.
        let q = examples::q5(); // R(x | y x) R(y | x u)
        let sig = Signature::new(3, 1).unwrap();
        let names = ["a", "b", "c"];
        let mut rows: Vec<Vec<&str>> = Vec::new();
        for x in names {
            for y in names {
                for z in names {
                    rows.push(vec![x, y, z]);
                }
            }
        }
        let mut db = Database::new(sig);
        for r in &rows {
            db.insert(Fact::from_names(r.iter().copied())).unwrap();
        }
        let sols = SolutionSet::enumerate(&q, &db);
        for (ia, fa) in db.facts() {
            for (ib, fb) in db.facts() {
                assert_eq!(
                    sols.holds(ia, ib),
                    cqa_query::is_solution(&q, fa, fb),
                    "disagreement on ({fa}, {fb})"
                );
            }
        }
    }
}
