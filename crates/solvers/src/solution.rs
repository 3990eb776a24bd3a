//! Solution enumeration.
//!
//! A solution to `q = A B` in `D` is a pair `(a, b)` of facts with a single
//! substitution `μ` sending `A ↦ a` and `B ↦ b` (Section 2). Both atoms
//! are compiled once into a `JoinPlan`: a fact matches an atom when its
//! relation and arity agree and every repeated variable sees one element,
//! and then `μ` on the shared variables is read off fixed positions. The
//! batch enumeration is a hash join on that projection — index the facts
//! matching `B`, then probe with each fact matching `A` — and the
//! incremental one keeps both sides indexed between deltas.

use cqa_model::{Database, DeltaReport, Elem, Fact, FactId, RelId};
use cqa_query::{match_pair, Atom, Query, Var};
use std::collections::{HashMap, HashSet};

/// All solutions of a query in a database, with lookup indexes.
#[derive(Clone, Debug, Default)]
pub struct SolutionSet {
    pairs: Vec<(FactId, FactId)>,
    /// Every `b` with `q(a b)`, listed under `a`.
    seconds: Adjacency,
    /// Every `a` with `q(a b)`, listed under `b`.
    firsts: Adjacency,
    /// Each pair's index in `pairs`, so a removal is one `swap_remove`.
    /// Built by the first removal (one `O(pairs)` pass) and kept current
    /// by every push after it; sets that never shrink never build it.
    positions: Option<HashMap<(FactId, FactId), usize>>,
}

impl SolutionSet {
    /// Enumerate every ordered solution `q(a b)` in `db`.
    pub fn enumerate(q: &Query, db: &Database) -> SolutionSet {
        let plan = JoinPlan::compile(q);
        let mut key = Vec::new();
        let mut b_index = JoinIndex::default();
        for (id, fact) in db.facts() {
            if plan.b.project(fact, &mut key) {
                b_index.push(&key, id);
            }
        }
        let mut set = SolutionSet::default();
        for (id, fact) in db.facts() {
            if !plan.a.project(fact, &mut key) {
                continue;
            }
            for b_id in b_index.group(&key) {
                debug_assert!(match_pair(q, fact, db.fact(b_id)).is_some());
                set.push(id, b_id);
            }
        }
        set
    }

    /// Record the solution `(a, b)`. Both enumerations meet each pair
    /// once, with `b` above every earlier partner of `a` and `a` above
    /// every earlier partner of `b`.
    fn push(&mut self, a: FactId, b: FactId) {
        self.seconds.push(a, b);
        self.firsts.push(b, a);
        if let Some(positions) = &mut self.positions {
            positions.insert((a, b), self.pairs.len());
        }
        self.pairs.push((a, b));
    }

    /// All ordered solutions `(a, b)`.
    pub fn pairs(&self) -> &[(FactId, FactId)] {
        &self.pairs
    }

    /// Number of ordered solutions.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` iff the query has no solution at all in the database.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// `q(a b)`?
    pub fn holds(&self, a: FactId, b: FactId) -> bool {
        self.seconds_of(a).binary_search(&b).is_ok()
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
        self.seconds.list(a)
    }

    /// Facts `c` with `q(c b)`, ascending.
    pub fn firsts_of(&self, b: FactId) -> &[FactId] {
        self.firsts.list(b)
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

    /// Drop every pair with an endpoint among `dead`, fixing all indexes,
    /// in `O(removed pairs × degree)` once the positions exist. The last
    /// pair moves into each removed one's slot, so pair order changes.
    fn remove_facts(&mut self, dead: &[FactId]) {
        if dead.is_empty() {
            return;
        }
        if self.positions.is_none() {
            let index = self.pairs.iter().enumerate().map(|(i, &p)| (p, i));
            self.positions = Some(index.collect());
        }
        for &f in dead {
            for b in self.seconds.take(f) {
                self.firsts.remove(b, f);
                self.remove_pair(f, b);
            }
            for a in self.firsts.take(f) {
                self.seconds.remove(a, f);
                self.remove_pair(a, f);
            }
        }
    }

    /// Remove one pair from `pairs` (the adjacency lists are the caller's).
    fn remove_pair(&mut self, a: FactId, b: FactId) {
        let positions = self
            .positions
            .as_mut()
            .expect("remove_facts built the positions");
        let i = positions
            .remove(&(a, b))
            .expect("every pair has a position");
        self.pairs.swap_remove(i);
        if let Some(&moved) = self.pairs.get(i) {
            positions.insert(moved, i);
        }
    }
}

/// Ascending lists of fact ids, indexed by fact id. The outer vector
/// grows only to the largest id that has an entry, so an empty adjacency
/// owns no allocation.
#[derive(Clone, Debug, Default)]
struct Adjacency(Vec<Vec<FactId>>);

impl Adjacency {
    fn list(&self, id: FactId) -> &[FactId] {
        self.0.get(id.idx()).map_or(&[], Vec::as_slice)
    }

    /// Append `x` to `id`'s list; `x` must exceed every id already there.
    fn push(&mut self, id: FactId, x: FactId) {
        if self.0.len() <= id.idx() {
            self.0.resize_with(id.idx() + 1, Vec::new);
        }
        let list = &mut self.0[id.idx()];
        assert!(
            list.last() < Some(&x),
            "adjacency lists are built ascending"
        );
        list.push(x);
    }

    fn remove(&mut self, id: FactId, x: FactId) {
        if let Some(list) = self.0.get_mut(id.idx()) {
            if let Ok(at) = list.binary_search(&x) {
                list.remove(at);
            }
        }
    }

    fn take(&mut self, id: FactId) -> Vec<FactId> {
        self.0
            .get_mut(id.idx())
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

/// One atom compiled for matching: what a fact must look like to match
/// it, and where its projection onto the shared variables sits.
#[derive(Clone, Debug)]
struct AtomPlan {
    rel: RelId,
    arity: usize,
    /// `(i, j)` with `i < j`: the variable at `j` first occurs at `i`, so
    /// a matching fact has equal elements there.
    equal: Box<[(usize, usize)]>,
    /// The first position of each shared variable, in the query's
    /// shared-variable order.
    key: Box<[usize]>,
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

    /// If `fact` matches the atom, overwrite `key` with its projection
    /// onto the shared variables and return `true`.
    fn project(&self, fact: &Fact, key: &mut Vec<Elem>) -> bool {
        let t = fact.tuple();
        if fact.rel() != self.rel
            || t.len() != self.arity
            || self.equal.iter().any(|&(i, j)| t[i] != t[j])
        {
            return false;
        }
        key.clear();
        key.extend(self.key.iter().map(|&i| t[i]));
        true
    }
}

/// Both atoms of a query, compiled once before a scan. `q(a b)` holds iff `a`
/// matches `A`, `b` matches `B`, and their projections are equal: the
/// substitution is then consistent on the shared variables, and each
/// atom's own repeats were checked by its match.
#[derive(Clone, Debug)]
struct JoinPlan {
    a: AtomPlan,
    b: AtomPlan,
}

impl JoinPlan {
    fn compile(q: &Query) -> JoinPlan {
        let shared: Vec<Var> = q.shared_vars().into_iter().collect();
        JoinPlan {
            a: AtomPlan::compile(q.a(), &shared),
            b: AtomPlan::compile(q.b(), &shared),
        }
    }
}

/// No fact: the end of a [`JoinIndex`] chain.
const NONE: FactId = FactId(u32::MAX);

/// Facts grouped by their projection onto the shared variables. Each
/// group is a chain through `next`, ascending by id, so indexing a fact
/// allocates only when its key is new, and a probe by slice allocates
/// nothing.
#[derive(Clone, Debug, Default)]
struct JoinIndex {
    /// The first and last fact of each key's chain.
    ends: HashMap<Box<[Elem]>, (FactId, FactId)>,
    /// The fact after each indexed one in its chain, or [`NONE`].
    next: Vec<FactId>,
}

impl JoinIndex {
    /// Append `id`, which must exceed every id already indexed.
    fn push(&mut self, key: &[Elem], id: FactId) {
        assert!(self.next.len() <= id.idx(), "facts are indexed ascending");
        self.next.resize(id.idx() + 1, NONE);
        match self.ends.get_mut(key) {
            Some((_, last)) => {
                self.next[last.idx()] = id;
                *last = id;
            }
            None => {
                self.ends.insert(key.into(), (id, id));
            }
        }
    }

    /// The facts indexed under `key`, ascending.
    fn group(&self, key: &[Elem]) -> impl Iterator<Item = FactId> + '_ {
        let mut cur = self.ends.get(key).map_or(NONE, |&(first, _)| first);
        std::iter::from_fn(move || {
            let id = cur;
            (id != NONE).then(|| {
                cur = self.next[id.idx()];
                id
            })
        })
    }

    /// Unlink `id` from `key`'s chain, if it is there.
    fn remove(&mut self, key: &[Elem], id: FactId) {
        let Some(&(first, last)) = self.ends.get(key) else {
            return;
        };
        let mut prev = NONE;
        let mut cur = first;
        while cur != id {
            if cur == NONE {
                return;
            }
            prev = cur;
            cur = self.next[cur.idx()];
        }
        let after = std::mem::replace(&mut self.next[id.idx()], NONE);
        if prev == NONE && after == NONE {
            self.ends.remove(key);
            return;
        }
        let ends = self.ends.get_mut(key).expect("the key has a chain");
        if prev == NONE {
            ends.0 = after;
        } else {
            self.next[prev.idx()] = after;
        }
        if id == last {
            ends.1 = prev;
        }
    }
}

/// A [`SolutionSet`] that can be patched in place after a
/// [`Database::apply_delta`], avoiding a full re-enumeration.
///
/// Keeps the hash join's two probe indexes alive between deltas: facts
/// matching the `A` pattern and facts matching the `B` pattern, each keyed
/// by their projection onto the query's shared variables. Inserting a fact
/// then costs one probe per side, and retracting costs the removal of its
/// incident pairs — `O(delta × degree)` instead of `O(n)`.
#[derive(Clone, Debug)]
pub struct IncrementalSolutions {
    q: Query,
    plan: JoinPlan,
    set: SolutionSet,
    a_index: JoinIndex,
    b_index: JoinIndex,
    /// Scratch projections of the fact being indexed, reused so that
    /// indexing allocates nothing per fact.
    a_key: Vec<Elem>,
    b_key: Vec<Elem>,
}

impl IncrementalSolutions {
    /// Enumerate the solutions of `q` in `db` and keep the join indexes
    /// for later deltas.
    pub fn new(q: &Query, db: &Database) -> IncrementalSolutions {
        let mut inc = IncrementalSolutions {
            q: q.clone(),
            plan: JoinPlan::compile(q),
            set: SolutionSet::default(),
            a_index: JoinIndex::default(),
            b_index: JoinIndex::default(),
            a_key: Vec::new(),
            b_key: Vec::new(),
        };
        for (id, fact) in db.facts() {
            inc.add_fact(id, fact);
        }
        inc
    }

    /// The maintained solution set. Equal (as a set of pairs) to a fresh
    /// [`SolutionSet::enumerate`] on the current database; pair *order*
    /// may differ, which no verdict depends on.
    pub fn solutions(&self) -> &SolutionSet {
        &self.set
    }

    /// The query the solutions are maintained for.
    pub fn query(&self) -> &Query {
        &self.q
    }

    /// Patch the set after `db.apply_delta` produced `report`. `db` must
    /// be the post-delta database (retracted ids still resolve through
    /// their tombstoned slots).
    pub fn apply_delta(&mut self, db: &Database, report: &DeltaReport) {
        for &id in &report.retracted {
            let fact = db.fact(id);
            if self.plan.a.project(fact, &mut self.a_key) {
                self.a_index.remove(&self.a_key, id);
            }
            if self.plan.b.project(fact, &mut self.b_key) {
                self.b_index.remove(&self.b_key, id);
            }
        }
        self.set.remove_facts(&report.retracted);
        for &id in &report.inserted {
            self.add_fact(id, db.fact(id));
        }
    }

    /// Pair a fact that is new to the indexes with every indexed partner
    /// (and itself), then index it.
    fn add_fact(&mut self, id: FactId, fact: &Fact) {
        let is_a = self.plan.a.project(fact, &mut self.a_key);
        let is_b = self.plan.b.project(fact, &mut self.b_key);
        if is_a {
            for b in self.b_index.group(&self.a_key) {
                self.set.push(id, b);
            }
        }
        if is_b {
            for a in self.a_index.group(&self.b_key) {
                self.set.push(a, id);
            }
        }
        if is_a && is_b && self.a_key == self.b_key {
            self.set.push(id, id);
        }
        if is_a {
            self.a_index.push(&self.a_key, id);
        }
        if is_b {
            self.b_index.push(&self.b_key, id);
        }
    }
}

/// Does the *consistent* fact set `facts` (e.g. a repair) satisfy `q`?
/// Checks all pairs against the pre-computed solution set.
pub fn satisfies(solutions: &SolutionSet, facts: &[FactId]) -> bool {
    // Any solution whose both endpoints are chosen facts witnesses q.
    // Iterating over chosen facts and their partner lists is O(Σ deg).
    let chosen: HashSet<FactId> = facts.iter().copied().collect();
    facts.iter().any(|&a| {
        (solutions.self_loop(a) && chosen.contains(&a))
            || solutions.seconds_of(a).iter().any(|b| chosen.contains(b))
    })
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
        let mut v = s.pairs().to_vec();
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
        let mut inc = IncrementalSolutions::new(&q, &db);
        assert_eq!(
            sorted_pairs(inc.solutions()),
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
            sorted_pairs(inc.solutions()),
            sorted_pairs(&SolutionSet::enumerate(&q, &db))
        );
        let ee = db.id_of(&Fact::from_names(["e", "e"])).unwrap();
        assert!(inc.solutions().self_loop(ee));
        // Retract a fact that participates in pairs; indexes must shrink.
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["b", "c"])])
            .unwrap();
        inc.apply_delta(&db, &rep);
        assert_eq!(
            sorted_pairs(inc.solutions()),
            sorted_pairs(&SolutionSet::enumerate(&q, &db))
        );
        let ab = db.id_of(&Fact::from_names(["a", "b"])).unwrap();
        assert!(inc.solutions().seconds_of(ab).is_empty());
    }

    #[test]
    fn incremental_solutions_survive_reinsertion() {
        // Retract then re-insert the same fact: the fact gets a fresh id
        // and the pair set must match a from-scratch enumeration.
        let q = examples::q3();
        let mut db = db_from(Signature::new(2, 1).unwrap(), &[&["a", "b"], &["b", "c"]]);
        let mut inc = IncrementalSolutions::new(&q, &db);
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["b", "c"])])
            .unwrap();
        inc.apply_delta(&db, &rep);
        let rep = db
            .apply_delta(&[Fact::from_names(["b", "c"])], &[])
            .unwrap();
        inc.apply_delta(&db, &rep);
        assert_eq!(
            sorted_pairs(inc.solutions()),
            sorted_pairs(&SolutionSet::enumerate(&q, &db))
        );
        assert_eq!(inc.solutions().len(), 1);
    }

    #[test]
    fn enumeration_agrees_with_naive_product() {
        // Cross-check the hash join against the O(n^2) definition.
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
