//! Solution enumeration and the solution graph `G(D, q)`.
//!
//! A solution to `q = A B` in `D` is a pair `(a, b)` of facts with a single
//! substitution `μ` sending `A ↦ a` and `B ↦ b` (Section 2). We enumerate
//! all solutions with a hash join: scan facts matching `A`'s internal
//! equality pattern, index facts matching `B` by their projection onto the
//! shared variables, then probe.

use cqa_graph::Undirected;
use cqa_model::{Database, Elem, FactId};
use cqa_query::{match_pair, Query, Subst, Var};
use std::collections::{HashMap, HashSet};

/// All solutions of a query in a database, with lookup indexes.
#[derive(Clone, Debug, Default)]
pub struct SolutionSet {
    pairs: Vec<(FactId, FactId)>,
    pair_set: HashSet<(FactId, FactId)>,
    by_first: HashMap<FactId, Vec<FactId>>,
    by_second: HashMap<FactId, Vec<FactId>>,
    /// Each pair's index in `pairs`, so a removal is one `swap_remove`.
    /// Built by the first removal (one `O(pairs)` pass) and kept current
    /// by every push after it; sets that never shrink never build it.
    positions: Option<HashMap<(FactId, FactId), usize>>,
}

impl SolutionSet {
    /// Enumerate every ordered solution `q(a b)` in `db`.
    pub fn enumerate(q: &Query, db: &Database) -> SolutionSet {
        let shared: Vec<Var> = q.shared_vars().into_iter().collect();
        // First position of each shared variable inside B.
        let probe_positions: Vec<usize> = shared.iter().map(|v| q.b().positions_of(v)[0]).collect();

        // Index the B-side: facts matching B's pattern, keyed by their
        // projection onto the shared variables.
        let mut b_index: HashMap<Vec<Elem>, Vec<FactId>> = HashMap::new();
        for (id, fact) in db.facts() {
            let mut mu = Subst::new();
            if mu.match_atom(q.b(), fact) {
                let key: Vec<Elem> = probe_positions.iter().map(|&i| fact.at(i)).collect();
                b_index.entry(key).or_default().push(id);
            }
        }

        let mut set = SolutionSet::default();
        for (id, fact) in db.facts() {
            let mut mu = Subst::new();
            if !mu.match_atom(q.a(), fact) {
                continue;
            }
            let key: Vec<Elem> = shared
                .iter()
                .map(|v| mu.get(v).expect("shared variable must be bound by A"))
                .collect();
            if let Some(candidates) = b_index.get(&key) {
                for &b_id in candidates {
                    debug_assert!(match_pair(q, fact, db.fact(b_id)).is_some());
                    set.push(id, b_id);
                }
            }
        }
        set
    }

    fn push(&mut self, a: FactId, b: FactId) {
        if self.pair_set.insert((a, b)) {
            if let Some(positions) = &mut self.positions {
                positions.insert((a, b), self.pairs.len());
            }
            self.pairs.push((a, b));
            self.by_first.entry(a).or_default().push(b);
            self.by_second.entry(b).or_default().push(a);
        }
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
        self.pair_set.contains(&(a, b))
    }

    /// `q{a b}` — `q(a b) ∨ q(b a)`?
    pub fn holds_unordered(&self, a: FactId, b: FactId) -> bool {
        self.holds(a, b) || self.holds(b, a)
    }

    /// `q(a a)`?
    pub fn self_loop(&self, a: FactId) -> bool {
        self.holds(a, a)
    }

    /// Facts `b` with `q(a b)`.
    pub fn seconds_of(&self, a: FactId) -> &[FactId] {
        self.by_first.get(&a).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Facts `c` with `q(c b)`.
    pub fn firsts_of(&self, b: FactId) -> &[FactId] {
        self.by_second.get(&b).map(Vec::as_slice).unwrap_or(&[])
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

    /// The undirected solution graph `G(D, q)` over fact ids (Section 10.1):
    /// vertices are the facts of `db`, an edge `{a, b}` iff `D ⊨ q{a b}`,
    /// plus a self-loop on `a` iff `q(a a)`.
    pub fn graph(&self, db: &Database) -> Undirected {
        // Sized by the id space, not the live count — after a retraction
        // the database has tombstoned slots and ids are not dense.
        let mut g = Undirected::new(db.fact_slots());
        for &(a, b) in &self.pairs {
            g.add_edge(a.idx(), b.idx());
        }
        g
    }

    /// Record a solution pair during incremental maintenance. Returns
    /// `false` when the pair was already present.
    pub(crate) fn insert_pair(&mut self, a: FactId, b: FactId) -> bool {
        let fresh = !self.pair_set.contains(&(a, b));
        self.push(a, b);
        fresh
    }

    /// Drop every pair with an endpoint among `dead`, fixing all indexes,
    /// in `O(removed pairs × degree)` once the positions exist. The last
    /// pair moves into each removed one's slot, so pair order changes.
    pub(crate) fn remove_facts(&mut self, dead: &[FactId]) {
        if dead.is_empty() {
            return;
        }
        if self.positions.is_none() {
            let index = self.pairs.iter().enumerate().map(|(i, &p)| (p, i));
            self.positions = Some(index.collect());
        }
        for &f in dead {
            for b in self.by_first.remove(&f).unwrap_or_default() {
                self.remove_pair(f, b);
                if let Some(v) = self.by_second.get_mut(&b) {
                    v.retain(|&x| x != f);
                }
            }
            for a in self.by_second.remove(&f).unwrap_or_default() {
                self.remove_pair(a, f);
                if let Some(v) = self.by_first.get_mut(&a) {
                    v.retain(|&x| x != f);
                }
            }
        }
    }

    /// Remove one pair from `pairs` and the pair indexes (the partner
    /// lists are the caller's).
    fn remove_pair(&mut self, a: FactId, b: FactId) {
        if !self.pair_set.remove(&(a, b)) {
            return;
        }
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

/// A [`SolutionSet`] that can be patched in place after a
/// [`Database::apply_delta`], avoiding a full re-enumeration.
///
/// Keeps the hash-join's two probe indexes alive between deltas: facts
/// matching the `A` pattern and facts matching the `B` pattern, each keyed
/// by their projection onto the query's shared variables. Inserting a fact
/// then costs one probe per side, and retracting costs the removal of its
/// incident pairs — `O(delta × degree)` instead of `O(n)`.
#[derive(Clone, Debug)]
pub struct IncrementalSolutions {
    q: Query,
    shared: Vec<Var>,
    /// First position of each shared variable inside `B`.
    probe_positions: Vec<usize>,
    set: SolutionSet,
    a_index: HashMap<Vec<Elem>, Vec<FactId>>,
    b_index: HashMap<Vec<Elem>, Vec<FactId>>,
}

impl IncrementalSolutions {
    /// Enumerate the solutions of `q` in `db` and keep the join indexes
    /// for later deltas.
    pub fn new(q: &Query, db: &Database) -> IncrementalSolutions {
        let shared: Vec<Var> = q.shared_vars().into_iter().collect();
        let probe_positions: Vec<usize> = shared.iter().map(|v| q.b().positions_of(v)[0]).collect();
        let mut inc = IncrementalSolutions {
            q: q.clone(),
            shared,
            probe_positions,
            set: SolutionSet::default(),
            a_index: HashMap::new(),
            b_index: HashMap::new(),
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
    pub fn apply_delta(&mut self, db: &Database, report: &cqa_model::DeltaReport) {
        for &id in &report.retracted {
            let fact = db.fact(id);
            if let Some(k) = self.a_projection(fact) {
                if let Some(v) = self.a_index.get_mut(&k) {
                    v.retain(|&x| x != id);
                }
            }
            if let Some(k) = self.b_projection(fact) {
                if let Some(v) = self.b_index.get_mut(&k) {
                    v.retain(|&x| x != id);
                }
            }
        }
        self.set.remove_facts(&report.retracted);
        for &id in &report.inserted {
            self.add_fact(id, db.fact(id));
        }
    }

    /// Projection of an `A`-matching fact onto the shared variables.
    fn a_projection(&self, fact: &cqa_model::Fact) -> Option<Vec<Elem>> {
        let mut mu = Subst::new();
        if !mu.match_atom(self.q.a(), fact) {
            return None;
        }
        Some(
            self.shared
                .iter()
                .map(|v| mu.get(v).expect("shared variable must be bound by A"))
                .collect(),
        )
    }

    /// Projection of a `B`-matching fact onto the shared variables.
    fn b_projection(&self, fact: &cqa_model::Fact) -> Option<Vec<Elem>> {
        let mut mu = Subst::new();
        if !mu.match_atom(self.q.b(), fact) {
            return None;
        }
        Some(self.probe_positions.iter().map(|&i| fact.at(i)).collect())
    }

    fn add_fact(&mut self, id: FactId, fact: &cqa_model::Fact) {
        let a_key = self.a_projection(fact);
        let b_key = self.b_projection(fact);
        if let Some(k) = &a_key {
            if let Some(cands) = self.b_index.get(k) {
                for &b in cands {
                    self.set.insert_pair(id, b);
                }
            }
        }
        if let Some(k) = &b_key {
            if let Some(cands) = self.a_index.get(k) {
                for &a in cands {
                    self.set.insert_pair(a, id);
                }
            }
        }
        if let (Some(ka), Some(kb)) = (&a_key, &b_key) {
            if ka == kb {
                self.set.insert_pair(id, id);
            }
        }
        if let Some(k) = a_key {
            self.a_index.entry(k).or_default().push(id);
        }
        if let Some(k) = b_key {
            self.b_index.entry(k).or_default().push(id);
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
    fn graph_matches_solutions() {
        let q = examples::q3();
        let db = db_from(
            Signature::new(2, 1).unwrap(),
            &[&["a", "b"], &["b", "c"], &["x", "y"]],
        );
        let sols = SolutionSet::enumerate(&q, &db);
        let g = sols.graph(&db);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.components().len(), 2);
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
