//! The bipartite-matching algorithm `matching(q)` (Section 10.1).
//!
//! On input `D` the algorithm:
//!
//! 1. builds the solution graph `G(D, q)` and its connected components;
//! 2. classifies each component as *quasi-clique* or not — a component `C`
//!    is a quasi-clique when every two non-key-equal facts of `C` are
//!    adjacent;
//! 3. sets `clique(a)` = the component of `a` when that component is a
//!    quasi-clique, else `{a}`;
//! 4. builds the bipartite graph `H(D, q) = (V₁ ∪ V₂, E)` with `V₁` the
//!    blocks of `D`, `V₂ = {clique(a) : a ∈ D}`, and `(v₁, v₂) ∈ E` iff
//!    block `v₁` contains a fact `a ∈ v₂` with `D ⊭ q(a a)`;
//! 5. answers **yes** iff some matching of `H` saturates `V₁`.
//!
//! `¬matching(q)` under-approximates `certain(q)` for 2way-determined
//! queries (Proposition 10.2) and is exact on clique databases
//! (Proposition 10.3) — in particular for clique *queries* like `q6`
//! (Theorem 10.4).

use crate::SolutionSet;
use cqa_graph::{BipartiteGraph, Undirected};
use cqa_model::{Database, DbView, FactId};
use cqa_query::Query;

/// The detailed outcome of running `matching(q)` on a database.
#[derive(Clone, Debug)]
pub struct MatchingAnalysis {
    /// `D ⊨ matching(q)`: a saturating matching of `H(D, q)` exists.
    pub accepts: bool,
    /// Solution-graph components, each a sorted list of fact ids.
    pub components: Vec<Vec<FactId>>,
    /// For each component (same order), whether it is a quasi-clique.
    pub quasi_clique: Vec<bool>,
    /// `true` iff *every* component is a quasi-clique, i.e. `D` is a
    /// clique-database for `q` (Proposition 10.3 territory).
    pub is_clique_database: bool,
}

/// Run the full `matching(q)` analysis.
pub fn analyze(q: &Query, db: &Database) -> MatchingAnalysis {
    let solutions = SolutionSet::enumerate(q, db);
    analyze_view(&db.full_view(), &solutions)
}

/// Run the `matching(q)` analysis on a copy-free [`DbView`] — e.g. one
/// q-connected component — against the **parent database's** solution
/// set. The view must be *q-closed*: every solution partner of a view
/// fact lies in the view (true for q-connected components and for full
/// views, on which this is identical to [`analyze`]).
/// Reported fact ids are the parent's.
pub fn analyze_view(view: &DbView<'_>, solutions: &SolutionSet) -> MatchingAnalysis {
    let db = view.parent();
    // The solution graph restricted to the view, over dense local indices.
    let mut graph = Undirected::new(view.len());
    for (local_a, &a) in view.fact_ids().iter().enumerate() {
        for &b in solutions.seconds_of(a) {
            let local_b = view
                .local_fact_index(b)
                .expect("solution partner escapes the view: views must be q-closed");
            graph.add_edge(local_a, local_b);
        }
    }
    let components_raw = graph.components();
    let mut components: Vec<Vec<FactId>> = Vec::with_capacity(components_raw.len());
    let mut quasi_clique = Vec::with_capacity(components_raw.len());
    for comp in &components_raw {
        let ids: Vec<FactId> = comp.iter().map(|&i| view.fact_ids()[i]).collect();
        quasi_clique.push(is_quasi_clique(db, solutions, &ids));
        components.push(ids);
    }
    let is_clique_database = quasi_clique.iter().all(|&b| b);

    // V2: one vertex per quasi-clique component + one per fact living in a
    // non-quasi-clique component (its singleton clique).
    // clique_vertex[local f] = the V2 index of clique(f).
    let mut clique_vertex: Vec<usize> = vec![usize::MAX; view.len()];
    let mut n_right = 0usize;
    for (ci, comp) in components.iter().enumerate() {
        if quasi_clique[ci] {
            for &f in comp {
                clique_vertex[view.local_fact_index(f).expect("component fact")] = n_right;
            }
            n_right += 1;
        } else {
            for &f in comp {
                clique_vertex[view.local_fact_index(f).expect("component fact")] = n_right;
                n_right += 1;
            }
        }
    }

    let mut h = BipartiteGraph::new(view.block_count(), n_right);
    for (local_b, &block) in view.blocks().iter().enumerate() {
        for &f in view.block(block) {
            if !solutions.self_loop(f) {
                let lf = view.local_fact_index(f).expect("block fact in view");
                h.add_edge(local_b, clique_vertex[lf]);
            }
        }
    }

    MatchingAnalysis {
        accepts: h.has_left_saturating_matching(),
        components,
        quasi_clique,
        is_clique_database,
    }
}

/// Is the component a quasi-clique: all non-key-equal fact pairs adjacent?
fn is_quasi_clique(db: &Database, solutions: &SolutionSet, comp: &[FactId]) -> bool {
    for (i, &a) in comp.iter().enumerate() {
        for &b in &comp[i + 1..] {
            if !db.key_equal(a, b) && !solutions.holds_unordered(a, b) {
                return false;
            }
        }
    }
    true
}

/// `D ⊨ matching(q)`?
pub fn matching_accepts(q: &Query, db: &Database) -> bool {
    analyze(q, db).accepts
}

/// The certain-test `¬matching(q)`: sound for 2way-determined queries
/// (Proposition 10.2), exact on clique databases (Proposition 10.3).
pub fn certain_by_matching(q: &Query, db: &Database) -> bool {
    !matching_accepts(q, db)
}

/// Is `db` a clique-database for `q` — every solution-graph component a
/// quasi-clique?
pub fn is_clique_database(q: &Query, db: &Database) -> bool {
    analyze(q, db).is_clique_database
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::certain_brute;
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;

    /// q6 = R(x | y z) R(z | x y): the paper's clique-query.
    fn q6_db(rows: &[[&str; 3]]) -> Database {
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn q6_triangle_is_quasi_clique() {
        // Facts forming a q6 triangle: R(a b c), R(c a b), R(b c a):
        // q6(R(a b c), R(c a b)) — x=a, y=b, z=c — etc. cyclically.
        let db = q6_db(&[["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]]);
        let an = analyze(&examples::q6(), &db);
        assert!(an.is_clique_database);
        assert_eq!(an.components.iter().filter(|c| c.len() == 3).count(), 1);
    }

    #[test]
    fn singleton_blocks_match_freely() {
        // Consistent database without solutions: matching trivially accepts
        // (each block matched to its own singleton clique), so the certain
        // test answers "not certain" — correct, the unique repair has no
        // solution.
        let db = q6_db(&[["a", "b", "c"], ["d", "e", "f"]]);
        let an = analyze(&examples::q6(), &db);
        assert!(an.accepts);
        assert!(!certain_by_matching(&examples::q6(), &db));
        assert!(!certain_brute(&examples::q6(), &db));
    }

    #[test]
    fn matching_exact_on_clique_database_q6() {
        // Two facts per block, two blocks, all four facts pairwise forming
        // solutions when non-key-equal => one quasi-clique of size 4 but two
        // blocks: no saturating matching => certain.
        // Build a triangle with a block of size 2 sharing the clique.
        let db = q6_db(&[["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]]);
        // Each fact is its own block (keys a, c, b distinct); three blocks,
        // one clique => cannot saturate three blocks with one clique vertex.
        let an = analyze(&examples::q6(), &db);
        assert!(!an.accepts);
        assert!(certain_by_matching(&examples::q6(), &db));
        assert!(certain_brute(&examples::q6(), &db));
    }

    #[test]
    fn self_loop_facts_give_no_edges() {
        // R(a a a): q6(f, f) holds (x=y=z=a). Its block gets no H-edge:
        // no saturating matching, so certain — indeed the only repair
        // contains the self-solution.
        let db = q6_db(&[["a", "a", "a"]]);
        let an = analyze(&examples::q6(), &db);
        assert!(!an.accepts);
        assert!(certain_brute(&examples::q6(), &db));
    }

    #[test]
    fn matching_sound_on_random_q6_databases() {
        // ¬matching ⇒ certain (Prop 10.2), on every database over a small
        // domain with 4 facts.
        let names = ["a", "b"];
        let mut rows = Vec::new();
        for x in names {
            for y in names {
                for z in names {
                    rows.push([x, y, z]);
                }
            }
        }
        let q = examples::q6();
        // Sample subsets of size 3 of the 8 possible facts.
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                for k in (j + 1)..rows.len() {
                    let db = q6_db(&[rows[i], rows[j], rows[k]]);
                    if certain_by_matching(&q, &db) {
                        assert!(certain_brute(&q, &db), "¬matching unsound on {db:?}");
                    }
                    // Prop 10.3: exactness on clique databases.
                    if is_clique_database(&q, &db) {
                        assert_eq!(
                            certain_by_matching(&q, &db),
                            certain_brute(&q, &db),
                            "Prop 10.3 violated on {db:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_clique_component_detected() {
        // q3's solution graph on a path a->b->c->d is a path, not a clique.
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in [["a", "b"], ["b", "c"], ["c", "d"]] {
            db.insert(Fact::from_names(row)).unwrap();
        }
        let an = analyze(&examples::q3(), &db);
        assert!(!an.is_clique_database);
        assert_eq!(an.components.len(), 1);
        assert!(!an.quasi_clique[0]);
    }
}
