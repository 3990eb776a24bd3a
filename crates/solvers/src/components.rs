//! The q-connected-component partition (Proposition 10.6).
//!
//! Two blocks `B`, `B′` are *q-connected* when `(B, B′)` is in the
//! reflexive-symmetric-transitive closure of
//! `{(B₁, B₂) : ∃a ∈ B₁, b ∈ B₂, D ⊨ q{a b}}`. The partition of `D` into
//! q-connected components `C₁ … C_n` satisfies:
//!
//! 1. each `Cᵢ` contains no tripath or is a clique-database (paper's main
//!    technical lemma — exploited by the combined solver);
//! 2. `D ⊨ certain(q)` iff some `Cᵢ ⊨ certain(q)`;
//! 3. `Cᵢ ⊨ Cert_k(q)` for some `i` implies `D ⊨ Cert_k(q)`;
//! 4. `D ⊨ matching(q)` implies `Cᵢ ⊨ matching(q)` for all `i`.
//!
//! A block holding no fact of any solution is a component of its own that
//! by (2) never matters: none of its repairs satisfies `q`. So the solvers
//! decide only the components of the *support*, the blocks holding a fact
//! of some solution; [`q_connected_components`] adds a singleton per
//! solution-free block, from the same union-find. Every fact of a join
//! group (`SolutionSet::groups_of`) is in a solution with every fact on
//! the group's other side, so that union-find joins each fact's block to
//! one block of each of its groups: `O(facts)`, not `O(solutions)`.
//!
//! A component is represented as a copy-free [`DbView`] borrowing the
//! parent database — fact and block ids stay the parent's, and since a
//! solution is a property of the two facts alone, the parent's
//! [`SolutionSet`] restricted to the component's facts *is* the
//! component's solution set. Per-component solvers therefore consume the
//! view plus the global solutions directly; nothing is re-enumerated or
//! `restrict`-copied. Materialise with [`DbView::to_database`] only
//! when an owned database is genuinely needed.

use crate::SolutionSet;
use cqa_graph::UnionFind;
use cqa_model::{BlockId, Database, DbView, DeltaReport};
use cqa_query::Query;
use std::collections::{BTreeMap, BTreeSet};

/// Partition `db` into q-connected components.
pub fn q_connected_components<'a>(q: &Query, db: &'a Database) -> Vec<DbView<'a>> {
    let solutions = SolutionSet::enumerate(q, db);
    q_connected_components_with_solutions(q, db, &solutions)
}

/// [`q_connected_components`] with pre-computed solutions: the support's
/// components and a singleton per live solution-free block, in order of
/// their smallest block.
pub fn q_connected_components_with_solutions<'a>(
    _q: &Query,
    db: &'a Database,
    solutions: &SolutionSet,
) -> Vec<DbView<'a>> {
    to_components(db, whole_partition(db, solutions))
}

/// The q-connected partition, materialised only when it splits into at
/// least `min_components` components (support components and
/// solution-free blocks alike); `None` otherwise. One union-find pass
/// either way, and no view is built for a partition that is discarded.
pub fn q_connected_components_if_fragmented<'a>(
    _q: &Query,
    db: &'a Database,
    solutions: &SolutionSet,
    min_components: usize,
) -> Option<Vec<DbView<'a>>> {
    let groups = whole_partition(db, solutions);
    (groups.len() >= min_components).then(|| to_components(db, groups))
}

/// The q-connected components of the support, as ascending block lists
/// in order of their smallest block. Empty iff `solutions` is.
pub fn support_partition(db: &Database, solutions: &SolutionSet) -> Vec<Vec<BlockId>> {
    partition_pool(db, solutions, &solutions.support_blocks(db), false)
}

/// [`support_partition`] as component views: what the solvers decide.
pub fn support_components<'a>(db: &'a Database, solutions: &SolutionSet) -> Vec<DbView<'a>> {
    to_components(db, support_partition(db, solutions))
}

/// Every live block's component, solution-free singletons included.
fn whole_partition(db: &Database, solutions: &SolutionSet) -> Vec<Vec<BlockId>> {
    let live: Vec<BlockId> = db.block_ids().collect();
    partition_pool(db, solutions, &live, true)
}

fn to_components(db: &Database, groups: Vec<Vec<BlockId>>) -> Vec<DbView<'_>> {
    groups
        .into_iter()
        .map(|blocks| db.view_of_blocks(blocks))
        .collect()
}

/// Group `pool` (live blocks, ascending, and closed: every solution
/// partner of a pool fact lies in a pool block) into q-connected
/// components, ordered by their smallest block. Blocks holding no fact
/// of a solution come out as singletons when `with_free` is set and are
/// dropped otherwise.
fn partition_pool(
    db: &Database,
    solutions: &SolutionSet,
    pool: &[BlockId],
    with_free: bool,
) -> Vec<Vec<BlockId>> {
    let mut uf = UnionFind::new(pool.len());
    let mut in_support = vec![false; pool.len()];
    for (i, &b) in pool.iter().enumerate() {
        for &f in db.block(b) {
            for g in solutions.groups_of(f) {
                in_support[i] = true;
                let some_fact = solutions.group(g).0[0];
                match pool.binary_search(&db.block_of(some_fact)) {
                    Ok(j) => {
                        uf.union(i, j);
                    }
                    Err(_) => debug_assert!(false, "solution edge escapes the block pool"),
                }
            }
        }
    }
    // Pool order is ascending, so a component's first block seen is its
    // smallest, and the components come out in that order.
    let mut slot_of_root = vec![usize::MAX; pool.len()];
    let mut out: Vec<Vec<BlockId>> = Vec::new();
    for (i, &b) in pool.iter().enumerate() {
        if !in_support[i] {
            if with_free {
                out.push(vec![b]);
            }
            continue;
        }
        let root = uf.find(i);
        if slot_of_root[root] == usize::MAX {
            slot_of_root[root] = out.len();
            out.push(Vec::new());
        }
        out[slot_of_root[root]].push(b);
    }
    out
}

/// What one [`DynamicComponents::apply`] did to the partition.
#[derive(Clone, Debug, Default)]
pub struct ComponentDeltaReport {
    /// Component ids dissolved by the delta (merged, split or emptied).
    pub dropped: Vec<u32>,
    /// Fresh component ids covering the dirty region, ascending. These are
    /// the components whose verdicts must be (re-)established.
    pub created: Vec<u32>,
    /// Components left untouched — their cached verdicts stay valid.
    pub retained: usize,
}

/// The support's q-connected partition maintained across
/// [`Database::apply_delta`]s.
///
/// Only support blocks belong to a component: a block joins the
/// partition when one of its facts enters a join group whose other side
/// is non-empty, and leaves it when no fact of it is in a solution any
/// more. Components carry stable numeric ids: an untouched component
/// keeps its id (and therefore any verdict cached under it), while every
/// component in the dirty region — touched blocks, their components, and
/// any component or block a new solution reaches — is dissolved and
/// re-partitioned under fresh ids. Insertions that bridge two components
/// thus merge them into one fresh component; retractions that cut a
/// component apart split it into several. Cost per delta is
/// `O(dirty region)`, not `O(db)`.
#[derive(Clone, Debug)]
pub struct DynamicComponents {
    /// Each block's component by block slot; `u32::MAX` (or past the
    /// end) when the block is in none.
    comp_of_block: Vec<u32>,
    blocks_of_comp: BTreeMap<u32, Vec<BlockId>>,
    next: u32,
}

impl DynamicComponents {
    /// The partition into `groups`, the support's q-connected components
    /// as [`support_partition`] returns them: component `i` is
    /// `groups[i]`, under id `i`.
    pub fn new(groups: Vec<Vec<BlockId>>) -> DynamicComponents {
        let mut dc = DynamicComponents {
            comp_of_block: Vec::new(),
            blocks_of_comp: BTreeMap::new(),
            next: 0,
        };
        for group in groups {
            dc.admit(group);
        }
        dc
    }

    fn admit(&mut self, group: Vec<BlockId>) -> u32 {
        let id = self.next;
        self.next += 1;
        for &b in &group {
            if b.idx() >= self.comp_of_block.len() {
                self.comp_of_block.resize(b.idx() + 1, u32::MAX);
            }
            self.comp_of_block[b.idx()] = id;
        }
        self.blocks_of_comp.insert(id, group);
        id
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.blocks_of_comp.len()
    }

    /// `true` iff the partition has no components.
    pub fn is_empty(&self) -> bool {
        self.blocks_of_comp.is_empty()
    }

    /// Component ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks_of_comp.keys().copied()
    }

    /// The blocks of a component, ascending.
    pub fn blocks_of(&self, id: u32) -> &[BlockId] {
        &self.blocks_of_comp[&id]
    }

    /// The component as a copy-free view of `db`.
    pub fn view_of<'a>(&self, db: &'a Database, id: u32) -> DbView<'a> {
        db.view_of_blocks(self.blocks_of(id).iter().copied())
    }

    /// Fold a database delta into the partition. `solutions` must already
    /// be the post-delta solution set (see [`SolutionSet::apply_delta`]).
    pub fn apply(
        &mut self,
        db: &Database,
        solutions: &SolutionSet,
        report: &DeltaReport,
    ) -> ComponentDeltaReport {
        let before = self.blocks_of_comp.len();
        // The dirty pool: the touched blocks, and the blocks of every
        // solution partner of an inserted fact — either already in a
        // component, which is then dirty, or joining the support now.
        let mut pool: Vec<BlockId> = report.touched.clone();
        for &f in &report.inserted {
            for &g in solutions.seconds_of(f).iter().chain(solutions.firsts_of(f)) {
                pool.push(db.block_of(g));
            }
        }
        let dirty: BTreeSet<u32> = pool
            .iter()
            .filter_map(|b| self.comp_of_block.get(b.idx()).copied())
            .filter(|&c| c != u32::MAX)
            .collect();
        for &c in &dirty {
            for b in self.blocks_of_comp.remove(&c).unwrap_or_default() {
                self.comp_of_block[b.idx()] = u32::MAX;
                pool.push(b);
            }
        }
        pool.retain(|&b| !db.block(b).is_empty());
        pool.sort_unstable();
        pool.dedup();
        let mut out = ComponentDeltaReport {
            dropped: dirty.iter().copied().collect(),
            retained: before - dirty.len(),
            ..ComponentDeltaReport::default()
        };
        for group in partition_pool(db, solutions, &pool, false) {
            out.created.push(self.admit(group));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::certain_brute;
    use cqa_model::{Fact, FactId, Signature};
    use cqa_query::examples;

    fn db2(rows: &[[&str; 2]]) -> Database {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn disconnected_chains_split() {
        // Two q3-chains over disjoint elements plus an isolated block.
        let d = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["q", "r"], ["z", "w"]]);
        let comps = q_connected_components(&examples::q3(), &d);
        assert_eq!(comps.len(), 3);
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), d.len());
    }

    #[test]
    fn blocks_stay_whole() {
        // A block's facts always land in the same component, even those not
        // participating in any solution.
        let d = db2(&[["a", "b"], ["a", "zzz"], ["b", "c"]]);
        let comps = q_connected_components(&examples::q3(), &d);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn views_keep_parent_fact_ids() {
        // The component facts are the parent's ids, no renumbering.
        let d = db2(&[["a", "b"], ["b", "c"], ["z", "w"]]);
        let comps = q_connected_components(&examples::q3(), &d);
        let mut seen: Vec<FactId> = comps
            .iter()
            .flat_map(|c| c.fact_ids().iter().copied())
            .collect();
        seen.sort_unstable();
        let all: Vec<FactId> = d.fact_ids().collect();
        assert_eq!(seen, all);
        for c in &comps {
            for &id in c.fact_ids() {
                assert_eq!(c.fact(id), d.fact(id));
            }
        }
    }

    #[test]
    fn certain_iff_some_component_certain() {
        // Prop 10.6 (2) checked on a mixed database: one certain chain and
        // one falsifiable chain.
        let q = examples::q3();
        let certain_part = &[["a", "b"], ["b", "c"]]; // certain
        let falsifiable = &[["p", "q"], ["p", "x"], ["q", "r"]]; // not certain
        let mut rows: Vec<[&str; 2]> = Vec::new();
        rows.extend_from_slice(certain_part);
        rows.extend_from_slice(falsifiable);
        let d = db2(&rows);
        assert!(certain_brute(&q, &d));
        let comps = q_connected_components(&q, &d);
        assert_eq!(comps.len(), 2);
        let verdicts: Vec<bool> = comps
            .iter()
            .map(|c| certain_brute(&q, &c.to_database()))
            .collect();
        assert!(verdicts.iter().any(|&v| v));
        assert!(!verdicts.iter().all(|&v| v));
    }

    #[test]
    fn empty_database_yields_no_components() {
        let d = Database::new(Signature::new(2, 1).unwrap());
        assert!(q_connected_components(&examples::q3(), &d).is_empty());
    }

    /// The dynamic partition, as a set of block sets, must equal the
    /// from-scratch support partition, which is the whole partition less
    /// its solution-free singletons.
    fn assert_matches_scratch(q: &Query, db: &Database, dc: &DynamicComponents) {
        let mut dynamic: Vec<Vec<cqa_model::BlockId>> =
            dc.ids().map(|c| dc.blocks_of(c).to_vec()).collect();
        dynamic.sort();
        let solutions = SolutionSet::enumerate(q, db);
        let scratch = support_partition(db, &solutions);
        assert_eq!(dynamic, scratch);
        let whole: Vec<Vec<cqa_model::BlockId>> = q_connected_components(q, db)
            .iter()
            .map(|c| c.blocks().to_vec())
            .filter(|blocks| {
                blocks
                    .iter()
                    .any(|&b| !scratch.iter().any(|g| g.contains(&b)))
            })
            .collect();
        assert!(whole.iter().all(|blocks| blocks.len() == 1));
        assert_eq!(
            whole.len() + scratch.len(),
            q_connected_components(q, db).len()
        );
    }

    #[test]
    fn dynamic_components_merge_on_insert() {
        let q = examples::q3();
        let mut db = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["q", "r"]]);
        let mut inc = SolutionSet::enumerate(&q, &db);
        let mut dc = DynamicComponents::new(support_partition(&db, &inc));
        assert_eq!(dc.len(), 2);
        // Bridge the two chains: c -> p.
        let rep = db
            .apply_delta(&[Fact::from_names(["c", "p"])], &[])
            .unwrap();
        inc.apply_delta(&db, &rep);
        let out = dc.apply(&db, &inc, &rep);
        assert_eq!(dc.len(), 1);
        assert_eq!(out.created.len(), 1);
        assert_eq!(out.retained, 0);
        assert_matches_scratch(&q, &db, &dc);
    }

    #[test]
    fn dynamic_components_split_on_retract() {
        let q = examples::q3();
        // A chain x→a→b→c→d→e and a separate chain z→w→v.
        let mut db = db2(&[
            ["x", "a"],
            ["a", "b"],
            ["b", "c"],
            ["c", "d"],
            ["d", "e"],
            ["z", "w"],
            ["w", "v"],
        ]);
        let mut inc = SolutionSet::enumerate(&q, &db);
        let mut dc = DynamicComponents::new(support_partition(&db, &inc));
        assert_eq!(dc.len(), 2);
        // Cut the chain in the middle: {xa, ab} and {cd, de} disconnect.
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["b", "c"])])
            .unwrap();
        inc.apply_delta(&db, &rep);
        let out = dc.apply(&db, &inc, &rep);
        assert_eq!(dc.len(), 3);
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.created.len(), 2);
        // The {zw, wv} component was untouched and keeps its verdicts.
        assert_eq!(out.retained, 1);
        assert_matches_scratch(&q, &db, &dc);
    }

    #[test]
    fn dynamic_components_track_mixed_delta_scripts() {
        let q = examples::q3();
        let mut db = db2(&[["a", "b"], ["b", "c"]]);
        let mut inc = SolutionSet::enumerate(&q, &db);
        let mut dc = DynamicComponents::new(support_partition(&db, &inc));
        type Rows<'a> = Vec<[&'a str; 2]>;
        let scripts: Vec<(Rows, Rows)> = vec![
            (vec![["c", "d"], ["x", "y"]], vec![]),
            (vec![["y", "z"]], vec![["b", "c"]]),
            (vec![["b", "c"], ["d", "x"]], vec![["a", "b"]]),
            (vec![], vec![["c", "d"], ["x", "y"]]),
            (vec![["a", "b"]], vec![["y", "z"]]),
        ];
        for (ins, del) in scripts {
            let ins: Vec<Fact> = ins
                .iter()
                .map(|r| Fact::from_names(r.iter().copied()))
                .collect();
            let del: Vec<Fact> = del
                .iter()
                .map(|r| Fact::from_names(r.iter().copied()))
                .collect();
            let rep = db.apply_delta(&ins, &del).unwrap();
            inc.apply_delta(&db, &rep);
            dc.apply(&db, &inc, &rep);
            assert_matches_scratch(&q, &db, &dc);
        }
    }
}
