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

use crate::cancel::POLL_STRIDE;
use crate::combined::{decide_component, ComponentVerdict};
use crate::{CancelToken, CertKConfig, CertKScratch, CertKStats, SolutionSet};
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
/// in order of their smallest block, polling `token` every few thousand
/// blocks; `None` once it fired. Empty iff `solutions` is.
pub fn support_partition(
    db: &Database,
    solutions: &SolutionSet,
    token: &CancelToken,
) -> Option<Vec<Vec<BlockId>>> {
    let pool = solutions.support_blocks(db, token)?;
    partition_pool(db, solutions, &pool, false, token)
}

/// The support of `solutions` as one view, polling `token` every few
/// thousand blocks; `None` once it fired.
pub fn support_view<'a>(
    db: &'a Database,
    solutions: &SolutionSet,
    token: &CancelToken,
) -> Option<DbView<'a>> {
    let blocks = solutions.support_blocks(db, token)?;
    db.view_of_blocks_until(blocks, || token.is_cancelled())
}

/// Every live block's component, solution-free singletons included.
fn whole_partition(db: &Database, solutions: &SolutionSet) -> Vec<Vec<BlockId>> {
    let live: Vec<BlockId> = db.block_ids().collect();
    partition_pool(db, solutions, &live, true, &CancelToken::new())
        .expect("a never-raised token cannot cancel the partition")
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
/// dropped otherwise. Polls `token` every `POLL_STRIDE` pool blocks;
/// `None` once it fired.
fn partition_pool(
    db: &Database,
    solutions: &SolutionSet,
    pool: &[BlockId],
    with_free: bool,
    token: &CancelToken,
) -> Option<Vec<Vec<BlockId>>> {
    let mut uf = UnionFind::new(pool.len());
    let mut in_support = vec![false; pool.len()];
    // Each block slot's pool position plus one; 0 off the pool. Zeroed,
    // so a small pool in a large database touches few of its pages.
    let mut position = vec![0u32; db.block_slots()];
    for (i, &b) in pool.iter().enumerate() {
        position[b.idx()] = i as u32 + 1;
    }
    for (i, &b) in pool.iter().enumerate() {
        if i % POLL_STRIDE == 0 && token.is_cancelled() {
            return None;
        }
        for &f in db.block(b) {
            for g in solutions.groups_of(f) {
                in_support[i] = true;
                let some_fact = solutions.group(g).0[0];
                let j = position[db.block_of(some_fact).idx()];
                debug_assert!(j > 0, "solution edge escapes the block pool");
                uf.union(i, j as usize - 1);
            }
        }
    }
    // Pool order is ascending, so a component's first block seen is its
    // smallest, and the components come out in that order.
    let mut slot_of_root = vec![usize::MAX; pool.len()];
    let mut out: Vec<Vec<BlockId>> = Vec::new();
    for (i, &b) in pool.iter().enumerate() {
        if i % POLL_STRIDE == 0 && token.is_cancelled() {
            return None;
        }
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
    Some(out)
}

/// What one [`DynamicComponents::apply`] did to the partition.
#[derive(Clone, Debug, Default)]
pub struct ComponentDeltaReport {
    /// The verdicts of the components the delta dissolved (merged, split
    /// or emptied).
    pub dropped: Vec<ComponentVerdict>,
    /// Fresh component ids covering the dirty region, ascending, each
    /// already decided.
    pub created: Vec<u32>,
    /// Components left untouched — their verdicts stay valid.
    pub retained: usize,
}

/// The support's q-connected components, each with its blocks and its
/// [`ComponentVerdict`], maintained across [`Database::apply_delta`]s:
/// [`DynamicComponents::solve`] decides every component of a database's
/// support, [`DynamicComponents::apply`] only those a delta dirtied,
/// both through one fill step.
///
/// Only support blocks belong to a component: a block joins the
/// partition when one of its facts enters a join group whose other side
/// is non-empty, and leaves it when no fact of it is in a solution any
/// more. Components carry stable numeric ids: an untouched component
/// keeps its id and its verdict, while every component in the dirty
/// region — touched blocks, their components, and any component or
/// block a new solution reaches — is dissolved and re-partitioned under
/// fresh ids. Insertions that bridge two components thus merge them into
/// one fresh component; retractions that cut a component apart split it
/// into several. Cost per delta is `O(dirty region)`, not `O(db)`.
#[derive(Clone, Debug)]
pub struct DynamicComponents {
    /// Each block's component by block slot; `u32::MAX` (or past the
    /// end) when the block is in none.
    comp_of_block: Vec<u32>,
    comps: BTreeMap<u32, Component>,
    next: u32,
}

/// One entry of [`DynamicComponents`].
#[derive(Clone, Debug)]
struct Component {
    /// Ascending.
    blocks: Vec<BlockId>,
    verdict: ComponentVerdict,
}

impl DynamicComponents {
    /// Decide every q-connected component of the support of `solutions`
    /// on `db`, by `¬matching` on a clique-database component when
    /// `matching` is set and by `Cert_k` otherwise ([`decide_component`]),
    /// on up to `cfg.threads` threads. `partition` is that support's
    /// [`support_partition`], passed in so that a caller which computed it
    /// to choose a route does not partition twice; component `i`, under
    /// id `i`, is its `i`-th group. Each component sees the same
    /// configuration whatever the thread count, so the store is identical
    /// across thread counts.
    ///
    /// When `token` fires mid-fan-out, every component stops within
    /// roughly one block derivation and the call returns `Err` with the
    /// **aggregated partial statistics** of every component that did any
    /// work. A completed fan-out is never discarded: if every component
    /// finished before the token was observed cancelled, the store is
    /// returned even when the token has since expired.
    pub fn solve(
        db: &Database,
        solutions: &SolutionSet,
        partition: Vec<Vec<BlockId>>,
        cfg: CertKConfig,
        token: &CancelToken,
        matching: bool,
    ) -> Result<DynamicComponents, CertKStats> {
        debug_assert!(
            support_partition(db, solutions, &CancelToken::new()).as_ref() == Some(&partition)
        );
        let mut comps = DynamicComponents {
            comp_of_block: Vec::new(),
            comps: BTreeMap::new(),
            next: 0,
        };
        comps.fill(db, solutions, partition, cfg, token, matching)?;
        Ok(comps)
    }

    /// The one fill step: decide every group of a partition, and admit
    /// the groups with their verdicts in group order under fresh ids,
    /// which it returns. A cancelled fan-out admits nothing. Each
    /// fan-out worker decides all its components in one
    /// [`CertKScratch`], dropped when the fan-out returns.
    fn fill(
        &mut self,
        db: &Database,
        solutions: &SolutionSet,
        groups: Vec<Vec<BlockId>>,
        cfg: CertKConfig,
        token: &CancelToken,
        matching: bool,
    ) -> Result<Vec<u32>, CertKStats> {
        let views: Vec<DbView<'_>> = groups
            .iter()
            .map(|blocks| db.view_of_blocks(blocks.iter().copied()))
            .collect();
        let verdicts = fold_outcomes(minipool::par_map_with(
            cfg.threads,
            &views,
            CertKScratch::default,
            |scratch, comp| decide_component(comp, solutions, cfg, token, matching, scratch),
        ))?;
        Ok(groups
            .into_iter()
            .zip(verdicts)
            .map(|(blocks, verdict)| self.admit(blocks, verdict))
            .collect())
    }

    fn admit(&mut self, blocks: Vec<BlockId>, verdict: ComponentVerdict) -> u32 {
        let id = self.next;
        self.next += 1;
        for &b in &blocks {
            if b.idx() >= self.comp_of_block.len() {
                self.comp_of_block.resize(b.idx() + 1, u32::MAX);
            }
            self.comp_of_block[b.idx()] = id;
        }
        self.comps.insert(id, Component { blocks, verdict });
        id
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// `true` iff the partition has no components.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Component ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.comps.keys().copied()
    }

    /// The blocks of a component, ascending.
    pub fn blocks_of(&self, id: u32) -> &[BlockId] {
        &self.comps[&id].blocks
    }

    /// The verdict of a component.
    pub fn verdict_of(&self, id: u32) -> &ComponentVerdict {
        &self.comps[&id].verdict
    }

    /// Every component's verdict, in ascending id order.
    pub fn verdicts(&self) -> impl Iterator<Item = &ComponentVerdict> + '_ {
        self.comps.values().map(|c| &c.verdict)
    }

    /// Fold a database delta into the store: dissolve every dirty
    /// component and decide the components that replace them, as
    /// [`DynamicComponents::solve`] would with `cfg` and `matching`, but
    /// on the caller's thread whatever `cfg.threads` says: a dirty region
    /// is `O(delta)`, too little work to pay for a thread scope.
    /// `solutions` must already be the post-delta solution set (see
    /// [`SolutionSet::apply_delta`]).
    pub fn apply(
        &mut self,
        db: &Database,
        solutions: &SolutionSet,
        report: &DeltaReport,
        cfg: CertKConfig,
        matching: bool,
    ) -> ComponentDeltaReport {
        let before = self.comps.len();
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
        let mut dropped = Vec::with_capacity(dirty.len());
        for c in &dirty {
            let comp = self.comps.remove(c).expect("an indexed component exists");
            for &b in &comp.blocks {
                self.comp_of_block[b.idx()] = u32::MAX;
            }
            pool.extend(comp.blocks);
            dropped.push(comp.verdict);
        }
        pool.retain(|&b| !db.block(b).is_empty());
        pool.sort_unstable();
        pool.dedup();
        let calm = CancelToken::new();
        let groups = partition_pool(db, solutions, &pool, false, &calm)
            .expect("a never-raised token cannot cancel the partition");
        let created = self
            .fill(db, solutions, groups, cfg.with_threads(1), &calm, matching)
            .expect("a never-raised token cannot cancel the fan-out");
        ComponentDeltaReport {
            dropped,
            created,
            retained: before - dirty.len(),
        }
    }
}

/// Fold fan-out slots into the verdicts in component order: any
/// cancelled slot turns the whole run into `Err` carrying the aggregated
/// partial statistics. Completed components contribute their counters to
/// that aggregate — they are evidence of work done before the cancel —
/// but their verdicts are withheld with everything else.
fn fold_outcomes(
    outcomes: Vec<Result<ComponentVerdict, CertKStats>>,
) -> Result<Vec<ComponentVerdict>, CertKStats> {
    if outcomes.iter().any(Result::is_err) {
        let mut agg = CertKStats::default();
        for slot in &outcomes {
            match slot {
                Ok(v) => {
                    if let Some(s) = &v.stats {
                        agg.absorb(s);
                    }
                }
                Err(s) => agg.absorb(s),
            }
        }
        return Err(agg);
    }
    Ok(outcomes.into_iter().flatten().collect())
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

    /// [`DynamicComponents::solve`] by `Cert_2` under a calm token.
    fn solve(db: &Database, solutions: &SolutionSet) -> DynamicComponents {
        DynamicComponents::solve(
            db,
            solutions,
            support_partition(db, solutions, &CancelToken::new()).expect("a calm token"),
            CertKConfig::new(2),
            &CancelToken::new(),
            false,
        )
        .expect("a calm token cannot cancel the fan-out")
    }

    #[test]
    fn a_raised_token_stops_the_partition_and_the_support_view() {
        let d = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["q", "r"], ["z", "w"]]);
        let solutions = SolutionSet::enumerate(&examples::q3(), &d);
        let calm = CancelToken::new();
        let blocks = |ids: &[u32]| ids.iter().map(|&b| BlockId(b)).collect::<Vec<_>>();
        assert_eq!(
            support_partition(&d, &solutions, &calm),
            Some(vec![blocks(&[0, 1]), blocks(&[2, 3])])
        );
        let view = support_view(&d, &solutions, &calm).expect("a calm token");
        assert_eq!(
            Some(view.blocks().to_vec()),
            solutions.support_blocks(&d, &calm)
        );
        let raised = CancelToken::new();
        raised.cancel();
        assert_eq!(support_partition(&d, &solutions, &raised), None);
        assert!(support_view(&d, &solutions, &raised).is_none());
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
        let scratch = support_partition(db, &solutions, &CancelToken::new()).expect("a calm token");
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
        let mut dc = solve(&db, &inc);
        assert_eq!(dc.len(), 2);
        // Bridge the two chains: c -> p.
        let rep = db
            .apply_delta(&[Fact::from_names(["c", "p"])], &[])
            .unwrap();
        inc.apply_delta(&db, &rep);
        let out = dc.apply(&db, &inc, &rep, CertKConfig::new(2), false);
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
        let mut dc = solve(&db, &inc);
        assert_eq!(dc.len(), 2);
        // Cut the chain in the middle: {xa, ab} and {cd, de} disconnect.
        let rep = db
            .apply_delta(&[], &[Fact::from_names(["b", "c"])])
            .unwrap();
        inc.apply_delta(&db, &rep);
        let out = dc.apply(&db, &inc, &rep, CertKConfig::new(2), false);
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
        let mut dc = solve(&db, &inc);
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
            dc.apply(&db, &inc, &rep, CertKConfig::new(2), false);
            assert_matches_scratch(&q, &db, &dc);
        }
    }

    #[test]
    fn one_fill_step_is_thread_invariant_and_decides_each_component_alone() {
        // Three support components (a certain chain, a falsifiable
        // contested chain, a self-loop) and a solution-free block; the
        // delta merges the first two and opens a fourth component.
        let q = examples::q3();
        let mut db = db2(&[
            ["a", "b"],
            ["b", "c"],
            ["p", "q"],
            ["p", "x"],
            ["q", "r"],
            ["z", "z"],
            ["m", "n"],
        ]);
        let mut inc = SolutionSet::enumerate(&q, &db);
        let calm = CancelToken::new();
        let stores: Vec<DynamicComponents> = [1usize, 4]
            .iter()
            .map(|&t| {
                let cfg = CertKConfig::new(2).with_threads(t);
                let partition = support_partition(&db, &inc, &calm).expect("a calm token");
                DynamicComponents::solve(&db, &inc, partition, cfg, &calm, false).unwrap()
            })
            .collect();
        assert_eq!(stores[0].len(), 3);
        assert_eq!(format!("{:?}", stores[0]), format!("{:?}", stores[1]));
        let rep = db
            .apply_delta(
                &[
                    Fact::from_names(["c", "p"]),
                    Fact::from_names(["u", "v"]),
                    Fact::from_names(["v", "w"]),
                ],
                &[],
            )
            .unwrap();
        inc.apply_delta(&db, &rep);
        let mut stores = stores.into_iter();
        let (mut one, mut four) = (stores.next().unwrap(), stores.next().unwrap());
        let out = one.apply(&db, &inc, &rep, CertKConfig::new(2).with_threads(1), false);
        four.apply(&db, &inc, &rep, CertKConfig::new(2).with_threads(4), false);
        assert_eq!(
            (out.dropped.len(), out.created.len(), out.retained),
            (2, 2, 1)
        );
        assert_eq!(format!("{one:?}"), format!("{four:?}"));
        assert_matches_scratch(&q, &db, &one);
        for id in one.ids() {
            let alone = decide_component(
                &db.view_of_blocks(one.blocks_of(id).iter().copied()),
                &inc,
                CertKConfig::new(2),
                &calm,
                false,
                &mut CertKScratch::default(),
            )
            .unwrap();
            assert_eq!(format!("{:?}", one.verdict_of(id)), format!("{alone:?}"));
        }
    }
}
