//! Incremental re-answering across [`Database::apply_delta`]s.
//!
//! A [`QueryDeltaState`] is the per-query state a live database keeps
//! between updates. For a `Trivial` query (one equivalent to a single
//! atom) it is the cold block scan's [`ForcingBlocks`]: one flag per
//! block, "non-empty and every fact `f` has `q(f f)`", plus the count of
//! set flags, and a delta rechecks only the blocks it touched. For the
//! other PTime classes it is the solution set (patched in place by each
//! delta) and the [`DynamicComponents`] store of the solution *support*:
//! each q-connected component's blocks beside its verdict. A
//! solution-free block is in no component (Proposition 10.6: it is never
//! certain), so a query with no solution keeps none.
//!
//! A state is what the engine's cold solve computed, kept rather than
//! dropped: [`CqaEngine`]'s component route returns the store
//! [`DynamicComponents::solve`] filled, and a
//! [`SharedSession`](crate::SharedSession) keeps it in the query's cache
//! entry. After a delta, [`DynamicComponents::apply`] re-solves only the
//! *dirty region*, through the same fill step:
//!
//! * components the delta never touched keep their verdicts verbatim
//!   (their fact sets are literally identical — fact ids are stable under
//!   [`Database::apply_delta`], so an untouched component's view is
//!   bit-for-bit the view the kept verdict was computed on);
//! * components rebuilt from the dirty region are decided from scratch by
//!   [`decide_component`](cqa_solvers::decide_component), as the cold
//!   solve decides every component, but on the caller's thread.
//!
//! The database itself is **certain iff some component is**
//! (Proposition 10.6), so [`QueryDeltaState::answer`] reads the
//! [`CertainAnswer`] off running totals of the per-component verdicts,
//! the fold the engine's cold component solves use too, without
//! touching the clean region at all. coNP-complete queries have no
//! incremental story (the brute force keeps no reusable evidence) —
//! [`QueryDeltaState::new`] returns `None` for them and callers fall back
//! to a full re-solve.
//!
//! Every entry point here is deliberately *re-derivable*: the state is a
//! pure function of `(query, database)`, and the differential suites
//! (`crates/core/tests/delta_props.rs`, the `deltadiff` fuzz target)
//! compare it against a from-scratch recompute after every step.

use std::sync::Arc;

use crate::classify::Complexity;
use crate::engine::{AnsweredBy, CertainAnswer, CqaEngine, VerdictTotals};
use cqa_model::{BlockId, Database, DeltaReport};
use cqa_solvers::{
    support_partition, CancelToken, CertKStats, DynamicComponents, ForcingBlocks, SolutionSet,
};

/// Counters for the incremental path, aggregated by sessions and servers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Deltas applied (one per successor session).
    pub delta_applied: u64,
    /// Blocks of the components re-solved after a delta (the size of the
    /// dirty region, summed over deltas); for a `Trivial` query, the
    /// touched blocks rechecked. A state built from scratch, for a query
    /// whose cold solve kept none, counts nothing here.
    pub blocks_reseeded: u64,
    /// Component verdicts retained verbatim because their component was
    /// untouched by a delta; for a `Trivial` query, the live blocks whose
    /// flag was kept.
    pub verdicts_retained: u64,
}

impl DeltaStats {
    /// Fold `other` into `self` (all counters are sums).
    pub fn absorb(&mut self, other: &DeltaStats) {
        self.delta_applied += other.delta_applied;
        self.blocks_reseeded += other.blocks_reseeded;
        self.verdicts_retained += other.verdicts_retained;
    }
}

/// Per-query live state, what the engine's cold solve computed, patched
/// in `O(dirty region)` per [`Database::apply_delta`].
///
/// The state owns neither the database nor the engine; callers must feed
/// [`QueryDeltaState::apply`] the query's engine, the post-delta database
/// and the [`DeltaReport`] of the *same* `apply_delta` call, in order.
/// Skipping or reordering reports desynchronises the state (assertions in
/// [`SolutionSet::apply_delta`] catch most misuse).
#[derive(Clone, Debug)]
pub(crate) enum QueryDeltaState {
    /// A `Trivial` query: per block, whether it forces `q`.
    Blocks(ForcingBlocks),
    /// The `Cert_k` and Theorem 10.5 classes: the solution set, which the
    /// state owns once its solve completed, and the support's components
    /// with their verdicts, with running totals over those verdicts.
    Components {
        solutions: Arc<SolutionSet>,
        comps: DynamicComponents,
        totals: VerdictTotals,
    },
}

impl QueryDeltaState {
    /// Can `engine`'s query be answered incrementally? `false` exactly for
    /// the coNP-complete class, whose brute-force search keeps no
    /// component evidence worth patching.
    pub(crate) fn supports(engine: &CqaEngine) -> bool {
        engine.classification().complexity != Complexity::CoNpComplete
    }

    /// Build the state for `db` from scratch: one block scan for a
    /// `Trivial` query, [`QueryDeltaState::components`] otherwise, over
    /// `solutions` when given (the query's solution set on `db`, such as a
    /// kept one patched by [`SolutionSet::apply_delta`]) and a fresh
    /// enumeration when not. Returns `None` when the class is unsupported
    /// ([`QueryDeltaState::supports`]).
    pub(crate) fn new(
        engine: &CqaEngine,
        db: &Database,
        solutions: Option<Arc<SolutionSet>>,
    ) -> Option<QueryDeltaState> {
        if !QueryDeltaState::supports(engine) {
            return None;
        }
        let calm = CancelToken::new();
        let state = if engine.classification().complexity == Complexity::Trivial {
            let blocks = ForcingBlocks::scan(engine.query(), db, &calm);
            QueryDeltaState::Blocks(blocks.expect("a never-raised token cannot cancel the scan"))
        } else {
            let solutions =
                solutions.unwrap_or_else(|| Arc::new(SolutionSet::enumerate(engine.query(), db)));
            let partition = support_partition(db, &solutions);
            QueryDeltaState::components(engine, db, solutions, partition, &calm)
                .expect("a never-raised token cannot cancel the solve")
        };
        Some(state)
    }

    /// The component state of `solutions` on `db`: every group of the
    /// support's `partition` decided by [`DynamicComponents::solve`] with
    /// `engine`'s configuration. `Err` carries a cancelled fan-out's
    /// partial statistics.
    pub(crate) fn components(
        engine: &CqaEngine,
        db: &Database,
        solutions: Arc<SolutionSet>,
        partition: Vec<Vec<BlockId>>,
        token: &CancelToken,
    ) -> Result<QueryDeltaState, CertKStats> {
        let comps = DynamicComponents::solve(
            db,
            &solutions,
            partition,
            engine.config().certk,
            token,
            engine.matching(),
        )?;
        Ok(QueryDeltaState::Components {
            totals: VerdictTotals::of(comps.verdicts()),
            solutions,
            comps,
        })
    }

    /// The solution set the state owns; `None` for a `Trivial` query.
    pub(crate) fn solutions(&self) -> Option<&Arc<SolutionSet>> {
        match self {
            QueryDeltaState::Blocks(_) => None,
            QueryDeltaState::Components { solutions, .. } => Some(solutions),
        }
    }

    /// Fold one applied delta into the state of `engine`'s query. `db`
    /// must be the post-delta database and `report` the [`DeltaReport`] of
    /// that very [`Database::apply_delta`] call. Returns the counters for
    /// this one application.
    pub(crate) fn apply(
        &mut self,
        engine: &CqaEngine,
        db: &Database,
        report: &DeltaReport,
    ) -> DeltaStats {
        let (solutions, comps, totals) = match self {
            QueryDeltaState::Blocks(blocks) => {
                blocks.recheck(db, report.touched.iter().copied());
                let live_touched = report
                    .touched
                    .iter()
                    .filter(|&&b| !db.block(b).is_empty())
                    .count();
                return DeltaStats {
                    delta_applied: 1,
                    blocks_reseeded: report.touched.len() as u64,
                    verdicts_retained: (db.block_count() - live_touched) as u64,
                };
            }
            QueryDeltaState::Components {
                solutions,
                comps,
                totals,
            } => (solutions, comps, totals),
        };
        Arc::make_mut(solutions).apply_delta(db, report);
        let out = comps.apply(
            db,
            solutions,
            report,
            engine.config().certk,
            engine.matching(),
        );
        out.dropped.iter().for_each(|v| totals.remove(v));
        let mut step = DeltaStats {
            delta_applied: 1,
            blocks_reseeded: 0,
            verdicts_retained: out.retained as u64,
        };
        for &id in &out.created {
            totals.add(comps.verdict_of(id));
            step.blocks_reseeded += comps.blocks_of(id).len() as u64;
        }
        step
    }

    /// The whole-database answer of `engine`'s query, in O(1): for a
    /// `Trivial` query it reads the count of forcing blocks; otherwise it
    /// reads the running totals of the per-component verdicts, certain
    /// iff some component is (Proposition 10.6), the answer the cold
    /// solve gives on the component route.
    pub(crate) fn answer(&self, engine: &CqaEngine) -> CertainAnswer {
        match self {
            QueryDeltaState::Blocks(blocks) => CertainAnswer {
                certain: blocks.certain(),
                answered_by: AnsweredBy::Trivial,
                budget_exhausted: false,
                certk_stats: None,
                components: None,
            },
            QueryDeltaState::Components { totals, .. } => totals.answer(if engine.matching() {
                AnsweredBy::Combined
            } else {
                AnsweredBy::ComponentCertK
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, RoutePolicy};
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;

    fn db2(rows: &[[&str; 2]]) -> Database {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    fn f2(a: &str, b: &str) -> Fact {
        Fact::from_names([a, b])
    }

    /// Number of q-connected components of the solution support the
    /// state tracks; `None` for a `Trivial` query, which tracks blocks.
    fn components(state: &QueryDeltaState) -> Option<usize> {
        match state {
            QueryDeltaState::Blocks(_) => None,
            QueryDeltaState::Components { comps, .. } => Some(comps.len()),
        }
    }

    /// Drive a script of deltas through one `QueryDeltaState`, checking
    /// the incremental verdict against a from-scratch engine solve after
    /// every step, and the whole carried answer against a cold solve on
    /// the component route.
    fn check_script(engine: CqaEngine, mut db: Database, script: &[(Vec<Fact>, Vec<Fact>)]) {
        let cold = CqaEngine::with_config(
            engine.query().clone(),
            EngineConfig::default().with_route(RoutePolicy::Component),
        );
        let mut state =
            QueryDeltaState::new(&engine, &db, None).expect("PTime classes support deltas");
        assert_eq!(
            state.answer(&engine).certain,
            engine.certain(&db).certain,
            "initial verdict"
        );
        for (i, (ins, ret)) in script.iter().enumerate() {
            let report = db.apply_delta(ins, ret).unwrap();
            state.apply(&engine, &db, &report);
            let want = engine.certain(&db).certain;
            let got = state.answer(&engine).certain;
            assert_eq!(got, want, "step {i}: incremental vs recompute");
            let (got, want) = (state.answer(&engine), cold.certain(&db));
            assert_eq!(got.certain, want.certain, "step {i}: certain");
            assert_eq!(got.budget_exhausted, want.budget_exhausted, "step {i}");
            assert_eq!(got.certk_stats, want.certk_stats, "step {i}: stats");
            // The engine's no-solution exit reports `Cert_k` and no
            // component count.
            if !SolutionSet::enumerate(engine.query(), &db).is_empty() {
                assert_eq!(got.answered_by, want.answered_by, "step {i}");
                assert_eq!(got.components, want.components, "step {i}");
            }
        }
    }

    #[test]
    fn q3_incremental_matches_recompute_over_mixed_script() {
        let engine = CqaEngine::new(examples::q3());
        let db = db2(&[["a", "b"], ["p", "q"], ["p", "x"]]);
        let script = vec![
            // Growth: completes the a->b->c chain (certain flips true).
            (vec![f2("b", "c")], vec![]),
            // Growth into an existing block (non-monotone direction).
            (vec![f2("a", "z")], vec![]),
            // Retract the chain head: certain flips back off.
            (vec![], vec![f2("a", "b")]),
            // Bridge the two regions.
            (vec![f2("x", "p")], vec![]),
            // Mixed step: insert and retract at once.
            (vec![f2("q", "r"), f2("r", "s")], vec![f2("p", "x")]),
        ];
        check_script(engine, db, script.as_slice());
    }

    fn component_verdicts(state: &QueryDeltaState) -> &DynamicComponents {
        match state {
            QueryDeltaState::Components { comps, .. } => comps,
            QueryDeltaState::Blocks(_) => panic!("a Trivial query keeps no component verdicts"),
        }
    }

    /// The answer fields folded afresh over every component verdict.
    fn fold_verdicts(state: &QueryDeltaState) -> (bool, bool, Option<CertKStats>) {
        let comps = component_verdicts(state);
        let mut stats: Option<CertKStats> = None;
        for v in comps.verdicts() {
            if let Some(s) = &v.stats {
                match &mut stats {
                    Some(acc) => acc.absorb(s),
                    None => stats = Some(*s),
                }
            }
        }
        (
            comps.verdicts().any(|v| v.certain),
            comps.verdicts().any(|v| v.budget_exhausted),
            stats,
        )
    }

    #[test]
    fn running_totals_equal_a_fresh_fold_after_every_step() {
        let mut db = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["p", "x"], ["z", "z"]]);
        let engine = CqaEngine::new(examples::q3());
        let mut state = QueryDeltaState::new(&engine, &db, None).unwrap();
        let script = [
            (vec![f2("c", "d"), f2("m", "n")], vec![]),
            (vec![f2("a", "z")], vec![f2("z", "z")]),
            (vec![], vec![f2("a", "b"), f2("m", "n")]),
            (vec![f2("x", "p"), f2("q", "r")], vec![f2("p", "x")]),
            (vec![f2("z", "z"), f2("n", "m")], vec![f2("c", "d")]),
        ];
        for (i, (ins, ret)) in script.iter().enumerate() {
            let report = db.apply_delta(ins, ret).unwrap();
            state.apply(&engine, &db, &report);
            let answer = state.answer(&engine);
            let (certain, exhausted, stats) = fold_verdicts(&state);
            assert_eq!(answer.certain, certain, "step {i}: certain");
            assert_eq!(answer.budget_exhausted, exhausted, "step {i}: budget");
            assert_eq!(answer.certk_stats, stats, "step {i}: stats");
            let verdicts = component_verdicts(&state).len();
            assert_eq!(answer.components, Some(verdicts), "step {i}");
        }
    }

    #[test]
    fn q6_combined_incremental_matches_recompute() {
        let engine = CqaEngine::new(examples::q6());
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        for f in [["a", "b", "c"], ["c", "a", "b"]] {
            db.insert(Fact::from_names(f)).unwrap();
        }
        let f3 = |t: [&str; 3]| Fact::from_names(t);
        let script = vec![
            (vec![f3(["b", "c", "a"])], vec![]),
            (vec![], vec![f3(["c", "a", "b"])]),
            (vec![f3(["c", "a", "b"]), f3(["d", "d", "d"])], vec![]),
        ];
        check_script(engine, db, script.as_slice());
    }

    #[test]
    fn untouched_components_keep_their_verdicts() {
        let engine = CqaEngine::new(examples::q3());
        let mut db = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["x", "y"]]);
        let mut state = QueryDeltaState::new(&engine, &db, None).unwrap();
        // Only the a→b→c chain holds a solution; p→q and x→y are in no
        // component.
        assert_eq!(components(&state), Some(1));
        // Touch only the {x, y} region: y→z gives x→y its first solution.
        let report = db.apply_delta(&[f2("y", "z")], &[]).unwrap();
        let step = state.apply(&engine, &db, &report);
        // The chain's component was untouched and kept its verdict.
        assert_eq!(step.verdicts_retained, 1);
        assert_eq!(step.blocks_reseeded, 2, "blocks x and y");
        assert_eq!(components(&state), Some(2));
        assert_eq!(state.answer(&engine).certain, engine.certain(&db).certain);
    }

    #[test]
    fn trivial_query_keeps_one_flag_per_block() {
        let q = cqa_query::parse_query("R(y | x) R(x | x)").unwrap();
        let engine = CqaEngine::new(q);
        assert_eq!(engine.classification().complexity, Complexity::Trivial);
        let mut db = db2(&[["a", "a"], ["a", "b"], ["c", "d"]]);
        let mut state = QueryDeltaState::new(&engine, &db, None).unwrap();
        assert_eq!(components(&state), None);
        assert!(!state.answer(&engine).certain);

        // Block a loses its non-loop fact and now forces q.
        let report = db.apply_delta(&[], &[f2("a", "b")]).unwrap();
        let step = state.apply(&engine, &db, &report);
        assert_eq!((step.blocks_reseeded, step.verdicts_retained), (1, 1));
        assert!(state.answer(&engine).certain);
        assert_eq!(
            format!("{:?}", state.answer(&engine)),
            format!("{:?}", engine.certain(&db)),
            "the patched answer is the cold block scan's"
        );

        // An emptied block is no witness; a fresh all-loop block is.
        let script = vec![
            (vec![], vec![f2("a", "a")]),
            (vec![f2("e", "e")], vec![]),
            (vec![f2("e", "f"), f2("a", "a")], vec![]),
            (vec![f2("c", "c")], vec![f2("c", "d"), f2("e", "f")]),
        ];
        check_script(engine, db, script.as_slice());
    }

    #[test]
    fn a_solution_free_database_keeps_no_component_until_its_first_solution() {
        // R(y | x) R(x | y) needs a 2-cycle; a chain of 10³ blocks has
        // none, so nothing is partitioned or solved.
        let q = cqa_query::parse_query("R(y | x) R(x | y)").unwrap();
        let engine = CqaEngine::new(q);
        assert_ne!(engine.classification().complexity, Complexity::Trivial);
        let names: Vec<String> = (0..=1000).map(|i| format!("n{i}")).collect();
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for w in names.windows(2) {
            db.insert(f2(&w[0], &w[1])).unwrap();
        }
        let mut state = QueryDeltaState::new(&engine, &db, None).unwrap();
        assert_eq!(components(&state), Some(0));
        assert!(!state.answer(&engine).certain);
        assert_eq!(state.answer(&engine).certk_stats, None);

        // n1→n0 closes the cycle n0→n1→n0: exactly the blocks n0 and n1
        // come in, as one component.
        let report = db.apply_delta(&[f2("n1", "n0")], &[]).unwrap();
        let step = state.apply(&engine, &db, &report);
        assert_eq!(components(&state), Some(1));
        assert_eq!(step.blocks_reseeded, 2);
        assert_eq!(step.verdicts_retained, 0);
        let blocks = component_verdicts(&state)
            .ids()
            .map(|c| component_verdicts(&state).blocks_of(c).len());
        assert_eq!(blocks.collect::<Vec<_>>(), vec![2]);
        assert_eq!(state.answer(&engine).certain, engine.certain(&db).certain);

        // Retracting it empties the support again.
        let report = db.apply_delta(&[], &[f2("n1", "n0")]).unwrap();
        state.apply(&engine, &db, &report);
        assert_eq!(components(&state), Some(0));
        assert!(!state.answer(&engine).certain);
    }

    #[test]
    fn conp_class_is_unsupported() {
        let engine = CqaEngine::new(examples::q2());
        assert!(!QueryDeltaState::supports(&engine));
        let mut db = Database::new(Signature::new(4, 2).unwrap());
        db.insert(Fact::from_names(["a", "b", "a", "c"])).unwrap();
        assert!(QueryDeltaState::new(&engine, &db, None).is_none());
    }

    #[test]
    fn blocks_reseeded_counts_the_resolved_components_blocks() {
        let engine = CqaEngine::new(examples::q3());
        let mut db = db2(&[["a", "b"], ["p", "q"], ["p", "x"]]);
        let mut state = QueryDeltaState::new(&engine, &db, None).unwrap();

        // Growth: {a→b} and the new {b→c} form one two-block component.
        let report = db.apply_delta(&[f2("b", "c")], &[]).unwrap();
        assert!(report.growth_only());
        let step = state.apply(&engine, &db, &report);
        assert_eq!(step.blocks_reseeded, 2);
        assert_eq!(step.verdicts_retained, 0, "the p block holds no solution");
        assert!(state.answer(&engine).certain);

        // A retract leaves {b→c} without a solution: the component is
        // dropped and nothing is re-solved (the emptied a block belongs
        // to no component either).
        let report = db.apply_delta(&[], &[f2("a", "b")]).unwrap();
        assert!(!report.growth_only());
        let step = state.apply(&engine, &db, &report);
        assert_eq!(step.blocks_reseeded, 0);
        assert_eq!(components(&state), Some(0));
        assert_eq!(state.answer(&engine).certain, engine.certain(&db).certain);
    }

    #[test]
    fn growth_bridging_two_components_resolves_the_merged_component() {
        let engine = CqaEngine::new(examples::q3());
        // Two multi-block components, {a→b, a→y, b→c} and {d→e, d→w,
        // e→f}, neither certain, plus two solution-free blocks that are
        // in no component.
        let mut db = db2(&[
            ["a", "b"],
            ["a", "y"],
            ["b", "c"],
            ["d", "e"],
            ["d", "w"],
            ["e", "f"],
            ["m", "n"],
            ["u", "v"],
        ]);
        let mut state = QueryDeltaState::new(&engine, &db, None).unwrap();
        assert_eq!(components(&state), Some(2));
        assert!(!state.answer(&engine).certain);

        // c→d lives in a fresh block and bridges the two components.
        let report = db.apply_delta(&[f2("c", "d")], &[]).unwrap();
        assert!(report.growth_only());
        let step = state.apply(&engine, &db, &report);
        assert_eq!(components(&state), Some(1));
        assert_eq!(step.verdicts_retained, 0, "both components merged");
        // The merged component: blocks a, b, c, d and e.
        assert_eq!(step.blocks_reseeded, 5);
        assert_eq!(state.answer(&engine).certain, engine.certain(&db).certain);
        assert!(state.answer(&engine).certain);
    }
}
