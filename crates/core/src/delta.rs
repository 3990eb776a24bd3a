//! Incremental re-answering across [`Database::apply_delta`]s.
//!
//! A [`QueryDeltaState`] is the per-query cache a live database keeps
//! between updates: the incremental solution set, the dynamic q-connected
//! partition, and one verdict per component — each verdict carrying the
//! [`CertKWarmState`] antichain snapshot its fixpoint ended in. After a
//! delta, only the *dirty region* is re-solved:
//!
//! * components the delta never touched keep their verdicts verbatim
//!   (their fact sets are literally identical — fact ids are stable under
//!   [`Database::apply_delta`], so an untouched component's view is
//!   bit-for-bit the view the cached verdict was computed on);
//! * components rebuilt from the dirty region are re-solved — *warm* when
//!   the delta is growth-only (`cqa_model::DeltaReport::growth_only`) and
//!   every lineage parent's snapshot is
//!   [`reusable`](CertKWarmState::reusable), seeding the fixpoint with the
//!   merged parent antichains and a worklist of just the touched blocks;
//!   *cold* otherwise (retractions make `Cert_k` non-monotone, so a stale
//!   antichain would be unsound).
//!
//! The database itself is **certain iff some component is**
//! (Proposition 10.6), so [`QueryDeltaState::answer`] synthesises a
//! [`CertainAnswer`] from the per-component verdicts without touching the
//! clean region at all. coNP-complete queries have no incremental story
//! (the brute force keeps no reusable evidence) — [`QueryDeltaState::new`]
//! returns `None` for them and callers fall back to a full re-solve.
//!
//! Every entry point here is deliberately *re-derivable*: the state is a
//! pure function of `(query, database)`, and the differential suites
//! (`crates/core/tests/delta_props.rs`, the `deltadiff` fuzz target)
//! compare it against a from-scratch recompute after every step.

use std::collections::{BTreeMap, HashMap};

use crate::classify::Complexity;
use crate::engine::{AnsweredBy, CertainAnswer, CqaEngine};
use cqa_model::{BlockId, Database, DeltaReport, FactId};
use cqa_solvers::{
    certain_combined_over, certk_view, CancelToken, CertKOutcome, CertKStats, CertKWarmState,
    Component, DynamicComponents, IncrementalSolutions, WarmInit,
};

/// Counters for the incremental path, aggregated by sessions and servers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Deltas folded into this state ([`QueryDeltaState::apply`] calls).
    pub delta_applied: u64,
    /// Blocks seeded into warm-restart worklists (the dirty frontier the
    /// fixpoints actually started from, summed over warm re-solves).
    pub blocks_reseeded: u64,
    /// Component verdicts retained verbatim because their component was
    /// untouched by a delta.
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

/// A cached per-component verdict.
#[derive(Clone, Debug)]
struct CompVerdict {
    certain: bool,
    budget_exhausted: bool,
    stats: Option<CertKStats>,
    /// The antichain snapshot the component's fixpoint ended in; `None`
    /// for matching-decided components (Theorem 10.5 route), which keep
    /// no fixpoint evidence and always re-solve cold.
    warm: Option<CertKWarmState>,
}

/// Running aggregates over a state's component verdicts, updated as
/// verdicts come and go so that [`QueryDeltaState::answer`] is O(1)
/// rather than a fold over every component.
#[derive(Clone, Debug, Default)]
struct VerdictTotals {
    certain: usize,
    budget_exhausted: usize,
    /// Field sums of the verdicts' `CertKStats`; `peak_members` stays 0.
    sums: CertKStats,
    /// Multiset of their `peak_members` (value → count), for the max;
    /// empty iff no verdict carries stats.
    peaks: BTreeMap<usize, usize>,
}

impl VerdictTotals {
    fn add(&mut self, v: &CompVerdict) {
        self.certain += usize::from(v.certain);
        self.budget_exhausted += usize::from(v.budget_exhausted);
        if let Some(s) = &v.stats {
            self.sums.absorb(&CertKStats {
                peak_members: 0,
                ..*s
            });
            *self.peaks.entry(s.peak_members).or_default() += 1;
        }
    }

    fn remove(&mut self, v: &CompVerdict) {
        self.certain -= usize::from(v.certain);
        self.budget_exhausted -= usize::from(v.budget_exhausted);
        if let Some(s) = &v.stats {
            // Exhaustive, so a new `CertKStats` field cannot be missed.
            let CertKStats {
                rounds,
                inserted,
                steps,
                peak_members,
                stale_compacted,
                blocks_derived,
                blocks_skipped,
            } = *s;
            self.sums.rounds -= rounds;
            self.sums.inserted -= inserted;
            self.sums.steps -= steps;
            self.sums.stale_compacted -= stale_compacted;
            self.sums.blocks_derived -= blocks_derived;
            self.sums.blocks_skipped -= blocks_skipped;
            let count = self
                .peaks
                .get_mut(&peak_members)
                .expect("a removed verdict was added");
            *count -= 1;
            if *count == 0 {
                self.peaks.remove(&peak_members);
            }
        }
    }

    /// The summed stats, as `CertKStats::absorb` folded over every
    /// verdict would give them; `None` when no verdict carries stats.
    fn stats(&self) -> Option<CertKStats> {
        let (&peak_members, _) = self.peaks.last_key_value()?;
        Some(CertKStats {
            peak_members,
            ..self.sums
        })
    }
}

/// Per-query incremental cache: solutions, partition and component
/// verdicts, patched in `O(dirty region)` per [`Database::apply_delta`].
///
/// The state does not own the database; callers must feed
/// [`QueryDeltaState::apply`] the post-delta database and the
/// [`DeltaReport`] of the *same* `apply_delta` call, in order. Skipping or
/// reordering reports desynchronises the cache (debug assertions in the
/// incremental solution index catch most misuse).
#[derive(Clone, Debug)]
pub struct QueryDeltaState {
    engine: CqaEngine,
    solutions: IncrementalSolutions,
    comps: DynamicComponents,
    verdicts: HashMap<u32, CompVerdict>,
    totals: VerdictTotals,
    stats: DeltaStats,
}

impl QueryDeltaState {
    /// Can `engine`'s query be answered incrementally? `false` exactly for
    /// the coNP-complete class, whose brute-force search keeps no
    /// component evidence worth patching.
    pub fn supports(engine: &CqaEngine) -> bool {
        engine.classification().complexity != Complexity::CoNpComplete
    }

    /// Build the cache for `db` with a from-scratch solve of every
    /// component. Returns `None` when the class is unsupported
    /// ([`QueryDeltaState::supports`]).
    pub fn new(engine: CqaEngine, db: &Database) -> Option<QueryDeltaState> {
        if !QueryDeltaState::supports(&engine) {
            return None;
        }
        let solutions = IncrementalSolutions::new(engine.query(), db);
        let comps = DynamicComponents::new(db, solutions.solutions());
        let mut state = QueryDeltaState {
            engine,
            solutions,
            comps,
            verdicts: HashMap::new(),
            totals: VerdictTotals::default(),
            stats: DeltaStats::default(),
        };
        for id in state.comps.ids().collect::<Vec<_>>() {
            let v = state.solve_cold(db, id);
            state.put_verdict(id, v);
        }
        Some(state)
    }

    /// Record component `id`'s verdict in the map and the totals.
    fn put_verdict(&mut self, id: u32, v: CompVerdict) {
        self.totals.add(&v);
        if let Some(old) = self.verdicts.insert(id, v) {
            self.totals.remove(&old);
        }
    }

    /// Take component `id`'s verdict out of the map and the totals.
    fn take_verdict(&mut self, id: u32) -> Option<CompVerdict> {
        let v = self.verdicts.remove(&id)?;
        self.totals.remove(&v);
        Some(v)
    }

    /// The engine (query, classification, config) this cache answers for.
    pub fn engine(&self) -> &CqaEngine {
        &self.engine
    }

    /// Lifetime counters for this state.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Number of q-connected components currently tracked.
    pub fn components(&self) -> usize {
        self.comps.len()
    }

    /// Solve one component from scratch, per the classification.
    fn solve_cold(&self, db: &Database, id: u32) -> CompVerdict {
        if self.engine.classification().complexity != Complexity::PTimeCombined {
            return self.solve_certk(db, id, None);
        }
        let comp = [Component {
            view: self.comps.view_of(db, id),
        }];
        let res = certain_combined_over(
            &comp,
            self.solutions.solutions(),
            self.engine.config().certk,
            &CancelToken::new(),
        )
        .expect("a never-raised token cannot cancel the fan-out");
        let v = &res.components[0];
        CompVerdict {
            certain: v.certain,
            budget_exhausted: v.budget_exhausted,
            stats: v.stats,
            warm: None,
        }
    }

    /// Run `Cert_k` on component `id` — cold, or warm from `warm` —
    /// keeping the snapshot for the next delta.
    fn solve_certk(&self, db: &Database, id: u32, warm: Option<WarmInit<'_>>) -> CompVerdict {
        let (out, stats, snap) = certk_view(
            &self.comps.view_of(db, id),
            self.solutions.solutions(),
            self.engine.config().certk,
            &CancelToken::new(),
            warm,
            true,
        )
        .expect("a never-raised token cannot interrupt the fixpoint");
        CompVerdict {
            certain: out.is_certain(),
            budget_exhausted: out == CertKOutcome::BudgetExhausted,
            stats: Some(stats),
            warm: snap,
        }
    }

    /// Fold one applied delta into the cache. `db` must be the post-delta
    /// database and `report` the [`DeltaReport`] of that very
    /// [`Database::apply_delta`] call. Returns the counters for this one
    /// application (already absorbed into [`QueryDeltaState::stats`]).
    pub fn apply(&mut self, db: &Database, report: &DeltaReport) -> DeltaStats {
        let mut step = DeltaStats {
            delta_applied: 1,
            ..DeltaStats::default()
        };
        self.solutions.apply_delta(db, report);
        let creport = self.comps.apply(db, self.solutions.solutions(), report);
        step.verdicts_retained += creport.retained as u64;
        // Verdicts of dissolved components become warm-seed material for
        // their descendants (growth-only deltas), then die.
        let mut parents: HashMap<u32, CompVerdict> = HashMap::new();
        for &c in &creport.dropped {
            if let Some(v) = self.take_verdict(c) {
                parents.insert(c, v);
            }
        }
        let growth = report.growth_only();
        // Group the delta's facts and blocks by the component now holding
        // them, once — the per-component warm re-solves below must not
        // each rescan the whole report (a 1%-growth batch on a 10⁶-fact
        // database creates ~10⁴ components; per-component scans made the
        // batch path quadratic and slower than a cold recompute).
        let mut changed_by_comp: HashMap<u32, Vec<FactId>> = HashMap::new();
        let mut dirty_by_comp: HashMap<u32, Vec<BlockId>> = HashMap::new();
        if growth {
            for &f in &report.inserted {
                if let Some(c) = self.comps.comp_of_block(db.block_of(f)) {
                    changed_by_comp.entry(c).or_default().push(f);
                }
            }
            for &b in &report.touched {
                if let Some(c) = self.comps.comp_of_block(b) {
                    dirty_by_comp.entry(c).or_default().push(b);
                }
            }
        }
        for &id in &creport.created {
            let lineage = creport.lineage.get(&id).map(Vec::as_slice).unwrap_or(&[]);
            let warm_seed: Option<Vec<&CertKWarmState>> = if growth {
                lineage
                    .iter()
                    .map(|p| {
                        parents
                            .get(p)
                            .and_then(|v| v.warm.as_ref())
                            .filter(|w| w.reusable())
                    })
                    .collect()
            } else {
                None
            };
            let verdict = match warm_seed {
                Some(seeds) => {
                    let merged = CertKWarmState::merged(seeds);
                    let changed = changed_by_comp.remove(&id).unwrap_or_default();
                    let dirty = dirty_by_comp.remove(&id).unwrap_or_default();
                    step.blocks_reseeded += dirty.len() as u64;
                    self.solve_certk(
                        db,
                        id,
                        Some(WarmInit {
                            state: &merged,
                            changed_facts: &changed,
                            dirty_blocks: &dirty,
                        }),
                    )
                }
                None => self.solve_cold(db, id),
            };
            self.put_verdict(id, verdict);
        }
        self.stats.absorb(&step);
        step
    }

    /// Synthesise the whole-database answer from the per-component
    /// verdicts: certain iff some component is (Proposition 10.6). O(1):
    /// reads the running totals kept as verdicts change.
    pub fn answer(&self) -> CertainAnswer {
        CertainAnswer {
            certain: self.totals.certain > 0,
            answered_by: match self.engine.classification().complexity {
                Complexity::PTimeCombined => AnsweredBy::Combined,
                _ => AnsweredBy::ComponentCertK,
            },
            budget_exhausted: self.totals.budget_exhausted > 0,
            certk_stats: self.totals.stats(),
            components: Some(self.comps.len()),
            skipped_components: Some(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Drive a script of deltas through one `QueryDeltaState`, checking
    /// the incremental verdict against a from-scratch engine solve after
    /// every step.
    fn check_script(engine: CqaEngine, mut db: Database, script: &[(Vec<Fact>, Vec<Fact>)]) {
        let mut state =
            QueryDeltaState::new(engine.clone(), &db).expect("PTime classes support deltas");
        assert_eq!(
            state.answer().certain,
            engine.certain(&db).certain,
            "initial verdict"
        );
        for (i, (ins, ret)) in script.iter().enumerate() {
            let report = db.apply_delta(ins, ret).unwrap();
            state.apply(&db, &report);
            let want = engine.certain(&db).certain;
            let got = state.answer().certain;
            assert_eq!(got, want, "step {i}: incremental vs recompute");
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

    /// The answer fields folded afresh over every component verdict.
    fn fold_verdicts(state: &QueryDeltaState) -> (bool, bool, Option<CertKStats>) {
        let mut stats: Option<CertKStats> = None;
        for v in state.verdicts.values() {
            if let Some(s) = &v.stats {
                match &mut stats {
                    Some(acc) => acc.absorb(s),
                    None => stats = Some(*s),
                }
            }
        }
        (
            state.verdicts.values().any(|v| v.certain),
            state.verdicts.values().any(|v| v.budget_exhausted),
            stats,
        )
    }

    #[test]
    fn running_totals_equal_a_fresh_fold_after_every_step() {
        let mut db = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["p", "x"], ["z", "z"]]);
        let mut state = QueryDeltaState::new(CqaEngine::new(examples::q3()), &db).unwrap();
        let script = [
            (vec![f2("c", "d"), f2("m", "n")], vec![]),
            (vec![f2("a", "z")], vec![f2("z", "z")]),
            (vec![], vec![f2("a", "b"), f2("m", "n")]),
            (vec![f2("x", "p"), f2("q", "r")], vec![f2("p", "x")]),
            (vec![f2("z", "z"), f2("n", "m")], vec![f2("c", "d")]),
        ];
        for (i, (ins, ret)) in script.iter().enumerate() {
            let report = db.apply_delta(ins, ret).unwrap();
            state.apply(&db, &report);
            let answer = state.answer();
            let (certain, exhausted, stats) = fold_verdicts(&state);
            assert_eq!(answer.certain, certain, "step {i}: certain");
            assert_eq!(answer.budget_exhausted, exhausted, "step {i}: budget");
            assert_eq!(answer.certk_stats, stats, "step {i}: stats");
            assert_eq!(answer.components, Some(state.verdicts.len()), "step {i}");
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
        let mut state = QueryDeltaState::new(engine.clone(), &db).unwrap();
        let comps_before = state.components();
        assert!(comps_before >= 3);
        // Touch only the {x, y} region.
        let report = db.apply_delta(&[f2("y", "z")], &[]).unwrap();
        let step = state.apply(&db, &report);
        // Every component but the touched one kept its verdict.
        assert_eq!(step.verdicts_retained as usize, comps_before - 1);
        assert_eq!(state.answer().certain, engine.certain(&db).certain);
    }

    #[test]
    fn conp_class_is_unsupported() {
        let engine = CqaEngine::new(examples::q2());
        assert!(!QueryDeltaState::supports(&engine));
        let mut db = Database::new(Signature::new(4, 2).unwrap());
        db.insert(Fact::from_names(["a", "b", "a", "c"])).unwrap();
        assert!(QueryDeltaState::new(engine, &db).is_none());
    }

    #[test]
    fn growth_only_steps_take_the_warm_path() {
        let engine = CqaEngine::new(examples::q3());
        let mut db = db2(&[["a", "b"]]);
        let mut state = QueryDeltaState::new(engine.clone(), &db).unwrap();
        let report = db.apply_delta(&[f2("b", "c")], &[]).unwrap();
        assert!(report.growth_only());
        let step = state.apply(&db, &report);
        assert!(step.blocks_reseeded > 0, "warm restart seeds the frontier");
        assert!(state.answer().certain);

        // A retract forces the cold path: no reseeding is counted.
        let report = db.apply_delta(&[], &[f2("a", "b")]).unwrap();
        assert!(!report.growth_only());
        let step = state.apply(&db, &report);
        assert_eq!(step.blocks_reseeded, 0);
        assert_eq!(state.answer().certain, engine.certain(&db).certain);
    }
}
