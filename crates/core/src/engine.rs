//! The high-level engine: classify once, answer `certain(q)` many times
//! with the algorithm the dichotomy prescribes.
//!
//! A `Trivial` query (equivalent to one atom, Section 2) is first-order:
//! [`cqa_solvers::ForcingBlocks::scan`] scans the blocks once and no
//! solution set is built. Every other class enumerates the solutions
//! first, and a database with none is answered `false` on the spot: no
//! repair satisfies `q` without a solution.
//!
//! Every other answer is computed on the solution *support* only: the
//! blocks that hold a fact of some solution. A q-connected component
//! outside it has no repair that satisfies `q`, so it is never certain
//! (Proposition 10.6) and deciding it is wasted work. The brute force,
//! the Theorem 10.5 combination and the component route take the
//! support's components; the literal route runs the fixpoint on the
//! support as one view.
//!
//! For the PTime `Cert_k` classes the engine additionally picks an
//! *evaluation route* per database: the literal fixpoint (the small-n
//! fast path) or the per-component fan-out of
//! [`cqa_solvers::DynamicComponents::solve`] — by Proposition 10.6 the
//! database is certain iff some q-connected component is, and `Cert_k` is
//! exact per component exactly when it is exact globally, so the two
//! routes agree whenever no node budget is exhausted (see
//! [`RoutingConfig`] for the finite-budget caveat). On large fragmented
//! databases (the million-fact
//! generated workloads have tens of thousands of tiny components) the
//! component route wins: each per-component fixpoint touches a small
//! local antichain instead of one global index, and components are
//! decided in parallel when [`CertKConfig::threads`] allows. See
//! [`RoutingConfig`].

use crate::classify::{classify_with, Classification, Complexity};
use crate::delta::QueryDeltaState;
use cqa_model::{BlockId, Database};
use cqa_query::Query;
use cqa_solvers::{
    certain_brute_over, decide_component, support_partition, support_view, BruteOutcome,
    CancelToken, CertKConfig, CertKScratch, CertKStats, ComponentVerdict, ForcingBlocks,
    SolutionSet,
};
use cqa_tripath::SearchConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which algorithm actually answered a [`CqaEngine::certain`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnsweredBy {
    /// A query equivalent to one atom (Section 2), decided by one block
    /// scan: certain iff some block holds only facts `f` with `q(f f)`.
    /// No solution set is built and no fixpoint runs.
    Trivial,
    /// The greedy fixpoint `Cert_k` on the whole database.
    CertK,
    /// Per-component `Cert_k` fan-out — the large/fragmented-database
    /// route (verdict-identical to [`AnsweredBy::CertK`]).
    ComponentCertK,
    /// The Theorem 10.5 combination (per-component `Cert_k` / `¬matching`).
    Combined,
    /// Exponential search (coNP-complete queries only).
    BruteForce,
}

/// An answer with provenance.
#[derive(Clone, Debug)]
pub struct CertainAnswer {
    /// Is `q` certain for the database?
    pub certain: bool,
    /// The algorithm that produced the answer.
    pub answered_by: AnsweredBy,
    /// `true` when a budget was exhausted; for PTime classes the answer is
    /// then a sound under-approximation ("certain" is still trustworthy,
    /// "not certain" may be a false negative); for coNP-complete queries it
    /// means the search was cut off.
    pub budget_exhausted: bool,
    /// Aggregated `Cert_k` fixpoint statistics, when a fixpoint produced
    /// (part of) the answer. On the component routes the per-component
    /// counters are summed (`peak_members` takes the max) over every
    /// component; matching-decided components contribute nothing.
    pub certk_stats: Option<CertKStats>,
    /// Number of q-connected components of the solution support, the
    /// components the solver decided (component routes only). A
    /// solution-free block is in none of them.
    pub components: Option<usize>,
}

/// Evidence from a solve a [`CancelToken`] stopped mid-run. Cancellation
/// only ever *withholds* a verdict — CQA verdicts are pure functions of
/// `(db, query)`, so rerunning the solve with a calmer token reproduces
/// the answer the cancelled run would have produced.
#[derive(Clone, Debug, Default)]
pub struct CancelledSolve {
    /// Partial `Cert_k` statistics accumulated before the cancel was
    /// observed (aggregated over components on the fan-out routes; all
    /// zero when the route's partition or view was still being built).
    /// `None` when no fixpoint was running: the brute-force search, the
    /// one-atom block scan and the no-solution check keep no fixpoint
    /// counters.
    pub certk_stats: Option<CertKStats>,
}

impl CancelledSolve {
    /// A `Cert_k` route cancelled before its fixpoint began.
    fn before_fixpoint() -> CancelledSolve {
        CancelledSolve {
            certk_stats: Some(CertKStats::default()),
        }
    }
}

/// Route selection for the PTime `Cert_k` classes
/// ([`Complexity::PTimeCert2`] / [`Complexity::PTimeCertK`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Decide per database: the component route on large, fragmented
    /// inputs (see [`RoutingConfig::min_facts`] /
    /// [`RoutingConfig::min_components`]), the literal fixpoint otherwise.
    Auto,
    /// Always the literal whole-database `Cert_k` (the small-n fast path).
    Literal,
    /// Always the per-component route.
    Component,
}

/// When should a PTime `Cert_k` query take the per-component route?
///
/// The two routes provably agree whenever no node budget is exhausted
/// (Proposition 10.6 + per-component exactness of `Cert_k`), so with the
/// effectively-unbounded default budget this is purely a performance
/// decision. Under a *finite* [`CertKConfig::node_budget`] each component
/// gets the full budget — the same convention `certain_combined` has
/// always used — so the component route can decide instances the literal
/// fixpoint exhausts on; both stay sound ("certain" is always
/// trustworthy) and exhaustion is reported via
/// [`CertainAnswer::budget_exhausted`]. Pin [`RoutePolicy::Literal`] or
/// [`RoutePolicy::Component`] when budget-exhaustion behaviour must not
/// depend on database shape.
/// `Trivial` queries never consult it: one block scan answers them, with
/// no solution set and no partition. Theorem 10.5
/// ([`Complexity::PTimeCombined`]) queries always use the component-based
/// combined solver regardless of this configuration, and coNP-complete
/// queries are unaffected. Nor does it matter for a database on which
/// the query has no solution: that is answered `false` before any
/// partition.
#[derive(Clone, Copy, Debug)]
pub struct RoutingConfig {
    /// How to choose between the literal and component routes.
    pub policy: RoutePolicy,
    /// `Auto`: consider the component route only at or above this many
    /// facts (below it the partition bookkeeping outweighs the win).
    pub min_facts: usize,
    /// `Auto`: take the component route only when the solution support
    /// splits into at least this many q-connected components (an
    /// unfragmented support gains nothing from the detour; solution-free
    /// blocks are not counted, since neither route decides them).
    pub min_components: usize,
}

impl Default for RoutingConfig {
    fn default() -> RoutingConfig {
        RoutingConfig {
            policy: RoutePolicy::Auto,
            min_facts: 50_000,
            min_components: 4,
        }
    }
}

/// Tuning knobs for [`CqaEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Tripath search limits used at classification time.
    pub search: SearchConfig,
    /// `Cert_k` configuration for the PTime algorithms. Its `threads`
    /// field caps their per-component fan-out; the brute-force solver
    /// decides its components one after another.
    pub certk: CertKConfig,
    /// Node budget for the brute-force solver on coNP-complete queries.
    pub brute_budget: u64,
    /// Literal-vs-component route selection for `Cert_k`-class queries.
    pub routing: RoutingConfig,
}

impl EngineConfig {
    /// This configuration with an explicit solver thread count (`1` =
    /// fully sequential; the default is the host's available parallelism).
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.certk = self.certk.with_threads(threads);
        self
    }

    /// This configuration with an explicit [`RoutePolicy`] (default
    /// thresholds).
    pub fn with_route(mut self, policy: RoutePolicy) -> EngineConfig {
        self.routing = RoutingConfig {
            policy,
            ..self.routing
        };
        self
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            search: SearchConfig::default(),
            certk: CertKConfig::new(2),
            brute_budget: u64::MAX,
            routing: RoutingConfig::default(),
        }
    }
}

/// Classify-once, solve-many engine for one query.
///
/// ```
/// use cqa::{CqaEngine, Complexity};
/// use cqa_model::{Database, Fact, Signature};
///
/// let q = cqa_query::examples::q3();
/// let engine = CqaEngine::new(q);
/// assert_eq!(engine.classification().complexity, Complexity::PTimeCert2);
///
/// let mut db = Database::new(Signature::new(2, 1).unwrap());
/// db.insert(Fact::from_names(["a", "b"])).unwrap();
/// db.insert(Fact::from_names(["b", "c"])).unwrap();
/// assert!(engine.certain(&db).certain);
/// ```
#[derive(Clone, Debug)]
pub struct CqaEngine {
    query: Query,
    classification: Classification,
    config: EngineConfig,
}

impl CqaEngine {
    /// Build an engine with default budgets (classifies immediately).
    pub fn new(query: Query) -> CqaEngine {
        CqaEngine::with_config(query, EngineConfig::default())
    }

    /// Build an engine with explicit budgets.
    pub fn with_config(query: Query, config: EngineConfig) -> CqaEngine {
        let classification = classify_with(&query, &config.search);
        CqaEngine {
            query,
            classification,
            config,
        }
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The engine's configuration.
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The dichotomy classification (computed at construction).
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// Does the Theorem 10.5 matching shortcut apply? Only for
    /// [`Complexity::PTimeCombined`]: on the `Cert_k` classes the fixpoint
    /// alone is exact.
    pub(crate) fn matching(&self) -> bool {
        self.classification.complexity == Complexity::PTimeCombined
    }

    /// The routing decision for `db`: the support's partition
    /// ([`cqa_solvers::support_partition`]) for the component route, `None` for the
    /// literal fixpoint on the support as one view. Theorem 10.5 always
    /// takes the components; under [`RoutePolicy::Auto`], small databases
    /// and supports of few components stay literal, and a support `Auto`
    /// partitions to count its components hands that partition on to
    /// [`cqa_solvers::DynamicComponents::solve`]. The partition polls
    /// `token`; `Err` once it fired.
    fn route_components(
        &self,
        db: &Database,
        solutions: &SolutionSet,
        token: &CancelToken,
    ) -> Result<Option<Vec<Vec<BlockId>>>, CancelledSolve> {
        let routing = &self.config.routing;
        let min_components = match routing.policy {
            _ if self.matching() => 0,
            RoutePolicy::Literal => return Ok(None),
            RoutePolicy::Component => 0,
            RoutePolicy::Auto if db.len() >= routing.min_facts => routing.min_components,
            RoutePolicy::Auto => return Ok(None),
        };
        let groups =
            support_partition(db, solutions, token).ok_or_else(CancelledSolve::before_fixpoint)?;
        Ok(Some(groups).filter(|groups| groups.len() >= min_components))
    }

    /// Decide `db ⊨ certain(q)` with the algorithm the classification
    /// prescribes: [`CqaEngine::certain_cancellable`] with a token that
    /// never fires.
    pub fn certain(&self, db: &Database) -> CertainAnswer {
        self.certain_cancellable(db, &CancelToken::new())
            .expect("a never-raised token cannot cancel the solve")
    }

    /// Decide `db ⊨ certain(q)` under a [`CancelToken`]: the solver polls
    /// the token at bounded intervals (once per seeded fact, worklist
    /// block derivation, or brute-force budget tranche), so a token
    /// raised — or a deadline expiring — *mid-fixpoint* stops the solve
    /// within roughly one block's worth of work. `Err` carries the
    /// partial statistics accumulated before the cancel; a solve that
    /// completed before observing the cancel keeps its answer.
    pub fn certain_cancellable(
        &self,
        db: &Database,
        token: &CancelToken,
    ) -> Result<CertainAnswer, CancelledSolve> {
        self.solve(
            db,
            || Arc::new(SolutionSet::enumerate(&self.query, db)),
            token,
        )
        .map(|(answer, _)| answer)
    }

    /// The one dispatch: [`CqaEngine::certain_cancellable`] with the
    /// solution set supplied on demand by the caller (a
    /// [`SharedSession`](crate::SharedSession) keeps it across cancelled
    /// retries; a [`Complexity::Trivial`] query never asks for it), and
    /// with the live state the solve leaves: the block scan's flags, or
    /// the component store of a component solve, which owns the solution
    /// set (an empty store without solutions). The literal route and the
    /// brute force leave none.
    pub(crate) fn solve(
        &self,
        db: &Database,
        solutions: impl FnOnce() -> Arc<SolutionSet>,
        token: &CancelToken,
    ) -> Result<(CertainAnswer, Option<QueryDeltaState>), CancelledSolve> {
        let complexity = self.classification.complexity;
        let answer = |certain, answered_by| CertainAnswer {
            certain,
            answered_by,
            budget_exhausted: false,
            certk_stats: None,
            components: None,
        };
        let cancelled = |partial| CancelledSolve {
            certk_stats: Some(partial),
        };
        if complexity == Complexity::Trivial {
            let blocks =
                ForcingBlocks::scan(&self.query, db, token).ok_or_else(CancelledSolve::default)?;
            let state = QueryDeltaState::Blocks(blocks);
            return Ok((state.answer(self), Some(state)));
        }
        let solutions = solutions();
        if solutions.is_empty() {
            // No solution, so no repair satisfies q: `Cert_k` has no seed
            // (§5) and no q-connected component holds one (Prop 10.6).
            // The token still rules: a raised one never yields a verdict.
            if token.is_cancelled() {
                return Err(CancelledSolve::default());
            }
            let answered_by = match complexity {
                Complexity::PTimeCombined => AnsweredBy::Combined,
                Complexity::CoNpComplete => AnsweredBy::BruteForce,
                _ => AnsweredBy::CertK,
            };
            let state = (complexity != Complexity::CoNpComplete).then(|| {
                QueryDeltaState::components(self, db, solutions, Vec::new(), token)
                    .expect("an empty support has no component to cancel")
            });
            return Ok((answer(false, answered_by), state));
        }
        if complexity == Complexity::CoNpComplete {
            let outcome = certain_brute_over(db, &solutions, self.config.brute_budget, token)
                .ok_or_else(CancelledSolve::default)?;
            let answer = CertainAnswer {
                budget_exhausted: matches!(outcome, BruteOutcome::BudgetExhausted),
                ..answer(
                    matches!(outcome, BruteOutcome::Certain),
                    AnsweredBy::BruteForce,
                )
            };
            return Ok((answer, None));
        }
        if let Some(partition) = self.route_components(db, &solutions, token)? {
            let state = QueryDeltaState::components(self, db, solutions, partition, token)
                .map_err(cancelled)?;
            return Ok((state.answer(self), Some(state)));
        }
        let support =
            support_view(db, &solutions, token).ok_or_else(CancelledSolve::before_fixpoint)?;
        let verdict = decide_component(
            &support,
            &solutions,
            self.config.certk,
            token,
            false,
            &mut CertKScratch::default(),
        )
        .map_err(cancelled)?;
        Ok((
            VerdictTotals::of([&verdict]).answer(AnsweredBy::CertK),
            None,
        ))
    }
}

/// Running aggregates over component verdicts: the one fold that builds
/// the [`CertainAnswer`] of every component solve, a cold one's or a live
/// state's after a delta, which removes the verdicts
/// [`DynamicComponents::apply`](cqa_solvers::DynamicComponents::apply)
/// dropped and adds the ones it created, and so answers in O(1) rather
/// than refolding every component.
#[derive(Clone, Debug, Default)]
pub(crate) struct VerdictTotals {
    verdicts: usize,
    certain: usize,
    budget_exhausted: usize,
    /// Field sums of the verdicts' `CertKStats`; `peak_members` stays 0.
    sums: CertKStats,
    /// Multiset of their `peak_members` (value → count), for the max;
    /// empty iff no verdict carries stats.
    peaks: BTreeMap<usize, usize>,
}

impl VerdictTotals {
    pub(crate) fn of<'a>(
        verdicts: impl IntoIterator<Item = &'a ComponentVerdict>,
    ) -> VerdictTotals {
        let mut totals = VerdictTotals::default();
        verdicts.into_iter().for_each(|v| totals.add(v));
        totals
    }

    pub(crate) fn add(&mut self, v: &ComponentVerdict) {
        self.verdicts += 1;
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

    pub(crate) fn remove(&mut self, v: &ComponentVerdict) {
        self.verdicts -= 1;
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

    /// The answer: certain iff some component is (Proposition 10.6),
    /// with the stats `CertKStats::absorb` folded over every verdict
    /// would give (`None` when no verdict carries any) and the number of
    /// verdicts, except on the literal [`AnsweredBy::CertK`] route, whose
    /// one view is the whole support rather than a component.
    pub(crate) fn answer(&self, answered_by: AnsweredBy) -> CertainAnswer {
        CertainAnswer {
            certain: self.certain > 0,
            answered_by,
            budget_exhausted: self.budget_exhausted > 0,
            certk_stats: self
                .peaks
                .last_key_value()
                .map(|(&peak_members, _)| CertKStats {
                    peak_members,
                    ..self.sums
                }),
            components: (answered_by != AnsweredBy::CertK).then_some(self.verdicts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;
    use cqa_solvers::certain_brute;

    fn db2(rows: &[[&str; 2]]) -> Database {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn engine_routes_q3_to_certk() {
        let engine = CqaEngine::new(examples::q3());
        let ans = engine.certain(&db2(&[["a", "b"], ["b", "c"]]));
        assert!(ans.certain);
        assert_eq!(ans.answered_by, AnsweredBy::CertK);
        assert!(ans.certk_stats.is_some());
        assert_eq!(ans.components, None);
    }

    #[test]
    fn engine_routes_q6_to_combined() {
        let engine = CqaEngine::new(examples::q6());
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        for f in [["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]] {
            db.insert(Fact::from_names(f)).unwrap();
        }
        let ans = engine.certain(&db);
        assert!(ans.certain);
        assert_eq!(ans.answered_by, AnsweredBy::Combined);
        assert_eq!(ans.components, Some(1));
    }

    #[test]
    fn engine_routes_q2_to_brute_force() {
        let engine = CqaEngine::new(examples::q2());
        let mut db = Database::new(Signature::new(4, 2).unwrap());
        db.insert(Fact::from_names(["a", "b", "a", "c"])).unwrap();
        db.insert(Fact::from_names(["b", "c", "a", "d"])).unwrap();
        let ans = engine.certain(&db);
        assert_eq!(ans.answered_by, AnsweredBy::BruteForce);
        assert_eq!(ans.certain, certain_brute(engine.query(), &db));
    }

    #[test]
    fn engine_agrees_with_brute_on_small_q3_instances() {
        let engine = CqaEngine::new(examples::q3());
        let cases = [
            db2(&[["a", "b"], ["b", "c"]]),
            db2(&[["a", "b"], ["a", "x"], ["b", "c"]]),
            db2(&[["a", "a"]]),
            db2(&[["a", "b"]]),
        ];
        for db in &cases {
            assert_eq!(
                engine.certain(db).certain,
                certain_brute(engine.query(), db)
            );
        }
    }

    /// A small multi-component q3 database: one certain chain, one
    /// falsifiable contested chain, one isolated self-loop.
    fn multi_component_db() -> Database {
        db2(&[
            ["a", "b"],
            ["b", "c"],
            ["p", "q"],
            ["p", "x"],
            ["q", "r"],
            ["z", "z"],
        ])
    }

    #[test]
    fn forced_component_route_agrees_with_literal() {
        let db = multi_component_db();
        let literal = CqaEngine::with_config(
            examples::q3(),
            EngineConfig::default().with_route(RoutePolicy::Literal),
        );
        let component = CqaEngine::with_config(
            examples::q3(),
            EngineConfig::default().with_route(RoutePolicy::Component),
        );
        let la = literal.certain(&db);
        let ca = component.certain(&db);
        assert_eq!(la.answered_by, AnsweredBy::CertK);
        assert_eq!(ca.answered_by, AnsweredBy::ComponentCertK);
        assert_eq!(la.certain, ca.certain);
        assert_eq!(ca.components, Some(3));
        assert!(ca.certk_stats.is_some());
        assert_eq!(la.certain, certain_brute(literal.query(), &db));
    }

    #[test]
    fn auto_route_takes_component_path_on_fragmented_databases() {
        // Lower the thresholds so the small test instance counts as
        // "large and fragmented".
        let mut config = EngineConfig::default();
        config.routing.min_facts = 4;
        config.routing.min_components = 2;
        let engine = CqaEngine::with_config(examples::q3(), config);
        let ans = engine.certain(&multi_component_db());
        assert_eq!(ans.answered_by, AnsweredBy::ComponentCertK);
        assert!(ans.certain);

        // Below the fact threshold the literal path answers.
        let small = engine.certain(&db2(&[["a", "b"], ["b", "c"]]));
        assert_eq!(small.answered_by, AnsweredBy::CertK);

        // Above the fact threshold but unfragmented: literal too.
        let mut config = EngineConfig::default();
        config.routing.min_facts = 2;
        config.routing.min_components = 2;
        let engine = CqaEngine::with_config(examples::q3(), config);
        let chain = engine.certain(&db2(&[["a", "b"], ["b", "c"], ["c", "d"]]));
        assert_eq!(chain.answered_by, AnsweredBy::CertK);
    }

    #[test]
    fn cancellable_engine_matches_certain_on_every_route() {
        // One query per dispatch arm: q3 (Cert_k literal + component),
        // q6 (combined), q2 (brute force).
        let calm = CancelToken::new();
        let raised = CancelToken::new();
        raised.cancel();

        let q3 = CqaEngine::new(examples::q3());
        let db = multi_component_db();
        let want = q3.certain(&db);
        let got = q3
            .certain_cancellable(&db, &calm)
            .expect("a calm token cannot cancel");
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
        let cancelled = q3.certain_cancellable(&db, &raised).unwrap_err();
        assert!(cancelled.certk_stats.is_some(), "fixpoint evidence");

        // Forced component route.
        let routed = CqaEngine::with_config(
            examples::q3(),
            EngineConfig::default().with_route(RoutePolicy::Component),
        );
        let want = routed.certain(&db);
        let got = routed.certain_cancellable(&db, &calm).unwrap();
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
        assert_eq!(got.answered_by, AnsweredBy::ComponentCertK);
        assert!(routed.certain_cancellable(&db, &raised).is_err());

        let q6 = CqaEngine::new(examples::q6());
        let mut db6 = Database::new(Signature::new(3, 1).unwrap());
        for f in [["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]] {
            db6.insert(Fact::from_names(f)).unwrap();
        }
        let want = q6.certain(&db6);
        let got = q6.certain_cancellable(&db6, &calm).unwrap();
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
        assert!(q6.certain_cancellable(&db6, &raised).is_err());

        let q2 = CqaEngine::new(examples::q2());
        let mut db4 = Database::new(Signature::new(4, 2).unwrap());
        db4.insert(Fact::from_names(["a", "b", "a", "c"])).unwrap();
        db4.insert(Fact::from_names(["b", "c", "a", "d"])).unwrap();
        let want = q2.certain(&db4);
        let got = q2.certain_cancellable(&db4, &calm).unwrap();
        assert_eq!(want.certain, got.certain);
        assert_eq!(got.answered_by, AnsweredBy::BruteForce);
        let cancelled = q2.certain_cancellable(&db4, &raised).unwrap_err();
        assert!(cancelled.certk_stats.is_none(), "brute keeps no counters");
    }

    #[test]
    fn auto_route_never_moves_trivial_queries() {
        // R(x | y) R(x | z) is equivalent to one atom: one block scan
        // answers under every route policy, with no partition.
        let q = cqa_query::parse_query("R(x | y) R(x | z)").unwrap();
        let mut config = EngineConfig::default();
        config.routing.min_facts = 1;
        config.routing.min_components = 1;
        for config in [config, config.with_route(RoutePolicy::Component)] {
            let engine = CqaEngine::with_config(q.clone(), config);
            assert_eq!(engine.classification().complexity, Complexity::Trivial);
            let ans = engine.certain(&db2(&[["a", "b"], ["c", "d"]]));
            assert!(ans.certain);
            assert_eq!(ans.answered_by, AnsweredBy::Trivial);
            assert_eq!(ans.components, None);
            assert!(ans.certk_stats.is_none(), "no fixpoint ran");
        }
    }

    #[test]
    fn a_database_without_solutions_is_answered_before_any_partition() {
        // R(y | x) R(x | y) has no solution on a q3-shaped chain: no
        // repair satisfies it, whatever the route.
        let q = cqa_query::parse_query("R(y | x) R(x | y)").unwrap();
        let db = db2(&[["a", "b"], ["b", "c"], ["c", "d"]]);
        assert!(SolutionSet::enumerate(&q, &db).is_empty());
        for policy in [
            RoutePolicy::Auto,
            RoutePolicy::Literal,
            RoutePolicy::Component,
        ] {
            let engine =
                CqaEngine::with_config(q.clone(), EngineConfig::default().with_route(policy));
            let ans = engine.certain(&db);
            assert!(!ans.certain);
            assert_eq!(ans.components, None, "{policy:?}");
            assert_eq!(ans.certain, certain_brute(&q, &db));
            let raised = CancelToken::new();
            raised.cancel();
            assert!(engine.certain_cancellable(&db, &raised).is_err());
        }
    }
}
