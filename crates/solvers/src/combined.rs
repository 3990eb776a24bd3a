//! The combined polynomial-time solver of Theorem 10.5.
//!
//! For a 2way-determined query with no fork-tripath,
//! `certain(q) = Cert_k(q) ∨ ¬matching(q)`. The practical evaluator
//! implemented here additionally exploits the component partition of
//! Proposition 10.6: it splits the solution support of `D` into
//! q-connected components (a solution-free component is never certain)
//! and decides each with the cheaper applicable algorithm
//! ([`decide_component`]) — `¬matching` on clique-database components
//! (exact there by Proposition 10.3), `Cert_k` on the rest (exact there
//! when the query has no fork-tripath, since such components contain no
//! tripath at all).
//!
//! Components are mutually independent (solutions never cross them), so
//! [`DynamicComponents::solve`] decides them on a thread pool when
//! [`CertKConfig::threads`] is above 1. Each component sees the same
//! configuration regardless of the thread count, and verdicts are emitted
//! in component order, so the result is identical across thread counts.

use crate::certk::{CertKConfig, CertKOutcome, CertKScratch, CertKStats};
use crate::components::{support_partition, DynamicComponents};
use crate::matching::analyze_view;
use crate::{CancelToken, SolutionSet};
use cqa_model::{Database, DbView};
use cqa_query::Query;

/// How a component (or the whole database) was decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecidedBy {
    /// `¬matching(q)` on a clique-database component.
    Matching,
    /// The greedy fixpoint `Cert_k(q)`.
    CertK,
}

/// Per-component trace of [`certain_combined`].
#[derive(Clone, Debug)]
pub struct ComponentVerdict {
    /// Facts in the component.
    pub size: usize,
    /// Which algorithm decided it.
    pub decided_by: DecidedBy,
    /// Was the component certain?
    pub certain: bool,
    /// Did `Cert_k` hit its budget (conservatively treated as "no")?
    pub budget_exhausted: bool,
    /// Fixpoint statistics, when the component ran `Cert_k` (matching-
    /// decided components have none).
    pub stats: Option<CertKStats>,
}

/// Result of the combined solver.
#[derive(Clone, Debug)]
pub struct CombinedResult {
    /// `D ⊨ certain(q)`.
    pub certain: bool,
    /// Per-component evidence: one verdict per component of the solution
    /// support, in component order.
    pub components: Vec<ComponentVerdict>,
}

/// Decide `certain(q)` via the Theorem 10.5 / Proposition 10.6 combination
/// over the components of the solution support: [`DynamicComponents::solve`]
/// with the matching shortcut. Complete for 2way-determined queries
/// without fork-tripaths; sound (an under-approximation) for every
/// 2way-determined query.
pub fn certain_combined(q: &Query, db: &Database, cfg: CertKConfig) -> CombinedResult {
    let solutions = SolutionSet::enumerate(q, db);
    let calm = CancelToken::new();
    let partition = support_partition(db, &solutions, &calm)
        .expect("a never-raised token cannot cancel the partition");
    let comps = DynamicComponents::solve(db, &solutions, partition, cfg, &calm, true)
        .expect("a never-raised token cannot cancel the fan-out");
    result_of(&comps)
}

/// The store's verdicts in component order, and their disjunction.
fn result_of(comps: &DynamicComponents) -> CombinedResult {
    let components: Vec<ComponentVerdict> = comps.verdicts().cloned().collect();
    CombinedResult {
        certain: components.iter().any(|v| v.certain),
        components,
    }
}

/// Decide one q-connected component: by `¬matching` when `matching` is
/// set and the component is a clique-database (exact there by
/// Proposition 10.3; one cheap analysis, so the token is only checked at
/// component start), by `Cert_k` otherwise, polling `token` once per
/// block derivation, in `scratch`. `Err` carries the partial fixpoint
/// statistics when the token cancelled it (zeroes when it never started).
///
/// The component is a copy-free view of the parent database, and
/// `solutions` restricted to its facts is exactly its solution set, so
/// nothing is re-enumerated or restrict-copied per component. This is
/// the one place a component is decided: [`DynamicComponents`] maps it
/// over every component it fills, cold or after a delta, and the
/// engine's literal route calls it once on the whole support.
pub fn decide_component(
    comp: &DbView<'_>,
    solutions: &SolutionSet,
    cfg: CertKConfig,
    token: &CancelToken,
    matching: bool,
    scratch: &mut CertKScratch,
) -> Result<ComponentVerdict, CertKStats> {
    if token.is_cancelled() {
        return Err(CertKStats::default());
    }
    if matching {
        let analysis = analyze_view(comp, solutions);
        if analysis.is_clique_database {
            return Ok(ComponentVerdict {
                size: comp.len(),
                decided_by: DecidedBy::Matching,
                certain: !analysis.accepts,
                budget_exhausted: false,
                stats: None,
            });
        }
    }
    let (out, stats) = scratch.certk_view(comp, solutions, cfg, token)?;
    Ok(ComponentVerdict {
        size: comp.len(),
        decided_by: DecidedBy::CertK,
        certain: out.is_certain(),
        budget_exhausted: out == CertKOutcome::BudgetExhausted,
        stats: Some(stats),
    })
}

/// The literal statement of Theorem 10.5 — `Cert_k(q) ∨ ¬matching(q)` on
/// the whole database, without the component optimisation. Kept for
/// cross-validation against [`certain_combined`].
pub fn certain_thm105_literal(q: &Query, db: &Database, cfg: CertKConfig) -> bool {
    let solutions = SolutionSet::enumerate(q, db);
    let view = db.full_view();
    let (out, _) = CertKScratch::default()
        .certk_view(&view, &solutions, cfg, &CancelToken::new())
        .expect("a never-raised token cannot interrupt the fixpoint");
    out.is_certain() || !analyze_view(&view, &solutions).accepts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::certain_brute;
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;

    /// [`DynamicComponents::solve`] with `matching`, as a result.
    fn solve(
        db: &Database,
        solutions: &SolutionSet,
        cfg: CertKConfig,
        token: &CancelToken,
        matching: bool,
    ) -> Result<CombinedResult, CertKStats> {
        let partition = support_partition(db, solutions, &CancelToken::new())
            .expect("a calm token cannot cancel the partition");
        DynamicComponents::solve(db, solutions, partition, cfg, token, matching)
            .map(|c| result_of(&c))
    }

    /// Per-component `Cert_k` without the matching shortcut, under a calm
    /// token.
    fn by_components(db: &Database, solutions: &SolutionSet, cfg: CertKConfig) -> CombinedResult {
        solve(db, solutions, cfg, &CancelToken::new(), false)
            .expect("a calm token cannot cancel the fan-out")
    }

    fn q6_db(rows: &[[&str; 3]]) -> Database {
        let mut db = Database::new(Signature::new(3, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn triangle_decided_by_matching() {
        let db = q6_db(&[["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]]);
        let res = certain_combined(&examples::q6(), &db, CertKConfig::new(2));
        assert!(res.certain);
        assert_eq!(res.components.len(), 1);
        assert_eq!(res.components[0].decided_by, DecidedBy::Matching);
        assert!(certain_brute(&examples::q6(), &db));
    }

    #[test]
    fn literal_and_component_variants_agree() {
        let q = examples::q6();
        let dbs = [
            q6_db(&[["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]]),
            q6_db(&[["a", "b", "c"], ["d", "e", "f"]]),
            q6_db(&[
                ["a", "b", "c"],
                ["a", "x", "y"],
                ["c", "a", "b"],
                ["b", "c", "a"],
            ]),
        ];
        for db in &dbs {
            let combined = certain_combined(&q, db, CertKConfig::new(2)).certain;
            let literal = certain_thm105_literal(&q, db, CertKConfig::new(2));
            let brute = certain_brute(&q, db);
            assert_eq!(combined, brute, "component variant wrong on {db:?}");
            assert_eq!(literal, brute, "literal variant wrong on {db:?}");
        }
    }

    #[test]
    fn mixed_components() {
        // One certain triangle component + one solution-free block, which
        // is in no component the solver decides.
        let db = q6_db(&[
            ["a", "b", "c"],
            ["c", "a", "b"],
            ["b", "c", "a"],
            ["p", "q", "r"],
            ["p", "s", "t"],
        ]);
        let res = certain_combined(&examples::q6(), &db, CertKConfig::new(2));
        assert!(res.certain);
        assert_eq!(res.components.len(), 1);
        assert!(certain_brute(&examples::q6(), &db));
    }

    #[test]
    fn certk_by_components_matches_whole_database_certk() {
        // The routing path: per-component Cert_2 must agree with the
        // literal whole-database fixpoint on q3 instances (Prop 10.6 +
        // Theorem 6.1), and with brute force.
        let q3 = examples::q3();
        let mut db = cqa_model::Database::new(Signature::new(2, 1).unwrap());
        for row in [
            // certain chain component
            ["a", "b"],
            ["b", "c"],
            // falsifiable component (contested block with an escape)
            ["p", "q"],
            ["p", "x"],
            ["q", "r"],
            // isolated certain self-loop
            ["z", "z"],
        ] {
            db.insert(Fact::from_names(row)).unwrap();
        }
        let cfg = CertKConfig::new(2);
        let solutions = crate::SolutionSet::enumerate(&q3, &db);
        let comps = crate::components::q_connected_components_with_solutions(&q3, &db, &solutions);
        let routed = by_components(&db, &solutions, cfg);
        let literal = crate::certk::certk(&q3, &db, cfg);
        assert_eq!(routed.certain, literal.is_certain());
        assert_eq!(routed.certain, certain_brute(&q3, &db));
        assert_eq!(routed.components.len(), comps.len());
        assert!(routed
            .components
            .iter()
            .all(|v| v.decided_by == DecidedBy::CertK && v.stats.is_some()));
    }

    #[test]
    fn cancellable_fan_out_matches_the_deterministic_path() {
        let q3 = examples::q3();
        let mut db = cqa_model::Database::new(Signature::new(2, 1).unwrap());
        for row in [
            ["a", "b"],
            ["b", "c"],
            ["p", "q"],
            ["p", "x"],
            ["q", "r"],
            ["z", "z"],
        ] {
            db.insert(Fact::from_names(row)).unwrap();
        }
        let solutions = crate::SolutionSet::enumerate(&q3, &db);
        let base = CertKConfig::new(2);
        // A calm token reproduces the deterministic fan-out exactly, at
        // every thread count.
        let calm = CancelToken::new();
        for threads in [1usize, 2, 4] {
            let cfg = base.with_threads(threads);
            let got = solve(&db, &solutions, cfg, &calm, false)
                .expect("a calm token cannot cancel the fan-out");
            let want = by_components(&db, &solutions, cfg);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        // A raised token cancels without emitting any verdict.
        let raised = CancelToken::new();
        raised.cancel();
        let partial = solve(&db, &solutions, base.with_threads(1), &raised, false)
            .expect_err("a raised token must cancel the fan-out");
        assert_eq!(
            partial.blocks_derived, 0,
            "no component started: {partial:?}"
        );
    }

    #[test]
    fn cancellable_combined_matches_the_deterministic_path() {
        // Mixed database: a matching-decided triangle plus a fixpoint-
        // decided falsifiable component.
        let q6 = examples::q6();
        let db = q6_db(&[
            ["a", "b", "c"],
            ["c", "a", "b"],
            ["b", "c", "a"],
            ["p", "q", "r"],
            ["p", "s", "t"],
        ]);
        let solutions = crate::SolutionSet::enumerate(&q6, &db);
        let base = CertKConfig::new(2);
        let calm = CancelToken::new();
        for threads in [1usize, 2, 4] {
            let cfg = base.with_threads(threads);
            let got = solve(&db, &solutions, cfg, &calm, true)
                .expect("a calm token cannot cancel the combined solver");
            let want = certain_combined(&q6, &db, cfg);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        let raised = CancelToken::new();
        raised.cancel();
        let partial = solve(&db, &solutions, base.with_threads(1), &raised, true)
            .expect_err("a raised token must cancel the combined solver");
        assert_eq!(partial.blocks_derived, 0, "no component ran: {partial:?}");
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let db = q6_db(&[
            ["a", "b", "c"],
            ["c", "a", "b"],
            ["b", "c", "a"],
            ["p", "q", "r"],
            ["p", "s", "t"],
            ["u", "v", "w"],
        ]);
        let cfg = CertKConfig::new(2);
        let outs: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                format!(
                    "{:?}",
                    certain_combined(&examples::q6(), &db, cfg.with_threads(t))
                )
            })
            .collect();
        for o in &outs[1..] {
            assert_eq!(&outs[0], o, "verdict drifted with thread count");
        }
    }
}
