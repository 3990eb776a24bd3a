//! Brute-force `certain(q)`: the exponential coNP baseline.
//!
//! `q` is *not* certain iff some repair falsifies it. Since solutions never
//! cross q-connected components, a falsifying repair exists iff **every**
//! component admits a falsifying partial repair — so the search decomposes:
//! per component, backtrack over its blocks (in BFS order along solution
//! edges, so conflicts surface close to the choices causing them), never
//! picking a fact that completes a solution with an already-picked fact.
//! Only the components of the solution *support* (the blocks holding a
//! fact of some solution) are searched: any fact of a solution-free block
//! conflicts with nothing, so such a block never forces `q`.
//! Worst-case exponential per component — the expected shape on coNP-hard
//! queries, and exactly what the dichotomy benches measure.
//!
//! Because the per-component searches are independent, they fan out over a
//! thread pool ([`certain_brute_over`]). The node budget is shared
//! across all components through one atomic counter, and as soon as one
//! component *forces* `q` (no falsifying partial exists — the whole
//! database is certain) or blows the budget, the other searches are
//! cancelled via a stop flag. Outcomes combine in component order, so
//! `threads = 1` reproduces the sequential loop exactly; see
//! [`certain_brute_over`] for the budget/thread-count contract.

use crate::{CancelToken, SolutionSet};
use cqa_model::{BlockId, Database, FactId, Repair};
use cqa_query::Query;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Outcome of the brute-force search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BruteOutcome {
    /// Every repair satisfies `q`.
    Certain,
    /// A repair falsifying `q` (witness included).
    NotCertain(Repair),
    /// The node budget was exhausted before the search finished.
    BudgetExhausted,
}

impl BruteOutcome {
    /// Collapse to a boolean; panics on budget exhaustion.
    pub fn is_certain(&self) -> bool {
        match self {
            BruteOutcome::Certain => true,
            BruteOutcome::NotCertain(_) => false,
            BruteOutcome::BudgetExhausted => panic!("brute-force budget exhausted"),
        }
    }
}

/// The per-component search plan: block orders plus a dense global-block →
/// within-component index map, so each component's search can keep its
/// `chosen` scratch at component size instead of database size (solutions
/// never cross components, so a search only ever consults its own blocks).
struct ComponentPlan {
    /// One BFS-ordered block list per support component.
    orders: Vec<Vec<BlockId>>,
    /// `local_idx[b]` = position of block `b` inside its component's order.
    local_idx: Vec<u32>,
}

/// Group the support's blocks into q-connected components and order each
/// component's blocks by BFS along solution edges (locality for the
/// backtracker), in `O(support facts)`: a BFS from each unvisited support
/// block, in ascending order, reaches exactly its component, and expands
/// each join group (`SolutionSet::groups_of`) once.
///
/// Only the support is planned: a solution-free block conflicts with
/// nothing, so any of its facts completes a falsifying repair, and it can
/// never force `q` (Proposition 10.6). Indexed by raw block id, sized to
/// [`Database::block_slots`]: on a live database retractions leave
/// emptied block slots behind, which are never in the support.
fn component_block_orders(db: &Database, solutions: &SolutionSet) -> ComponentPlan {
    let mut visited = vec![false; db.block_slots()];
    let mut expanded = vec![false; solutions.group_slots()];
    let mut local_idx = vec![0u32; db.block_slots()];
    let mut orders = Vec::new();
    let mut queue = VecDeque::new();
    for start in solutions.support_blocks(db) {
        if visited[start.idx()] {
            continue;
        }
        visited[start.idx()] = true;
        queue.push_back(start);
        let mut order: Vec<BlockId> = Vec::new();
        while let Some(b) = queue.pop_front() {
            local_idx[b.idx()] = order.len() as u32;
            order.push(b);
            for &f in db.block(b) {
                for g in solutions.groups_of(f) {
                    if std::mem::replace(&mut expanded[g], true) {
                        continue;
                    }
                    let (a_side, b_side) = solutions.group(g);
                    for &h in a_side.iter().chain(b_side) {
                        let nb = db.block_of(h);
                        if !visited[nb.idx()] {
                            visited[nb.idx()] = true;
                            queue.push_back(nb);
                        }
                    }
                }
            }
        }
        orders.push(order);
    }
    ComponentPlan { orders, local_idx }
}

/// Backtracking search for a falsifying repair, with a node budget
/// (`u64::MAX` for unbounded). Sequential and never cancelled — a frozen
/// oracle for the tests; the live entry point is [`certain_brute_over`].
pub fn certain_brute_budgeted(q: &Query, db: &Database, budget: u64) -> BruteOutcome {
    let solutions = SolutionSet::enumerate(q, db);
    certain_brute_over(db, &solutions, budget, 1, &CancelToken::new())
        .expect("a never-raised token cannot cancel the search")
}

/// How one component's search ended.
enum CompSearch {
    /// A falsifying partial repair exists; the choices for the component's
    /// blocks are attached.
    Falsified(Vec<(BlockId, FactId)>),
    /// No falsifying partial exists — the component forces `q`, so the
    /// whole database is certain.
    Forces,
    /// The shared node budget ran out mid-search.
    OutOfBudget,
    /// A sibling component triggered the stop flag (it forced `q` or blew
    /// the budget) before this search finished.
    Cancelled,
}

/// Search nodes between two token polls: one deadline check per tranche
/// keeps the clock off the per-node hot path while still bounding the
/// cancellation latency to a sliver of the search.
const TOKEN_POLL_NODES: u64 = 1024;

/// Decide `certain(q)` by backtracking search over `db`'s q-connected
/// components, given the query's enumerated `solutions` — the one live
/// entry point of the brute force.
///
/// The per-component searches fan out over `threads` worker threads (`1`
/// = the exact sequential path, no spawns). The node budget is shared:
/// the atomic step counter is global to the call, so total expended work
/// respects `budget` regardless of the thread count. Verdicts never
/// depend on the thread count **as long as the budget is not exhausted**
/// (the default `u64::MAX` in practice never is): every component is
/// searched deterministically and the outcomes combine
/// order-independently. Under an *exhausted* finite budget the answer is
/// still sound — `Certain` only with a forcing component, a witness only
/// when every component was fully falsified — but with `threads > 1` the
/// racing searches drain the shared counter in a scheduling-dependent
/// order, so *which* of `Certain`/`BudgetExhausted` comes back may vary
/// between runs. `threads = 1` reproduces the historical sequential
/// semantics exactly, including budget-exhaustion behaviour.
///
/// The search polls `token` once per component start and once per
/// `TOKEN_POLL_NODES` search nodes (a budget tranche), so a token that
/// fires mid-search stops every component within one tranche. Returns
/// `None` when the token cancelled the search before a verdict was
/// reached; a completed verdict is never discarded, even if the token
/// has expired by the time it is observed.
pub fn certain_brute_over(
    db: &Database,
    solutions: &SolutionSet,
    budget: u64,
    threads: usize,
    token: &CancelToken,
) -> Option<BruteOutcome> {
    let plan = component_block_orders(db, solutions);
    let nodes = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    let results = minipool::par_map(threads, &plan.orders, |comp| {
        if token.is_cancelled() {
            return CompSearch::Cancelled;
        }
        // Component-sized scratch indexed through plan.local_idx — a
        // search never consults blocks outside its component.
        let mut chosen: Vec<Option<FactId>> = vec![None; comp.len()];
        match search(
            db,
            solutions,
            comp,
            &plan.local_idx,
            comp.len(),
            &mut chosen,
            &nodes,
            budget,
            &stop,
            token,
        ) {
            Ok(true) => CompSearch::Falsified(
                comp.iter()
                    .map(|&b| {
                        let c = chosen[plan.local_idx[b.idx()] as usize];
                        (b, c.unwrap_or_else(|| db.block(b)[0]))
                    })
                    .collect(),
            ),
            Ok(false) => {
                // This component alone certifies q; tell the others to stop.
                stop.store(true, Ordering::Relaxed);
                CompSearch::Forces
            }
            Err(Interrupt::Budget) => {
                // Budget is global: once blown, sibling searches cannot
                // finish meaningfully either — stop them too (this is also
                // what makes threads = 1 match the historical sequential
                // early return).
                stop.store(true, Ordering::Relaxed);
                CompSearch::OutOfBudget
            }
            Err(Interrupt::Cancelled) => CompSearch::Cancelled,
        }
    });

    // Combine in component order: the first decisive event wins, which for
    // threads = 1 (in-order execution, instant cancellation of the rest)
    // reproduces the sequential loop's semantics exactly.
    let mut cancelled = false;
    for r in &results {
        match r {
            CompSearch::Forces => return Some(BruteOutcome::Certain),
            CompSearch::OutOfBudget => return Some(BruteOutcome::BudgetExhausted),
            CompSearch::Cancelled => cancelled = true,
            CompSearch::Falsified(_) => {}
        }
    }
    if cancelled {
        if token.is_cancelled() {
            // The token (not a sibling's decisive event) stopped the
            // search: no verdict.
            return None;
        }
        // Unreachable while the token is calm: a cancellation implies
        // some sibling reported the decisive event above. Kept total
        // instead of panicking.
        return Some(BruteOutcome::BudgetExhausted);
    }
    // All components falsified: assemble the full witness. Indexed by raw
    // block id (sparse after retractions), then read back over the live
    // blocks only.
    let mut chosen: Vec<Option<FactId>> = vec![None; db.block_slots()];
    for r in &results {
        if let CompSearch::Falsified(pairs) = r {
            for &(b, f) in pairs {
                chosen[b.idx()] = Some(f);
            }
        }
    }
    let witness: Vec<FactId> = db
        .block_ids()
        .map(|b| chosen[b.idx()].unwrap_or_else(|| db.block(b)[0]))
        .collect();
    let repair = Repair::try_new(db, witness).expect("search produces valid repairs");
    Some(BruteOutcome::NotCertain(repair))
}

/// Does picking fact `f` complete a solution against already-chosen facts?
/// `chosen` is component-local; `local` maps global block indices into it
/// (solution partners of `f` are always in `f`'s own component).
fn conflicts(
    db: &Database,
    solutions: &SolutionSet,
    local: &[u32],
    chosen: &[Option<FactId>],
    f: FactId,
) -> bool {
    if solutions.self_loop(f) {
        return true;
    }
    solutions
        .seconds_of(f)
        .iter()
        .chain(solutions.firsts_of(f))
        .any(|&g| chosen[local[db.block_of(g).idx()] as usize] == Some(g))
}

/// Why a search stopped before finishing.
enum Interrupt {
    /// The shared node budget ran out.
    Budget,
    /// The stop flag was raised by a sibling component.
    Cancelled,
}

/// DFS with dynamic fail-first ordering: always branch on the undecided
/// block with the fewest non-conflicting facts. Forced blocks (a single
/// viable choice) propagate immediately and empty blocks prune — the
/// backtracking analogue of unit propagation, which is what makes the
/// Section 9 gadget databases (long forced chains) tractable when a
/// falsifying repair exists.
///
/// `Ok(true)` = falsifying choice found (left in `chosen`),
/// `Ok(false)` = none exists, `Err` = out of budget or cancelled.
#[allow(clippy::too_many_arguments)]
fn search(
    db: &Database,
    solutions: &SolutionSet,
    blocks: &[BlockId],
    local: &[u32],
    undecided: usize,
    chosen: &mut Vec<Option<FactId>>,
    nodes: &AtomicU64,
    budget: u64,
    stop: &AtomicBool,
    token: &CancelToken,
) -> Result<bool, Interrupt> {
    if stop.load(Ordering::Relaxed) {
        return Err(Interrupt::Cancelled);
    }
    if undecided == 0 {
        return Ok(true);
    }
    // Pick the most constrained undecided block.
    let mut best: Option<(BlockId, Vec<FactId>)> = None;
    for &b in blocks {
        if chosen[local[b.idx()] as usize].is_some() {
            continue;
        }
        let cands: Vec<FactId> = db
            .block(b)
            .iter()
            .copied()
            .filter(|&f| !conflicts(db, solutions, local, chosen, f))
            .collect();
        match cands.len() {
            0 => return Ok(false), // dead end: some block is unfillable
            1 => {
                best = Some((b, cands));
                break; // forced choice: propagate immediately
            }
            n => {
                if best.as_ref().map_or(true, |(_, c)| n < c.len()) {
                    best = Some((b, cands));
                }
            }
        }
    }
    let (b, cands) = best.expect("undecided > 0 implies an undecided block");
    let bl = local[b.idx()] as usize;
    for f in cands {
        let spent = nodes.fetch_add(1, Ordering::Relaxed) + 1;
        if spent > budget {
            return Err(Interrupt::Budget);
        }
        // One deadline check per tranche of the shared node counter:
        // raise the stop flag so sibling searches bail at their next
        // entry poll instead of each waiting for its own tranche.
        if spent % TOKEN_POLL_NODES == 0 && token.is_cancelled() {
            stop.store(true, Ordering::Relaxed);
            return Err(Interrupt::Cancelled);
        }
        chosen[bl] = Some(f);
        match search(
            db,
            solutions,
            blocks,
            local,
            undecided - 1,
            chosen,
            nodes,
            budget,
            stop,
            token,
        ) {
            Ok(true) => return Ok(true),
            Ok(false) => {}
            Err(i) => return Err(i),
        }
        chosen[bl] = None;
    }
    Ok(false)
}

/// `D ⊨ certain(q)` by backtracking search (unbounded budget).
pub fn certain_brute(q: &Query, db: &Database) -> bool {
    certain_brute_budgeted(q, db, u64::MAX).is_certain()
}

/// `D ⊨ certain(q)` by literally enumerating every repair and evaluating
/// `q` on each — the definitional reference used to validate the
/// backtracking search in tests. Do not use beyond tiny databases.
pub fn certain_exhaustive(q: &Query, db: &Database) -> bool {
    let solutions = SolutionSet::enumerate(q, db);
    cqa_model::RepairIter::new(db).all(|r| crate::solution::satisfies(&solutions, r.facts()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::{Fact, Signature};
    use cqa_query::examples;

    /// [`certain_brute_over`] on a fresh enumeration under a calm token.
    fn brute_parallel(q: &Query, db: &Database, budget: u64, threads: usize) -> BruteOutcome {
        let solutions = SolutionSet::enumerate(q, db);
        certain_brute_over(db, &solutions, budget, threads, &CancelToken::new())
            .expect("a calm token cannot cancel the search")
    }

    fn db2(rows: &[[&str; 2]]) -> Database {
        let mut db = Database::new(Signature::new(2, 1).unwrap());
        for row in rows {
            db.insert(Fact::from_names(row.iter().copied())).unwrap();
        }
        db
    }

    #[test]
    fn certain_when_every_repair_has_solution() {
        // q3 = R(x | y) R(y | z). Single repair {ab, bc} satisfies q3.
        let d = db2(&[["a", "b"], ["b", "c"]]);
        assert!(certain_brute(&examples::q3(), &d));
        assert!(certain_exhaustive(&examples::q3(), &d));
    }

    #[test]
    fn not_certain_with_witness() {
        // Block a = {a->b, a->x}; repair {ax, bc} has no solution.
        let d = db2(&[["a", "b"], ["a", "x"], ["b", "c"]]);
        let out = certain_brute_budgeted(&examples::q3(), &d, u64::MAX);
        match out {
            BruteOutcome::NotCertain(r) => {
                let ax = d.id_of(&Fact::from_names(["a", "x"])).unwrap();
                assert!(r.contains(&d, ax));
            }
            other => panic!("expected NotCertain, got {other:?}"),
        }
        assert!(!certain_exhaustive(&examples::q3(), &d));
    }

    #[test]
    fn self_loop_forces_certainty() {
        let d = db2(&[["a", "a"]]);
        assert!(certain_brute(&examples::q3(), &d));
    }

    #[test]
    fn empty_database_is_not_certain() {
        let d = Database::new(Signature::new(2, 1).unwrap());
        assert!(!certain_brute(&examples::q3(), &d));
        assert!(!certain_exhaustive(&examples::q3(), &d));
    }

    #[test]
    fn mixed_components_decide_correctly() {
        // Component 1 certain (forced chain), component 2 falsifiable:
        // overall certain — the certain component forces q in every repair.
        let d = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["p", "x"], ["q", "r"]]);
        assert!(certain_brute(&examples::q3(), &d));
        assert!(certain_exhaustive(&examples::q3(), &d));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let d = db2(&[["a", "b"], ["a", "c"], ["b", "a"], ["b", "d"]]);
        let out = certain_brute_budgeted(&examples::q3(), &d, 1);
        assert!(matches!(
            out,
            BruteOutcome::BudgetExhausted | BruteOutcome::NotCertain(_)
        ));
    }

    #[test]
    fn sparse_databases_after_retraction_decide_correctly() {
        // Retraction tombstones a fact and can empty a block while every
        // other raw id keeps its meaning — so raw block ids are no longer
        // dense in 0..block_count(). The component planner must neither
        // treat the emptied slot as an unfillable block (which would force
        // q vacuously) nor drop live blocks whose raw id exceeds the live
        // count.
        let q = examples::q3();
        let mut d = db2(&[["a", "a"], ["p", "q"], ["p", "x"], ["q", "r"]]);
        assert!(certain_brute(&q, &d));
        // Retract the self-loop: its block empties, d goes sparse, and the
        // p/q component alone is falsifiable (repair {px, qr}).
        let rep = d.apply_delta(&[], &[Fact::from_names(["a", "a"])]).unwrap();
        assert_eq!(rep.retracted.len(), 1);
        assert!(!d.is_dense());
        let out = certain_brute_budgeted(&q, &d, u64::MAX);
        match out {
            BruteOutcome::NotCertain(r) => {
                let px = d.id_of(&Fact::from_names(["p", "x"])).unwrap();
                assert!(r.contains(&d, px));
            }
            other => panic!("expected NotCertain, got {other:?}"),
        }
        assert!(!certain_exhaustive(&q, &d));
        // Grow past the tombstone: a fresh block with a raw id beyond the
        // live count must still be searched.
        d.apply_delta(&[Fact::from_names(["b", "b"])], &[]).unwrap();
        assert!(certain_brute(&q, &d));
        assert!(certain_exhaustive(&q, &d));
    }

    #[test]
    fn witness_repair_really_falsifies() {
        let q = examples::q3();
        let d = db2(&[["a", "b"], ["a", "x"], ["b", "c"], ["z", "w"]]);
        if let BruteOutcome::NotCertain(r) = certain_brute_budgeted(&q, &d, u64::MAX) {
            let sols = SolutionSet::enumerate(&q, &d);
            assert!(!crate::solution::satisfies(&sols, r.facts()));
        } else {
            panic!("expected a falsifying repair");
        }
    }

    #[test]
    fn sequential_budget_exhaustion_order_is_preserved() {
        // Component 1 (inserted first → first in component order) needs
        // more than one node to search; component 2 forces q for free (a
        // self-loop kills its only block without consuming budget). The
        // historical sequential solver reports BudgetExhausted because it
        // never reaches component 2 — threads = 1 must preserve that.
        let q = examples::q3();
        let d = db2(&[["a", "b"], ["a", "c"], ["b", "a"], ["b", "d"], ["z", "z"]]);
        assert!(matches!(
            brute_parallel(&q, &d, 1, 1),
            BruteOutcome::BudgetExhausted
        ));
        // Unbounded, the forcing component decides it at every thread count.
        for threads in [1, 2, 4] {
            assert!(matches!(
                brute_parallel(&q, &d, u64::MAX, threads),
                BruteOutcome::Certain
            ));
        }
    }

    #[test]
    fn parallel_matches_sequential_on_multi_component_db() {
        let q = examples::q3();
        // Three components: falsifiable, falsifiable, certain-free mix.
        let falsifiable = db2(&[
            ["a", "b"],
            ["a", "x"],
            ["b", "c"],
            ["p", "q"],
            ["p", "y"],
            ["q", "r"],
            ["z", "w"],
        ]);
        for threads in [1, 2, 4] {
            match brute_parallel(&q, &falsifiable, u64::MAX, threads) {
                BruteOutcome::NotCertain(r) => {
                    let sols = SolutionSet::enumerate(&q, &falsifiable);
                    assert!(
                        !crate::solution::satisfies(&sols, r.facts()),
                        "threads={threads}: merged witness must falsify q"
                    );
                }
                other => panic!("threads={threads}: expected NotCertain, got {other:?}"),
            }
        }
        // A certain database stays certain at every thread count.
        let certain = db2(&[["a", "b"], ["b", "c"], ["p", "q"], ["p", "x"], ["q", "r"]]);
        for threads in [1, 2, 4] {
            assert!(matches!(
                brute_parallel(&q, &certain, u64::MAX, threads),
                BruteOutcome::Certain
            ));
        }
    }

    #[test]
    fn token_cancellation_withholds_the_verdict() {
        let q = examples::q3();
        let d = db2(&[["a", "b"], ["a", "x"], ["b", "c"]]);
        // A pre-raised token cancels before any component search starts.
        let raised = CancelToken::new();
        raised.cancel();
        let sols = SolutionSet::enumerate(&q, &d);
        assert!(certain_brute_over(&d, &sols, u64::MAX, 1, &raised).is_none());
        // A calm token reproduces the plain outcome at every thread count.
        for threads in [1usize, 2, 4] {
            let calm = CancelToken::new();
            let got = certain_brute_over(&d, &sols, u64::MAX, threads, &calm)
                .expect("a calm token cannot cancel the search");
            assert!(matches!(got, BruteOutcome::NotCertain(_)), "{got:?}");
        }
    }

    #[test]
    fn plan_on_a_padded_database_has_one_order_per_support_component() {
        // Two falsifiable q3 chains plus 10⁴ solution-free blocks: the
        // plan holds the two chains only, in time linear in the support.
        let q = examples::q3();
        let mut rows: Vec<[String; 2]> = [["a", "b"], ["a", "x"], ["b", "c"]]
            .into_iter()
            .chain([["p", "q"], ["p", "y"], ["q", "r"]])
            .map(|[k, v]| [k.to_string(), v.to_string()])
            .collect();
        rows.extend((0..10_000).map(|i| [format!("pad{i}"), format!("free{i}")]));
        let mut d = Database::new(Signature::new(2, 1).unwrap());
        for [k, v] in &rows {
            d.insert(Fact::from_names([k.as_str(), v.as_str()]))
                .unwrap();
        }
        let solutions = SolutionSet::enumerate(&q, &d);
        let plan = component_block_orders(&d, &solutions);
        let support = crate::components::support_partition(&d, &solutions);
        assert_eq!(plan.orders.len(), support.len());
        assert_eq!(plan.orders.len(), 2);
        let mut planned: Vec<Vec<BlockId>> = plan.orders.clone();
        for order in &mut planned {
            order.sort_unstable();
        }
        assert_eq!(planned, support);
        // The padding still gets a fact in the witness.
        match certain_brute_budgeted(&q, &d, u64::MAX) {
            BruteOutcome::NotCertain(r) => assert_eq!(r.len(), d.block_count()),
            other => panic!("expected NotCertain, got {other:?}"),
        }
    }

    #[test]
    fn backtracking_agrees_with_exhaustive_on_grid() {
        // All 3-fact databases over {a,b}², for q3 and q5.
        let names = ["a", "b"];
        let mut all_rows = Vec::new();
        for x in names {
            for y in names {
                all_rows.push([x, y]);
            }
        }
        let q = examples::q3();
        for i in 0..all_rows.len() {
            for j in (i + 1)..all_rows.len() {
                for k in (j + 1)..all_rows.len() {
                    let d = db2(&[all_rows[i], all_rows[j], all_rows[k]]);
                    assert_eq!(
                        certain_brute(&q, &d),
                        certain_exhaustive(&q, &d),
                        "disagreement on {d:?}"
                    );
                }
            }
        }
    }
}
