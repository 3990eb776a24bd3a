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
//! [`certain_brute_over`] decides the components one after another on the
//! caller's thread, under one node budget for the whole call, and stops at
//! the first component that *forces* `q` (no falsifying partial exists —
//! the whole database is certain). The backtracking keeps its decisions on
//! an explicit stack, so a long forced chain costs heap, not call stack.

use crate::{CancelToken, SolutionSet};
use cqa_model::{BlockId, Database, FactId, Repair};
use cqa_query::Query;
use std::collections::VecDeque;
use std::ops::ControlFlow;

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
fn component_block_orders(db: &Database, solutions: &SolutionSet) -> Vec<Vec<BlockId>> {
    let mut visited = vec![false; db.block_slots()];
    let mut expanded = vec![false; solutions.group_slots()];
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
    orders
}

/// Backtracking search for a falsifying repair, with a node budget
/// (`u64::MAX` for unbounded). Never cancelled — a frozen oracle for the
/// tests; the live entry point is [`certain_brute_over`].
pub fn certain_brute_budgeted(q: &Query, db: &Database, budget: u64) -> BruteOutcome {
    let solutions = SolutionSet::enumerate(q, db);
    certain_brute_over(db, &solutions, budget, &CancelToken::new())
        .expect("a never-raised token cannot cancel the search")
}

/// Search nodes between two token polls: one deadline check per tranche
/// keeps the clock off the per-node hot path while still bounding the
/// cancellation latency to a sliver of the search.
const TOKEN_POLL_NODES: u64 = 1024;

/// Decide `certain(q)` by backtracking search over `db`'s q-connected
/// components, given the query's enumerated `solutions` — the one live
/// entry point of the brute force.
///
/// The support's components are decided in order on the caller's
/// thread: the first one that forces `q` answers `Certain`, and a witness
/// is assembled once every component is falsified. One node budget
/// covers the whole call; running out of it answers `BudgetExhausted`.
///
/// The search polls `token` at each component start and once per
/// `TOKEN_POLL_NODES` search nodes (a budget tranche). Returns `None`
/// when the token cancelled the search before a verdict was reached; a
/// completed verdict is never discarded, even if the token has expired
/// by the time it is observed.
pub fn certain_brute_over(
    db: &Database,
    solutions: &SolutionSet,
    budget: u64,
    token: &CancelToken,
) -> Option<BruteOutcome> {
    // Indexed by raw block id (sparse after retractions). A falsified
    // component's choices stay in place: no later search consults them,
    // since solutions never cross components.
    let mut chosen: Vec<Option<FactId>> = vec![None; db.block_slots()];
    let mut nodes = 0u64;
    for comp in component_block_orders(db, solutions) {
        if token.is_cancelled() {
            return None;
        }
        if let ControlFlow::Break(verdict) =
            search(db, solutions, &comp, &mut chosen, &mut nodes, budget, token)
        {
            return verdict;
        }
    }
    // Every component falsified: the witness reads the choices back over
    // the live blocks, taking the first fact of each solution-free block.
    let witness: Vec<FactId> = db
        .block_ids()
        .map(|b| chosen[b.idx()].unwrap_or_else(|| db.block(b)[0]))
        .collect();
    let repair = Repair::try_new(db, witness).expect("search produces valid repairs");
    Some(BruteOutcome::NotCertain(repair))
}

/// A block decision on the search stack: the block, its viable facts when
/// it was chosen, and the next one to try.
struct Decision {
    block: BlockId,
    cands: Vec<FactId>,
    next: usize,
}

/// One component's backtracking search: depth-first with dynamic
/// fail-first ordering, always branching on the undecided block with the
/// fewest non-conflicting facts. Forced blocks (a single viable choice)
/// propagate immediately and empty blocks prune — the backtracking
/// analogue of unit propagation, which is what makes the Section 9
/// gadget databases (long forced chains) tractable when a falsifying
/// repair exists. Each candidate tried is one node of `nodes`, which
/// spans the whole call.
///
/// `Continue` = a falsifying choice for every block of `blocks`, left in
/// `chosen`. `Break` carries the call's answer: `Certain` when no
/// falsifying choice exists (the component forces `q`),
/// `BudgetExhausted`, or `None` when the token stopped the search.
fn search(
    db: &Database,
    solutions: &SolutionSet,
    blocks: &[BlockId],
    chosen: &mut [Option<FactId>],
    nodes: &mut u64,
    budget: u64,
    token: &CancelToken,
) -> ControlFlow<Option<BruteOutcome>> {
    let mut stack: Vec<Decision> = Vec::new();
    loop {
        // Every decision on the stack holds a choice here.
        if stack.len() == blocks.len() {
            return ControlFlow::Continue(());
        }
        if let Some((block, cands)) = most_constrained(db, solutions, blocks, chosen) {
            stack.push(Decision {
                block,
                cands,
                next: 0,
            });
        }
        // Try the next candidate of the innermost decision, undoing its
        // previous one and backtracking out of exhausted ones.
        loop {
            let Some(top) = stack.last_mut() else {
                return ControlFlow::Break(Some(BruteOutcome::Certain));
            };
            chosen[top.block.idx()] = None;
            let Some(&f) = top.cands.get(top.next) else {
                stack.pop();
                continue;
            };
            top.next += 1;
            *nodes += 1;
            if *nodes > budget {
                return ControlFlow::Break(Some(BruteOutcome::BudgetExhausted));
            }
            if *nodes % TOKEN_POLL_NODES == 0 && token.is_cancelled() {
                return ControlFlow::Break(None);
            }
            chosen[top.block.idx()] = Some(f);
            break;
        }
    }
}

/// The undecided block with the fewest viable facts, with those facts:
/// the first forced block (one viable fact) in BFS order, else the
/// first block of minimal choice. `None` when some undecided block has
/// no viable fact left (a dead end).
fn most_constrained(
    db: &Database,
    solutions: &SolutionSet,
    blocks: &[BlockId],
    chosen: &[Option<FactId>],
) -> Option<(BlockId, Vec<FactId>)> {
    let mut best: Option<(BlockId, Vec<FactId>)> = None;
    for &b in blocks {
        if chosen[b.idx()].is_some() {
            continue;
        }
        let cands: Vec<FactId> = db
            .block(b)
            .iter()
            .copied()
            .filter(|&f| !conflicts(db, solutions, chosen, f))
            .collect();
        match cands.len() {
            0 => return None,
            1 => return Some((b, cands)),
            n => {
                if best.as_ref().map_or(true, |(_, c)| n < c.len()) {
                    best = Some((b, cands));
                }
            }
        }
    }
    best
}

/// Does picking fact `f` complete a solution against already-chosen
/// facts?
fn conflicts(db: &Database, solutions: &SolutionSet, chosen: &[Option<FactId>], f: FactId) -> bool {
    if solutions.self_loop(f) {
        return true;
    }
    solutions
        .seconds_of(f)
        .iter()
        .chain(solutions.firsts_of(f))
        .any(|&g| chosen[db.block_of(g).idx()] == Some(g))
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
    fn brute_over(q: &Query, db: &Database, budget: u64) -> BruteOutcome {
        let solutions = SolutionSet::enumerate(q, db);
        certain_brute_over(db, &solutions, budget, &CancelToken::new())
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
        // search reports BudgetExhausted because it never reaches
        // component 2.
        let q = examples::q3();
        let d = db2(&[["a", "b"], ["a", "c"], ["b", "a"], ["b", "d"], ["z", "z"]]);
        assert!(matches!(
            brute_over(&q, &d, 1),
            BruteOutcome::BudgetExhausted
        ));
        // Unbounded, the forcing component decides it.
        assert!(matches!(
            brute_over(&q, &d, u64::MAX),
            BruteOutcome::Certain
        ));
    }

    #[test]
    fn token_cancellation_withholds_the_verdict() {
        let q = examples::q3();
        let d = db2(&[["a", "b"], ["a", "x"], ["b", "c"]]);
        // A pre-raised token cancels before any component search starts.
        let raised = CancelToken::new();
        raised.cancel();
        let sols = SolutionSet::enumerate(&q, &d);
        assert!(certain_brute_over(&d, &sols, u64::MAX, &raised).is_none());
        // A calm token reproduces the plain outcome.
        let calm = CancelToken::new();
        let got = certain_brute_over(&d, &sols, u64::MAX, &calm)
            .expect("a calm token cannot cancel the search");
        assert!(matches!(got, BruteOutcome::NotCertain(_)), "{got:?}");
    }

    #[test]
    fn a_long_forced_chain_needs_no_call_stack() {
        // R(k_i | w_i w_i) and R(k_{i+1} | k_i w_i) under the coNP query
        // R(y | v v) R(u | y v): block k_0 forces its first fact, which
        // forces block k_1, and so on until block k_n has no viable fact.
        // The search is one forced decision per link deep, so it must
        // run on a stack that holds no frame per decision.
        const LINKS: usize = 5_000;
        let q = cqa_query::parse_query("R(y | v v) R(u | y v)").unwrap();
        let mut d = Database::new(Signature::new(3, 1).unwrap());
        for i in 0..LINKS {
            let (k, w, next) = (format!("k{i}"), format!("w{i}"), format!("k{}", i + 1));
            d.insert(Fact::from_names([&k, &w, &w])).unwrap();
            d.insert(Fact::from_names([&next, &k, &w])).unwrap();
        }
        let out = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || certain_brute_budgeted(&q, &d, u64::MAX))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(out, BruteOutcome::Certain);
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
        assert_eq!(plan.len(), support.len());
        assert_eq!(plan.len(), 2);
        let mut planned: Vec<Vec<BlockId>> = plan.clone();
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
