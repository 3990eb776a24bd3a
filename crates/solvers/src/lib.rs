//! # cqa-solvers — every `certain(q)` algorithm in the paper
//!
//! * [`SolutionSet`] — the solutions as join groups (`A_κ × B_κ` per
//!   join key `κ`, never the pairs), built by a sort-merge join;
//! * [`brute`] — the exponential baseline (backtracking over repairs, plus
//!   a definitional exhaustive checker), deciding the components in order;
//! * [`certk`](mod@certk) — the greedy fixpoint `Cert_k(q)` of Section 5;
//! * [`matching`] — the bipartite-matching algorithm of Section 10.1;
//! * [`components`] — the q-connected partition of Proposition 10.6,
//!   emitted as copy-free [`cqa_model::DbView`]s over the parent database
//!   (no `restrict` materialisation); the solvers take only the
//!   components of the solution support, since a solution-free component
//!   is never certain;
//! * [`combined`] — the Theorem 10.5 combination `Cert_k ∨ ¬matching`
//!   deciding all PTime 2way-determined cases;
//! * [`one_atom`] — the first-order case of Section 2: a query equivalent
//!   to one atom is certain iff some block holds only facts `f` with
//!   `q(f f)`, decided by one block scan.
//!
//! Each of the paper's three decision procedures has **one live entry
//! point**, and cancellation is its parameter rather than a name suffix:
//!
//! * `Cert_k` — [`certk_view`] (a view, the solutions, a [`CertKConfig`]
//!   and a [`CancelToken`]);
//! * `¬matching` — [`analyze_view`];
//! * exhaustive search on the coNP side — [`certain_brute_over`].
//!
//! They combine one way, per q-connected component (Theorem 10.5,
//! Proposition 10.6): [`DynamicComponents::solve`] decides every
//! component of the solution support by [`decide_component`], with the
//! matching shortcut as a parameter that sends a clique-database
//! component to `¬matching`, and keeps each component's blocks beside its
//! verdict; [`DynamicComponents::apply`] re-decides only the components
//! a delta dirtied, through the same step. Components are independent,
//! so the cold solve decides them concurrently on a scoped thread pool
//! when [`CertKConfig::threads`] is above 1; `1` keeps the sequential
//! path, and `apply` always takes it, its dirty region being small.
//! It decides every component, so the per-component evidence is complete
//! and identical across thread counts. The brute force decides the components one after another and
//! stops at the first that forces `q`.
//!
//! The first-order one-atom case of Section 2 needs none of them: its
//! one entry, [`ForcingBlocks::scan`] (the query, a database and a
//! [`CancelToken`]), scans the blocks without a solution set.
//!
//! The whole-database paper names — [`certk()`], [`cert2`],
//! [`certain_combined`], [`certain_thm105_literal`] — and the frozen
//! brute-force oracles ([`certain_brute`], [`certain_brute_budgeted`],
//! [`certain_exhaustive`]) are thin wrappers that never cancel.
//!
//! A prose handbook for this crate — how the block-indexed antichain, the
//! requirement-family cache, the dirty-block worklist and the component
//! routing fit together, and which theorem of the paper each piece
//! implements — lives in `docs/SOLVERS.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod cancel;
pub mod certk;
pub mod combined;
pub mod components;
pub mod matching;
pub mod one_atom;
pub mod solution;

pub use brute::{
    certain_brute, certain_brute_budgeted, certain_brute_over, certain_exhaustive, BruteOutcome,
};
pub use cancel::CancelToken;
pub use certk::{cert2, certk, certk_view, Antichain, CertKConfig, CertKOutcome, CertKStats};
pub use combined::{
    certain_combined, certain_thm105_literal, decide_component, CombinedResult, ComponentVerdict,
    DecidedBy,
};
pub use components::{
    q_connected_components, support_partition, ComponentDeltaReport, DynamicComponents,
};
pub use matching::{
    analyze_view, certain_by_matching, is_clique_database, matching_accepts, MatchingAnalysis,
};
pub use one_atom::{ForcingBlocks, OneAtomPlan};
pub use solution::SolutionSet;
