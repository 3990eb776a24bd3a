//! # cqa-solvers — every `certain(q)` algorithm in the paper
//!
//! * [`SolutionSet`] — hash-join solution enumeration, indexed by fact id
//!   in both directions;
//! * [`brute`] — the exponential baseline (backtracking over repairs, plus
//!   a definitional exhaustive checker), with per-component parallel
//!   fan-out;
//! * [`certk`](mod@certk) — the greedy fixpoint `Cert_k(q)` of Section 5;
//! * [`matching`] — the bipartite-matching algorithm of Section 10.1;
//! * [`components`] — the q-connected partition of Proposition 10.6,
//!   emitted as copy-free [`cqa_model::DbView`]s over the parent database
//!   (no `restrict` materialisation);
//! * [`combined`] — the Theorem 10.5 combination `Cert_k ∨ ¬matching`
//!   deciding all PTime 2way-determined cases.
//!
//! Components of the solution graph are independent (Proposition 10.6), so
//! [`combined`] and [`brute`] decide them concurrently on a scoped thread
//! pool when [`CertKConfig::threads`] (or the `threads` argument of
//! [`certain_brute_parallel`]) is above 1; `1` keeps the historical
//! sequential path. [`combined`] verdicts never depend on the thread
//! count; brute-force verdicts don't either unless a finite node budget
//! is exhausted mid-search (see [`certain_brute_parallel`]). The
//! per-component `Cert_k` fan-out ([`certk_by_components`]) additionally
//! supports an opt-in cancel-on-first-certain mode
//! ([`CertKConfig::early_exit`]): verdict-identical, but the remaining
//! components are skipped once one is certain, so the per-component
//! evidence becomes partial ([`CombinedResult::skipped`]).
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
pub mod solution;

pub use brute::{
    certain_brute, certain_brute_budgeted, certain_brute_cancellable, certain_brute_parallel,
    certain_brute_with_solutions_token, certain_exhaustive, BruteOutcome,
};
pub use cancel::CancelToken;
pub use certk::{
    cert2, certk, certk_view, certk_view_cancel_token, certk_view_cancellable, certk_view_snapshot,
    certk_view_snapshot_cancel_token, certk_view_warm, certk_view_warm_cancel_token,
    certk_view_with_stats, certk_with_stats, Antichain, CertKConfig, CertKOutcome, CertKStats,
    CertKWarmState,
};
pub use combined::{
    certain_combined, certain_combined_over, certain_combined_over_cancellable,
    certain_thm105_literal, certk_by_components, certk_by_components_cancellable, CombinedResult,
    DecidedBy,
};
pub use components::{q_connected_components, Component, ComponentDeltaReport, DynamicComponents};
pub use matching::{
    analyze_view, certain_by_matching, is_clique_database, matching_accepts, MatchingAnalysis,
};
pub use solution::{IncrementalSolutions, SolutionSet};
