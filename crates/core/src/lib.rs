//! # cqa — consistent query answering for two-atom self-join queries
//!
//! An executable reproduction of *"A Dichotomy in the Complexity of
//! Consistent Query Answering for Two Atom Queries With Self-Join"*
//! (Padmanabha, Segoufin, Sirangelo — PODS 2024, arXiv:2309.12059).
//!
//! Given a Boolean conjunctive query `q = A ∧ B` over a single relation
//! with a primary key, the library decides where `certain(q)` — "does `q`
//! hold in *every* repair of an inconsistent database?" — falls in the
//! PTime / coNP-complete dichotomy, and evaluates it with the algorithm the
//! classification prescribes:
//!
//! * [`classify`] — the full decision procedure of the paper (Theorems
//!   4.2, 6.1, 8.1, 9.1, 10.5), with tripath witnesses attached;
//! * [`CqaEngine`] — classify once, answer `certain` on many databases;
//! * [`SharedSession`] — the one session type, the other amortisation
//!   axis: load a database once (behind an `Arc`), answer many queries
//!   with per-query caches of the classification, solution set and
//!   verdict. `cqa batch`, `cqa update` and the `cqa serve` session
//!   manager all answer through it, from any number of threads;
//! * re-exports of the underlying substrates: the relational model
//!   ([`cqa_model`]), queries ([`cqa_query`]), solvers ([`cqa_solvers`]:
//!   brute force, the greedy fixpoint `Cert_k`, `matching(q)`, the
//!   Theorem 10.5 combination), tripath machinery ([`cqa_tripath`]),
//!   SAT ([`cqa_sat`]) and the executable reductions
//!   ([`cqa_reductions`]).
//!
//! ## Quick start
//!
//! ```
//! use cqa::{classify, Complexity};
//! use cqa_query::parse_query;
//!
//! // The paper's q2: 2way-determined, admits a fork-tripath, hence
//! // coNP-complete (Theorem 9.1).
//! let q2 = parse_query("R(x u | x y) R(u y | x z)").unwrap();
//! assert_eq!(classify(&q2).complexity, Complexity::CoNpComplete);
//!
//! // The paper's q3: PTime, solved by the greedy fixpoint Cert₂.
//! let q3 = parse_query("R(x | y) R(y | z)").unwrap();
//! assert_eq!(classify(&q3).complexity, Complexity::PTimeCert2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod delta;
mod engine;
mod shared;

pub use classify::{
    classify, classify_with, Classification, ClassificationRule, Complexity, Confidence,
};
pub use delta::DeltaStats;
pub use engine::{
    AnsweredBy, CancelledSolve, CertainAnswer, CqaEngine, EngineConfig, RoutePolicy, RoutingConfig,
};
pub use shared::{SessionStats, SharedSession};

// Substrate re-exports for downstream users of the facade crate.
pub use cqa_model as model;
pub use cqa_query as query;
pub use cqa_reductions as reductions;
pub use cqa_sat as sat;
pub use cqa_solvers as solvers;
pub use cqa_tripath as tripath;
