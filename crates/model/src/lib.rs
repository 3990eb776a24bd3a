//! # cqa-model — relational substrate for primary-key CQA
//!
//! The data model of *"A Dichotomy in the Complexity of Consistent Query
//! Answering for Two Atom Queries With Self-Join"* (PODS 2024), Section 2:
//!
//! * an infinite domain of [`Elem`]ents, realised as an interned term
//!   algebra (named / integer / pair / fresh constants),
//! * relation [`Signature`]s `[k, l]` — arity `k`, the first `l` positions
//!   form the primary key,
//! * [`Fact`]s `R(ē)` with key tuples, key sets and active domains, and
//!   [`FactRef`]s, the borrowed facts a database hands out,
//! * [`Database`]s — finite fact sets partitioned into *blocks* of
//!   key-equal facts, mutable in place via [`Database::apply_delta`]
//!   (id-stable insert/retract with a [`DeltaReport`] of touched blocks),
//! * [`Repair`]s — one fact per block — and exhaustive [`RepairIter`]
//!   enumeration,
//! * [`DbView`]s — borrowed, copy-free, block-aligned views of a subset
//!   of a database's blocks (what the per-component solvers consume
//!   instead of `restrict`-materialised sub-databases).
//!
//! Everything downstream (queries, solvers, tripaths, reductions) builds on
//! these types.
//!
//! The element store is process-global and **sharded** (16 `RwLock`
//! shards selected by payload hash, shard id encoded in the handle's low
//! bits), so concurrent fact construction from solver worker threads does
//! not serialise on a single lock. It keeps each name once, in an
//! `Arc<str>` found by a keyed hash of the borrowed `&str`. A
//! [`Database`] stores its facts as flat element columns and indexes
//! them by keyed 64-bit hashes, so loading a fact line parses it into a
//! reused buffer and copies its elements into the columns, allocating
//! only for names seen for the first time. See the [`Elem`] module docs
//! for the locking discipline, and `ARCHITECTURE.md` at the workspace
//! root for how the crates fit together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod elem;
mod fact;
mod repair;
mod schema;
mod store;
mod textline;
mod view;

pub use database::{BlockId, Database, DeltaReport, FactId};
pub use elem::{Elem, ElemData};
pub use fact::{Fact, FactRef};
pub use repair::{Repair, RepairIter};
pub use schema::{RelId, Signature};
pub use textline::{parse_fact_line, parse_fact_line_into, render_fact_line, FactLineBuf};
pub use view::DbView;

/// Errors produced by the model layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// Signature construction rejected.
    BadSignature {
        /// Requested arity.
        arity: usize,
        /// Requested key length.
        key_len: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A fact's arity does not match the database signature.
    ArityMismatch {
        /// Arity the database expects.
        expected: usize,
        /// Arity the fact has.
        got: usize,
    },
    /// An explicit repair choice vector was invalid.
    BadRepair {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::BadSignature {
                arity,
                key_len,
                reason,
            } => {
                write!(f, "invalid signature [{arity}, {key_len}]: {reason}")
            }
            ModelError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            ModelError::BadRepair { reason } => write!(f, "invalid repair: {reason}"),
        }
    }
}

impl std::error::Error for ModelError {}
