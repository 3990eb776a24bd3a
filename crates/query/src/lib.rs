//! # cqa-query — two-atom self-join queries and the dichotomy's syntax layer
//!
//! Boolean conjunctive queries `q = A B` over a single relation with a
//! primary key (Section 2 of the PODS'24 paper), together with:
//!
//! * a concrete syntax ([`parse_query`]) mirroring the paper's underline
//!   notation (`R(x u | x y)` for key positions `x u`),
//! * atom [`homomorphism`]s and unification (the one-atom-equivalence test
//!   that makes `certain(q)` trivial),
//! * [`Subst`]itutions and solution checking `q(a b)` / `q{a b}`,
//! * the syntactic [`conditions`] of Theorems 4.2 and 6.1 and the
//!   2way-determinacy test of Section 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
pub mod conditions;
pub mod homomorphism;
mod lines;
mod parse;
mod query;
mod subst;
mod term;

pub use atom::Atom;
pub use lines::{
    parse_queries_for, parse_query_for, query_lines, signature_mismatch, truncate_error_text,
    QueryLine, ERROR_TEXT_MAX,
};
pub use parse::parse_query;
pub use query::Query;
pub use subst::{is_solution, is_solution_unordered, match_pair, Subst};
pub use term::Var;

/// Errors produced by the query layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Atom arities disagree with the signature.
    ArityMismatch {
        /// Arity the signature requires.
        expected: usize,
        /// Arity of atom `A`.
        got_a: usize,
        /// Arity of atom `B`.
        got_b: usize,
    },
    /// `Query::new` was given atoms over different relation symbols.
    MixedRelations,
    /// Concrete-syntax parsing failed at byte `at` of the input.
    Parse {
        /// Byte offset into the original input where the problem starts.
        at: usize,
        /// What went wrong.
        msg: String,
    },
    /// The input parsed but uses a shape the dichotomy pipeline does not
    /// support (unknown relation names, repeated `R1`/`R2`, a mix of the
    /// self-join and self-join-free forms, more than two atoms).
    Unsupported {
        /// Byte offset into the original input where the problem starts.
        at: usize,
        /// What is unsupported, and what to write instead.
        msg: String,
    },
    /// The query parsed, but its signature differs from the database's
    /// ([`parse_query_for`]): `certain(q)` is only defined when the query
    /// and the database share one schema (Section 2).
    SignatureMismatch {
        /// The query's signature.
        query: cqa_model::Signature,
        /// The database's signature.
        db: cqa_model::Signature,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ArityMismatch {
                expected,
                got_a,
                got_b,
            } => write!(
                f,
                "atom arities ({got_a}, {got_b}) do not match the signature arity {expected}"
            ),
            QueryError::MixedRelations => {
                write!(
                    f,
                    "self-join query requires both atoms over the same relation"
                )
            }
            QueryError::Parse { at, msg } => write!(f, "parse error at byte {at}: {msg}"),
            QueryError::Unsupported { at, msg } => {
                write!(f, "unsupported query at byte {at}: {msg}")
            }
            QueryError::SignatureMismatch { query, db } => f.write_str(&signature_mismatch(
                format_args!("query signature {query}"),
                db,
            )),
        }
    }
}

impl std::error::Error for QueryError {}

/// The paper's seven running examples, by name. Handy for tests, examples
/// and the experiment harness.
pub mod examples {
    use super::{parse_query, Query};

    /// `q1 = R(x̲u̲ xv) ∧ R(v̲y̲ uy)` — coNP-complete via Theorem 4.2.
    pub fn q1() -> Query {
        parse_query("R(x u | x v) R(v y | u y)").unwrap()
    }

    /// `q2 = R(x̲u̲ xy) ∧ R(u̲y̲ xz)` — 2way-determined, admits a
    /// fork-tripath, coNP-complete (Theorem 9.1; Figures 1b, 1c, 2).
    pub fn q2() -> Query {
        parse_query("R(x u | x y) R(u y | x z)").unwrap()
    }

    /// `q3 = R(x̲ y) ∧ R(y̲ z)` — PTime by Theorem 6.1 (the only shared
    /// variable `y` is `key(B)`).
    pub fn q3() -> Query {
        parse_query("R(x | y) R(y | z)").unwrap()
    }

    /// `q4 = R(x̲x̲ uv) ∧ R(x̲y̲ ux)` — PTime by Theorem 6.1
    /// (`key(A) = {x} ⊆ {x,y} = key(B)`).
    pub fn q4() -> Query {
        parse_query("R(x x | u v) R(x y | u x)").unwrap()
    }

    /// `q5 = R(x̲ yx) ∧ R(y̲ xu)` — 2way-determined with no tripath;
    /// PTime via `Cert_k` (Theorem 8.1).
    pub fn q5() -> Query {
        parse_query("R(x | y x) R(y | x u)").unwrap()
    }

    /// `q6 = R(x̲ yz) ∧ R(z̲ xy)` — 2way-determined clique-query; admits a
    /// triangle-tripath but no fork-tripath; PTime via `¬matching`
    /// (Theorem 10.4), *not* solvable by `Cert_k` (Theorem 10.1).
    pub fn q6() -> Query {
        parse_query("R(x | y z) R(z | x y)").unwrap()
    }

    /// `q7` — the paper's Section 10 "useful exercise": 2way-determined,
    /// admits a triangle-tripath and (per the paper) no fork-tripath.
    pub fn q7() -> Query {
        parse_query(
            "R(x1 x2 x3, y1 y1 y2 y3, z1 z2 z3 | z4 z4 z4 z4) R(x3 x1 x2, y3 y1 y1 y2, z2 z3 z4 | z1 z2 z3 z4)",
        )
        .unwrap()
    }

    /// All seven paper queries with their names.
    pub fn all() -> Vec<(&'static str, Query)> {
        vec![
            ("q1", q1()),
            ("q2", q2()),
            ("q3", q3()),
            ("q4", q4()),
            ("q5", q5()),
            ("q6", q6()),
            ("q7", q7()),
        ]
    }
}
