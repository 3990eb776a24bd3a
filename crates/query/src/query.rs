//! Two-atom Boolean conjunctive queries `q = A B`.

use crate::homomorphism::{retracts_onto, unify_atoms};
use crate::{Atom, QueryError, Var};
use cqa_model::{RelId, Signature};
use std::collections::BTreeSet;
use std::fmt;

/// A Boolean conjunctive query `q = ∃ȳ A ∧ B` with every variable
/// quantified (Section 2). Both atoms share one [`Signature`].
///
/// The paper restricts attention to *self-join* queries (both atoms over the
/// same relation symbol); [`Query::new`] enforces that, while
/// [`Query::new_sjf`] builds the two-relation variant used by the canonical
/// self-join-free query `sjf(q)` of Section 4.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Query {
    sig: Signature,
    a: Atom,
    b: Atom,
}

impl Query {
    /// Build a self-join query `q = A B`. Both atoms must use the same
    /// relation symbol and match the signature's arity.
    pub fn new(sig: Signature, a: Atom, b: Atom) -> Result<Query, QueryError> {
        if a.rel() != b.rel() {
            return Err(QueryError::MixedRelations);
        }
        Query::new_sjf(sig, a, b)
    }

    /// Build a (possibly) two-relation query — used for `sjf(q)`.
    pub fn new_sjf(sig: Signature, a: Atom, b: Atom) -> Result<Query, QueryError> {
        if a.arity() != sig.arity() || b.arity() != sig.arity() {
            return Err(QueryError::ArityMismatch {
                expected: sig.arity(),
                got_a: a.arity(),
                got_b: b.arity(),
            });
        }
        Ok(Query { sig, a, b })
    }

    /// The shared signature `[k, l]`.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    /// The first atom `A`.
    pub fn a(&self) -> &Atom {
        &self.a
    }

    /// The second atom `B`.
    pub fn b(&self) -> &Atom {
        &self.b
    }

    /// `true` iff both atoms use the same relation symbol.
    pub fn is_self_join(&self) -> bool {
        self.a.rel() == self.b.rel()
    }

    /// The equivalent query `B A` (the paper freely swaps atoms, e.g. in the
    /// symmetric case of Theorem 6.1).
    pub fn swapped(&self) -> Query {
        Query {
            sig: self.sig,
            a: self.b.clone(),
            b: self.a.clone(),
        }
    }

    /// The canonical self-join-free query `sjf(q)` (Section 4): `A` moved to
    /// relation `R1`, `B` to relation `R2`.
    pub fn sjf(&self) -> Query {
        Query {
            sig: self.sig,
            a: self.a.with_rel(RelId::R1),
            b: self.b.with_rel(RelId::R2),
        }
    }

    /// The shared variables `vars(A) ∩ vars(B)`.
    pub fn shared_vars(&self) -> BTreeSet<Var> {
        self.a
            .vars()
            .intersection(&self.b.vars())
            .cloned()
            .collect()
    }

    /// Whether `q` is equivalent (over consistent databases) to a one-atom
    /// query, making `certain(q)` trivial (Section 2). This happens iff
    ///
    /// 1. the query retracts onto one of its atoms (a homomorphism `A → B`
    ///    fixing `vars(B)`, or symmetrically), or
    /// 2. `key(A) = key(B)` as *tuples* (a consistent database then forces
    ///    both atoms onto the same fact; the query is equivalent to the
    ///    unification `R(C)` of `A` and `B`).
    pub fn is_one_atom_equivalent(&self) -> bool {
        if !self.is_self_join() {
            // With distinct relation symbols a homomorphism between the atoms
            // is impossible and key tuples over distinct relations never
            // force fact equality.
            return false;
        }
        if retracts_onto(&self.a, &self.b) || retracts_onto(&self.b, &self.a) {
            return true;
        }
        self.a.key(&self.sig) == self.b.key(&self.sig)
    }

    /// The most general atom `C` with homomorphisms from both `A` and `B`
    /// (position-wise unification), if the atoms share a relation symbol.
    /// This is the single atom the paper's case (2) reduces to.
    pub fn unified_atom(&self) -> Option<Atom> {
        unify_atoms(&self.a, &self.b)
    }

    /// Render the query, e.g. `R(x u | x y) R(u y | x z)`.
    pub fn display(&self) -> String {
        format!(
            "{} {}",
            self.a.display(&self.sig),
            self.b.display(&self.sig)
        )
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    #[test]
    fn construction_checks_arity() {
        let sig = Signature::new(2, 1).unwrap();
        let err = Query::new(sig, Atom::r(["x", "y"]), Atom::r(["x", "y", "z"])).unwrap_err();
        assert!(matches!(err, QueryError::ArityMismatch { .. }));
    }

    #[test]
    fn construction_rejects_mixed_relations() {
        let sig = Signature::new(2, 1).unwrap();
        let a = Atom::r(["x", "y"]);
        let b = a.with_rel(RelId::R1);
        assert!(matches!(
            Query::new(sig, a, b),
            Err(QueryError::MixedRelations)
        ));
    }

    #[test]
    fn shared_vars() {
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        let shared: BTreeSet<_> = ["x", "u", "y"].into_iter().map(Var::new).collect();
        assert_eq!(q.shared_vars(), shared);
    }

    #[test]
    fn swapped_exchanges_atoms() {
        let q = parse_query("R(x | y) R(y | z)").unwrap();
        let s = q.swapped();
        assert_eq!(s.a(), q.b());
        assert_eq!(s.b(), q.a());
        assert_eq!(s.swapped(), q);
    }

    #[test]
    fn sjf_renames_relations() {
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        let s = q.sjf();
        assert_eq!(s.a().rel(), RelId::R1);
        assert_eq!(s.b().rel(), RelId::R2);
        assert!(!s.is_self_join());
        assert_eq!(s.a().tuple(), q.a().tuple());
    }

    #[test]
    fn one_atom_equivalence_via_homomorphism() {
        // B = A up to renaming: hom A -> B exists.
        let q = parse_query("R(x | y) R(u | v)").unwrap();
        assert!(q.is_one_atom_equivalent());
        // Repeated variable makes A strictly more specific: hom A -> B.
        let q = parse_query("R(x | x) R(u | v)").unwrap();
        assert!(q.is_one_atom_equivalent());
    }

    #[test]
    fn one_atom_equivalence_via_equal_key_tuples() {
        // key(A) = key(B) = (x): both atoms must match the same fact in a
        // consistent database.
        let q = parse_query("R(x | y) R(x | z)").unwrap();
        assert!(q.is_one_atom_equivalent());
        let c = q.unified_atom().unwrap();
        // Unifier identifies y and z.
        assert_eq!(c.at(0), c.at(0));
        assert_eq!(c.arity(), 2);
    }

    #[test]
    fn paper_queries_are_not_trivial() {
        for s in [
            "R(x u | x v) R(v y | u y)", // q1
            "R(x u | x y) R(u y | x z)", // q2
            "R(x | y) R(y | z)",         // q3
            "R(x x | u v) R(x y | u x)", // q4
            "R(x | y x) R(y | x u)",     // q5
            "R(x | y z) R(z | x y)",     // q6
        ] {
            let q = parse_query(s).unwrap();
            assert!(!q.is_one_atom_equivalent(), "{s} unexpectedly trivial");
        }
    }

    #[test]
    fn display_round_trip() {
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        assert_eq!(q.display(), "R(x u | x y) R(u y | x z)");
        assert_eq!(parse_query(&q.display()).unwrap(), q);
    }
}
