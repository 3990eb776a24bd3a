//! Substitutions and query satisfaction.
//!
//! `D ⊨ q(a b)` holds when a single mapping `μ` from the query's variables
//! to elements sends `A` to the fact `a` **and** `B` to the fact `b`
//! (Section 2). The pair `(a, b)` is then a *solution*; `q{a b}` denotes
//! `q(a b) ∨ q(b a)`.

use crate::{Atom, Query, Var};
use cqa_model::{Elem, Fact, FactRef};
use std::collections::BTreeMap;

/// A partial mapping from query variables to elements.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Subst {
    map: BTreeMap<Var, Elem>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// The image of `v`, if bound.
    pub fn get(&self, v: &Var) -> Option<Elem> {
        self.map.get(v).copied()
    }

    /// Bind `v ↦ e`. Returns `false` (and leaves the substitution intact)
    /// if `v` is already bound to a different element.
    pub fn bind(&mut self, v: Var, e: Elem) -> bool {
        match self.map.get(&v) {
            Some(&old) => old == e,
            None => {
                self.map.insert(v, e);
                true
            }
        }
    }

    /// Extend the substitution so that it maps `atom` onto `fact`
    /// position-wise. Returns `false` on any conflict (wrong relation,
    /// wrong arity, or inconsistent variable binding); the substitution may
    /// then be partially extended and should be discarded.
    pub fn match_atom<'f>(&mut self, atom: &Atom, fact: impl Into<FactRef<'f>>) -> bool {
        let fact = fact.into();
        if atom.rel() != fact.rel() || atom.arity() != fact.arity() {
            return false;
        }
        for i in 0..atom.arity() {
            if !self.bind(atom.at(i).clone(), fact.at(i)) {
                return false;
            }
        }
        true
    }

    /// Apply the substitution to an atom, producing a fact. Returns `None`
    /// if some variable of the atom is unbound.
    pub fn apply(&self, atom: &Atom) -> Option<Fact> {
        let tuple: Option<Vec<Elem>> = atom.tuple().iter().map(|v| self.get(v)).collect();
        Some(Fact::new(atom.rel(), tuple?))
    }

    /// Apply the substitution, filling unbound variables via `fill` (e.g.
    /// with fresh elements). Each distinct unbound variable is filled once.
    pub fn apply_with(&mut self, atom: &Atom, mut fill: impl FnMut(&Var) -> Elem) -> Fact {
        let tuple: Vec<Elem> = atom
            .tuple()
            .iter()
            .map(|v| match self.get(v) {
                Some(e) => e,
                None => {
                    let e = fill(v);
                    self.map.insert(v.clone(), e);
                    e
                }
            })
            .collect();
        Fact::new(atom.rel(), tuple)
    }

    /// The bound variables.
    pub fn domain(&self) -> impl Iterator<Item = &Var> {
        self.map.keys()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The substitution witnessing `q(a b)` — `μ(A) = a` and `μ(B) = b` — if
/// one exists. Deterministic: the facts fully determine `μ` on the atoms'
/// variables.
pub fn match_pair<'a, 'b>(
    q: &Query,
    a: impl Into<FactRef<'a>>,
    b: impl Into<FactRef<'b>>,
) -> Option<Subst> {
    let mut mu = Subst::new();
    if mu.match_atom(q.a(), a) && mu.match_atom(q.b(), b) {
        Some(mu)
    } else {
        None
    }
}

/// `q(a b)`: the ordered pair `(a, b)` is a solution to `q`.
pub fn is_solution<'a, 'b>(
    q: &Query,
    a: impl Into<FactRef<'a>>,
    b: impl Into<FactRef<'b>>,
) -> bool {
    match_pair(q, a, b).is_some()
}

/// `q{a b}`: `q(a b)` or `q(b a)`.
pub fn is_solution_unordered<'a, 'b>(
    q: &Query,
    a: impl Into<FactRef<'a>>,
    b: impl Into<FactRef<'b>>,
) -> bool {
    let (a, b) = (a.into(), b.into());
    is_solution(q, a, b) || is_solution(q, b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use cqa_model::Elem;

    fn f(names: &[&str]) -> Fact {
        Fact::from_names(names.iter().copied())
    }

    #[test]
    fn match_atom_binds_positionwise() {
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        let fact = f(&["a", "b", "a", "c"]);
        let mut mu = Subst::new();
        assert!(mu.match_atom(q.a(), &fact));
        assert_eq!(mu.get(&Var::new("x")), Some(Elem::named("a")));
        assert_eq!(mu.get(&Var::new("u")), Some(Elem::named("b")));
        assert_eq!(mu.get(&Var::new("y")), Some(Elem::named("c")));
    }

    #[test]
    fn match_atom_detects_repetition_conflicts() {
        // A = R(x u | x y) needs positions 0 and 2 equal.
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        let bad = f(&["a", "b", "c", "d"]);
        assert!(!Subst::new().match_atom(q.a(), &bad));
    }

    #[test]
    fn pair_solution_for_q2() {
        // q2 = R(x u | x y) R(u y | x z). With a = R(a b a c):
        // x=a, u=b, y=c, so b must be R(b c | a *).
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        let a = f(&["a", "b", "a", "c"]);
        let b = f(&["b", "c", "a", "d"]);
        assert!(is_solution(&q, &a, &b));
        assert!(!is_solution(&q, &b, &a));
        assert!(is_solution_unordered(&q, &a, &b));
        assert!(is_solution_unordered(&q, &b, &a));
    }

    #[test]
    fn self_pair_solution() {
        // q3 = R(x | y) R(y | z): q(a a) holds for R(a a) (x=y=a, z=a).
        let q = parse_query("R(x | y) R(y | z)").unwrap();
        let aa = f(&["a", "a"]);
        let ab = f(&["a", "b"]);
        assert!(is_solution(&q, &aa, &aa));
        assert!(!is_solution(&q, &ab, &ab));
    }

    #[test]
    fn apply_round_trips() {
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        let a = f(&["a", "b", "a", "c"]);
        let b = f(&["b", "c", "a", "d"]);
        let mu = match_pair(&q, &a, &b).unwrap();
        assert_eq!(mu.apply(q.a()).unwrap(), a);
        assert_eq!(mu.apply(q.b()).unwrap(), b);
    }

    #[test]
    fn apply_with_fills_fresh() {
        let q = parse_query("R(x u | x y) R(u y | x z)").unwrap();
        let a = f(&["a", "b", "a", "c"]);
        let mut mu = Subst::new();
        assert!(mu.match_atom(q.a(), &a));
        // z is unbound; fill it with a fresh element.
        let b = mu.apply_with(q.b(), |_| Elem::fresh());
        assert_eq!(b.at(0), Elem::named("b"));
        assert_eq!(b.at(1), Elem::named("c"));
        assert_eq!(b.at(2), Elem::named("a"));
        // Re-applying now uses the recorded binding: deterministic.
        assert_eq!(mu.apply(q.b()).unwrap(), b);
    }

    #[test]
    fn subst_bind_conflict() {
        let mut s = Subst::new();
        assert!(s.bind(Var::new("x"), Elem::named("a")));
        assert!(s.bind(Var::new("x"), Elem::named("a")));
        assert!(!s.bind(Var::new("x"), Elem::named("b")));
        assert_eq!(s.len(), 1);
    }
}
