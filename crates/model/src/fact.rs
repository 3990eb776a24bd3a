//! Facts: ground terms `R(ā)`.
//!
//! [`Fact`] is the owned fact, the type facts are built and handed in
//! as. [`FactRef`] is a borrowed fact: a relation and a slice of
//! elements. A [`Database`](crate::Database) stores no `Fact` values —
//! its facts are rows of flat element columns — so
//! [`Database::fact`](crate::Database::fact),
//! [`Database::facts`](crate::Database::facts) and the
//! [`DbView`](crate::DbView) equivalents hand out `FactRef`s into those
//! columns, and every reader of facts takes a `FactRef`
//! ([`Fact::as_fact_ref`] lends one; [`FactRef::to_fact`] copies one
//! out).

use crate::{Elem, RelId, Signature};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A fact `R(e₁ … e_k)`. Immutable once built; cheap to clone (the tuple
/// is an `Arc<[Elem]>` of `u32` handles, so a clone increments a count and
/// allocates nothing).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    rel: RelId,
    tuple: Arc<[Elem]>,
}

/// A borrowed fact: the relation and the elements of a fact that lives
/// elsewhere — in a [`Fact`], in a database's columns, or in a parse
/// buffer. `Copy`; compares, orders and hashes like the [`Fact`] it
/// reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactRef<'a> {
    rel: RelId,
    tuple: &'a [Elem],
}

impl Fact {
    /// Build a fact over relation `rel` with the given tuple.
    pub fn new(rel: RelId, tuple: impl Into<Arc<[Elem]>>) -> Fact {
        Fact {
            rel,
            tuple: tuple.into(),
        }
    }

    /// Build a fact over the default relation [`RelId::R`].
    pub fn r(tuple: impl Into<Arc<[Elem]>>) -> Fact {
        Fact::new(RelId::R, tuple)
    }

    /// Convenience constructor from named constants: `Fact::named("R0", ["a","b"])`
    /// is not needed; this one takes only the tuple names over relation `R`.
    pub fn from_names<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> Fact {
        Fact::r(
            names
                .into_iter()
                .map(|s| Elem::named(s.as_ref()))
                .collect::<Vec<_>>(),
        )
    }

    /// This fact, borrowed.
    pub fn as_fact_ref(&self) -> FactRef<'_> {
        FactRef::new(self.rel, &self.tuple)
    }

    /// The relation symbol of this fact.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The arity of this fact's tuple.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }

    /// The full tuple.
    pub fn tuple(&self) -> &[Elem] {
        &self.tuple
    }

    /// The element at position `i` (0-based). The paper writes `R(t̄)[i]`
    /// with 1-based positions; all code in this workspace is 0-based.
    pub fn at(&self, i: usize) -> Elem {
        self.tuple[i]
    }

    /// The key tuple: the first `sig.key_len()` elements. See
    /// [`FactRef::key`].
    pub fn key<'a>(&'a self, sig: &Signature) -> &'a [Elem] {
        self.as_fact_ref().key(sig)
    }

    /// The *set* of elements in key positions — the paper's
    /// <u>key</u>`(R(t̄)) = R(t̄)[K]`.
    pub fn key_set(&self, sig: &Signature) -> BTreeSet<Elem> {
        self.as_fact_ref().key_set(sig)
    }

    /// The active domain of the fact — the paper's `adom(a) = a[S]`.
    pub fn adom(&self) -> BTreeSet<Elem> {
        self.as_fact_ref().adom()
    }

    /// Key-equality `a ∼ b`: same relation and identical key tuples.
    pub fn key_equal<'b>(&self, other: impl Into<FactRef<'b>>, sig: &Signature) -> bool {
        self.as_fact_ref().key_equal(other, sig)
    }
}

impl<'a> FactRef<'a> {
    /// The fact over relation `rel` with the elements `tuple`.
    pub fn new(rel: RelId, tuple: &'a [Elem]) -> FactRef<'a> {
        FactRef { rel, tuple }
    }

    /// An owned copy of this fact.
    pub fn to_fact(self) -> Fact {
        Fact::new(self.rel, self.tuple)
    }

    /// The relation symbol of this fact.
    pub fn rel(self) -> RelId {
        self.rel
    }

    /// The arity of this fact's tuple.
    pub fn arity(self) -> usize {
        self.tuple.len()
    }

    /// The full tuple.
    pub fn tuple(self) -> &'a [Elem] {
        self.tuple
    }

    /// The element at position `i` (0-based).
    pub fn at(self, i: usize) -> Elem {
        self.tuple[i]
    }

    /// The key tuple: the first `sig.key_len()` elements.
    ///
    /// # Panics
    /// Panics if the signature arity does not match the fact's arity —
    /// mixing signatures is a logic error, not a recoverable condition.
    pub fn key(self, sig: &Signature) -> &'a [Elem] {
        assert_eq!(
            self.arity(),
            sig.arity(),
            "fact arity does not match signature"
        );
        &self.tuple[..sig.key_len()]
    }

    /// The *set* of elements in key positions.
    pub fn key_set(self, sig: &Signature) -> BTreeSet<Elem> {
        self.key(sig).iter().copied().collect()
    }

    /// The active domain of the fact.
    pub fn adom(self) -> BTreeSet<Elem> {
        self.tuple.iter().copied().collect()
    }

    /// Key-equality `a ∼ b`: same relation and identical key tuples.
    pub fn key_equal<'b>(self, other: impl Into<FactRef<'b>>, sig: &Signature) -> bool {
        let other = other.into();
        self.rel == other.rel && self.key(sig) == other.key(sig)
    }
}

impl<'a> From<&'a Fact> for FactRef<'a> {
    fn from(fact: &'a Fact) -> FactRef<'a> {
        fact.as_fact_ref()
    }
}

impl PartialEq<Fact> for FactRef<'_> {
    fn eq(&self, other: &Fact) -> bool {
        *self == other.as_fact_ref()
    }
}

impl PartialEq<FactRef<'_>> for Fact {
    fn eq(&self, other: &FactRef<'_>) -> bool {
        self.as_fact_ref() == *other
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_fact_ref(), f)
    }
}

impl fmt::Debug for FactRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for FactRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, e) in self.tuple.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: &str) -> Elem {
        Elem::named(s)
    }

    #[test]
    fn key_and_adom_match_paper_example() {
        // Paper, Section 2: R has signature [5, 3] and the fact analogue of
        // A = R(x y x ; y z) has key (x, y, x), key-set {x, y},
        // vars {x, y, z}.
        let sig = Signature::new(5, 3).unwrap();
        let fact = Fact::r(vec![e("x"), e("y"), e("x"), e("y"), e("z")]);
        assert_eq!(fact.key(&sig), &[e("x"), e("y"), e("x")]);
        assert_eq!(fact.key_set(&sig), [e("x"), e("y")].into_iter().collect());
        assert_eq!(fact.adom(), [e("x"), e("y"), e("z")].into_iter().collect());
    }

    #[test]
    fn key_equality_requires_same_relation() {
        let sig = Signature::new(2, 1).unwrap();
        let a = Fact::new(RelId::R1, vec![e("k"), e("v1")]);
        let b = Fact::new(RelId::R2, vec![e("k"), e("v2")]);
        let c = Fact::new(RelId::R1, vec![e("k"), e("v3")]);
        assert!(!a.key_equal(&b, &sig));
        assert!(a.key_equal(&c, &sig));
        assert!(a.key_equal(&a, &sig));
    }

    #[test]
    fn key_equality_on_full_key() {
        let sig = Signature::new(2, 2).unwrap();
        let a = Fact::from_names(["k", "v"]);
        let b = Fact::from_names(["k", "w"]);
        assert!(!a.key_equal(&b, &sig));
    }

    #[test]
    fn empty_key_makes_everything_key_equal() {
        let sig = Signature::new(1, 0).unwrap();
        let a = Fact::from_names(["a"]);
        let b = Fact::from_names(["b"]);
        assert!(a.key_equal(&b, &sig));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn key_panics_on_arity_mismatch() {
        let sig = Signature::new(3, 1).unwrap();
        let a = Fact::from_names(["a", "b"]);
        let _ = a.key(&sig);
    }

    #[test]
    fn display() {
        let f = Fact::from_names(["a", "b"]);
        assert_eq!(f.to_string(), "R(a b)");
    }

    #[test]
    fn fact_ref_reads_like_its_fact() {
        let sig = Signature::new(2, 1).unwrap();
        let a = Fact::from_names(["k", "v"]);
        let b = Fact::from_names(["k", "w"]);
        let (ra, rb) = (a.as_fact_ref(), b.as_fact_ref());
        assert_eq!(ra, a);
        assert_eq!(ra.to_fact(), a);
        assert_eq!(ra.to_string(), a.to_string());
        assert_eq!(ra.cmp(&rb), a.cmp(&b));
        assert!(ra.key_equal(&b, &sig));
        assert_eq!(ra.key(&sig), a.key(&sig));
    }
}
