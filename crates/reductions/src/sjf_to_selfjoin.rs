//! Proposition 4.1: `certain(sjf(q)) ≤p certain(q)`.
//!
//! Given a database `D` over the two relations `R1`, `R2` of the canonical
//! self-join-free query `sjf(q)`, build `D′ = μ(D)` over `R`: every fact
//! `R1(ū)` maps to `R(v̄)` where position `i` of `v̄` is the pair
//! `⟨z, α⟩` of the *variable* `z` at position `i` of atom `A` and the
//! *element* `α = ū[i]` (and symmetrically `R2`/`B`). Then
//! `D ⊨ certain(sjf(q))` iff `D′ ⊨ certain(q)` — this is where the paper
//! uses that `q` is not equivalent to a one-atom query.

use cqa_model::{Database, Elem, Fact, FactRef, RelId};
use cqa_query::{Query, Var};

/// Tag a query variable as a domain element (kept distinct from user
/// elements by the `var:` namespace).
fn var_elem(v: &Var) -> Elem {
    Elem::named(format!("var:{}", v.name()))
}

/// The fact-level map `μ` of Proposition 4.1. `q` must be the *self-join*
/// query; facts over `R1` are annotated with atom `A`'s variables, facts
/// over `R2` with atom `B`'s.
///
/// # Panics
/// Panics if a fact uses a relation other than `R1`/`R2` or has the wrong
/// arity.
pub fn mu<'f>(q: &Query, fact: impl Into<FactRef<'f>>) -> Fact {
    let fact = fact.into();
    assert_eq!(fact.arity(), q.signature().arity(), "arity mismatch in μ");
    let atom = match fact.rel() {
        RelId::R1 => q.a(),
        RelId::R2 => q.b(),
        other => panic!("μ expects R1/R2 facts, got {other}"),
    };
    let tuple: Vec<Elem> = (0..fact.arity())
        .map(|i| Elem::pair(var_elem(atom.at(i)), fact.at(i)))
        .collect();
    Fact::new(RelId::R, tuple)
}

/// Apply the reduction to a whole database over `R1`/`R2`.
pub fn reduce_database(q: &Query, db: &Database) -> Database {
    let mut out = Database::new(*q.signature());
    for (_, fact) in db.facts() {
        out.insert(mu(q, fact)).expect("same signature");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::Signature;
    use cqa_query::examples;
    use cqa_solvers::certain_brute;

    fn sjf_db(q: &Query, r1: &[&[&str]], r2: &[&[&str]]) -> Database {
        let mut db = Database::new(*q.signature());
        for row in r1 {
            let t: Vec<Elem> = row.iter().map(|s| Elem::named(*s)).collect();
            db.insert(Fact::new(RelId::R1, t)).unwrap();
        }
        for row in r2 {
            let t: Vec<Elem> = row.iter().map(|s| Elem::named(*s)).collect();
            db.insert(Fact::new(RelId::R2, t)).unwrap();
        }
        db
    }

    #[test]
    fn mu_preserves_blocks() {
        // Key-equal facts stay key-equal; facts of different relations land
        // in different blocks even with identical tuples.
        let q = examples::q2();
        let sig = Signature::new(4, 2).unwrap();
        let a1 = Fact::new(RelId::R1, ["k1", "k2", "p", "q"].map(Elem::named).to_vec());
        let a2 = Fact::new(RelId::R1, ["k1", "k2", "r", "s"].map(Elem::named).to_vec());
        let b1 = Fact::new(RelId::R2, ["k1", "k2", "p", "q"].map(Elem::named).to_vec());
        assert!(mu(&q, &a1).key_equal(&mu(&q, &a2), &sig));
        assert!(!mu(&q, &a1).key_equal(&mu(&q, &b1), &sig));
        assert_eq!(mu(&q, &a1).rel(), RelId::R);
    }

    #[test]
    fn reduction_preserves_certainty_both_ways() {
        // q2's sjf: R1(x u | x y) R2(u y | x z). Build small instances and
        // compare brute-force certainty before/after μ.
        let q = examples::q2();
        let sjf = q.sjf();
        // Instance 1: a matching pair -> certain on the single repair.
        let d1 = sjf_db(&q, &[&["a", "b", "a", "c"]], &[&["b", "c", "a", "d"]]);
        // Instance 2: key-equal alternative kills the join in one repair.
        let d2 = sjf_db(
            &q,
            &[&["a", "b", "a", "c"], &["a", "b", "q", "q"]],
            &[&["b", "c", "a", "d"]],
        );
        // Instance 3: no solutions at all.
        let d3 = sjf_db(&q, &[&["a", "b", "a", "c"]], &[&["z", "z", "z", "z"]]);
        for (name, d) in [("pair", d1), ("blocked", d2), ("disjoint", d3)] {
            let before = certain_brute(&sjf, &d);
            let after = certain_brute(&q, &reduce_database(&q, &d));
            assert_eq!(before, after, "Prop 4.1 violated on instance {name}");
        }
    }

    #[test]
    #[should_panic(expected = "R1/R2")]
    fn mu_rejects_selfjoin_facts() {
        let q = examples::q2();
        let f = Fact::from_names(["a", "b", "a", "c"]);
        let _ = mu(&q, &f);
    }
}
