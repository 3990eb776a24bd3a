//! The tripath data structure (Section 7) and its validating checker.
//!
//! A *tripath* of `q` is a database `Θ` whose blocks form a rooted tree:
//! a path from the *root block* down to the unique *branching block*, which
//! has exactly two children, each starting a path ending in a *leaf block*.
//! The root holds one fact `a(B₀)`, the leaves one fact `b(B)` each, every
//! other block exactly two key-equal facts `a(B) ≠ b(B)`; every parent/child
//! pair is connected by a solution `q{a(parent) b(child)}`; the branching
//! fact `e = a(branching)` forms `q(d e) ∧ q(e f)` with the children's
//! `b`-facts, and the *center* `d e f` determines `g(e)` whose elements must
//! not cover the keys of the root and leaf facts.
//!
//! The checker here is written straight from the definition and is fully
//! independent of the search code — every witness the search produces is
//! re-validated through it.

use cqa_model::{Database, Elem, Fact, FactRef};
use cqa_query::{is_solution, is_solution_unordered, Query};
use std::collections::BTreeSet;

/// One block of a tripath, in tree position.
#[derive(Clone, Debug)]
pub struct TpBlock {
    /// The `a(B)` fact — present except in leaf blocks.
    pub a: Option<Fact>,
    /// The `b(B)` fact — present except in the root block.
    pub b: Option<Fact>,
    /// Parent block index; `None` exactly for the root.
    pub parent: Option<usize>,
}

/// Fork or triangle (Section 7): the center `d e f` is a *triangle* when
/// `q(f d)` also holds, a *fork* otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripathKind {
    /// Center without `q(f d)` — the coNP-hard witness shape (Section 9).
    Fork,
    /// Center with `q(f d)` — the `matching(q)` territory (Section 10).
    Triangle,
}

/// A candidate tripath: blocks plus tree structure. Use
/// [`Tripath::validate`] to check it really is one.
#[derive(Clone, Debug)]
pub struct Tripath {
    /// Blocks; index 0 must be the root.
    pub blocks: Vec<TpBlock>,
}

/// Why a candidate failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TripathError(pub String);

impl std::fmt::Display for TripathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid tripath: {}", self.0)
    }
}

impl std::error::Error for TripathError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TripathError> {
    Err(TripathError(msg.into()))
}

/// The validated center of a tripath.
#[derive(Clone, Debug)]
pub struct Center {
    /// `d` — the child `b`-fact with `q(d e)`.
    pub d: Fact,
    /// `e` — the branching fact `a(branching)`.
    pub e: Fact,
    /// `f` — the child `b`-fact with `q(e f)`.
    pub f: Fact,
    /// The element set `g(e)`.
    pub g: BTreeSet<Elem>,
}

/// Compute `g(e)` for a branching triple `d e f` (Section 7's five-case
/// definition of `ḡ(e)`, collapsed to the element set).
pub fn g_of_center<'a, 'b, 'c>(
    q: &Query,
    d: impl Into<FactRef<'a>>,
    e: impl Into<FactRef<'b>>,
    f: impl Into<FactRef<'c>>,
) -> BTreeSet<Elem> {
    let sig = q.signature();
    let (d, e, f) = (d.into(), e.into(), f.into());
    let kd = d.key_set(sig);
    let ke = e.key_set(sig);
    let kf = f.key_set(sig);
    let d_in_e = kd.is_subset(&ke);
    let f_in_e = kf.is_subset(&ke);
    if d_in_e && !f_in_e {
        kd
    } else if !d_in_e && f_in_e {
        kf
    } else if kd.is_subset(&kf) && f_in_e {
        // key(d) ⊆ key(f) ⊆ key(e)
        kd
    } else if kf.is_subset(&kd) && d_in_e {
        // key(f) ⊆ key(d) ⊆ key(e)
        kf
    } else {
        ke
    }
}

impl Tripath {
    /// All facts of the tripath.
    pub fn facts(&self) -> Vec<Fact> {
        let mut out = Vec::new();
        for b in &self.blocks {
            out.extend(b.a.iter().cloned());
            out.extend(b.b.iter().cloned());
        }
        out
    }

    /// The tripath as a standalone database.
    pub fn database(&self, q: &Query) -> Database {
        let mut db = Database::new(*q.signature());
        for fact in self.facts() {
            db.insert(fact)
                .expect("tripath facts share the query signature");
        }
        db
    }

    /// Children of each block.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            if let Some(p) = b.parent {
                ch[p].push(i);
            }
        }
        ch
    }

    /// Index of the branching block (the unique block with two children).
    pub fn branching_index(&self) -> Option<usize> {
        self.children().iter().position(|c| c.len() == 2)
    }

    /// The root fact `u₀` and leaf facts `u₁`, `u₂`.
    pub fn extremal_facts(&self) -> Result<(Fact, Fact, Fact), TripathError> {
        let children = self.children();
        let root = match self.blocks.first() {
            Some(b) if b.parent.is_none() => b,
            _ => return err("block 0 must be the root"),
        };
        let u0 = root
            .a
            .clone()
            .ok_or(TripathError("root lacks a(B)".into()))?;
        let leaves: Vec<&TpBlock> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| children[*i].is_empty())
            .map(|(_, b)| b)
            .collect();
        if leaves.len() != 2 {
            return err(format!("expected 2 leaves, found {}", leaves.len()));
        }
        let u1 = leaves[0]
            .b
            .clone()
            .ok_or(TripathError("leaf lacks b(B)".into()))?;
        let u2 = leaves[1]
            .b
            .clone()
            .ok_or(TripathError("leaf lacks b(B)".into()))?;
        Ok((u0, u1, u2))
    }

    /// Validate against the full Section 7 definition; returns the kind and
    /// center on success.
    pub fn validate(&self, q: &Query) -> Result<(TripathKind, Center), TripathError> {
        let sig = q.signature();
        let n = self.blocks.len();
        if n < 4 {
            return err("a tripath needs at least root, branching and two leaves");
        }

        // --- tree shape -------------------------------------------------
        if self.blocks[0].parent.is_some() {
            return err("block 0 must be the root (no parent)");
        }
        for (i, b) in self.blocks.iter().enumerate().skip(1) {
            match b.parent {
                None => return err(format!("block {i} is a second root")),
                Some(p) if p >= n => return err(format!("block {i} has dangling parent")),
                Some(_) => {}
            }
        }
        // Reachability (also rules out cycles since each non-root has one parent).
        for (i, _) in self.blocks.iter().enumerate() {
            let mut cur = i;
            let mut steps = 0;
            while let Some(p) = self.blocks[cur].parent {
                cur = p;
                steps += 1;
                if steps > n {
                    return err("parent pointers contain a cycle");
                }
            }
            if cur != 0 {
                return err(format!("block {i} not connected to the root"));
            }
        }
        let children = self.children();
        let branching = match children.iter().filter(|c| c.len() >= 2).count() {
            1 => children
                .iter()
                .position(|c| c.len() == 2)
                .ok_or(TripathError("a block has more than two children".into()))?,
            k => return err(format!("expected exactly 1 branching block, found {k}")),
        };
        let leaf_count = children.iter().filter(|c| c.is_empty()).count();
        if leaf_count != 2 {
            return err(format!(
                "expected exactly 2 leaf blocks, found {leaf_count}"
            ));
        }
        if branching == 0 || children[branching].is_empty() {
            return err("branching block must be internal");
        }

        // --- fact placement ----------------------------------------------
        for (i, b) in self.blocks.iter().enumerate() {
            let is_root = i == 0;
            let is_leaf = children[i].is_empty();
            match (is_root, is_leaf) {
                (true, _) => {
                    if b.a.is_none() || b.b.is_some() {
                        return err("root must hold exactly a(B)");
                    }
                }
                (_, true) => {
                    if b.b.is_none() || b.a.is_some() {
                        return err(format!("leaf {i} must hold exactly b(B)"));
                    }
                }
                _ => {
                    let (a, bb) = match (&b.a, &b.b) {
                        (Some(a), Some(bb)) => (a, bb),
                        _ => return err(format!("internal block {i} must hold a(B) and b(B)")),
                    };
                    if a == bb {
                        return err(format!("block {i}: a(B) and b(B) must differ"));
                    }
                    if !a.key_equal(bb, sig) {
                        return err(format!("block {i}: a(B) and b(B) must be key-equal"));
                    }
                }
            }
        }

        // --- blocks are pairwise distinct ---------------------------------
        let key_of = |b: &TpBlock| -> Vec<Elem> {
            let f = b.a.as_ref().or(b.b.as_ref()).expect("checked above");
            f.key(sig).to_vec()
        };
        for i in 0..n {
            for j in (i + 1)..n {
                if self.blocks[i]
                    .a
                    .as_ref()
                    .or(self.blocks[i].b.as_ref())
                    .map(|f| f.rel())
                    == self.blocks[j]
                        .a
                        .as_ref()
                        .or(self.blocks[j].b.as_ref())
                        .map(|f| f.rel())
                    && key_of(&self.blocks[i]) == key_of(&self.blocks[j])
                {
                    return err(format!("blocks {i} and {j} collapse (same key)"));
                }
            }
        }

        // --- parent/child solutions ---------------------------------------
        for (i, b) in self.blocks.iter().enumerate() {
            if let Some(p) = b.parent {
                let ap = self.blocks[p]
                    .a
                    .as_ref()
                    .ok_or_else(|| TripathError(format!("parent {p} lacks a(B)")))?;
                let bb =
                    b.b.as_ref()
                        .ok_or_else(|| TripathError(format!("block {i} lacks b(B)")))?;
                if !is_solution_unordered(q, ap, bb) {
                    return err(format!("no solution q{{a({p}) b({i})}}"));
                }
            }
        }

        // --- center -------------------------------------------------------
        let e = self.blocks[branching]
            .a
            .clone()
            .expect("internal block has a(B)");
        let c1 = self.blocks[children[branching][0]]
            .b
            .clone()
            .expect("child has b(B)");
        let c2 = self.blocks[children[branching][1]]
            .b
            .clone()
            .expect("child has b(B)");
        let (d, f) = if is_solution(q, &c1, &e) && is_solution(q, &e, &c2) {
            (c1, c2)
        } else if is_solution(q, &c2, &e) && is_solution(q, &e, &c1) {
            (c2, c1)
        } else {
            return err("branching fact is not branching: need q(d e) ∧ q(e f)");
        };

        // --- g(e) conditions ----------------------------------------------
        let g = g_of_center(q, &d, &e, &f);
        let (u0, u1, u2) = self.extremal_facts()?;
        for (name, u) in [("u0", &u0), ("u1", &u1), ("u2", &u2)] {
            if g.is_subset(&u.key_set(sig)) {
                return err(format!("g(e) ⊆ key({name})"));
            }
        }

        let kind = if is_solution(q, &f, &d) {
            TripathKind::Triangle
        } else {
            TripathKind::Fork
        };
        Ok((kind, Center { d, e, f, g }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::Fact;
    use cqa_query::examples;

    fn f4(names: [&str; 4]) -> Fact {
        Fact::from_names(names)
    }

    #[test]
    fn g_of_center_cases() {
        let q = examples::q2();
        // Case "else": keys pairwise incomparable → g = key(e).
        let d = f4(["a", "b", "x", "x"]);
        let e = f4(["c", "d", "x", "x"]);
        let f = f4(["e", "f", "x", "x"]);
        assert_eq!(g_of_center(&q, &d, &e, &f), e.key_set(q.signature()));
        // Case 1: key(d) ⊆ key(e), key(f) ⊄ key(e) → g = key(d).
        let d = f4(["a", "a", "x", "x"]);
        let e = f4(["a", "b", "x", "x"]);
        let f = f4(["c", "d", "x", "x"]);
        assert_eq!(g_of_center(&q, &d, &e, &f), d.key_set(q.signature()));
        // Case 2 (symmetric).
        let d = f4(["c", "d", "x", "x"]);
        let f = f4(["a", "a", "x", "x"]);
        assert_eq!(g_of_center(&q, &d, &e, &f), f.key_set(q.signature()));
        // Case 3: key(d) ⊆ key(f) ⊆ key(e) → g = key(d).
        let d = f4(["a", "a", "x", "x"]);
        let f = f4(["a", "b", "x", "x"]);
        let e = f4(["a", "b", "x", "x"]); // key {a,b}
        assert_eq!(g_of_center(&q, &d, &e, &f), d.key_set(q.signature()));
    }

    #[test]
    fn rejects_tiny_structures() {
        let t = Tripath { blocks: vec![] };
        assert!(t.validate(&examples::q2()).is_err());
    }

    #[test]
    fn rejects_two_roots() {
        let mk = |parent| TpBlock {
            a: Some(f4(["a", "b", "a", "a"])),
            b: Some(f4(["a", "b", "c", "c"])),
            parent,
        };
        let t = Tripath {
            blocks: vec![mk(None), mk(None), mk(Some(0)), mk(Some(0))],
        };
        assert!(t.validate(&examples::q2()).is_err());
    }
}
