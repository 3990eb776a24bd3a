//! Niceness (Section 7's normal form, Proposition 7.2) and the witness
//! data the Section 9 reduction consumes.
//!
//! A tripath `Θ` with center `d e f`, root fact `u₀` and leaf facts
//! `u₁, u₂` is *nice* when:
//!
//! 1. **variable-nice** — some `x ∈ key(d)`, `y ∈ key(e)`, `z ∈ key(f)`
//!    avoid `key(u₀) ∪ key(u₁) ∪ key(u₂)` entirely;
//! 2. **solution-nice** — the only solutions in `Θ` are the parent/child
//!    ones the definition enforces, plus possibly `q(f d)` (the triangle);
//! 3. some element of `{x, y, z}` occurs in the key of *every* fact except
//!    `u₀, u₁, u₂`;
//! 4. each of `key(u₀), key(u₁), key(u₂)` contains an element occurring in
//!    no other fact's key.
//!
//! Instead of implementing the full normalisation proof of Proposition 7.2,
//! the search already produces many candidate tripaths (center refinements
//! × arm variants × arm extensions); [`find_nice_fork`] filters them
//! through this checker — on the paper's fork query `q2` this reproduces a
//! Figure-1c-style nice tripath.

use crate::search::SearchConfig;
use crate::structure::{Tripath, TripathKind};
use cqa_model::{Elem, Fact};
use cqa_query::{is_solution_unordered, Query};
use cqa_solvers::SolutionSet;
use std::collections::BTreeSet;

/// The witness elements of a nice tripath, named as in Section 9.
#[derive(Clone, Debug)]
pub struct NiceWitness {
    /// `x ∈ key(d)` avoiding the extremal keys.
    pub x: Elem,
    /// `y ∈ key(e)` avoiding the extremal keys.
    pub y: Elem,
    /// `z ∈ key(f)` avoiding the extremal keys.
    pub z: Elem,
    /// The private key element of the root fact `u₀`.
    pub u: Elem,
    /// The private key element of the `d`-side leaf fact `u₁`.
    pub v: Elem,
    /// The private key element of the `f`-side leaf fact `u₂`.
    pub w: Elem,
    /// The root fact.
    pub u0: Fact,
    /// The `d`-side leaf fact.
    pub u1: Fact,
    /// The `f`-side leaf fact.
    pub u2: Fact,
}

/// Check all four niceness conditions; returns the reduction witnesses on
/// success, or a human-readable reason on failure.
pub fn check_nice(q: &Query, tp: &Tripath) -> Result<NiceWitness, String> {
    let sig = q.signature();
    let (kind, center) = tp.validate(q).map_err(|e| e.to_string())?;
    let (u0, leaf_a, leaf_b) = tp.extremal_facts().map_err(|e| e.to_string())?;

    // Orient the leaves: u1 ends the arm below d, u2 the arm below f.
    let (u1, u2) = orient_leaves(q, tp, &center.d, leaf_a, leaf_b)?;

    // --- solution-nice -------------------------------------------------
    let db = tp.database(q);
    let sols = SolutionSet::enumerate(q, &db);
    let mut allowed: BTreeSet<(Fact, Fact)> = BTreeSet::new();
    for (i, b) in tp.blocks.iter().enumerate() {
        if let Some(p) = b.parent {
            let ap = tp.blocks[p].a.clone().expect("validated");
            let bb = b.b.clone().expect("validated");
            allowed.insert(ordered(ap, bb));
        }
        let _ = i;
    }
    allowed.insert(ordered(center.f.clone(), center.d.clone()));
    for (ia, ib) in sols.pairs() {
        let pair = ordered(db.fact(ia).to_fact(), db.fact(ib).to_fact());
        if !allowed.contains(&pair) {
            return Err(format!(
                "extra solution {{{} {}}} breaks solution-niceness",
                pair.0, pair.1
            ));
        }
    }
    if kind == TripathKind::Fork
        && sols
            .pairs()
            .any(|(ia, ib)| db.fact(ia) == center.f && db.fact(ib) == center.d)
    {
        return Err("fork center unexpectedly closes into a triangle".into());
    }

    // --- variable-nice + condition 3 ------------------------------------
    let extremal_keys: BTreeSet<Elem> = [&u0, &u1, &u2]
        .into_iter()
        .flat_map(|f| f.key_set(sig))
        .collect();
    let internal_facts: Vec<Fact> = tp
        .facts()
        .into_iter()
        .filter(|f| f != &u0 && f != &u1 && f != &u2)
        .collect();
    let mut chosen: Option<(Elem, Elem, Elem)> = None;
    'outer: for &x in center.d.key_set(sig).iter() {
        if extremal_keys.contains(&x) {
            continue;
        }
        for &y in center.e.key_set(sig).iter() {
            if extremal_keys.contains(&y) {
                continue;
            }
            for &z in center.f.key_set(sig).iter() {
                if extremal_keys.contains(&z) {
                    continue;
                }
                // Condition 3: one of x, y, z in every internal key.
                let covers = |e: Elem| internal_facts.iter().all(|f| f.key_set(sig).contains(&e));
                if covers(x) || covers(y) || covers(z) {
                    chosen = Some((x, y, z));
                    break 'outer;
                }
            }
        }
    }
    let Some((x, y, z)) = chosen else {
        return Err("no variable-nice witnesses satisfying condition 3".into());
    };

    // --- condition 4: private key elements ------------------------------
    let private = |target: &Fact| -> Option<Elem> {
        let others: BTreeSet<Elem> = tp
            .facts()
            .iter()
            .filter(|f| *f != target)
            .flat_map(|f| f.key_set(sig))
            .collect();
        // Prefer elements occurring nowhere else at all (stronger than the
        // paper's key-only requirement; the substitution of Section 9 is
        // cleaner for them).
        let anywhere: BTreeSet<Elem> = tp
            .facts()
            .iter()
            .filter(|f| *f != target)
            .flat_map(|f| f.adom())
            .collect();
        let key = target.key_set(sig);
        key.iter()
            .copied()
            .find(|e| !anywhere.contains(e))
            .or_else(|| key.iter().copied().find(|e| !others.contains(e)))
    };
    let u = private(&u0).ok_or("root fact has no private key element (condition 4)")?;
    let v = private(&u1).ok_or("d-leaf has no private key element (condition 4)")?;
    let w = private(&u2).ok_or("f-leaf has no private key element (condition 4)")?;

    Ok(NiceWitness {
        x,
        y,
        z,
        u,
        v,
        w,
        u0,
        u1,
        u2,
    })
}

fn ordered(a: Fact, b: Fact) -> (Fact, Fact) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Decide which leaf terminates the arm containing `d`.
fn orient_leaves(
    _q: &Query,
    tp: &Tripath,
    d: &Fact,
    leaf_a: Fact,
    leaf_b: Fact,
) -> Result<(Fact, Fact), String> {
    // Walk up from each leaf to the branching block's child; the child
    // whose b-fact is d owns that leaf.
    let branching = tp.branching_index().ok_or("no branching block")?;
    let child_of = |leaf: &Fact| -> Option<usize> {
        let mut idx = tp
            .blocks
            .iter()
            .position(|b| b.b.as_ref() == Some(leaf) && b.a.is_none())?;
        loop {
            let parent = tp.blocks[idx].parent?;
            if parent == branching {
                return Some(idx);
            }
            idx = parent;
        }
    };
    let ca = child_of(&leaf_a).ok_or("leaf A not below branching")?;
    let cb = child_of(&leaf_b).ok_or("leaf B not below branching")?;
    let d_in_a = tp.blocks[ca].b.as_ref() == Some(d) || subtree_contains(tp, ca, d);
    let d_in_b = tp.blocks[cb].b.as_ref() == Some(d) || subtree_contains(tp, cb, d);
    match (d_in_a, d_in_b) {
        (true, false) => Ok((leaf_a, leaf_b)),
        (false, true) => Ok((leaf_b, leaf_a)),
        _ => Err("cannot orient leaves relative to d".into()),
    }
}

fn subtree_contains(tp: &Tripath, root: usize, fact: &Fact) -> bool {
    // Blocks are few; scan descendants.
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        let b = &tp.blocks[i];
        if b.a.as_ref() == Some(fact) || b.b.as_ref() == Some(fact) {
            return true;
        }
        for (j, c) in tp.blocks.iter().enumerate() {
            if c.parent == Some(i) {
                stack.push(j);
            }
        }
    }
    false
}

/// Search for a *nice fork-tripath* of `q` (the gadget Section 9 needs).
/// Iterates fork centers and arm-chain combinations, filtering through
/// [`check_nice`].
pub fn find_nice_fork(q: &Query, cfg: &SearchConfig) -> Option<(Tripath, NiceWitness)> {
    use crate::center::center_candidates;
    use crate::chase::arm_chains;
    use crate::search::assemble_tripath;

    let sig = q.signature();
    let centers = center_candidates(q, cfg.full_partition_limit);
    for center in centers.iter().take(cfg.max_centers) {
        if center.triangle {
            continue;
        }
        let used: std::collections::HashSet<Vec<Elem>> = [&center.d, &center.e, &center.f]
            .into_iter()
            .map(|f| f.key(sig).to_vec())
            .collect();
        let up = arm_chains(q, &center.e, &center.g, &used, cfg.arm);
        let dd = arm_chains(q, &center.d, &center.g, &used, cfg.arm);
        let df = arm_chains(q, &center.f, &center.g, &used, cfg.arm);
        let mut assemblies = 0usize;
        for u in up.chains.iter().filter(|c| !c.steps.is_empty()) {
            for d_chain in &dd.chains {
                for f_chain in &df.chains {
                    assemblies += 1;
                    if assemblies > cfg.max_assemblies {
                        break;
                    }
                    let Some(tp) = assemble_tripath(q, center, u, d_chain, f_chain) else {
                        continue;
                    };
                    if let Ok(witness) = check_nice(q, &tp) {
                        // Nice *fork*: the validator ran inside check_nice;
                        // re-derive the kind cheaply via the center facts.
                        if !is_solution_unordered(q, &center.f, &center.d) {
                            return Some((tp, witness));
                        }
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::search_tripaths;
    use cqa_query::examples;

    #[test]
    fn q2_has_a_nice_fork_tripath() {
        let q = examples::q2();
        let (tp, witness) = find_nice_fork(&q, &SearchConfig::default())
            .expect("q2 must admit a nice fork-tripath (Figure 1c)");
        let (kind, center) = tp.validate(&q).unwrap();
        assert_eq!(kind, TripathKind::Fork);
        // Witness sanity: x/y/z really come from the center keys and avoid
        // the extremal keys.
        let sig = q.signature();
        assert!(center.d.key_set(sig).contains(&witness.x));
        assert!(center.e.key_set(sig).contains(&witness.y));
        assert!(center.f.key_set(sig).contains(&witness.z));
        for uf in [&witness.u0, &witness.u1, &witness.u2] {
            let k = uf.key_set(sig);
            assert!(!k.contains(&witness.x));
            assert!(!k.contains(&witness.y));
            assert!(!k.contains(&witness.z));
        }
        // u, v, w are pairwise distinct and private.
        assert_ne!(witness.u, witness.v);
        assert_ne!(witness.v, witness.w);
        assert_ne!(witness.u, witness.w);
    }

    #[test]
    fn non_nice_tripath_is_rejected() {
        // The generic q2 search may return tripaths with extra solutions;
        // check_nice must reject exactly those. We verify the checker flags
        // at least the reasons it claims to check by feeding it a tripath
        // whose niceness we haven't arranged: any failure message is
        // acceptable, but success must imply solution-niceness.
        let q = examples::q2();
        let out = search_tripaths(&q, &SearchConfig::default());
        let tp = out.fork.expect("fork witness");
        match check_nice(&q, &tp) {
            Ok(_) => {
                // Then it must genuinely have no extra solutions.
                let db = tp.database(&q);
                let sols = cqa_solvers::SolutionSet::enumerate(&q, &db);
                // Enforced: one solution per non-root block + maybe (f, d).
                let enforced = tp.blocks.len() - 1;
                assert!(sols.len() <= enforced + 1);
            }
            Err(msg) => assert!(!msg.is_empty()),
        }
    }
}
