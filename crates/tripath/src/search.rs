//! Tripath existence search (classification side of Sections 8–10).
//!
//! For a 2way-determined query the search enumerates candidate centers
//! (most-general unification plus element merges), chases the three arms
//! most-generally until they may legally terminate (`g(e) ⊈ key`), and
//! assembles + re-validates full tripaths. Every returned witness is a
//! genuine tripath (checked by the independent validator); absence results
//! carry a completeness flag because the arm chase is bounded.

use crate::center::{center_candidates, CenterCandidate};
use crate::chase::{arm_chains, ArmChain, ArmConfig};
use crate::structure::{TpBlock, Tripath, TripathKind};
use cqa_model::Elem;
use cqa_query::conditions::is_2way_determined;
use cqa_query::Query;
use std::collections::HashSet;

/// Limits for [`search_tripaths`].
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Enumerate the full partition lattice of center elements when the
    /// center has at most this many distinct elements; otherwise fall back
    /// to identity + pairwise merges.
    pub full_partition_limit: usize,
    /// Per-arm chase limits.
    pub arm: ArmConfig,
    /// Maximum number of centers examined.
    pub max_centers: usize,
    /// Maximum number of arm-chain combinations assembled per center.
    pub max_assemblies: usize,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            full_partition_limit: 7,
            arm: ArmConfig::default(),
            max_centers: 4_000,
            max_assemblies: 512,
        }
    }
}

/// Outcome of the existence search.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// A fork-tripath witness, if found.
    pub fork: Option<Tripath>,
    /// A triangle-tripath witness, if found.
    pub triangle: Option<Tripath>,
    /// `true` when some budget was hit, so "not found" is bounded evidence
    /// rather than proof.
    pub exhausted: bool,
}

/// Assemble a tripath from a center and three terminating arm chains.
/// `up` walks from the branching block to the root and must be non-empty;
/// `down_d` / `down_f` walk from the children blocks (holding `d` / `f`) to
/// the leaves. Returns `None` when block keys collide.
pub fn assemble_tripath(
    q: &Query,
    center: &CenterCandidate,
    up: &ArmChain,
    down_d: &ArmChain,
    down_f: &ArmChain,
) -> Option<Tripath> {
    let sig = q.signature();
    if up.steps.is_empty() {
        return None; // the branching block always has a parent
    }
    let mut blocks: Vec<TpBlock> = Vec::new();

    // Root: the last frontier of the up chain.
    let n_up = up.steps.len();
    blocks.push(TpBlock {
        a: Some(up.steps[n_up - 1].frontier.clone()),
        b: None,
        parent: None,
    });
    // Spine below the root: step i (from the inside out) produced
    // (partner b_i ~ previous frontier). Walking root → branching:
    // intermediate block j holds a = steps[j].frontier's … simpler to walk
    // from branching outwards and fix parents afterwards.
    //
    // Up-chain semantics: starting at e (a-fact of branching), step 0 adds
    // partner b₀ = b(branching) and frontier a₁ = a(next block up);
    // step i adds partner b_i = b(block of a_i) and frontier a_{i+1}.
    // The final frontier is the root's a-fact.
    //
    // Build spine blocks from the top: root, then for i = n_up-1 … 1 the
    // block {a: steps[i-1].frontier, b: steps[i].partner}, then branching.
    for i in (1..n_up).rev() {
        let parent = blocks.len() - 1;
        blocks.push(TpBlock {
            a: Some(up.steps[i - 1].frontier.clone()),
            b: Some(up.steps[i].partner.clone()),
            parent: Some(parent),
        });
    }
    // Branching block: {a: e, b: steps[0].partner}.
    let branching_idx = blocks.len();
    blocks.push(TpBlock {
        a: Some(center.e.clone()),
        b: Some(up.steps[0].partner.clone()),
        parent: Some(branching_idx - 1),
    });

    // Down arms: starting fact sits in the child block.
    for (start, chain) in [(&center.d, down_d), (&center.f, down_f)] {
        let mut parent = branching_idx;
        if chain.steps.is_empty() {
            blocks.push(TpBlock {
                a: None,
                b: Some(start.clone()),
                parent: Some(parent),
            });
            continue;
        }
        // Child block: {b: start, a: steps[0].partner}.
        blocks.push(TpBlock {
            a: Some(chain.steps[0].partner.clone()),
            b: Some(start.clone()),
            parent: Some(parent),
        });
        parent = blocks.len() - 1;
        for i in 1..chain.steps.len() {
            blocks.push(TpBlock {
                a: Some(chain.steps[i].partner.clone()),
                b: Some(chain.steps[i - 1].frontier.clone()),
                parent: Some(parent),
            });
            parent = blocks.len() - 1;
        }
        let leaf = chain.steps.last().expect("nonempty").frontier.clone();
        blocks.push(TpBlock {
            a: None,
            b: Some(leaf),
            parent: Some(parent),
        });
    }

    // Distinct blocks: reject key collisions early.
    let mut keys: HashSet<Vec<Elem>> = HashSet::new();
    for b in &blocks {
        let fact =
            b.a.as_ref()
                .or(b.b.as_ref())
                .expect("every block holds a fact");
        if !keys.insert(fact.key(sig).to_vec()) {
            return None;
        }
    }
    Some(Tripath { blocks })
}

/// Enumerate assembled, validated tripaths for one center, passing each to
/// `sink`; `sink` returns `true` to stop early.
fn for_each_assembly(
    q: &Query,
    center: &CenterCandidate,
    cfg: &SearchConfig,
    exhausted: &mut bool,
    mut sink: impl FnMut(Tripath, TripathKind) -> bool,
) -> bool {
    let sig = q.signature();
    let used: HashSet<Vec<Elem>> = [&center.d, &center.e, &center.f]
        .into_iter()
        .map(|f| f.key(sig).to_vec())
        .collect();
    let up = arm_chains(q, &center.e, &center.g, &used, cfg.arm);
    let dd = arm_chains(q, &center.d, &center.g, &used, cfg.arm);
    let df = arm_chains(q, &center.f, &center.g, &used, cfg.arm);
    *exhausted |= !(up.complete && dd.complete && df.complete);
    let ups: Vec<&ArmChain> = up.chains.iter().filter(|c| !c.steps.is_empty()).collect();
    let mut assemblies = 0usize;
    for u in &ups {
        for d_chain in &dd.chains {
            for f_chain in &df.chains {
                assemblies += 1;
                if assemblies > cfg.max_assemblies {
                    *exhausted = true;
                    return false;
                }
                if let Some(tp) = assemble_tripath(q, center, u, d_chain, f_chain) {
                    if let Ok((kind, _)) = tp.validate(q) {
                        if sink(tp, kind) {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// Search for fork- and triangle-tripaths of a 2way-determined query.
///
/// # Panics
/// Panics when `q` is not 2way-determined — tripaths are only defined
/// (and only needed) for that class.
pub fn search_tripaths(q: &Query, cfg: &SearchConfig) -> SearchOutcome {
    assert!(
        is_2way_determined(q),
        "tripath search requires a 2way-determined query"
    );
    let mut outcome = SearchOutcome::default();
    let centers = center_candidates(q, cfg.full_partition_limit);
    if centers.len() > cfg.max_centers {
        outcome.exhausted = true;
    }
    for center in centers.iter().take(cfg.max_centers) {
        let want_fork = !center.triangle && outcome.fork.is_none();
        let want_triangle = center.triangle && outcome.triangle.is_none();
        if !want_fork && !want_triangle {
            continue;
        }
        let mut exhausted = outcome.exhausted;
        for_each_assembly(q, center, cfg, &mut exhausted, |tp, kind| {
            match kind {
                TripathKind::Fork if outcome.fork.is_none() => outcome.fork = Some(tp),
                TripathKind::Triangle if outcome.triangle.is_none() => outcome.triangle = Some(tp),
                _ => {}
            }
            outcome.fork.is_some() && outcome.triangle.is_some()
        });
        outcome.exhausted = exhausted;
        if outcome.fork.is_some() && outcome.triangle.is_some() {
            break;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::examples;

    #[test]
    fn q2_admits_a_fork_tripath() {
        let out = search_tripaths(&examples::q2(), &SearchConfig::default());
        let fork = out.fork.expect("q2 admits a fork-tripath (Section 9)");
        let (kind, center) = fork.validate(&examples::q2()).unwrap();
        assert_eq!(kind, TripathKind::Fork);
        assert_eq!(center.g.len(), 1);
    }

    #[test]
    fn q5_admits_no_tripath() {
        let out = search_tripaths(&examples::q5(), &SearchConfig::default());
        assert!(out.fork.is_none(), "q5 admits no tripath (Section 8)");
        assert!(out.triangle.is_none());
        assert!(
            !out.exhausted,
            "q5's absence should be budget-independent (no center)"
        );
    }

    #[test]
    fn q6_admits_triangle_but_no_fork() {
        let out = search_tripaths(&examples::q6(), &SearchConfig::default());
        assert!(
            out.triangle.is_some(),
            "q6 admits a triangle-tripath (Section 10)"
        );
        let (kind, _) = out
            .triangle
            .as_ref()
            .unwrap()
            .validate(&examples::q6())
            .unwrap();
        assert_eq!(kind, TripathKind::Triangle);
        assert!(
            out.fork.is_none(),
            "q6 admits no fork-tripath (Theorem 10.4 discussion)"
        );
    }

    #[test]
    #[should_panic(expected = "2way-determined")]
    fn rejects_non_2way_determined_queries() {
        let _ = search_tripaths(&examples::q3(), &SearchConfig::default());
    }
}
