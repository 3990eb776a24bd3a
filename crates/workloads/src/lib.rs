//! # cqa-workloads — inconsistent-database generators
//!
//! Parameterised workload generators for the experiment harness and the
//! property tests:
//!
//! * [`RandomDbConfig`] — generic random inconsistent databases with
//!   controlled block count, block-size distribution and domain size;
//! * [`q3_chain_db`] / [`q3_certain_db`] — structured instances for the
//!   Theorem 6.1 scaling experiments;
//! * [`q6_triangle_grid`] and [`q6_certk_hard`] — clique-query instances,
//!   including the cycle-of-triangles family where `¬matching` is needed
//!   (Theorem 10.1 / Theorem 10.4 territory);
//! * [`q2_gadget_chain`] — fork-query instances with embedded solution
//!   chains;
//! * [`large`] — the million-fact regime: deterministic concurrent
//!   generators with controllable inconsistency ratio and block-width
//!   distribution, plus a streaming fact-file writer;
//! * [`queries`] — seeded random two-atom query fleets for the
//!   classifier → router → solver differential pipeline;
//! * [`deltas`] — seeded insert/retract scripts over a base database
//!   (touch-locality knob: same-block vs cross-component) for the
//!   incremental-update differential layer;
//! * [`skew`] — production-skew database families (Zipfian key
//!   popularity, heavy-hitter blocks, mixed certain/contested batches).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deltas;
pub mod large;
pub mod queries;
pub mod skew;

pub use deltas::{
    random_delta_ops, render_delta_script, split_delta_ops, DeltaLocality, DeltaOp,
    DeltaScriptConfig,
};
pub use queries::{
    derive_seed, random_distinct_queries, random_queries, random_query, GeneratedQuery,
    QueryGenConfig,
};
pub use skew::{skewed_db, SkewFamily, SkewedDbConfig};

pub use large::{
    large_contested_q3_db, large_q3_db, write_large_contested_q3, write_large_q3,
    ContestedWorkloadConfig, LargeWorkloadConfig, LargeWorkloadStats,
};

use cqa_model::{Database, Elem, Fact, Signature};
use cqa_query::Query;
use rand::Rng;

/// Parameters for generic random database generation.
#[derive(Clone, Copy, Debug)]
pub struct RandomDbConfig {
    /// Number of blocks to generate.
    pub blocks: usize,
    /// Maximum facts per block (sizes are uniform in `1..=max_block_size`).
    pub max_block_size: usize,
    /// Domain size for non-key positions; smaller domains make solutions
    /// (and certainty) likelier.
    pub domain: usize,
}

impl Default for RandomDbConfig {
    fn default() -> RandomDbConfig {
        RandomDbConfig {
            blocks: 6,
            max_block_size: 3,
            domain: 4,
        }
    }
}

/// Generate a random database for an arbitrary query's signature: keys are
/// drawn from the same domain as values, so solutions arise organically.
pub fn random_db(rng: &mut impl Rng, q: &Query, cfg: &RandomDbConfig) -> Database {
    let sig = *q.signature();
    let mut db = Database::new(sig);
    let elem = |i: usize| Elem::pair(Elem::named("dom"), Elem::int(i as i64));
    for _ in 0..cfg.blocks {
        let key: Vec<Elem> = (0..sig.key_len())
            .map(|_| elem(rng.gen_range(0..cfg.domain)))
            .collect();
        let size = rng.gen_range(1..=cfg.max_block_size);
        for _ in 0..size {
            let mut tuple = key.clone();
            tuple.extend((sig.key_len()..sig.arity()).map(|_| elem(rng.gen_range(0..cfg.domain))));
            db.insert(Fact::new(cqa_model::RelId::R, tuple))
                .expect("same signature");
        }
    }
    db
}

/// Generate a random database over the two relations of `sjf(q)` (for the
/// Proposition 4.1 experiments).
pub fn random_sjf_db(rng: &mut impl Rng, q: &Query, cfg: &RandomDbConfig) -> Database {
    let sig = *q.signature();
    let mut db = Database::new(sig);
    let elem = |i: usize| Elem::pair(Elem::named("dom"), Elem::int(i as i64));
    for rel in [cqa_model::RelId::R1, cqa_model::RelId::R2] {
        for _ in 0..cfg.blocks / 2 + 1 {
            let key: Vec<Elem> = (0..sig.key_len())
                .map(|_| elem(rng.gen_range(0..cfg.domain)))
                .collect();
            let size = rng.gen_range(1..=cfg.max_block_size);
            for _ in 0..size {
                let mut tuple = key.clone();
                tuple.extend(
                    (sig.key_len()..sig.arity()).map(|_| elem(rng.gen_range(0..cfg.domain))),
                );
                db.insert(Fact::new(rel, tuple)).expect("same signature");
            }
        }
    }
    db
}

fn named(i: u64, tag: &str) -> Elem {
    Elem::pair(Elem::named(tag), Elem::int(i as i64))
}

/// `q3 = R(x | y) R(y | z)` workload: a key-chain
/// `R(k₀ k₁), R(k₁ k₂), …` of length `n` where every block is a singleton.
/// The unique repair satisfies `q3` for `n ≥ 2`, so the instance is
/// certain; it exercises `Cert₂`'s derivation depth linearly.
pub fn q3_chain_db(n: usize) -> Database {
    let mut db = Database::new(Signature::new(2, 1).unwrap());
    for i in 0..n {
        db.insert(Fact::r(vec![
            named(i as u64, "k"),
            named(i as u64 + 1, "k"),
        ]))
        .expect("sig");
    }
    db
}

/// A certain `q3` instance with contested blocks: `width` 2-fact blocks
/// whose both choices reach a common satisfied tail, so every repair
/// satisfies `q3` and `Cert₂` must derive through every block.
pub fn q3_certain_db(width: usize) -> Database {
    let mut db = Database::new(Signature::new(2, 1).unwrap());
    let hub = named(0, "hub");
    let tail = named(1, "tail");
    db.insert(Fact::r(vec![tail, named(9_999_999, "sink")]))
        .expect("sig");
    db.insert(Fact::r(vec![hub, tail])).expect("sig");
    for i in 0..width {
        let w = named(i as u64 + 10, "w");
        // Contested block: w -> tail or w -> hub; both lead to a solution.
        db.insert(Fact::r(vec![w, tail])).expect("sig");
        db.insert(Fact::r(vec![w, hub])).expect("sig");
    }
    db
}

/// A falsifiable `q3` instance: like [`q3_chain_db`] but every block gets
/// an escape fact pointing at a private dead-end value, so the repair
/// choosing all escapes has no solution.
pub fn q3_escape_db(n: usize) -> Database {
    let mut db = q3_chain_db(n);
    for i in 0..n {
        db.insert(Fact::r(vec![
            named(i as u64, "k"),
            named(1_000_000 + i as u64, "dead"),
        ]))
        .expect("sig");
    }
    db
}

/// `q6 = R(x | y z) R(z | x y)` triangle: the three rotations of
/// `(a, b, c)`. Each fact is its own block; the unique repair contains all
/// three solutions, so the instance is certain.
pub fn q6_triangle(tag: u64) -> Vec<Fact> {
    let a = named(tag * 3, "t");
    let b = named(tag * 3 + 1, "t");
    let c = named(tag * 3 + 2, "t");
    vec![
        Fact::r(vec![a, b, c]),
        Fact::r(vec![c, a, b]),
        Fact::r(vec![b, c, a]),
    ]
}

/// A grid of `n` disjoint `q6` triangles — a certain clique-database whose
/// solution graph has `n` quasi-clique components.
pub fn q6_triangle_grid(n: usize) -> Database {
    let mut db = Database::new(Signature::new(3, 1).unwrap());
    for t in 0..n {
        for f in q6_triangle(t as u64) {
            db.insert(f).expect("sig");
        }
    }
    db
}

/// A cycle of `n ≥ 2` overlapping `q6` triangles: triangle `i` lives on
/// keys `(kᵢ, pᵢ, k_{i+1 mod n})`, so consecutive triangles share the
/// `k`-blocks (each shared block holds one fact from either neighbour).
/// A global parity argument makes such instances certain for odd `n` while
/// no single block choice is forced — the shape on which the paper (after
/// \[3\]) shows `Cert_k` fails but `¬matching` succeeds. Certainty of a
/// given `n` is established by the callers/tests via brute force.
pub fn q6_certk_hard(n: usize) -> Database {
    assert!(n >= 2, "need at least two triangles");
    let mut db = Database::new(Signature::new(3, 1).unwrap());
    for i in 0..n {
        let j = (i + 1) % n;
        let k_i = named(i as u64, "k");
        let k_j = named(j as u64, "k");
        let p = named(i as u64, "p");
        // Triangle i on (k_i, p_i, k_j):
        //   f1 = R(k_i | p k_j), f2 = R(k_j | k_i p), f3 = R(p | k_j k_i).
        db.insert(Fact::r(vec![k_i, p, k_j])).expect("sig");
        db.insert(Fact::r(vec![k_j, k_i, p])).expect("sig");
        db.insert(Fact::r(vec![p, k_j, k_i])).expect("sig");
    }
    db
}

/// Build a `q6` database as a union of full triangles: for every triple
/// `(x, y, z)` insert the three rotations `R(x|y z)`, `R(z|x y)`,
/// `R(y|z x)`. Blocks are the elements; solution-graph components are the
/// triangles; certainty is exactly a Hall-condition violation between
/// blocks and triangles (Proposition 10.3).
pub fn q6_triangle_union(triples: &[[u64; 3]]) -> Database {
    let mut db = Database::new(Signature::new(3, 1).unwrap());
    for &[x, y, z] in triples {
        let (x, y, z) = (named(x, "d"), named(y, "d"), named(z, "d"));
        db.insert(Fact::r(vec![x, y, z])).expect("sig");
        db.insert(Fact::r(vec![z, x, y])).expect("sig");
        db.insert(Fact::r(vec![y, z, x])).expect("sig");
    }
    db
}

/// A concrete 21-fact `q6` instance — seven overlapping triangles over
/// eight elements, found by randomized search (`cqa-bench`'s `findhard`
/// binary) — that is **certain but not derivable by `Cert₂`**: the
/// Theorem 10.1 phenomenon at `k = 2`. `Cert₃` does derive it, consistent
/// with the theorem being a statement about every *fixed* `k`; the
/// matching-based algorithm decides it directly (it is a clique database).
pub fn q6_cert2_breaker() -> Database {
    q6_triangle_union(&[
        [4, 6, 2],
        [6, 3, 2],
        [3, 5, 6],
        [6, 8, 3],
        [7, 1, 5],
        [7, 2, 1],
        [7, 8, 1],
    ])
}

/// A second independently-found `Cert₂` breaker (same shape, different
/// incidence pattern) for tests that want more than one witness.
pub fn q6_cert2_breaker_alt() -> Database {
    q6_triangle_union(&[
        [2, 6, 7],
        [2, 4, 8],
        [4, 3, 7],
        [5, 3, 4],
        [3, 1, 2],
        [6, 1, 4],
        [7, 1, 8],
    ])
}

/// A multi-component `q3` workload for the per-component (parallel)
/// solvers: `m` mutually disjoint sub-instances of `len` key-chain blocks
/// each, alternating *certain* chains ([`q3_chain_db`] shape) and
/// *falsifiable* chains ([`q3_escape_db`] shape — every block gains an
/// escape fact to a private dead end, doubling its facts).
///
/// Component `i` draws its elements from a tag private to `(m, i)`, so
/// the solution graph splits into exactly `m` q-connected components and
/// each is decided independently — the shape that rewards fanning
/// `certain_combined` out over threads. Total facts:
/// `m/2` certain chains of `len` facts + `m - m/2` escape chains of
/// `2·len` facts.
pub fn q3_multi_component_db(m: usize, len: usize) -> Database {
    let mut db = Database::new(Signature::new(2, 1).unwrap());
    for c in 0..m {
        let tag = |i: u64| {
            Elem::pair(
                Elem::pair(Elem::named("mc"), Elem::int(c as i64)),
                Elem::int(i as i64),
            )
        };
        for i in 0..len {
            db.insert(Fact::r(vec![tag(i as u64), tag(i as u64 + 1)]))
                .expect("sig");
            if c % 2 == 1 {
                // Escape fact: a private dead-end value for every block, so
                // the all-escapes repair falsifies q3 in this component.
                db.insert(Fact::r(vec![tag(i as u64), tag(1_000_000 + i as u64)]))
                    .expect("sig");
            }
        }
    }
    db
}

/// `q2` instances embedding `m` solution chains plus contested blocks —
/// exercises the hard query's solvers on benign inputs.
pub fn q2_gadget_chain(rng: &mut impl Rng, m: usize) -> Database {
    let mut db = Database::new(Signature::new(4, 2).unwrap());
    for i in 0..m {
        let a = named(i as u64 * 10, "a");
        let b = named(i as u64 * 10 + 1, "b");
        let c = named(i as u64 * 10 + 2, "c");
        let d = named(i as u64 * 10 + 3, "d");
        // A q2 solution pair: R(a b | a c), R(b c | a d) …
        db.insert(Fact::r(vec![a, b, a, c])).expect("sig");
        db.insert(Fact::r(vec![b, c, a, d])).expect("sig");
        // … with a contested first block.
        if rng.gen_bool(0.5) {
            db.insert(Fact::r(vec![a, b, named(rng.gen_range(0..100), "n"), c]))
                .expect("sig");
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::examples;
    use cqa_solvers::{cert2, certain_brute, certain_by_matching, is_clique_database};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn q3_chain_is_certain() {
        for n in [2, 5, 20] {
            let db = q3_chain_db(n);
            assert_eq!(db.len(), n);
            assert!(certain_brute(&examples::q3(), &db));
            assert!(cert2(&examples::q3(), &db).is_certain());
        }
    }

    #[test]
    fn q3_escape_is_not_certain() {
        let db = q3_escape_db(5);
        assert!(!certain_brute(&examples::q3(), &db));
        assert!(!cert2(&examples::q3(), &db).is_certain());
    }

    #[test]
    fn q3_certain_db_is_certain() {
        for width in [1, 3, 6] {
            let db = q3_certain_db(width);
            assert!(certain_brute(&examples::q3(), &db), "width {width}");
            assert!(cert2(&examples::q3(), &db).is_certain(), "width {width}");
        }
    }

    #[test]
    fn q3_multi_component_splits_and_mixes_verdicts() {
        let q3 = examples::q3();
        let db = q3_multi_component_db(6, 4);
        assert_eq!(db.len(), 3 * 4 + 3 * 8);
        let comps = cqa_solvers::q_connected_components(&q3, &db);
        assert_eq!(comps.len(), 6, "components must stay disjoint");
        let certain: usize = comps
            .iter()
            .filter(|c| certain_brute(&q3, &c.to_database()))
            .count();
        assert_eq!(certain, 3, "even components certain, odd falsifiable");
        assert!(certain_brute(&q3, &db));
        // The combined solver agrees, sequentially and in parallel.
        let cfg = cqa_solvers::CertKConfig::new(2);
        let seq = cqa_solvers::certain_combined(&q3, &db, cfg.with_threads(1));
        let par = cqa_solvers::certain_combined(&q3, &db, cfg.with_threads(4));
        assert!(seq.certain);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn q6_triangle_grid_is_certain_clique_db() {
        let db = q6_triangle_grid(3);
        assert_eq!(db.len(), 9);
        assert!(is_clique_database(&examples::q6(), &db));
        assert!(certain_brute(&examples::q6(), &db));
        assert!(certain_by_matching(&examples::q6(), &db));
    }

    #[test]
    fn q6_certk_hard_shape() {
        for n in [2, 3, 4, 5] {
            let db = q6_certk_hard(n);
            let brute = certain_brute(&examples::q6(), &db);
            let matching = certain_by_matching(&examples::q6(), &db);
            // ¬matching must agree with brute force on these clique-ish
            // instances whenever they are clique databases.
            if is_clique_database(&examples::q6(), &db) {
                assert_eq!(brute, matching, "n = {n}");
            }
        }
    }

    #[test]
    fn cert2_breaker_reproduces_theorem_10_1() {
        for db in [q6_cert2_breaker(), q6_cert2_breaker_alt()] {
            let q6 = examples::q6();
            assert!(certain_brute(&q6, &db), "breaker must be certain");
            assert!(!cert2(&q6, &db).is_certain(), "Cert_2 must fail");
            assert!(
                cqa_solvers::certk(&q6, &db, cqa_solvers::CertKConfig::new(3)).is_certain(),
                "Cert_3 derives this particular instance"
            );
            assert!(is_clique_database(&q6, &db));
            assert!(certain_by_matching(&q6, &db), "¬matching must decide it");
        }
    }

    #[test]
    fn random_db_respects_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RandomDbConfig {
            blocks: 10,
            max_block_size: 4,
            domain: 5,
        };
        let db = random_db(&mut rng, &examples::q2(), &cfg);
        // Random keys may collide, merging generated blocks; only the
        // totals are bounded.
        assert!(db.block_count() <= 10);
        assert!(db.len() <= 40);
    }

    #[test]
    fn random_sjf_db_uses_both_relations() {
        let mut rng = StdRng::seed_from_u64(2);
        let db = random_sjf_db(&mut rng, &examples::q2(), &RandomDbConfig::default());
        let rels: std::collections::HashSet<_> = db.facts().map(|(_, f)| f.rel()).collect();
        assert!(rels.contains(&cqa_model::RelId::R1));
        assert!(rels.contains(&cqa_model::RelId::R2));
    }
}
