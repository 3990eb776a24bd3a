//! Integration: the solver agreement matrix on randomized databases.
//!
//! * brute force ⊇ `Cert_k` (soundness of the fixpoint, any query),
//! * brute force ⊇ `¬matching` (Prop 10.2, 2way-determined queries),
//! * brute force = `Cert₂` on Theorem 6.1 queries,
//! * brute force = `Cert_k` on no-tripath queries (Prop 8.2),
//! * brute force = combined on fork-free 2way-determined queries
//!   (Thm 10.5),
//! * backtracking brute force = definitional repair enumeration.

use cqa::solvers::matching::analyze;
use cqa::solvers::{certain_brute, certain_combined, certain_exhaustive, certk, CertKConfig};
use cqa_query::examples;
use cqa_workloads::{random_db, RandomDbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRIALS: usize = 60;

fn cfg_for(q: &cqa_query::Query) -> RandomDbConfig {
    // Keep repairs enumerable for the exhaustive cross-check.
    let _ = q;
    RandomDbConfig {
        blocks: 5,
        max_block_size: 3,
        domain: 3,
    }
}

#[test]
fn backtracking_equals_exhaustive_enumeration() {
    for (name, q) in examples::all() {
        // q7's arity-14 random instances rarely produce solutions but the
        // check still exercises the machinery.
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for t in 0..TRIALS / 3 {
            let db = random_db(&mut rng, &q, &cfg_for(&q));
            assert_eq!(
                certain_brute(&q, &db),
                certain_exhaustive(&q, &db),
                "{name} trial {t}: {db:?}"
            );
        }
    }
}

#[test]
fn certk_is_sound_for_every_query() {
    for (name, q) in examples::all() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for t in 0..TRIALS / 2 {
            let db = random_db(&mut rng, &q, &cfg_for(&q));
            for k in 1..=3 {
                if certk(&q, &db, CertKConfig::new(k)).is_certain() {
                    assert!(
                        certain_brute(&q, &db),
                        "{name} trial {t} k={k}: Cert_k unsound"
                    );
                }
            }
        }
    }
}

#[test]
fn matching_is_sound_for_2way_determined_queries() {
    for (name, q) in [
        ("q2", examples::q2()),
        ("q5", examples::q5()),
        ("q6", examples::q6()),
    ] {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        for t in 0..TRIALS {
            let db = random_db(&mut rng, &q, &cfg_for(&q));
            if !analyze(&q, &db).accepts {
                assert!(
                    certain_brute(&q, &db),
                    "{name} trial {t}: ¬matching unsound"
                );
            }
        }
    }
}

#[test]
fn cert2_exact_on_thm61_queries() {
    for (name, q) in [("q3", examples::q3()), ("q4", examples::q4())] {
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        for t in 0..TRIALS {
            let db = random_db(&mut rng, &q, &cfg_for(&q));
            assert_eq!(
                certk(&q, &db, CertKConfig::new(2)).is_certain(),
                certain_brute(&q, &db),
                "{name} trial {t}: Theorem 6.1 violated on {db:?}"
            );
        }
    }
}

#[test]
fn certk_exact_on_no_tripath_query_q5() {
    // Proposition 8.2 with a practical k.
    let q = examples::q5();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for t in 0..TRIALS {
        let db = random_db(&mut rng, &q, &cfg_for(&q));
        assert_eq!(
            certk(&q, &db, CertKConfig::new(3)).is_certain(),
            certain_brute(&q, &db),
            "trial {t}: Prop 8.2 violated on {db:?}"
        );
    }
}

#[test]
fn combined_exact_on_triangle_only_queries() {
    // Theorem 10.5 for q6 (fork-free): random + structured mixes.
    let q = examples::q6();
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for t in 0..TRIALS {
        let mut db = random_db(&mut rng, &q, &cfg_for(&q));
        if t % 2 == 0 {
            db.absorb(&cqa_workloads::q6_triangle_grid(1 + t % 2))
                .unwrap();
        }
        if t % 5 == 0 {
            db.absorb(&cqa_workloads::q6_cert2_breaker()).unwrap();
        }
        let combined = certain_combined(&q, &db, CertKConfig::new(2)).certain;
        assert_eq!(
            combined,
            certain_brute(&q, &db),
            "trial {t}: Thm 10.5 violated"
        );
    }
}

#[test]
fn combined_literal_and_component_variants_agree() {
    let q = examples::q6();
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for t in 0..TRIALS / 2 {
        let db = random_db(&mut rng, &q, &cfg_for(&q));
        // The literal Thm 10.5 statement uses Cert_k on the WHOLE database;
        // on fork-free queries both must equal certain (the per-component
        // variant is exact with smaller k thanks to Prop 10.6).
        let literal = cqa::solvers::certain_thm105_literal(&q, &db, CertKConfig::new(3));
        let brute = certain_brute(&q, &db);
        assert_eq!(
            literal, brute,
            "trial {t}: literal Thm 10.5 violated on {db:?}"
        );
    }
}

#[test]
fn engine_dispatch_is_exact_on_ptime_queries() {
    use cqa::CqaEngine;
    for (name, q) in [
        ("q3", examples::q3()),
        ("q4", examples::q4()),
        ("q5", examples::q5()),
        ("q6", examples::q6()),
    ] {
        let engine = CqaEngine::new(q.clone());
        let mut rng = StdRng::seed_from_u64(0xE49);
        for t in 0..TRIALS / 2 {
            let db = random_db(&mut rng, &q, &cfg_for(&q));
            let ans = engine.certain(&db);
            assert!(
                !ans.budget_exhausted,
                "{name} trial {t}: unexpected budget exhaustion"
            );
            assert_eq!(ans.certain, certain_brute(&q, &db), "{name} trial {t}");
        }
    }
}
