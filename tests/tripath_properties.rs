//! Integration: tripath machinery invariants across the symbolic search,
//! the validator, niceness, and in-database detection.

use cqa::solvers::{certain_brute, certk, CertKConfig};
use cqa::tripath::{
    check_nice, db_admits_tripath, find_nice_fork, find_tripath_in_db, g_of_center,
    search_tripaths, SearchConfig, TripathKind,
};
use cqa_query::{examples, is_solution, is_solution_unordered};
use cqa_workloads::{random_db, RandomDbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn witnesses_satisfy_every_definition_clause() {
    // Re-verify the validator's work independently for q2's fork witness:
    // center solutions, block structure, g(e) conditions.
    let q2 = examples::q2();
    let out = search_tripaths(&q2, &SearchConfig::default());
    let tp = out.fork.expect("q2 fork");
    let (kind, center) = tp.validate(&q2).expect("validates");
    assert_eq!(kind, TripathKind::Fork);

    // Center really is a branching fact.
    assert!(is_solution(&q2, &center.d, &center.e));
    assert!(is_solution(&q2, &center.e, &center.f));
    assert!(!is_solution(&q2, &center.f, &center.d), "fork ⇒ no q(f d)");
    assert_eq!(center.g, g_of_center(&q2, &center.d, &center.e, &center.f));

    // Every parent/child pair is connected by a solution.
    for (i, b) in tp.blocks.iter().enumerate() {
        if let Some(p) = b.parent {
            let ap = tp.blocks[p].a.as_ref().expect("parent a-fact");
            let bb = b.b.as_ref().expect("child b-fact");
            assert!(is_solution_unordered(&q2, ap, bb), "edge {p}→{i}");
        }
    }

    // g(e) not included in any extremal key.
    let sig = q2.signature();
    let (u0, u1, u2) = tp.extremal_facts().unwrap();
    for u in [&u0, &u1, &u2] {
        assert!(!center.g.is_subset(&u.key_set(sig)));
    }
}

#[test]
fn symbolic_witnesses_round_trip_through_detection() {
    // Whatever the symbolic search produces must be re-found by the
    // concrete in-database detector, for both kinds.
    let cases = [(examples::q2(), true, false), (examples::q6(), false, true)];
    for (q, want_fork, want_triangle) in cases {
        let out = search_tripaths(&q, &SearchConfig::default());
        if want_fork {
            let db = out.fork.as_ref().expect("fork").database(&q);
            let det = find_tripath_in_db(&q, &db, 5_000_000);
            assert!(det.fork.is_some(), "{q}: fork not re-detected");
        }
        if want_triangle {
            let db = out.triangle.as_ref().expect("triangle").database(&q);
            let det = find_tripath_in_db(&q, &db, 5_000_000);
            assert!(det.triangle.is_some(), "{q}: triangle not re-detected");
        }
    }
}

#[test]
fn random_q5_databases_never_contain_tripaths() {
    // q5 admits no tripath at all (Section 8) — so no database does.
    let q5 = examples::q5();
    let mut rng = StdRng::seed_from_u64(0x55);
    let cfg = RandomDbConfig {
        blocks: 6,
        max_block_size: 3,
        domain: 3,
    };
    for t in 0..40 {
        let db = random_db(&mut rng, &q5, &cfg);
        assert!(
            !db_admits_tripath(&q5, &db, 5_000_000),
            "trial {t}: q5 database contains a tripath?!"
        );
    }
}

#[test]
fn prop82_certk_exact_without_tripaths() {
    // Proposition 8.2 instance-level: on q2 (a coNP query!) databases that
    // happen to contain no tripath, Cert_k still matches brute force.
    let q2 = examples::q2();
    let mut rng = StdRng::seed_from_u64(0x82);
    let cfg = RandomDbConfig {
        blocks: 5,
        max_block_size: 2,
        domain: 3,
    };
    let mut tripath_free = 0;
    for t in 0..60 {
        let db = random_db(&mut rng, &q2, &cfg);
        let det = find_tripath_in_db(&q2, &db, 5_000_000);
        if det.contains_tripath() || det.exhausted {
            continue;
        }
        tripath_free += 1;
        assert_eq!(
            certk(&q2, &db, CertKConfig::new(3)).is_certain(),
            certain_brute(&q2, &db),
            "trial {t}: Prop 8.2 violated on tripath-free {db:?}"
        );
    }
    assert!(
        tripath_free >= 20,
        "sweep must mostly produce tripath-free instances"
    );
}

#[test]
fn nice_fork_tripath_has_no_extra_solutions() {
    let q2 = examples::q2();
    let (tp, w) = find_nice_fork(&q2, &SearchConfig::default()).expect("nice fork");
    let db = tp.database(&q2);
    let sols = cqa::solvers::SolutionSet::enumerate(&q2, &db);
    // Exactly one solution per non-root block (the enforced ones), since a
    // fork adds no (f, d) edge.
    assert_eq!(sols.len(), tp.blocks.len() - 1);
    // Witness privacy: u, v, w appear only in their own facts.
    let sig = q2.signature();
    for (private, owner) in [(w.u, &w.u0), (w.v, &w.u1), (w.w, &w.u2)] {
        for fact in tp.facts() {
            if &fact != owner {
                assert!(
                    !fact.key_set(sig).contains(&private),
                    "{private} leaks into {fact}"
                );
            }
        }
    }
}

#[test]
fn niceness_checker_rejects_mutations() {
    // Corrupting a nice tripath must be caught by check_nice (or even by
    // the validator).
    let q2 = examples::q2();
    let (tp, _) = find_nice_fork(&q2, &SearchConfig::default()).expect("nice fork");

    // Mutation 1: drop the root block's fact (breaks the tree shape).
    let mut broken = tp.clone();
    broken.blocks[0].a = None;
    assert!(check_nice(&q2, &broken).is_err());

    // Mutation 2: duplicate a leaf fact into the root block (key collision
    // or placement violation).
    let mut broken2 = tp.clone();
    broken2.blocks[0].b = broken2.blocks.last().unwrap().b.clone();
    assert!(check_nice(&q2, &broken2).is_err());

    // Mutation 3: re-parent the branching block to itself (cycle).
    let mut broken3 = tp.clone();
    let br = broken3.branching_index().unwrap();
    broken3.blocks[br].parent = Some(br);
    assert!(check_nice(&q2, &broken3).is_err());
}

#[test]
fn search_is_deterministic_in_structure() {
    // Two runs produce witnesses of the same shape (fresh element identities
    // differ, but block counts and kinds must match).
    let q2 = examples::q2();
    let a = search_tripaths(&q2, &SearchConfig::default());
    let b = search_tripaths(&q2, &SearchConfig::default());
    assert_eq!(
        a.fork.as_ref().map(|t| t.blocks.len()),
        b.fork.as_ref().map(|t| t.blocks.len())
    );
    assert_eq!(a.triangle.is_some(), b.triangle.is_some());
}
