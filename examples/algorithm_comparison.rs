//! Side-by-side comparison of every `certain(q)` algorithm in the paper on
//! one instance family — including the case Theorem 10.1 is about, where
//! the greedy fixpoint `Cert_k` *fails* and the matching-based algorithm is
//! required.
//!
//! Run with `cargo run --release -p cqa --example algorithm_comparison`.

use cqa::solvers::matching::analyze;
use cqa::solvers::{certain_brute, certain_combined, certk, CertKConfig};
use cqa_query::examples;
use cqa_workloads::{q6_cert2_breaker, q6_certk_hard, q6_triangle_grid};

fn main() {
    let q6 = examples::q6();
    println!(
        "query: q6 = {}   (clique-query; triangle-tripath, no fork)",
        q6.display()
    );
    println!();
    println!(
        "{:<28} {:>6} {:>8} {:>8} {:>10} {:>10}",
        "instance", "facts", "brute", "Cert_2", "¬matching", "combined"
    );

    let mut certk_failures = 0;
    let mut instances: Vec<(String, cqa_model::Database)> = Vec::new();
    for n in [1, 2, 4] {
        instances.push((format!("triangle-grid({n})"), q6_triangle_grid(n)));
    }
    for n in [2, 3, 4, 5, 6] {
        instances.push((format!("triangle-cycle({n})"), q6_certk_hard(n)));
    }
    instances.push(("cert2-breaker (Thm 10.1)".into(), q6_cert2_breaker()));

    for (name, db) in &instances {
        let brute = certain_brute(&q6, db);
        let ck = certk(&q6, db, CertKConfig::new(2)).is_certain();
        let matching = !analyze(&q6, db).accepts;
        let combined = certain_combined(&q6, db, CertKConfig::new(2)).certain;
        println!(
            "{:<28} {:>6} {:>8} {:>8} {:>10} {:>10}",
            name,
            db.len(),
            brute,
            ck,
            matching,
            combined
        );
        // Soundness: every polynomial algorithm under-approximates.
        assert!(!ck || brute, "Cert_2 unsound on {name}");
        assert!(!matching || brute, "¬matching unsound on {name}");
        // Completeness of the Theorem 10.5 combination on this
        // fork-tripath-free query:
        assert_eq!(combined, brute, "combined solver wrong on {name}");
        if brute && !ck {
            certk_failures += 1;
        }
    }

    println!();
    if certk_failures > 0 {
        println!(
            "Theorem 10.1 in action: {certk_failures} certain instance(s) that Cert_2 \
             cannot derive — the matching-based algorithm is genuinely needed \
             for triangle-tripath queries."
        );
    } else {
        println!("note: no Cert_2 failure surfaced in this run's instances");
    }
}
