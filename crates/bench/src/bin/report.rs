//! Experiment report harness: regenerates every table/figure analogue of
//! experiments E1–E12 (one function each in this crate's library) and
//! checks the invariants the paper claims for them.
//!
//! ```text
//! cargo run --release -p cqa-bench --bin report            # all experiments
//! cargo run --release -p cqa-bench --bin report -- e1 e6   # a selection
//! cargo run --release -p cqa-bench --bin report -- quick   # reduced sweeps
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let quick = args.iter().any(|a| a == "quick");
    let selected = |name: &str| {
        args.is_empty() || args.iter().all(|a| a == "quick") || args.iter().any(|a| a == name)
    };
    let (sweep, trials) = if quick { (3, 10) } else { (8, 40) };

    let mut all_ok = true;
    let mut run = |name: &str, ok: bool| {
        all_ok &= ok;
        println!(
            "\n[{name}] {}",
            if ok {
                "PASS — matches the paper's claim"
            } else {
                "FAIL"
            }
        );
    };

    if selected("e1") {
        run("e1", cqa_bench::e1_classification());
    }
    if selected("e2") {
        run("e2", cqa_bench::e2_tripaths());
    }
    if selected("e3") {
        run("e3", cqa_bench::e3_sat_gadget(sweep));
    }
    if selected("e4") {
        run("e4", cqa_bench::e4_thm61(trials));
    }
    if selected("e5") {
        run("e5", cqa_bench::e5_thm81(trials));
    }
    if selected("e6") {
        run("e6", cqa_bench::e6_certk_fails());
    }
    if selected("e7") {
        run("e7", cqa_bench::e7_matching(trials));
    }
    if selected("e8") {
        run("e8", cqa_bench::e8_combined(trials.min(20)));
    }
    if selected("e9") {
        run("e9", cqa_bench::e9_prop41(trials.min(25)));
    }
    if selected("e10") {
        run("e10", cqa_bench::e10_shape());
    }
    if selected("e11") {
        run("e11", cqa_bench::e11_q7());
    }
    if selected("e12") {
        run("e12", cqa_bench::e12_fixpoint_rounds());
    }

    println!();
    println!("════════════════════════════════════════");
    println!(
        "overall: {}",
        if all_ok {
            "ALL EXPERIMENTS MATCH THE PAPER"
        } else {
            "SOME EXPERIMENTS FAILED"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
