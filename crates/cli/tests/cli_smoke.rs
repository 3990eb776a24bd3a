//! Smoke tests that spawn the real `cqa` binary (not the library
//! functions) and assert the classification verdicts on the paper's
//! queries: `q3` is PTime (Theorem 6.1), `q2` is coNP-complete
//! (Theorem 9.1).

use std::process::{Command, Stdio};

const Q2: &str = "R(x u | x y) R(u y | x z)";
const Q3: &str = "R(x | y) R(y | z)";

fn cqa(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cqa"))
        .args(args)
        .output()
        .expect("spawn cqa binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn classify_q3_is_ptime() {
    let (stdout, stderr, code) = cqa(&["classify", Q3]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("complexity:  PTimeCert2"), "{stdout}");
    assert!(stdout.contains("Cert_2"), "{stdout}");
}

#[test]
fn classify_q2_is_conp_complete() {
    let (stdout, stderr, code) = cqa(&["classify", Q2]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("complexity:  CoNpComplete"), "{stdout}");
    assert!(stdout.contains("fork-tripath witness"), "{stdout}");
}

#[test]
fn certain_evaluates_a_fact_file() {
    let dir = std::env::temp_dir().join(format!("cqa-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("chain.facts");
    std::fs::write(&db, "R(a | b)\nR(b | c)\n").unwrap();
    let (stdout, stderr, code) = cqa(&["certain", Q3, db.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("certain:     true"), "{stdout}");
}

#[test]
fn certain_prints_a_saturated_repair_count_as_a_bound() {
    // 130 blocks of two facts: 2^130 repairs, past u128.
    let dir = std::env::temp_dir().join(format!("cqa-smoke-repairs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("wide.facts");
    let facts: String = (0..130)
        .map(|i| format!("R(k{i} | x)\nR(k{i} | y)\n"))
        .collect();
    std::fs::write(&db, facts).unwrap();
    let (stdout, stderr, code) = cqa(&["certain", Q3, db.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("database:    260 facts, 130 blocks, ≥ 2^128 repairs"),
        "{stdout}"
    );
    assert!(!stdout.contains(&u128::MAX.to_string()), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let (_, stderr, code) = cqa(&["frobnicate"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn threads_flag_rejected_on_non_solver_commands() {
    let (_, stderr, code) = cqa(&["classify", Q3, "--threads", "4"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--threads"), "{stderr}");
}

#[test]
fn generate_then_certain_round_trips_through_the_binary() {
    // The CI large-workload smoke in miniature: generate a workload file,
    // stream-solve it with the default and the 1-thread configuration,
    // and require identical reports.
    let dir = std::env::temp_dir().join(format!("cqa-smoke-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("large.facts");
    let path = db.to_str().unwrap();
    let (stdout, stderr, code) = cqa(&["generate", "--facts", "2000", "--seed", "7", path]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    let (default_out, stderr, code) = cqa(&["certain", Q3, path]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let (seq_out, stderr, code) = cqa(&["certain", Q3, path, "--threads", "1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(default_out, seq_out, "verdict drifted with thread count");
    assert!(default_out.contains("certain:"), "{default_out}");
}

#[test]
fn batch_agrees_with_single_shot_invocations_through_the_binary() {
    // The CI batch smoke in miniature: generate a workload, answer a
    // queries file in one `cqa batch` run, and require the verdicts to
    // equal the `certain:` values of per-query single-shot runs.
    let dir = std::env::temp_dir().join(format!("cqa-smoke-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("large.facts");
    let db_path = db.to_str().unwrap();
    let (stdout, stderr, code) = cqa(&["generate", "--facts", "2000", "--seed", "7", db_path]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    let queries = [
        "R(x | y) R(y | z)",
        "R(x | y) R(z | y)",
        "R(x | y) R(y | x)",
        "R(x|y) R(y|z)", // repeat of the first, denser spelling
        "R(x | y) R(x | z)",
    ];
    let qfile = dir.join("queries.txt");
    let qfile_path = qfile.to_str().unwrap();
    std::fs::write(&qfile, format!("# smoke mix\n{}\n", queries.join("\n"))).unwrap();
    let (batch_out, stderr, code) = cqa(&["batch", db_path, qfile_path, "--stats"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stderr.contains("cache-hits=1"), "{stderr}");
    let batch_verdicts: Vec<String> = batch_out.lines().map(String::from).collect();
    let mut single = Vec::new();
    for q in queries {
        let (out, stderr, code) = cqa(&["certain", q, db_path]);
        assert_eq!(code, Some(0), "stderr: {stderr}");
        let verdict = out
            .lines()
            .find(|l| l.starts_with("certain:"))
            .map(|l| l.trim_start_matches("certain:").trim().to_string())
            .expect("single-shot report has a certain: line");
        single.push(verdict);
    }
    // Removed flags (batch --early-exit, falsify --threads, update
    // --route) are rejected as unknown options, not silently ignored.
    for args in [
        &["batch", db_path, qfile_path, "--early-exit"][..],
        &["falsify", queries[0], db_path, "--threads", "2"],
        &[
            "update", db_path, qfile_path, qfile_path, "--route", "literal",
        ],
    ] {
        let (_, stderr, code) = cqa(args);
        assert_ne!(code, Some(0), "{args:?} was accepted: {stderr}");
        assert!(stderr.contains("unknown"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(batch_verdicts, single, "batch diverged from single-shot");
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    // 20,000 verdict lines outgrow a pipe buffer, so writing them meets
    // the closed read end whenever the write starts.
    let dir = std::env::temp_dir().join(format!("cqa-smoke-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("chain.facts");
    std::fs::write(&db, "R(a | b)\nR(b | c)\n").unwrap();
    let queries = dir.join("many.q");
    std::fs::write(&queries, format!("{Q3}\n").repeat(20_000)).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqa"))
        .args(["batch", db.to_str().unwrap(), queries.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cqa binary");
    drop(child.stdout.take()); // the reader exits before any output
    let out = child.wait_with_output().expect("wait for cqa");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "batch keeps its own status");
}

#[test]
fn malformed_fact_file_errors_carry_position_and_text() {
    let dir = std::env::temp_dir().join(format!("cqa-smoke-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("bad.facts");
    std::fs::write(&db, "R(a | b)\nR(a | b c)\n").unwrap();
    let (_, stderr, code) = cqa(&["certain", Q3, db.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(2));
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("byte offset 9"), "{stderr}");
    assert!(stderr.contains("R(a | b c)"), "{stderr}");
}

#[test]
fn falsify_rejects_a_query_over_another_signature_like_certain() {
    let dir = std::env::temp_dir().join(format!("cqa-smoke-sig-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("w3.facts");
    std::fs::write(&db, "R(a b | c)\nR(a b | d)\n").unwrap();
    let path = db.to_str().unwrap();
    let (falsify_out, falsify_err, falsify_code) = cqa(&["falsify", Q3, path]);
    let (_, certain_err, certain_code) = cqa(&["certain", Q3, path]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(certain_code, Some(2), "stderr: {certain_err}");
    assert_eq!(
        certain_err.trim_end(),
        "query signature [2, 1] does not match database signature [3, 2]"
    );
    assert_eq!(falsify_code, Some(2), "stdout: {falsify_out}");
    assert!(falsify_out.is_empty(), "{falsify_out}");
    assert_eq!(falsify_err, certain_err);
}

#[test]
fn flags_follow_the_command_word_in_either_spelling() {
    let dir = std::env::temp_dir().join(format!("cqa-smoke-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("chain.facts");
    std::fs::write(&db, "R(a | b)\nR(b | c)\n").unwrap();
    let path = db.to_str().unwrap();
    let (spaced, stderr, code) =
        cqa(&["certain", "--route", "literal", Q3, path, "--threads", "1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let (joined, stderr, code) = cqa(&["certain", Q3, "--route=literal", path, "--threads=1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(spaced, joined);
    // A flag before the command word is not a command.
    let (_, stderr, code) = cqa(&["--threads", "1", "certain", Q3, path]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}
