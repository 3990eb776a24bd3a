//! Tiny-size runs of every workload: each named metric appears with its
//! unit and a sample count, no operation fails, the output checks pass,
//! and a deliberately flipped verdict is caught.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["batch_cold", "serve_read", "serve_rw"];

/// Every workload reports every end-to-end metric.
const E2E: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_cost_rtt", "rtt"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [&str; 19] = [
    "cpu.ms_per_op",
    "reference.rtt_us",
    "server.read_p50_ms",
    "dbfmt.read_s",
    "model.approx_mb",
    "core.classify_ms",
    "solvers.enumerate_s",
    "solvers.certk_s",
    "certk.skip_ratio",
    "solvers.brute_s",
    "session.hit_us",
    "wire.overhead_us",
    "delta.patch_ms",
    "rw.read_p50_ms",
    "rw.read_p99_ms",
    "rw.update_p50_ms",
    "rw.update_p95_ms",
    "rw.read_overlap_p99_ms",
    "rw.read_clear_p99_ms",
];

struct Run {
    /// The record line: metrics with sample counts, params, host, checks.
    record: String,
    /// The final line.
    result: String,
}

fn run(workload: &str, trace: u8, flip: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_cqabench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .args(["--flip-verdict", if flip { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: too few output lines: {stdout}"
    );
    Run {
        record: lines[lines.len() - 2].to_string(),
        result: lines[lines.len() - 1].to_string(),
    }
}

/// The `{...}` object following `"key": ` in `json`.
fn object_of<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\": {{"))? + key.len() + 4;
    let end = start + json[start..].find('}')?;
    Some(&json[start..=end])
}

fn field<'a>(object: &'a str, name: &str) -> Option<&'a str> {
    let start = object.find(&format!("\"{name}\": "))? + name.len() + 4;
    let rest = &object[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn assert_metric(run: &Run, name: &str, unit: &str) {
    let m = object_of(&run.result, name)
        .unwrap_or_else(|| panic!("{name} missing from {}", run.result));
    let value: f64 = field(m, "value").unwrap().parse().unwrap();
    assert!(value.is_finite(), "{name} = {value}");
    assert_eq!(field(m, "unit"), Some(unit), "{name} unit");
    let r = object_of(&run.record, name).unwrap_or_else(|| panic!("{name} missing from record"));
    let samples: usize = field(r, "samples").unwrap().parse().unwrap();
    assert_eq!(field(r, "unit"), Some(unit));
    if !run.result.contains("\"trace.overhead.") {
        assert!(samples > 0, "{name} has no samples");
    }
}

#[test]
fn every_workload_reports_its_metrics_with_no_failures() {
    for workload in WORKLOADS {
        let run = run(workload, 0, false);
        assert!(
            run.result.starts_with("{\"correct\": true, "),
            "{}",
            run.result
        );
        assert!(run.result.contains("\"failed\": 0, "), "{}", run.result);
        for (name, unit) in E2E {
            assert_metric(&run, name, unit);
        }
        for key in ["\"seed\": 5", "\"params\": {", "\"nproc\": ", "\"rustc\": "] {
            assert!(run.record.contains(key), "{workload}: record lacks {key}");
        }
    }
}

#[test]
fn traced_runs_report_layers_and_overhead() {
    for workload in WORKLOADS {
        let run = run(workload, 1, false);
        assert!(
            run.result.starts_with("{\"correct\": true, "),
            "{}",
            run.result
        );
        for name in PER_LAYER {
            assert!(
                object_of(&run.result, name).is_some(),
                "{workload}: {name} missing"
            );
        }
        for (name, _) in E2E {
            assert_metric(&run, &format!("trace.overhead.{name}"), "%");
        }
        assert!(
            run.record.contains("\"layers\": {\""),
            "{workload}: no self times"
        );
    }
}

#[test]
fn a_flipped_verdict_is_caught() {
    for workload in WORKLOADS {
        let run = run(workload, 0, true);
        assert!(
            run.result.starts_with("{\"correct\": false, "),
            "{workload}: {}",
            run.result
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_cqabench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
