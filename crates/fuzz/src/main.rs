//! `cqa-fuzz` — run the fuzz targets from the command line.
//!
//! ```text
//! cqa-fuzz <dbfmt|query|batch|differential|querydiff|deltadiff|all>
//!          [--seed S] [--iters N] [--time-secs T] [--max-crashes M]
//! ```
//!
//! Exit code 0 when every run finishes crash-free, 1 otherwise. Crashing
//! inputs are printed minimised (escaped, plus hex when not UTF-8) so
//! they can be copied into `crates/fuzz/regressions/<target>/` verbatim.

use cqa_cli::{CliError, Flags};
use cqa_fuzz::{Config, Report, TargetKind};
use std::time::Duration;

fn usage() -> String {
    format!(
        "usage: cqa-fuzz <{}|all> [--seed S] [--iters N] [--time-secs T] [--max-crashes M]",
        TargetKind::ALL.map(TargetKind::name).join("|")
    )
}

fn parse_args(args: &[&str]) -> Result<(Vec<TargetKind>, Config), String> {
    let Some((&head, rest)) = args.split_first() else {
        return Err(usage());
    };
    let kinds = if head == "all" {
        TargetKind::ALL.to_vec()
    } else {
        vec![TargetKind::from_name(head)
            .ok_or_else(|| format!("unknown target {head:?}\n{}", usage()))?]
    };
    let with_usage = |e: CliError| format!("{e}\n{}", usage());
    let mut flags = Flags::new("cqa-fuzz", rest);
    let mut cfg = Config {
        max_iterations: 100_000,
        ..Config::default()
    };
    if let Some(seed) = flags.value("--seed").map_err(with_usage)? {
        cfg.seed = seed;
    }
    if let Some(secs) = flags.value("--time-secs").map_err(with_usage)? {
        cfg.time_limit = Some(Duration::from_secs(secs));
        // A time budget drops the iteration default; an explicit
        // --iters still bounds the run too.
        cfg.max_iterations = u64::MAX;
    }
    if let Some(iters) = flags.value("--iters").map_err(with_usage)? {
        cfg.max_iterations = iters;
    }
    if let Some(max) = flags.value("--max-crashes").map_err(with_usage)? {
        cfg.max_crashes = max;
    }
    flags.finish().map_err(with_usage)?;
    Ok((kinds, cfg))
}

/// Render an input for the report: quoted text when UTF-8, hex otherwise.
fn render(bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(s) => format!("{s:?}"),
        Err(_) => bytes.iter().map(|b| format!("{b:02x}")).collect(),
    }
}

fn print_report(kind: TargetKind, report: &Report) {
    println!(
        "{}: {} iterations in {:.1?} ({} accepted, {} rejected, {} crash{})",
        kind.name(),
        report.iterations,
        report.elapsed,
        report.accepted,
        report.rejected,
        report.crashes.len(),
        if report.crashes.len() == 1 { "" } else { "es" },
    );
    for crash in &report.crashes {
        println!("  CRASH: {}", crash.message.lines().next().unwrap_or(""));
        println!(
            "    input     ({} bytes): {}",
            crash.input.len(),
            render(&crash.input)
        );
        println!(
            "    minimised ({} bytes): {}",
            crash.minimised.len(),
            render(&crash.minimised)
        );
        println!(
            "    replay: save the minimised bytes under crates/fuzz/regressions/{}/",
            kind.name()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (kinds, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut crashed = false;
    for kind in kinds {
        let report = kind.run(&cfg);
        print_report(kind, &report);
        crashed |= !report.crashes.is_empty();
    }
    std::process::exit(if crashed { 1 } else { 0 });
}
