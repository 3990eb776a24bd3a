//! The CQA pipeline benchmark.
//!
//! ```text
//! cqabench --workload batch_cold|serve_read|serve_rw --seed N --seconds S --trace 0|1
//! ```
//!
//! prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics and the tracing overhead with `--trace 1`. The line
//! before it, and `cqabench/out/result-*.json`, hold the same metrics with
//! their sample counts, the seed, every workload parameter, the host
//! fingerprint, the output checks and the per-layer self times.
//!
//! Every run starts fresh processes: this process only orchestrates. Each
//! set-up and each measured pass runs in a worker child, which generates
//! its inputs in a generator child of its own (see `gen`). `README.md` in
//! this directory explains the workloads and the steadiness rules.

mod batch;
mod gen;
mod reference;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod worker;

use reference::SetupClock;
use report::{host_fingerprint, json_num, json_str, metrics_json, Metric, Outcome};
use spec::{Scale, Spec, Workload};
use stats::{mean, median};
use std::cell::Cell;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use worker::WorkerCtx;

/// End-to-end metric names, in report order. Every workload reports
/// every one; see `README.md` for what an operation is in each.
const END_TO_END: [&str; 3] = ["setup_s", "op_cost_rtt", "peak_rss_mb"];

/// Per-layer metrics and their units. A traced run reports every one;
/// a layer the workload does not exercise reads 0 with 0 samples. The
/// `setup.*`, `cpu.*`, `reference.*`, `*_cpu_s` and `server.read_*`
/// figures come from the untraced pass.
const PER_LAYER: [(&str, &str); 48] = [
    ("setup.cpu_s", "s"),
    ("cpu.ms_per_op", "ms"),
    ("reference.rtt_us", "us"),
    ("dbfmt.load_cpu_s", "s"),
    ("solvers.solve_cpu_s", "s"),
    ("solvers.brute_cpu_s", "s"),
    ("server.read_qps", "1/s"),
    ("server.read_p50_ms", "ms"),
    ("server.read_p99_ms", "ms"),
    ("dbfmt.read_s", "s"),
    ("dbfmt.facts_per_s", "1/s"),
    ("model.approx_mb", "MiB"),
    ("model.rss_per_approx", "ratio"),
    ("core.classify_ms", "ms"),
    ("solvers.enumerate_s", "s"),
    ("solvers.solutions", "count"),
    ("solvers.partition_s", "s"),
    ("solvers.components", "count"),
    ("solvers.certk_s", "s"),
    ("certk.inserted", "count"),
    ("certk.peak_members", "count"),
    ("certk.blocks_derived", "count"),
    ("certk.blocks_skipped", "count"),
    ("certk.skip_ratio", "ratio"),
    ("solvers.combined_s", "s"),
    ("solvers.brute_s", "s"),
    ("session.hit_us", "us"),
    ("manager.hit_us", "us"),
    ("json.codec_us", "us"),
    ("wire.overhead_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.queue_peak", "count"),
    ("server.shed", "count"),
    ("protocol.parse_delta_ms", "ms"),
    ("model.clone_ms", "ms"),
    ("model.apply_delta_ms", "ms"),
    ("delta.with_delta_ms", "ms"),
    ("delta.patch_ms", "ms"),
    ("delta.retained_per_update", "count"),
    ("delta.reseeded_per_update", "count"),
    ("delta.state_build_s", "s"),
    ("rw.read_p50_ms", "ms"),
    ("rw.read_p99_ms", "ms"),
    ("rw.update_p50_ms", "ms"),
    ("rw.update_p95_ms", "ms"),
    ("rw.read_overlap_p99_ms", "ms"),
    ("rw.read_clear_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
];

const USAGE: &str = "usage: cqabench --workload batch_cold|serve_read|serve_rw --seed N --seconds S --trace 0|1 [--scale full|tiny]";

/// Options shared by the orchestrator, the workers and the generator.
#[derive(Clone, Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    /// Test-only fault injection (see `WorkerCtx::flip`).
    flip: bool,
    /// Worker only: stop after set-up.
    setup_only: bool,
    /// Worker only: run the output checks.
    check: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::BatchCold,
        seed: 0,
        seconds: 0,
        trace: false,
        scale: Scale::Full,
        flip: false,
        setup_only: false,
        check: false,
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (false, false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bool_of = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {v:?}")),
        };
        match flag.as_str() {
            "--workload" => {
                opts.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = true;
            }
            "--seed" => {
                opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                seed = true;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if opts.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = true;
            }
            "--trace" => {
                opts.trace = bool_of(value)?;
                trace = true;
            }
            "--scale" => {
                opts.scale =
                    Scale::parse(value).ok_or_else(|| format!("unknown scale {value:?}"))?
            }
            "--flip-verdict" => opts.flip = bool_of(value)?,
            "--setup-only" => opts.setup_only = bool_of(value)?,
            "--check" => opts.check = bool_of(value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(workload && seed && seconds && trace) {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    Ok(opts)
}

fn opts_args(opts: &Opts) -> Vec<String> {
    let b = |v: bool| if v { "1" } else { "0" }.to_string();
    vec![
        "--workload".into(),
        opts.workload.name().into(),
        "--seed".into(),
        opts.seed.to_string(),
        "--seconds".into(),
        opts.seconds.to_string(),
        "--trace".into(),
        b(opts.trace),
        "--scale".into(),
        opts.scale.name().into(),
        "--flip-verdict".into(),
        b(opts.flip),
        "--setup-only".into(),
        b(opts.setup_only),
        "--check".into(),
        b(opts.check),
    ]
}

/// Where results and spans are written: `out/` beside this package's
/// manifest, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The CPU every worker is pinned to with `taskset`: the last one this
/// process may run on.
///
/// A serving worker's client and server threads hand every request back
/// and forth. On a virtual machine a wake-up on the other CPU can wait
/// milliseconds for the hypervisor, and those waits, not the code, made
/// up the read tail and most of the spread between runs. The closed loop
/// is sequential, and the open loop's reads and updates still interleave
/// on one CPU, so pinning keeps what the workloads measure. `batch_cold`
/// is pinned too, so that every workload's reference round trip (see
/// `reference`) stays on one CPU. Unpinned figures belong to another
/// regime, so a run without `taskset` fails instead of reporting them.
fn pinned_cpu(workload: Workload) -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let last = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|allowed| allowed.rsplit([',', '-']).next())
        .map(|cpu| cpu.trim().to_string())
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let pinned = Command::new("taskset")
        .args(["-c", &last, "true"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !pinned {
        return Err(format!(
            "{} needs taskset to pin its worker to CPU {last}",
            workload.name()
        ));
    }
    Ok(last)
}

/// Run one worker child to completion and parse what it reports.
fn run_worker(opts: &Opts) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current executable: {e}"))?;
    let output = Command::new("taskset")
        .args(["-c", &pinned_cpu(opts.workload)?])
        .arg(exe)
        .arg("worker")
        .args(opts_args(opts))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    if !output.status.success() {
        return Err(format!("worker exited with {}", output.status));
    }
    Outcome::from_lines(&String::from_utf8_lossy(&output.stdout))
}

fn worker_main(opts: Opts) -> Result<(), String> {
    let setup_clock = Cell::new(Some(SetupClock::start()));
    let ctx = WorkerCtx {
        spec: Spec::new(opts.workload, opts.scale),
        seed: opts.seed,
        seconds: opts.seconds,
        setup_only: opts.setup_only,
        check: opts.check,
        flip: opts.flip,
        tracer: Tracer::new(opts.trace),
        setup_clock,
    };
    let mut out = match opts.workload {
        Workload::BatchCold => batch::run(&ctx),
        Workload::ServeRead => serve::run_read(&ctx),
        Workload::ServeRw => serve::run_rw(&ctx),
    };
    if ctx.tracer.enabled() {
        for (name, t) in ctx.tracer.totals() {
            out.layers.push(report::Layer {
                name: name.into(),
                count: t.count,
                total_s: t.total_s,
                self_s: t.self_s,
            });
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let path = dir.join(format!(
            "spans-{}-seed{}.tsv",
            opts.workload.name(),
            opts.seed
        ));
        let file = std::fs::File::create(&path).map_err(|e| format!("{path:?}: {e}"))?;
        ctx.tracer
            .write(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{path:?}: {e}"))?;
    }
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(out.to_lines().as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("cannot report: {e}"))
}

/// Fold several outcomes of one kind: the mean of each metric, sample
/// counts summed, ops and checks concatenated. For `batch_cold` passes the
/// mean counts every pass; the host's speed shifts every few seconds, and
/// a median of three passes jumped with whichever speed two of them had.
fn fold(outcomes: &[Outcome]) -> Outcome {
    let mut out = Outcome::default();
    for o in outcomes {
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.checks.extend(o.checks.iter().cloned());
        out.layer_metrics.extend(o.layer_metrics.iter().cloned());
        out.layers.extend(o.layers.iter().cloned());
    }
    for name in END_TO_END {
        let found: Vec<&Metric> = outcomes.iter().filter_map(|o| o.get(name)).collect();
        if let Some(first) = found.first() {
            let values: Vec<f64> = found.iter().map(|m| m.value).collect();
            out.metric(
                name,
                mean(&values),
                &first.unit,
                found.iter().map(|m| m.samples).sum(),
            );
        }
    }
    out
}

/// The untraced run: `setups` fresh set-ups for `setup_s`, then the
/// measured pass(es), the last of which runs the output checks.
fn measure(opts: &Opts, spec: &Spec) -> Result<Outcome, String> {
    let passes = if opts.workload == Workload::BatchCold {
        spec.passes(opts.seconds)
    } else {
        1
    };
    let mut setups = Vec::new();
    for _ in passes..spec.setups {
        setups.push(run_worker(&Opts {
            setup_only: true,
            check: false,
            ..opts.clone()
        })?);
    }
    let mut runs = Vec::new();
    for pass in 0..passes {
        runs.push(run_worker(&Opts {
            setup_only: false,
            check: pass + 1 == passes,
            ..opts.clone()
        })?);
    }
    let mut out = fold(&runs);
    let setup_values: Vec<f64> = setups
        .iter()
        .chain(&runs)
        .filter_map(|o| o.get("setup_s").map(|m| m.value))
        .collect();
    out.metrics.retain(|m| m.name != "setup_s");
    out.metrics.insert(
        0,
        Metric {
            name: "setup_s".into(),
            value: median(&setup_values),
            unit: "s".into(),
            samples: setup_values.len(),
        },
    );
    Ok(out)
}

/// The traced run: one untraced pass and one traced pass (with the
/// checks); reports the per-layer metrics plus the tracing overhead of
/// each end-to-end metric, as the traced value's excess over the
/// untraced one in percent.
fn traced(opts: &Opts) -> Result<Outcome, String> {
    let plain = run_worker(&Opts {
        trace: false,
        setup_only: false,
        check: false,
        ..opts.clone()
    })?;
    let traced = run_worker(&Opts {
        trace: true,
        setup_only: false,
        check: true,
        ..opts.clone()
    })?;
    let both = [plain, traced];
    let mut out = fold(&both);
    out.metrics.clear();
    out.layer_metrics.extend(
        both[0]
            .metrics
            .iter()
            .filter(|m| PER_LAYER.iter().any(|(n, _)| *n == m.name))
            .cloned(),
    );
    for (name, unit) in PER_LAYER {
        if !out.layer_metrics.iter().any(|m| m.name == name) {
            out.layer_metric(name, 0.0, unit, 0);
        }
    }
    let order = |name: &str| PER_LAYER.iter().position(|(n, _)| *n == name);
    out.layer_metrics.sort_by_key(|m| order(&m.name));
    for name in END_TO_END {
        let (value, samples) = match (both[0].get(name), both[1].get(name)) {
            (Some(p), Some(t)) if p.value > 0.0 => ((t.value / p.value - 1.0) * 100.0, 2),
            _ => (0.0, 0),
        };
        out.layer_metric(&format!("trace.overhead.{name}"), value, "%", samples);
    }
    Ok(out)
}

fn orchestrate(opts: &Opts) -> Result<(), String> {
    let spec = Spec::new(opts.workload, opts.scale);
    let out = if opts.trace {
        traced(opts)?
    } else {
        measure(opts, &spec)?
    };
    let reported = if opts.trace {
        &out.layer_metrics
    } else {
        &out.metrics
    };
    let correct = !out.checks.is_empty() && out.checks.iter().all(|(ok, _)| *ok);
    for (ok, what) in &out.checks {
        eprintln!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    let pairs = |list: Vec<(String, String)>| {
        let items: Vec<String> = list
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    };
    let layers: Vec<String> = out
        .layers
        .iter()
        .map(|l| {
            format!(
                "{}: {{\"spans\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(&l.name),
                l.count,
                json_num(l.total_s),
                json_num(l.self_s)
            )
        })
        .collect();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(ok, what)| format!("{{\"passed\": {ok}, \"what\": {}}}", json_str(what)))
        .collect();
    let mut params = spec.params(opts.seconds);
    params.push(("worker_cpu".into(), pinned_cpu(opts.workload)?));
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"params\": {}, \"host\": {}, \"metrics\": {}, \"checks\": [{}], \"layers\": {{{}}}}}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        pairs(params),
        pairs(host_fingerprint()),
        metrics_json(reported, true),
        checks.join(", "),
        layers.join(", ")
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let path = dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{path:?}: {e}"))?;
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(reported, false)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => parse_opts(&args[1..]).and_then(|o| {
            let spec = Spec::new(o.workload, o.scale);
            let inputs = gen::generate(&spec, o.seed, o.seconds);
            gen::write_frames(&inputs, &mut std::io::stdout().lock())
                .map_err(|e| format!("cannot write inputs: {e}"))
        }),
        Some("worker") => parse_opts(&args[1..]).and_then(worker_main),
        _ => parse_opts(&args).and_then(|o| orchestrate(&o)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cqabench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
