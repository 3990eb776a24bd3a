//! `batch_cold`: the `cqa batch` path in-process, with no server.
//!
//! Each text goes through `read_database` from memory and then one
//! `SharedSession`, which answers the text's five query lines (the last
//! repeats an earlier one, a cache hit). Every solver layer works hard
//! here while the server and the verdict cache do nothing.
//!
//! An operation is one load or one answer. Their CPU time, in seconds of
//! the process (see `report::cpu_seconds`), goes to the `CostMeter` one
//! operation at a time, and is summed per layer into
//! `dbfmt.load_cpu_s`, `solvers.solve_cpu_s` and `solvers.brute_cpu_s`;
//! the traced run's spans are wall time.

use crate::gen::spawn_generator;
use crate::reference::CostMeter;
use crate::report::{cpu_seconds, peak_rss_mb, Outcome};
use crate::spec::TextKind;
use crate::worker::{engine_config, replay_preparation, SolverClass, WorkerCtx};
use cqa::{CqaEngine, RoutePolicy, SharedSession};
use cqa_cli::dbfmt::read_database;
use cqa_query::{parse_query, Query};
use cqa_solvers::CertKStats;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// One text with its queries, each with the solver class that answers it.
type Plan<'a> = (TextKind, &'a str, Vec<(Query, SolverClass)>);

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    facts: usize,
    peak_approx_bytes: usize,
    solutions: usize,
    components: usize,
    certk: CertKStats,
}

pub fn run(ctx: &WorkerCtx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = spawn_generator(&ctx.gen_args()).expect("the generator produces the inputs");
    let plans: Vec<Plan> = inputs
        .texts
        .iter()
        .map(|(kind, text)| {
            let queries = kind
                .queries()
                .iter()
                .map(|q| {
                    let q = parse_query(q).expect("workload queries parse");
                    let class = SolverClass::of(cqa::classify(&q).complexity);
                    (q, class)
                })
                .collect();
            (*kind, text.as_str(), queries)
        })
        .collect();
    ctx.setup_done(&mut out);
    if ctx.setup_only {
        return out;
    }

    let tracer = &ctx.tracer;
    let mut layers = Layers::default();
    let mut meter = CostMeter::start();
    let (mut load_s, mut solve_s, mut brute_s) = (0.0, 0.0, 0.0);
    let (mut solve_n, mut brute_n) = (0, 0);
    let mut verdicts: Vec<Vec<bool>> = Vec::new();
    let mut request = 0u64;
    for (_, text, queries) in &plans {
        request += 1;
        out.attempted += 1;
        let (start, cpu) = (Instant::now(), cpu_seconds());
        let db = read_database(text.as_bytes());
        let (end, cpu) = (Instant::now(), cpu_seconds() - cpu);
        meter.add(cpu, 1);
        let Ok(db) = db else {
            out.failed += 1;
            verdicts.push(Vec::new());
            continue;
        };
        load_s += cpu;
        tracer.record("dbfmt.read", start, end, None, request);
        layers.facts += db.len();
        layers.peak_approx_bytes = layers.peak_approx_bytes.max(db.approx_bytes());
        let db = Arc::new(db);
        let session = SharedSession::new(Arc::clone(&db), engine_config());
        let mut seen = HashSet::new();
        let mut text_verdicts = Vec::new();
        for (q, class) in queries {
            request += 1;
            out.attempted += 1;
            let first_sight = seen.insert(q.display());
            let (start, cpu) = (Instant::now(), cpu_seconds());
            let answer = session.certain(q);
            let (end, secs) = (Instant::now(), cpu_seconds() - cpu);
            meter.add(secs, 1);
            if *class == SolverClass::Brute {
                brute_s += secs;
                brute_n += 1;
            } else {
                solve_s += secs;
                solve_n += 1;
            }
            if tracer.enabled() && first_sight {
                let span = tracer.record(class.span(), start, end, None, request);
                let counts = replay_preparation(tracer, span, request, q, &db);
                layers.solutions += counts.solutions;
                layers.components += counts.components;
                if *class == SolverClass::CertK {
                    if let Some(stats) = &answer.certk_stats {
                        layers.certk.absorb(stats);
                    }
                }
            }
            text_verdicts.push(answer.certain);
        }
        verdicts.push(text_verdicts);
    }
    let rss = peak_rss_mb();
    meter.report(&mut out);
    out.metric("peak_rss_mb", rss, "MiB", 1);
    out.metric("dbfmt.load_cpu_s", load_s, "s", plans.len());
    out.metric("solvers.solve_cpu_s", solve_s, "s", solve_n);
    out.metric("solvers.brute_cpu_s", brute_s, "s", brute_n);
    if tracer.enabled() {
        traced_metrics(&mut out, ctx, &layers, rss);
    }
    if ctx.check {
        if let Some(first) = verdicts.first_mut() {
            ctx.maybe_flip(first);
        }
        check(&mut out, &plans, &verdicts);
    }
    out
}

fn traced_metrics(out: &mut Outcome, ctx: &WorkerCtx, layers: &Layers, rss: f64) {
    let totals = ctx.tracer.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let read_s = self_s("dbfmt.read");
    out.layer_metric("dbfmt.read_s", read_s, "s", count("dbfmt.read"));
    out.layer_metric(
        "dbfmt.facts_per_s",
        layers.facts as f64 / read_s.max(1e-9),
        "1/s",
        count("dbfmt.read"),
    );
    let approx_mb = layers.peak_approx_bytes as f64 / (1024.0 * 1024.0);
    out.layer_metric("model.approx_mb", approx_mb, "MiB", 1);
    out.layer_metric(
        "model.rss_per_approx",
        rss / approx_mb.max(1e-9),
        "ratio",
        1,
    );
    out.layer_metric(
        "core.classify_ms",
        self_s("core.classify") * 1e3,
        "ms",
        count("core.classify"),
    );
    let enumerations = count("solvers.enumerate");
    out.layer_metric(
        "solvers.enumerate_s",
        self_s("solvers.enumerate"),
        "s",
        enumerations,
    );
    out.layer_metric(
        "solvers.solutions",
        layers.solutions as f64,
        "count",
        enumerations,
    );
    let partitions = count("solvers.partition");
    out.layer_metric(
        "solvers.partition_s",
        self_s("solvers.partition"),
        "s",
        partitions,
    );
    out.layer_metric(
        "solvers.components",
        layers.components as f64,
        "count",
        partitions,
    );
    for (class, metric) in [
        (SolverClass::CertK, "solvers.certk_s"),
        (SolverClass::Combined, "solvers.combined_s"),
        (SolverClass::Brute, "solvers.brute_s"),
    ] {
        out.layer_metric(metric, self_s(class.span()), "s", count(class.span()));
    }
    let k = &layers.certk;
    let n = count(SolverClass::CertK.span());
    out.layer_metric("certk.inserted", k.inserted as f64, "count", n);
    out.layer_metric("certk.peak_members", k.peak_members as f64, "count", n);
    out.layer_metric("certk.blocks_derived", k.blocks_derived as f64, "count", n);
    out.layer_metric("certk.blocks_skipped", k.blocks_skipped as f64, "count", n);
    let visits = k.blocks_derived + k.blocks_skipped;
    out.layer_metric(
        "certk.skip_ratio",
        k.blocks_skipped as f64 / visits.max(1) as f64,
        "ratio",
        n,
    );
}

/// Every verdict must equal a fresh `CqaEngine` on the literal route.
/// Runs after the timed phase, untimed.
fn check(out: &mut Outcome, plans: &[Plan], verdicts: &[Vec<bool>]) {
    let literal = engine_config().with_route(RoutePolicy::Literal);
    for ((kind, text, queries), got) in plans.iter().zip(verdicts) {
        let Ok(db) = read_database(text.as_bytes()) else {
            out.check(false, format!("{}: text does not parse", kind.name()));
            continue;
        };
        let mut wrong = Vec::new();
        let mut solved = std::collections::HashMap::new();
        for (i, (q, _)) in queries.iter().enumerate() {
            let want = *solved.entry(q.display()).or_insert_with(|| {
                CqaEngine::with_config(q.clone(), literal)
                    .certain(&db)
                    .certain
            });
            if got.get(i) != Some(&want) {
                wrong.push(format!("{} (want {want})", q.display()));
            }
        }
        out.check(
            wrong.is_empty(),
            format!(
                "batch_cold {}: {} verdicts equal the literal-route engine{}",
                kind.name(),
                queries.len(),
                if wrong.is_empty() {
                    String::new()
                } else {
                    format!("; wrong: {}", wrong.join(", "))
                }
            ),
        );
    }
}
