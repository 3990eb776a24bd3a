//! Large-n series: the million-fact regime end to end.
//!
//! Three measurements per size `n` ∈ {10⁴, 10⁵, 10⁶} on the
//! [`cqa_workloads::large`] q3 family (50% conflicted blocks, width
//! 2..=3, 8-block chains):
//!
//! * `build` — in-memory construction ([`large_q3_db`]), i.e. concurrent
//!   element interning + sequential insertion;
//! * `stream` — rendering the fact-file format to a sink
//!   ([`write_large_q3`]), what `cqa generate` does minus the disk;
//! * `solve` — `certain_combined` at 1 thread vs the host's parallelism
//!   on the pre-built database (copy-free component views; the verdict
//!   is asserted identical across thread counts before timing).
//!
//! Two PR 4 additions:
//!
//! * `large_q3_routing` — the `CqaEngine` on the same databases with
//!   `RoutePolicy::Literal` (whole-database `Cert_k`) vs the default
//!   `Auto` route (per-component fan-out); verdicts asserted equal.
//! * `large_contested_q3` — the wide-shared-block contested family
//!   ([`large_contested_q3_db`], funnel width 1000) through both routes:
//!   the antichain stress shape at scale.
//!
//! A PR 5 addition:
//!
//! * `batch_amortization` — one `SharedSession` answering a 5-query mix
//!   after a single streaming load vs 5 cold invocations (each
//!   re-streaming the fact text and re-analysing the database), the
//!   `cqa batch` vs N × `cqa certain` comparison in library form.
//!
//! And the join alone:
//!
//! * `enumerate` — [`SolutionSet::enumerate`] alone at 10⁵ facts: q3 (a
//!   chain join, about one solution per fact), `R(x | y) R(x | z)` (every
//!   ordered pair inside a block) and `R(y | x) R(x | y)`, which has no
//!   solution on this family, so only the scan and the probes are timed.
//!
//! Recorded medians live in `BASELINES.md`.

use cqa::solvers::{certain_combined, CertKConfig, SolutionSet};
use cqa::{AnsweredBy, CqaEngine, EngineConfig, RoutePolicy, SharedSession};
use cqa_query::{examples, parse_query};
use cqa_workloads::{
    large_contested_q3_db, large_q3_db, write_large_q3, ContestedWorkloadConfig,
    LargeWorkloadConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

fn cfg_for(n: usize) -> LargeWorkloadConfig {
    LargeWorkloadConfig {
        seed: 0xA11CE,
        ..LargeWorkloadConfig::new(n)
    }
}

fn bench_large_scale(c: &mut Criterion) {
    let q3 = examples::q3();
    let n_threads = minipool::max_threads();
    let mut g = c.benchmark_group("large_q3");
    g.sample_size(10);
    for n in [10_000usize, 100_000, 1_000_000] {
        let cfg = cfg_for(n);
        let db = large_q3_db(&cfg);
        g.throughput(Throughput::Elements(db.len() as u64));
        g.bench_with_input(BenchmarkId::new("build", db.len()), &cfg, |b, cfg| {
            b.iter(|| std::hint::black_box(large_q3_db(cfg)))
        });
        g.bench_with_input(BenchmarkId::new("stream", db.len()), &cfg, |b, cfg| {
            b.iter(|| {
                let mut sink = std::io::sink();
                std::hint::black_box(write_large_q3(cfg, &mut sink).expect("sink never fails"))
            })
        });
        let solver = CertKConfig::new(2);
        let seq = certain_combined(&q3, &db, solver.with_threads(1));
        let par = certain_combined(&q3, &db, solver.with_threads(n_threads));
        assert_eq!(seq.certain, par.certain, "verdict drifted with threads");
        g.bench_with_input(
            BenchmarkId::new("solve-threads-1", db.len()),
            &db,
            |b, db| {
                b.iter(|| std::hint::black_box(certain_combined(&q3, db, solver.with_threads(1))))
            },
        );
        g.bench_with_input(
            BenchmarkId::new(format!("solve-threads-max({n_threads})"), db.len()),
            &db,
            |b, db| {
                b.iter(|| {
                    std::hint::black_box(certain_combined(&q3, db, solver.with_threads(n_threads)))
                })
            },
        );
    }
    g.finish();
}

/// The engine's literal vs component routes on the chain and contested
/// families. Both engines are built once (classification is cached); the
/// verdicts are asserted identical before timing.
fn bench_routing(c: &mut Criterion) {
    let literal = CqaEngine::with_config(
        examples::q3(),
        EngineConfig::default().with_route(RoutePolicy::Literal),
    );
    let auto = CqaEngine::new(examples::q3());

    let mut g = c.benchmark_group("large_q3_routing");
    g.sample_size(10);
    for n in [100_000usize, 1_000_000] {
        let db = large_q3_db(&cfg_for(n));
        let lit = literal.certain(&db);
        let aut = auto.certain(&db);
        assert_eq!(lit.certain, aut.certain, "routes disagree at n={n}");
        assert_eq!(aut.answered_by, AnsweredBy::ComponentCertK);
        g.throughput(Throughput::Elements(db.len() as u64));
        g.bench_with_input(BenchmarkId::new("literal", db.len()), &db, |b, db| {
            b.iter(|| std::hint::black_box(literal.certain(db).certain))
        });
        g.bench_with_input(
            BenchmarkId::new("auto-component", db.len()),
            &db,
            |b, db| b.iter(|| std::hint::black_box(auto.certain(db).certain)),
        );
    }
    g.finish();

    let mut g = c.benchmark_group("large_contested_q3");
    g.sample_size(10);
    for n in [100_000usize, 1_000_000] {
        let cfg = ContestedWorkloadConfig::new(n, 1000);
        let db = large_contested_q3_db(&cfg);
        let lit = literal.certain(&db);
        let aut = auto.certain(&db);
        assert!(lit.certain && aut.certain, "contested clusters are certain");
        g.throughput(Throughput::Elements(db.len() as u64));
        g.bench_with_input(BenchmarkId::new("build", db.len()), &cfg, |b, cfg| {
            b.iter(|| std::hint::black_box(large_contested_q3_db(cfg)))
        });
        g.bench_with_input(BenchmarkId::new("literal", db.len()), &db, |b, db| {
            b.iter(|| std::hint::black_box(literal.certain(db).certain))
        });
        g.bench_with_input(
            BenchmarkId::new("auto-component", db.len()),
            &db,
            |b, db| b.iter(|| std::hint::black_box(auto.certain(db).certain)),
        );
    }
    g.finish();
}

/// One session (load once, solve each distinct query once) vs N cold
/// invocations (stream-parse + analyse per query) on the same 5-query
/// mix — `cqa batch` vs N × `cqa certain` without the process spawns.
fn bench_batch_amortization(c: &mut Criterion) {
    let queries: Vec<_> = [
        "R(x | y) R(y | z)",
        "R(x | y) R(z | y)",
        "R(x | y) R(y | x)",
        "R(x | y) R(y | z)", // repeat: the session's verdict-cache hit
        "R(x | y) R(x | z)",
    ]
    .iter()
    .map(|q| parse_query(q).expect("bench queries parse"))
    .collect();
    let mut g = c.benchmark_group("batch_amortization");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let mut text = Vec::new();
        write_large_q3(&cfg_for(n), &mut text).expect("render fact text");
        let text = String::from_utf8(text).expect("fact text is UTF-8");
        let load = || cqa_cli::dbfmt::parse_database(&text).expect("generated text parses");
        let db = load();
        // Parity check before timing: session answers equal cold answers.
        {
            let session = SharedSession::new(Arc::new(load()), EngineConfig::default());
            for q in &queries {
                let cold = CqaEngine::new(q.clone()).certain(&db);
                assert_eq!(session.certain(q).certain, cold.certain, "{}", q.display());
            }
        }
        g.throughput(Throughput::Elements(db.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("cold-5-invocations", db.len()),
            &queries,
            |b, queries| {
                b.iter(|| {
                    let mut verdicts = Vec::with_capacity(queries.len());
                    for q in queries {
                        let db = load();
                        let engine = CqaEngine::new(q.clone());
                        verdicts.push(engine.certain(&db).certain);
                    }
                    std::hint::black_box(verdicts)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("session-5-queries", db.len()),
            &queries,
            |b, queries| {
                b.iter(|| {
                    let session = SharedSession::new(Arc::new(load()), EngineConfig::default());
                    let verdicts: Vec<bool> =
                        queries.iter().map(|q| session.certain(q).certain).collect();
                    std::hint::black_box(verdicts)
                })
            },
        );
    }
    g.finish();
}

/// The sort-merge join on its own, one query shape per benchmark.
fn bench_enumerate(c: &mut Criterion) {
    let db = large_q3_db(&cfg_for(100_000));
    let mut g = c.benchmark_group("enumerate");
    g.sample_size(10);
    g.throughput(Throughput::Elements(db.len() as u64));
    for (label, text) in [
        ("q3", "R(x | y) R(y | z)"),
        ("same-key", "R(x | y) R(x | z)"),
        ("no-solution", "R(y | x) R(x | y)"),
    ] {
        let q = parse_query(text).expect("bench queries parse");
        if label == "no-solution" {
            assert!(SolutionSet::enumerate(&q, &db).is_empty());
        }
        g.bench_with_input(BenchmarkId::new(label, db.len()), &q, |b, q| {
            b.iter(|| std::hint::black_box(SolutionSet::enumerate(q, &db)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_enumerate,
    bench_large_scale,
    bench_routing,
    bench_batch_amortization
);
criterion_main!(benches);
