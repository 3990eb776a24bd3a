//! E7: the matching-based algorithm on clique databases of growing size —
//! near-linear in practice (components + Hopcroft–Karp).

use cqa::solvers::matching::analyze;
use cqa_query::examples;
use cqa_workloads::{q6_certk_hard, q6_triangle_grid};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_matching(c: &mut Criterion) {
    let q6 = examples::q6();
    let mut g = c.benchmark_group("matching_q6");
    g.sample_size(10);
    for n in [30usize, 100, 300, 1000, 3200] {
        let grid = q6_triangle_grid(n / 3);
        g.throughput(Throughput::Elements(grid.len() as u64));
        g.bench_with_input(BenchmarkId::new("grid", grid.len()), &grid, |b, db| {
            b.iter(|| std::hint::black_box(!analyze(&q6, db).accepts))
        });
        let cyc = q6_certk_hard((n / 3).max(2));
        g.throughput(Throughput::Elements(cyc.len() as u64));
        g.bench_with_input(BenchmarkId::new("cycle", cyc.len()), &cyc, |b, db| {
            b.iter(|| std::hint::black_box(!analyze(&q6, db).accepts))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
