//! Criterion bench: the SLOCAL executor (greedy MIS, greedy coloring)
//! and the ball-carving network decomposition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pslocal_core::ConflictGraph;
use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal_graph::generators::random::gnp;
use pslocal_graph::Graph;
use pslocal_slocal::{
    algorithms::{GreedyColoring, GreedyMis},
    carve_decomposition, orders, run,
};
use rand::SeedableRng;

fn graphs() -> Vec<(usize, Graph)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    [64usize, 256, 1024].iter().map(|&n| (n, gnp(&mut rng, n, (8.0 / n as f64).min(0.5)))).collect()
}

fn bench_greedy_mis(c: &mut Criterion) {
    let mut group = c.benchmark_group("slocal_greedy_mis");
    for (n, g) in graphs() {
        let order = orders::identity(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| run(g, &GreedyMis, &order))
        });
    }
    group.finish();
}

fn bench_greedy_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("slocal_greedy_coloring");
    for (n, g) in graphs() {
        let order = orders::identity(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| run(g, &GreedyColoring, &order))
        });
    }
    group.finish();
}

/// Ball carving on G(n, p) graphs of average degree 8, and on the
/// phase-0 `G_k` that `oracles_reduce_shape` solves (planted n = 2048,
/// m = 1024, k = 4, seed 1: about 20k vertices and 490k edges), the
/// carve the decomposition oracle runs on every reduce-checkpointed
/// decomposition phase.
fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("slocal_ball_carving");
    for (n, g) in graphs() {
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| carve_decomposition(g))
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(2048, 1024, 4));
    let cg = ConflictGraph::build(&inst.hypergraph, 4);
    group.bench_with_input(BenchmarkId::from_parameter("reduce_shape"), cg.graph(), |b, g| {
        b.iter(|| carve_decomposition(g))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_greedy_mis, bench_greedy_coloring, bench_decomposition
}
criterion_main!(benches);
