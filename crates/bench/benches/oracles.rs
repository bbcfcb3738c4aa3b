//! Criterion bench: each MaxIS oracle on a fixed conflict graph (the
//! workload the reduction feeds them) and on a sparse random graph,
//! plus the polynomial-time oracles on a phase-0 `G_k` of the
//! benchmark of record's reduce-checkpointed shape, and the greedy's
//! dense kernel on the bit rows of its serve-dense shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pslocal_core::ConflictGraph;
use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal_graph::generators::random::gnp;
use pslocal_graph::{BitsetScratch, Graph};
use pslocal_maxis::{standard_oracles, DecompositionOracle, GreedyOracle, LubyOracle, MaxIsOracle};
use rand::SeedableRng;

fn conflict_instance() -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(48, 20, 3));
    ConflictGraph::build(&inst.hypergraph, 3).graph().clone()
}

fn bench_on(c: &mut Criterion, label: &str, graph: &Graph) {
    let mut group = c.benchmark_group(format!("oracles_{label}"));
    for oracle in standard_oracles(6) {
        group.bench_with_input(BenchmarkId::from_parameter(oracle.name()), &oracle, |b, oracle| {
            b.iter(|| oracle.independent_set(graph))
        });
    }
    group.finish();
}

fn bench_oracles(c: &mut Criterion) {
    bench_on(c, "conflict_graph", &conflict_instance());
    // Kept small: the exact branch-and-bound is in the lineup, and its
    // cost on sparse instances grows steeply with n.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    bench_on(c, "gnp_sparse", &gnp(&mut rng, 90, 0.06));
}

/// Planted n = 2048, m = 1024, k = 4 (about 20k vertices and 490k
/// edges), the shape of every reduce-checkpointed job. The exact and
/// clique-removal oracles are left out at this size. The decomposition
/// oracle's largest cluster here (17,474 vertices) runs the greedy in
/// place on the graph's rows.
fn bench_reduce_shape(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(2048, 1024, 4));
    let graph = ConflictGraph::build(&inst.hypergraph, 4).graph().clone();
    let oracles: [Box<dyn MaxIsOracle>; 3] = [
        Box::new(GreedyOracle),
        Box::new(LubyOracle::new(6)),
        Box::new(DecompositionOracle::default()),
    ];
    let mut group = c.benchmark_group("oracles_reduce_shape");
    for oracle in &oracles {
        group.bench_with_input(BenchmarkId::from_parameter(oracle.name()), oracle, |b, oracle| {
            b.iter(|| oracle.independent_set(&graph))
        });
    }
    group.finish();
}

/// Planted n = 144, m = 72, k = 8 (about 5,700 vertices), the middle
/// shape of the benchmark of record's serve-dense pool, on the bit rows
/// `Auto` builds for it: the greedy's dense kernel, as the drivers call
/// it, with a scratch held across calls.
fn bench_dense_shape(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(144, 72, 8));
    let cg = ConflictGraph::build(&inst.hypergraph, 8);
    let bits = cg.bitset().expect("Auto builds the serve-dense shape on bit rows");
    let mut scratch = BitsetScratch::default();
    let mut group = c.benchmark_group("oracles_dense_shape");
    group.sample_size(100);
    group.bench_function(BenchmarkId::from_parameter(GreedyOracle.name()), |b| {
        b.iter(|| GreedyOracle.independent_set_dense(bits, &mut scratch))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_oracles, bench_reduce_shape, bench_dense_shape
}
criterion_main!(benches);
