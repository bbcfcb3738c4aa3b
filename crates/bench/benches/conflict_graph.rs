//! Criterion bench: conflict graph `G_k` construction (the per-phase
//! cost driver of the Theorem 1.1 reduction) across instance sizes and
//! palette sizes, and the fingerprint a checkpointing run journals per
//! phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pslocal_core::ConflictGraph;
use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use rand::SeedableRng;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_graph_build");
    for &(n, m, k) in &[(32usize, 16usize, 2usize), (64, 32, 4), (128, 64, 4), (128, 64, 8)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}_k{k}")),
            &inst.hypergraph,
            |b, h| b.iter(|| ConflictGraph::build(h, k)),
        );
    }
    group.finish();
}

fn bench_triple_roundtrip(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(64, 32, 4));
    let cg = ConflictGraph::build(&inst.hypergraph, 4);
    let nodes = cg.graph().node_count();
    c.bench_function("conflict_graph_triple_roundtrip", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in (0..nodes).step_by(3) {
                let t = cg.triple_of(pslocal_graph::NodeId::new(i));
                acc += cg.node_for(t.edge, t.vertex, t.color).map(|v| v.index()).unwrap_or(0);
            }
            acc
        })
    });
}

/// `Graph::fingerprint` of a phase-0 `G_k` of the benchmark of
/// record's reduce-checkpointed shape (planted n = 2048, m = 1024,
/// k = 4: about 20k vertices and 490k edges). A graph memoizes its
/// fingerprint, so each iteration hashes a fresh clone of the
/// never-fingerprinted graph; the figure includes that clone.
fn bench_fingerprint(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(2048, 1024, 4));
    let cg = ConflictGraph::build(&inst.hypergraph, 4);
    let graph = cg.graph();
    c.bench_function("graph_fingerprint", |b| b.iter(|| graph.clone().fingerprint()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_build, bench_triple_roundtrip, bench_fingerprint
}
criterion_main!(benches);
