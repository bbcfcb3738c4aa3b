//! Criterion bench: conflict graph `G_k` construction (the per-phase
//! cost driver of the Theorem 1.1 reduction) across instance sizes and
//! palette sizes, the restriction a multi-phase run rebuilds after each
//! commit, and the fingerprint a checkpointing run journals per phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pslocal_core::{ConflictGraph, ConflictGraphOptions};
use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal_graph::{HyperedgeId, KernelStrategy};
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
    // The benchmark of record's reduce-checkpointed shape (the instance
    // `graph_fingerprint` builds), pinned to the CSR kernel that its
    // phases take: about 20k vertices and 490k edges.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(2048, 1024, 4));
    let csr = ConflictGraphOptions::with_kernel(KernelStrategy::Csr);
    group.bench_with_input(
        BenchmarkId::from_parameter("n2048_m1024_k4_csr"),
        &inst.hypergraph,
        |b, h| b.iter(|| ConflictGraph::build_with_options(h, 4, csr)),
    );
    group.finish();
}

/// `ConflictGraph::restrict_to_edges` on the reduce-checkpointed
/// shape's phase-0 `G_k` (the n = 2048 instance above, on the CSR route
/// its phases take), keeping every 2nd and every 8th hyperedge.
fn bench_restrict(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let h = planted_cf_instance(&mut rng, PlantedCfParams::new(2048, 1024, 4)).hypergraph;
    let cg = ConflictGraph::build_with_options(
        &h,
        4,
        ConflictGraphOptions::with_kernel(KernelStrategy::Csr),
    );
    let mut group = c.benchmark_group("conflict_graph_restrict");
    for (name, step) in [("half", 2), ("eighth", 8)] {
        let keep: Vec<HyperedgeId> = h.edge_ids().step_by(step).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n2048_m1024_k4_{name}")),
            &keep,
            |b, keep| b.iter(|| cg.restrict_to_edges(keep)),
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
    targets = bench_build, bench_restrict, bench_triple_roundtrip, bench_fingerprint
}
criterion_main!(benches);
