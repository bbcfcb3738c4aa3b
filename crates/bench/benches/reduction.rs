//! Criterion bench: the full Theorem 1.1 reduction (all phases,
//! conflict graphs included) per oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pslocal_core::{reduce_cf_to_maxis, ReductionConfig};
use pslocal_graph::generators::hyper::{
    multi_component_cf_instance, planted_cf_instance, PlantedCfParams,
};
use pslocal_graph::KernelStrategy;
use pslocal_maxis::{DecompositionOracle, ExactOracle, GreedyOracle, LubyOracle, MaxIsOracle};
use rand::SeedableRng;

fn bench_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction_end_to_end");
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let k = 3usize;
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(64, 32, k));
    let oracles: Vec<(&str, Box<dyn MaxIsOracle>)> = vec![
        ("exact", Box::new(ExactOracle)),
        ("greedy", Box::new(GreedyOracle)),
        ("luby", Box::new(LubyOracle::new(9))),
    ];
    for (name, oracle) in &oracles {
        group.bench_with_input(BenchmarkId::from_parameter(name), oracle, |b, oracle| {
            b.iter(|| {
                reduce_cf_to_maxis(&inst.hypergraph, oracle.as_ref(), ReductionConfig::new(k))
                    .expect("reduction completes")
            })
        });
    }
    group.finish();
}

fn bench_reduction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction_scaling_greedy");
    group.sample_size(10);
    for &(n, m) in &[(32usize, 16usize), (64, 32), (128, 64)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, 4));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &inst.hypergraph,
            |b, h| {
                b.iter(|| {
                    reduce_cf_to_maxis(h, &GreedyOracle, ReductionConfig::new(4))
                        .expect("reduction completes")
                })
            },
        );
    }
    group.finish();
}

/// Kernel crossover on the dense bench instance (n128/m64/k8 → a
/// 5136-node conflict graph with avg degree ≈ 206): the full reduction
/// with the adjacency route pinned to CSR, pinned to bit rows, and
/// left to `Auto`. Under greedy, `Auto` resolves to bit rows here, and
/// the `bitset`/`csr` ratio is the dense-route speedup the perf notes
/// quote. The decomposition oracle reads bit rows too, so
/// `decomposition_auto` runs its dense kernel end to end against
/// `decomposition_csr`. Luby has no dense kernel, so `Auto` builds CSR
/// for it and `luby_auto` should time like `luby_csr`. Every case of
/// one oracle computes the identical output; the spread is pure kernel
/// cost.
fn bench_reduction_dense_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction_dense_kernel");
    group.sample_size(10);
    let k = 8usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(128, 64, k));
    let luby = LubyOracle::new(9);
    let decomposition = DecompositionOracle::default();
    for (name, oracle, kernel) in [
        ("csr", &GreedyOracle as &dyn MaxIsOracle, KernelStrategy::Csr),
        ("bitset", &GreedyOracle, KernelStrategy::Bitset),
        ("auto", &GreedyOracle, KernelStrategy::Auto),
        ("decomposition_csr", &decomposition, KernelStrategy::Csr),
        ("decomposition_auto", &decomposition, KernelStrategy::Auto),
        ("luby_csr", &luby, KernelStrategy::Csr),
        ("luby_auto", &luby, KernelStrategy::Auto),
    ] {
        let mut config = ReductionConfig::new(k);
        config.kernel = kernel;
        group.bench_with_input(BenchmarkId::from_parameter(name), &inst.hypergraph, |b, h| {
            b.iter(|| reduce_cf_to_maxis(h, oracle, config).expect("reduction completes"))
        });
    }
    group.finish();
}

/// Component-parallel phase execution: the same multi-component
/// reduction (8 vertex-disjoint planted copies, so `G_k` has ≥ 8
/// components) at 1, 2, and 4 worker threads. The executor is
/// thread-count-invariant, so every configuration computes the
/// identical coloring — only the phase wall clock moves. Speedup is
/// bounded by the host's CPU count; on a single-CPU machine the
/// parallel configurations measure pure decomposition overhead.
fn bench_reduction_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction_parallel_greedy");
    group.sample_size(10);
    let k = 8usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let inst = multi_component_cf_instance(&mut rng, PlantedCfParams::new(128, 64, k), 8);
    for &threads in &[1usize, 2, 4] {
        let config = ReductionConfig::new(k).with_threads(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads{threads}")),
            &inst.hypergraph,
            |b, h| {
                b.iter(|| {
                    reduce_cf_to_maxis(h, &GreedyOracle, config).expect("reduction completes")
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_reduction, bench_reduction_scaling, bench_reduction_dense_kernel,
        bench_reduction_parallel
}
criterion_main!(benches);
