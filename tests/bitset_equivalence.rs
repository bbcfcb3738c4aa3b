//! Bitset-kernel equivalence suite.
//!
//! The dense (word-parallel) pipeline must be a pure cost knob: the
//! direct bit-row conflict-graph build, the dense greedy and
//! decomposition oracle routes, and a phase loop running through a
//! reused [`PhaseWorkspace`] all
//! have to reproduce the CSR reference **byte-for-byte** — same
//! adjacency, same phase records, same coloring. These properties are
//! what lets `KernelStrategy::Auto` switch routes per graph without
//! anyone downstream noticing. `Auto` takes bit rows only for a primary
//! oracle that reads them, so each phase graph is built once, on one
//! route; the traced test at the end pins that.

use proptest::prelude::*;
use pslocal::core::{
    reduce_cf_to_maxis, reduce_cf_to_maxis_traced, reduce_cf_to_maxis_with_workspace,
    ConflictGraph, ConflictGraphOptions, PhaseWorkspace, ReductionConfig,
};
use pslocal::graph::bitset::{BITSET_MAX_NODES, BITSET_MIN_AVG_DEGREE};
use pslocal::graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal::graph::{BitsetGraph, BitsetScratch, Graph, Hypergraph, KernelStrategy};
use pslocal::maxis::{
    DecompositionOracle, FaultPlan, FaultyOracle, GreedyOracle, LubyOracle, MaxIsOracle,
};
use pslocal::slocal::decomposition::{carve_decomposition, carve_decomposition_dense};
use pslocal::telemetry::{names, Counter, MemorySink, Telemetry};
use rand::{Rng, SeedableRng};

/// A random hypergraph: `m` edges of 1–6 distinct vertices over `n ≤ 40`
/// vertices (sizes and members seeded, so failures replay exactly).
fn random_hypergraph(seed: u64, n: usize, m: usize) -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let size = rng.gen_range(1..=6usize.min(n));
        let mut members: Vec<usize> = Vec::new();
        while members.len() < size {
            let v = rng.gen_range(0..n);
            if !members.contains(&v) {
                members.push(v);
            }
        }
        edges.push(members);
    }
    Hypergraph::from_edges(n, edges).expect("generated edges are valid")
}

/// A random hypergraph with a palette of up to 8 colors, the widest the
/// benchmark's serve-dense requests use. The bit rows store one group
/// of `k` rows per `(e, v)` slot, whose targets row `c` reads moved up
/// by `c`: with `k` not dividing 64, blocks straddle word boundaries
/// and a moved target can cross into the next word.
fn instance() -> impl Strategy<Value = (Hypergraph, usize)> {
    (0u64..10_000, 2usize..=40, 1usize..=12, 1usize..=8)
        .prop_map(|(seed, n, m, k)| (random_hypergraph(seed, n, m), k))
}

fn kernel_options(literal_ecolor: bool, kernel: KernelStrategy) -> ConflictGraphOptions {
    ConflictGraphOptions { literal_ecolor, kernel }
}

/// A `G_k` for the decomposition tests: a planted instance at palettes
/// up to the serve-dense pool's 8, or a random hypergraph at palettes
/// up to 70, where a slot's rows span two 64-color chunks.
fn decomposition_instance() -> impl Strategy<Value = (Hypergraph, usize)> {
    prop_oneof![
        (0u64..10_000, 8usize..=48, 1usize..=12, 1usize..=8).prop_map(|(seed, n, m, k)| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Three vertices per color leave every edge enough vertices
            // of other colors.
            let params = PlantedCfParams::new(n.max(3 * k), m, k);
            (planted_cf_instance(&mut rng, params).hypergraph, k)
        }),
        (0u64..10_000, 2usize..=12, 1usize..=4, 1usize..=70)
            .prop_map(|(seed, n, m, k)| (random_hypergraph(seed, n, m), k)),
    ]
}

/// The decomposition oracle's dense route against its CSR route on one
/// graph: the same carve, and at exact thresholds 0, 4 and 48 the same
/// set and λ.
fn check_dense_decomposition(bits: &BitsetGraph, graph: &Graph) {
    assert_eq!(carve_decomposition_dense(bits), carve_decomposition(graph));
    let mut scratch = BitsetScratch::default();
    for exact_threshold in [0, 4, 48] {
        let oracle = DecompositionOracle { exact_threshold };
        let dense = oracle.independent_set_dense(bits, &mut scratch);
        assert_eq!(dense, oracle.independent_set(graph), "threshold {exact_threshold}");
    }
    let oracle = DecompositionOracle::default();
    assert_eq!(oracle.lambda_for_dense(bits), oracle.lambda_for(graph));
}

/// The oracles `reduction_is_kernel_invariant` runs: greedy and the
/// decomposition oracle, which have dense kernels, and two that read
/// CSR only — Luby, and greedy behind a fault wrapper that does not
/// pass its dense kernel through.
fn oracle(case: u8, seed: u64) -> Box<dyn MaxIsOracle> {
    match case {
        0 => Box::new(GreedyOracle),
        1 => Box::new(LubyOracle::new(seed)),
        2 => Box::new(DecompositionOracle::default()),
        _ => Box::new(FaultyOracle::new(GreedyOracle, FaultPlan::none())),
    }
}

/// The dense bench instance (`n128/m64/k8`, seed 7), which `Auto`
/// builds on bit rows.
fn dense_bench_instance() -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    planted_cf_instance(&mut rng, PlantedCfParams::new(128, 64, 8)).hypergraph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The direct bit-row build equals the CSR reference converted to
    /// bit rows, and its lazily materialized CSR equals the reference
    /// CSR — in both `E_color` readings. This is the structural half of
    /// kernel equivalence: everything downstream reads one of these two
    /// representations.
    #[test]
    fn dense_build_matches_csr_reference((h, k) in instance(), literal_bit in 0u8..2) {
        let literal = literal_bit == 1;
        let reference = ConflictGraph::build_reference(
            &h, k, kernel_options(literal, KernelStrategy::Csr));
        let dense = ConflictGraph::build_with_options(
            &h, k, kernel_options(literal, KernelStrategy::Bitset));
        let bits = dense.bitset().expect("forced bitset kernel builds bit rows");
        prop_assert_eq!(bits, &reference.graph().to_bitset());
        prop_assert_eq!(dense.node_count(), reference.node_count());
        prop_assert_eq!(dense.edge_count(), reference.edge_count());
        prop_assert_eq!(dense.fingerprint(), reference.fingerprint());
        // Materializing the CSR on demand reproduces the reference CSR.
        prop_assert_eq!(dense.graph(), reference.graph());
    }

    /// The greedy picks the same vertices in the same order on the
    /// slot-grouped rows the kernel builds as on the reference graph's
    /// flat rows, in both `E_color` readings. With `pslocal-maxis`'
    /// `greedy::tests::pick_sequences_match_reference_and_dense_kernel`
    /// (flat rows against the CSR greedy) this ties the slot rows to the
    /// CSR greedy.
    #[test]
    fn greedy_picks_match_on_grouped_and_flat_rows((h, k) in instance(), literal_bit in 0u8..2) {
        let literal = literal_bit == 1;
        let reference = ConflictGraph::build_reference(
            &h, k, kernel_options(literal, KernelStrategy::Csr));
        let dense = ConflictGraph::build_with_options(
            &h, k, kernel_options(literal, KernelStrategy::Bitset));
        let grouped = dense.bitset().expect("forced bitset kernel builds bit rows");
        let mut scratch = BitsetScratch::default();
        let picks = grouped.min_degree_greedy(&mut scratch);
        prop_assert_eq!(picks, reference.graph().to_bitset().min_degree_greedy(&mut scratch));
    }

    /// The dense greedy route returns the same set as the CSR route on
    /// arbitrary graphs, and reports the same λ. The pick sequences
    /// themselves are compared, against a push-per-decrement reference
    /// too, by `pslocal-maxis`' crate-private
    /// `greedy::tests::pick_sequences_match_reference_and_dense_kernel`.
    #[test]
    fn dense_greedy_matches_csr_greedy(seed in 0u64..10_000, n in 1usize..60, p_pct in 5u32..60) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = pslocal::graph::generators::random::gnp(&mut rng, n, f64::from(p_pct) / 100.0);
        let bits = BitsetGraph::from_graph(&g);
        let mut scratch = BitsetScratch::default();
        let dense = GreedyOracle.independent_set_dense(&bits, &mut scratch);
        let csr = GreedyOracle.independent_set(&g);
        prop_assert_eq!(dense.vertices(), csr.vertices());
        prop_assert_eq!(
            GreedyOracle.lambda_for_dense(&bits),
            GreedyOracle.lambda_for(&g)
        );
    }

    /// The decomposition oracle reads bit rows exactly as CSR on random
    /// G(n, p), from empty to complete, at sizes within one, two and
    /// more than two 64-bit words.
    #[test]
    fn dense_decomposition_matches_csr_on_gnp(
        seed in 0u64..10_000,
        n in 1usize..200,
        p_pct in 0u32..=100,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = pslocal::graph::generators::random::gnp(&mut rng, n, f64::from(p_pct) / 100.0);
        check_dense_decomposition(&BitsetGraph::from_graph(&g), &g);
    }

    /// The same on the slot-grouped rows of forced-bitset `G_k`s, in
    /// both `E_color` readings, against their lazily built CSR.
    #[test]
    fn dense_decomposition_matches_csr_on_conflict_graphs(
        (h, k) in decomposition_instance(),
        literal_bit in 0u8..2,
    ) {
        let options = kernel_options(literal_bit == 1, KernelStrategy::Bitset);
        let cg = ConflictGraph::build_with_options(&h, k, options);
        let bits = cg.bitset().expect("forced bitset kernel builds bit rows");
        check_dense_decomposition(bits, cg.graph());
    }

    /// End-to-end: forcing `Csr`, forcing `Bitset`, and letting `Auto`
    /// decide all produce the identical reduction — records, coloring,
    /// color count — with a dense-capable oracle and with oracles that
    /// read CSR only.
    #[test]
    fn reduction_is_kernel_invariant((h, k) in instance(), case in 0u8..4, seed in 0u64..1000) {
        let run = |kernel| {
            let mut config = ReductionConfig::new(k);
            config.kernel = kernel;
            reduce_cf_to_maxis(&h, oracle(case, seed).as_ref(), config).unwrap()
        };
        let csr = run(KernelStrategy::Csr);
        let bitset = run(KernelStrategy::Bitset);
        let auto = run(KernelStrategy::Auto);
        prop_assert_eq!(&csr.records, &bitset.records);
        prop_assert_eq!(&csr.coloring, &bitset.coloring);
        prop_assert_eq!(csr.total_colors, bitset.total_colors);
        prop_assert_eq!(&csr.records, &auto.records);
        prop_assert_eq!(&csr.coloring, &auto.coloring);
    }

    /// A `PhaseWorkspace` carries no semantic state: running instance B
    /// through a workspace warmed by instance A equals running B fresh.
    #[test]
    fn workspace_reuse_is_byte_identical(
        (ha, ka) in instance(),
        (hb, kb) in instance(),
    ) {
        let tel = Telemetry::disabled();
        let mut ws = PhaseWorkspace::new();
        let warm_a = reduce_cf_to_maxis_with_workspace(
            &ha, &GreedyOracle, ReductionConfig::new(ka), &tel, &mut ws).unwrap();
        let warm_b = reduce_cf_to_maxis_with_workspace(
            &hb, &GreedyOracle, ReductionConfig::new(kb), &tel, &mut ws).unwrap();
        let fresh_a = reduce_cf_to_maxis(&ha, &GreedyOracle, ReductionConfig::new(ka)).unwrap();
        let fresh_b = reduce_cf_to_maxis(&hb, &GreedyOracle, ReductionConfig::new(kb)).unwrap();
        prop_assert_eq!(&warm_a.records, &fresh_a.records);
        prop_assert_eq!(&warm_a.coloring, &fresh_a.coloring);
        prop_assert_eq!(&warm_b.records, &fresh_b.records);
        prop_assert_eq!(&warm_b.coloring, &fresh_b.coloring);
    }
}

/// `Auto`'s crossover: dense only when the graph is both small enough
/// for quadratic bit rows and dense enough for word scans to win —
/// where "dense enough" scales with the row length (`⌈n/64⌉` words)
/// once the flat degree floor is cleared.
#[test]
fn auto_crossover_boundaries() {
    let auto = KernelStrategy::Auto;
    let threshold = BITSET_MIN_AVG_DEGREE / 2;
    // Dense and small: bitset (16 row words, so the flat floor rules).
    assert!(auto.use_bitset(1000, 1000 * threshold));
    // Too sparse at the same size: CSR.
    assert!(!auto.use_bitset(1000, 1000 * threshold - 1000));
    // Dense but past the node cap: CSR.
    assert!(!auto.use_bitset(BITSET_MAX_NODES + 1, (BITSET_MAX_NODES + 1) * threshold));
    // At the node cap the scaling condition governs: 512 row words
    // demand average degree ≥ 256, not just the flat floor.
    assert!(!auto.use_bitset(BITSET_MAX_NODES, BITSET_MAX_NODES * threshold));
    assert!(auto.use_bitset(BITSET_MAX_NODES, BITSET_MAX_NODES * 256));
    // Degenerate empty graph: CSR.
    assert!(!auto.use_bitset(0, 0));
    // Forced strategies ignore the heuristic entirely.
    assert!(!KernelStrategy::Csr.use_bitset(1000, 1000 * threshold));
    assert!(KernelStrategy::Bitset.use_bitset(3, 0));
}

/// The dense bench configuration (`n128/m64/k8`, the planted instance
/// the perf work targets) actually crosses the `Auto` threshold — the
/// 2× speedup claim rides on this graph taking the bitset route.
#[test]
fn bench_instance_takes_the_dense_route() {
    let cg = ConflictGraph::build_with_options(
        &dense_bench_instance(),
        8,
        kernel_options(false, KernelStrategy::Auto),
    );
    assert!(cg.bitset().is_some(), "dense bench instance must resolve to the bitset kernel");
}

/// The dense bench instance's bit rows are stored one target list per
/// `(e, v)` slot, not one per node: under a sixth of the bytes of the
/// same rows stored as one neighbor list per node (`k = 8` rows share
/// each slot's list, and a fixed range stands for its whole run).
#[test]
fn bench_instance_stores_one_group_per_slot() {
    let cg = ConflictGraph::build_with_options(
        &dense_bench_instance(),
        8,
        kernel_options(false, KernelStrategy::Auto),
    );
    let grouped = cg.bitset().expect("dense bench instance takes the bitset kernel");
    let flat = cg.graph().to_bitset();
    assert_eq!(grouped, &flat);
    assert!(
        grouped.row_bytes() * 6 < flat.row_bytes(),
        "{} bytes grouped, {} flat",
        grouped.row_bytes(),
        flat.row_bytes()
    );
}

/// On the dense bench instance, `Auto` builds bit rows only for the
/// primary that reads them: Luby gets one `csr` build, greedy and the
/// decomposition oracle one `bitset` build, and no phase builds its
/// graph twice. Forcing bit rows under Luby costs a lazy CSR in every
/// phase.
#[test]
fn auto_builds_one_representation_per_phase() {
    let h = dense_bench_instance();
    let traced = |oracle: &dyn MaxIsOracle, kernel| {
        let tel = Telemetry::new(MemorySink::new());
        let config = ReductionConfig { kernel, ..ReductionConfig::new(8) };
        let out = reduce_cf_to_maxis_traced(&h, oracle, config, &tel).unwrap();
        (out, tel.into_sink())
    };
    let built = |sink: &MemorySink, name| sink.spans().iter().filter(|s| s.name == name).count();
    let luby = LubyOracle::new(5);
    let decomposition = DecompositionOracle::default();
    for (oracle, route) in [
        (&luby as &dyn MaxIsOracle, names::CSR),
        (&decomposition, names::BITSET),
        (&GreedyOracle, names::BITSET),
    ] {
        let (_, sink) = traced(oracle, KernelStrategy::Auto);
        let other = if route == names::CSR { names::BITSET } else { names::CSR };
        assert_eq!(built(&sink, route), 1, "{}: one {route} build", oracle.name());
        assert_eq!(built(&sink, other), 0, "{}: no {other} build", oracle.name());
        assert_eq!(sink.counter_total(Counter::LazyCsrBuilds), 0, "{}", oracle.name());
    }
    let (out, sink) = traced(&luby, KernelStrategy::Bitset);
    assert_eq!(sink.counter_total(Counter::LazyCsrBuilds), out.phases_used as u64);
    let phases = sink.spans().into_iter().filter(|s| s.name == names::PHASE);
    assert!(phases.map(|p| p.counter(Counter::LazyCsrBuilds)).all(|lazy| lazy == 1));
}
