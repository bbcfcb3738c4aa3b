//! Builder-equivalence property suite for the conflict-graph kernel.
//!
//! Every adjacency kernel (streamed CSR, bit rows, and the `Auto`
//! choice between them) and the phase-incremental restriction must
//! produce *exactly* the edge set of the predicate-driven all-pairs
//! reference — `Graph`'s hand-written `Eq` compares its CSR arrays
//! (not its memoized fingerprint), so the assertions below compare the
//! full representation (offsets, sorted rows, canonical edge list), not
//! just edge counts. Both `E_color` readings (proof-faithful and
//! `literal_ecolor`) are covered.

use proptest::prelude::*;
use pslocal::core::{ConflictGraph, ConflictGraphOptions};
use pslocal::graph::{HyperedgeId, Hypergraph, KernelStrategy};
use rand::{Rng, SeedableRng};

/// A random hypergraph: `m` edges of 1–4 distinct vertices over `n ≤ 40`
/// vertices (sizes and members seeded, so failures replay exactly).
fn random_hypergraph(seed: u64, n: usize, m: usize) -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let size = rng.gen_range(1..=4usize.min(n));
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

fn instance() -> impl Strategy<Value = (Hypergraph, usize)> {
    (0u64..10_000, 2usize..=40, 1usize..=12, 1usize..=5)
        .prop_map(|(seed, n, m, k)| (random_hypergraph(seed, n, m), k))
}

fn options(literal_ecolor: bool, kernel: KernelStrategy) -> ConflictGraphOptions {
    ConflictGraphOptions { literal_ecolor, kernel }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR, bitset, and auto kernels all reproduce the all-pairs
    /// reference graph exactly, in both `E_color` readings.
    #[test]
    fn all_kernels_match_reference((h, k) in instance(), literal_bit in 0u8..2) {
        let literal = literal_bit == 1;
        let reference =
            ConflictGraph::build_reference(&h, k, options(literal, KernelStrategy::Csr));
        for kernel in [KernelStrategy::Csr, KernelStrategy::Bitset, KernelStrategy::Auto] {
            let fast = ConflictGraph::build_with_options(&h, k, options(literal, kernel));
            prop_assert_eq!(
                fast.graph(),
                reference.graph(),
                "kernel {:?} diverges from reference (literal_ecolor = {})",
                kernel,
                literal
            );
        }
    }

    /// The phase-incremental restriction equals a from-scratch rebuild
    /// of the restricted hypergraph — byte-identical CSR, node count,
    /// and triple indexing — including after composing two restrictions.
    #[test]
    fn restriction_matches_rebuild(
        (h, k) in instance(),
        literal_bit in 0u8..2,
        subset_seed in 0u64..1000,
    ) {
        let opts = options(literal_bit == 1, KernelStrategy::Auto);
        let cg = ConflictGraph::build_with_options(&h, k, opts);
        let mut rng = rand::rngs::StdRng::seed_from_u64(subset_seed);
        let keep: Vec<HyperedgeId> =
            h.edge_ids().filter(|_| rng.gen_range(0..3) > 0).collect();
        let restricted = cg.restrict_to_edges(&keep);
        let (h_sub, _) = h.restrict_edges(&keep);
        let rebuilt = ConflictGraph::build_with_options(&h_sub, k, opts);
        prop_assert_eq!(restricted.graph(), rebuilt.graph());
        prop_assert_eq!(restricted.hypergraph().edge_count(), keep.len());
        // Triple indexing survives the renumbering.
        for e in restricted.hypergraph().edge_ids() {
            for &v in restricted.hypergraph().edge(e) {
                for c in 0..k {
                    prop_assert_eq!(
                        restricted.node_for(e, v, c),
                        rebuilt.node_for(e, v, c)
                    );
                }
            }
        }
        // Composition: restricting the restriction still matches a
        // rebuild (the pipeline applies this phase after phase).
        let keep2: Vec<HyperedgeId> = restricted
            .hypergraph()
            .edge_ids()
            .filter(|_| rng.gen_range(0..2) == 0)
            .collect();
        let twice = restricted.restrict_to_edges(&keep2);
        let (h_sub2, _) = h_sub.restrict_edges(&keep2);
        let rebuilt2 = ConflictGraph::build_with_options(&h_sub2, k, opts);
        prop_assert_eq!(twice.graph(), rebuilt2.graph());
    }

    /// Family classification agrees between reference and fast builds
    /// (the per-family counts T1 tabulates are independent of how the
    /// graph was built).
    #[test]
    fn family_counts_are_strategy_independent((h, k) in instance()) {
        let fast = ConflictGraph::build_with_options(
            &h, k, options(false, KernelStrategy::Csr));
        let reference = ConflictGraph::build_reference(
            &h, k, options(false, KernelStrategy::Csr));
        prop_assert_eq!(fast.family_counts(), reference.family_counts());
    }
}
