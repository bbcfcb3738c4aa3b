//! The containment-direction oracle: MaxIS approximation **in
//! P-SLOCAL** via network decomposition (\[GKM17, Theorem 7.1\], which
//! the paper invokes verbatim for the containment half of Theorem 1.1).
//!
//! Given a `(c, d)`-network decomposition, consider each color class
//! `j`: its clusters are pairwise non-adjacent, so the union of
//! per-cluster maximum independent sets is independent. Writing `O` for
//! a maximum independent set of the whole graph and `O_j` for its
//! vertices in class `j`, the class-`j` union has size
//! `≥ |O_j|`, and `Σ_j |O_j| = α(G)`; the best class therefore yields an
//! independent set of size `≥ α(G) / c`. With the ball-carving
//! decomposition of `pslocal-slocal`, `c ≤ ⌈log₂ n⌉ + 1`, i.e. a
//! *logarithmic* (in particular polylogarithmic) approximation computed
//! with polylogarithmic locality — the containment statement, made
//! executable.
//!
//! Clusters have weak diameter `O(log n)` but can still contain many
//! vertices; per-cluster solving uses the exact branch-and-bound up to
//! a size threshold and falls back to min-degree greedy above it. The
//! returned [`DecompositionSolve`] reports whether every cluster was
//! solved exactly, i.e. whether the `c`-approximation certificate is
//! intact.
//!
//! No cluster costs work in proportion to the whole graph unless it
//! holds most of it. A cluster over the threshold is never copied: the
//! greedy runs in place on the graph's rows, restricted to the
//! cluster's members, with one scratch for all such clusters; it counts
//! the members' degrees over the non-members' rows when those are
//! fewer. A cluster up to the threshold is copied for the exact solver
//! through one [`InducedArena`] shared by all of them, at
//! `O(|cluster| + Σ deg)` per copy from CSR rows.
//!
//! The oracle reads both representations of a phase graph, so it
//! reports [`MaxIsOracle::supports_dense`] and the reduction drivers
//! build a dense `G_k` for it once, on bit rows. One carve loop and one
//! class sweep serve both: on bit rows the carve grows each level by
//! OR-ing the frontier's rows into a mask
//! ([`carve_decomposition_dense`]), a large cluster runs the dense
//! greedy with its alive set started at the members
//! ([`BitsetGraph::min_degree_greedy_members_into`]), and a small one is
//! copied from bit rows by `O(|cluster|²)` adjacency lookups
//! ([`csr::induced_sorted_bits_in`]). Each piece gives what its CSR
//! counterpart gives, so [`MaxIsOracle::independent_set_dense`] returns
//! exactly the set [`MaxIsOracle::independent_set`] returns. The two
//! cluster kernels are a small private trait on each form; the winning
//! union is checked through [`Adjacency`] by [`IndependentSet::new`],
//! on whichever form the sweep ran.
//!
//! A class's union has at most as many vertices as the class, and only
//! a strictly larger union replaces the best one. So the oracle path,
//! [`MaxIsOracle::independent_set`], skips every class with no more
//! vertices than the best union so far; [`DecompositionOracle::solve`]
//! still solves every class, because it reports each class's size.

use crate::exact::ExactOracle;
use crate::greedy::GreedyScratch;
use crate::oracle::{ApproxGuarantee, MaxIsOracle};
use pslocal_graph::csr::{self, InducedArena};
use pslocal_graph::{Adjacency, BitsetGraph, BitsetScratch, Graph, IndependentSet, NodeId};
use pslocal_slocal::decomposition::{
    carve_decomposition, carve_decomposition_dense, NetworkDecomposition,
};

/// Default cluster size up to which clusters are solved exactly.
pub const DEFAULT_EXACT_THRESHOLD: usize = 48;

/// MaxIS oracle implementing the containment direction of Theorem 1.1.
#[derive(Debug, Clone, Copy)]
pub struct DecompositionOracle {
    /// Clusters up to this size are solved exactly; larger ones fall
    /// back to greedy (losing the per-cluster optimality certificate).
    pub exact_threshold: usize,
}

impl Default for DecompositionOracle {
    fn default() -> Self {
        DecompositionOracle { exact_threshold: DEFAULT_EXACT_THRESHOLD }
    }
}

/// Detailed outcome of a decomposition-based solve.
#[derive(Debug, Clone)]
pub struct DecompositionSolve {
    /// The chosen independent set (the best color class union).
    pub independent_set: IndependentSet,
    /// The decomposition that was used.
    pub decomposition: NetworkDecomposition,
    /// The winning color class.
    pub best_color: usize,
    /// Per-color independent-set sizes.
    pub class_sizes: Vec<usize>,
    /// Whether every cluster of the winning class was solved exactly
    /// (if so, the `λ = c` guarantee is fully certified).
    pub certified: bool,
}

/// The two ways the class sweep solves a cluster, given as its
/// strictly increasing members: each form of the graph has its own
/// kernel for both.
trait Clusters: Adjacency {
    /// The min-degree greedy's buffers on this form.
    type Scratch;

    /// The cluster's induced subgraph, renumbered in member order and
    /// built into `arena`'s buffers, for the exact solver.
    fn copy(&self, members: &[NodeId], arena: &mut InducedArena) -> Graph;

    /// Appends the min-degree greedy's picks on the cluster's induced
    /// subgraph to `union`, computed in place on the graph's rows.
    fn greedy(&self, members: &[NodeId], scratch: &mut Self::Scratch, union: &mut Vec<NodeId>);
}

/// CSR rows.
impl Clusters for Graph {
    type Scratch = GreedyScratch;

    fn copy(&self, members: &[NodeId], arena: &mut InducedArena) -> Graph {
        csr::induced_sorted_in(self, members, arena)
    }

    fn greedy(&self, members: &[NodeId], scratch: &mut GreedyScratch, union: &mut Vec<NodeId>) {
        scratch.run_members(self, members, union);
    }
}

/// Bit rows.
impl Clusters for BitsetGraph {
    type Scratch = BitsetScratch;

    fn copy(&self, members: &[NodeId], arena: &mut InducedArena) -> Graph {
        csr::induced_sorted_bits_in(self, members, arena)
    }

    fn greedy(&self, members: &[NodeId], scratch: &mut BitsetScratch, union: &mut Vec<NodeId>) {
        self.min_degree_greedy_members_into(members, scratch, union);
    }
}

impl DecompositionOracle {
    /// Runs the oracle, returning the full per-class breakdown that
    /// experiment T7 tabulates. Every color class is solved, so
    /// `class_sizes` holds each class's union size; the chosen set is
    /// the one [`MaxIsOracle::independent_set`] returns.
    pub fn solve(&self, graph: &Graph) -> DecompositionSolve {
        let decomposition = carve_decomposition(graph);
        let mut class_sizes = Vec::with_capacity(decomposition.color_count());
        let mut scratch = GreedyScratch::default();
        let (independent_set, best_color, certified) =
            self.best_class(graph, &decomposition, &mut scratch, Some(&mut class_sizes));
        DecompositionSolve { independent_set, decomposition, best_color, class_sizes, certified }
    }

    /// Sweeps the color classes in order and keeps the first largest
    /// union, returning it with its color and certificate. Each class's
    /// union size is pushed to `class_sizes` if one is given. Without
    /// one, a class is solved only if it has more vertices than the
    /// best union so far: its union cannot be larger than the class,
    /// and only a strictly larger union replaces the best, so a
    /// dominated class could never win.
    fn best_class<G: Clusters>(
        &self,
        graph: &G,
        decomposition: &NetworkDecomposition,
        scratch: &mut G::Scratch,
        mut class_sizes: Option<&mut Vec<usize>>,
    ) -> (IndependentSet, usize, bool) {
        let cluster_sets = decomposition.cluster_vertex_sets();
        let mut arena = InducedArena::new();
        let mut best: Vec<NodeId> = Vec::new();
        let mut best_color = 0;
        let mut best_certified = true;
        for (color, class) in decomposition.clusters_by_color().iter().enumerate() {
            if class_sizes.is_none() {
                let vertices: usize = class.iter().map(|&c| cluster_sets[c].len()).sum();
                if vertices <= best.len() {
                    continue;
                }
            }
            let mut union: Vec<NodeId> = Vec::new();
            let mut certified = true;
            for &c in class {
                // Members are ascending, so local vertex `i` is `members[i]`.
                let members = &cluster_sets[c];
                if members.len() <= self.exact_threshold {
                    let sub = graph.copy(members, &mut arena);
                    let local = ExactOracle.independent_set(&sub);
                    union.extend(local.iter().map(|v| members[v.index()]));
                    arena.recycle(sub);
                } else {
                    certified = false;
                    graph.greedy(members, scratch, &mut union);
                }
            }
            if let Some(sizes) = class_sizes.as_deref_mut() {
                sizes.push(union.len());
            }
            if union.len() > best.len() || best.is_empty() && union.is_empty() && color == 0 {
                best = union;
                best_color = color;
                best_certified = certified;
            }
        }
        // Invariant, not a fallible path: the decomposition's verifier
        // has already certified the cluster coloring, so same-color
        // clusters are non-adjacent.
        let best = IndependentSet::new(graph, best)
            // pslocal: allow(panic-path, "the network decomposition certified the cluster coloring above; a violation falsifies that certificate")
            .expect("same-color clusters are non-adjacent, so the union is independent");
        (best, best_color, best_certified)
    }
}

impl MaxIsOracle for DecompositionOracle {
    fn name(&self) -> &'static str {
        "decomposition"
    }

    /// The best class union, as [`DecompositionOracle::solve`] chooses
    /// it, without solving the classes that cannot win.
    fn independent_set(&self, graph: &Graph) -> IndependentSet {
        let mut scratch = GreedyScratch::default();
        self.best_class(graph, &carve_decomposition(graph), &mut scratch, None).0
    }

    fn supports_dense(&self) -> bool {
        true
    }

    /// The set [`independent_set`](MaxIsOracle::independent_set) returns
    /// on the CSR form: the same carve and class sweep, with the levels
    /// grown from bit rows, large clusters solved by the dense greedy
    /// and small ones copied from bit rows for the exact solver.
    fn independent_set_dense(
        &self,
        bits: &BitsetGraph,
        scratch: &mut BitsetScratch,
    ) -> IndependentSet {
        self.best_class(bits, &carve_decomposition_dense(bits), scratch, None).0
    }

    fn guarantee(&self) -> ApproxGuarantee {
        ApproxGuarantee::DecompositionColors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::tests::{per_decrement_picks, planted_conflict_graph};
    use pslocal_graph::generators::classic::{cluster_graph, complete, cycle, grid, path};
    use pslocal_graph::generators::random::{gnp, random_tree};
    use rand::SeedableRng;

    /// The per-cluster loop as it was before clusters were solved in
    /// place: every cluster copied with `induced_subgraph`, large ones
    /// solved by the per-decrement greedy. Returns the fields `solve`
    /// must reproduce: the set, the class sizes, the best color and
    /// the certificate.
    fn copy_based_solve(
        oracle: DecompositionOracle,
        graph: &Graph,
    ) -> (IndependentSet, Vec<usize>, usize, bool) {
        let decomposition = carve_decomposition(graph);
        let cluster_sets = decomposition.cluster_vertex_sets();
        let mut best: Vec<NodeId> = Vec::new();
        let mut best_color = 0;
        let mut best_certified = true;
        let mut class_sizes = Vec::new();
        for (color, clusters) in decomposition.clusters_by_color().iter().enumerate() {
            let mut union: Vec<NodeId> = Vec::new();
            let mut certified = true;
            for &c in clusters {
                let members = &cluster_sets[c];
                let (sub, map) = graph.induced_subgraph(members);
                let local = if members.len() <= oracle.exact_threshold {
                    ExactOracle.independent_set(&sub).into_vertices()
                } else {
                    certified = false;
                    per_decrement_picks(&sub)
                };
                union.extend(local.iter().map(|v| map[v.index()]));
            }
            class_sizes.push(union.len());
            if union.len() > best.len() || best.is_empty() && union.is_empty() && color == 0 {
                best = union;
                best_color = color;
                best_certified = certified;
            }
        }
        (IndependentSet::new(graph, best).unwrap(), class_sizes, best_color, best_certified)
    }

    #[test]
    fn solve_matches_the_copy_based_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut graphs = vec![Graph::empty(0), Graph::empty(6), grid(7, 9)];
        for trial in 0..8 {
            graphs.push(gnp(&mut rng, 30 + trial * 23, [0.03, 0.08, 0.2][trial % 3]));
        }
        for (seed, n, m, k) in [(1, 12, 6, 1), (2, 24, 10, 3), (3, 32, 12, 4)] {
            graphs.push(planted_conflict_graph(seed, n, m, k));
        }
        for exact_threshold in [0, 4, 48] {
            let oracle = DecompositionOracle { exact_threshold };
            for (i, g) in graphs.iter().enumerate() {
                let solve = oracle.solve(g);
                let (set, class_sizes, best_color, certified) = copy_based_solve(oracle, g);
                let case = format!("graph {i}, threshold {exact_threshold}");
                assert_eq!(solve.independent_set, set, "{case}");
                assert_eq!(oracle.independent_set(g), set, "{case}: oracle path");
                assert_eq!(solve.class_sizes, class_sizes, "{case}");
                assert_eq!(solve.best_color, best_color, "{case}");
                assert_eq!(solve.certified, certified, "{case}");
            }
        }
    }

    /// A 5-clique whose vertices each carry a pendant leaf. The carve
    /// from vertex 0 clusters the clique with 0's leaf (α = 2) as color
    /// 0 and blocks the other four leaves, which become four isolated
    /// color-1 clusters, so the later class wins.
    fn clique_with_leaves() -> Graph {
        let mut edges: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 5)).collect();
        edges.extend((0..5).flat_map(|i| (i + 1..5).map(move |j| (i, j))));
        Graph::from_edges(10, edges).unwrap()
    }

    #[test]
    fn oracle_path_skips_only_classes_that_cannot_win() {
        // Whether some class after the first has no more vertices than
        // the best union before it, so that the oracle path skips it.
        let has_dominated_class = |solve: &DecompositionSolve| {
            let sets = solve.decomposition.cluster_vertex_sets();
            let by_color = solve.decomposition.clusters_by_color();
            let vertices: Vec<usize> =
                by_color.iter().map(|cs| cs.iter().map(|&c| sets[c].len()).sum()).collect();
            (1..vertices.len())
                .any(|j| vertices[j] <= solve.class_sizes[..j].iter().copied().max().unwrap())
        };
        for exact_threshold in [0, 4, 48] {
            let oracle = DecompositionOracle { exact_threshold };
            let wins = clique_with_leaves();
            let solve = oracle.solve(&wins);
            assert_eq!((solve.best_color, solve.class_sizes.clone()), (1, vec![2, 4]));
            assert_eq!(oracle.independent_set(&wins), solve.independent_set);

            let skips = grid(7, 9);
            let solve = oracle.solve(&skips);
            assert!(has_dominated_class(&solve), "no class is skipped: {:?}", solve.class_sizes);
            assert_eq!(oracle.independent_set(&skips), solve.independent_set);
        }
    }

    fn check(g: &Graph) -> DecompositionSolve {
        let solve = DecompositionOracle::default().solve(g);
        assert!(g.is_independent_set(solve.independent_set.vertices()));
        solve.decomposition.verify(g).unwrap();
        assert_eq!(solve.class_sizes.len(), solve.decomposition.color_count());
        assert_eq!(
            solve.class_sizes[solve.best_color],
            solve.independent_set.len(),
            "best class size must match the output"
        );
        solve
    }

    #[test]
    fn guarantee_holds_on_small_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let g = gnp(&mut rng, 36, 0.15);
            let solve = check(&g);
            let alpha = ExactOracle.independence_number(&g);
            let c = solve.decomposition.color_count().max(1);
            assert!(
                solve.independent_set.len() * c >= alpha,
                "got {}, need ≥ α/c = {alpha}/{c}",
                solve.independent_set.len()
            );
        }
    }

    #[test]
    fn certified_when_clusters_are_small() {
        let g = grid(6, 6);
        let solve = check(&g);
        if solve.certified {
            // The formal guarantee applies.
            let alpha = ExactOracle.independence_number(&g);
            assert!(solve.independent_set.len() * solve.decomposition.color_count() >= alpha);
        }
    }

    #[test]
    fn cluster_graphs_are_solved_optimally() {
        // Each clique is one cluster (radius ≤ 1); every class union
        // picks one vertex per clique — α exactly.
        let g = cluster_graph(6, 4);
        let solve = check(&g);
        assert_eq!(solve.independent_set.len(), 6);
        assert!(solve.certified);
    }

    #[test]
    fn classic_families() {
        check(&path(40));
        check(&cycle(33));
        check(&complete(10));
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        check(&random_tree(&mut rng, 64));
        check(&Graph::empty(5));
    }

    #[test]
    fn empty_graph() {
        let solve = DecompositionOracle::default().solve(&Graph::empty(0));
        assert!(solve.independent_set.is_empty());
    }

    #[test]
    fn oracle_metadata() {
        assert_eq!(DecompositionOracle::default().name(), "decomposition");
        let g = cycle(16);
        // ⌈log₂ 16⌉ + 1 = 5.
        assert_eq!(DecompositionOracle::default().lambda_for(&g), Some(5.0));
    }
}
