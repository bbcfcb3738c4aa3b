//! Exact maximum independent set by branch and bound.
//!
//! The reduction experiments need ground truth: the exact `α(G)` both
//! calibrates the heuristic oracles' realized λ and instantiates the
//! best possible oracle (λ = 1) in the Theorem 1.1 phase-count
//! experiments. The solver is a classic branch and bound with
//! degree-based reductions:
//!
//! * connected components are solved independently;
//! * degree-0 and degree-1 vertices are always taken (a safe reduction);
//! * branching picks a maximum-degree vertex `v` and explores
//!   "take `v`" / "skip `v`", pruning with the trivial
//!   `current + remaining` bound.
//!
//! Practical up to a few hundred sparse or ~60 dense vertices — ample
//! for the cluster subproblems and calibration instances of the suite.

use crate::oracle::{ApproxGuarantee, MaxIsOracle};
use pslocal_graph::algo::component_vertex_sets;
use pslocal_graph::{csr, Graph, IndependentSet, NodeId};

/// Exact MaxIS oracle (λ = 1).
///
/// # Examples
///
/// ```
/// use pslocal_graph::generators::classic::cycle;
/// use pslocal_maxis::{ExactOracle, MaxIsOracle};
///
/// let g = cycle(7);
/// let is = ExactOracle::default().independent_set(&g);
/// assert_eq!(is.len(), 3); // α(C₇) = ⌊7/2⌋
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactOracle;

impl ExactOracle {
    /// Computes `α(graph)` (size only).
    pub fn independence_number(&self, graph: &Graph) -> usize {
        self.independent_set(graph).len()
    }
}

impl MaxIsOracle for ExactOracle {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn independent_set(&self, graph: &Graph) -> IndependentSet {
        // Components are ascending vertex lists, so local vertex `i` of
        // a copy is `component[i]`; one arena serves every copy.
        let mut arena = csr::InducedArena::new();
        let mut chosen: Vec<NodeId> = Vec::new();
        for component in component_vertex_sets(graph) {
            let sub = csr::induced_sorted_in(graph, &component, &mut arena);
            chosen.extend(solve_connected(&sub).into_iter().map(|v| component[v.index()]));
            arena.recycle(sub);
        }
        // Invariant, not a fallible path: the branch-and-bound solver
        // only branches on vertices compatible with its current set, and
        // components are vertex-disjoint.
        // pslocal: allow(panic-path, "invariant stated above: the branch-and-bound only extends with compatible vertices across disjoint components")
        IndependentSet::new(graph, chosen).expect("solver returns an independent set")
    }

    fn guarantee(&self) -> ApproxGuarantee {
        ApproxGuarantee::Exact
    }
}

/// Solves one (small) graph exactly; vertices are local indices.
fn solve_connected(graph: &Graph) -> Vec<NodeId> {
    let n = graph.node_count();
    let mut alive = vec![true; n];
    let mut degree: Vec<usize> = graph.nodes().map(|v| graph.degree(v)).collect();
    // Warm start with the greedy solution so the bounds prune from the
    // first branch node on (greedy is often optimal on these graphs).
    let mut best: Vec<NodeId> = crate::greedy::GreedyOracle.independent_set(graph).into_vertices();
    let mut current: Vec<NodeId> = Vec::new();
    branch(graph, &mut alive, &mut degree, n, &mut current, &mut best);
    best
}

/// Removes `v` from the residual graph, updating degrees. Returns the
/// list of removed vertices for undo.
fn remove_vertex(graph: &Graph, alive: &mut [bool], degree: &mut [usize], v: NodeId) {
    alive[v.index()] = false;
    for &u in graph.neighbors(v) {
        if alive[u.index()] {
            degree[u.index()] -= 1;
        }
    }
}

fn restore_vertex(graph: &Graph, alive: &mut [bool], degree: &mut [usize], v: NodeId) {
    alive[v.index()] = true;
    for &u in graph.neighbors(v) {
        if alive[u.index()] {
            degree[u.index()] += 1;
        }
    }
}

/// Greedy clique cover of the alive vertices: an upper bound on the
/// independence number of the residual graph. This is the pruning
/// engine that keeps the solver practical on the *dense* conflict
/// graphs `G_k` (where α = m is tiny relative to n and the trivial
/// `current + alive` bound never fires).
fn cover_bound(graph: &Graph, alive: &[bool]) -> usize {
    let mut cliques: Vec<Vec<NodeId>> = Vec::new();
    for (i, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            continue;
        }
        let v = NodeId::new(i);
        let mut placed = false;
        for clique in &mut cliques {
            if clique.iter().all(|&u| graph.has_edge(u, v)) {
                clique.push(v);
                placed = true;
                break;
            }
        }
        if !placed {
            cliques.push(vec![v]);
        }
    }
    cliques.len()
}

fn branch(
    graph: &Graph,
    alive: &mut Vec<bool>,
    degree: &mut Vec<usize>,
    alive_count: usize,
    current: &mut Vec<NodeId>,
    best: &mut Vec<NodeId>,
) {
    // Trivial bound.
    if current.len() + alive_count <= best.len() {
        return;
    }
    // Clique-cover bound (worth its cost on graphs where it prunes;
    // skip on tiny residuals where the trivial bound suffices).
    if alive_count > 8 && current.len() + cover_bound(graph, alive) <= best.len() {
        return;
    }
    // Reductions: take all degree-0 and degree-1 vertices greedily
    // (always safe for MaxIS). We apply one reduction and recurse; the
    // undo trail keeps the state exact.
    let mut pick: Option<NodeId> = None; // vertex to take by reduction
    let mut max_deg = 0usize;
    let mut branch_vertex: Option<NodeId> = None;
    for i in 0..alive.len() {
        if !alive[i] {
            continue;
        }
        let v = NodeId::new(i);
        let d = degree[i];
        if d <= 1 {
            pick = Some(v);
            break;
        }
        if d > max_deg {
            max_deg = d;
            branch_vertex = Some(v);
        }
    }

    let Some(bv) = pick.or(branch_vertex) else {
        // No alive vertices left.
        if current.len() > best.len() {
            *best = current.clone();
        }
        return;
    };

    if pick.is_some() {
        // Reduction: take bv, delete its closed neighborhood.
        let removed = take_closed_neighborhood(graph, alive, degree, bv);
        current.push(bv);
        branch(graph, alive, degree, alive_count - removed.len(), current, best);
        current.pop();
        for &u in removed.iter().rev() {
            restore_vertex(graph, alive, degree, u);
        }
        return;
    }

    // Branch 1: take bv.
    let removed = take_closed_neighborhood(graph, alive, degree, bv);
    current.push(bv);
    branch(graph, alive, degree, alive_count - removed.len(), current, best);
    current.pop();
    for &u in removed.iter().rev() {
        restore_vertex(graph, alive, degree, u);
    }

    // Branch 2: skip bv.
    remove_vertex(graph, alive, degree, bv);
    branch(graph, alive, degree, alive_count - 1, current, best);
    restore_vertex(graph, alive, degree, bv);
}

/// Deletes `v` and its alive neighbors; returns them in removal order.
fn take_closed_neighborhood(
    graph: &Graph,
    alive: &mut [bool],
    degree: &mut [usize],
    v: NodeId,
) -> Vec<NodeId> {
    let mut removed = Vec::with_capacity(graph.degree(v) + 1);
    let neighbors: Vec<NodeId> =
        graph.neighbors(v).iter().copied().filter(|u| alive[u.index()]).collect();
    remove_vertex(graph, alive, degree, v);
    removed.push(v);
    for u in neighbors {
        remove_vertex(graph, alive, degree, u);
        removed.push(u);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::classic::{
        cluster_graph, complete, complete_bipartite, cycle, grid, path, star,
    };
    use pslocal_graph::generators::random::{gnp, random_tree};
    use rand::SeedableRng;

    fn alpha(g: &Graph) -> usize {
        let is = ExactOracle.independent_set(g);
        assert!(g.is_independent_set(is.vertices()));
        is.len()
    }

    #[test]
    fn closed_forms() {
        assert_eq!(alpha(&path(1)), 1);
        assert_eq!(alpha(&path(2)), 1);
        assert_eq!(alpha(&path(7)), 4); // ⌈7/2⌉
        assert_eq!(alpha(&cycle(8)), 4); // ⌊8/2⌋
        assert_eq!(alpha(&cycle(9)), 4); // ⌊9/2⌋
        assert_eq!(alpha(&complete(6)), 1);
        assert_eq!(alpha(&star(10)), 9);
        assert_eq!(alpha(&complete_bipartite(4, 7)), 7);
        assert_eq!(alpha(&cluster_graph(5, 3)), 5);
        assert_eq!(alpha(&Graph::empty(4)), 4);
        assert_eq!(alpha(&Graph::empty(0)), 0);
    }

    #[test]
    fn grid_independence() {
        // α of an a×b grid is ⌈ab/2⌉ (checkerboard).
        assert_eq!(alpha(&grid(3, 4)), 6);
        assert_eq!(alpha(&grid(5, 5)), 13);
    }

    #[test]
    fn trees_match_greedy_leaf_argument() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let t = random_tree(&mut rng, 40);
            // For trees, α ≥ n/2 always.
            assert!(alpha(&t) >= 20);
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = gnp(&mut rng, 14, 0.3);
            assert_eq!(alpha(&g), brute_force_alpha(&g), "graph {g:?}");
        }
        for _ in 0..5 {
            let g = gnp(&mut rng, 12, 0.7);
            assert_eq!(alpha(&g), brute_force_alpha(&g));
        }
    }

    fn brute_force_alpha(g: &Graph) -> usize {
        let n = g.node_count();
        assert!(n <= 20);
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let set: Vec<NodeId> =
                (0..n).filter(|&i| mask & (1 << i) != 0).map(NodeId::new).collect();
            if g.is_independent_set(&set) {
                best = best.max(set.len());
            }
        }
        best
    }

    #[test]
    fn handles_moderately_large_sparse_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let g = gnp(&mut rng, 120, 0.03);
        let is = ExactOracle.independent_set(&g);
        assert!(g.is_independent_set(is.vertices()));
        // Sanity: exact beats (or ties) greedy lower bounds.
        assert!(is.len() * (g.max_degree() + 1) >= g.node_count());
    }

    #[test]
    fn oracle_metadata() {
        assert_eq!(ExactOracle.name(), "exact");
        assert_eq!(ExactOracle.guarantee(), ApproxGuarantee::Exact);
        assert_eq!(ExactOracle.lambda_for(&path(5)), Some(1.0));
    }
}
