//! Counting-sort CSR assembly — the fast backing store of [`Graph`].
//!
//! [`GraphBuilder`](crate::GraphBuilder) historically comparison-sorted
//! its pair list (`O(m log m)`) and then re-sorted every neighbor run.
//! Both sorts are unnecessary: a two-pass LSD counting sort (radix by
//! minor then major endpoint, each pass `O(m + n)`) produces the
//! lexicographically sorted canonical edge list, and scattering that
//! sorted list into rows yields *already sorted* neighbor runs — for a
//! node `w`, smaller neighbors arrive while the scan's primary key is
//! still `< w` (in increasing order, since the primary key increases)
//! and larger neighbors arrive while the primary key equals `w` (in
//! increasing order of the minor key), so each run is the concatenation
//! of two increasing, correctly ordered halves.
//!
//! The module exposes three entry points, all `O(edges + n)`:
//!
//! * [`from_pairs`] — duplicate-tolerant assembly from unordered
//!   endpoint pairs, behind [`GraphBuilder`](crate::GraphBuilder) and the
//!   conflict graph's all-pairs reference builder;
//! * [`from_sorted_unique_edges`] — zero-copy finalization when the
//!   caller already holds the canonical sorted edge list;
//! * [`induced_sorted`] — induced subgraphs on a *sorted* keep set
//!   without re-sorting anything (the vertex renumbering is monotone,
//!   so filtered rows stay sorted). This is the engine of the
//!   phase-incremental conflict-graph pipeline in `pslocal-core`.

use crate::{Graph, NodeId};

/// Builds a graph from undirected endpoint pairs via counting sort.
///
/// Pairs may appear in either orientation and duplicated; they are
/// canonicalized, radix-sorted, and deduplicated in `O(pairs + n)`.
///
/// # Panics
///
/// Panics if a pair is a self loop or references a node `≥ n` (callers
/// validate; this is the trusted fast path).
///
/// # Examples
///
/// ```
/// use pslocal_graph::{csr, NodeId};
///
/// let pairs = vec![
///     (NodeId::new(2), NodeId::new(0)),
///     (NodeId::new(0), NodeId::new(1)),
///     (NodeId::new(1), NodeId::new(0)), // duplicate, merged
/// ];
/// let g = csr::from_pairs(3, pairs);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(2)]);
/// ```
pub fn from_pairs(n: usize, pairs: Vec<(NodeId, NodeId)>) -> Graph {
    let total = pairs.len();
    // Pass 1: stable counting sort by the minor (larger) endpoint.
    let mut count = vec![0u32; n + 1];
    for &(u, v) in &pairs {
        assert!(u != v, "self loop {u} in CSR pair buffer");
        assert!(u.index() < n && v.index() < n, "pair ({u}, {v}) out of range 0..{n}");
        let hi = if u < v { v } else { u };
        count[hi.index()] += 1;
    }
    let mut start = 0u32;
    for c in count.iter_mut() {
        let here = *c;
        *c = start;
        start += here;
    }
    let mut by_minor = vec![(NodeId::new(0), NodeId::new(0)); total];
    for &(u, v) in &pairs {
        let pair = if u < v { (u, v) } else { (v, u) };
        let slot = &mut count[pair.1.index()];
        by_minor[*slot as usize] = pair;
        *slot += 1;
    }
    drop(pairs);
    // Pass 2: stable counting sort by the major (smaller) endpoint;
    // stability preserves the minor order within each major run, so the
    // result is lexicographically sorted.
    let mut count = vec![0u32; n + 1];
    for &(u, _) in &by_minor {
        count[u.index()] += 1;
    }
    let mut start = 0u32;
    for c in count.iter_mut() {
        let here = *c;
        *c = start;
        start += here;
    }
    let mut edges = vec![(NodeId::new(0), NodeId::new(0)); total];
    for &pair in &by_minor {
        let slot = &mut count[pair.0.index()];
        edges[*slot as usize] = pair;
        *slot += 1;
    }
    drop(by_minor);
    edges.dedup();
    from_sorted_unique_edges(n, edges)
}

/// Finalizes a graph from its canonical edge list: each edge once as
/// `(u, v)` with `u < v`, lexicographically sorted, no duplicates.
///
/// Runs a single scatter pass; neighbor runs come out sorted by the
/// argument in the module docs, so no per-row sort happens.
///
/// # Panics
///
/// Debug builds assert canonical order and uniqueness; release builds
/// trust the caller (the pair-based entry points above establish the
/// invariant themselves).
pub fn from_sorted_unique_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Graph {
    debug_assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "edge list must be strictly lexicographically sorted"
    );
    debug_assert!(edges.iter().all(|&(u, v)| u < v && v.index() < n), "edges must be canonical");
    let mut degree = vec![0u32; n];
    for &(u, v) in &edges {
        degree[u.index()] += 1;
        degree[v.index()] += 1;
    }
    let mut offsets = vec![0u32; n + 1];
    for i in 0..n {
        offsets[i + 1] = offsets[i] + degree[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut targets = vec![NodeId::new(0); 2 * edges.len()];
    for &(u, v) in &edges {
        targets[cursor[u.index()] as usize] = v;
        cursor[u.index()] += 1;
        targets[cursor[v.index()] as usize] = u;
        cursor[v.index()] += 1;
    }
    Graph::from_csr_parts(offsets, targets)
}

/// Assembles a graph from caller-built CSR arrays: `offsets` of length
/// `n + 1` and `targets` holding each row's sorted neighbor list (each
/// edge present in both orientations). This is the zero-copy
/// finalization for producers that emit rows directly in sorted order —
/// the conflict-graph kernel streams its rows block by block and never
/// materializes a pair list at all.
///
/// # Panics
///
/// Debug builds assert all CSR invariants; release builds trust the
/// caller.
pub fn from_raw_parts(offsets: Vec<u32>, targets: Vec<NodeId>) -> Graph {
    Graph::from_csr_parts(offsets, targets)
}

/// The induced subgraph of `graph` on a **strictly increasing** keep
/// set, renumbered `0..keep.len()` in order.
///
/// Because the renumbering is monotone, every filtered neighbor run is
/// already sorted and the canonical edge list falls out of a row scan
/// in lexicographic order — the whole construction is one pass over the
/// kept rows, `O(Σ_{v ∈ keep} deg(v) + n)`, with no sorting.
///
/// # Panics
///
/// Panics if `keep` is not strictly increasing or contains an
/// out-of-range vertex.
pub fn induced_sorted(graph: &Graph, keep: &[NodeId]) -> Graph {
    induced_sorted_in(graph, keep, &mut InducedArena::new())
}

/// Reusable buffers for [`induced_sorted_in`]: the vertex-renumbering
/// scratch plus a recycled pair of CSR output buffers, so a loop that
/// repeatedly restricts graphs (the per-phase reduction pipeline) does
/// no steady-state allocation — each finished graph's buffers are
/// [`recycle`](InducedArena::recycle)d and reused for the next build.
///
/// Between calls the renumbering map reads "not kept" for every vertex,
/// so a call through a warm arena costs `O(|keep| + Σ_{v ∈ keep}
/// deg(v))` however large the graph is: many small subgraphs of one
/// big graph (the decomposition oracle's clusters, a graph's
/// components) share one arena at the price of their own size.
#[derive(Debug, Default, Clone)]
pub struct InducedArena {
    position: Vec<u32>,
    offsets_pool: Vec<u32>,
    targets_pool: Vec<NodeId>,
}

impl InducedArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a no-longer-needed graph's CSR buffers to the pool; the
    /// next [`induced_sorted_in`] through this arena builds into them.
    pub fn recycle(&mut self, graph: Graph) {
        let (offsets, targets) = graph.into_csr_parts();
        self.offsets_pool = offsets;
        self.targets_pool = targets;
    }
}

/// [`induced_sorted`] through caller-owned buffers — identical output,
/// zero allocation once the arena's pools are warm.
///
/// With a reused arena a call costs `O(|keep| + Σ_{v ∈ keep} deg(v))`:
/// the renumbering map grows to the largest graph seen, and a call
/// writes and afterwards resets only the kept entries.
///
/// # Panics
///
/// Panics if `keep` is not strictly increasing or contains an
/// out-of-range vertex. Both are checked before the arena is written,
/// so the arena stays valid for the next call.
pub fn induced_sorted_in(graph: &Graph, keep: &[NodeId], arena: &mut InducedArena) -> Graph {
    assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep set must be strictly increasing");
    let n = graph.node_count();
    if let Some(&last) = keep.last() {
        assert!(last.index() < n, "vertex {last} out of range");
    }
    let position = &mut arena.position;
    if position.len() < n {
        position.resize(n, u32::MAX);
    }
    for (new, &old) in keep.iter().enumerate() {
        position[old.index()] = new as u32;
    }
    let mut offsets = std::mem::take(&mut arena.offsets_pool);
    offsets.clear();
    offsets.resize(keep.len() + 1, 0);
    for (new, &old) in keep.iter().enumerate() {
        let kept = graph.neighbors(old).iter().filter(|u| position[u.index()] != u32::MAX).count();
        offsets[new + 1] = offsets[new] + kept as u32;
    }
    let mut targets = std::mem::take(&mut arena.targets_pool);
    targets.clear();
    targets.resize(offsets[keep.len()] as usize, NodeId::new(0));
    let mut write = 0usize;
    for &old in keep {
        for &u in graph.neighbors(old) {
            let mapped = position[u.index()];
            if mapped != u32::MAX {
                targets[write] = NodeId::from(mapped);
                write += 1;
            }
        }
    }
    for &old in keep {
        position[old.index()] = u32::MAX;
    }
    Graph::from_csr_parts(offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::gnp;
    use crate::GraphBuilder;
    use rand::SeedableRng;

    fn reference(n: usize, pairs: &[(NodeId, NodeId)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in pairs {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn from_pairs_matches_builder_on_random_input() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let g = gnp(&mut rng, 30 + trial, 0.15);
            let mut pairs: Vec<(NodeId, NodeId)> = g.edges().collect();
            // Duplicate and flip a few pairs to exercise canonicalization.
            let extra: Vec<_> = pairs.iter().step_by(3).map(|&(u, v)| (v, u)).collect();
            pairs.extend(extra);
            assert_eq!(from_pairs(g.node_count(), pairs.clone()), g);
            assert_eq!(
                from_pairs(g.node_count(), pairs.clone()),
                reference(g.node_count(), &pairs)
            );
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(from_pairs(5, Vec::new()), Graph::empty(5));
        assert_eq!(from_pairs(0, Vec::new()), Graph::empty(0));
        assert_eq!(from_sorted_unique_edges(3, Vec::new()), Graph::empty(3));
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_panics() {
        let _ = from_pairs(3, vec![(NodeId::new(1), NodeId::new(1))]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = from_pairs(3, vec![(NodeId::new(0), NodeId::new(7))]);
    }

    #[test]
    fn induced_sorted_matches_general_induced() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for trial in 0..10 {
            let g = gnp(&mut rng, 40, 0.2);
            let keep: Vec<NodeId> = g.nodes().step_by(2 + trial % 3).collect();
            let (general, _) = g.induced_subgraph(&keep);
            assert_eq!(induced_sorted(&g, &keep), general);
        }
    }

    #[test]
    fn induced_sorted_keeps_rows_sorted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let g = gnp(&mut rng, 50, 0.3);
        let keep: Vec<NodeId> = g.nodes().filter(|v| v.index() % 3 != 1).collect();
        let sub = induced_sorted(&g, &keep);
        for v in sub.nodes() {
            assert!(sub.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn induced_sorted_rejects_unsorted_keep() {
        let g = Graph::empty(4);
        let _ = induced_sorted(&g, &[NodeId::new(2), NodeId::new(1)]);
    }

    #[test]
    fn one_arena_serves_every_keep_set_and_graph_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mut arena = InducedArena::new();
        for trial in 0..24 {
            // Sizes rise and fall, so the arena meets graphs both
            // smaller and larger than its map.
            let g = gnp(&mut rng, [60, 9, 0, 120, 31, 1][trial % 6], 0.15);
            let keep: Vec<NodeId> = g.nodes().filter(|v| (v.index() * 7 + trial) % 5 < 3).collect();
            let reused = induced_sorted_in(&g, &keep, &mut arena);
            assert_eq!(
                reused,
                induced_sorted_in(&g, &keep, &mut InducedArena::new()),
                "trial {trial}"
            );
            assert_eq!(reused, g.induced_subgraph(&keep).0, "trial {trial}");
            if trial % 2 == 0 {
                arena.recycle(reused);
            }
            assert!(arena.position.iter().all(|&p| p == u32::MAX), "trial {trial} left a mapping");
        }
    }

    #[test]
    fn rejected_keep_sets_leave_the_arena_valid() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let g = gnp(&mut rng, 40, 0.2);
        let keep: Vec<NodeId> = g.nodes().step_by(3).collect();
        let expected = induced_sorted(&g, &keep);
        let mut arena = InducedArena::new();
        let _ = induced_sorted_in(&g, &keep, &mut arena);
        let bad: [Vec<NodeId>; 3] = [
            vec![NodeId::new(1), NodeId::new(5), NodeId::new(3)],
            vec![NodeId::new(2), NodeId::new(2)],
            vec![NodeId::new(0), NodeId::new(7), NodeId::new(40)],
        ];
        for keep_bad in &bad {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                induced_sorted_in(&g, keep_bad, &mut arena)
            }));
            assert!(result.is_err(), "{keep_bad:?} must be rejected");
            assert_eq!(induced_sorted_in(&g, &keep, &mut arena), expected, "after {keep_bad:?}");
        }
    }
}
