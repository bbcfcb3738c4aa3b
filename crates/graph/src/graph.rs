//! Immutable simple undirected graphs in compressed sparse row form.
//!
//! [`Graph`] is the workhorse of the whole workspace: the LOCAL and
//! SLOCAL simulators run on it, the MaxIS oracles consume it, and the
//! paper's conflict graph `G_k` is materialized as one. Graphs are
//! immutable after construction (via [`GraphBuilder`] or the convenience
//! constructors), which lets every consumer share them freely across
//! threads, and lets a graph memoize its [`Graph::fingerprint`].

use crate::{Adjacency, EdgeId, GraphError, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// An immutable simple undirected graph.
///
/// Vertices are `0..n`; parallel edges and self loops are rejected at
/// construction. Internally stored in compressed sparse row (CSR) form:
/// neighbor lists are sorted, so adjacency tests are `O(log Δ)` and
/// neighborhood scans are cache friendly.
///
/// # Examples
///
/// ```
/// use pslocal_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Graph {
    /// CSR offsets; `offsets.len() == n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists; `targets.len() == 2m`.
    targets: Vec<NodeId>,
    /// [`Graph::fingerprint`] of the two arrays, set on first call. It
    /// is derived data: equality ignores it, and serialization skips
    /// it.
    #[serde(skip)]
    fingerprint: OnceLock<u64>,
}

/// Equality compares the CSR arrays only, so a graph that has
/// memoized its fingerprint equals its never-fingerprinted rebuild.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates the empty graph on `n` isolated vertices.
    ///
    /// # Examples
    ///
    /// ```
    /// use pslocal_graph::Graph;
    /// let g = Graph::empty(5);
    /// assert_eq!(g.node_count(), 5);
    /// assert_eq!(g.edge_count(), 0);
    /// ```
    pub fn empty(n: usize) -> Self {
        Graph::from_csr_parts(vec![0; n + 1], Vec::new())
    }

    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Duplicate edges (in either orientation) are silently merged.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `≥ n` and
    /// [`GraphError::SelfLoop`] for an edge `{v, v}`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut builder = GraphBuilder::new(n);
        for (u, v) in edges {
            builder.try_add_edge_indices(u, v)?;
        }
        Ok(builder.build())
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Returns `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Iterator over all vertex identifiers.
    pub fn nodes(&self) -> crate::ids::NodeIds {
        crate::ids::node_ids(self.node_count())
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Tests adjacency in `O(log deg(u))`.
    ///
    /// Returns `false` for `u == v` (simple graphs have no loops).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Search from the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over the canonical edge list; each edge appears once as
    /// `(u, v)` with `u < v`, in lexicographic order.
    ///
    /// The list is not stored: because every neighbor row is sorted, the
    /// `v > u` partners of `u` form a contiguous row suffix, and the
    /// iterator streams those suffixes in row order — which *is*
    /// lexicographic order. One `partition_point` per row, `O(1)` per
    /// edge thereafter.
    pub fn edges(&self) -> Edges<'_> {
        Edges { graph: self, node: 0, idx: 0, row_end: 0, remaining: self.edge_count() }
    }

    /// The canonical endpoints of edge `e`.
    ///
    /// Edge identifiers index the lexicographically sorted canonical edge
    /// list, i.e. `edge_endpoints(EdgeId::new(i))` is the `i`-th element
    /// of [`edges`](Self::edges). Linear in the position (the list is
    /// streamed, not stored); intended for diagnostics and tests.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        // pslocal: allow(panic-path, "documented panic: EdgeIds are only minted by this graph, so an out-of-range id is caller misuse")
        self.edges().nth(e.index()).expect("edge id out of range")
    }

    /// The induced subgraph on `keep`, together with the mapping from new
    /// vertex ids to original ids.
    ///
    /// Vertices are renumbered `0..keep.len()` in the order given;
    /// duplicate entries in `keep` are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains an out-of-range or duplicate vertex.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        // Strictly increasing keep sets (the common case: reduction
        // residuals, conflict-graph restrictions) take the sort-free
        // CSR path.
        if keep.windows(2).all(|w| w[0] < w[1]) {
            return (crate::csr::induced_sorted(self, keep), keep.to_vec());
        }
        let n = self.node_count();
        let mut position = vec![u32::MAX; n];
        for (new, &old) in keep.iter().enumerate() {
            assert!(old.index() < n, "vertex {old} out of range");
            assert!(position[old.index()] == u32::MAX, "duplicate vertex {old} in keep set");
            position[old.index()] = new as u32;
        }
        let mut builder = GraphBuilder::new(keep.len());
        for (new_u, &old_u) in keep.iter().enumerate() {
            for &old_v in self.neighbors(old_u) {
                let new_v = position[old_v.index()];
                if new_v != u32::MAX && (new_u as u32) < new_v {
                    builder.add_edge(NodeId::new(new_u), NodeId::from(new_v));
                }
            }
        }
        (builder.build(), keep.to_vec())
    }

    /// The complement graph (edges exactly where `self` has none).
    ///
    /// Quadratic in `n`; intended for the small instances used by exact
    /// solvers and tests.
    pub fn complement(&self) -> Graph {
        let n = self.node_count();
        let mut builder = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                if !self.has_edge(u, v) {
                    builder.add_edge(u, v);
                }
            }
        }
        builder.build()
    }

    /// Checks whether `set` is an independent set (pairwise non-adjacent
    /// and in range): whether it has no
    /// [`first_conflict`](Adjacency::first_conflict).
    ///
    /// Runs in `O(n + Σ_{v ∈ set} deg(v))`.
    pub fn is_independent_set(&self, set: &[NodeId]) -> bool {
        self.first_conflict(set).is_none()
    }

    /// Checks whether `set` is a *maximal* independent set: independent,
    /// and every vertex outside has a neighbor inside.
    pub fn is_maximal_independent_set(&self, set: &[NodeId]) -> bool {
        if !self.is_independent_set(set) {
            return false;
        }
        let mut member = vec![false; self.node_count()];
        for &v in set {
            member[v.index()] = true;
        }
        self.nodes()
            .all(|v| member[v.index()] || self.neighbors(v).iter().any(|&u| member[u.index()]))
    }

    /// Validates a proper vertex coloring: every edge bichromatic.
    ///
    /// `colors[v]` is the color of vertex `v`; the slice must have length
    /// `n`.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len() != n`.
    pub fn is_proper_coloring(&self, colors: &[crate::Color]) -> bool {
        assert_eq!(colors.len(), self.node_count(), "color slice length mismatch");
        self.edges().all(|(u, v)| colors[u.index()] != colors[v.index()])
    }

    /// Sum of all vertex degrees (`2m`); exposed because several
    /// complexity accountings in the paper charge per degree.
    pub fn degree_sum(&self) -> usize {
        self.targets.len()
    }

    /// Assembles a graph from finished CSR parts. The `csr` module is
    /// the only producer; it guarantees the invariants (offsets
    /// monotone, rows sorted and loop-free, every edge present in both
    /// orientations), which debug builds re-check.
    pub(crate) fn from_csr_parts(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        // pslocal: allow(panic-path, "debug_assert-only path: the preceding line has already asserted offsets is non-empty")
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert_eq!(targets.len() % 2, 0);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let graph = Graph { offsets, targets, fingerprint: OnceLock::new() };
        debug_assert!(graph.nodes().all(|v| graph.neighbors(v).windows(2).all(|w| w[0] < w[1])));
        debug_assert!(graph.nodes().all(|v| !graph.neighbors(v).contains(&v)));
        graph
    }

    /// Disassembles the graph into its CSR parts so the buffers can be
    /// recycled (see `csr::InducedArena`).
    pub(crate) fn into_csr_parts(self) -> (Vec<u32>, Vec<NodeId>) {
        (self.offsets, self.targets)
    }

    /// The memo behind [`Graph::fingerprint`] (the stream itself lives
    /// in [`crate::fingerprint`]).
    pub(crate) fn fingerprint_memo(&self) -> &OnceLock<u64> {
        &self.fingerprint
    }
}

/// Streaming iterator over a graph's canonical edge list; see
/// [`Graph::edges`].
pub struct Edges<'a> {
    graph: &'a Graph,
    /// Current row (vertex `u`); `node_count` once exhausted.
    node: usize,
    /// Cursor into `targets`, positioned inside the current row's
    /// `v > u` suffix.
    idx: usize,
    /// End of the current row in `targets`.
    row_end: usize,
    remaining: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        if self.remaining == 0 {
            return None;
        }
        while self.idx >= self.row_end {
            let row = self.graph.neighbors(NodeId::new(self.node));
            let start = self.graph.offsets[self.node] as usize;
            self.idx = start + row.partition_point(|&b| b.index() <= self.node);
            self.row_end = self.graph.offsets[self.node + 1] as usize;
            self.node += 1;
        }
        let u = NodeId::new(self.node - 1);
        let v = self.graph.targets[self.idx];
        self.idx += 1;
        self.remaining -= 1;
        Some((u, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Edges<'_> {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// Collects edges (duplicates in any orientation allowed; merged on
/// [`build`](Self::build)) and produces the immutable CSR graph.
///
/// # Examples
///
/// ```
/// use pslocal_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId::new(0), NodeId::new(1));
/// b.add_edge(NodeId::new(1), NodeId::new(0)); // duplicate, merged
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    pairs: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, pairs: Vec::new() }
    }

    /// Creates a builder with capacity for `m` edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { n, pairs: Vec::with_capacity(m) }
    }

    /// Number of vertices the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        // pslocal: allow(panic-path, "documented panicking convenience over try_add_edge for builder-style literals; fallible form is public")
        self.try_add_edge(u, v).expect("invalid edge");
        self
    }

    /// Adds the undirected edge `{u, v}`, reporting failures.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        if u.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, node_count: self.n });
        }
        if v.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, node_count: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let pair = if u < v { (u, v) } else { (v, u) };
        self.pairs.push(pair);
        Ok(self)
    }

    /// Adds an edge given raw indices; used by deserializers and
    /// generators.
    ///
    /// # Errors
    ///
    /// Same as [`try_add_edge`](Self::try_add_edge).
    pub fn try_add_edge_indices(&mut self, u: usize, v: usize) -> Result<&mut Self, GraphError> {
        // Range-check before constructing NodeIds so that huge indices
        // report NodeOutOfRange rather than panicking in NodeId::new.
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: NodeId::new(u.min(u32::MAX as usize)),
                node_count: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: NodeId::new(v.min(u32::MAX as usize)),
                node_count: self.n,
            });
        }
        self.try_add_edge(NodeId::new(u), NodeId::new(v))
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// Duplicate edges are merged; neighbor lists come out sorted.
    /// Assembly is the counting-sort CSR path of [`crate::csr`]
    /// (`O(pairs + n)`, no comparison sorts).
    pub fn build(self) -> Graph {
        crate::csr::from_pairs(self.n, self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(7);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        for v in g.nodes() {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn zero_node_graph_is_fine() {
        let g = Graph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn from_edges_builds_expected_adjacency() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(3)]);
        assert_eq!(g.neighbors(NodeId::new(2)), &[NodeId::new(1), NodeId::new(3)]);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.degree_sum(), 8);
    }

    #[test]
    fn duplicate_edges_merge() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn self_loop_is_rejected() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: NodeId::new(1) });
    }

    #[test]
    fn out_of_range_is_rejected() {
        let err = Graph::from_edges(3, [(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn has_edge_agrees_with_edge_list() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let listed = g.edges().any(|(a, b)| (a, b) == (u.min(v), u.max(v)));
                assert_eq!(g.has_edge(u, v), listed && u != v, "mismatch at ({u}, {v})");
            }
        }
    }

    #[test]
    fn edges_are_canonical_and_sorted() {
        let g = Graph::from_edges(4, [(3, 2), (1, 0), (2, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(0), NodeId::new(2)),
                (NodeId::new(2), NodeId::new(3)),
            ]
        );
        assert_eq!(g.edge_endpoints(EdgeId::new(1)), (NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let keep = [NodeId::new(0), NodeId::new(1), NodeId::new(3)];
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 3);
        // Only {0,1} survives; {1,2},{2,3},{3,4},{4,0} all touch removed
        // vertices except none between 0/1/3 other than (0,1).
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(map, keep.to_vec());
    }

    #[test]
    #[should_panic(expected = "duplicate vertex")]
    fn induced_subgraph_rejects_duplicates() {
        let g = path(3);
        let _ = g.induced_subgraph(&[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn complement_of_path3_is_single_edge() {
        let g = path(3); // 0-1-2
        let c = g.complement();
        assert_eq!(c.edge_count(), 1);
        assert!(c.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn complement_is_involutive() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (4, 5), (1, 4)]).unwrap();
        assert_eq!(g.complement().complement(), g);
    }

    #[test]
    fn independence_checks() {
        let g = path(4); // 0-1-2-3
        assert!(g.is_independent_set(&[NodeId::new(0), NodeId::new(2)]));
        assert!(g.is_independent_set(&[]));
        assert!(!g.is_independent_set(&[NodeId::new(0), NodeId::new(1)]));
        // duplicates in the set are tolerated
        assert!(g.is_independent_set(&[NodeId::new(0), NodeId::new(0)]));
        assert!(g.is_maximal_independent_set(&[NodeId::new(0), NodeId::new(2)]));
        assert!(!g.is_maximal_independent_set(&[NodeId::new(1)])); // 3 uncovered
        assert!(g.is_maximal_independent_set(&[NodeId::new(1), NodeId::new(3)]));
    }

    #[test]
    fn proper_coloring_check() {
        use crate::Color;
        let g = path(3);
        let good = vec![Color::new(0), Color::new(1), Color::new(0)];
        let bad = vec![Color::new(0), Color::new(0), Color::new(1)];
        assert!(g.is_proper_coloring(&good));
        assert!(!g.is_proper_coloring(&bad));
    }

    #[test]
    fn average_degree_of_cycle_is_two() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn fingerprint_memo_is_not_part_of_the_value() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let g = Graph::from_edges(4, edges).unwrap();
        let fp = g.fingerprint();
        let rebuilt = Graph::from_edges(4, edges).unwrap();
        assert!(rebuilt.fingerprint_memo().get().is_none());
        assert_eq!(g, rebuilt);
        assert_eq!(rebuilt.fingerprint(), fp);
        assert_ne!(g, path(4));
    }

    #[test]
    fn clone_keeps_the_memoized_fingerprint() {
        let g = path(6);
        let fp = g.fingerprint();
        let c = g.clone();
        assert_eq!(c.fingerprint_memo().get(), Some(&fp));
        assert_eq!(c.fingerprint(), fp);
    }

    #[test]
    fn debug_output_is_compact() {
        let g = path(3);
        let s = format!("{g:?}");
        assert!(s.contains("nodes: 3") && s.contains("edges: 2"));
    }
}
