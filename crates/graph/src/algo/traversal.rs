//! Breadth-first traversal primitives: distances, balls, components.
//!
//! The `r`-hop ball extraction here is the geometric core of the SLOCAL
//! model — when a node is processed with locality `r` it "sees" exactly
//! [`ball`] of radius `r` around itself — and of the LOCAL model, where
//! after `r` rounds a node's state can depend only on that same ball.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance value for unreachable vertices in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances from `source`.
///
/// Returns a vector of length `n` with hop distances; unreachable
/// vertices get [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Examples
///
/// ```
/// use pslocal_graph::{Graph, NodeId};
/// use pslocal_graph::algo::bfs_distances;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2)])?;
/// let d = bfs_distances(&g, NodeId::new(0));
/// assert_eq!(&d[..3], &[0, 1, 2]);
/// assert_eq!(d[3], pslocal_graph::algo::UNREACHABLE);
/// # Ok(())
/// # }
/// ```
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.node_count()];
    dist[source.index()] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for &u in graph.neighbors(v) {
            if dist[u.index()] == UNREACHABLE {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// A ball of radius `r` around a center vertex: the vertices at hop
/// distance `≤ r`, with their distances, in BFS (distance-sorted) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ball {
    /// The center vertex.
    pub center: NodeId,
    /// The requested radius.
    pub radius: usize,
    /// Vertices of the ball in nondecreasing distance order; the first
    /// entry is always the center.
    pub vertices: Vec<NodeId>,
    /// `distances[i]` is the hop distance of `vertices[i]` from the
    /// center.
    pub distances: Vec<u32>,
}

impl Ball {
    /// Number of vertices in the ball.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// A ball always contains its center, so it is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The vertices at exactly the boundary distance `r`.
    pub fn boundary(&self) -> impl Iterator<Item = NodeId> + '_ {
        let r = self.radius as u32;
        self.vertices.iter().zip(&self.distances).filter(move |(_, &d)| d == r).map(|(&v, _)| v)
    }
}

/// Extracts the ball of radius `r` around `center`.
///
/// Runs in time proportional to the edges inside the ball; the rest of
/// the graph is not touched (important: SLOCAL executions extract many
/// balls and must not pay `O(n)` each — we reuse a scratch buffer via
/// [`BallExtractor`] for that; this standalone function allocates).
///
/// # Panics
///
/// Panics if `center` is out of range.
pub fn ball(graph: &Graph, center: NodeId, r: usize) -> Ball {
    BallExtractor::new(graph.node_count()).extract(graph, center, r)
}

/// Reusable scratch state for repeated ball extractions on graphs of a
/// fixed size, avoiding an `O(n)` allocation per extraction.
///
/// # Examples
///
/// ```
/// use pslocal_graph::{Graph, NodeId};
/// use pslocal_graph::algo::BallExtractor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])?;
/// let mut ex = BallExtractor::new(g.node_count());
/// let b = ex.extract(&g, NodeId::new(2), 1);
/// assert_eq!(b.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BallExtractor {
    /// `mark[v]` holds the distance of `v` in the *current* extraction,
    /// or `UNREACHABLE`.
    mark: Vec<u32>,
    /// Vertices touched by the current extraction (for O(ball) reset).
    touched: Vec<NodeId>,
}

impl BallExtractor {
    /// Creates an extractor for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BallExtractor { mark: vec![UNREACHABLE; n], touched: Vec::new() }
    }

    /// Extracts the ball of radius `r` around `center`.
    ///
    /// # Panics
    ///
    /// Panics if `center` is out of range or the extractor was sized for
    /// a smaller graph.
    pub fn extract(&mut self, graph: &Graph, center: NodeId, r: usize) -> Ball {
        assert!(
            graph.node_count() <= self.mark.len(),
            "extractor sized for {} nodes, graph has {}",
            self.mark.len(),
            graph.node_count()
        );
        // Reset only what the previous extraction touched.
        for &v in &self.touched {
            self.mark[v.index()] = UNREACHABLE;
        }
        self.touched.clear();

        let mut vertices = vec![center];
        let mut distances = vec![0u32];
        self.mark[center.index()] = 0;
        self.touched.push(center);
        let mut head = 0;
        while head < vertices.len() {
            let v = vertices[head];
            let dv = distances[head];
            head += 1;
            if dv as usize >= r {
                continue;
            }
            for &u in graph.neighbors(v) {
                if self.mark[u.index()] == UNREACHABLE {
                    self.mark[u.index()] = dv + 1;
                    self.touched.push(u);
                    vertices.push(u);
                    distances.push(dv + 1);
                }
            }
        }
        Ball { center, radius: r, vertices, distances }
    }
}

/// Connected components; `components[v]` is the 0-based component index
/// of `v`, components numbered in order of their smallest vertex.
///
/// The search stops as soon as every vertex has a label, so on a
/// connected graph the rows still queued then are never read.
///
/// Returns `(component_of, component_count)`.
pub fn connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.node_count();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut labeled = 0usize;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = next;
        labeled += 1;
        queue.clear();
        queue.push_back(NodeId::new(s));
        while labeled < n {
            let Some(v) = queue.pop_front() else { break };
            for &u in graph.neighbors(v) {
                if comp[u.index()] == u32::MAX {
                    comp[u.index()] = next;
                    labeled += 1;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// The vertex sets of all connected components, ordered by smallest
/// member, each in ascending vertex order.
pub fn component_vertex_sets(graph: &Graph) -> Vec<Vec<NodeId>> {
    let (comp, count) = connected_components(graph);
    let mut sets = vec![Vec::new(); count];
    for v in graph.nodes() {
        sets[comp[v.index()] as usize].push(v);
    }
    sets
}

/// Whether the graph is connected (vacuously true for `n ≤ 1`).
pub fn is_connected(graph: &Graph) -> bool {
    graph.node_count() <= 1 || connected_components(graph).1 == 1
}

/// Eccentricity of `v`: maximum distance to a reachable vertex.
pub fn eccentricity(graph: &Graph, v: NodeId) -> u32 {
    bfs_distances(graph, v).into_iter().filter(|&d| d != UNREACHABLE).max().unwrap_or(0)
}

/// Exact diameter by all-pairs BFS (`O(n·m)`), ignoring unreachable
/// pairs. Returns 0 for graphs with fewer than two vertices.
///
/// Intended for test/benchmark instances; experiment harnesses use it on
/// clusters whose *weak diameter* the network decomposition bounds.
pub fn diameter(graph: &Graph) -> u32 {
    graph.nodes().map(|v| eccentricity(graph, v)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, NodeId::new(2));
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_handles_disconnection() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn ball_radius_zero_is_center_only() {
        let g = path(4);
        let b = ball(&g, NodeId::new(1), 0);
        assert_eq!(b.vertices, vec![NodeId::new(1)]);
        assert_eq!(b.distances, vec![0]);
        assert!(!b.is_empty());
    }

    #[test]
    fn ball_grows_with_radius() {
        let g = path(7); // 0-1-2-3-4-5-6
        let b1 = ball(&g, NodeId::new(3), 1);
        let b2 = ball(&g, NodeId::new(3), 2);
        assert_eq!(b1.len(), 3);
        assert_eq!(b2.len(), 5);
        assert!(b2.vertices.contains(&NodeId::new(1)));
        assert!(!b2.vertices.contains(&NodeId::new(0)));
        let boundary: Vec<_> = b2.boundary().collect();
        assert_eq!(boundary.len(), 2);
        assert!(boundary.contains(&NodeId::new(1)) && boundary.contains(&NodeId::new(5)));
    }

    #[test]
    fn ball_distances_are_nondecreasing() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]).unwrap();
        let b = ball(&g, NodeId::new(0), 3);
        for w in b.distances.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Distances agree with a full BFS.
        let d = bfs_distances(&g, NodeId::new(0));
        for (v, dist) in b.vertices.iter().zip(&b.distances) {
            assert_eq!(d[v.index()], *dist);
        }
    }

    #[test]
    fn extractor_reuse_is_clean() {
        let g = path(6);
        let mut ex = BallExtractor::new(g.node_count());
        let b1 = ex.extract(&g, NodeId::new(0), 2);
        let b2 = ex.extract(&g, NodeId::new(5), 2);
        assert_eq!(b1.len(), 3);
        assert_eq!(b2.len(), 3);
        assert!(!b2.vertices.contains(&NodeId::new(0)));
        // A third extraction over the same region still works.
        let b3 = ex.extract(&g, NodeId::new(0), 5);
        assert_eq!(b3.len(), 6);
    }

    #[test]
    fn components_of_two_paths() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        let sets = component_vertex_sets(&g);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].len(), 3);
        assert!(!is_connected(&g));
        assert!(is_connected(&path(4)));
    }

    /// Components by a BFS that drains every queue: the reference for
    /// the early stop.
    fn full_bfs_components(graph: &Graph) -> (Vec<u32>, usize) {
        let n = graph.node_count();
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            comp[s] = next;
            let mut queue = VecDeque::from([NodeId::new(s)]);
            while let Some(v) = queue.pop_front() {
                for &u in graph.neighbors(v) {
                    if comp[u.index()] == u32::MAX {
                        comp[u.index()] = next;
                        queue.push_back(u);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }

    #[test]
    fn early_stop_labels_like_a_full_bfs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut graphs = vec![Graph::empty(0), Graph::empty(1), Graph::empty(4), path(9)];
        // Connected and disconnected: a cycle, two paths, and G(n, p)
        // around the connectivity threshold.
        graphs.push(Graph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6))).unwrap());
        graphs.push(Graph::from_edges(7, [(0, 1), (1, 2), (4, 5), (5, 6)]).unwrap());
        for p in [0.02, 0.05, 0.1, 0.5] {
            graphs.push(crate::generators::random::gnp(&mut rng, 60, p));
        }
        let mut shapes = [0usize; 2];
        for (i, g) in graphs.iter().enumerate() {
            let (comp, count) = connected_components(g);
            assert_eq!((comp, count), full_bfs_components(g), "graph {i}");
            shapes[usize::from(count == 1)] += 1;
        }
        assert!(shapes.iter().all(|&graphs| graphs > 1), "{shapes:?}");
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = Graph::empty(3);
        let (_, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert!(is_connected(&Graph::empty(1)));
        assert!(is_connected(&Graph::empty(0)));
    }

    #[test]
    fn diameter_and_eccentricity() {
        let g = path(5);
        assert_eq!(eccentricity(&g, NodeId::new(2)), 2);
        assert_eq!(eccentricity(&g, NodeId::new(0)), 4);
        assert_eq!(diameter(&g), 4);
        assert_eq!(diameter(&Graph::empty(1)), 0);
        assert_eq!(diameter(&Graph::empty(0)), 0);
    }
}
