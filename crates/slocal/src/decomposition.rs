//! Network decomposition by sequential ball carving.
//!
//! `(poly log n, poly log n)`-network decomposition is one of the
//! P-SLOCAL-complete problems the paper lists (\[GKM17\]), and it is the
//! engine of the *containment* direction of Theorem 1.1: given a
//! decomposition with `c` colors, an SLOCAL algorithm obtains a
//! `c`-approximate maximum independent set by sweeping the color
//! classes (see `pslocal-maxis::decomposition`).
//!
//! The construction here is the classic sequential ball carving:
//!
//! 1. While unclustered vertices remain, open a new **color class**.
//! 2. Sweep the vertices in order; around each vertex `v` still
//!    *available* in this class, grow a ball in the available subgraph,
//!    incrementing the radius while the ball at radius `r+1` is more
//!    than twice the ball at radius `r` (so `r ≤ log₂ n`).
//! 3. The radius-`r` ball becomes a cluster of the current color; the
//!    radius-`r+1` ball is removed from availability, so same-color
//!    clusters are never adjacent. The shell is at most the cluster
//!    size, hence each class clusters at least half of what it touches
//!    and `⌈log₂ n⌉ + 1` colors always suffice.
//!
//! The result is a `(⌈log₂ n⌉+1, 2·⌊log₂ n⌋)` weak-diameter network
//! decomposition — exactly the "polylog/polylog" object the paper's
//! completeness landscape revolves around.

use pslocal_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A weak-diameter network decomposition: a partition of the vertex set
/// into clusters, each cluster carrying a color, such that clusters of
/// the same color are non-adjacent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkDecomposition {
    /// `cluster_of[v]` is the cluster index of vertex `v`.
    cluster_of: Vec<u32>,
    /// Per-cluster color.
    cluster_colors: Vec<u32>,
    /// Per-cluster carving center.
    cluster_centers: Vec<NodeId>,
    /// Per-cluster carving radius (distance from center within the
    /// availability subgraph at carve time; an upper bound on the
    /// distance in `G`).
    cluster_radii: Vec<u32>,
    /// Number of colors used.
    colors: usize,
}

impl NetworkDecomposition {
    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.cluster_centers.len()
    }

    /// Number of colors used.
    pub fn color_count(&self) -> usize {
        self.colors
    }

    /// The cluster index of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn cluster_of(&self, v: NodeId) -> usize {
        self.cluster_of[v.index()] as usize
    }

    /// The color of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn color_of_cluster(&self, c: usize) -> usize {
        self.cluster_colors[c] as usize
    }

    /// The carving center of cluster `c`.
    pub fn center_of_cluster(&self, c: usize) -> NodeId {
        self.cluster_centers[c]
    }

    /// The carving radius of cluster `c`.
    pub fn radius_of_cluster(&self, c: usize) -> usize {
        self.cluster_radii[c] as usize
    }

    /// The largest carving radius over all clusters (the realized
    /// SLOCAL locality of one carving step, minus the +1 shell peek).
    pub fn max_radius(&self) -> usize {
        self.cluster_radii.iter().map(|&r| r as usize).max().unwrap_or(0)
    }

    /// Vertex sets per cluster, indexed by cluster id, each in
    /// ascending vertex order.
    pub fn cluster_vertex_sets(&self) -> Vec<Vec<NodeId>> {
        let mut sets = vec![Vec::new(); self.cluster_count()];
        for (i, &c) in self.cluster_of.iter().enumerate() {
            sets[c as usize].push(NodeId::new(i));
        }
        sets
    }

    /// Cluster ids grouped by color.
    pub fn clusters_by_color(&self) -> Vec<Vec<usize>> {
        let mut by_color = vec![Vec::new(); self.colors];
        for (c, &col) in self.cluster_colors.iter().enumerate() {
            by_color[col as usize].push(c);
        }
        by_color
    }

    /// Verifies the decomposition against `graph`.
    ///
    /// # Errors
    ///
    /// Returns the first violated property: every vertex clustered,
    /// same-color clusters non-adjacent, every member within the
    /// cluster's radius of its center **in G** (weak diameter
    /// `≤ 2·radius`).
    pub fn verify(&self, graph: &Graph) -> Result<(), DecompositionError> {
        if self.cluster_of.len() != graph.node_count() {
            return Err(DecompositionError::WrongSize {
                expected: graph.node_count(),
                found: self.cluster_of.len(),
            });
        }
        for (u, v) in graph.edges() {
            let (cu, cv) = (self.cluster_of(u), self.cluster_of(v));
            if cu != cv && self.cluster_colors[cu] == self.cluster_colors[cv] {
                return Err(DecompositionError::AdjacentSameColor { u, v });
            }
        }
        for (c, set) in self.cluster_vertex_sets().iter().enumerate() {
            if set.is_empty() {
                return Err(DecompositionError::EmptyCluster { cluster: c });
            }
            let dist = pslocal_graph::algo::bfs_distances(graph, self.cluster_centers[c]);
            for &v in set {
                let d = dist[v.index()];
                if d == pslocal_graph::algo::UNREACHABLE || d > self.cluster_radii[c] {
                    return Err(DecompositionError::MemberTooFar {
                        cluster: c,
                        member: v,
                        distance: d,
                        radius: self.cluster_radii[c],
                    });
                }
            }
        }
        Ok(())
    }
}

/// Violations reported by [`NetworkDecomposition::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecompositionError {
    /// The decomposition was built for a different vertex count.
    WrongSize {
        /// Vertices in the graph.
        expected: usize,
        /// Vertices in the decomposition.
        found: usize,
    },
    /// Two adjacent vertices lie in distinct clusters of equal color.
    AdjacentSameColor {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// A cluster has no members.
    EmptyCluster {
        /// The empty cluster's id.
        cluster: usize,
    },
    /// A member is farther from its cluster center than the radius.
    MemberTooFar {
        /// The cluster id.
        cluster: usize,
        /// The offending member.
        member: NodeId,
        /// Its distance in `G` ([`u32::MAX`] if unreachable).
        distance: u32,
        /// The cluster's claimed radius.
        radius: u32,
    },
}

impl fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompositionError::WrongSize { expected, found } => {
                write!(f, "decomposition covers {found} vertices, graph has {expected}")
            }
            DecompositionError::AdjacentSameColor { u, v } => {
                write!(f, "adjacent vertices {u} and {v} lie in distinct same-color clusters")
            }
            DecompositionError::EmptyCluster { cluster } => {
                write!(f, "cluster {cluster} is empty")
            }
            DecompositionError::MemberTooFar { cluster, member, distance, radius } => {
                write!(
                    f,
                    "member {member} of cluster {cluster} at distance {distance} exceeds \
                     radius {radius}"
                )
            }
        }
    }
}

impl Error for DecompositionError {}

/// Carves a network decomposition processing vertices in identity order.
pub fn carve_decomposition(graph: &Graph) -> NetworkDecomposition {
    let order: Vec<NodeId> = graph.nodes().collect();
    carve_decomposition_with_order(graph, &order)
}

/// Carves a network decomposition, sweeping each color class in the
/// given vertex order (the SLOCAL processing order).
///
/// Guarantees (see module docs): at most `⌈log₂ n⌉ + 1` colors, carving
/// radius at most `⌊log₂ n⌋`. Each ball grows by breadth-first levels
/// held as consecutive ranges of one visit list, which every carve
/// reuses. One array holds both availability and BFS distance: a
/// vertex is `FREE` (available, not yet visited), `BLOCKED`
/// (clustered, or removed with an earlier ball of this color), or its
/// distance from the current center. So a visit reads one array, and
/// committing a ball marks it and its shell `BLOCKED`, which also
/// leaves nothing to reset before the next carve.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertex set; this is
/// checked before carving starts.
pub fn carve_decomposition_with_order(graph: &Graph, order: &[NodeId]) -> NetworkDecomposition {
    let n = graph.node_count();
    let mut seen = vec![false; n];
    assert_eq!(order.len(), n, "order must list every vertex exactly once");
    for &v in order {
        assert!(
            v.index() < n && !std::mem::replace(&mut seen[v.index()], true),
            "order must list every vertex exactly once"
        );
    }

    const UNCLUSTERED: u32 = u32::MAX;
    // Distances stay at most `⌊log₂ n⌋ + 1`, far below both sentinels.
    const FREE: u32 = u32::MAX;
    const BLOCKED: u32 = u32::MAX - 1;
    let mut cluster_of = vec![UNCLUSTERED; n];
    let mut cluster_colors = Vec::new();
    let mut cluster_centers = Vec::new();
    let mut cluster_radii = Vec::new();

    // BFS scratch: `touched` lists the ball in visit order, so BFS
    // level `r` is a contiguous range of it.
    let mut dist = vec![FREE; n];
    let mut touched: Vec<NodeId> = Vec::new();

    let mut color = 0u32;
    let mut remaining = n;
    while remaining > 0 {
        for (d, &c) in dist.iter_mut().zip(&cluster_of) {
            *d = if c == UNCLUSTERED { FREE } else { BLOCKED };
        }
        for &v in order {
            if dist[v.index()] != FREE {
                continue;
            }
            // BFS in the available subgraph from v, level by level,
            // growing the radius while the ball more than doubles.
            touched.clear();
            dist[v.index()] = 0;
            touched.push(v);
            // `touched[level..ball]` is the frontier at distance `radius`.
            let mut level = 0usize;
            let mut radius = 0u32;
            loop {
                // Expand one more level.
                let ball = touched.len();
                for i in level..ball {
                    for &w in graph.neighbors(touched[i]) {
                        if dist[w.index()] == FREE {
                            dist[w.index()] = radius + 1;
                            touched.push(w);
                        }
                    }
                }
                // An empty level leaves `grown == ball`, which also stops.
                let grown = touched.len();
                if grown <= 2 * ball {
                    // Carve B(v, radius); remove B(v, radius+1) from
                    // availability.
                    let cluster_id = cluster_centers.len() as u32;
                    for &u in &touched {
                        if dist[u.index()] <= radius {
                            cluster_of[u.index()] = cluster_id;
                            remaining -= 1;
                        }
                        dist[u.index()] = BLOCKED;
                    }
                    cluster_centers.push(v);
                    cluster_colors.push(color);
                    cluster_radii.push(radius);
                    break;
                }
                level = ball;
                radius += 1;
            }
        }
        color += 1;
    }

    NetworkDecomposition {
        cluster_of,
        cluster_colors,
        cluster_centers,
        cluster_radii,
        colors: color as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::classic::{complete, cycle, grid, path, star};
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_graph::generators::random::{gnp, random_tree};
    use pslocal_graph::GraphBuilder;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The carve as it was before availability moved into `dist`,
    /// verbatim: a second array tells availability, and each carve
    /// first resets the previous ball's distances.
    fn two_array_carve(graph: &Graph, order: &[NodeId]) -> NetworkDecomposition {
        let n = graph.node_count();
        // `available[v]`: v can still join a cluster of the current color.
        // Before the first color it serves as the permutation check's
        // seen-mask.
        let mut available = vec![false; n];
        assert_eq!(order.len(), n, "order must list every vertex exactly once");
        for &v in order {
            assert!(
                v.index() < n && !std::mem::replace(&mut available[v.index()], true),
                "order must list every vertex exactly once"
            );
        }

        const UNCLUSTERED: u32 = u32::MAX;
        let mut cluster_of = vec![UNCLUSTERED; n];
        let mut cluster_colors = Vec::new();
        let mut cluster_centers = Vec::new();
        let mut cluster_radii = Vec::new();

        // BFS scratch: `touched` lists the ball in visit order, so BFS
        // level `r` is a contiguous range of it.
        let mut dist = vec![u32::MAX; n];
        let mut touched: Vec<NodeId> = Vec::new();

        let mut color = 0u32;
        let mut remaining = n;
        while remaining > 0 {
            for v in 0..n {
                available[v] = cluster_of[v] == UNCLUSTERED;
            }
            for &v in order {
                if !available[v.index()] || cluster_of[v.index()] != UNCLUSTERED {
                    continue;
                }
                // BFS in the available subgraph from v, level by level,
                // growing the radius while the ball more than doubles.
                for &u in &touched {
                    dist[u.index()] = u32::MAX;
                }
                touched.clear();
                dist[v.index()] = 0;
                touched.push(v);
                // `touched[level..ball]` is the frontier at distance `radius`.
                let mut level = 0usize;
                let mut radius = 0u32;
                loop {
                    // Expand one more level.
                    let ball = touched.len();
                    for i in level..ball {
                        for &w in graph.neighbors(touched[i]) {
                            if available[w.index()] && dist[w.index()] == u32::MAX {
                                dist[w.index()] = radius + 1;
                                touched.push(w);
                            }
                        }
                    }
                    // An empty level leaves `grown == ball`, which also stops.
                    let grown = touched.len();
                    if grown <= 2 * ball {
                        // Carve B(v, radius); remove B(v, radius+1) from
                        // availability.
                        let cluster_id = cluster_centers.len() as u32;
                        for &u in &touched {
                            if dist[u.index()] <= radius {
                                cluster_of[u.index()] = cluster_id;
                                remaining -= 1;
                            }
                            available[u.index()] = false;
                        }
                        cluster_centers.push(v);
                        cluster_colors.push(color);
                        cluster_radii.push(radius);
                        break;
                    }
                    level = ball;
                    radius += 1;
                }
            }
            color += 1;
        }

        NetworkDecomposition {
            cluster_of,
            cluster_colors,
            cluster_centers,
            cluster_radii,
            colors: color as usize,
        }
    }

    /// The conflict graph `G_k` of a planted instance from the three
    /// family predicates of Section 2 (`E_color` requires `u ≠ v`),
    /// triples numbered hyperedge-major, then member, then color.
    fn planted_conflict_graph(seed: u64, n: usize, m: usize, k: usize) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let h = planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph;
        let triples: Vec<_> = h
            .edge_ids()
            .flat_map(|e| h.edge(e).iter().flat_map(move |&v| (0..k).map(move |c| (e, v, c))))
            .collect();
        let mut builder = GraphBuilder::new(triples.len());
        for (i, &(e, v, c)) in triples.iter().enumerate() {
            for (j, &(g, u, d)) in triples.iter().enumerate().skip(i + 1) {
                let color_family =
                    c == d && v != u && (h.edge_contains(e, u) || h.edge_contains(g, v));
                if v == u && c != d || e == g || color_family {
                    builder.add_edge(NodeId::new(i), NodeId::new(j));
                }
            }
        }
        builder.build()
    }

    fn log2_ceil(n: usize) -> usize {
        (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize
    }

    fn check(graph: &Graph) -> NetworkDecomposition {
        let d = carve_decomposition(graph);
        d.verify(graph).expect("invalid decomposition");
        let n = graph.node_count().max(2);
        assert!(
            d.color_count() <= log2_ceil(n) + 1,
            "colors {} exceed bound for n = {n}",
            d.color_count()
        );
        assert!(
            d.max_radius() <= log2_ceil(n),
            "radius {} exceeds log2 bound for n = {n}",
            d.max_radius()
        );
        d
    }

    #[test]
    fn one_array_carve_matches_the_two_array_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut graphs = vec![Graph::empty(0), Graph::empty(5), grid(7, 9), grid(1, 40), star(12)];
        for trial in 0..12 {
            let n = 20 + trial * 17;
            graphs.push(gnp(&mut rng, n, [0.02, 0.06, 0.15, 0.4][trial % 4]));
            graphs.push(random_tree(&mut rng, n));
        }
        for (seed, n, m, k) in [(1, 12, 6, 1), (2, 20, 10, 2), (3, 24, 10, 3), (4, 32, 12, 4)] {
            graphs.push(planted_conflict_graph(seed, n, m, k));
        }
        for (i, g) in graphs.iter().enumerate() {
            let identity: Vec<NodeId> = g.nodes().collect();
            let reversed: Vec<NodeId> = g.nodes().rev().collect();
            let mut shuffled = identity.clone();
            shuffled.shuffle(&mut rng);
            for (name, order) in
                [("identity", identity), ("reversed", reversed), ("shuffled", shuffled)]
            {
                let carved = carve_decomposition_with_order(g, &order);
                assert_eq!(carved, two_array_carve(g, &order), "graph {i}, {name} order");
            }
        }
    }

    #[test]
    fn decomposes_classic_families() {
        check(&path(33));
        check(&cycle(64));
        check(&grid(8, 9));
        check(&star(17));
        let d = check(&complete(12));
        // A clique is one cluster of radius ≤ 1.
        assert_eq!(d.cluster_count(), 1);
        assert!(d.max_radius() <= 1);
    }

    #[test]
    fn decomposes_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..4 {
            check(&gnp(&mut rng, 120, 0.05));
            check(&random_tree(&mut rng, 90));
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let d = carve_decomposition(&Graph::empty(0));
        assert_eq!(d.cluster_count(), 0);
        assert_eq!(d.color_count(), 0);
        d.verify(&Graph::empty(0)).unwrap();

        let d = check(&Graph::empty(5));
        // Isolated vertices: each its own radius-0 cluster, one color.
        assert_eq!(d.cluster_count(), 5);
        assert_eq!(d.color_count(), 1);
        assert_eq!(d.max_radius(), 0);
    }

    #[test]
    fn clusters_partition_the_vertex_set() {
        let g = grid(6, 6);
        let d = check(&g);
        let sets = d.cluster_vertex_sets();
        let total: usize = sets.iter().map(Vec::len).sum();
        assert_eq!(total, 36);
        for (c, set) in sets.iter().enumerate() {
            for &v in set {
                assert_eq!(d.cluster_of(v), c);
            }
        }
    }

    #[test]
    fn clusters_by_color_covers_all_clusters() {
        let g = cycle(40);
        let d = check(&g);
        let by_color = d.clusters_by_color();
        assert_eq!(by_color.len(), d.color_count());
        let total: usize = by_color.iter().map(Vec::len).sum();
        assert_eq!(total, d.cluster_count());
    }

    #[test]
    fn verify_rejects_corrupted_decompositions() {
        let g = path(4);
        let good = carve_decomposition(&g);
        good.verify(&g).unwrap();
        // Wrong size.
        let bad = NetworkDecomposition {
            cluster_of: vec![0, 0],
            cluster_colors: vec![0],
            cluster_centers: vec![NodeId::new(0)],
            cluster_radii: vec![3],
            colors: 1,
        };
        assert!(matches!(bad.verify(&g), Err(DecompositionError::WrongSize { .. })));
        // Same-color adjacent clusters: split the path 0-1|2-3 into two
        // clusters both colored 0 — vertices 1 and 2 are adjacent.
        let bad = NetworkDecomposition {
            cluster_of: vec![0, 0, 1, 1],
            cluster_colors: vec![0, 0],
            cluster_centers: vec![NodeId::new(0), NodeId::new(3)],
            cluster_radii: vec![1, 1],
            colors: 1,
        };
        assert!(matches!(bad.verify(&g), Err(DecompositionError::AdjacentSameColor { .. })));
        // Radius violation: one cluster claiming radius 1 spanning the
        // whole path of diameter 3.
        let bad = NetworkDecomposition {
            cluster_of: vec![0, 0, 0, 0],
            cluster_colors: vec![0],
            cluster_centers: vec![NodeId::new(0)],
            cluster_radii: vec![1],
            colors: 1,
        };
        assert!(matches!(bad.verify(&g), Err(DecompositionError::MemberTooFar { .. })));
    }

    #[test]
    #[should_panic(expected = "every vertex exactly once")]
    fn order_with_a_repeated_vertex_is_rejected() {
        // Vertex 2 never becomes a center: carving this order would
        // loop forever, so it must be refused up front.
        let order = [NodeId::new(0), NodeId::new(0), NodeId::new(1)];
        let _ = carve_decomposition_with_order(&path(3), &order);
    }

    #[test]
    #[should_panic(expected = "every vertex exactly once")]
    fn order_with_an_out_of_range_vertex_is_rejected() {
        let order = [NodeId::new(0), NodeId::new(3), NodeId::new(1)];
        let _ = carve_decomposition_with_order(&path(3), &order);
    }

    #[test]
    fn order_changes_decomposition_but_not_validity() {
        let g = cycle(30);
        let id_order: Vec<NodeId> = g.nodes().collect();
        let rev_order: Vec<NodeId> = g.nodes().rev().collect();
        let a = carve_decomposition_with_order(&g, &id_order);
        let b = carve_decomposition_with_order(&g, &rev_order);
        a.verify(&g).unwrap();
        b.verify(&g).unwrap();
        assert_ne!(a.cluster_centers, b.cluster_centers);
    }
}
