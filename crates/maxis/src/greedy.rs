//! Minimum-degree greedy MaxIS.
//!
//! Repeatedly takes a minimum-degree vertex of the residual graph and
//! deletes its closed neighborhood. Guarantees:
//!
//! * the output is *maximal*, hence at least `n / (Δ+1)`, hence a
//!   `(Δ+1)`-approximation of `α(G)`;
//! * it meets the Turán bound `n / (d̄ + 1)` (Wei's theorem), which the
//!   tests check explicitly.
//!
//! The CSR kernel keeps a degree-bucket queue and batches its pushes:
//! per chosen vertex it kills the closed neighborhood, walks the dying
//! neighbors top-down applying every decrement and filing each touched
//! survivor under its largest dying neighbor, then pushes each survivor
//! once, ascending dying neighbor, then ascending survivor. A loop that
//! pushes on every decrement makes its last push per survivor in that
//! same order, and only last pushes are ever popped as valid, so the
//! pick sequence is unchanged; the tests keep that loop as the
//! reference. [`BitsetGraph::min_degree_greedy`] reaches the same order
//! with no queue: one (degree, stamp, id) key per vertex, where each
//! dying row has a stamp that rises with the row and a decrement keeps
//! the later of the key's stamp and the row's. The order of the
//! decrements then does not matter, so the dense walk takes a `G_k`
//! slot's dying rows together from the slot's one target list. The
//! least key is picked by a scan, which costs `n` per pick: the few
//! picks of a dense graph afford it, the many of a sparse one would
//! not. The pick-order test checks all three on random, multi-word and
//! planted graphs, and on `G_k`s whose palettes span two of the dense
//! walk's 64-color chunks. Both kernels also run on the subgraph
//! induced by a member list directly on the parent's rows, which is how
//! the decomposition oracle solves its large clusters without copying
//! them, on either representation; a sibling test checks those picks
//! on random member sets. The CSR kernel marks a survivor filed in the
//! current pick with the high bit of its degree entry, so it needs no
//! array beyond the degrees.

use crate::oracle::{ApproxGuarantee, MaxIsOracle};
use pslocal_graph::{BitsetGraph, BitsetScratch, Graph, IndependentSet, NodeId};

/// Minimum-degree greedy oracle (λ = Δ + 1).
///
/// # Examples
///
/// ```
/// use pslocal_graph::generators::classic::star;
/// use pslocal_maxis::{GreedyOracle, MaxIsOracle};
///
/// // The greedy takes the leaves, not the hub.
/// let is = GreedyOracle::default().independent_set(&star(8));
/// assert_eq!(is.len(), 7);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyOracle;

impl MaxIsOracle for GreedyOracle {
    fn name(&self) -> &'static str {
        "greedy-min-degree"
    }

    fn independent_set(&self, graph: &Graph) -> IndependentSet {
        let mut chosen = Vec::new();
        GreedyScratch::default().run(graph, &mut chosen);
        // Invariant, not a fallible path: a vertex is chosen only while
        // alive, and choosing it kills its whole neighborhood.
        // pslocal: allow(panic-path, "invariant stated above: a chosen vertex kills its whole neighborhood, so the output is independent")
        IndependentSet::new(graph, chosen).expect("greedy output is independent")
    }

    fn supports_dense(&self) -> bool {
        true
    }

    fn independent_set_dense(
        &self,
        bits: &BitsetGraph,
        scratch: &mut BitsetScratch,
    ) -> IndependentSet {
        let mut chosen = Vec::with_capacity(bits.node_count().div_ceil(bits.max_degree() + 1));
        bits.min_degree_greedy_into(scratch, &mut chosen);
        // The same invariant as the CSR route's, checked on the bit rows.
        // pslocal: allow(panic-path, "invariant stated above: a chosen vertex kills its whole neighborhood, so the output is independent")
        IndependentSet::new(bits, chosen).expect("greedy output is independent")
    }

    fn guarantee(&self) -> ApproxGuarantee {
        ApproxGuarantee::MaxDegreePlusOne
    }
}

/// The Turán lower bound `⌈n / (d̄ + 1)⌉` that minimum-degree greedy is
/// guaranteed to meet (Wei's theorem gives the stronger
/// `Σ 1/(deg(v)+1)`, also exposed for experiment tables).
pub fn turan_bound(graph: &Graph) -> usize {
    let n = graph.node_count();
    if n == 0 {
        return 0;
    }
    let avg = graph.average_degree();
    (n as f64 / (avg + 1.0)).ceil() as usize
}

/// Wei's bound `Σ_v 1 / (deg(v) + 1) ≤ α(G)`.
pub fn wei_bound(graph: &Graph) -> f64 {
    graph.nodes().map(|v| 1.0 / (graph.degree(v) as f64 + 1.0)).sum()
}

/// The `degree` entry of a vertex outside the residual graph: chosen,
/// killed, or not a member of the run.
const DEAD: u32 = u32::MAX;

/// The high bit of a live `degree` entry: its survivor is filed in the
/// current pick. Degrees stay below `FILED - 1`, so a filed entry never
/// reads `DEAD`.
const FILED: u32 = 1 << 31;

/// Buffers of the CSR min-degree greedy, reusable across runs on
/// graphs of any size.
///
/// Between runs every `degree` entry is `DEAD` and every bucket is
/// empty, because a run ends only once each of its vertices is chosen
/// or killed and its cursor has passed every bucket. So a run on a
/// member list writes only its members' entries: after the first run
/// on a graph, a run costs `O(|members| + Σ deg)` over its members'
/// rows.
#[derive(Debug, Default)]
pub(crate) struct GreedyScratch {
    /// Residual degree, with the `FILED` bit set while its survivor is
    /// filed, or `DEAD`.
    degree: Vec<u32>,
    /// `buckets[d]` holds vertices last pushed at degree `d`; an entry
    /// whose vertex has died or moved on is stale and skipped at pop.
    buckets: Vec<Vec<u32>>,
    /// The chosen vertex's dying neighbors, ascending.
    dying: Vec<u32>,
    /// Touched survivors, each filed once under its largest dying
    /// neighbor: `fresh[ends[i + 1]..ends[i]]` is `dying[i]`'s file.
    fresh: Vec<u32>,
    ends: Vec<u32>,
}

impl GreedyScratch {
    /// Runs the greedy on all of `graph`, appending its picks to
    /// `chosen` in pick order.
    pub(crate) fn run(&mut self, graph: &Graph, chosen: &mut Vec<NodeId>) {
        self.reserve(graph.node_count());
        for v in graph.nodes() {
            self.degree[v.index()] = graph.degree(v) as u32;
        }
        self.greedy(graph, graph.nodes(), chosen);
    }

    /// Runs the greedy on the subgraph of `graph` induced by the
    /// strictly increasing `members`, in place on `graph`'s rows:
    /// non-members are dead from the start and a member's degree counts
    /// member neighbors only. Appends the picks to `chosen` in pick
    /// order, as vertices of `graph`; they are the picks on
    /// `csr::induced_sorted(graph, members)` mapped back through
    /// `members`, since that renumbering is monotone.
    ///
    /// Member degrees are counted over the rows of the side that holds
    /// fewer row entries, which the CSR offsets give without reading a
    /// row: the members' rows when they hold at most half of the
    /// graph's, else the non-members'. The decomposition's largest
    /// cluster often holds most of the graph, and then only the few
    /// non-members' rows are read.
    pub(crate) fn run_members(
        &mut self,
        graph: &Graph,
        members: &[NodeId],
        chosen: &mut Vec<NodeId>,
    ) {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be strictly increasing"
        );
        self.reserve(graph.node_count());
        let member_entries: usize = members.iter().map(|&v| graph.degree(v)).sum();
        let from_outside = 2 * member_entries > graph.degree_sum();
        count_member_degrees(&mut self.degree, graph, members, from_outside);
        self.greedy(graph, members.iter().copied(), chosen);
    }

    fn reserve(&mut self, n: usize) {
        if self.degree.len() < n {
            self.degree.resize(n, DEAD);
        }
    }

    /// The kernel. `alive` lists the run's vertices in ascending order,
    /// each with its degree already in `degree`.
    fn greedy(
        &mut self,
        graph: &Graph,
        alive: impl Iterator<Item = NodeId> + Clone,
        chosen: &mut Vec<NodeId>,
    ) {
        let GreedyScratch { degree, buckets, dying, fresh, ends } = self;
        let (mut count, mut maxdeg, mut maxrow) = (0usize, 0usize, 0usize);
        for v in alive.clone() {
            count += 1;
            maxdeg = maxdeg.max(degree[v.index()] as usize);
            maxrow = maxrow.max(graph.degree(v));
        }
        assert!(maxdeg < (FILED - 1) as usize, "degree {maxdeg} leaves no room for the filed bit");
        // `dying` and `fresh` take an unconditional write one slot past
        // their live length, so each has a spare slot.
        if dying.len() <= maxrow {
            dying.resize(maxrow + 1, 0);
            ends.resize(maxrow + 1, 0);
        }
        if fresh.len() <= count {
            fresh.resize(count + 1, 0);
        }
        if buckets.len() <= maxdeg {
            buckets.resize_with(maxdeg + 1, Vec::new);
        }
        for v in alive {
            buckets[degree[v.index()] as usize].push(v.index() as u32);
        }
        // Maximality guarantees at least the Turán-style `n / (Δ+1)`.
        chosen.reserve(count.div_ceil(maxdeg + 1));
        // Pushes only ever undercut the cursor, so the scan is O(n + m).
        let mut cursor = 0usize;
        while cursor <= maxdeg {
            let Some(v) = buckets[cursor].pop() else {
                cursor += 1;
                continue;
            };
            if degree[v as usize] as usize != cursor {
                continue; // stale entry: `DEAD` never equals a cursor
            }
            chosen.push(NodeId::from(v));
            degree[v as usize] = DEAD;
            // Kill the alive neighbors; every neighbor is written, and
            // only alive ones advance the list.
            let mut dlen = 0;
            for &u in graph.neighbors(NodeId::from(v)) {
                dying[dlen] = u.index() as u32;
                dlen += usize::from(degree[u.index()] != DEAD);
                degree[u.index()] = DEAD;
            }
            // Top-down: apply every decrement, and file each survivor
            // at the first (largest) dying neighbor that reaches it,
            // marking it `FILED`.
            let mut len = 0usize;
            ends[dlen] = 0;
            for i in (0..dlen).rev() {
                for &w in graph.neighbors(NodeId::from(dying[i])) {
                    let w = w.index();
                    let d = degree[w];
                    let live = u32::from(d != DEAD);
                    degree[w] = (d - live) | (live * FILED);
                    fresh[len] = w as u32;
                    len += (live & u32::from(d & FILED == 0)) as usize;
                }
                ends[i] = len as u32;
            }
            // Bottom-up: one push per survivor, ascending dying
            // neighbor, then ascending survivor, clearing its mark.
            for i in 0..dlen {
                for &w in &fresh[ends[i + 1] as usize..ends[i] as usize] {
                    let d = degree[w as usize] & !FILED;
                    degree[w as usize] = d;
                    buckets[d as usize].push(w);
                    cursor = cursor.min(d as usize);
                }
            }
        }
    }
}

/// Sets each member's `degree` entry to its number of member
/// neighbors. Every entry is `DEAD` on entry, and non-members' entries
/// stay `DEAD`. Without `from_outside`, each member counts its member
/// neighbors over its own row. With it, each member starts at its full
/// degree and each non-member's row takes one off every member it
/// lists, so only non-members' rows are read.
fn count_member_degrees(degree: &mut [u32], graph: &Graph, members: &[NodeId], from_outside: bool) {
    if from_outside {
        for &v in members {
            degree[v.index()] = graph.degree(v) as u32;
        }
        for u in graph.nodes() {
            if degree[u.index()] != DEAD {
                continue;
            }
            for &w in graph.neighbors(u) {
                let w = w.index();
                degree[w] -= u32::from(degree[w] != DEAD);
            }
        }
    } else {
        for &v in members {
            degree[v.index()] = 0;
        }
        for &v in members {
            let inside = graph.neighbors(v).iter().map(|u| u32::from(degree[u.index()] != DEAD));
            degree[v.index()] = inside.sum();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exact::ExactOracle;
    use pslocal_core::{ConflictGraph, ConflictGraphOptions};
    use pslocal_graph::generators::classic::{cluster_graph, complete, cycle, path, star};
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_graph::generators::random::{gnp, random_regular};
    use pslocal_graph::{csr, GraphBuilder, Hypergraph, KernelStrategy};
    use rand::{Rng, SeedableRng};

    /// The CSR greedy as it was before batching, verbatim: one bucket
    /// push per degree decrement. Returns the picks in pick order.
    pub(crate) fn per_decrement_picks(graph: &Graph) -> Vec<NodeId> {
        let n = graph.node_count();
        let mut alive = vec![true; n];
        let mut degree = Vec::with_capacity(n);
        let mut maxdeg = 0usize;
        for v in graph.nodes() {
            let d = graph.degree(v);
            maxdeg = maxdeg.max(d);
            degree.push(d);
        }
        let mut counts = vec![0usize; maxdeg + 1];
        for &d in &degree {
            counts[d] += 1;
        }
        let mut buckets: Vec<Vec<NodeId>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for v in graph.nodes() {
            buckets[degree[v.index()]].push(v);
        }
        let mut chosen = Vec::with_capacity(n.div_ceil(maxdeg + 1));
        let mut cursor = 0usize;
        while cursor < buckets.len() {
            let Some(v) = buckets[cursor].pop() else {
                cursor += 1;
                continue;
            };
            if !alive[v.index()] || degree[v.index()] != cursor {
                continue; // stale entry
            }
            chosen.push(v);
            alive[v.index()] = false;
            for &u in graph.neighbors(v) {
                if alive[u.index()] {
                    alive[u.index()] = false;
                    for &w in graph.neighbors(u) {
                        if alive[w.index()] {
                            degree[w.index()] -= 1;
                            let d = degree[w.index()];
                            buckets[d].push(w);
                            cursor = cursor.min(d);
                        }
                    }
                }
            }
        }
        chosen
    }

    /// The Section 2 conflict graph `G_k` of a planted instance, built
    /// from the three family predicates over all triple pairs
    /// (`E_color` without the literal reading), triples numbered
    /// hyperedge-major, then member, then color.
    pub(crate) fn planted_conflict_graph(seed: u64, n: usize, m: usize, k: usize) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let h = planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph;
        let triples: Vec<_> = h
            .edge_ids()
            .flat_map(|e| h.edge(e).iter().flat_map(move |&v| (0..k).map(move |c| (e, v, c))))
            .collect();
        let mut builder = GraphBuilder::new(triples.len());
        for (i, &(e, v, c)) in triples.iter().enumerate() {
            for (j, &(g, u, d)) in triples.iter().enumerate().skip(i + 1) {
                let vertex_family = v == u && c != d;
                let color_family =
                    c == d && v != u && (h.edge_contains(e, u) || h.edge_contains(g, v));
                if vertex_family || e == g || color_family {
                    builder.add_edge(NodeId::new(i), NodeId::new(j));
                }
            }
        }
        builder.build()
    }

    fn picks(graph: &Graph) -> Vec<NodeId> {
        let mut chosen = Vec::new();
        GreedyScratch::default().run(graph, &mut chosen);
        chosen
    }

    /// Random G(n, p) (empty and edgeless ones included) and planted
    /// `G_k` (k = 1 included) for the equivalence tests.
    fn test_graphs() -> Vec<Graph> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut graphs = vec![Graph::empty(0), Graph::empty(1), Graph::empty(7)];
        for trial in 0..24 {
            let n = 1 + (trial * 11) % 90;
            let p = [0.0, 0.04, 0.1, 0.3, 0.7][trial % 5];
            graphs.push(gnp(&mut rng, n, p));
        }
        for (seed, n, m, k) in
            [(1, 12, 6, 1), (2, 20, 10, 2), (3, 24, 10, 3), (4, 32, 12, 4), (5, 40, 8, 3)]
        {
            graphs.push(planted_conflict_graph(seed, n, m, k));
        }
        graphs
    }

    fn check(g: &Graph) -> usize {
        let is = GreedyOracle.independent_set(g);
        assert!(g.is_independent_set(is.vertices()));
        assert!(g.is_maximal_independent_set(is.vertices()), "greedy must be maximal");
        assert!(is.len() >= turan_bound(g), "misses Turán: {} < {}", is.len(), turan_bound(g));
        assert!(is.len() as f64 >= wei_bound(g) - 1e-9, "misses Wei");
        is.len()
    }

    #[test]
    fn greedy_on_closed_forms() {
        assert_eq!(check(&path(9)), 5); // greedy is optimal on paths
        assert_eq!(check(&complete(7)), 1);
        assert_eq!(check(&star(6)), 5);
        assert_eq!(check(&cluster_graph(4, 4)), 4); // optimal on cluster graphs
        assert_eq!(check(&Graph::empty(5)), 5);
        assert_eq!(check(&Graph::empty(0)), 0);
        check(&cycle(11));
    }

    #[test]
    fn greedy_respects_delta_plus_one_guarantee() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..6 {
            let g = gnp(&mut rng, 40, 0.2);
            let greedy = GreedyOracle.independent_set(&g).len();
            let alpha = ExactOracle.independence_number(&g);
            let lambda = g.max_degree() as f64 + 1.0;
            assert!(
                greedy as f64 >= alpha as f64 / lambda,
                "greedy {greedy} below α/λ = {alpha}/{lambda}"
            );
        }
    }

    #[test]
    fn greedy_is_often_near_optimal_on_sparse_regular() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = random_regular(&mut rng, 60, 3);
        let greedy = check(&g);
        let alpha = ExactOracle.independence_number(&g);
        assert!(greedy * 2 >= alpha, "greedy {greedy} vs α {alpha}");
    }

    #[test]
    fn bounds_are_consistent() {
        let g = cycle(12);
        assert_eq!(turan_bound(&g), 4);
        assert!((wei_bound(&g) - 4.0).abs() < 1e-9);
        assert_eq!(turan_bound(&Graph::empty(0)), 0);
        let k = complete(5);
        assert_eq!(turan_bound(&k), 1);
    }

    #[test]
    fn oracle_metadata() {
        assert_eq!(GreedyOracle.name(), "greedy-min-degree");
        let g = cycle(5);
        assert_eq!(GreedyOracle.lambda_for(&g), Some(3.0));
    }

    #[test]
    fn dense_route_matches_csr_route_exactly() {
        assert!(GreedyOracle.supports_dense());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut scratch = BitsetScratch::default();
        for trial in 0..20 {
            let n = 1 + (trial * 7) % 50;
            let g = gnp(&mut rng, n, 0.3);
            let bits = g.to_bitset();
            let csr = GreedyOracle.independent_set(&g);
            let dense = GreedyOracle.independent_set_dense(&bits, &mut scratch);
            assert_eq!(dense.vertices(), csr.vertices(), "diverged on trial {trial}");
            assert_eq!(
                GreedyOracle.lambda_for_dense(&bits),
                GreedyOracle.lambda_for(&g),
                "λ diverged on trial {trial}"
            );
        }
    }

    #[test]
    fn pick_sequences_match_reference_and_dense_kernel() {
        let mut dense_scratch = BitsetScratch::default();
        let mut check_picks = |g: &Graph, bits: &BitsetGraph, what: &str| {
            let batched = picks(g);
            assert_eq!(batched, per_decrement_picks(g), "per-decrement reference, {what}");
            let dense = bits.min_degree_greedy(&mut dense_scratch);
            assert_eq!(batched, dense, "dense kernel, {what}");
        };
        for (i, g) in test_graphs().iter().enumerate() {
            check_picks(g, &g.to_bitset(), &format!("graph {i}"));
        }
        // Rows of more than one word, where the least key is found
        // across words and many vertices tie on degree: cliques of one
        // word and past it, equal cliques, and dense G(n, p).
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut wide = vec![complete(64), complete(65), complete(129), cluster_graph(9, 23)];
        for n in [130, 257, 431, 600] {
            for p in [0.5, 1.0] {
                wide.push(gnp(&mut rng, n, p));
            }
        }
        for (i, g) in wide.iter().enumerate() {
            check_picks(g, &g.to_bitset(), &format!("multi-word graph {i}"));
        }
        // A planted `G_k` at k = 8, read through the slot-grouped rows
        // its bit-row build stores, one target list per slot.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let h = planted_cf_instance(&mut rng, PlantedCfParams::new(64, 28, 8)).hypergraph;
        let options = ConflictGraphOptions { kernel: KernelStrategy::Bitset, ..Default::default() };
        let cg = ConflictGraph::build_with_options(&h, 8, options);
        assert!(cg.node_count() > 2000, "{} nodes", cg.node_count());
        let bits = cg.bitset().expect("a forced bitset build stores bit rows");
        check_picks(cg.graph(), bits, "planted k = 8");
        // The wide-palette `G_k`s of `pslocal-core`'s
        // `bit_rows_match_csr_for_palettes_wider_than_a_word`, in both
        // `E_color` readings: past k = 64 a slot's colors span two of the
        // dense walk's 64-color chunks.
        let h = Hypergraph::from_edges(5, [vec![0, 1, 2], vec![1, 3], vec![2, 3, 4], vec![4]])
            .expect("valid edges");
        for k in [63, 64, 65, 70, 130] {
            for literal_ecolor in [false, true] {
                let options =
                    ConflictGraphOptions { literal_ecolor, kernel: KernelStrategy::Bitset };
                let cg = ConflictGraph::build_with_options(&h, k, options);
                let bits = cg.bitset().expect("a forced bitset build stores bit rows");
                check_picks(cg.graph(), bits, &format!("k = {k}, literal {literal_ecolor}"));
            }
        }
    }

    /// The pick-order checks of
    /// `pick_sequences_match_reference_and_dense_kernel` on random member
    /// sets: the dense kernel's member-restricted run picks what
    /// `run_members` picks in place and what the per-decrement reference
    /// picks on the induced copy. Member shares below and above half
    /// take the dense kernel's two ways of counting member degrees.
    #[test]
    fn member_pick_sequences_match_reference_and_dense_kernel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let (mut scratch, mut dense_scratch) = (GreedyScratch::default(), BitsetScratch::default());
        let mut check_members = |g: &Graph, bits: &BitsetGraph, what: &str| {
            for keep_pct in [0u32, 10, 45, 55, 90, 100] {
                let members: Vec<NodeId> =
                    g.nodes().filter(|_| rng.gen_range(0u32..100) < keep_pct).collect();
                let mut in_place = Vec::new();
                scratch.run_members(g, &members, &mut in_place);
                let (sub, map) = g.induced_subgraph(&members);
                let reference: Vec<NodeId> =
                    per_decrement_picks(&sub).iter().map(|v| map[v.index()]).collect();
                assert_eq!(in_place, reference, "run_members, {what}, keep {keep_pct}%");
                let mut dense = vec![NodeId::new(9999)]; // appended to, not cleared
                bits.min_degree_greedy_members_into(&members, &mut dense_scratch, &mut dense);
                assert_eq!(dense[1..], reference[..], "dense kernel, {what}, keep {keep_pct}%");
            }
        };
        for (i, g) in test_graphs().iter().enumerate() {
            check_members(g, &g.to_bitset(), &format!("graph {i}"));
        }
        let mut gnp_rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut wide = vec![complete(65), cluster_graph(9, 23)];
        for n in [130, 257] {
            for p in [0.5, 1.0] {
                wide.push(gnp(&mut gnp_rng, n, p));
            }
        }
        for (i, g) in wide.iter().enumerate() {
            check_members(g, &g.to_bitset(), &format!("multi-word graph {i}"));
        }
        let mut planted_rng = rand::rngs::StdRng::seed_from_u64(31);
        let h = planted_cf_instance(&mut planted_rng, PlantedCfParams::new(64, 28, 8)).hypergraph;
        let options = ConflictGraphOptions { kernel: KernelStrategy::Bitset, ..Default::default() };
        let cg = ConflictGraph::build_with_options(&h, 8, options);
        let bits = cg.bitset().expect("a forced bitset build stores bit rows");
        check_members(cg.graph(), bits, "planted k = 8");
        let h = Hypergraph::from_edges(5, [vec![0, 1, 2], vec![1, 3], vec![2, 3, 4], vec![4]])
            .expect("valid edges");
        for k in [64, 70, 130] {
            for literal_ecolor in [false, true] {
                let options =
                    ConflictGraphOptions { literal_ecolor, kernel: KernelStrategy::Bitset };
                let cg = ConflictGraph::build_with_options(&h, k, options);
                let bits = cg.bitset().expect("a forced bitset build stores bit rows");
                check_members(cg.graph(), bits, &format!("k = {k}, literal {literal_ecolor}"));
            }
        }
    }

    #[test]
    fn members_in_place_equal_the_induced_copy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        // One scratch across every graph and subset, sizes rising and
        // falling.
        let mut scratch = GreedyScratch::default();
        for (i, g) in test_graphs().iter().enumerate() {
            // 95% is the decomposition's shape: one cluster holding
            // nearly the whole graph, its degrees counted from outside.
            for keep_pct in [0u32, 30, 70, 95, 100] {
                let members: Vec<NodeId> =
                    g.nodes().filter(|_| rng.gen_range(0u32..100) < keep_pct).collect();
                let mut in_place = vec![NodeId::new(9999)]; // appended to, not cleared
                scratch.run_members(g, &members, &mut in_place);
                let (sub, map) = g.induced_subgraph(&members);
                let copied: Vec<NodeId> = picks(&sub).iter().map(|v| map[v.index()]).collect();
                assert_eq!(in_place[1..], copied[..], "graph {i}, keep {keep_pct}%");
                assert!(scratch.degree.iter().all(|&d| d == DEAD), "a run left a live degree");
            }
        }
        // A sorted arena copy gives the same picks as the general one.
        let g = &test_graphs()[10];
        let keep: Vec<NodeId> = g.nodes().step_by(2).collect();
        assert_eq!(picks(&csr::induced_sorted(g, &keep)), picks(&g.induced_subgraph(&keep).0));
    }

    #[test]
    fn member_degrees_are_equal_counted_from_either_side() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let mut sides = [0usize; 2];
        for (i, g) in test_graphs().iter().enumerate() {
            for keep_pct in [5u32, 50, 95] {
                let members: Vec<NodeId> =
                    g.nodes().filter(|_| rng.gen_range(0u32..100) < keep_pct).collect();
                let entries: usize = members.iter().map(|&v| g.degree(v)).sum();
                sides[usize::from(2 * entries > g.degree_sum())] += 1;
                let count = |from_outside| {
                    let mut degree = vec![DEAD; g.node_count()];
                    count_member_degrees(&mut degree, g, &members, from_outside);
                    degree
                };
                let inside = count(false);
                assert_eq!(count(true), inside, "graph {i}, keep {keep_pct}%");
                for v in g.nodes() {
                    let expected = match members.binary_search(&v) {
                        Ok(_) => g.neighbors(v).iter().filter(|u| members.contains(u)).count(),
                        Err(_) => DEAD as usize,
                    };
                    assert_eq!(inside[v.index()] as usize, expected, "graph {i}, vertex {v:?}");
                }
            }
        }
        // Both sides were the smaller one for some member list.
        assert!(sides.iter().all(|&cases| cases > 0), "{sides:?}");
    }
}
