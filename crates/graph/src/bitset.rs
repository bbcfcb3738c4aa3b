//! Word-parallel dense adjacency kernels.
//!
//! CSR rows are the right representation for sparse graphs, but the
//! conflict graphs `G_k` of the Theorem 1.1 reduction are *dense* —
//! every hyperedge block is a clique and the color families connect
//! blocks wholesale — and there pointer-chasing through `u32` targets
//! loses to flat bit rows processed 64 vertices per word. This module
//! provides that dense representation ([`BitsetGraph`]) plus the three
//! kernels the reduction hot path needs:
//!
//! * [`BitsetGraph::is_independent_set`] — membership mask AND row,
//! * [`BitsetGraph::delete_closed_neighborhood`] — one masked word
//!   sweep per deletion,
//! * [`BitsetGraph::min_degree_greedy`] — the minimum-degree greedy
//!   with **batched bucket pushes**, byte-identical to the CSR greedy's
//!   pick sequence (see the proof sketch at the function).
//!
//! [`KernelStrategy`] is the knob callers thread through their options
//! structs: `Auto` resolves to the bitset route exactly when the
//! density heuristic says the flat rows pay for themselves. The
//! reduction drivers first turn it into `Csr` for an oracle that cannot
//! read bit rows.

use crate::{Graph, GraphError, NodeId};

/// Which adjacency kernel a dense-capable consumer should run.
///
/// Threaded through `ConflictGraphOptions` (conflict-graph build and
/// the per-phase oracle fast path) and usable by any oracle that wants
/// the same dispatch. `Auto` applies [`KernelStrategy::use_bitset`]'s
/// density heuristic, so it takes bit rows only on a dense graph. Bit
/// rows pay only for a consumer that reads them, so the reduction
/// drivers resolve `Auto` to `Csr` before the first build unless the
/// primary oracle has a dense kernel (`MaxIsOracle::supports_dense`,
/// in `pslocal-maxis`); otherwise λ and the oracle would build the same
/// graph a second time as CSR. The explicit variants force a route
/// (useful for equivalence tests and ablations — every route produces
/// identical output, only the constants differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelStrategy {
    /// Decide per graph from node count and density (the default).
    #[default]
    Auto,
    /// Always take the CSR (sparse) route.
    Csr,
    /// Always take the bitset (dense) route. Bit rows cost `n²/8`
    /// bytes, so a build on this route refuses a graph over
    /// [`BITSET_MAX_NODES`] nodes rather than allocate them (the `G_k`
    /// build in `pslocal-core` panics with `conflict graph too large`).
    Bitset,
}

/// `Auto` resolves to the bitset route only below this node count —
/// bit rows cost `n²/8` bytes, and past ~32k nodes (128 MiB) the
/// quadratic footprint stops fitting anything cache-like.
pub const BITSET_MAX_NODES: usize = 1 << 15;

/// `Auto` requires at least this average (undirected) degree — below
/// it, scanning mostly-zero words loses to CSR pointer chasing. Larger
/// graphs additionally need the degree to scale with the row length
/// (see [`KernelStrategy::use_bitset`]).
pub const BITSET_MIN_AVG_DEGREE: usize = 32;

/// The largest half-edge count (`Σ_v deg(v) = 2·|E|`) the bitset
/// representation can index: its degree prefix array is `u32`, so
/// `Auto` must route anything beyond this to the CSR path and
/// [`BitsetGraph::try_from_graph`] rejects it with
/// [`GraphError::TooLarge`] instead of silently truncating.
pub const BITSET_MAX_HALF_EDGES: u64 = u32::MAX as u64;

impl KernelStrategy {
    /// Resolves the strategy for a graph with `nodes` vertices and
    /// `edges` undirected edges: `true` means take the bitset route.
    ///
    /// The heuristic behind `Auto`: bit rows win when the graph is
    /// small enough for `n²/8` bytes of rows to stay cache-resident
    /// ([`BITSET_MAX_NODES`]) *and* dense enough that scanning a row's
    /// `⌈n/64⌉` words beats walking the CSR neighbor list — which
    /// needs both a floor on the average degree
    /// ([`BITSET_MIN_AVG_DEGREE`]) and, because the word scan is
    /// `O(n)` while the CSR walk is `O(deg)`, an average degree that
    /// keeps up with the row length (at least half a neighbor per
    /// row word).
    pub fn use_bitset(self, nodes: usize, edges: usize) -> bool {
        match self {
            KernelStrategy::Csr => false,
            KernelStrategy::Bitset => true,
            KernelStrategy::Auto => {
                nodes > 0
                    && nodes <= BITSET_MAX_NODES
                    // The half-edge count 2·|E| must fit the u32 degree
                    // prefix array; beyond it only the CSR path is sound.
                    && (edges as u64).saturating_mul(2) <= BITSET_MAX_HALF_EDGES
                    && edges / nodes >= BITSET_MIN_AVG_DEGREE.div_euclid(2)
                    && edges / nodes >= nodes.div_ceil(64).div_euclid(2)
            }
        }
    }
}

/// Sets bits `lo..hi` (half-open) in a flat word buffer — the masked
/// word fill dense row builders use for contiguous neighbor ranges
/// (block cliques, color slot runs), `O(words touched)` instead of one
/// store per bit.
///
/// # Panics
///
/// Panics if `hi` exceeds the buffer's bit capacity.
pub fn set_bit_range(words: &mut [u64], lo: u32, hi: u32) {
    if lo >= hi {
        return;
    }
    let (lw, hw) = ((lo / 64) as usize, ((hi - 1) / 64) as usize);
    let lmask = u64::MAX << (lo % 64);
    let hmask = u64::MAX >> (63 - ((hi - 1) % 64));
    if lw == hw {
        words[lw] |= lmask & hmask;
    } else {
        words[lw] |= lmask;
        for w in &mut words[lw + 1..hw] {
            *w = u64::MAX;
        }
        words[hw] |= hmask;
    }
}

/// Dense adjacency: row `v` is `words` consecutive `u64`s in which bit
/// `u` is set iff `{u, v}` is an edge. Degrees are kept as a CSR-style
/// prefix array so consumers can read them without popcounting.
///
/// # Examples
///
/// ```
/// use pslocal_graph::{bitset::BitsetGraph, Graph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let b = BitsetGraph::from_graph(&g);
/// assert_eq!(b.degree(NodeId::new(1)), 2);
/// assert!(b.is_independent_set(&[NodeId::new(0), NodeId::new(2)]).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitsetGraph {
    n: usize,
    words: usize,
    rows: Vec<u64>,
    /// Prefix degree sums, `offsets[v+1] - offsets[v] = deg(v)`.
    offsets: Vec<u32>,
}

/// Builds the `u32` degree prefix array from a degree sequence,
/// rejecting any running half-edge total beyond
/// [`BITSET_MAX_HALF_EDGES`] with [`GraphError::TooLarge`] instead of
/// wrapping. Extracted from [`BitsetGraph::try_from_graph`] so the
/// overflow path is testable without materializing a multi-gigabyte
/// graph.
fn checked_prefix_offsets(degrees: impl Iterator<Item = usize>) -> Result<Vec<u32>, GraphError> {
    let too_large =
        || GraphError::TooLarge { what: "bitset half-edge offsets", limit: BITSET_MAX_HALF_EDGES };
    let mut offsets = Vec::with_capacity(degrees.size_hint().0 + 1);
    offsets.push(0u32);
    let mut total = 0u32;
    for deg in degrees {
        let deg = u32::try_from(deg).map_err(|_| too_large())?;
        total = total.checked_add(deg).ok_or_else(too_large)?;
        offsets.push(total);
    }
    Ok(offsets)
}

impl BitsetGraph {
    /// Converts a CSR graph into bit rows (`O(n·words + m)`).
    ///
    /// # Panics
    ///
    /// Panics if the half-edge count exceeds
    /// [`BITSET_MAX_HALF_EDGES`]; use
    /// [`try_from_graph`](Self::try_from_graph) to handle that case.
    pub fn from_graph(g: &Graph) -> Self {
        // pslocal: allow(panic-path, "documented panicking convenience over try_from_graph; callers with untrusted sizes use the fallible form")
        Self::try_from_graph(g).expect("graph fits the bitset representation")
    }

    /// Fallible [`from_graph`](Self::from_graph): returns
    /// [`GraphError::TooLarge`] when the half-edge count overflows the
    /// `u32` degree prefix array (the offsets are computed *before* the
    /// quadratic row buffer is allocated, so the error path is cheap).
    pub fn try_from_graph(g: &Graph) -> Result<Self, GraphError> {
        let n = g.node_count();
        let offsets = checked_prefix_offsets(g.nodes().map(|v| g.degree(v)))?;
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for v in g.nodes() {
            let row = &mut rows[v.index() * words..(v.index() + 1) * words];
            for &u in g.neighbors(v) {
                row[u.index() / 64] |= 1u64 << (u.index() % 64);
            }
        }
        Ok(BitsetGraph { n, words, rows, offsets })
    }

    /// Assembles a bitset graph from finished parts. The caller
    /// guarantees symmetry and loop-freeness (debug builds re-check) —
    /// this is the entry point for builders that emit bit rows
    /// directly instead of converting from CSR.
    ///
    /// # Panics
    ///
    /// Panics if the buffer shapes are inconsistent.
    pub fn from_raw_parts(n: usize, rows: Vec<u64>, offsets: Vec<u32>) -> Self {
        let words = n.div_ceil(64);
        assert_eq!(rows.len(), n * words, "row buffer shape mismatch");
        assert_eq!(offsets.len(), n + 1, "offsets length mismatch");
        let b = BitsetGraph { n, words, rows, offsets };
        debug_assert!((0..n).all(|v| {
            b.row(NodeId::new(v)).iter().map(|w| w.count_ones()).sum::<u32>()
                == b.degree(NodeId::new(v)) as u32
        }));
        debug_assert!((0..n).all(|v| b.row(NodeId::new(v))[v / 64] & (1 << (v % 64)) == 0));
        b
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        *self.offsets.last().unwrap_or(&0) as usize / 2
    }

    /// Words per row (`⌈n/64⌉`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Maximum degree over all vertices (`0` for the empty graph).
    pub fn max_degree(&self) -> usize {
        (1..=self.n).map(|v| (self.offsets[v] - self.offsets[v - 1]) as usize).max().unwrap_or(0)
    }

    /// The bit row of `v`.
    #[inline]
    pub fn row(&self, v: NodeId) -> &[u64] {
        &self.rows[v.index() * self.words..(v.index() + 1) * self.words]
    }

    /// Adjacency test in `O(1)`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.row(u)[v.index() / 64] & (1u64 << (v.index() % 64)) != 0
    }

    /// Word-parallel independence check: returns a conflicting adjacent
    /// pair if one exists, `None` when `vs` is independent.
    ///
    /// Out-of-range vertices are reported as self-conflicts `(v, v)`.
    /// `O(|vs|·words)` after building the membership mask.
    pub fn is_independent_set(&self, vs: &[NodeId]) -> Option<(NodeId, NodeId)> {
        let mut member = vec![0u64; self.words];
        for &v in vs {
            if v.index() >= self.n {
                return Some((v, v));
            }
            member[v.index() / 64] |= 1u64 << (v.index() % 64);
        }
        for &v in vs {
            for (wi, (&rw, &mw)) in self.row(v).iter().zip(&member).enumerate() {
                let hit = rw & mw;
                if hit != 0 {
                    let u = NodeId::new(wi * 64 + hit.trailing_zeros() as usize);
                    return Some((v, u));
                }
            }
        }
        None
    }

    /// Deletes `v` and its alive neighbors from `alive` in one masked
    /// word sweep, appending the dying *neighbors* (ascending) to
    /// `dying`. Returns the number of neighbors killed.
    ///
    /// # Panics
    ///
    /// Panics if `alive` is not `words` long.
    pub fn delete_closed_neighborhood(
        &self,
        v: NodeId,
        alive: &mut [u64],
        dying: &mut Vec<u32>,
    ) -> usize {
        assert_eq!(alive.len(), self.words, "alive mask shape mismatch");
        let before = dying.len();
        alive[v.index() / 64] &= !(1u64 << (v.index() % 64));
        for (wi, (&rw, aw)) in self.row(v).iter().zip(alive.iter_mut()).enumerate() {
            let mut m = rw & *aw;
            *aw &= !rw;
            while m != 0 {
                dying.push((wi * 64) as u32 + m.trailing_zeros());
                m &= m - 1;
            }
        }
        dying.len() - before
    }

    /// Minimum-degree greedy over the bit rows, **byte-identical** to
    /// the CSR degree-bucket greedy (`pslocal-maxis`' `GreedyOracle`).
    ///
    /// A greedy that pushed a bucket entry per degree decrement could
    /// only ever pop the *final* push per survivor per kill phase as
    /// valid (earlier entries are stale by the time the bucket drains,
    /// and the cursor never skips a bucket holding a valid entry), so
    /// both kernels batch: per chosen vertex this one deletes the
    /// closed neighborhood up front, walks the dying list top-down
    /// marking each survivor at its *largest* dying neighbor (the
    /// `news` sets), applies all decrements, then emits exactly one
    /// push per touched survivor in that final-push order — ascending
    /// dying neighbor, then ascending survivor. `pslocal-maxis`' test
    /// `greedy::tests::pick_sequences_match_reference_and_dense_kernel`
    /// checks the full pick sequence against the CSR kernel and a
    /// push-per-decrement reference on random and planted instances.
    ///
    /// Returns the chosen vertices in pick order.
    pub fn min_degree_greedy(&self, scratch: &mut BitsetScratch) -> Vec<NodeId> {
        let mut chosen = Vec::new();
        self.min_degree_greedy_into(scratch, &mut chosen);
        chosen
    }

    /// [`min_degree_greedy`](Self::min_degree_greedy) writing into a
    /// caller-owned vector — the zero-allocation entry point used by
    /// the phase workspace.
    pub fn min_degree_greedy_into(&self, s: &mut BitsetScratch, chosen: &mut Vec<NodeId>) {
        chosen.clear();
        let (n, words) = (self.n, self.words);
        if n == 0 {
            return;
        }
        s.alive.clear();
        s.alive.resize(words, u64::MAX);
        if !n.is_multiple_of(64) {
            s.alive[words - 1] = (1u64 << (n % 64)) - 1;
        }
        s.degree.clear();
        s.degree.extend(self.offsets.windows(2).map(|w| w[1] - w[0]));
        let maxdeg = s.degree.iter().copied().max().unwrap_or(0) as usize;
        for b in s.buckets.iter_mut() {
            b.clear();
        }
        s.buckets.resize(maxdeg + 1, Vec::new());
        for v in 0..n {
            s.buckets[s.degree[v] as usize].push(v as u32);
        }
        s.seen.resize(words, 0);
        s.news.resize(words * (maxdeg + 1), 0);
        let mut cursor = 0usize;
        while cursor <= maxdeg {
            let Some(v) = s.buckets[cursor].pop() else {
                cursor += 1;
                continue;
            };
            let v = v as usize;
            if s.alive[v / 64] & (1 << (v % 64)) == 0 || s.degree[v] as usize != cursor {
                continue; // stale entry
            }
            chosen.push(NodeId::new(v));
            s.dlist.clear();
            self.delete_closed_neighborhood(NodeId::new(v), &mut s.alive, &mut s.dlist);
            for w in s.seen.iter_mut() {
                *w = 0;
            }
            // Top-down: mark each survivor in the news set of its
            // largest dying neighbor and apply every decrement. Words
            // with no alive neighbors are skipped outright; words that
            // gained news bits are recorded (per dying vertex) so the
            // push pass below touches only them.
            s.pairs.clear();
            s.ranges.clear();
            s.ranges.resize(s.dlist.len(), (0, 0));
            for (idx, &u) in s.dlist.iter().enumerate().rev() {
                let row_u = &self.rows[u as usize * words..(u as usize + 1) * words];
                let dst = &mut s.news[idx * words..(idx + 1) * words];
                let start = s.pairs.len() as u32;
                for wi in 0..words {
                    let rw = row_u[wi] & s.alive[wi];
                    if rw == 0 {
                        continue;
                    }
                    let nw = rw & !s.seen[wi];
                    if nw != 0 {
                        dst[wi] = nw;
                        s.seen[wi] |= nw;
                        s.pairs.push(wi as u32);
                    }
                    let mut m = rw;
                    while m != 0 {
                        s.degree[(wi * 64) + m.trailing_zeros() as usize] -= 1;
                        m &= m - 1;
                    }
                }
                s.ranges[idx] = (start, s.pairs.len() as u32);
            }
            // Bottom-up: the one final push per touched survivor, in
            // the CSR greedy's final-push order (ascending dying
            // vertex, then ascending survivor — the recorded words of
            // each dying vertex are already in ascending order).
            for idx in 0..s.dlist.len() {
                let (start, end) = s.ranges[idx];
                for &wi in &s.pairs[start as usize..end as usize] {
                    let wi = wi as usize;
                    let mut m = s.news[idx * words + wi];
                    while m != 0 {
                        let w = (wi * 64) + m.trailing_zeros() as usize;
                        let d = s.degree[w] as usize;
                        s.buckets[d].push(w as u32);
                        cursor = cursor.min(d);
                        m &= m - 1;
                    }
                }
            }
        }
    }
}

/// Reusable buffers for [`BitsetGraph::min_degree_greedy`]. One
/// instance serves any number of runs on graphs of any size — every
/// buffer is (re)sized on entry, so holding the scratch across phases
/// makes the greedy allocation-free in steady state.
#[derive(Debug, Default, Clone)]
pub struct BitsetScratch {
    alive: Vec<u64>,
    degree: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    seen: Vec<u64>,
    news: Vec<u64>,
    dlist: Vec<u32>,
    /// Word indices with nonzero news bits, grouped per dying vertex —
    /// lets the bottom-up push pass visit only populated words instead
    /// of rescanning every `dying × words` cell.
    pairs: Vec<u32>,
    /// `ranges[idx]` = the `pairs` span recorded for dying vertex `idx`.
    ranges: Vec<(u32, u32)>,
}

impl BitsetScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Graph {
    /// Converts to the dense bit-row representation; see
    /// [`BitsetGraph::from_graph`].
    pub fn to_bitset(&self) -> BitsetGraph {
        BitsetGraph::from_graph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic::{complete, cycle, star};
    use crate::generators::random::gnp;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_structure() {
        let g = cycle(10);
        let b = g.to_bitset();
        assert_eq!(b.node_count(), 10);
        assert_eq!(b.edge_count(), 10);
        for v in g.nodes() {
            assert_eq!(b.degree(v), g.degree(v));
            for &u in g.neighbors(v) {
                assert!(b.has_edge(v, u));
            }
        }
    }

    #[test]
    fn from_raw_parts_matches_from_graph() {
        let g = complete(9);
        let b = g.to_bitset();
        let rebuilt =
            BitsetGraph::from_raw_parts(b.node_count(), b.rows.clone(), b.offsets.clone());
        assert_eq!(rebuilt, b);
    }

    #[test]
    #[should_panic(expected = "row buffer shape mismatch")]
    fn from_raw_parts_rejects_bad_shape() {
        BitsetGraph::from_raw_parts(65, vec![0u64; 65], vec![0u32; 66]);
    }

    #[test]
    fn independence_check_matches_csr() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let g = gnp(&mut rng, 70, 0.1);
            let b = g.to_bitset();
            let is = crate::IndependentSet::new(&g, g.nodes().step_by(7).collect());
            match is {
                Ok(set) => assert!(b.is_independent_set(set.vertices()).is_none()),
                Err(e) => {
                    let (u, v) = b
                        .is_independent_set(&g.nodes().step_by(7).collect::<Vec<_>>())
                        .expect("bitset check must also reject");
                    assert!(g.neighbors(u).contains(&v));
                    let _ = e;
                }
            }
        }
    }

    #[test]
    fn independence_check_flags_out_of_range() {
        let b = cycle(5).to_bitset();
        assert_eq!(b.is_independent_set(&[NodeId::new(7)]), Some((NodeId::new(7), NodeId::new(7))));
    }

    #[test]
    fn closed_neighborhood_deletion() {
        let g = star(6); // hub 0 plus 5 leaves
        let b = g.to_bitset();
        let mut alive = vec![(1u64 << 6) - 1];
        let mut dying = Vec::new();
        let killed = b.delete_closed_neighborhood(NodeId::new(0), &mut alive, &mut dying);
        assert_eq!(killed, g.node_count() - 1);
        assert_eq!(dying, [1, 2, 3, 4, 5]);
        assert_eq!(alive, vec![0u64]);
    }

    #[test]
    fn greedy_handles_edge_cases() {
        let mut s = BitsetScratch::new();
        assert!(Graph::empty(0).to_bitset().min_degree_greedy(&mut s).is_empty());
        let picks = Graph::empty(5).to_bitset().min_degree_greedy(&mut s);
        assert_eq!(picks.len(), 5);
        let picks = complete(7).to_bitset().min_degree_greedy(&mut s);
        assert_eq!(picks.len(), 1);
        // Word-boundary sizes.
        for n in [63, 64, 65, 128, 129] {
            let picks = cycle(n).to_bitset().min_degree_greedy(&mut s);
            assert!(picks.len() >= n / 3);
        }
    }

    #[test]
    fn set_bit_range_matches_per_bit_reference() {
        for (lo, hi) in [(0, 0), (0, 1), (3, 3), (0, 64), (63, 65), (5, 190), (64, 128), (190, 192)]
        {
            let mut fast = vec![0u64; 3];
            set_bit_range(&mut fast, lo, hi);
            let mut slow = vec![0u64; 3];
            for b in lo..hi {
                slow[(b / 64) as usize] |= 1u64 << (b % 64);
            }
            assert_eq!(fast, slow, "range {lo}..{hi}");
        }
    }

    #[test]
    fn checked_offsets_match_unchecked_in_range() {
        let degs = [0usize, 3, 1, 64, 2];
        let offsets = checked_prefix_offsets(degs.iter().copied()).unwrap();
        assert_eq!(offsets, vec![0, 0, 3, 4, 68, 70]);
    }

    #[test]
    fn offsets_overflow_is_typed_not_truncated() {
        // Pre-fix, `deg as u32` wrapped and the prefix sums silently
        // truncated; now any half-edge total past u32::MAX is a typed
        // error. A single oversized degree...
        let huge = u32::MAX as usize + 2;
        let err = checked_prefix_offsets([huge].into_iter()).unwrap_err();
        assert!(matches!(err, GraphError::TooLarge { limit, .. } if limit == u32::MAX as u64));
        // ...and an in-range sequence whose *running total* overflows.
        let step = (u32::MAX / 2) as usize + 1;
        let err = checked_prefix_offsets([step, step].into_iter()).unwrap_err();
        assert!(matches!(err, GraphError::TooLarge { .. }));
        assert!(err.to_string().contains("bitset half-edge offsets"));
        // The exact boundary still fits.
        let ok = checked_prefix_offsets([step, step - 1].into_iter()).unwrap();
        assert_eq!(*ok.last().unwrap(), u32::MAX);
    }

    #[test]
    fn try_from_graph_accepts_ordinary_graphs() {
        let g = cycle(10);
        assert_eq!(BitsetGraph::try_from_graph(&g).unwrap(), g.to_bitset());
    }

    #[test]
    fn auto_strategy_resolves_by_density_and_size() {
        assert!(!KernelStrategy::Auto.use_bitset(0, 0));
        assert!(!KernelStrategy::Auto.use_bitset(1000, 100)); // too sparse
        assert!(KernelStrategy::Auto.use_bitset(5136, 529_064)); // the dense bench graph
        assert!(!KernelStrategy::Auto.use_bitset(BITSET_MAX_NODES + 1, usize::MAX / 4));
        // Half-edge counts past the u32 offset limit must route to CSR
        // even when the node count and density would pick the bitset
        // (pre-fix this resolved to the bitset and truncated).
        assert!(!KernelStrategy::Auto.use_bitset(BITSET_MAX_NODES, u32::MAX as usize));
        assert!(!KernelStrategy::Auto.use_bitset(BITSET_MAX_NODES, usize::MAX));
        // Degree clears the flat floor but not the per-row-word scaling
        // requirement (avg degree 24 against 61 row words).
        assert!(!KernelStrategy::Auto.use_bitset(3856, 92_776));
        assert!(KernelStrategy::Bitset.use_bitset(10, 0));
        assert!(!KernelStrategy::Csr.use_bitset(5136, 529_064));
    }
}
