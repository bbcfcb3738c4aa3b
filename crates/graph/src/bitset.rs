//! Word-parallel dense adjacency kernels.
//!
//! CSR rows are the right representation for sparse graphs, but the
//! conflict graphs `G_k` of the Theorem 1.1 reduction are *dense* —
//! every hyperedge block is a clique and the color families connect
//! blocks wholesale — and there pointer-chasing through `u32` targets
//! loses to bit rows processed 64 vertices per word. This module
//! provides that dense representation ([`BitsetGraph`]) plus the three
//! kernels the reduction hot path needs:
//!
//! * [`BitsetGraph::is_independent_set`] — membership mask AND row,
//! * [`BitsetGraph::delete_closed_neighborhood`] — one masked word
//!   sweep per deletion,
//! * [`BitsetGraph::min_degree_greedy`] — the minimum-degree greedy
//!   picking the least **(degree, push-stamp) key** per vertex over the
//!   alive words, byte-identical to the CSR greedy's pick sequence (see
//!   the proof sketch at the function).
//!
//! A `G_k` row is never stored as such: the `k` rows of one `(e, v)`
//! slot share one template that each row reads shifted by its color,
//! plus a few [`FixedRange`]s, so the rows take `⌈n/64⌉` words per slot
//! rather than per node. Every kernel reads a row through
//! [`BitsetGraph::row`], which shifts it into a reused buffer.
//!
//! [`KernelStrategy`] is the knob callers thread through their options
//! structs: `Auto` resolves to the bitset route exactly when the
//! density heuristic says word scans pay for themselves. The
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
    /// Always take the bitset (dense) route. Flat bit rows cost `n²/8`
    /// bytes and a `G_k`'s slot templates `n²/8k`, and each row read
    /// scans `⌈n/64⌉` words, so a build on this route refuses a graph
    /// over [`BITSET_MAX_NODES`] nodes (the `G_k` build in
    /// `pslocal-core` panics with `conflict graph too large`).
    Bitset,
}

/// `Auto` resolves to the bitset route only below this node count —
/// past ~32k nodes the quadratic footprint stops fitting anything
/// cache-like: `n²/8` bytes of flat rows (128 MiB), `n²/8k` of a
/// `G_k`'s slot templates, and `n/8` bytes scanned per row read.
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
    /// small enough for its quadratic rows to stay cache-resident
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

/// A contiguous run of neighbors that every row of one group holds,
/// less an optional *hole*: the group's first row leaves out bit
/// `hole`, and row `c` of the group leaves out `hole + c`. In `G_k` the
/// `E_edge` clique of a slot's hyperedge is such a range, with its hole
/// at the slot's own node, and so is the slot's vertex in every other
/// block containing it, with its hole at the row's own color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedRange {
    lo: u32,
    hi: u32,
    /// The hole in the group's first row, or `NO_HOLE`.
    hole: u32,
}

/// The `hole` of a [`FixedRange`] without one: a sentinel rather than
/// an `Option`, so a range takes 12 bytes, not 16.
const NO_HOLE: u32 = u32::MAX;

impl FixedRange {
    /// The range `lo..hi` (half-open), less `hole` in the group's first
    /// row. A hole must stay inside the range in every row of its
    /// group, which [`BitsetGraph::from_groups`] checks, and must not be
    /// a neighbor of its row: no template bit or other range may cover
    /// it.
    pub fn new(lo: u32, hi: u32, hole: Option<u32>) -> Self {
        FixedRange { lo, hi, hole: hole.unwrap_or(NO_HOLE) }
    }

    /// ORs the range into `row`, the group's row `c`, then clears its
    /// hole (no other source sets that bit).
    #[inline]
    fn set(self, row: &mut [u64], c: u32) {
        set_bit_range(row, self.lo, self.hi);
        if self.hole != NO_HOLE {
            let b = self.hole + c;
            row[(b / 64) as usize] &= !(1u64 << (b % 64));
        }
    }

    /// Whether the group's row `c` holds bit `b` through this range.
    fn contains(self, b: u32, c: u32) -> bool {
        (self.lo..self.hi).contains(&b) && (self.hole == NO_HOLE || self.hole + c != b)
    }
}

/// Dense adjacency: the row of `v` is `⌈n/64⌉` words in which bit `u`
/// is set iff `{u, v}` is an edge. Degrees are kept as a CSR-style
/// prefix array so consumers can read them without popcounting.
///
/// Rows are stored in groups of `g` consecutive nodes that share one
/// template: row `i·g + c` is template `i` shifted left by `c` bits,
/// OR'd with group `i`'s [`FixedRange`]s. The `k` triples of one
/// `(e, v)` slot of `G_k` differ only in their color, so its build
/// stores one group per slot, `k` times smaller than flat rows;
/// [`from_graph`](Self::from_graph) makes groups of one node with no
/// ranges, where the template is the row. [`row`](Self::row) is the
/// one accessor every kernel reads through: it shifts a row into a
/// caller's buffer, or lends a template in place when it is the row.
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
#[derive(Debug, Clone)]
pub struct BitsetGraph {
    n: usize,
    words: usize,
    /// Nodes per group; `n` is a multiple of it.
    group: usize,
    /// One `words`-word template per group.
    templates: Vec<u64>,
    /// Every group's fixed ranges, in group order.
    ranges: Vec<FixedRange>,
    /// `range_offsets[i]..range_offsets[i + 1]` are group `i`'s ranges.
    range_offsets: Vec<u32>,
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

/// Writes `template << c`, read as one `64·len`-bit number, into `out`
/// (both `len` words). Bits shifted past the last word are dropped.
#[inline]
fn shift_into(template: &[u64], c: usize, out: &mut [u64]) {
    let len = out.len();
    let (ws, bs) = ((c / 64).min(len), (c % 64) as u32);
    out[..ws].fill(0);
    let (out, src) = (&mut out[ws..], &template[..len - ws]);
    if bs == 0 {
        out.copy_from_slice(src);
    } else if let Some(first) = out.first_mut() {
        *first = src[0] << bs;
        for (o, pair) in out[1..].iter_mut().zip(src.windows(2)) {
            *o = (pair[1] << bs) | (pair[0] >> (64 - bs));
        }
    }
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
    /// Each node is a group of one with no ranges.
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
        Ok(Self::from_groups(n, 1, rows, Vec::new(), vec![0; n + 1], offsets))
    }

    /// Assembles a bitset graph from rows stored in groups of `group`
    /// consecutive nodes: row `i·group + c` is template `i` (the
    /// `⌈n/64⌉` words from `templates[i·⌈n/64⌉]` on) shifted left by
    /// `c` bits, OR'd with the ranges
    /// `ranges[range_offsets[i]..range_offsets[i + 1]]`, and `offsets`
    /// is the degree prefix array. This is the entry point for builders
    /// that emit rows directly instead of converting from CSR. The
    /// caller guarantees symmetry, loop-freeness, that no template bit
    /// is shifted past node `n − 1`, and that no hole is a neighbor of
    /// its row (see [`FixedRange::new`]); debug builds re-check that
    /// every row's popcount is its degree and that it has no loop.
    ///
    /// # Panics
    ///
    /// Panics if `group` is 0, if the buffer shapes are inconsistent,
    /// or if a range or its moving hole leaves the node range.
    pub fn from_groups(
        n: usize,
        group: usize,
        templates: Vec<u64>,
        ranges: Vec<FixedRange>,
        range_offsets: Vec<u32>,
        offsets: Vec<u32>,
    ) -> Self {
        assert!(group > 0 && n.is_multiple_of(group), "group size must divide the node count");
        let (words, groups) = (n.div_ceil(64), n / group);
        assert_eq!(templates.len(), groups * words, "template buffer shape mismatch");
        assert_eq!(range_offsets.len(), groups + 1, "range offsets length mismatch");
        assert_eq!(range_offsets[groups] as usize, ranges.len(), "range offsets length mismatch");
        assert_eq!(offsets.len(), n + 1, "offsets length mismatch");
        assert!(
            ranges.iter().all(|r| r.lo <= r.hi
                && r.hi as usize <= n
                && (r.hole == NO_HOLE
                    || r.lo <= r.hole && r.hole as usize + group <= r.hi as usize)),
            "a fixed range or its hole leaves the node range"
        );
        let b = BitsetGraph { n, words, group, templates, ranges, range_offsets, offsets };
        debug_assert!({
            let mut buf = Vec::new();
            (0..n).all(|v| {
                let row = b.row(NodeId::new(v), &mut buf);
                row.iter().map(|w| w.count_ones()).sum::<u32>() == b.degree(NodeId::new(v)) as u32
                    && row[v / 64] & (1 << (v % 64)) == 0
            })
        });
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

    /// Heap bytes of the stored rows: the templates, and the fixed
    /// ranges with their offsets (not the degree array). About `n²/8`
    /// for [`from_graph`](Self::from_graph), about `k` times less for a
    /// `G_k` built one group per slot.
    pub fn row_bytes(&self) -> usize {
        8 * self.templates.len()
            + std::mem::size_of::<FixedRange>() * self.ranges.len()
            + 4 * self.range_offsets.len()
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

    /// Group `i`'s fixed ranges.
    #[inline]
    fn ranges_of(&self, i: usize) -> &[FixedRange] {
        &self.ranges[self.range_offsets[i] as usize..self.range_offsets[i + 1] as usize]
    }

    /// Group `i`'s template.
    #[inline]
    fn template(&self, i: usize) -> &[u64] {
        &self.templates[i * self.words..(i + 1) * self.words]
    }

    /// The bit row of `v`. The first row of a group without ranges is
    /// its template, lent in place; any other row is shifted into
    /// `buf` (resized to [`words`](Self::words)), in `O(words + ranges)`.
    #[inline]
    pub fn row<'a>(&'a self, v: NodeId, buf: &'a mut Vec<u64>) -> &'a [u64] {
        // Node ids are u32s, and u32 division is the cheaper instruction
        // on this per-row path.
        let (v, group) = (v.index() as u32, self.group as u32);
        let (i, c) = ((v / group) as usize, (v % group) as usize);
        let ranges = self.ranges_of(i);
        if c == 0 && ranges.is_empty() {
            return self.template(i);
        }
        buf.resize(self.words, 0);
        shift_into(self.template(i), c, buf);
        for &r in ranges {
            r.set(buf, c as u32);
        }
        buf
    }

    /// Adjacency test in `O(ranges of u's group)`, without building the
    /// row.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (i, c) = (u.index() / self.group, u.index() % self.group);
        let shifted = v.index().checked_sub(c).is_some_and(|b| {
            let template = self.template(i);
            template[b / 64] & (1u64 << (b % 64)) != 0
        });
        let (b, c) = (v.index() as u32, c as u32);
        shifted || self.ranges_of(i).iter().any(|r| r.contains(b, c))
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
        let mut buf = Vec::new();
        for &v in vs {
            for (wi, (&rw, &mw)) in self.row(v, &mut buf).iter().zip(&member).enumerate() {
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
    /// `dying`. Returns the number of neighbors killed. `buf` holds
    /// `v`'s row while it is read (see [`row`](Self::row)).
    ///
    /// # Panics
    ///
    /// Panics if `alive` is not `words` long.
    pub fn delete_closed_neighborhood(
        &self,
        v: NodeId,
        alive: &mut [u64],
        dying: &mut Vec<u32>,
        buf: &mut Vec<u64>,
    ) -> usize {
        assert_eq!(alive.len(), self.words, "alive mask shape mismatch");
        let before = dying.len();
        alive[v.index() / 64] &= !(1u64 << (v.index() % 64));
        for (wi, (&rw, aw)) in self.row(v, buf).iter().zip(alive.iter_mut()).enumerate() {
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
    /// A bucket greedy pops, at the least residual degree, the vertex
    /// whose valid push came last. Here each vertex holds one key, its
    /// residual degree in the high 32 bits and `u32::MAX − stamp` in the
    /// low 32, the stamp being the time of its latest push (initially
    /// its id, the order in which a queue is filled), and each pick is
    /// the least key over the alive words. Per pick the closed
    /// neighborhood dies, and an *ascending* walk of the dying list
    /// takes one off the degree of each alive neighbor of each dying row
    /// and stamps it with the next tick. The last write wins, so each
    /// survivor ends stamped at its largest dying neighbor, ties broken
    /// by ascending survivor: the order of the final pushes of a greedy
    /// that pushes on every decrement, and only final pushes are ever
    /// popped as valid (earlier ones are stale by the time their bucket
    /// drains). `pslocal-maxis`' test
    /// `greedy::tests::pick_sequences_match_reference_and_dense_kernel`
    /// checks the full pick sequence against the CSR kernel and that
    /// push-per-decrement greedy on random, multi-word and planted
    /// instances.
    ///
    /// Returns the chosen vertices in pick order.
    ///
    /// # Panics
    ///
    /// Panics if `n + |E|` exceeds `u32::MAX`, past which the stamps
    /// would not fit their 32 bits.
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
        let n = self.n;
        // One stamp per vertex, then one per decrement, at most one per
        // edge: every stamp stays below `n + |E|`.
        assert!(
            n as u64 + self.edge_count() as u64 <= u64::from(u32::MAX),
            "{n} nodes and {} edges overflow the greedy's 32-bit push stamps",
            self.edge_count()
        );
        let BitsetScratch { alive, keys, dying, row } = s;
        alive.clear();
        alive.resize(self.words, u64::MAX);
        if !n.is_multiple_of(64) {
            alive[self.words - 1] = (1u64 << (n % 64)) - 1;
        }
        // Padded to whole words with dead keys, so every alive word
        // owns one 64-key chunk.
        keys.clear();
        keys.extend(
            self.offsets
                .windows(2)
                .zip(0u32..)
                .map(|(w, v)| (u64::from(w[1] - w[0]) << 32) | u64::from(u32::MAX - v)),
        );
        keys.resize(64 * self.words, DEAD_KEY);
        let mut tick = n as u64;
        while let Some(v) = least_alive_key(keys, alive) {
            chosen.push(NodeId::new(v));
            dying.clear();
            self.delete_closed_neighborhood(NodeId::new(v), alive, dying, row);
            keys[v] = DEAD_KEY;
            for &u in dying.iter() {
                keys[u as usize] = DEAD_KEY;
                let words = self.row(NodeId::new(u as usize), row).iter().zip(alive.iter());
                for (wi, (&r, &a)) in words.enumerate() {
                    let mut m = r & a;
                    while m != 0 {
                        // One degree off, and the stamp `tick`: a degree
                        // here is at least 1 (`u` is still counted) and
                        // `tick` below `u32::MAX`, so nothing wraps.
                        let key = &mut keys[wi * 64 + m.trailing_zeros() as usize];
                        *key = (*key | STAMP_BITS) - (1 << 32) - tick;
                        tick += 1;
                        m &= m - 1;
                    }
                }
            }
        }
    }
}

/// The key of a dead vertex, and of the padding past node `n − 1`.
const DEAD_KEY: u64 = u64::MAX;

/// The low half of a greedy key, which holds `u32::MAX − stamp`.
const STAMP_BITS: u64 = u32::MAX as u64;

/// The vertex with the least key in the words whose `alive` mask is
/// nonzero, or `None` once no vertex is alive. Alive keys are distinct,
/// since no two vertices share a stamp.
fn least_alive_key(keys: &[u64], alive: &[u64]) -> Option<usize> {
    let (mut least, mut at) = (DEAD_KEY, 0);
    for (wi, (chunk, &a)) in keys.chunks_exact(64).zip(alive).enumerate() {
        if a != 0 {
            // Eight running minima: one chain of dependent compares
            // scans the word about twice as slowly.
            let mut lanes = [DEAD_KEY; 8];
            for eight in chunk.chunks_exact(8) {
                for (lane, &k) in lanes.iter_mut().zip(eight) {
                    *lane = (*lane).min(k);
                }
            }
            let word_least = lanes.into_iter().fold(DEAD_KEY, u64::min);
            if word_least < least {
                (least, at) = (word_least, wi);
            }
        }
    }
    if least == DEAD_KEY {
        return None;
    }
    keys[at * 64..(at + 1) * 64].iter().position(|&k| k == least).map(|i| at * 64 + i)
}

impl PartialEq for BitsetGraph {
    /// Equal node counts, degrees and rows, however either graph groups
    /// its rows.
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.n == other.n
            && self.offsets == other.offsets
            && (0..self.n)
                .all(|v| self.row(NodeId::new(v), &mut a) == other.row(NodeId::new(v), &mut b))
    }
}

impl Eq for BitsetGraph {}

/// Reusable buffers for [`BitsetGraph::min_degree_greedy`]. One
/// instance serves any number of runs on graphs of any size — every
/// buffer is (re)sized on entry, so holding the scratch across phases
/// makes the greedy allocation-free in steady state.
#[derive(Debug, Default, Clone)]
pub struct BitsetScratch {
    alive: Vec<u64>,
    /// One (degree, push-stamp) key per vertex, `DEAD_KEY` once dead.
    keys: Vec<u64>,
    /// The pick's dying neighbors, ascending.
    dying: Vec<u32>,
    /// The row being read, shifted out of its group's template.
    row: Vec<u64>,
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
    use rand::{Rng, SeedableRng};

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
    fn from_groups_of_one_match_from_graph() {
        let g = complete(9);
        let b = g.to_bitset();
        let rebuilt = BitsetGraph::from_groups(
            b.node_count(),
            1,
            b.templates.clone(),
            Vec::new(),
            vec![0; 10],
            b.offsets.clone(),
        );
        assert_eq!(rebuilt, b);
        // A group of one without ranges lends its template in place.
        let mut buf = Vec::new();
        assert_eq!(b.row(NodeId::new(4), &mut buf), &[0b1_1110_1111]);
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "template buffer shape mismatch")]
    fn from_groups_rejects_bad_shape() {
        BitsetGraph::from_groups(65, 1, vec![0u64; 65], Vec::new(), vec![0; 66], vec![0u32; 66]);
    }

    #[test]
    #[should_panic(expected = "leaves the node range")]
    fn from_groups_rejects_a_hole_that_leaves_its_range() {
        // At row 2 of the group the hole would sit at node 3, past `hi`.
        let range = FixedRange::new(0, 3, Some(1));
        BitsetGraph::from_groups(3, 3, vec![0], vec![range], vec![0, 1], vec![0, 2, 4, 6]);
    }

    /// Row `c` of a group by its definition: the template shifted one
    /// bit at a time, and each range filled by [`set_bit_range`] on
    /// both sides of its hole.
    fn reference_row(n: usize, template: &[u64], c: usize, ranges: &[FixedRange]) -> Vec<u64> {
        let mut row = vec![0u64; n.div_ceil(64)];
        for t in 0..n - c {
            if template[t / 64] >> (t % 64) & 1 == 1 {
                row[(t + c) / 64] |= 1u64 << ((t + c) % 64);
            }
        }
        for r in ranges {
            if r.hole == NO_HOLE {
                set_bit_range(&mut row, r.lo, r.hi);
            } else {
                set_bit_range(&mut row, r.lo, r.hole + c as u32);
                set_bit_range(&mut row, r.hole + c as u32 + 1, r.hi);
            }
        }
        row
    }

    #[test]
    fn grouped_rows_match_a_per_bit_reference_across_words() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Groups of 64 and more shift by whole words; 70 and 130 also
        // carry bits across words and start groups mid-word.
        for group in [1usize, 3, 63, 64, 70, 130] {
            let groups = 3;
            let n = group * groups;
            let words = n.div_ceil(64);
            let mut templates = vec![0u64; groups * words];
            let (mut ranges, mut range_offsets) = (Vec::new(), vec![0u32]);
            for i in 0..groups {
                let template = &mut templates[i * words..(i + 1) * words];
                // Each group holds its own group as a range with its
                // hole at the row's own node, and the next group as a
                // range with or without a hole at the same offset.
                let lo = (i * group) as u32;
                ranges.push(FixedRange::new(lo, lo + group as u32, Some(lo)));
                let other = (((i + 1) % groups) * group) as u32;
                let hole = rng.gen_bool(0.5).then_some(other);
                ranges.push(FixedRange::new(other, other + group as u32, hole));
                // Template bits stay below n − (group − 1), so no shift
                // passes the last node, and skip the first node of both
                // ranges, which row c would shift onto a hole.
                for t in 0..n - (group - 1) {
                    if t != lo as usize && t != other as usize && rng.gen_bool(0.3) {
                        template[t / 64] |= 1u64 << (t % 64);
                    }
                }
                range_offsets.push(ranges.len() as u32);
            }
            let reference: Vec<Vec<u64>> = (0..n)
                .map(|v| {
                    let i = v / group;
                    let own = &ranges[2 * i..2 * i + 2];
                    reference_row(n, &templates[i * words..(i + 1) * words], v % group, own)
                })
                .collect();
            let mut offsets = vec![0u32];
            for row in &reference {
                let degree: u32 = row.iter().map(|w| w.count_ones()).sum();
                offsets.push(offsets.last().unwrap() + degree);
            }
            let b = BitsetGraph::from_groups(n, group, templates, ranges, range_offsets, offsets);
            let mut buf = Vec::new();
            for (v, want) in reference.iter().enumerate() {
                let v = NodeId::new(v);
                assert_eq!(b.row(v, &mut buf), &want[..], "group {group}, row {v}");
                for u in 0..n {
                    let bit = want[u / 64] >> (u % 64) & 1 == 1;
                    assert_eq!(b.has_edge(v, NodeId::new(u)), bit, "group {group}, {v}–{u}");
                }
            }
            // The same rows stored flat compare equal and hash the same.
            // (The rows are not symmetric, so no greedy runs on them.)
            let flat_offsets = b.offsets.clone();
            let flat = BitsetGraph::from_groups(
                n,
                1,
                reference.concat(),
                Vec::new(),
                vec![0; n + 1],
                flat_offsets,
            );
            assert_eq!(b, flat, "group {group}");
            assert_eq!(b.fingerprint(), flat.fingerprint(), "group {group}");
        }
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
        let killed =
            b.delete_closed_neighborhood(NodeId::new(0), &mut alive, &mut dying, &mut Vec::new());
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
