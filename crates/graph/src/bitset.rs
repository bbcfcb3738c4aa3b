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
//!   picking the least **(degree, stamp, id) key** per vertex over the
//!   alive words, byte-identical to the CSR greedy's pick sequence (see
//!   the proof sketch at the function), on the whole graph or, through
//!   [`BitsetGraph::min_degree_greedy_members_into`], on the subgraph a
//!   member list induces.
//!
//! [`BitsetGraph::or_rows`] ORs many rows into one mask, a slot's rows
//! at once, which is how the network decomposition of
//! `pslocal-slocal` grows a ball by one level and
//! [`component_vertex_sets_dense`](crate::algo::traversal::component_vertex_sets_dense)
//! a component. [`BitsetGraph::any_neighbor`] visits one row's
//! neighbors until a predicate holds, as Luby's rounds read them.
//!
//! A `G_k` row is never stored as such: the `k` rows of one `(e, v)`
//! slot share one ascending list of color-0 targets, which row `c`
//! reads moved up by `c`, plus a few [`FixedRange`]s, so a slot costs
//! one `u32` per moving target and 12 bytes per range, not `⌈n/64⌉`
//! words per node. The kernels read a row through
//! [`BitsetGraph::row`], which stamps it into a reused buffer, except
//! the greedy's decrement walk and [`BitsetGraph::or_rows`], which read
//! each slot's list once for all of the slot's rows they take, and
//! [`BitsetGraph::any_neighbor`], which reads one row's list and
//! ranges.
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
/// in `pslocal-maxis`: the min-degree greedy, Luby and the
/// decomposition oracle); otherwise λ and the oracle would build the same graph a
/// second time as CSR. The explicit variants force a route
/// (useful for equivalence tests and ablations — every route produces
/// identical output, only the constants differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelStrategy {
    /// Decide per graph from node count and density (the default).
    #[default]
    Auto,
    /// Always take the CSR (sparse) route.
    Csr,
    /// Always take the bitset (dense) route. The stored lists cost four
    /// bytes per target, but each row read stamps and scans `⌈n/64⌉`
    /// words, so a build on this route refuses a graph over
    /// [`BITSET_MAX_NODES`] nodes (the `G_k` build in `pslocal-core`
    /// panics with `conflict graph too large`).
    Bitset,
}

/// `Auto` resolves to the bitset route only below this node count —
/// past ~32k nodes a row stops fitting anything cache-like: every row
/// read stamps and scans `n/8` bytes (4 KiB at the bound), and each
/// greedy pick scans `8n` bytes of keys. The stored rows are lists at
/// four bytes per entry: `2|E|` entries for
/// [`BitsetGraph::from_graph`], and for a `G_k` one per moving target
/// of each `(e, v)` slot.
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
    /// small enough for the rows it reads to stay cache-resident
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
    /// a neighbor of its row: no moved target or other range may cover
    /// it.
    pub fn new(lo: u32, hi: u32, hole: Option<u32>) -> Self {
        FixedRange { lo, hi, hole: hole.unwrap_or(NO_HOLE) }
    }

    /// ORs the range into `row`, the group's row `c`, on both sides of
    /// its hole, so the hole's bit keeps whatever `row` held there.
    #[inline]
    fn set(self, row: &mut [u64], c: u32) {
        if self.hole == NO_HOLE {
            set_bit_range(row, self.lo, self.hi);
        } else {
            let b = self.hole + c;
            set_bit_range(row, self.lo, b);
            set_bit_range(row, b + 1, self.hi);
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
/// ascending list of *targets*: row `i·g + c` holds `t + c` for every
/// target `t` of group `i`, and group `i`'s [`FixedRange`]s. The `k`
/// triples of one `(e, v)` slot of `G_k` differ only in their color, so
/// its build stores one group per slot, whose list holds the slot's
/// color-0 moving targets; [`from_graph`](Self::from_graph) makes groups
/// of one node with no ranges, whose list is the node's neighbor list.
/// [`row`](Self::row) stamps a row into a caller's buffer, and every
/// kernel reads rows through it except the greedy's decrement walk,
/// [`or_rows`](Self::or_rows) and [`any_neighbor`](Self::any_neighbor),
/// which read the lists themselves.
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
    /// Every group's targets, ascending within a group, in group order.
    targets: Vec<u32>,
    /// `target_offsets[i]..target_offsets[i + 1]` are group `i`'s targets.
    target_offsets: Vec<u32>,
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

impl BitsetGraph {
    /// Converts a CSR graph into bit rows (`O(n + m)`): each node is a
    /// group of one, whose target list is its neighbor list.
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
    /// target lists are copied, so the error path is cheap).
    pub fn try_from_graph(g: &Graph) -> Result<Self, GraphError> {
        let n = g.node_count();
        let offsets = checked_prefix_offsets(g.nodes().map(|v| g.degree(v)))?;
        let targets = g.nodes().flat_map(|v| g.neighbors(v)).map(|u| u.raw()).collect();
        Ok(Self::from_groups(n, 1, targets, offsets.clone(), Vec::new(), vec![0; n + 1], offsets))
    }

    /// Assembles a bitset graph from rows stored in groups of `group`
    /// consecutive nodes: row `i·group + c` holds `t + c` for every
    /// target `t` in `targets[target_offsets[i]..target_offsets[i + 1]]`
    /// and the ranges `ranges[range_offsets[i]..range_offsets[i + 1]]`,
    /// and `offsets` is the degree prefix array. This is the entry point
    /// for builders that emit rows directly instead of converting from
    /// CSR. The caller guarantees symmetry, loop-freeness, that no row
    /// holds a node twice (through two targets, or a target and a
    /// range), and that no hole is a neighbor of its row (see
    /// [`FixedRange::new`]); debug builds re-check that every row's
    /// popcount is its degree and that it has no loop.
    ///
    /// # Panics
    ///
    /// Panics if `group` is 0, if the buffer shapes are inconsistent, if
    /// a group's targets are not strictly ascending or one would move
    /// past node `n − 1` (`t + group > n`), or if a range or its moving
    /// hole leaves the node range.
    pub fn from_groups(
        n: usize,
        group: usize,
        targets: Vec<u32>,
        target_offsets: Vec<u32>,
        ranges: Vec<FixedRange>,
        range_offsets: Vec<u32>,
        offsets: Vec<u32>,
    ) -> Self {
        assert!(group > 0 && n.is_multiple_of(group), "group size must divide the node count");
        let groups = n / group;
        // The greedy indexes `t + c` without a range check of its own,
        // and `has_edge` binary-searches each list.
        assert!(
            target_offsets.len() == groups + 1
                && target_offsets[groups] as usize == targets.len()
                && target_offsets.windows(2).all(|w| {
                    targets.get(w[0] as usize..w[1] as usize).is_some_and(|list| {
                        // No early exit, so the compares vectorize.
                        let next = list.get(1..).unwrap_or_default();
                        let descends =
                            list.iter().zip(next).fold(0, |d, (a, b)| d | u32::from(a >= b));
                        descends == 0 && list.last().is_none_or(|&t| t as usize + group <= n)
                    })
                }),
            "target list shape mismatch"
        );
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
        let words = n.div_ceil(64);
        let b = BitsetGraph {
            n,
            words,
            group,
            targets,
            target_offsets,
            ranges,
            range_offsets,
            offsets,
        };
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

    /// Heap bytes of the stored rows: the target lists and the fixed
    /// ranges, with their offsets (not the degree array). About `8·|E|`
    /// for [`from_graph`](Self::from_graph); for a `G_k` built one group
    /// per slot, one `u32` per moving target of each slot and 12 bytes
    /// per range.
    pub fn row_bytes(&self) -> usize {
        4 * (self.targets.len() + self.target_offsets.len() + self.range_offsets.len())
            + std::mem::size_of::<FixedRange>() * self.ranges.len()
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

    /// Group `i`'s targets, ascending.
    #[inline]
    fn targets_of(&self, i: usize) -> &[u32] {
        &self.targets[self.target_offsets[i] as usize..self.target_offsets[i + 1] as usize]
    }

    /// Group `i`'s fixed ranges.
    #[inline]
    fn ranges_of(&self, i: usize) -> &[FixedRange] {
        &self.ranges[self.range_offsets[i] as usize..self.range_offsets[i + 1] as usize]
    }

    /// The bit row of `v`, stamped into `buf` (resized to
    /// [`words`](Self::words)) from its group's targets and ranges, in
    /// `O(words + targets + ranges)`.
    #[inline]
    pub fn row<'a>(&self, v: NodeId, buf: &'a mut Vec<u64>) -> &'a [u64] {
        buf.clear();
        buf.resize(self.words, 0);
        self.or_row(v, buf);
        buf
    }

    /// ORs the bit row of `v` into `mask`.
    #[inline]
    fn or_row(&self, v: NodeId, mask: &mut [u64]) {
        // Node ids are u32s, and u32 division is the cheaper instruction
        // on this per-row path.
        let (v, group) = (v.index() as u32, self.group as u32);
        let (i, c) = ((v / group) as usize, v % group);
        for &t in self.targets_of(i) {
            let b = t + c;
            mask[(b / 64) as usize] |= 1u64 << (b % 64);
        }
        for &r in self.ranges_of(i) {
            r.set(mask, c);
        }
    }

    /// ORs the bit rows of the ascending `rows` into `mask`, one group's
    /// chunk of at most 64 colors at a time: each target of the group
    /// ORs the chunk's colors in as one shifted word, and each range is
    /// filled once, whole when two or more rows of the chunk cover each
    /// other's holes. So the rows of one slot cost about what one row
    /// costs, and no row is stamped or scanned word by word.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not strictly increasing, holds a node out of
    /// range, or `mask` is shorter than [`words`](Self::words).
    pub fn or_rows(&self, rows: &[NodeId], mask: &mut [u64]) {
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be strictly increasing");
        let group = self.group as u32;
        self.for_each_chunk(rows, |base, set, len| {
            let (i, c0) = ((base / group) as usize, base % group);
            for &t in self.targets_of(i) {
                // Row `c0 + j` holds `t + c0 + j`, so the chunk's rows
                // put `set` at bit `t + c0`, spilling into the next word.
                let at = t + c0;
                let (w, shift) = ((at / 64) as usize, at % 64);
                mask[w] |= set << shift;
                let spill = set.checked_shr(64 - shift).unwrap_or(0);
                if spill != 0 {
                    mask[w + 1] |= spill;
                }
            }
            for &r in self.ranges_of(i) {
                if len == 1 {
                    r.set(mask, c0 + set.trailing_zeros());
                } else {
                    set_bit_range(mask, r.lo, r.hi);
                }
            }
        });
    }

    /// Splits the ascending `rows` into chunks of one group's rows whose
    /// colors lie within one 64-color span, and calls `f(base, set, len)`
    /// on each in order: the chunk is the `len` rows `base + j` for
    /// `j ∈ set`.
    #[inline]
    fn for_each_chunk<T: Copy + Into<u32>>(&self, rows: &[T], mut f: impl FnMut(u32, u64, u32)) {
        let group = self.group as u32;
        let mut rest = rows;
        while let Some(&first) = rest.first() {
            // The chunk of at most 64 colors of `first`'s group that
            // holds `first`, from node `base` on.
            let first: u32 = first.into();
            let c = first % group;
            let base = first - c % 64;
            let end = base + (group - (c - c % 64)).min(64);
            let len = rest.iter().take_while(|&&u| u.into() < end).count();
            let set = rest[..len].iter().fold(0u64, |set, &u| set | 1 << (u.into() - base));
            rest = &rest[len..];
            f(base, set, len as u32);
        }
    }

    /// Adjacency test in `O(log targets + ranges)` of `u`'s group,
    /// without building the row.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (i, c) = (u.index() / self.group, (u.index() % self.group) as u32);
        let b = v.index() as u32;
        b.checked_sub(c).is_some_and(|t| self.targets_of(i).binary_search(&t).is_ok())
            || self.ranges_of(i).iter().any(|r| r.contains(b, c))
    }

    /// Whether `f` holds for some neighbor of `v`, stopping at the first
    /// one it accepts. The neighbors are read from `v`'s group directly,
    /// its moved targets first and then its fixed ranges around their
    /// holes, so no row is stamped: a visit costs what it reads, not
    /// [`words`](Self::words).
    #[inline]
    pub fn any_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId) -> bool) -> bool {
        let (v, group) = (v.index() as u32, self.group as u32);
        let (i, c) = ((v / group) as usize, v % group);
        let mut f = |u: u32| f(NodeId::new(u as usize));
        self.targets_of(i).iter().any(|&t| f(t + c))
            || self.ranges_of(i).iter().any(|r| {
                // Two plain loops: a chained range iterator runs slower.
                let hole = if r.hole == NO_HOLE { r.hi } else { r.hole + c };
                (r.lo..hole).any(&mut f) || (hole + 1..r.hi).any(&mut f)
            })
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
    /// whose valid push came last, and only a vertex's final push is
    /// ever popped as valid (earlier ones are stale by the time their
    /// bucket drains). One that pushes on every decrement, walking each
    /// pick's dying rows ascending and each row's survivors ascending,
    /// makes every survivor's final push at its largest dying neighbor,
    /// in the order (largest dying neighbor, survivor); vertices never
    /// pushed keep the order in which the queue was filled, by id.
    ///
    /// Here each vertex holds one key of three 21-bit fields, compared as
    /// one number: its residual degree, then `!stamp`, then `!id`, and
    /// each pick is the least key over the alive words. Every dying row
    /// has a stamp, the running count of dying rows walked, so stamps
    /// ascend from pick to pick and, within a pick, with the row; a key
    /// starts at stamp 0. Each decrement keeps the later of the key's
    /// stamp and the row's, so a survivor ends stamped at its largest
    /// dying neighbor in whatever order its decrements come, and keys
    /// tied on a stamp go to the larger id, which that greedy pushed
    /// later. So the least key is the bucket greedy's pop.
    ///
    /// The walk uses that freedom of order. It takes the dying rows
    /// group by group, in chunks of at most 64 colors, with `S` the
    /// chunk's dying colors: each target `t` of the group takes one
    /// decrement at `t + c` for every `c ∈ S`, and each fixed range is
    /// applied once, skipping the words with no alive node of it, a node
    /// taking the number of rows of `S` that hold it (`|S|` outside the
    /// hole's window, `|S \ {j}|` at window position `j`), stamped by
    /// the last of them. A select leaves dead keys alone, so no bit
    /// loop runs over the rows. `pslocal-maxis`' test
    /// `greedy::tests::pick_sequences_match_reference_and_dense_kernel`
    /// checks the full pick sequence against the CSR kernel and that
    /// push-per-decrement greedy on random, multi-word and planted
    /// instances, and on `G_k`s whose palettes span two chunks.
    ///
    /// Returns the chosen vertices in pick order.
    ///
    /// # Panics
    ///
    /// Panics unless `n < 2^21`, past which ids would not fit their
    /// 21-bit field (degrees and stamps stay below `n`).
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
        assert!(n <= FIELD as usize, "{n} nodes overflow the greedy's {FIELD_BITS}-bit key fields");
        let BitsetScratch { alive, keys, .. } = s;
        alive.clear();
        alive.resize(self.words, u64::MAX);
        if !n.is_multiple_of(64) {
            alive[self.words - 1] = (1u64 << (n % 64)) - 1;
        }
        // Padded to whole words with dead keys, so every alive word
        // owns one 64-key chunk.
        keys.clear();
        keys.extend(self.offsets.windows(2).zip(0u32..).map(|(w, v)| fresh_key(w[1] - w[0], v)));
        keys.resize(64 * self.words, DEAD_KEY);
        self.pick_all(s, chosen);
    }

    /// The greedy of [`min_degree_greedy`](Self::min_degree_greedy) on
    /// the subgraph induced by `members`, in place on these rows: its
    /// alive set starts at the members, and a member's degree counts
    /// member neighbors only. Appends the picks to `chosen` in pick
    /// order; they are the whole-graph greedy's picks on that subgraph
    /// renumbered in ascending order, mapped back, since the renumbering
    /// is monotone and keys tie-break by id.
    ///
    /// Member degrees are counted over the rows of the smaller side: a
    /// member's row masked by the members, or, when members are the
    /// majority, the non-members' rows, each taking one degree off
    /// every member it holds (the decomposition oracle's largest
    /// cluster often holds most of the graph). That pass walks the
    /// non-members' rows as the picks walk dying rows, but stamps no
    /// key, so every member starts at stamp 0. `pslocal-maxis`' test
    /// `greedy::tests::member_pick_sequences_match_reference_and_dense_kernel`
    /// checks the picks against its CSR kernel's in-place member run.
    ///
    /// # Panics
    ///
    /// Panics unless `n < 2^21` (see
    /// [`min_degree_greedy`](Self::min_degree_greedy)), or if a member
    /// is out of range.
    pub fn min_degree_greedy_members_into(
        &self,
        members: &[NodeId],
        s: &mut BitsetScratch,
        chosen: &mut Vec<NodeId>,
    ) {
        let n = self.n;
        assert!(n <= FIELD as usize, "{n} nodes overflow the greedy's {FIELD_BITS}-bit key fields");
        let BitsetScratch { alive, keys, dying, row } = s;
        alive.clear();
        alive.resize(self.words, 0);
        for &v in members {
            assert!(v.index() < n, "member {v} out of range 0..{n}");
            alive[v.index() / 64] |= 1u64 << (v.index() % 64);
        }
        keys.clear();
        keys.resize(64 * self.words, DEAD_KEY);
        if 2 * members.len() > n {
            for &v in members {
                keys[v.index()] = fresh_key(self.degree(v) as u32, v.raw());
            }
            dying.clear();
            dying.extend((0..n as u32).filter(|&u| alive[u as usize / 64] >> (u % 64) & 1 == 0));
            self.decrement_rows(dying, None, keys, alive);
        } else {
            for &v in members {
                let inside = self.row(v, row).iter().zip(alive.iter());
                let degree = inside.map(|(&r, &a)| (r & a).count_ones()).sum();
                keys[v.index()] = fresh_key(degree, v.raw());
            }
        }
        self.pick_all(s, chosen);
    }

    /// The pick loop over keys and an alive mask already set up: picks
    /// the least alive key until none is left, appending each pick to
    /// `chosen`.
    fn pick_all(&self, s: &mut BitsetScratch, chosen: &mut Vec<NodeId>) {
        let BitsetScratch { alive, keys, dying, row } = s;
        let mut walked = 0u32;
        while let Some(v) = least_alive_key(keys, alive) {
            chosen.push(NodeId::new(v));
            dying.clear();
            self.delete_closed_neighborhood(NodeId::new(v), alive, dying, row);
            keys[v] = DEAD_KEY;
            for &u in dying.iter() {
                keys[u as usize] = DEAD_KEY;
            }
            self.decrement_rows(dying, Some(&mut walked), keys, alive);
        }
    }

    /// Takes the ascending `rows` off every alive key they hold, each
    /// group's rows in chunks of at most 64 colors. With `walked`, the
    /// rows are stamped by the running count of rows walked, which they
    /// advance; without it they change no key's stamp.
    fn decrement_rows(
        &self,
        rows: &[u32],
        mut walked: Option<&mut u32>,
        keys: &mut [u64],
        alive: &[u64],
    ) {
        self.for_each_chunk(rows, |base, set, len| {
            let last = walked.as_deref_mut().map(|walked| {
                *walked += len;
                *walked
            });
            self.decrement_chunk(base, set, last, keys, alive);
        });
    }

    /// Takes the dying rows `base + j`, `j ∈ set`, of one group's chunk
    /// off every alive key they hold (see
    /// [`min_degree_greedy`](Self::min_degree_greedy)). `last` is the
    /// stamp of the chunk's last row, and the rows' stamps run up to it
    /// in ascending order; without it the rows carry no stamp.
    fn decrement_chunk(
        &self,
        base: u32,
        set: u64,
        last: Option<u32>,
        keys: &mut [u64],
        alive: &[u64],
    ) {
        let group = self.group as u32;
        let (i, c0) = ((base / group) as usize, base % group);
        let size = set.count_ones();
        // Unstamped rows raise every restamp to stamp 0's field, which
        // `decremented` never keeps over a key's own.
        let (last, unstamped) = match last {
            Some(last) => (last, 0),
            None => (size, STAMP_BITS),
        };
        let field = |stamp| stamp_field(stamp) | unstamped;
        let (mut rest, mut stamp) = (set, last + 1 - size);
        while rest != 0 {
            let c = c0 + rest.trailing_zeros();
            let restamp = field(stamp);
            for &t in self.targets_of(i) {
                let key = &mut keys[(t + c) as usize];
                *key = decremented(*key, ONE_DEGREE, restamp);
            }
            (rest, stamp) = (rest & (rest - 1), stamp + 1);
        }
        // Outside its hole's window a range node is held by every row of
        // `set`, the last stamped `last`. At window position `j` it is
        // held by the rows of `set \ {j}`, whose last is `top`'s row
        // unless `j` is `top`, and then the row before it; with no row
        // left it takes no degree and stamp 0, which never wins.
        let (top, len) = (63 - set.leading_zeros(), (group - c0).min(64));
        let (all, all_restamp) = (u64::from(size) * ONE_DEGREE, field(last));
        for &r in self.ranges_of(i) {
            let (window, window_end) = match r.hole {
                NO_HOLE => (r.hi, r.hi),
                hole => (hole + c0, hole + c0 + len),
            };
            decrement_span(keys, alive, r.lo, window, all, all_restamp);
            for (j, key) in (0..).zip(&mut keys[window as usize..window_end as usize]) {
                let count = u64::from(size) - (set >> j & 1);
                let restamp =
                    if count == 0 { STAMP_BITS } else { field(last - u32::from(j == top)) };
                *key = decremented(*key, count * ONE_DEGREE, restamp);
            }
            decrement_span(keys, alive, window_end, r.hi, all, all_restamp);
        }
    }
}

/// Takes `by` degrees off every key of `lo..hi` (half-open), keeping
/// the later of its stamp and `restamp`'s, and skips the words of
/// `alive` that hold no node of the span.
#[inline]
fn decrement_span(keys: &mut [u64], alive: &[u64], lo: u32, hi: u32, by: u64, restamp: u64) {
    let mut x = lo;
    while x < hi {
        let end = hi.min((x | 63) + 1);
        let mask = (u64::MAX << (x % 64)) & (u64::MAX >> (63 - (end - 1) % 64));
        if alive[(x / 64) as usize] & mask != 0 {
            for key in &mut keys[x as usize..end as usize] {
                *key = decremented(*key, by, restamp);
            }
        }
        x = end;
    }
}

/// The width of each of a greedy key's three fields: degree, `!stamp`
/// and `!id`, from the high bits down.
const FIELD_BITS: u32 = 21;

/// The largest value of one key field.
const FIELD: u64 = (1 << FIELD_BITS) - 1;

/// One degree in a greedy key.
const ONE_DEGREE: u64 = 1 << (2 * FIELD_BITS);

/// The middle field of a greedy key, which holds `FIELD − stamp`.
const STAMP_BITS: u64 = FIELD << FIELD_BITS;

/// The key of a dead vertex, and of the padding past node `n − 1`.
/// Every alive key is below it, since the top bit stays clear.
const DEAD_KEY: u64 = u64::MAX;

/// The key a greedy run starts vertex `v` at: `degree`, stamp 0.
#[inline]
fn fresh_key(degree: u32, v: u32) -> u64 {
    (u64::from(degree) * ONE_DEGREE) | STAMP_BITS | (FIELD - u64::from(v))
}

/// The stamp field of a row stamped `stamp`.
#[inline]
fn stamp_field(stamp: u32) -> u64 {
    (FIELD - u64::from(stamp)) << FIELD_BITS
}

/// `key` less `by` degrees, keeping the later of its stamp and
/// `restamp`'s; a dead key stays dead. An alive key's degree counts
/// every row that decrements it, so the subtraction never borrows.
#[inline]
fn decremented(key: u64, by: u64, restamp: u64) -> u64 {
    let less = key - by;
    let next = less.min((less & !STAMP_BITS) | restamp);
    if key == DEAD_KEY {
        key
    } else {
        next
    }
}

/// The vertex with the least key in the words whose `alive` mask is
/// nonzero, or `None` once no vertex is alive. Alive keys are distinct,
/// since each holds its vertex's id.
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
    /// One (degree, stamp, id) key per vertex, `DEAD_KEY` once dead.
    keys: Vec<u64>,
    /// The pick's dying neighbors, ascending.
    dying: Vec<u32>,
    /// The picked vertex's row, stamped from its group's list.
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
            b.targets.clone(),
            b.target_offsets.clone(),
            Vec::new(),
            vec![0; 10],
            b.offsets.clone(),
        );
        assert_eq!(rebuilt, b);
        // A group of one without ranges holds its neighbor list, which
        // a read stamps into the buffer.
        assert_eq!(b.targets_of(4), &[0, 1, 2, 3, 5, 6, 7, 8]);
        let mut buf = Vec::new();
        assert_eq!(b.row(NodeId::new(4), &mut buf), &[0b1_1110_1111]);
        assert_eq!(buf, [0b1_1110_1111]);
    }

    #[test]
    #[should_panic(expected = "target list shape mismatch")]
    fn from_groups_rejects_bad_shape() {
        let offsets = vec![0u32; 66];
        BitsetGraph::from_groups(65, 1, vec![0], vec![0; 65], Vec::new(), vec![0; 66], offsets);
    }

    #[test]
    #[should_panic(expected = "target list shape mismatch")]
    fn from_groups_rejects_unsorted_targets() {
        // Groups of two over four nodes: group 0 lists 2 before 1.
        let (targets, target_offsets) = (vec![2, 1], vec![0, 2, 2]);
        let offsets = vec![0, 2, 4, 5, 6];
        BitsetGraph::from_groups(4, 2, targets, target_offsets, Vec::new(), vec![0; 3], offsets);
    }

    #[test]
    #[should_panic(expected = "target list shape mismatch")]
    fn from_groups_rejects_a_target_moved_past_the_last_node() {
        // Row 1 of group 0 would hold node 3 + 1, past the last node.
        let (targets, target_offsets) = (vec![3], vec![0, 1, 1]);
        let offsets = vec![0, 1, 2, 3, 4];
        BitsetGraph::from_groups(4, 2, targets, target_offsets, Vec::new(), vec![0; 3], offsets);
    }

    #[test]
    #[should_panic(expected = "leaves the node range")]
    fn from_groups_rejects_a_hole_that_leaves_its_range() {
        // At row 2 of the group the hole would sit at node 3, past `hi`.
        let range = FixedRange::new(0, 3, Some(1));
        let offsets = vec![0, 2, 4, 6];
        BitsetGraph::from_groups(3, 3, Vec::new(), vec![0, 0], vec![range], vec![0, 1], offsets);
    }

    /// Row `c` of a group by its definition: every target moved up by
    /// `c` one bit at a time, and each range filled by [`set_bit_range`]
    /// on both sides of its hole.
    fn reference_row(n: usize, targets: &[u32], c: usize, ranges: &[FixedRange]) -> Vec<u64> {
        let mut row = vec![0u64; n.div_ceil(64)];
        for &t in targets {
            let b = t as usize + c;
            row[b / 64] |= 1u64 << (b % 64);
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
        // Groups of 64 and more move targets by whole words; 70 and 130
        // also carry them across words and start groups mid-word.
        for group in [1usize, 3, 63, 64, 70, 130] {
            let groups = 3;
            let n = group * groups;
            let (mut targets, mut target_offsets) = (Vec::new(), vec![0u32]);
            let (mut ranges, mut range_offsets) = (Vec::new(), vec![0u32]);
            for i in 0..groups {
                // Each group holds its own group as a range with its
                // hole at the row's own node, and the next group as a
                // range with or without a hole at the same offset.
                let lo = (i * group) as u32;
                ranges.push(FixedRange::new(lo, lo + group as u32, Some(lo)));
                let other = (((i + 1) % groups) * group) as u32;
                let hole = rng.gen_bool(0.5).then_some(other);
                ranges.push(FixedRange::new(other, other + group as u32, hole));
                // Targets stay below n − (group − 1), so no row moves one
                // past the last node, and skip the first node of both
                // ranges, which row c would move onto a hole.
                for t in 0..(n - (group - 1)) as u32 {
                    if t != lo && t != other && rng.gen_bool(0.3) {
                        targets.push(t);
                    }
                }
                target_offsets.push(targets.len() as u32);
                range_offsets.push(ranges.len() as u32);
            }
            let reference: Vec<Vec<u64>> = (0..n)
                .map(|v| {
                    let i = v / group;
                    let own = &ranges[2 * i..2 * i + 2];
                    let list = &targets[target_offsets[i] as usize..target_offsets[i + 1] as usize];
                    reference_row(n, list, v % group, own)
                })
                .collect();
            let mut offsets = vec![0u32];
            for row in &reference {
                let degree: u32 = row.iter().map(|w| w.count_ones()).sum();
                offsets.push(offsets.last().unwrap() + degree);
            }
            let b = BitsetGraph::from_groups(
                n,
                group,
                targets,
                target_offsets,
                ranges,
                range_offsets,
                offsets,
            );
            let mut buf = Vec::new();
            for (v, want) in reference.iter().enumerate() {
                let v = NodeId::new(v);
                assert_eq!(b.row(v, &mut buf), &want[..], "group {group}, row {v}");
                // The neighbor visit reaches every bit of the row and
                // none outside it, and stops at the first accepted one.
                let mut seen = vec![0u64; want.len()];
                let mut visits = 0;
                assert!(!b.any_neighbor(v, |u| {
                    seen[u.index() / 64] |= 1 << (u.index() % 64);
                    visits += 1;
                    false
                }));
                assert_eq!(seen, *want, "group {group}, row {v}: visited");
                visits = 0;
                let found = b.any_neighbor(v, |_| {
                    visits += 1;
                    true
                });
                assert_eq!(found, b.degree(v) > 0, "group {group}, row {v}");
                assert_eq!(visits, usize::from(found), "group {group}, row {v}");
                for u in 0..n {
                    let bit = want[u / 64] >> (u % 64) & 1 == 1;
                    assert_eq!(b.has_edge(v, NodeId::new(u)), bit, "group {group}, {v}–{u}");
                }
            }
            // The same rows stored as one list per node compare equal and
            // hash the same. (Rows hold nodes through a target and a
            // range at once and are not symmetric, so no greedy runs on
            // them.)
            let flat_targets: Vec<u32> = reference
                .iter()
                .flat_map(|row| {
                    (0..n as u32).filter(|&u| row[u as usize / 64] >> (u % 64) & 1 == 1)
                })
                .collect();
            let flat = BitsetGraph::from_groups(
                n,
                1,
                flat_targets,
                b.offsets.clone(),
                Vec::new(),
                vec![0; n + 1],
                b.offsets.clone(),
            );
            assert_eq!(b, flat, "group {group}");
            assert_eq!(b.fingerprint(), flat.fingerprint(), "group {group}");
        }
    }

    #[test]
    fn or_rows_is_the_union_of_the_stamped_rows() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        // Groups of 64 and more split into two chunks; 70 and 130 also
        // move targets across words, so a chunk's colors spill over.
        for group in [1usize, 3, 63, 64, 70, 130] {
            let groups = 3;
            let n = group * groups;
            let (mut targets, mut target_offsets) = (Vec::new(), vec![0u32]);
            let (mut ranges, mut range_offsets) = (Vec::new(), vec![0u32]);
            for i in 0..groups {
                // A group's own block with its hole at the row's node,
                // and the next block without a hole.
                let lo = (i * group) as u32;
                ranges.push(FixedRange::new(lo, lo + group as u32, Some(lo)));
                let other = (((i + 1) % groups) * group) as u32;
                ranges.push(FixedRange::new(other, other + group as u32, None));
                for t in 0..(n - (group - 1)) as u32 {
                    if t != lo && rng.gen_bool(0.2) {
                        targets.push(t);
                    }
                }
                target_offsets.push(targets.len() as u32);
                range_offsets.push(ranges.len() as u32);
            }
            let b = BitsetGraph {
                n,
                words: n.div_ceil(64),
                group,
                targets,
                target_offsets,
                ranges,
                range_offsets,
                offsets: vec![0; n + 1],
            };
            let mut buf = Vec::new();
            for keep_pct in [2, 30, 100] {
                let rows: Vec<NodeId> =
                    (0..n).filter(|_| rng.gen_range(0..100) < keep_pct).map(NodeId::new).collect();
                // Into a mask holding one row already, as a ball's level
                // mask holds its earlier rows.
                let mut want = vec![0u64; b.words];
                want[0] = 0b1011;
                let mut mask = want.clone();
                for &v in &rows {
                    for (w, &r) in want.iter_mut().zip(b.row(v, &mut buf)) {
                        *w |= r;
                    }
                }
                b.or_rows(&rows, &mut mask);
                assert_eq!(mask, want, "group {group}, keep {keep_pct}%");
            }
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
