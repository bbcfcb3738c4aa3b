//! The conflict graph `G_k` of conflict-free `k`-coloring a hypergraph
//! `H` — the central construction of the paper (Section 2).
//!
//! > *The vertex set `V(G_k)` consists of all triples `(e, v, c)`,
//! > `e ∈ E(H)`, `v ∈ e`, `1 ≤ c ≤ k`.*
//!
//! The edge set is the union of three families (quoted from the paper,
//! with colors 0-based here):
//!
//! * `E_vertex` — `{(e,v,c), (g,v,d)}` for `c ≠ d`: a vertex may commit
//!   to at most one color;
//! * `E_edge` — `{(e,v,c), (e,u,d)}`: a hyperedge may nominate at most
//!   one unique-color witness;
//! * `E_color` — `{(e,v,c), (g,u,c)}` for **distinct** `u ≠ v` with
//!   `{u,v} ⊆ e` or `{u,v} ⊆ g`: a nominated witness's color must
//!   actually be unique within its edge. Since `v ∈ e` and `u ∈ g`
//!   always hold, the condition is equivalent to `u ∈ e` or `v ∈ g`.
//!
//!   *Faithfulness note*: the paper's set-builder does not write
//!   `u ≠ v` explicitly, and with `u = v` the condition `{u,v} ⊆ e`
//!   degenerates to the trivially-true `{v} ⊆ e`, which would make
//!   `(e,v,c)` and `(g,v,c)` adjacent and falsify Lemma 2.1 a) whenever
//!   one vertex is the unique-color witness of two hyperedges. The
//!   lemma's own proof (case `h ∈ E_color`) derives its contradiction
//!   from `u ∈ e, u ≠ v`, so distinct vertices are clearly intended;
//!   this implementation follows the proof.
//!
//! [`ConflictGraph`] materializes `G_k` as a
//! [`Graph`] with a dense triple indexing
//! (`O(1)`/`O(log |e|)` conversions both ways), retains the source
//! hypergraph, and reports the per-family edge counts that experiment
//! T1 tabulates.
//!
//! # Construction kernel
//!
//! The default builder is **output-sensitive**: instead of testing the
//! family predicates over pairs of triples, it streams each triple
//! node's neighbor row directly from hypergraph structure — the row of
//! `(e, v, c)` decomposes by the other endpoint's hyperedge block, and
//! every block's contribution is closed-form (the `E_edge` clique for
//! `e` itself, a position sweep for blocks containing `v`, the `e ∩ g`
//! wedge positions otherwise). Rows come out sorted, in node order, so
//! one pass writes the CSR directly: total work `O(|E(G_k)| + W)`
//! with `W = Σ_v deg(v)²` the wedge count, and nothing is ever sorted,
//! deduplicated, or post-processed. The `k` rows of one `(e, v)` slot
//! differ only in their color, so each slot is merged once and its `k`
//! rows are derived from that merge. [`ConflictGraph::build_reference`]
//! keeps the predicate-driven all-pairs builder alive as the
//! machine-checkable specification the equivalence property tests
//! compare every kernel against.

use pslocal_graph::{
    csr, BitsetGraph, Graph, HyperedgeId, Hypergraph, IndependentSet, KernelStrategy, NodeId,
};
use pslocal_telemetry::{names, Counter, Instrument, Sink, Telemetry};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// A triple `(e, v, c)`: hyperedge, member vertex, 0-based color index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Triple {
    /// The hyperedge.
    pub edge: HyperedgeId,
    /// A vertex of that hyperedge.
    pub vertex: NodeId,
    /// A color index in `0..k`.
    pub color: usize,
}

/// Per-family edge counts of a conflict graph.
///
/// The families overlap (e.g. `{(e,v,c),(e,v,d)}` lies in both
/// `E_vertex` and `E_edge`), so the family counts may sum to more than
/// [`ConflictGraph::edge_count`], which counts the *union*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FamilyCounts {
    /// Edges satisfying the `E_vertex` predicate.
    pub vertex_family: usize,
    /// Edges satisfying the `E_edge` predicate.
    pub edge_family: usize,
    /// Edges satisfying the `E_color` predicate.
    pub color_family: usize,
}

/// Construction options for [`ConflictGraph`] — used by ablation
/// experiments and the builder-equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConflictGraphOptions {
    /// Read the paper's `E_color` set-builder **literally**, i.e. allow
    /// `u = v` (which makes `(e,v,c)` and `(g,v,c)` adjacent for any
    /// two hyperedges containing `v`). This falsifies Lemma 2.1 a)
    /// whenever one vertex witnesses two edges — the ablation
    /// experiment A2 measures exactly how often. The default (`false`)
    /// follows the lemma's proof and requires `u ≠ v`.
    pub literal_ecolor: bool,
    /// Which adjacency representation the graph is built on: `Auto`
    /// (default) takes the dense bit-row route when the density
    /// heuristic says flat words beat CSR pointer chasing, `Csr` and
    /// `Bitset` force a route. The reduction drivers resolve `Auto` to
    /// `Csr` before the first build unless the primary oracle reads bit
    /// rows ([`MaxIsOracle::supports_dense`]). Restriction rebuilds
    /// with the same options, so a forced route stays and `Auto`
    /// re-resolves on every residual. Every route yields identical
    /// phase outputs — the bitset equivalence suite proves it.
    ///
    /// [`MaxIsOracle::supports_dense`]: pslocal_maxis::MaxIsOracle::supports_dense
    pub kernel: KernelStrategy,
}

impl ConflictGraphOptions {
    /// Options selecting the paper-literal `E_color` reading with the
    /// default (auto) kernel.
    pub fn literal() -> Self {
        ConflictGraphOptions { literal_ecolor: true, ..Self::default() }
    }

    /// Options selecting an adjacency kernel (dense bitset vs CSR) with
    /// the proof-faithful `E_color` reading.
    pub fn with_kernel(kernel: KernelStrategy) -> Self {
        ConflictGraphOptions { kernel, ..Self::default() }
    }
}

/// The conflict graph `G_k` of conflict-free `k`-coloring `H`.
///
/// # Examples
///
/// ```
/// use pslocal_core::ConflictGraph;
/// use pslocal_graph::Hypergraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = Hypergraph::from_edges(3, [vec![0, 1], vec![1, 2]])?;
/// let cg = ConflictGraph::build(&h, 2);
/// // |V(G_k)| = k · Σ|e| = 2 · 4.
/// assert_eq!(cg.graph().node_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    /// The CSR form. On the dense route this is **lazily** materialized
    /// on first [`ConflictGraph::graph`] access — the dense greedy
    /// phase (its λ, oracle, verifier, commit and restriction) never
    /// needs the `u32` adjacency, so pure dense runs skip it entirely.
    graph: OnceLock<Graph>,
    /// The dense bit-row form; `Some` exactly when the configured
    /// [`KernelStrategy`] resolved to the bitset route.
    bits: Option<BitsetGraph>,
    node_count: usize,
    edge_count: usize,
    hypergraph: Hypergraph,
    k: usize,
    options: ConflictGraphOptions,
    /// `base[e]` = first triple index of hyperedge `e`'s block; triples
    /// of `e` occupy `base[e] + pos(v in e)·k + c`.
    base: Vec<u32>,
}

impl ConflictGraph {
    /// Builds `G_k` for `h` with the proof-faithful `E_color` reading.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, or with `conflict graph too large` if `G_k`
    /// overflows the `u32` node ids or CSR offsets (more than `u32::MAX`
    /// nodes or row entries).
    pub fn build(h: &Hypergraph, k: usize) -> Self {
        Self::build_with_options(h, k, ConflictGraphOptions::default())
    }

    /// Builds `G_k` with explicit [`ConflictGraphOptions`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, or with `conflict graph too large` if `G_k`
    /// overflows the `u32` node ids or CSR offsets (more than `u32::MAX`
    /// nodes or row entries), or if a forced bit-row route meets more
    /// than [`BITSET_MAX_NODES`](pslocal_graph::bitset::BITSET_MAX_NODES) nodes.
    pub fn build_with_options(h: &Hypergraph, k: usize, options: ConflictGraphOptions) -> Self {
        or_panic(Self::build_traced(h, k, options, &Telemetry::disabled()))
    }

    /// Builds `G_k` under a telemetry pipeline: a `conflict-graph` span
    /// wraps the construction, the kernel pass gets a child span named
    /// after the kernel that ran (`csr` or `bitset`) with a
    /// `shard_build_ns` sample, and the finished graph's CSR byte
    /// footprint is attributed as `csr_bytes`. With a disabled
    /// pipeline this is exactly [`ConflictGraph::build_with_options`] —
    /// static dispatch to the null sink erases every emission site.
    ///
    /// # Errors
    ///
    /// [`TooLarge`] if `G_k` overflows the `u32` node ids or CSR
    /// offsets (more than `u32::MAX` nodes or row entries), or if a
    /// forced bit-row route meets more than
    /// [`BITSET_MAX_NODES`](pslocal_graph::bitset::BITSET_MAX_NODES)
    /// nodes. Each check runs before the arrays it guards are
    /// allocated, and `Auto` never takes bit rows past that bound.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn build_traced<S: Sink>(
        h: &Hypergraph,
        k: usize,
        options: ConflictGraphOptions,
        parent: &impl Instrument<S>,
    ) -> Result<Self, TooLarge> {
        assert!(k >= 1, "palette size k must be positive");
        let span = parent.span(names::CONFLICT_GRAPH);
        let base = block_bases(h, k)?;
        let node_count = base[h.edge_count()] as usize;
        // The kernel resolution runs on a cheap edge estimate — the
        // exact count exists only after the build.
        let dense = options.kernel.use_bitset(node_count, kernel::estimated_edges(h, k));
        let (edge_count, graph, bits) = if dense {
            let bits = kernel::build_bitset(h, k, options, &base, &span)?;
            (bits.edge_count(), OnceLock::new(), Some(bits))
        } else {
            let graph = kernel::build_csr(h, k, options, &base, &span)?;
            (graph.edge_count(), OnceLock::from(graph), None)
        };
        let cg = ConflictGraph {
            graph,
            bits,
            node_count,
            edge_count,
            hypergraph: h.clone(),
            k,
            options,
            base,
        };
        span.add(Counter::CsrBytes, cg.csr_bytes());
        Ok(cg)
    }

    /// Builds `G_k` with the predicate-driven all-pairs reference: every
    /// pair of triples is tested against the three family predicates
    /// verbatim. This is the executable form of the paper's set-builder
    /// definitions and the ground truth the equivalence property suites
    /// compare every kernel against — `Θ((Σ|e|·k)²)`, far too slow for
    /// real instances. The result is CSR-resident whichever kernel
    /// `options` names.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, or with `conflict graph too large` if `G_k`
    /// has more than `u32::MAX` nodes.
    pub fn build_reference(h: &Hypergraph, k: usize, options: ConflictGraphOptions) -> Self {
        assert!(k >= 1, "palette size k must be positive");
        let base = or_panic(block_bases(h, k));
        let node_count = base[h.edge_count()] as usize;
        let mut triples = Vec::with_capacity(node_count);
        for e in h.edge_ids() {
            for &v in h.edge(e) {
                for c in 0..k {
                    triples.push((e, v, c));
                }
            }
        }
        let mut pairs = Vec::new();
        for i in 0..node_count {
            let (e, v, c) = triples[i];
            for (j, &(g, u, d)) in triples.iter().enumerate().skip(i + 1) {
                let vertex_family = v == u && c != d;
                let edge_family = e == g;
                let color_family = c == d
                    && (options.literal_ecolor || v != u)
                    && (h.edge_contains(e, u) || h.edge_contains(g, v));
                if vertex_family || edge_family || color_family {
                    pairs.push((NodeId::new(i), NodeId::new(j)));
                }
            }
        }
        let graph = csr::from_pairs(node_count, pairs);
        ConflictGraph {
            node_count,
            edge_count: graph.edge_count(),
            graph: OnceLock::from(graph),
            bits: None,
            hypergraph: h.clone(),
            k,
            options,
            base,
        }
    }

    /// The conflict graph of the residual hypergraph obtained by keeping
    /// only the hyperedges `keep` (ids of **this** graph's hypergraph,
    /// strictly increasing) — the restriction step of the Theorem 1.1
    /// reduction pipeline.
    ///
    /// `G_k(H_i)` is rebuilt from the restricted hypergraph by the
    /// construction kernel, under no span, with this graph's options:
    /// a forced route stays, and `Auto` re-resolves on the residual.
    /// Removing hyperedges removes their triple blocks and cannot
    /// create new conflicts (every family predicate depends only on the
    /// two triples' own hyperedges), so the result is the induced
    /// subgraph of `G_k(H)` on the surviving blocks, which the
    /// equivalence property suite verifies.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not strictly increasing or contains an
    /// out-of-range hyperedge.
    pub fn restrict_to_edges(&self, keep: &[HyperedgeId]) -> Self {
        assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep set must be strictly increasing");
        let (hypergraph, _) = self.hypergraph.restrict_edges(keep);
        Self::build_with_options(&hypergraph, self.k, self.options)
    }

    /// The options the graph was built with.
    #[inline]
    pub fn options(&self) -> ConflictGraphOptions {
        self.options
    }

    /// The first triple node of hyperedge `e`'s block (the block spans
    /// `block_start(e) .. block_start(e) + |e|·k` contiguously).
    ///
    /// Because every block is an `E_edge` clique, a block never splits
    /// across connected components of `G_k`; the component of
    /// `block_start(e)` is therefore *the* component owning hyperedge
    /// `e` — the fact the component-parallel executor
    /// ([`crate::components`]) uses to apply the Lemma 2.1 delivery
    /// quota per component.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn block_start(&self, e: HyperedgeId) -> NodeId {
        NodeId::new(self.base[e.index()] as usize)
    }

    /// The simple graph `G_k` in CSR form.
    ///
    /// On the dense route the CSR is materialized **lazily** on first
    /// access (the CSR kernel run over the retained hypergraph, under
    /// no span) and cached; the bytes are identical to an eager build,
    /// as both kernels emit the same graph. The drivers count this
    /// second build of `G_k` as `lazy_csr_builds`: on a dense phase
    /// only the component executor and oracles without a dense kernel
    /// ask for it, and `Auto` gives a primary of that kind the CSR
    /// route.
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| {
            let tel = Telemetry::disabled();
            let span = tel.span(names::CONFLICT_GRAPH);
            // Only bit rows build their CSR lazily, and they hold at most
            // `BITSET_MAX_NODES` nodes: fewer than 2^30 row entries.
            or_panic(kernel::build_csr(&self.hypergraph, self.k, self.options, &self.base, &span))
        })
    }

    /// The dense bit-row form of `G_k`, when the configured
    /// [`KernelStrategy`] resolved to the bitset route.
    #[inline]
    pub fn bitset(&self) -> Option<&BitsetGraph> {
        self.bits.as_ref()
    }

    /// Whether this bitset-resident graph has built its CSR form too,
    /// through [`graph`](Self::graph). Always `false` on the CSR route,
    /// where the CSR is the resident form.
    pub(crate) fn built_lazy_csr(&self) -> bool {
        self.bits.is_some() && self.graph.get().is_some()
    }

    /// The source hypergraph.
    #[inline]
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// The palette size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of conflict-graph vertices `k·Σ|e|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total number of edges of `G_k` (union of the three families).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The structural fingerprint of `G_k` — exactly
    /// [`Graph::fingerprint`] of the CSR form, computed from the bit
    /// rows in dense mode (same value by construction), so journaling
    /// and oracle memoization never force a CSR materialization.
    ///
    /// On the CSR route this is the graph's memoized value: the first
    /// call hashes `G_k`, and later calls reuse it. The dense route
    /// hashes the bit rows on every call. Only the journal and the
    /// oracle cache read it.
    pub fn fingerprint(&self) -> u64 {
        match &self.bits {
            Some(bits) => bits.fingerprint(),
            None => self.graph().fingerprint(),
        }
    }

    /// Re-validates a claimed independent set against `G_k` (range
    /// check plus full adjacency re-check) on whichever representation
    /// is resident — the resilient driver's acceptance check and the
    /// oracle cache's fingerprint-collision check.
    pub fn verify_independent(&self, set: &IndependentSet) -> bool {
        if let Some(bits) = &self.bits {
            return bits.is_independent_set(set.vertices()).is_none();
        }
        let g = self.graph();
        let n = g.node_count();
        set.vertices().iter().all(|v| v.index() < n) && g.is_independent_set(set.vertices())
    }

    /// The byte footprint of the phase graph's CSR form (`u32` offsets,
    /// one per node plus the sentinel, and both directions of every
    /// edge) — the quantity the `csr_bytes` telemetry counter reports.
    /// Computed from the counts, so the dense route reports the same
    /// figure without materializing the CSR.
    pub fn csr_bytes(&self) -> u64 {
        4 * (self.node_count as u64 + 1 + 2 * self.edge_count as u64)
    }

    /// The conflict-graph node for `(e, v, c)`, or `None` if `v ∉ e` or
    /// `c ≥ k`.
    pub fn node_for(&self, e: HyperedgeId, v: NodeId, c: usize) -> Option<NodeId> {
        if c >= self.k || e.index() >= self.hypergraph.edge_count() {
            return None;
        }
        let pos = self.hypergraph.edge(e).binary_search(&v).ok()?;
        Some(NodeId::new(self.base[e.index()] as usize + pos * self.k + c))
    }

    /// The triple a conflict-graph node stands for.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn triple_of(&self, node: NodeId) -> Triple {
        let idx = node.index() as u32;
        // pslocal: allow(panic-path, "base is seeded with 0 at construction and never emptied, so last() always exists")
        assert!(idx < *self.base.last().unwrap(), "node {node} out of range");
        // Find the hyperedge block via binary search on `base`.
        let e = match self.base.binary_search(&idx) {
            Ok(exact) => {
                // `base` can contain repeated values only if some edge
                // had zero triples, which Hypergraph forbids; an exact
                // hit is the start of edge `exact`.
                exact
            }
            Err(insertion) => insertion - 1,
        };
        let offset = (idx - self.base[e]) as usize;
        let pos = offset / self.k;
        let color = offset % self.k;
        let edge = HyperedgeId::new(e);
        Triple { edge, vertex: self.hypergraph.edge(edge)[pos], color }
    }

    /// Whether the pair `{a, b}` satisfies the `E_vertex` predicate.
    pub fn in_vertex_family(&self, a: Triple, b: Triple) -> bool {
        a.vertex == b.vertex && a.color != b.color
    }

    /// Whether the pair `{a, b}` satisfies the `E_edge` predicate.
    pub fn in_edge_family(&self, a: Triple, b: Triple) -> bool {
        a.edge == b.edge
    }

    /// Whether the pair `{a, b}` satisfies the `E_color` predicate
    /// under this graph's options (distinct vertices by default — see
    /// the module-level faithfulness note).
    pub fn in_color_family(&self, a: Triple, b: Triple) -> bool {
        a.color == b.color
            && (self.options.literal_ecolor || a.vertex != b.vertex)
            && (self.hypergraph.edge_contains(a.edge, b.vertex)
                || self.hypergraph.edge_contains(b.edge, a.vertex))
    }

    /// Classifies every edge of the built graph into the (possibly
    /// several) families it belongs to.
    pub fn family_counts(&self) -> FamilyCounts {
        let mut counts = FamilyCounts { vertex_family: 0, edge_family: 0, color_family: 0 };
        for (x, y) in self.graph().edges() {
            let (a, b) = (self.triple_of(x), self.triple_of(y));
            if self.in_vertex_family(a, b) {
                counts.vertex_family += 1;
            }
            if self.in_edge_family(a, b) {
                counts.edge_family += 1;
            }
            if self.in_color_family(a, b) {
                counts.color_family += 1;
            }
        }
        counts
    }

    /// The closed-form vertex count `k · Σ_e |e|`.
    pub fn expected_node_count(h: &Hypergraph, k: usize) -> usize {
        k * h.incidence_size()
    }
}

/// Why [`ConflictGraph::build_traced`] refused a `G_k`: what would
/// overflow, found before the arrays it sizes were allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLarge(String);

impl fmt::Display for TooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conflict graph too large: {}", self.0)
    }
}

impl Error for TooLarge {}

/// The panic of the builders that document one instead of returning
/// [`TooLarge`]; the phase loop calls `build_traced` and gets the error.
fn or_panic<T>(built: Result<T, TooLarge>) -> T {
    // pslocal: allow(panic-path, "documented contract: the untraced and reference builders panic on a graph too large to build; a restriction cannot be, as a subgraph of a graph already built, nor a lazy CSR (bit rows hold at most 2^15 nodes)")
    built.unwrap_or_else(|e| panic!("{e}"))
}

/// The triple-block bases of `G_k(h)`: `base[e]` is the first triple
/// node of hyperedge `e`, and `base[m]` the node count.
///
/// # Errors
///
/// [`TooLarge`] if the node count `k·Σ|e|` does not fit the `u32` node
/// ids.
fn block_bases(h: &Hypergraph, k: usize) -> Result<Vec<u32>, TooLarge> {
    let m = h.edge_count();
    let mut base = vec![0u32; m + 1];
    let mut end = 0usize;
    for e in 0..m {
        end = end.saturating_add(h.edge_size(HyperedgeId::new(e)).saturating_mul(k));
        if end > u32::MAX as usize {
            return Err(TooLarge(format!("k·Σ|e| = {end} triple nodes overflow the u32 node ids")));
        }
        base[e + 1] = end as u32;
    }
    Ok(base)
}

/// The construction kernels behind [`ConflictGraph::build_with_options`].
///
/// The fast kernel writes the CSR **directly, row by row, already
/// sorted** — it never materializes an unordered pair list, so nothing
/// is ever sorted or deduplicated. The key observation: the neighbors
/// of a triple `a = (e, v, c)` decompose by the *other* triple's
/// hyperedge `g`, and within each block the pattern is closed-form:
///
/// * `g == e` — the whole block except `a` itself (`E_edge` clique),
///   two contiguous index ranges;
/// * `g ∋ v` — vertex `v`'s slot in `g` contributes colors `d ≠ c`
///   (`E_vertex`; all `d` under `literal_ecolor`), and every other
///   member slot contributes color `c` (`E_color` via `v ∈ g`) — one
///   ascending sweep over `g`'s positions;
/// * `g ∌ v` — exactly the members of `e ∩ g` contribute color `c`
///   (`E_color` via `u ∈ e`), read off a per-hyperedge *wedge list*
///   (the color-0 nodes of `e`'s members in other blocks, ascending;
///   all `m` lists are built once per kernel run into one flat array).
///
/// Blocks are visited in ascending `g` by merging the (sorted) slot
/// list of `v` with the (sorted) wedge list of `e`, so each row comes
/// out sorted and rows are emitted in node order — one pass writes the
/// finished CSR. Total work is `O(|E(G_k)| + W)` where
/// `W = Σ_v deg(v)²` is the wedge count.
///
/// The `k` rows of one `(e, v)` slot differ only in the row's color
/// `c`, so every pass merges once per slot (`merge_slot`) and derives
/// all `k` rows from that one merge: the CSR kernel's count pass sums
/// their length (`RowLen`) and its emission pass stamps them from a
/// reused row buffer (`RowStamper`); the bitset kernel stores them as
/// one group of bit rows, a list of color-0 targets plus fixed ranges,
/// that readers stamp (`SlotBits`).
mod kernel {
    use super::{ConflictGraphOptions, TooLarge};
    use pslocal_graph::bitset::{BitsetGraph, FixedRange, BITSET_MAX_NODES};
    use pslocal_graph::{csr, Graph, HyperedgeId, Hypergraph, NodeId};
    use pslocal_telemetry::{names, span, Histogram, Sink, Span};
    use std::time::Instant;

    /// Cheap upper estimate of `|E(G_k)|` in `O(Σ|e|)`: the `E_edge`
    /// cliques exactly, plus a per-edge incidence bound on `E_color`
    /// (which also dominates `E_vertex`, whose pairs embed into the
    /// same slot walks).
    pub(super) fn estimated_edges(h: &Hypergraph, k: usize) -> usize {
        let mut est = 0usize;
        for e in h.edge_ids() {
            let members = h.edge(e);
            let block = members.len() * k;
            est += block * (block - 1) / 2;
            let incidence: usize = members.iter().map(|&u| h.edges_of(u).len()).sum();
            est = est.saturating_add(members.len() * incidence * k);
        }
        est
    }

    /// Flat per-vertex incidence slots: for vertex `v`,
    /// `edge[offsets[v]..offsets[v+1]]` lists the hyperedges containing
    /// `v` (ascending, because edges are scattered in id order) and
    /// `pos[..]` the position of `v` inside each — everything triple
    /// emission needs, with no per-slot binary search.
    struct SlotIndex {
        offsets: Vec<u32>,
        edge: Vec<u32>,
        pos: Vec<u32>,
    }

    impl SlotIndex {
        fn build(h: &Hypergraph) -> Self {
            let n = h.node_count();
            let mut offsets = vec![0u32; n + 1];
            for e in h.edge_ids() {
                for &v in h.edge(e) {
                    offsets[v.index() + 1] += 1;
                }
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let total = offsets[n] as usize;
            let mut cursor: Vec<u32> = offsets[..n].to_vec();
            let mut edge = vec![0u32; total];
            let mut pos = vec![0u32; total];
            for e in h.edge_ids() {
                for (p, &v) in h.edge(e).iter().enumerate() {
                    let slot = cursor[v.index()] as usize;
                    cursor[v.index()] += 1;
                    edge[slot] = e.index() as u32;
                    pos[slot] = p as u32;
                }
            }
            SlotIndex { offsets, edge, pos }
        }

        /// The (hyperedge, position) slot arrays of vertex `v`.
        #[inline]
        fn slots(&self, v: usize) -> (&[u32], &[u32]) {
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            (&self.edge[lo..hi], &self.pos[lo..hi])
        }
    }

    /// Every hyperedge's *wedge list* in one flat array, built once per
    /// kernel run and read by every pass. For hyperedge `e`, `of(e)`
    /// holds the color-0 node `base[g] + pos·k` of every slot
    /// `(g, pos)` of `e`'s members with `g ≠ e`, ascending — so the
    /// entries group by block, in block order.
    ///
    /// A singleton edge's list stays empty: its wedges all come from its
    /// one member `v`, and every block they reach contains `v`, so the
    /// merge would skip them all. Every other wedge is a row entry of
    /// `G_k`: the row of each other member `v ∈ e` at any color lists the
    /// wedge's node at that color, as a wedge hit or inside the sweep of
    /// a block containing `v`. So the lists never hold more entries than
    /// `G_k` has row entries, and they are counted and checked before
    /// they are allocated.
    struct WedgeLists {
        offsets: Vec<usize>,
        targets: Vec<u32>,
    }

    impl WedgeLists {
        /// # Errors
        ///
        /// [`TooLarge`] if the lists hold more than `u32::MAX` entries,
        /// since `G_k` then has more row entries than its `u32` offsets
        /// hold.
        fn build(h: &Hypergraph, idx: &SlotIndex, base: &[u32], k: u32) -> Result<Self, TooLarge> {
            let m = h.edge_count();
            let len: usize = h
                .edge_ids()
                .filter(|&e| h.edge_size(e) > 1)
                .flat_map(|e| h.edge(e))
                .map(|u| idx.slots(u.index()).0.len() - 1)
                .sum();
            if len > u32::MAX as usize {
                return Err(TooLarge(format!(
                    "{len} wedges, each a row entry, overflow the u32 CSR offsets"
                )));
            }
            let mut targets = Vec::with_capacity(len);
            let mut offsets = Vec::with_capacity(m + 1);
            offsets.push(0);
            for e in 0..m {
                let start = targets.len();
                let members = h.edge(HyperedgeId::new(e));
                if members.len() > 1 {
                    for &u in members {
                        let (g_edges, g_pos) = idx.slots(u.index());
                        for (&g, &p) in g_edges.iter().zip(g_pos) {
                            if g as usize != e {
                                targets.push(base[g as usize] + p * k);
                            }
                        }
                    }
                }
                targets[start..].sort_unstable();
                offsets.push(targets.len());
            }
            debug_assert_eq!(targets.len(), len);
            Ok(WedgeLists { offsets, targets })
        }

        /// Hyperedge `e`'s wedge list.
        #[inline]
        fn of(&self, e: usize) -> &[u32] {
            &self.targets[self.offsets[e]..self.offsets[e + 1]]
        }
    }

    /// The number of entries of the ascending `wedges` below `bound`.
    #[inline]
    fn count_below(wedges: &[u32], bound: u32) -> usize {
        wedges.iter().take_while(|&&t| t < bound).count()
    }

    /// The output-sensitive kernel: slot-index and wedge-list once, then
    /// stream every block's rows in node order straight into the CSR
    /// arrays, under a `csr` span (child of the build span) that samples
    /// the pass's wall time as `shard_build_ns`. The timing probe is
    /// gated on `S::ENABLED`, so the disabled pipeline never touches the
    /// clock.
    ///
    /// An exact count pass comes first: one [`merge_slot`] per `(e, v)`
    /// slot into a [`RowLen`], since the slot's `k` rows share one
    /// length. It sizes the target array exactly, and it refuses a
    /// graph whose row entries overflow the `u32` offsets before
    /// anything that size is allocated. The emission pass then merges
    /// each slot again into a [`RowStamper`] and stamps the slot's `k`
    /// rows from it. Rows come out sorted and in node order, so the
    /// arrays *are* the finished CSR — nothing is ever sorted,
    /// deduplicated, or post-processed.
    ///
    /// # Errors
    ///
    /// [`TooLarge`] if `G_k` has more than `u32::MAX` row entries
    /// (twice its edge count).
    pub(super) fn build_csr<S: Sink>(
        h: &Hypergraph,
        k: usize,
        options: ConflictGraphOptions,
        base: &[u32],
        parent: &Span<'_, S>,
    ) -> Result<Graph, TooLarge> {
        let pass_span = span!(parent, names::CSR);
        let t0 = S::ENABLED.then(Instant::now);
        let idx = SlotIndex::build(h);
        let kw = k as u32;
        let wedges = WedgeLists::build(h, &idx, base, kw)?;
        let m = h.edge_count();
        let literal = options.literal_ecolor;
        let mut total = 0usize;
        for e in 0..m {
            for (pv, &v) in h.edge(HyperedgeId::new(e)).iter().enumerate() {
                let mut len = RowLen(0);
                let slot = idx.slots(v.index());
                merge_slot(e, pv as u32, kw, literal, base, slot, wedges.of(e), &mut len);
                total += k * len.0;
            }
        }
        if total > u32::MAX as usize {
            return Err(TooLarge(format!("{total} row entries overflow the u32 CSR offsets")));
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(base[m] as usize + 1);
        offsets.push(0);
        let mut targets: Vec<NodeId> = Vec::with_capacity(total);
        let mut stamper = RowStamper::default();
        for e in 0..m {
            for (pv, &v) in h.edge(HyperedgeId::new(e)).iter().enumerate() {
                let slot = idx.slots(v.index());
                merge_slot(e, pv as u32, kw, literal, base, slot, wedges.of(e), &mut stamper);
                stamper.stamp(kw, &mut targets, &mut offsets);
            }
        }
        debug_assert_eq!(targets.len(), total);
        if let Some(t0) = t0 {
            pass_span.sample(Histogram::ShardBuildNs, t0.elapsed().as_nanos() as u64);
        }
        Ok(csr::from_raw_parts(offsets, targets))
    }

    /// Where [`merge_slot`] writes the color-0 row of one `(e, v)` slot,
    /// entry by entry in ascending order.
    ///
    /// Moving the row's color from `c − 1` to `c` changes it in a fixed
    /// way. Every sweep and wedge target `gbase + pu·k + c` goes up by
    /// one: these are the *moving* targets. The *fixed ranges* — the
    /// `E_edge` clique of `e` and `v`'s own slot in every other block
    /// containing it — keep their targets, but each has a *hole* that
    /// moves right by one: the row's own node in the clique, and the
    /// row's color in an own slot (none under `literal_ecolor`, which
    /// keeps all `k` colors). So one merge describes all `k` rows of the
    /// slot: [`RowLen`] counts their common length, [`RowStamper`]
    /// stamps them as CSR rows, [`SlotBits`] keeps them as one group of
    /// bit rows.
    trait SlotRow {
        /// Appends targets that move with the row's color.
        fn moving(&mut self, targets: impl ExactSizeIterator<Item = u32>);

        /// Appends the fixed range `lo..hi`, less `hole` at color 0.
        fn fixed(&mut self, lo: u32, hi: u32, hole: Option<u32>);
    }

    /// Merges the sorted slot list of `v` (at position `pv` in `e`) with
    /// `e`'s wedge list into the color-0 row of slot `(e, v)`, emitting
    /// each neighbor block's closed-form pattern in ascending order (see
    /// the module docs).
    #[allow(clippy::too_many_arguments)]
    fn merge_slot(
        e: usize,
        pv: u32,
        k: u32,
        literal: bool,
        base: &[u32],
        (vg, vp): (&[u32], &[u32]),
        wedges: &[u32],
        out: &mut impl SlotRow,
    ) {
        let mut j = 0usize;
        for (&g, &pos) in vg.iter().zip(vp) {
            let g = g as usize;
            let (gbase, gend) = (base[g], base[g + 1]);
            // Wedges below block g lie in blocks not containing the
            // row's vertex: only the members of e ∩ g' conflict there,
            // at the row's own color.
            let below = j + count_below(&wedges[j..], gbase);
            out.moving(wedges[j..below].iter().copied());
            // Wedges into g are subsumed: v ∈ g satisfies the E_color
            // predicate for *every* member of g.
            j = below + count_below(&wedges[below..], gend);
            if g == e {
                out.fixed(gbase, gend, Some(gbase + pv * k));
            } else {
                let slot = gbase + pos * k;
                out.moving((0..pos).map(|pu| gbase + pu * k));
                out.fixed(slot, slot + k, (!literal).then_some(slot));
                out.moving((pos + 1..(gend - gbase) / k).map(|pu| gbase + pu * k));
            }
        }
        out.moving(wedges[j..].iter().copied());
    }

    /// The length of each of one slot's `k` rows, summed from a
    /// [`merge_slot`] that writes nothing: the exact count pass.
    struct RowLen(usize);

    impl SlotRow for RowLen {
        fn moving(&mut self, targets: impl ExactSizeIterator<Item = u32>) {
            self.0 += targets.len();
        }

        fn fixed(&mut self, lo: u32, hi: u32, hole: Option<u32>) {
            self.0 += (hi - lo) as usize - usize::from(hole.is_some());
        }
    }

    /// The `k` sorted neighbor rows of one `(e, v)` slot, stamped from a
    /// single [`merge_slot`]: it holds the color-0 row, and each further
    /// row is the previous one plus a 0/1 step per entry, minus one at
    /// `hole + c − 1` per hole (the entry just past a hole goes down by
    /// one). The buffer is one row long, so it stays in L1, and each row
    /// leaves it in one `extend_from_slice`.
    #[derive(Default)]
    struct RowStamper {
        /// The row being stamped: color 0 after the merge, color `c`
        /// after the `c`-th advance.
        row: Vec<NodeId>,
        /// Per entry, its change from one color to the next: 1 for a
        /// sweep or wedge target, 0 inside a fixed range.
        step: Vec<u32>,
        /// Per fixed range with a hole, the row index just past the
        /// hole at color 0.
        holes: Vec<usize>,
    }

    impl SlotRow for RowStamper {
        fn moving(&mut self, targets: impl ExactSizeIterator<Item = u32>) {
            self.step.resize(self.step.len() + targets.len(), 1);
            self.row.extend(targets.map(NodeId::from));
        }

        fn fixed(&mut self, lo: u32, hi: u32, hole: Option<u32>) {
            let Some(hole) = hole else {
                self.step.resize(self.step.len() + (hi - lo) as usize, 0);
                self.row.extend((lo..hi).map(NodeId::from));
                return;
            };
            self.fixed(lo, hole, None);
            self.holes.push(self.row.len());
            self.fixed(hole + 1, hi, None);
        }
    }

    impl RowStamper {
        /// Writes the slot's `k` rows to `targets`, color 0 first, and
        /// each row's end to `offsets`, then empties the stamper for the
        /// next slot.
        fn stamp(&mut self, k: u32, targets: &mut Vec<NodeId>, offsets: &mut Vec<u32>) {
            for c in 0..k {
                if c > 0 {
                    self.advance(c);
                }
                targets.extend_from_slice(&self.row);
                offsets.push(targets.len() as u32);
            }
            self.row.clear();
            self.step.clear();
            self.holes.clear();
        }

        /// Moves the row from color `c − 1` to color `c`.
        fn advance(&mut self, c: u32) {
            for (t, &s) in self.row.iter_mut().zip(&self.step) {
                *t = NodeId::from(t.raw() + s);
            }
            for &hole in &self.holes {
                let t = &mut self.row[hole + c as usize - 1];
                *t = NodeId::from(t.raw() - 1);
            }
        }
    }

    /// One slot's group of bit rows, as [`BitsetGraph::from_groups`]
    /// stores it: the moving targets as the ascending list of color-0
    /// targets, which row `c` reads moved up by `c`, and the fixed
    /// ranges as they are. `len` sums the entries, the length of each of
    /// the slot's `k` rows.
    struct SlotBits<'a> {
        targets: &'a mut Vec<u32>,
        ranges: &'a mut Vec<FixedRange>,
        len: u32,
    }

    impl SlotRow for SlotBits<'_> {
        fn moving(&mut self, targets: impl ExactSizeIterator<Item = u32>) {
            self.len += targets.len() as u32;
            self.targets.extend(targets);
        }

        fn fixed(&mut self, lo: u32, hi: u32, hole: Option<u32>) {
            self.len += hi - lo - u32::from(hole.is_some());
            self.ranges.push(FixedRange::new(lo, hi, hole));
        }
    }

    /// The dense-kernel twin of the streamed CSR build: the same
    /// [`merge_slot`] per `(e, v)` slot, kept as one group of `k` bit
    /// rows ([`SlotBits`]) instead of being stamped. The group holds the
    /// slot's moving targets as one list of color-0 targets and its
    /// fixed ranges, so a slot takes one `u32` per moving target, and no
    /// row is written until a consumer stamps it
    /// ([`BitsetGraph::row`]). The result equals `to_bitset()` of the
    /// CSR that [`build_csr`] emits (checked by the bitset equivalence
    /// suite, and in debug builds by `from_groups`' popcount re-check).
    ///
    /// # Errors
    ///
    /// [`TooLarge`] if `G_k` has more than [`BITSET_MAX_NODES`] nodes,
    /// before anything is allocated. `Auto` never routes such a graph
    /// here, so only a forced `Bitset` can reach the check. Under the
    /// bound the half-edge count is below `n²` = 2³⁰, so the `u32` row
    /// offsets cannot overflow.
    pub(super) fn build_bitset<S: Sink>(
        h: &Hypergraph,
        k: usize,
        options: ConflictGraphOptions,
        base: &[u32],
        parent: &Span<'_, S>,
    ) -> Result<BitsetGraph, TooLarge> {
        let m = h.edge_count();
        let n = base[m] as usize;
        if n > BITSET_MAX_NODES {
            return Err(TooLarge(format!(
                "{n} nodes exceed the {BITSET_MAX_NODES}-node bound of the bit rows"
            )));
        }
        let pass_span = span!(parent, names::BITSET);
        let t0 = S::ENABLED.then(Instant::now);
        let idx = SlotIndex::build(h);
        let wedge_lists = WedgeLists::build(h, &idx, base, k as u32)?;
        let slots = n / k;
        let (mut targets, mut ranges) = (Vec::new(), Vec::new());
        let mut target_offsets: Vec<u32> = Vec::with_capacity(slots + 1);
        let mut range_offsets: Vec<u32> = Vec::with_capacity(slots + 1);
        target_offsets.push(0);
        range_offsets.push(0);
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut half_edges = 0u32;
        let (kw, literal) = (k as u32, options.literal_ecolor);
        for e in 0..m {
            let wedges = wedge_lists.of(e);
            for (pv, &v) in h.edge(HyperedgeId::new(e)).iter().enumerate() {
                // Slot (e, v) holds nodes base[e] + pv·k + c, so slots
                // come in group order.
                let mut bits = SlotBits { targets: &mut targets, ranges: &mut ranges, len: 0 };
                let vslots = idx.slots(v.index());
                merge_slot(e, pv as u32, kw, literal, base, vslots, wedges, &mut bits);
                let len = bits.len;
                target_offsets.push(targets.len() as u32);
                range_offsets.push(ranges.len() as u32);
                for _ in 0..k {
                    half_edges += len;
                    offsets.push(half_edges);
                }
            }
        }
        if let Some(t0) = t0 {
            pass_span.sample(Histogram::ShardBuildNs, t0.elapsed().as_nanos() as u64);
        }
        Ok(BitsetGraph::from_groups(n, k, targets, target_offsets, ranges, range_offsets, offsets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use rand::SeedableRng;

    fn small() -> (Hypergraph, ConflictGraph) {
        let h = Hypergraph::from_edges(4, [vec![0, 1, 2], vec![1, 2, 3]]).unwrap();
        let cg = ConflictGraph::build(&h, 2);
        (h, cg)
    }

    #[test]
    fn vertex_count_matches_closed_form() {
        let (h, cg) = small();
        assert_eq!(cg.graph().node_count(), ConflictGraph::expected_node_count(&h, 2));
        assert_eq!(cg.graph().node_count(), 12);
    }

    #[test]
    fn triple_indexing_round_trips() {
        let (h, cg) = small();
        for e in h.edge_ids() {
            for &v in h.edge(e) {
                for c in 0..cg.k() {
                    let node = cg.node_for(e, v, c).expect("valid triple");
                    let t = cg.triple_of(node);
                    assert_eq!(t, Triple { edge: e, vertex: v, color: c });
                }
            }
        }
    }

    #[test]
    fn node_for_rejects_invalid_triples() {
        let (_, cg) = small();
        // vertex 3 is not in edge 0.
        assert_eq!(cg.node_for(HyperedgeId::new(0), NodeId::new(3), 0), None);
        // color out of palette.
        assert_eq!(cg.node_for(HyperedgeId::new(0), NodeId::new(0), 2), None);
        // edge out of range.
        assert_eq!(cg.node_for(HyperedgeId::new(9), NodeId::new(0), 0), None);
    }

    #[test]
    fn every_edge_belongs_to_some_family_and_vice_versa() {
        let (_, cg) = small();
        for (x, y) in cg.graph().edges() {
            let (a, b) = (cg.triple_of(x), cg.triple_of(y));
            assert!(
                cg.in_vertex_family(a, b) || cg.in_edge_family(a, b) || cg.in_color_family(a, b),
                "edge ({a:?}, {b:?}) in no family"
            );
        }
        // Conversely: every pair satisfying a family predicate is an
        // edge of the built graph.
        let n = cg.graph().node_count();
        for i in 0..n {
            for j in (i + 1)..n {
                let (x, y) = (NodeId::new(i), NodeId::new(j));
                let (a, b) = (cg.triple_of(x), cg.triple_of(y));
                let should = cg.in_vertex_family(a, b)
                    || cg.in_edge_family(a, b)
                    || cg.in_color_family(a, b);
                assert_eq!(
                    cg.graph().has_edge(x, y),
                    should,
                    "adjacency mismatch for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn family_counts_are_positive_and_consistent() {
        let (_, cg) = small();
        let counts = cg.family_counts();
        assert!(counts.vertex_family > 0);
        assert!(counts.edge_family > 0);
        assert!(counts.color_family > 0);
        // Union ≤ sum of families (overlap allowed).
        assert!(cg.edge_count() <= counts.vertex_family + counts.edge_family + counts.color_family);
        // Every counted family edge is a real edge, so each family count
        // is at most the union size.
        assert!(counts.vertex_family <= cg.edge_count());
        assert!(counts.edge_family <= cg.edge_count());
        assert!(counts.color_family <= cg.edge_count());
    }

    #[test]
    fn edge_family_makes_blocks_cliques() {
        let (h, cg) = small();
        // All triples of hyperedge 0 must form a clique (E_edge).
        let e = HyperedgeId::new(0);
        let block: Vec<NodeId> = h
            .edge(e)
            .iter()
            .flat_map(|&v| (0..2).map(move |c| (v, c)))
            .map(|(v, c)| cg.node_for(e, v, c).unwrap())
            .collect();
        assert!(pslocal_graph::algo::is_clique(cg.graph(), &block));
        assert_eq!(block.len(), 6);
    }

    #[test]
    fn k1_conflict_graph_has_no_vertex_family() {
        let h = Hypergraph::from_edges(3, [vec![0, 1], vec![1, 2]]).unwrap();
        let cg = ConflictGraph::build(&h, 1);
        let counts = cg.family_counts();
        assert_eq!(counts.vertex_family, 0, "k = 1 leaves no c ≠ d pairs");
        assert!(counts.edge_family > 0);
    }

    #[test]
    fn same_vertex_same_color_different_edges_are_not_adjacent() {
        // (e,v,c) and (g,v,c) with e ≠ g: NOT adjacent (the u ≠ v
        // reading of E_color — otherwise one vertex could never witness
        // two edges and Lemma 2.1 a) would fail; see module docs).
        let h = Hypergraph::from_edges(3, [vec![0, 1], vec![0, 2]]).unwrap();
        let cg = ConflictGraph::build(&h, 2);
        let a = cg.node_for(HyperedgeId::new(0), NodeId::new(0), 0).unwrap();
        let b = cg.node_for(HyperedgeId::new(1), NodeId::new(0), 0).unwrap();
        assert!(!cg.graph().has_edge(a, b));
        let ta = cg.triple_of(a);
        let tb = cg.triple_of(b);
        assert!(!cg.in_color_family(ta, tb));
        assert!(!cg.in_vertex_family(ta, tb));
        // With different colors the same pair IS adjacent via E_vertex.
        let d = cg.node_for(HyperedgeId::new(1), NodeId::new(0), 1).unwrap();
        assert!(cg.graph().has_edge(a, d));
    }

    #[test]
    fn scales_on_planted_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(40, 20, 3));
        let cg = ConflictGraph::build(&inst.hypergraph, 3);
        assert_eq!(
            cg.graph().node_count(),
            ConflictGraph::expected_node_count(&inst.hypergraph, 3)
        );
        // Spot-check the round trip on a sample of nodes.
        for i in (0..cg.graph().node_count()).step_by(7) {
            let t = cg.triple_of(NodeId::new(i));
            assert_eq!(cg.node_for(t.edge, t.vertex, t.color), Some(NodeId::new(i)));
        }
    }

    #[test]
    fn csr_kernel_matches_reference_on_hand_made_hypergraphs() {
        // In the first shape, vertex 0 comes first in each of its three
        // edges and vertex 6 last in each of its five, so a row's own
        // slot sits at either end of the clique and of every sweep.
        // Edge 6 is a singleton, and edge 7 meets every other edge, so
        // its rows merge wedges from every block. The last shape
        // repeats an edge, so every wedge into it is subsumed.
        let shapes: [&[&[usize]]; 3] = [
            &[
                &[0, 1, 2],
                &[0, 3],
                &[0, 4, 5, 6],
                &[1, 6],
                &[2, 3, 6],
                &[4, 6],
                &[7],
                &[1, 2, 3, 4, 5, 6, 7],
            ],
            &[&[0, 1, 2]],
            &[&[0, 1], &[0, 1], &[1, 2]],
        ];
        for edges in shapes {
            let h = Hypergraph::from_edges(8, edges.iter().map(|e| e.to_vec())).unwrap();
            // k = 1 stamps no advance; the others advance 1, 2 and 4
            // times per slot.
            for k in [1, 2, 3, 5] {
                for literal_ecolor in [false, true] {
                    let opts = ConflictGraphOptions { literal_ecolor, kernel: KernelStrategy::Csr };
                    let fast = ConflictGraph::build_with_options(&h, k, opts);
                    let reference = ConflictGraph::build_reference(&h, k, opts);
                    assert_eq!(
                        fast.graph(),
                        reference.graph(),
                        "k = {k}, literal_ecolor = {literal_ecolor}, edges {edges:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_rows_match_csr_for_palettes_wider_than_a_word() {
        // A slot's rows are read by moving its targets up to k − 1
        // nodes: past 64, across whole words as well as bits.
        let h =
            Hypergraph::from_edges(5, [vec![0, 1, 2], vec![1, 3], vec![2, 3, 4], vec![4]]).unwrap();
        for k in [63, 64, 65, 70, 130] {
            for literal_ecolor in [false, true] {
                let opts = |kernel| ConflictGraphOptions { literal_ecolor, kernel };
                let dense = ConflictGraph::build_with_options(&h, k, opts(KernelStrategy::Bitset));
                let csr = ConflictGraph::build_with_options(&h, k, opts(KernelStrategy::Csr));
                let bits = dense.bitset().expect("forced bitset kernel builds bit rows");
                assert_eq!(bits, &csr.graph().to_bitset(), "k = {k}, literal {literal_ecolor}");
            }
        }
    }

    #[test]
    fn restriction_re_resolves_auto() {
        // Eight overlapping 8-vertex edges over 12 vertices, then 3,000
        // disjoint pairs. At k = 8 the whole G_k is past the bit rows'
        // node bound, so Auto builds CSR; its 8-edge core is small and
        // dense, so Auto must take bit rows there.
        let k = 8;
        let core = (0..8).map(|i| (0..8).map(|j| (i + j) % 12).collect::<Vec<usize>>());
        let pairs = (0..3000).map(|p| vec![12 + 2 * p, 13 + 2 * p]);
        let h = Hypergraph::from_edges(6012, core.chain(pairs)).unwrap();
        let whole = ConflictGraph::build(&h, k);
        assert_eq!(whole.node_count(), 48_512);
        assert!(whole.bitset().is_none(), "the whole G_k is CSR-resident");
        let keep: Vec<HyperedgeId> = (0..8).map(HyperedgeId::new).collect();
        let restricted = whole.restrict_to_edges(&keep);
        let bits = restricted.bitset().expect("the restricted core holds bit rows");
        let csr_opts = ConflictGraphOptions::with_kernel(KernelStrategy::Csr);
        let csr = ConflictGraph::build_with_options(&h.restrict_edges(&keep).0, k, csr_opts);
        assert_eq!(bits, &csr.graph().to_bitset());
        assert_eq!(restricted.graph(), csr.graph());
    }

    #[test]
    #[should_panic(expected = "conflict graph too large")]
    fn too_many_row_entries_are_refused_before_allocation() {
        // One hyperedge of 4096 vertices at k = 64: 262,144 nodes in
        // one E_edge clique, so 68,719,214,592 row entries — far past
        // the u32 offsets. The count pass refuses it in microseconds,
        // before the target array is allocated.
        let h = Hypergraph::from_edges(4096, [(0..4096).collect::<Vec<usize>>()]).unwrap();
        let csr = ConflictGraphOptions::with_kernel(KernelStrategy::Csr);
        let _ = ConflictGraph::build_with_options(&h, 64, csr);
    }

    #[test]
    #[should_panic(expected = "conflict graph too large")]
    fn too_many_wedges_are_refused_before_allocation() {
        // A star of 65,537 two-vertex edges around vertex 0: each edge's
        // wedge list holds the hub's 65,536 other slots, 4.3·10^9
        // entries in all, and each is a row entry of its leaf's row. The
        // lists are refused from their count, before 17 GB is allocated.
        let h = Hypergraph::from_edges(65_538, (1..65_538).map(|leaf| vec![0, leaf])).unwrap();
        let _ = ConflictGraph::build(&h, 1);
    }

    #[test]
    #[should_panic(expected = "conflict graph too large")]
    fn too_many_nodes_for_bit_rows_are_refused_before_allocation() {
        // One hyperedge of 4096 vertices at k = 1024: 4,194,304 nodes,
        // whose bit rows would take 2.2 TB. Auto would take CSR here;
        // a forced Bitset is refused from the node count alone.
        let h = Hypergraph::from_edges(4096, [(0..4096).collect::<Vec<usize>>()]).unwrap();
        let bitset = ConflictGraphOptions::with_kernel(KernelStrategy::Bitset);
        let _ = ConflictGraph::build_with_options(&h, 1024, bitset);
    }

    #[test]
    #[should_panic(expected = "conflict graph too large")]
    fn too_many_nodes_are_refused() {
        // k·Σ|e| = 65,536 · 65,537 = 4,295,032,832 > u32::MAX.
        let h = Hypergraph::from_edges(65_537, [(0..65_537).collect::<Vec<usize>>()]).unwrap();
        let _ = ConflictGraph::build(&h, 65_536);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let h = Hypergraph::from_edges(2, [vec![0, 1]]).unwrap();
        let _ = ConflictGraph::build(&h, 0);
    }

    #[test]
    fn literal_ecolor_option_adds_same_vertex_edges() {
        let h = Hypergraph::from_edges(3, [vec![0, 1], vec![0, 2]]).unwrap();
        let strict = ConflictGraph::build(&h, 2);
        let literal = ConflictGraph::build_with_options(&h, 2, ConflictGraphOptions::literal());
        assert!(!strict.options().literal_ecolor);
        assert!(literal.options().literal_ecolor);
        let a = literal.node_for(HyperedgeId::new(0), NodeId::new(0), 0).unwrap();
        let b = literal.node_for(HyperedgeId::new(1), NodeId::new(0), 0).unwrap();
        assert!(literal.graph().has_edge(a, b), "literal reading connects (e,v,c)-(g,v,c)");
        assert!(!strict.graph().has_edge(a, b));
        assert!(literal.edge_count() > strict.edge_count());
        // The predicate agrees with the built adjacency in both modes.
        let (ta, tb) = (literal.triple_of(a), literal.triple_of(b));
        assert!(literal.in_color_family(ta, tb));
        assert!(!strict.in_color_family(ta, tb));
    }
}
