//! Luby's randomized LOCAL MIS as a MaxIS oracle.
//!
//! Any maximal independent set is a `(Δ+1)`-approximation of the
//! maximum, so the `O(log n)`-round randomized algorithm from
//! `pslocal-local` doubles as a legitimate (if weak) oracle for the
//! Theorem 1.1 reduction — and, importantly for the paper's narrative,
//! it is the *distributed* oracle: plugging it in makes the whole
//! reduction run on the LOCAL simulator.
//!
//! As in the LOCAL model, where every node draws its own coins, the
//! centralized fast path reads nothing of the graph beyond each
//! component for its randomness: a component's stream is seeded from its
//! degree sequence in `O(n)`, not from an `O(|E|)` hash of the whole
//! adjacency. One kernel reads both representations of a phase graph
//! behind a small private trait, so the oracle reports
//! [`MaxIsOracle::supports_dense`] and the reduction drivers build a
//! dense `G_k` for it once, on bit rows: there the components grow by
//! OR-ing each level's rows into a mask, and the rounds visit a row's
//! neighbors from its slot list and fixed ranges
//! ([`BitsetGraph::any_neighbor`]).

use crate::oracle::{ApproxGuarantee, MaxIsOracle};
use pslocal_graph::algo::traversal::{component_vertex_sets, component_vertex_sets_dense};
use pslocal_graph::fingerprint::degree_fingerprint;
use pslocal_graph::{BitsetGraph, BitsetScratch, Graph, IndependentSet, NodeId};
use pslocal_local::algorithms::LubyMis;
use pslocal_local::{Engine, Network};
use rand::{Rng, SeedableRng};

/// MIS-as-approximation oracle backed by the LOCAL-model Luby
/// algorithm.
///
/// The centralized fast path ([`MaxIsOracle::independent_set`]) is
/// *component-local*: each connected component is solved in place with
/// its own RNG stream, seeded by `seed ^` the [`degree_fingerprint`] of
/// the component's members' degrees in ascending id order. A component
/// is closed under adjacency, so those are its induced degrees, and a
/// monotone renumbering changes neither the order in which its members
/// draw nor the `(priority, id)` tie-break. So solving the whole graph
/// at once and solving its components separately, as renumbered copies
/// (as the component-parallel phase executor does), produce the
/// identical set — Luby is thread-invariant like every other oracle.
///
/// # Examples
///
/// ```
/// use pslocal_graph::generators::classic::cycle;
/// use pslocal_maxis::{LubyOracle, MaxIsOracle};
///
/// let g = cycle(15);
/// let is = LubyOracle::new(7).independent_set(&g);
/// assert!(g.is_maximal_independent_set(is.vertices()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LubyOracle {
    seed: u64,
}

/// What a Luby run reads of the graph: its components, its degrees and
/// its rows, and the check of the set it returns.
trait LubyRows {
    fn node_count(&self) -> usize;

    fn degree(&self, v: NodeId) -> usize;

    /// The connected components, ordered by smallest member, each in
    /// ascending vertex order.
    fn components(&self) -> Vec<Vec<NodeId>>;

    /// Whether `f` holds for some neighbor of `v`, visiting the
    /// neighbors in any order until it does.
    fn any_neighbor(&self, v: NodeId, f: impl FnMut(NodeId) -> bool) -> bool;

    /// The joined vertices as a verified set. Invariant, not a fallible
    /// path: joiners are strict local maxima and exclude their entire
    /// neighborhoods.
    fn verified(&self, members: Vec<NodeId>) -> IndependentSet;
}

/// CSR rows.
impl LubyRows for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    fn components(&self) -> Vec<Vec<NodeId>> {
        component_vertex_sets(self)
    }

    fn any_neighbor(&self, v: NodeId, f: impl FnMut(NodeId) -> bool) -> bool {
        self.neighbors(v).iter().copied().any(f)
    }

    fn verified(&self, members: Vec<NodeId>) -> IndependentSet {
        // pslocal: allow(panic-path, "invariant stated above: joiners are strict local maxima excluding their neighborhoods")
        IndependentSet::new(self, members).expect("Luby returns an independent set")
    }
}

/// Bit rows: components grown by OR-ing each level's rows, and
/// neighbors read from each row's slot list and fixed ranges.
impl LubyRows for BitsetGraph {
    fn node_count(&self) -> usize {
        BitsetGraph::node_count(self)
    }

    fn degree(&self, v: NodeId) -> usize {
        BitsetGraph::degree(self, v)
    }

    fn components(&self) -> Vec<Vec<NodeId>> {
        component_vertex_sets_dense(self)
    }

    fn any_neighbor(&self, v: NodeId, f: impl FnMut(NodeId) -> bool) -> bool {
        BitsetGraph::any_neighbor(self, v, f)
    }

    /// The word-parallel checker stands in for `IndependentSet::new`'s
    /// CSR check before the unchecked constructor takes ownership.
    fn verified(&self, members: Vec<NodeId>) -> IndependentSet {
        if let Some((u, v)) = self.is_independent_set(&members) {
            // pslocal: allow(panic-path, "invariant stated above: joiners are strict local maxima excluding their neighborhoods")
            panic!("Luby output is not independent: {u:?} conflicts with {v:?}");
        }
        IndependentSet::new_unchecked(members)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Undecided,
    In,
    Out,
}

impl LubyOracle {
    /// Creates the oracle with the given randomness seed.
    pub fn new(seed: u64) -> Self {
        LubyOracle { seed }
    }

    /// Centralized Luby, component by component, in place on the
    /// graph's rows.
    ///
    /// Direct execution of the same per-round rule as the LOCAL version
    /// (draw priorities; strict local maxima join, their neighborhoods
    /// drop out) without cloning the graph into a simulated network or
    /// exchanging messages. Each round costs O(Σ residual degree). The
    /// round-reporting path keeps the simulator, which is the object
    /// experiment F3 measures.
    ///
    /// A component's undecided members draw their priorities in
    /// ascending id order from the component's own stream, so the set
    /// is a function of the component alone, never of the ambient graph
    /// it sits in.
    fn solve(&self, rows: &impl LubyRows) -> IndependentSet {
        let n = rows.node_count();
        let mut state = vec![State::Undecided; n];
        let mut priority = vec![0u64; n];
        let mut undecided: Vec<NodeId> = Vec::new();
        let mut joined: Vec<NodeId> = Vec::new();
        let mut picked: Vec<NodeId> = Vec::new();
        for component in rows.components() {
            let degrees = component.iter().map(|&v| rows.degree(v));
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(self.seed ^ degree_fingerprint(degrees));
            undecided.clone_from(&component);
            while !undecided.is_empty() {
                for &v in &undecided {
                    priority[v.index()] = rng.gen();
                }
                joined.clear();
                for &v in &undecided {
                    let pv = (priority[v.index()], v);
                    // (priority, id) is a total order, so adjacent
                    // undecided vertices can never both win their
                    // neighborhoods. `u` is never `v`: rows hold no loops.
                    let beaten = rows.any_neighbor(v, |u| {
                        state[u.index()] == State::Undecided && (priority[u.index()], u) > pv
                    });
                    if !beaten {
                        joined.push(v);
                    }
                }
                for &v in &joined {
                    state[v.index()] = State::In;
                    // Never satisfied, so every neighbor is visited.
                    rows.any_neighbor(v, |u| {
                        if state[u.index()] == State::Undecided {
                            state[u.index()] = State::Out;
                        }
                        false
                    });
                }
                undecided.retain(|&v| state[v.index()] == State::Undecided);
            }
            picked.extend(component.iter().filter(|&&v| state[v.index()] == State::In));
        }
        rows.verified(picked)
    }
}

impl Default for LubyOracle {
    fn default() -> Self {
        LubyOracle::new(0xC0FFEE)
    }
}

impl MaxIsOracle for LubyOracle {
    fn name(&self) -> &'static str {
        "luby-local-mis"
    }

    /// Solves each connected component in place, with a stream seeded
    /// from its degrees, so the answer does not depend on whether
    /// components are fed to the oracle together or separately (thread
    /// invariance; see the type-level docs).
    fn independent_set(&self, graph: &Graph) -> IndependentSet {
        self.solve(graph)
    }

    fn supports_dense(&self) -> bool {
        true
    }

    /// The set [`independent_set`](MaxIsOracle::independent_set)
    /// returns on the CSR form: the same components, seeds and rounds,
    /// read from bit rows.
    fn independent_set_dense(&self, bits: &BitsetGraph, _: &mut BitsetScratch) -> IndependentSet {
        self.solve(bits)
    }

    fn lambda_for_dense(&self, bits: &BitsetGraph) -> Option<f64> {
        Some(bits.max_degree() as f64 + 1.0)
    }

    /// Runs the oracle on the LOCAL simulator and reports the round
    /// count — the quantity experiment F3 plots.
    fn independent_set_with_rounds(&self, graph: &Graph) -> (IndependentSet, usize) {
        let network = Network::with_identity_ids(graph.clone());
        let exec = Engine::new(&network)
            .seed(self.seed)
            .max_rounds(4096)
            .run(&LubyMis)
            // Invariant, not a fallible path: Luby terminates in
            // O(log n) rounds w.h.p.; 4096 rounds would require an
            // astronomically unlucky seed on any graph the simulator
            // can hold in memory.
            // pslocal: allow(panic-path, "rationale above: O(log n) rounds w.h.p. makes 4096 rounds unreachable for any in-memory instance")
            .expect("Luby terminates within the generous budget");
        let members = LubyMis::members(&exec.states);
        // Invariant: LubyMis's own verifier guarantees membership forms
        // an independent set of the network graph.
        // pslocal: allow(panic-path, "invariant stated above: LubyMis's own verifier guarantees an independent membership set")
        let set = IndependentSet::new(graph, members).expect("Luby returns an independent set");
        (set, exec.trace.rounds)
    }

    fn guarantee(&self) -> ApproxGuarantee {
        ApproxGuarantee::MaxDegreePlusOne
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactOracle;
    use pslocal_graph::csr;
    use pslocal_graph::generators::classic::{complete, grid};
    use pslocal_graph::generators::random::gnp;
    use rand::SeedableRng;

    #[test]
    fn output_is_maximal_independent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for seed in 0..4 {
            let g = gnp(&mut rng, 60, 0.1);
            let is = LubyOracle::new(seed).independent_set(&g);
            assert!(g.is_maximal_independent_set(is.vertices()));
        }
    }

    #[test]
    fn guarantee_holds_against_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let g = gnp(&mut rng, 30, 0.2);
        let alpha = ExactOracle.independence_number(&g);
        let luby = LubyOracle::default().independent_set(&g).len();
        let lambda = g.max_degree() as f64 + 1.0;
        assert!(luby as f64 >= alpha as f64 / lambda);
    }

    #[test]
    fn rounds_are_reported() {
        let g = grid(8, 8);
        let (is, rounds) = LubyOracle::new(1).independent_set_with_rounds(&g);
        assert!(!is.is_empty());
        assert!(rounds >= 1);
        assert!(rounds <= 60, "rounds = {rounds}");
    }

    #[test]
    fn clique_yields_singleton() {
        let g = complete(10);
        assert_eq!(LubyOracle::new(3).independent_set(&g).len(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid(5, 5);
        let a = LubyOracle::new(42).independent_set(&g);
        let b = LubyOracle::new(42).independent_set(&g);
        assert_eq!(a, b);
    }

    /// The property the component-parallel phase executor relies on:
    /// solving the whole graph at once equals the union of solving each
    /// connected component separately (under the executor's canonical
    /// renumbering).
    #[test]
    fn whole_graph_equals_per_component_union() {
        use pslocal_graph::GraphBuilder;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for trial in 0..6 {
            // Disjoint union of three random blocks (some of which may
            // themselves be disconnected).
            let blocks = [gnp(&mut rng, 18, 0.15), gnp(&mut rng, 25, 0.1), gnp(&mut rng, 9, 0.3)];
            let n: usize = blocks.iter().map(|g| g.node_count()).sum();
            let mut b = GraphBuilder::new(n);
            let mut base = 0;
            for g in &blocks {
                for (u, v) in g.edges() {
                    b.add_edge(NodeId::new(base + u.index()), NodeId::new(base + v.index()));
                }
                base += g.node_count();
            }
            let whole = b.build();
            let oracle = LubyOracle::new(trial);
            let at_once = oracle.independent_set(&whole);
            let mut union: Vec<NodeId> = Vec::new();
            for comp in component_vertex_sets(&whole) {
                let sub = csr::induced_sorted(&whole, &comp);
                union.extend(
                    oracle.independent_set(&sub).vertices().iter().map(|v| comp[v.index()]),
                );
            }
            union.sort_unstable();
            assert_eq!(at_once.vertices(), &union[..], "trial {trial}");
        }
    }
}
