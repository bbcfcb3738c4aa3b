//! Component-parallel phase execution: connected components of the
//! conflict graph, a deterministic scoped-thread executor, and the
//! disjointness-checked independent-set merge.
//!
//! Independent sets compose across connected components: if
//! `G = C_0 ⊎ C_1 ⊎ …` and `I_j` is an independent set of `C_j`, then
//! `⋃_j I_j` is an independent set of `G` (no edge crosses components),
//! and `α(G) = Σ_j α(C_j)`. A λ-approximation obtained per component is
//! therefore a λ-approximation of the whole graph, and Lemma 2.1's
//! delivery bound `|I| ≥ |E_i|/λ` holds per component (each hyperedge's
//! triple block is an `E_edge` clique, so blocks never split across
//! components and the hyperedges of a phase *partition* across the
//! conflict graph's components). The Theorem 1.1 phase budget
//! `ρ = ⌈λ·ln m⌉ + 1` is unaffected — the reduction drivers may solve
//! components concurrently inside a phase without changing what the
//! phase commits.
//!
//! Three pieces implement that:
//!
//! * [`ComponentPartition`] — connected components off the sorted CSR
//!   rows in `O(V + E)` (iterative BFS; component ids are ordered by
//!   smallest member node, so the labeling is canonical);
//! * [`ComponentExecutor`] — runs one job per component on up to `N`
//!   scoped worker threads, **largest component first** (classic
//!   longest-processing-time scheduling to bound the makespan), with
//!   results slotted by component id, so the output is independent of
//!   the worker count and bit-reproducible;
//! * [`ComponentExecutor::merge`] — maps per-component independent sets
//!   back to global vertex ids and re-verifies both disjointness (a
//!   machine-checked invariant: every global vertex claimed exactly
//!   once, by its own component) and independence
//!   ([`IndependentSet::new`]).
//!
//! [`ParallelismOptions`] is the opt-in knob shared by
//! [`ReductionConfig`](crate::ReductionConfig) (and, through its `base`
//! field, the resilient driver): the default of one thread keeps both
//! drivers on their exact historical serial path.

use pslocal_graph::{csr, Graph, IndependentSet, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a reduction driver may use inside a phase.
///
/// `threads == 1` (the default) is the serial path: one oracle call on
/// the whole conflict graph, byte-identical to the drivers' historical
/// behavior. `threads > 1` opts into component decomposition; phases
/// whose conflict graph is connected (or empty) still take the serial
/// fast path with no thread spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismOptions {
    /// Upper bound on concurrent component solves per phase (≥ 1).
    pub threads: usize,
}

impl Default for ParallelismOptions {
    fn default() -> Self {
        ParallelismOptions::serial()
    }
}

impl ParallelismOptions {
    /// The serial default: whole-graph oracle calls, no decomposition.
    pub fn serial() -> Self {
        ParallelismOptions { threads: 1 }
    }

    /// Component-parallel execution on up to `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be positive");
        ParallelismOptions { threads }
    }

    /// Whether component decomposition is enabled at all.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }
}

/// The connected components of a [`Graph`], extracted in `O(V + E)`.
///
/// Component ids are canonical: component `c` is the one containing the
/// `c`-th smallest "first" node, i.e. ids increase with each
/// component's minimum member. Member lists are sorted ascending (they
/// are collected by a scan over `0..n`), which is exactly the strictly
/// increasing keep-set [`csr::induced_sorted`] requires.
#[derive(Debug, Clone)]
pub struct ComponentPartition {
    /// `comp[v]` = component id of node `v`.
    comp: Vec<u32>,
    /// Per-component sorted member lists.
    members: Vec<Vec<NodeId>>,
}

impl ComponentPartition {
    /// Labels `graph`'s connected components with an iterative
    /// breadth-first search over the CSR rows.
    pub fn of(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut comp = vec![u32::MAX; n];
        let mut queue: Vec<usize> = Vec::new();
        let mut count = 0u32;
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = count;
            queue.push(start);
            while let Some(v) = queue.pop() {
                for &u in graph.neighbors(NodeId::new(v)) {
                    if comp[u.index()] == u32::MAX {
                        comp[u.index()] = count;
                        queue.push(u.index());
                    }
                }
            }
            count += 1;
        }
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); count as usize];
        for v in 0..n {
            members[comp[v] as usize].push(NodeId::new(v));
        }
        ComponentPartition { comp, members }
    }

    /// Number of components (0 for the empty graph).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the underlying graph had no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The component id of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn component_of(&self, v: NodeId) -> usize {
        self.comp[v.index()] as usize
    }

    /// The sorted member nodes of component `c`.
    pub fn members(&self, c: usize) -> &[NodeId] {
        &self.members[c]
    }

    /// Node count of the largest component (0 if there are none).
    pub fn largest_size(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The induced subgraph of component `c`, renumbered
    /// `0..members(c).len()` in ascending global-node order (the
    /// renumbering is monotone, so per-component solutions map back via
    /// `members(c)[local.index()]`).
    pub fn subgraph(&self, graph: &Graph, c: usize) -> Graph {
        csr::induced_sorted(graph, &self.members[c])
    }
}

/// Runs one job per connected component on up to `N` scoped worker
/// threads, deterministically.
///
/// Scheduling is **largest component first** (ties broken by component
/// id): workers atomically claim the next unclaimed component from that
/// fixed order, so big components start as early as possible and the
/// wall clock approaches `max(largest component, total / N)`. Results
/// are slotted by component id, so the returned vector — and anything
/// merged from it — is identical for every worker count, including 1:
/// runs are bit-reproducible and a thread-count sweep is a pure
/// performance experiment.
#[derive(Debug)]
pub struct ComponentExecutor<'g> {
    graph: &'g Graph,
    partition: ComponentPartition,
    threads: usize,
}

impl<'g> ComponentExecutor<'g> {
    /// Partitions `graph` and prepares an executor honoring `options`.
    pub fn new(graph: &'g Graph, options: ParallelismOptions) -> Self {
        ComponentExecutor {
            graph,
            partition: ComponentPartition::of(graph),
            threads: options.threads,
        }
    }

    /// The component partition driving the executor.
    pub fn partition(&self) -> &ComponentPartition {
        &self.partition
    }

    /// Whether running per component is worthwhile at all: more than
    /// one worker is allowed *and* there is more than one component.
    /// When `false`, callers should take their serial whole-graph path
    /// (single-component and empty inputs never spawn a thread).
    pub fn should_decompose(&self) -> bool {
        self.threads > 1 && self.partition.len() > 1
    }

    /// Runs `job(c, subgraph_of_c)` for every component `c`, largest
    /// first, on up to the configured number of workers; returns the
    /// results indexed by component id. Subgraph extraction happens
    /// inside the claiming worker, so it parallelizes with the solves.
    ///
    /// A panic inside `job` propagates to the caller once all workers
    /// have been joined (resilient callers wrap their jobs in
    /// [`std::panic::catch_unwind`] instead).
    pub fn run<T, F>(&self, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &Graph) -> T + Sync,
    {
        let jobs = self.partition.len();
        let mut order: Vec<usize> = (0..jobs).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(self.partition.members(c).len()), c));
        let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let run_one = |c: usize| {
            let sub = self.partition.subgraph(self.graph, c);
            let out = job(c, &sub);
            // pslocal: allow(panic-path, "each slot is written exactly once by one worker, so the lock can only poison if job() already panicked on this thread")
            *slots[c].lock().expect("component result slot") = Some(out);
        };
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            for &c in &order {
                run_one(c);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        let Some(&c) = order.get(i) else { break };
                        run_one(c);
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| {
                // pslocal: allow(panic-path, "all workers joined before collection: a None slot or poisoned lock means a scheduling bug that must not be silently dropped")
                slot.into_inner().expect("slot lock").expect("every scheduled component ran")
            })
            .collect()
    }

    /// Merges per-component independent sets (local vertex ids, indexed
    /// by component id) into one verified independent set of the whole
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics if the merge violates its machine-checked invariants: a
    /// local vertex out of its component's range, a global vertex
    /// claimed twice, or — impossible for genuinely disjoint components
    /// — a cross-component adjacency surfacing in the final
    /// [`IndependentSet::new`] re-verification.
    pub fn merge(&self, locals: Vec<IndependentSet>) -> IndependentSet {
        assert_eq!(locals.len(), self.partition.len(), "one set per component");
        let mut claimed = vec![false; self.graph.node_count()];
        let mut global: Vec<NodeId> = Vec::with_capacity(locals.iter().map(|s| s.len()).sum());
        for (c, local) in locals.iter().enumerate() {
            let members = self.partition.members(c);
            for v in local.iter() {
                let g = *members
                    .get(v.index())
                    // pslocal: allow(panic-path, "a subgraph vertex outside its component's member list is a partition-construction bug; merging it would corrupt the global set")
                    .unwrap_or_else(|| panic!("component {c}: local vertex {v} out of range"));
                assert!(
                    !claimed[g.index()],
                    "disjointness violated: vertex {g} claimed twice during merge"
                );
                claimed[g.index()] = true;
                global.push(g);
            }
        }
        IndependentSet::new(self.graph, global)
            // pslocal: allow(panic-path, "invariant: components are vertex-disjoint with no cross edges, so the union stays independent; a violation is a partition bug")
            .expect("union of per-component independent sets is independent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::classic::cycle;
    use pslocal_graph::GraphBuilder;
    use pslocal_maxis::{ExactOracle, GreedyOracle, MaxIsOracle};

    /// A graph with three components: C_5 on 0..5, K_4 on 5..9, and the
    /// isolated vertex 9.
    fn three_components() -> Graph {
        let mut b = GraphBuilder::new(10);
        for i in 0..5 {
            b.add_edge(NodeId::new(i), NodeId::new((i + 1) % 5));
        }
        for u in 5..9 {
            for v in (u + 1)..9 {
                b.add_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        b.build()
    }

    #[test]
    fn partition_labels_components_canonically() {
        let g = three_components();
        let p = ComponentPartition::of(&g);
        assert_eq!(p.len(), 3);
        assert_eq!(p.largest_size(), 5);
        // Component ids ordered by smallest member: cycle first.
        assert_eq!(p.members(0), (0..5).map(NodeId::new).collect::<Vec<_>>());
        assert_eq!(p.members(1), (5..9).map(NodeId::new).collect::<Vec<_>>());
        assert_eq!(p.members(2), &[NodeId::new(9)]);
        for v in 0..5 {
            assert_eq!(p.component_of(NodeId::new(v)), 0);
        }
        assert_eq!(p.component_of(NodeId::new(9)), 2);
    }

    #[test]
    fn partition_of_empty_and_connected_graphs() {
        assert!(ComponentPartition::of(&Graph::empty(0)).is_empty());
        let edgeless = ComponentPartition::of(&Graph::empty(4));
        assert_eq!(edgeless.len(), 4, "every isolated vertex is its own component");
        assert_eq!(ComponentPartition::of(&cycle(7)).len(), 1);
    }

    #[test]
    fn subgraphs_preserve_structure() {
        let g = three_components();
        let p = ComponentPartition::of(&g);
        let c0 = p.subgraph(&g, 0);
        assert_eq!((c0.node_count(), c0.edge_count()), (5, 5)); // C_5
        let c1 = p.subgraph(&g, 1);
        assert_eq!((c1.node_count(), c1.edge_count()), (4, 6)); // K_4
        let c2 = p.subgraph(&g, 2);
        assert_eq!((c2.node_count(), c2.edge_count()), (1, 0));
    }

    #[test]
    fn executor_results_are_thread_count_independent() {
        let g = three_components();
        let mut baseline: Option<Vec<(usize, usize)>> = None;
        for threads in [1, 2, 4, 8] {
            let exec = ComponentExecutor::new(&g, ParallelismOptions::with_threads(threads));
            let out = exec.run(|c, sub| (c, sub.node_count()));
            assert_eq!(out, vec![(0, 5), (1, 4), (2, 1)]);
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert_eq!(&out, b, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn merge_reassembles_and_verifies() {
        let g = three_components();
        let exec = ComponentExecutor::new(&g, ParallelismOptions::with_threads(4));
        let set = exec.merge(exec.run(|_, sub| ExactOracle.independent_set(sub)));
        // α(C_5) + α(K_4) + α(K_1) = 2 + 1 + 1.
        assert_eq!(set.len(), 4);
        assert!(g.is_independent_set(set.vertices()));
    }

    #[test]
    fn parallel_matches_serial_for_greedy_on_disjoint_unions() {
        let g = three_components();
        let serial = GreedyOracle.independent_set(&g);
        for threads in [2, 3, 8] {
            let exec = ComponentExecutor::new(&g, ParallelismOptions::with_threads(threads));
            let par = exec.merge(exec.run(|_, sub| GreedyOracle.independent_set(sub)));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn fast_paths_skip_decomposition() {
        let connected = cycle(9);
        let exec = ComponentExecutor::new(&connected, ParallelismOptions::with_threads(8));
        assert!(!exec.should_decompose(), "one component: serial fast path");
        let disconnected = three_components();
        let serial = ComponentExecutor::new(&disconnected, ParallelismOptions::serial());
        assert!(!serial.should_decompose(), "one thread: serial fast path");
        assert!(!ParallelismOptions::serial().is_parallel());
        assert!(ParallelismOptions::default() == ParallelismOptions::serial());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn merge_rejects_out_of_range_local_vertex() {
        let g = Graph::empty(2);
        let exec = ComponentExecutor::new(&g, ParallelismOptions::with_threads(2));
        // Component 0 = {0} has exactly one local vertex; local id 5 is
        // out of range and must trip the merge invariant.
        let locals =
            vec![IndependentSet::new_unchecked(vec![NodeId::new(5)]), IndependentSet::empty()];
        let _ = exec.merge(locals);
    }
}
