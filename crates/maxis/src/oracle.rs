//! The `λ`-approximate MaxIS oracle interface.
//!
//! The hardness proof of Theorem 1.1 begins "Assume that we can compute
//! λ-approximations for MaxIS" — the reduction is generic in the
//! oracle. [`MaxIsOracle`] is that assumption as a trait; every
//! implementation returns a *verified* [`IndependentSet`] and declares
//! the guarantee its theory provides, so the reduction can compute the
//! phase budget `ρ = λ·ln m + 1` from the oracle actually plugged in.

use pslocal_graph::{BitsetGraph, BitsetScratch, Graph, IndependentSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The approximation guarantee an oracle provides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ApproxGuarantee {
    /// The output is a maximum independent set (λ = 1).
    Exact,
    /// A fixed factor λ independent of the instance.
    Factor(f64),
    /// λ = Δ + 1 where Δ is the instance's maximum degree (any maximal
    /// independent set achieves this).
    MaxDegreePlusOne,
    /// λ = number of colors of the network decomposition the oracle
    /// computes on the instance (the containment-direction bound
    /// `⌈log₂ n⌉ + 1`).
    DecompositionColors,
    /// Boppana–Halldórsson clique removal: `O(n / log² n)`; the concrete
    /// constant-free bound `n / max(1, ⌊log₂ n⌋²)` is reported.
    CliqueRemoval,
    /// No guarantee is claimed (pure heuristic).
    Heuristic,
}

impl ApproxGuarantee {
    /// The concrete λ this guarantee yields on `graph`, or `None` for
    /// [`Heuristic`](ApproxGuarantee::Heuristic).
    pub fn lambda_for(&self, graph: &Graph) -> Option<f64> {
        let n = graph.node_count().max(1) as f64;
        match self {
            ApproxGuarantee::Exact => Some(1.0),
            ApproxGuarantee::Factor(f) => Some(*f),
            ApproxGuarantee::MaxDegreePlusOne => Some(graph.max_degree() as f64 + 1.0),
            ApproxGuarantee::DecompositionColors => Some(decomposition_colors(graph.node_count())),
            ApproxGuarantee::CliqueRemoval => {
                let log = n.log2().floor().max(1.0);
                Some((n / (log * log)).max(1.0))
            }
            ApproxGuarantee::Heuristic => None,
        }
    }
}

/// The ball carving's color bound `⌈log₂ n⌉ + 1` on `n` vertices, at
/// least 2: the λ of [`ApproxGuarantee::DecompositionColors`].
pub(crate) fn decomposition_colors(n: usize) -> f64 {
    (n.max(1) as f64).log2().ceil().max(1.0) + 1.0
}

impl fmt::Display for ApproxGuarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxGuarantee::Exact => write!(f, "exact"),
            ApproxGuarantee::Factor(l) => write!(f, "{l}-approximation"),
            ApproxGuarantee::MaxDegreePlusOne => write!(f, "(Δ+1)-approximation"),
            ApproxGuarantee::DecompositionColors => {
                write!(f, "decomposition-color approximation")
            }
            ApproxGuarantee::CliqueRemoval => write!(f, "clique-removal approximation"),
            ApproxGuarantee::Heuristic => write!(f, "heuristic"),
        }
    }
}

/// A maximum-independent-set approximation algorithm.
///
/// Implementations must return an independent set of the input graph;
/// the [`IndependentSet`] return type re-verifies independence at
/// construction, so a buggy oracle fails loudly instead of corrupting
/// the reduction.
///
/// The trait requires [`Sync`]: the component-parallel phase executor
/// (`pslocal-core::components`) calls one shared oracle from several
/// scoped worker threads — sound because independent sets compose
/// across connected components (Lemma 2.1 applies per component).
/// Oracles are overwhelmingly stateless value types; stateful wrappers
/// ([`FaultyOracle`](crate::FaultyOracle)) synchronize internally.
pub trait MaxIsOracle: Sync {
    /// A short stable name for reports and tables.
    fn name(&self) -> &'static str;

    /// Computes an independent set of `graph`.
    fn independent_set(&self, graph: &Graph) -> IndependentSet;

    /// Computes the set and reports the LOCAL rounds the computation
    /// consumed. Distributed oracles (Luby) override this with their
    /// simulator's round count; sequential oracles bill one round,
    /// modeling a black-box call per the reduction's footnote-2
    /// accounting.
    fn independent_set_with_rounds(&self, graph: &Graph) -> (IndependentSet, usize) {
        (self.independent_set(graph), 1)
    }

    /// Whether this oracle can consume the word-parallel bit-row
    /// representation directly via
    /// [`independent_set_dense`](Self::independent_set_dense).
    ///
    /// Defaults to `false`, so wrappers such as
    /// [`FaultyOracle`](crate::FaultyOracle) and oracles without a dense
    /// kernel transparently fall back to the CSR route and are called
    /// through [`independent_set`]. Two oracles read bit rows:
    /// [`GreedyOracle`](crate::GreedyOracle) and
    /// [`DecompositionOracle`](crate::DecompositionOracle).
    ///
    /// The reduction drivers also read it to pick the route: under
    /// `KernelStrategy::Auto`, a primary that returns `false` gets the
    /// CSR kernel for every phase, so bit rows are built only for a
    /// primary that reads them. A fallback without a dense kernel that
    /// runs on a bit-row phase graph makes the driver build the CSR
    /// form as well, counted as `lazy_csr_builds`.
    ///
    /// [`independent_set`]: Self::independent_set
    fn supports_dense(&self) -> bool {
        false
    }

    /// Computes an independent set from the dense bit-row form, using
    /// caller-owned scratch so the multi-phase reduction loop allocates
    /// nothing in steady state.
    ///
    /// Called only when [`supports_dense`](Self::supports_dense) returns
    /// `true`. Implementations MUST return exactly the set
    /// [`independent_set`](Self::independent_set) would return on the
    /// CSR form of the same graph — the reduction's replay and recovery
    /// layers rely on the two routes being byte-identical.
    fn independent_set_dense(
        &self,
        bits: &BitsetGraph,
        scratch: &mut BitsetScratch,
    ) -> IndependentSet {
        let _ = (bits, scratch);
        // pslocal: allow(panic-path, "documented default-method contract: callers must check supports_dense() first; reaching this is caller misuse")
        panic!("{}: oracle does not support dense input", self.name())
    }

    /// The concrete λ on the dense form, when computable without
    /// materializing the CSR graph. `None` (the default) tells the
    /// caller to fall back to [`lambda_for`](Self::lambda_for) on the
    /// CSR form; dense-capable oracles override this so the fast path
    /// never touches adjacency lists.
    fn lambda_for_dense(&self, bits: &BitsetGraph) -> Option<f64> {
        let _ = bits;
        None
    }

    /// Simulated steps the most recent [`independent_set`]
    /// (or [`independent_set_with_rounds`]) call stalled for before
    /// answering — `0` for well-behaved oracles. Fault-injection
    /// wrappers ([`FaultyOracle`](crate::FaultyOracle)) override this
    /// so resilient drivers can bill stalls against a step budget and
    /// time out calls that exceed it.
    ///
    /// [`independent_set`]: Self::independent_set
    /// [`independent_set_with_rounds`]: Self::independent_set_with_rounds
    fn stalled_steps(&self) -> usize {
        0
    }

    /// The guarantee this oracle's theory provides.
    fn guarantee(&self) -> ApproxGuarantee;

    /// The concrete λ on `graph` per [`guarantee`](Self::guarantee), or
    /// `None` for heuristics.
    fn lambda_for(&self, graph: &Graph) -> Option<f64> {
        self.guarantee().lambda_for(graph)
    }

    /// Fast-forwards any per-call internal state to the point where
    /// `calls` invocations have already been served — the hook the
    /// crash-recovery layer (`pslocal-core::recovery`) uses to make a
    /// resumed run byte-identical to an uninterrupted one.
    ///
    /// Stateless oracles (all the certified ones: their answer is a
    /// pure function of the input graph and a fixed seed) need nothing,
    /// so the default is a no-op. Stateful wrappers whose behavior
    /// depends on the call *index* — [`FaultyOracle`](crate::FaultyOracle)
    /// consults its [`FaultPlan`](crate::FaultPlan) per call — override
    /// this to reposition their counter after a process restart.
    fn resume_at(&self, _calls: usize) {}
}

/// Boxed oracles delegate every method to the inner oracle — including
/// the ones with non-trivial defaults (`supports_dense`,
/// `stalled_steps`, `resume_at`), so a `Box<dyn MaxIsOracle>` behaves
/// byte-identically to the unboxed value. The batch service and CLI
/// build their per-request oracle chains as boxes; this impl lets
/// wrappers like `FaultyOracle<Box<dyn MaxIsOracle + Send + Sync>>`
/// compose over them.
impl<O: MaxIsOracle + ?Sized> MaxIsOracle for Box<O> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn independent_set(&self, graph: &Graph) -> IndependentSet {
        (**self).independent_set(graph)
    }

    fn independent_set_with_rounds(&self, graph: &Graph) -> (IndependentSet, usize) {
        (**self).independent_set_with_rounds(graph)
    }

    fn supports_dense(&self) -> bool {
        (**self).supports_dense()
    }

    fn independent_set_dense(
        &self,
        bits: &BitsetGraph,
        scratch: &mut BitsetScratch,
    ) -> IndependentSet {
        (**self).independent_set_dense(bits, scratch)
    }

    fn lambda_for_dense(&self, bits: &BitsetGraph) -> Option<f64> {
        (**self).lambda_for_dense(bits)
    }

    fn stalled_steps(&self) -> usize {
        (**self).stalled_steps()
    }

    fn guarantee(&self) -> ApproxGuarantee {
        (**self).guarantee()
    }

    fn lambda_for(&self, graph: &Graph) -> Option<f64> {
        (**self).lambda_for(graph)
    }

    fn resume_at(&self, calls: usize) {
        (**self).resume_at(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::classic::{complete, cycle};

    #[test]
    fn lambda_computations() {
        let g = cycle(16);
        assert_eq!(ApproxGuarantee::Exact.lambda_for(&g), Some(1.0));
        assert_eq!(ApproxGuarantee::Factor(3.5).lambda_for(&g), Some(3.5));
        assert_eq!(ApproxGuarantee::MaxDegreePlusOne.lambda_for(&g), Some(3.0));
        // log2(16) = 4 → 5 colors.
        assert_eq!(ApproxGuarantee::DecompositionColors.lambda_for(&g), Some(5.0));
        // n / log² = 16/16 = 1.
        assert_eq!(ApproxGuarantee::CliqueRemoval.lambda_for(&g), Some(1.0));
        assert_eq!(ApproxGuarantee::Heuristic.lambda_for(&g), None);
    }

    #[test]
    fn max_degree_guarantee_tracks_instance() {
        let k = complete(9);
        assert_eq!(ApproxGuarantee::MaxDegreePlusOne.lambda_for(&k), Some(9.0));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(ApproxGuarantee::Exact.to_string(), "exact");
        assert_eq!(ApproxGuarantee::Factor(2.0).to_string(), "2-approximation");
        assert!(ApproxGuarantee::MaxDegreePlusOne.to_string().contains("Δ+1"));
    }
}
