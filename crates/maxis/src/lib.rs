//! # pslocal-maxis
//!
//! The `λ`-approximate **maximum independent set oracle suite** for the
//! executable reproduction of *"P-SLOCAL-Completeness of Maximum
//! Independent Set Approximation"* (Maus, PODC 2019).
//!
//! The paper's hardness proof opens with "Assume that we can compute
//! λ-approximations for MaxIS"; this crate supplies that assumption in
//! five flavors, each a [`MaxIsOracle`]:
//!
//! | oracle | λ | role |
//! |---|---|---|
//! | [`ExactOracle`] | 1 | ground truth / best-case reduction |
//! | [`GreedyOracle`] | Δ+1 | cheap sequential baseline (Turán/Wei) |
//! | [`LubyOracle`] | Δ+1 | *distributed* oracle via the LOCAL simulator |
//! | [`CliqueRemovalOracle`] | O(n/log²n) | best known general approximation |
//! | [`DecompositionOracle`] | ⌈log₂ n⌉+1 | **the containment direction of Theorem 1.1** |
//!
//! [`bounds`] adds certified upper bounds on `α` so experiments can
//! report each oracle's *realized* λ even on instances too large for
//! the exact solver.
//!
//! # Examples
//!
//! ```
//! use pslocal_graph::generators::classic::cycle;
//! use pslocal_maxis::{measure_ratio, DecompositionOracle, MaxIsOracle};
//!
//! let g = cycle(24);
//! let m = measure_ratio(&DecompositionOracle::default(), &g);
//! // The realized ratio is far better than the worst-case λ = log n.
//! assert!(m.realized_lambda.unwrap() <= 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod bounds;
pub mod clique_removal;
pub mod decomposition;
pub mod exact;
pub mod faulty;
pub mod greedy;
pub mod local_search;
pub mod luby;
pub mod oracle;

pub use adversarial::{PrecisionOracle, WorstWitnessOracle};
pub use bounds::{
    alpha_upper_bound, alpha_upper_bound_with_threshold, measure_ratio, AlphaBound,
    RatioMeasurement,
};
pub use clique_removal::CliqueRemovalOracle;
pub use decomposition::{DecompositionOracle, DecompositionSolve};
pub use exact::ExactOracle;
pub use faulty::{FaultKind, FaultPlan, FaultyOracle, InjectedFault};
pub use greedy::{turan_bound, wei_bound, GreedyOracle};
pub use local_search::{improve_by_swaps, LocalSearchOracle};
pub use luby::LubyOracle;
pub use oracle::{ApproxGuarantee, MaxIsOracle};

/// All standard oracles, boxed, for sweep experiments.
///
/// # Examples
///
/// ```
/// let oracles = pslocal_maxis::standard_oracles(42);
/// assert_eq!(oracles.len(), 5);
/// ```
pub fn standard_oracles(seed: u64) -> Vec<Box<dyn MaxIsOracle>> {
    vec![
        Box::new(ExactOracle),
        Box::new(GreedyOracle),
        Box::new(LubyOracle::new(seed)),
        Box::new(CliqueRemovalOracle),
        Box::new(DecompositionOracle::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::classic::cycle;

    #[test]
    fn standard_oracles_all_produce_independent_sets() {
        let g = cycle(14);
        for oracle in standard_oracles(1) {
            let is = oracle.independent_set(&g);
            assert!(g.is_independent_set(is.vertices()), "oracle {}", oracle.name());
            assert!(!is.is_empty());
        }
    }

    #[test]
    fn exact_dominates_all_heuristics() {
        use pslocal_graph::generators::random::gnp;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = gnp(&mut rng, 32, 0.2);
        let alpha = ExactOracle.independence_number(&g);
        for oracle in standard_oracles(2) {
            assert!(oracle.independent_set(&g).len() <= alpha, "oracle {}", oracle.name());
        }
    }
}
