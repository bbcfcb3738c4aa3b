//! The reduction, executed distributedly: every oracle call runs on
//! the LOCAL simulator, and the total round bill is charged through
//! the `G_k`-inside-`H` host simulation.
//!
//! This module composes three claims the paper makes in passing into
//! one executable pipeline:
//!
//! 1. the conflict graph can be simulated in `H` with dilation 1
//!    ([`simulation`](crate::simulation)), so one `G_k` round costs one
//!    round in (the primal graph of) `H`;
//! 2. a `λ`-approximate MaxIS can be computed *distributedly* — here by
//!    Luby's algorithm, whose MIS is a `(Δ+1)`-approximation;
//! 3. the phased reduction therefore runs entirely in the LOCAL model
//!    on `H`, with total rounds `Σ_phases rounds(Luby on G_k^i) ×
//!    dilation`.
//!
//! With a *randomized* oracle this yields a randomized LOCAL algorithm
//! for conflict-free multicoloring — the deterministic analogue is
//! precisely what Theorem 1.1 shows would derandomize all of P-SLOCAL.
//!
//! The pipeline is generic over the oracle
//! ([`distributed_reduction_with`]), and the round accounting is
//! fault-aware: steps an oracle call *stalls* for (reported through
//! [`MaxIsOracle::stalled_steps`], injected by
//! `pslocal_maxis::FaultyOracle`) are billed as dropped host rounds in
//! [`DistributedPhase::stalled_rounds`] — on clean runs the field is 0
//! and the bill reduces to the paper's.

use crate::conflict_graph::{ConflictGraph, ConflictGraphOptions};
use crate::reduction::{commit_phase, ReductionConfig, ReductionError};
use crate::simulation::simulate_in_hypergraph;
use pslocal_cfcolor::{checker, Multicoloring};
use pslocal_graph::{HyperedgeId, Hypergraph, KernelStrategy};
use pslocal_maxis::{LubyOracle, MaxIsOracle};
use serde::{Deserialize, Serialize};

/// Per-phase record of the distributed run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedPhase {
    /// Phase index.
    pub phase: usize,
    /// Residual edges at phase start.
    pub edges_before: usize,
    /// Oracle (Luby) rounds on this phase's conflict graph.
    pub oracle_rounds: usize,
    /// Host dilation of the phase's simulation (≤ 1 by construction).
    pub dilation: usize,
    /// Host rounds dropped waiting on a stalled oracle call (0 on
    /// clean runs; populated under fault injection).
    pub stalled_rounds: usize,
    /// `H`-rounds charged for the phase:
    /// `oracle_rounds × max(dilation, 1) + stalled_rounds` plus 2
    /// rounds of gather/scatter bookkeeping.
    pub host_rounds: usize,
}

/// Outcome of the fully distributed reduction.
#[derive(Debug, Clone)]
pub struct DistributedReduction {
    /// The conflict-free multicoloring computed.
    pub coloring: Multicoloring,
    /// Per-phase accounting.
    pub phases: Vec<DistributedPhase>,
    /// Total `H`-rounds across all phases.
    pub total_host_rounds: usize,
    /// Total host rounds lost to stalled oracle calls (a summand of
    /// [`total_host_rounds`](Self::total_host_rounds)).
    pub total_stalled_rounds: usize,
    /// The phase budget `ρ` that applied.
    pub rho: usize,
}

/// Runs the reduction with the Luby LOCAL oracle, charging rounds
/// through the host simulation.
///
/// # Errors
///
/// Returns [`ReductionError::PhaseBudgetExhausted`] if edges survive
/// the `ρ` budget (cannot happen on CF-`k`-colorable instances, by the
/// paper's analysis).
pub fn distributed_reduction(
    h: &Hypergraph,
    k: usize,
    seed: u64,
) -> Result<DistributedReduction, ReductionError> {
    distributed_reduction_with(h, &LubyOracle::new(seed), k)
}

/// Runs the distributed pipeline with an arbitrary oracle.
///
/// Sequential oracles bill one oracle round per call (the footnote-2
/// black-box accounting); distributed oracles report their simulator's
/// round count through [`MaxIsOracle::independent_set_with_rounds`].
///
/// # Errors
///
/// Returns [`ReductionError::NoLambdaAvailable`] if `oracle` claims no
/// guarantee (the phase budget `ρ = ⌈λ ln m⌉ + 1` needs a λ), and
/// [`ReductionError::PhaseBudgetExhausted`] if edges survive the
/// budget.
pub fn distributed_reduction_with<O: MaxIsOracle + ?Sized>(
    h: &Hypergraph,
    oracle: &O,
    k: usize,
) -> Result<DistributedReduction, ReductionError> {
    let m = h.edge_count();
    let mut coloring = Multicoloring::new(h.node_count());
    let mut residual: Vec<HyperedgeId> = h.edge_ids().collect();

    // Every consumer below reads the CSR form, so build only that.
    let options = ConflictGraphOptions::with_kernel(KernelStrategy::Csr);
    let mut cg = ConflictGraph::build_with_options(h, k, options);
    let lambda = oracle.lambda_for(cg.graph()).ok_or(ReductionError::NoLambdaAvailable)?;
    let rho = ReductionConfig::rho(lambda, m);

    let mut phases = Vec::new();
    let mut total_host_rounds = 0usize;
    let mut total_stalled_rounds = 0usize;
    let mut phase = 0usize;
    while !residual.is_empty() && phase < rho {
        let sim = simulate_in_hypergraph(&cg);
        let (set, oracle_rounds) = oracle.independent_set_with_rounds(cg.graph());
        // Rounds the host spent waiting on a slow oracle are dropped
        // rounds — the nodes idled, but the LOCAL clock still ticked.
        let stalled_rounds = oracle.stalled_steps();
        let edges_before = residual.len();
        let commit = commit_phase(h, &cg, &set, k, phase, &mut coloring, &mut residual);

        let host_rounds = oracle_rounds * sim.rounds_per_conflict_round + stalled_rounds + 2;
        total_host_rounds += host_rounds;
        total_stalled_rounds += stalled_rounds;
        phases.push(DistributedPhase {
            phase,
            edges_before,
            oracle_rounds,
            dilation: sim.dilation,
            stalled_rounds,
            host_rounds,
        });
        phase += 1;
        if !residual.is_empty() && phase < rho {
            cg = cg.restrict_to_edges(&commit.keep_pos);
        }
    }

    if !residual.is_empty() {
        return Err(ReductionError::PhaseBudgetExhausted { rho, remaining_edges: residual.len() });
    }
    debug_assert!(checker::is_conflict_free(h, &coloring));
    Ok(DistributedReduction { coloring, phases, total_host_rounds, total_stalled_rounds, rho })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_maxis::{FaultKind, FaultPlan, FaultyOracle, WorstWitnessOracle};
    use rand::SeedableRng;

    fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph
    }

    #[test]
    fn distributed_run_produces_verified_coloring() {
        let h = planted(1, 40, 16, 3);
        let out = distributed_reduction(&h, 3, 7).unwrap();
        assert!(checker::is_conflict_free(&h, &out.coloring));
        assert!(!out.phases.is_empty());
        assert!(out.phases.len() <= out.rho);
    }

    #[test]
    fn dilation_one_everywhere_and_rounds_add_up() {
        let h = planted(2, 36, 12, 3);
        let out = distributed_reduction(&h, 3, 9).unwrap();
        let sum: usize = out.phases.iter().map(|p| p.host_rounds).sum();
        assert_eq!(sum, out.total_host_rounds);
        assert_eq!(out.total_stalled_rounds, 0, "clean runs never stall");
        for p in &out.phases {
            assert!(p.dilation <= 1);
            assert_eq!(p.stalled_rounds, 0);
            assert_eq!(p.host_rounds, p.oracle_rounds * 1.max(p.dilation) + 2);
        }
    }

    #[test]
    fn distributed_run_is_seed_deterministic() {
        let h = planted(3, 30, 10, 2);
        let a = distributed_reduction(&h, 2, 42).unwrap();
        let b = distributed_reduction(&h, 2, 42).unwrap();
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.total_host_rounds, b.total_host_rounds);
    }

    #[test]
    fn round_bill_is_modest_on_small_instances() {
        let h = planted(4, 32, 12, 2);
        let out = distributed_reduction(&h, 2, 1).unwrap();
        // Few phases × O(log |G_k|) Luby rounds: two-digit territory.
        assert!(out.total_host_rounds < 400, "rounds = {}", out.total_host_rounds);
    }

    #[test]
    fn guarantee_free_oracle_yields_typed_error() {
        let h = planted(5, 24, 8, 2);
        let err = distributed_reduction_with(&h, &WorstWitnessOracle, 2).unwrap_err();
        assert_eq!(err, ReductionError::NoLambdaAvailable);
    }

    #[test]
    fn distributed_run_matches_the_trusting_driver() {
        use crate::reduction::reduce_cf_to_maxis;
        use pslocal_maxis::{GreedyOracle, PrecisionOracle};
        let oracles: [&dyn MaxIsOracle; 2] = [&GreedyOracle, &PrecisionOracle::new(4.0)];
        let mut multi_phase = 0;
        for seed in 0..6u64 {
            let k = 2 + seed as usize % 2;
            let h = planted(40 + seed, 36, 16, k);
            for oracle in oracles {
                let dist = distributed_reduction_with(&h, oracle, k).unwrap();
                let base = reduce_cf_to_maxis(&h, oracle, ReductionConfig::new(k)).unwrap();
                assert_eq!(dist.coloring, base.coloring, "seed {seed}, {}", oracle.name());
                assert_eq!(dist.phases.len(), base.phases_used);
                multi_phase += usize::from(base.phases_used > 1);
            }
        }
        assert!(multi_phase > 0, "some run must restrict between phases");
    }

    #[test]
    fn stalled_oracle_rounds_are_billed_as_dropped() {
        let h = planted(6, 30, 10, 2);
        // Stall the first call for 11 steps; answer correctly otherwise.
        let plan = FaultPlan::scripted(vec![Some(FaultKind::Stall(11))]);
        let faulty = FaultyOracle::new(LubyOracle::new(3), plan);
        let out = distributed_reduction_with(&h, &faulty, 2).unwrap();
        assert!(checker::is_conflict_free(&h, &out.coloring));
        assert_eq!(out.phases[0].stalled_rounds, 11);
        assert_eq!(
            out.phases[0].host_rounds,
            out.phases[0].oracle_rounds * 1.max(out.phases[0].dilation) + 11 + 2
        );
        assert_eq!(out.total_stalled_rounds, 11);
        assert!(out.phases[1..].iter().all(|p| p.stalled_rounds == 0));
    }
}
