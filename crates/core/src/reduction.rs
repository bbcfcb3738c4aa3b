//! The hardness direction of Theorem 1.1: solving conflict-free
//! multicoloring through a `λ`-approximate MaxIS oracle.
//!
//! Following the paper's proof verbatim: fix `k` such that `H` admits a
//! conflict-free `k`-coloring, set `ρ = λ·ln m + 1`, and run phases
//! `i = 1..ρ`. In phase `i`, build the conflict graph `G_k^i` of the
//! residual hypergraph `H_i = (V, E_i)`, obtain a `λ`-approximate
//! independent set `I_i`, color each vertex `v` with `(v,?,c) ∈ I_i`
//! using color `c` from a **fresh palette**, and remove the happy edges.
//! Per Lemma 2.1, `|I_i| ≥ |E_i|/λ`, so
//! `|E_{i+1}| ≤ (1 − 1/λ)·|E_i|` and after `ρ` phases
//! `(1 − 1/λ)^ρ · m < 1` — no edge remains. The output multicoloring is
//! conflict-free with at most `k·ρ` colors.
//!
//! [`reduce_cf_to_maxis`] runs exactly that loop, recording every
//! per-phase quantity the experiment suite (T4, F1, F2) tabulates, plus
//! the [`LocalityBudget`] that certifies the reduction's
//! polylogarithmic overhead. The loop itself is shared with the
//! resilient driver (see [`crate::resilient`]); this module holds the
//! trusting entry points and the pieces every phase uses: the
//! Lemma 2.1 quota and commit, the phase budget, and the records.

use crate::components::ParallelismOptions;
use crate::conflict_graph::{ConflictGraph, TooLarge};
use crate::correspondence;
use crate::recovery::{Checkpointing, RecoveryReport};
use crate::resilient::{run_phases, Acquire};
use crate::workspace::PhaseWorkspace;
use pslocal_cfcolor::{checker, Multicoloring};
use pslocal_graph::{HyperedgeId, Hypergraph, IndependentSet, KernelStrategy, Palette};
use pslocal_maxis::MaxIsOracle;
use pslocal_slocal::LocalityBudget;
use pslocal_telemetry::{Sink, Telemetry};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// The locality charged to one oracle invocation in the reduction's
/// [`LocalityBudget`]: `⌈log₂(max(n, 2))⌉` for an `n`-vertex input —
/// the polylogarithmic view radius footnote 2 grants the P-SLOCAL
/// oracle.
pub fn oracle_locality(n: usize) -> usize {
    ((n.max(2) as f64).log2().ceil()) as usize
}

/// The Lemma 2.1 delivery quota `⌈edges / λ⌉`, computed exactly.
///
/// For integral λ (every certified oracle: λ = 1, Δ+1, or a color
/// count) the quotient is pure integer `div_ceil`. Fractional λ is
/// decomposed into its exact IEEE-754 rational `mant · 2^exp`
/// (`mant < 2^53`, and `λ ≥ 1` forces `exp ≥ -52`), so the quota is
/// the integer `⌈edges · 2^{-exp} / mant⌉` over `u128` — no round trip
/// through `edges as f64`, which loses bits past `2^53` and used to
/// under-count the quota by 1 at the boundary.
///
/// # Panics
///
/// Panics if `lambda < 1.0` (no λ-approximation is better than exact).
pub fn lemma_2_1_quota(edges: usize, lambda: f64) -> usize {
    assert!(lambda >= 1.0, "approximation factor λ must be ≥ 1, got {lambda}");
    if edges == 0 {
        return 0;
    }
    if lambda.fract() == 0.0 && lambda <= usize::MAX as f64 {
        return edges.div_ceil(lambda as usize);
    }
    // λ is finite and ≥ 1, hence normal: λ = mant · 2^exp exactly.
    let bits = lambda.to_bits();
    let mant = (1u128 << 52) | (bits as u128 & ((1 << 52) - 1));
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1075;
    if exp >= 0 {
        // Every f64 with a nonnegative unbiased mantissa exponent is an
        // integer, so reaching here means λ > usize::MAX ≥ edges.
        return 1;
    }
    // `exp ∈ [-52, -1]`: the numerator is < 2^(64+52), comfortably u128.
    let num = (edges as u128) << (-exp as u32);
    num.div_ceil(mant) as usize
}

/// The largest residual edge count a phase may leave behind under the
/// Lemma 2.1 geometric-decay invariant: `⌊(1 − 1/λ)·|E_i|⌋`, which is
/// exactly `|E_i| − ⌈|E_i|/λ⌉` — the complement of
/// [`lemma_2_1_quota`], so the bound shares its exact integer
/// arithmetic. Shared by the phase loop's decay check and the recovery
/// layer's replay re-check, so the enforcement sites cannot drift.
pub(crate) fn decay_allowed(edges_before: usize, lambda: f64) -> usize {
    edges_before - lemma_2_1_quota(edges_before, lambda)
}

/// One phase's commit, exactly as the phase loop (and journal replay)
/// performs it: decode the partial coloring from the accepted
/// independent set (Lemma 2.1 b), merge it under the phase's fresh
/// palette, and drop the edges it made happy. `keep_pos` holds the
/// survivors' positions *within the incoming residual* — their
/// hyperedge ids inside `cg`'s hypergraph, which is what the
/// conflict-graph restriction consumes — and `record` the
/// phase's [`PhaseRecord`].
pub(crate) struct PhaseCommit {
    pub keep_pos: Vec<HyperedgeId>,
    pub record: PhaseRecord,
}

/// The single shared implementation of the phase commit. The phase
/// loop behind both drivers, journal replay and the distributed view
/// all call this one function, which is what makes a resumed run
/// byte-identical to an uninterrupted one *by construction*.
pub(crate) fn commit_phase(
    h: &Hypergraph,
    cg: &ConflictGraph,
    set: &IndependentSet,
    k: usize,
    phase: usize,
    coloring: &mut Multicoloring,
    residual: &mut Vec<HyperedgeId>,
) -> PhaseCommit {
    let edges_before = residual.len();
    // Lemma 2.1 b): decode the partial coloring f_{I_i}, under a fresh
    // palette per phase.
    let decoded = correspondence::lemma_2_1b(cg, set);
    let phase_colors = correspondence::apply_palette(&decoded.coloring, Palette::phase(k, phase));
    coloring.merge(&phase_colors);
    // Remove happy edges (at least |I_i| of them by the lemma; new
    // colors never un-happy an edge, so checking the cumulative
    // coloring is sound).
    let mut keep_pos: Vec<HyperedgeId> = Vec::new();
    let mut survivors: Vec<HyperedgeId> = Vec::new();
    for (pos, &e) in residual.iter().enumerate() {
        if !checker::is_edge_happy(h, coloring, e) {
            keep_pos.push(HyperedgeId::new(pos));
            survivors.push(e);
        }
    }
    *residual = survivors;
    let record = PhaseRecord {
        phase,
        edges_before,
        conflict_nodes: cg.node_count(),
        conflict_edges: cg.edge_count(),
        independent_set_size: set.len(),
        edges_removed: edges_before - residual.len(),
        edges_after: residual.len(),
    };
    PhaseCommit { keep_pos, record }
}

/// Configuration of the reduction.
#[derive(Debug, Clone, Copy)]
pub struct ReductionConfig {
    /// The palette size `k` for which the instance is promised to admit
    /// a conflict-free `k`-coloring (known by construction for planted
    /// instances).
    pub k: usize,
    /// Overrides the oracle's theoretical λ in the phase budget
    /// (useful to probe tightness; `None` = use the oracle's own λ on
    /// the first-phase conflict graph).
    pub lambda_override: Option<f64>,
    /// Hard cap on phases regardless of the computed `ρ` (safety for
    /// heuristic oracles); `None` = exactly `ρ`.
    pub max_phases: Option<usize>,
    /// Component-parallel phase execution (see [`crate::components`]).
    /// The serial default keeps the driver on its historical one-call-
    /// per-phase path; with `threads > 1`, phases whose conflict graph
    /// is disconnected solve each component concurrently and merge —
    /// sound because Lemma 2.1 applies per component and the phase
    /// budget `ρ` is unaffected.
    pub parallelism: ParallelismOptions,
    /// Which adjacency kernel the phase conflict graphs run on:
    /// [`KernelStrategy::Auto`] (the default) takes the word-parallel
    /// bit-row route only on a dense graph and only when the primary
    /// oracle reads bit rows ([`MaxIsOracle::supports_dense`]);
    /// otherwise it builds CSR once, for every phase. `Csr` and
    /// `Bitset` force a route. Every kernel produces byte-identical
    /// phase outputs (the bitset equivalence suite proves it); only the
    /// cost differs.
    pub kernel: KernelStrategy,
    /// Memoize whole-phase oracle answers by conflict-graph
    /// fingerprint, so a phase whose conflict graph structurally
    /// repeats an earlier one skips the oracle call (hits re-verify
    /// independence on the live graph before being trusted). Off by
    /// default: with the memo on, telemetry's `oracle_calls` counts
    /// only real invocations — cache traffic shows up as
    /// `oracle_cache_hit` / `oracle_cache_miss` instead. Only the
    /// trusting driver consults the memo; the resilient driver (and so
    /// `batch` / `serve`) accepts the field and ignores it.
    pub oracle_cache: bool,
}

impl ReductionConfig {
    /// Default configuration for a promised palette size `k`.
    pub fn new(k: usize) -> Self {
        ReductionConfig {
            k,
            lambda_override: None,
            max_phases: None,
            parallelism: ParallelismOptions::serial(),
            kernel: KernelStrategy::Auto,
            oracle_cache: false,
        }
    }

    /// Returns the configuration with component-parallel phase
    /// execution on up to `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = ParallelismOptions::with_threads(threads);
        self
    }

    /// Computes the paper's phase budget `ρ = ⌈λ·ln m⌉ + 1`.
    pub fn rho(lambda: f64, m: usize) -> usize {
        if m <= 1 {
            // (1 - 1/λ)^ρ · 1 < 1 after a single phase.
            return 1;
        }
        (lambda * (m as f64).ln()).ceil() as usize + 1
    }
}

/// Per-phase record of the reduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Phase index (0-based).
    pub phase: usize,
    /// Residual edges `|E_i|` at phase start.
    pub edges_before: usize,
    /// Vertices of the phase's conflict graph `G_k^i`.
    pub conflict_nodes: usize,
    /// Edges of `G_k^i`.
    pub conflict_edges: usize,
    /// Size of the oracle's independent set `|I_i|`.
    pub independent_set_size: usize,
    /// Happy edges removed this phase (`≥ |I_i|` by Lemma 2.1 b).
    pub edges_removed: usize,
    /// Residual edges `|E_{i+1}|` after the phase.
    pub edges_after: usize,
}

/// Result of a successful reduction run.
#[derive(Debug, Clone)]
pub struct ReductionOutcome {
    /// The conflict-free multicoloring of the input hypergraph.
    pub coloring: Multicoloring,
    /// The λ used for the phase budget.
    pub lambda: f64,
    /// The paper's phase budget `ρ = ⌈λ ln m⌉ + 1`.
    pub rho: usize,
    /// Phases actually executed (`≤ rho`).
    pub phases_used: usize,
    /// Total distinct colors used (`≤ k·phases_used ≤ k·ρ`).
    pub total_colors: usize,
    /// Per-phase records.
    pub records: Vec<PhaseRecord>,
    /// Locality accounting of the local reduction (footnote 2): one
    /// oracle call per phase; the pre/post-processing (building `G_k^i`
    /// and decoding `f_{I_i}`) is locality 1 in the primal graph of `H`
    /// (see `simulation`).
    pub locality: LocalityBudget,
}

/// Failure modes of the reduction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReductionError {
    /// Edges survived the phase budget — the supplied oracle did not
    /// deliver its promised λ (impossible for certified oracles on
    /// CF-k-colorable instances, by the paper's analysis).
    PhaseBudgetExhausted {
        /// The budget that was exhausted.
        rho: usize,
        /// Edges still unhappy.
        remaining_edges: usize,
    },
    /// The oracle claims no guarantee and no override was supplied.
    NoLambdaAvailable,
    /// A phase failed the geometric-decay invariant
    /// `|E_{i+1}| ≤ (1 − 1/λ)|E_i|` promised by Lemma 2.1 — only
    /// reportable when λ is the oracle's *certified* factor.
    DecayViolated {
        /// The offending phase.
        phase: usize,
        /// Edges before.
        before: usize,
        /// Edges after.
        after: usize,
        /// The certified λ.
        lambda: f64,
    },
    /// The resilient driver (`crate::resilient`) spent its entire
    /// retry/fallback budget inside one phase without obtaining an
    /// acceptable independent set from any oracle in the chain.
    RetriesExhausted {
        /// The phase that could not complete.
        phase: usize,
        /// Total oracle attempts spent in that phase.
        attempts: usize,
    },
    /// The caller's deadline passed before the reduction finished. Only
    /// raised at a phase boundary (cooperative cancellation — a running
    /// oracle call is never interrupted), so the partial outcome is
    /// always a whole number of committed phases.
    DeadlineExceeded {
        /// The first phase that did not run.
        phase: usize,
    },
    /// A checkpointing run could not read or durably write its phase
    /// journal, or the journal belongs to a different run
    /// configuration. The reduction state itself is fine — this is the
    /// recovery layer (`crate::recovery`) refusing to continue without
    /// durability rather than silently degrading to a non-resumable
    /// run.
    CheckpointFailed {
        /// The underlying journal error, stringified.
        message: String,
    },
    /// `G_k` would overflow its `u32` node ids or CSR offsets, or the
    /// node bound of forced bit rows; refused before allocating.
    ConflictGraphTooLarge(TooLarge),
}

impl fmt::Display for ReductionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReductionError::PhaseBudgetExhausted { rho, remaining_edges } => write!(
                f,
                "phase budget ρ = {rho} exhausted with {remaining_edges} unhappy edges left"
            ),
            ReductionError::NoLambdaAvailable => {
                write!(f, "oracle provides no guarantee and no λ override was given")
            }
            ReductionError::DecayViolated { phase, before, after, lambda } => write!(
                f,
                "phase {phase}: {before} → {after} edges violates the (1 - 1/{lambda}) decay"
            ),
            ReductionError::RetriesExhausted { phase, attempts } => write!(
                f,
                "phase {phase}: no oracle produced an acceptable set in {attempts} attempts"
            ),
            ReductionError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded at the boundary of phase {phase}")
            }
            ReductionError::CheckpointFailed { message } => {
                write!(f, "checkpointing failed: {message}")
            }
            ReductionError::ConflictGraphTooLarge(e) => e.fmt(f),
        }
    }
}

impl Error for ReductionError {}

/// Runs the Theorem 1.1 reduction: conflict-free multicoloring of `h`
/// via the MaxIS-approximation `oracle`.
///
/// # Errors
///
/// See [`ReductionError`]. On success the returned coloring is
/// conflict-free (additionally re-verified internally).
///
/// # Panics
///
/// The oracle is trusted: its answers are committed unchecked, and a
/// panic inside it propagates unretried.
/// [`reduce_cf_resilient`](crate::reduce_cf_resilient) validates and
/// isolates instead.
pub fn reduce_cf_to_maxis<O: MaxIsOracle + ?Sized>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
) -> Result<ReductionOutcome, ReductionError> {
    reduce_cf_to_maxis_traced(h, oracle, config, &Telemetry::disabled())
}

/// [`reduce_cf_to_maxis`] under a telemetry pipeline: a `reduction`
/// root span contains the initial `conflict-graph` build and one
/// `phase i` span per phase, each with `oracle`/`commit`/`restrict`
/// children and `edges_removed`/`oracle_calls` counters — the span tree
/// [`PhaseTimeline`](pslocal_telemetry::PhaseTimeline) aggregates.
/// With a disabled pipeline this is exactly `reduce_cf_to_maxis`.
///
/// # Errors
///
/// See [`ReductionError`].
pub fn reduce_cf_to_maxis_traced<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
    tel: &Telemetry<S>,
) -> Result<ReductionOutcome, ReductionError> {
    reduce_cf_to_maxis_with_workspace(h, oracle, config, tel, &mut PhaseWorkspace::new())
}

/// [`reduce_cf_to_maxis_traced`] running through a caller-owned
/// [`PhaseWorkspace`], so repeated reductions (benchmark iterations,
/// experiment sweeps) recycle the phase loop's scratch buffers instead
/// of re-allocating them per run. The outcome is byte-identical to the
/// workspace-less entry points — the workspace carries no semantic
/// state (see [`crate::workspace`]).
///
/// # Errors
///
/// See [`ReductionError`].
pub fn reduce_cf_to_maxis_with_workspace<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
    tel: &Telemetry<S>,
    ws: &mut PhaseWorkspace,
) -> Result<ReductionOutcome, ReductionError> {
    run_phases(h, &[oracle], config, Acquire::Trust, tel, None, ws, None)
        .map(|(out, _)| out.reduction)
        .map_err(|failure| failure.error)
}

/// [`reduce_cf_to_maxis_traced`] with crash-safe checkpointing: every
/// committed phase is durably appended to the
/// [`PhaseJournal`](crate::recovery::PhaseJournal) in `checkpoint.dir`,
/// and with [`Checkpointing::resume`] an existing journal is replayed
/// (each record re-validated against the instance — see
/// [`crate::recovery`]) so the run continues from the last good phase.
/// The outcome is **byte-identical** to an uninterrupted run: replay
/// re-commits through the same code path and
/// [`MaxIsOracle::resume_at`] repositions per-call oracle state.
///
/// # Errors
///
/// See [`ReductionError`]; additionally
/// [`ReductionError::CheckpointFailed`] when the journal cannot be
/// read or durably written, or belongs to a different run
/// configuration.
pub fn reduce_cf_to_maxis_resumable<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    oracle: &O,
    config: ReductionConfig,
    checkpoint: &Checkpointing,
    tel: &Telemetry<S>,
) -> Result<(ReductionOutcome, RecoveryReport), ReductionError> {
    let ws = &mut PhaseWorkspace::new();
    run_phases(h, &[oracle], config, Acquire::Trust, tel, Some(checkpoint), ws, None)
        .map(|(out, report)| (out.reduction, report))
        .map_err(|failure| failure.error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{CrashPlan, CrashPoint, CrashSignal};
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_maxis::{
        CliqueRemovalOracle, DecompositionOracle, ExactOracle, GreedyOracle, LubyOracle,
    };
    use pslocal_telemetry::Counter;
    use rand::SeedableRng;

    fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph
    }

    fn check_outcome(h: &Hypergraph, k: usize, out: &ReductionOutcome) {
        assert!(checker::is_conflict_free(h, &out.coloring), "output must be conflict-free");
        assert!(out.phases_used <= out.rho);
        assert!(out.total_colors <= k * out.phases_used.max(1));
        // Palette discipline: only phase palettes appear.
        let palettes: Vec<Palette> = (0..out.phases_used).map(|i| Palette::phase(k, i)).collect();
        assert!(out.coloring.uses_only_palettes(&palettes));
        // Records are consistent.
        let mut prev = h.edge_count();
        for r in &out.records {
            assert_eq!(r.edges_before, prev);
            assert_eq!(r.edges_before - r.edges_removed, r.edges_after);
            assert!(r.edges_removed >= r.independent_set_size);
            prev = r.edges_after;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn exact_oracle_needs_one_phase() {
        let k = 3;
        let h = planted(1, 30, 12, k);
        let out = reduce_cf_to_maxis(&h, &ExactOracle, ReductionConfig::new(k)).unwrap();
        check_outcome(&h, k, &out);
        // α(G_k) = m and exact finds it: every edge happy after phase 0.
        assert_eq!(out.phases_used, 1);
        assert_eq!(out.records[0].independent_set_size, 12);
        assert!((out.lambda - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_oracle_completes_within_budget() {
        let k = 3;
        let h = planted(2, 36, 15, k);
        let out = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        check_outcome(&h, k, &out);
        assert!(out.phases_used >= 1);
        assert!(out.lambda > 1.0, "greedy's λ = Δ(G_k)+1 > 1");
    }

    #[test]
    fn luby_and_clique_removal_complete() {
        let k = 2;
        let h = planted(3, 24, 10, k);
        for oracle in
            [Box::new(LubyOracle::new(5)) as Box<dyn MaxIsOracle>, Box::new(CliqueRemovalOracle)]
        {
            let out = reduce_cf_to_maxis(&h, oracle.as_ref(), ReductionConfig::new(k))
                .unwrap_or_else(|e| panic!("oracle {} failed: {e}", oracle.name()));
            check_outcome(&h, k, &out);
        }
    }

    #[test]
    fn decomposition_oracle_completes() {
        let k = 2;
        let h = planted(4, 24, 8, k);
        let out = reduce_cf_to_maxis(&h, &DecompositionOracle::default(), ReductionConfig::new(k))
            .unwrap();
        check_outcome(&h, k, &out);
    }

    #[test]
    fn rho_formula_matches_paper() {
        // ρ = ⌈λ ln m⌉ + 1.
        assert_eq!(ReductionConfig::rho(1.0, 20), (20f64).ln().ceil() as usize + 1);
        assert_eq!(ReductionConfig::rho(2.0, 100), (2.0 * (100f64).ln()).ceil() as usize + 1);
        assert_eq!(ReductionConfig::rho(5.0, 1), 1);
        assert_eq!(ReductionConfig::rho(5.0, 0), 1);
    }

    #[test]
    fn lambda_override_controls_budget() {
        let k = 2;
        let h = planted(5, 20, 6, k);
        let config = ReductionConfig { lambda_override: Some(1.0), ..ReductionConfig::new(k) };
        // Exact oracle with λ = 1: budget ρ = ln 6 + 1 ≈ 3; exact
        // finishes in 1.
        let out = reduce_cf_to_maxis(&h, &ExactOracle, config).unwrap();
        assert_eq!(out.phases_used, 1);
        assert_eq!(out.rho, ReductionConfig::rho(1.0, 6));
    }

    #[test]
    fn starving_budget_reports_exhaustion() {
        let k = 3;
        let h = planted(6, 36, 20, k);
        let config = ReductionConfig {
            lambda_override: Some(1000.0), // huge ρ, but…
            max_phases: Some(0),           // …no phases allowed
            ..ReductionConfig::new(k)
        };
        let err = reduce_cf_to_maxis(&h, &ExactOracle, config).unwrap_err();
        assert!(matches!(err, ReductionError::PhaseBudgetExhausted { remaining_edges: 20, .. }));
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn empty_hypergraph_is_trivially_colored() {
        let h = Hypergraph::from_edges(5, Vec::<Vec<usize>>::new()).unwrap();
        let out = reduce_cf_to_maxis(&h, &ExactOracle, ReductionConfig::new(2)).unwrap();
        assert_eq!(out.phases_used, 0);
        assert_eq!(out.total_colors, 0);
        assert!(out.records.is_empty());
    }

    #[test]
    fn locality_budget_is_polylog() {
        let k = 3;
        let h = planted(7, 40, 18, k);
        let out = reduce_cf_to_maxis(&h, &ExactOracle, ReductionConfig::new(k)).unwrap();
        // 1 phase · log-locality oracle + 1: comfortably polylog.
        assert!(out.locality.is_polylog(h.node_count(), 4.0, 2));
    }

    #[test]
    fn quota_is_exact_at_integral_boundaries() {
        // ⌈edges/λ⌉ at edges = k·λ and k·λ ± 1 for integral λ.
        for lambda in [1usize, 2, 3, 7, 64] {
            let l = lambda as f64;
            for k in [0usize, 1, 5, 1000] {
                assert_eq!(lemma_2_1_quota(k * lambda, l), k, "edges = {k}·{lambda}");
                assert_eq!(lemma_2_1_quota(k * lambda + 1, l), k + 1, "edges = {k}·{lambda}+1");
                if k >= 1 {
                    let expect = if lambda == 1 { k - 1 } else { k };
                    assert_eq!(
                        lemma_2_1_quota(k * lambda - 1, l),
                        expect,
                        "edges = {k}·{lambda}-1"
                    );
                }
            }
        }
    }

    #[test]
    fn quota_survives_f64_precision_loss() {
        // 2^53 + 1 is not representable in f64: the old epsilon-fudged
        // float ceiling rounded it down and under-demanded by one. The
        // integer path is exact.
        let edges = (1usize << 53) + 1;
        assert_eq!(lemma_2_1_quota(edges, 1.0), edges);
        assert_eq!(lemma_2_1_quota(edges, 2.0), edges.div_ceil(2));
    }

    #[test]
    fn quota_fractional_lambda_is_exact_ceiling() {
        assert_eq!(lemma_2_1_quota(10, 2.5), 4);
        assert_eq!(lemma_2_1_quota(7, 2.5), 3); // ⌈2.8⌉
        assert_eq!(lemma_2_1_quota(0, 2.5), 0);
    }

    #[test]
    fn quota_fractional_lambda_survives_f64_precision_loss() {
        // 2^53 + 1 is unrepresentable in f64, so the old fractional
        // path computed ⌈(2^53) / 2.5⌉ = 3602879701896397 — one short
        // of the true ⌈(2^53 + 1) / 2.5⌉ = ⌈(2^54 + 2) / 5⌉. The exact
        // rational path gets the boundary right.
        let edges = (1usize << 53) + 1;
        assert_eq!(lemma_2_1_quota(edges, 2.5), 3_602_879_701_896_398);
        // And the quota stays monotone across the 2^53 boundary.
        assert!(lemma_2_1_quota(edges, 2.5) >= lemma_2_1_quota(1usize << 53, 2.5));
    }

    #[test]
    fn quota_handles_extreme_lambdas() {
        // λ larger than any edge count: one surviving phase delivers all.
        assert_eq!(lemma_2_1_quota(10, 1e300), 1);
        assert_eq!(lemma_2_1_quota(usize::MAX, 2.0f64.powi(64) * 1.5), 1);
        // λ barely above 1 still demands everything.
        let just_above_one = f64::from_bits(1.0f64.to_bits() + 1);
        assert_eq!(lemma_2_1_quota(1usize << 40, just_above_one), 1usize << 40);
    }

    #[test]
    fn decay_bound_agrees_with_the_exact_quota() {
        // ⌊(1 − 1/λ)·|E_i|⌋ in f64 rounds up here; the bound must be the
        // exact complement of the Lemma 2.1 quota.
        let edges = 4_523_437_425_277usize;
        assert_eq!(decay_allowed(edges, 1554.0), 4_520_526_590_382);
        assert_eq!(decay_allowed(edges, 1554.0), edges - lemma_2_1_quota(edges, 1554.0));
        assert_eq!(decay_allowed(10, 2.5), 6);
        assert_eq!(decay_allowed(0, 3.0), 0);
    }

    #[test]
    fn trusting_driver_lets_an_oracle_panic_escape() {
        // The trusting driver does not isolate its oracle: the first
        // panic ends the run with the oracle's own payload, unretried.
        use pslocal_maxis::{FaultKind, FaultPlan, FaultyOracle};
        let k = 3;
        let h = planted(24, 36, 15, k);
        let faulty =
            FaultyOracle::new(GreedyOracle, FaultPlan::scripted(vec![Some(FaultKind::Panic)]));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reduce_cf_to_maxis(&h, &faulty, ReductionConfig::new(k))
        }))
        .expect_err("the oracle panic propagates");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("injected fault: oracle panicked on call 0")
        );
        assert_eq!(faulty.calls(), 1, "no retry");
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn quota_rejects_sub_unit_lambda() {
        let _ = lemma_2_1_quota(10, 0.5);
    }

    #[test]
    fn oracle_locality_is_ceil_log2() {
        assert_eq!(oracle_locality(0), 1);
        assert_eq!(oracle_locality(1), 1);
        assert_eq!(oracle_locality(2), 1);
        assert_eq!(oracle_locality(3), 2);
        assert_eq!(oracle_locality(1024), 10);
        assert_eq!(oracle_locality(1025), 11);
    }

    #[test]
    fn traced_run_produces_a_consistent_span_tree() {
        use pslocal_telemetry::{MemorySink, PhaseTimeline};
        let k = 3;
        let h = planted(9, 36, 16, k);
        let tel = Telemetry::new(MemorySink::new());
        let out = reduce_cf_to_maxis_traced(&h, &GreedyOracle, ReductionConfig::new(k), &tel)
            .expect("clean run");
        let sink = tel.into_sink();
        assert!(sink.open_spans().is_empty(), "all spans closed");
        let spans = sink.spans();
        let timeline = PhaseTimeline::from_spans(&spans).expect("reduction root");
        assert_eq!(timeline.phases.len(), out.phases_used);
        assert_eq!(sink.counter_total(Counter::Phases), out.phases_used as u64);
        assert_eq!(sink.counter_total(Counter::OracleCalls), out.phases_used as u64);
        assert_eq!(sink.counter_total(Counter::EdgesRemoved), h.edge_count() as u64);
        // Each phase's span-side edges_removed matches its record.
        for (timing, record) in timeline.phases.iter().zip(&out.records) {
            assert_eq!(timing.phase as usize, record.phase);
            assert_eq!(timing.edges_removed as usize, record.edges_removed);
            assert_eq!(timing.oracle_attempts, 1);
        }
        // The untraced entry point yields the identical outcome.
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        assert_eq!(base.records, out.records);
    }

    #[test]
    fn parallel_config_reproduces_the_serial_run() {
        // Greedy decomposes over components (its global pick sequence
        // restricted to a component equals the local sequence), so the
        // parallel driver must reproduce the serial run verbatim —
        // whether a phase takes the fast path or actually decomposes.
        let k = 3;
        let h = planted(11, 36, 16, k);
        let serial = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        let par =
            reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k).with_threads(4)).unwrap();
        assert_eq!(serial.records, par.records);
        assert_eq!(serial.coloring, par.coloring);
        assert_eq!(serial.total_colors, par.total_colors);
    }

    #[test]
    fn luby_parallel_config_reproduces_the_serial_run() {
        // Luby derives each component's RNG stream from the component's
        // own degree sequence, so — like every other oracle — it must not
        // care whether the executor decomposes a phase or not.
        use pslocal_graph::generators::hyper::multi_component_cf_instance;
        let k = 3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let h = multi_component_cf_instance(&mut rng, PlantedCfParams::new(24, 8, k), 4).hypergraph;
        let oracle = LubyOracle::new(5);
        let serial = reduce_cf_to_maxis(&h, &oracle, ReductionConfig::new(k)).unwrap();
        let par = reduce_cf_to_maxis(&h, &oracle, ReductionConfig::new(k).with_threads(4)).unwrap();
        assert_eq!(serial.records, par.records);
        assert_eq!(serial.coloring, par.coloring);
    }

    #[test]
    fn phase_colors_never_unhappy_previous_edges() {
        // Regression for the monotonicity argument: once an edge leaves
        // the residual set it stays happy to the end.
        let k = 3;
        let h = planted(8, 36, 16, k);
        let out = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        assert!(checker::is_conflict_free(&h, &out.coloring));
        // Re-derive cumulative unhappy counts from records.
        let final_unhappy = out.records.last().unwrap().edges_after;
        assert_eq!(final_unhappy, 0);
    }

    #[test]
    fn forced_kernels_produce_identical_runs() {
        // Csr and Bitset pin opposite routes; Auto picks one of them.
        // All three runs must be byte-identical — the kernels differ in
        // cost only.
        let k = 3;
        for (seed, n, m) in [(34u64, 36, 15), (35, 24, 40)] {
            let h = planted(seed, n, m, k);
            let run = |kernel| {
                reduce_cf_to_maxis(
                    &h,
                    &GreedyOracle,
                    ReductionConfig { kernel, ..ReductionConfig::new(k) },
                )
                .unwrap()
            };
            let csr = run(KernelStrategy::Csr);
            let dense = run(KernelStrategy::Bitset);
            let auto = run(KernelStrategy::Auto);
            assert_eq!(csr.records, dense.records);
            assert_eq!(csr.coloring, dense.coloring);
            assert_eq!(csr.lambda, dense.lambda);
            assert_eq!(csr.records, auto.records);
            assert_eq!(csr.coloring, auto.coloring);
        }
    }

    #[test]
    fn workspace_reuse_is_byte_identical() {
        // Two back-to-back reductions through ONE workspace must equal
        // two fresh-allocation runs — the workspace carries buffers,
        // never semantic state. PrecisionOracle(4) forces multi-phase
        // runs, so phases follow each other through the same workspace.
        let k = 3;
        let h1 = planted(31, 40, 18, k);
        let h2 = planted(32, 36, 15, k);
        let oracle = pslocal_maxis::PrecisionOracle::new(4.0);
        let base1 = reduce_cf_to_maxis(&h1, &oracle, ReductionConfig::new(k)).unwrap();
        assert!(base1.phases_used >= 2, "need a multi-phase run to exercise reuse");
        let base2 = reduce_cf_to_maxis(&h2, &oracle, ReductionConfig::new(k)).unwrap();
        let tel = Telemetry::disabled();
        let mut ws = PhaseWorkspace::new();
        let out1 =
            reduce_cf_to_maxis_with_workspace(&h1, &oracle, ReductionConfig::new(k), &tel, &mut ws)
                .unwrap();
        let out2 =
            reduce_cf_to_maxis_with_workspace(&h2, &oracle, ReductionConfig::new(k), &tel, &mut ws)
                .unwrap();
        assert_eq!(out1.records, base1.records);
        assert_eq!(out1.coloring, base1.coloring);
        assert_eq!(out2.records, base2.records);
        assert_eq!(out2.coloring, base2.coloring);
    }

    #[test]
    fn oracle_cache_answers_repeats_without_oracle_calls() {
        use pslocal_telemetry::MemorySink;
        let k = 3;
        let h = planted(33, 36, 15, k);
        let config = ReductionConfig { oracle_cache: true, ..ReductionConfig::new(k) };
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        let mut ws = PhaseWorkspace::new();
        // First run: every phase misses and memoizes.
        let tel1 = Telemetry::new(MemorySink::new());
        let out1 =
            reduce_cf_to_maxis_with_workspace(&h, &GreedyOracle, config, &tel1, &mut ws).unwrap();
        let sink1 = tel1.into_sink();
        assert_eq!(sink1.counter_total(Counter::OracleCacheHits), 0);
        assert_eq!(sink1.counter_total(Counter::OracleCacheMisses), out1.phases_used as u64);
        assert_eq!(sink1.counter_total(Counter::OracleCalls), out1.phases_used as u64);
        // Second identical run through the same workspace: every phase
        // repeats a memoized conflict graph — zero oracle invocations.
        let tel2 = Telemetry::new(MemorySink::new());
        let out2 =
            reduce_cf_to_maxis_with_workspace(&h, &GreedyOracle, config, &tel2, &mut ws).unwrap();
        let sink2 = tel2.into_sink();
        assert_eq!(sink2.counter_total(Counter::OracleCacheHits), out2.phases_used as u64);
        assert_eq!(sink2.counter_total(Counter::OracleCalls), 0);
        // Memoization never changes the answer.
        assert_eq!(out1.records, base.records);
        assert_eq!(out1.coloring, base.coloring);
        assert_eq!(out2.records, base.records);
        assert_eq!(out2.coloring, base.coloring);
    }

    #[test]
    fn oracle_cache_collision_is_rejected_evicted_and_counted() {
        use pslocal_telemetry::MemorySink;
        let k = 2;
        let h = planted(7, 24, 10, k);
        let config = ReductionConfig { oracle_cache: true, ..ReductionConfig::new(k) };
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        // Poison the memo under the *live* first-phase fingerprint with
        // a set that is not independent in G_k — the situation a 64-bit
        // fingerprint collision would produce. Conflict-graph nodes 0
        // and 1 are two color slots of hyperedge 0's first vertex,
        // always adjacent (same-vertex clique).
        let fp = ConflictGraph::build(&h, k).fingerprint();
        let mut ws = PhaseWorkspace::new();
        ws.cache.insert(fp, vec![pslocal_graph::NodeId::new(0), pslocal_graph::NodeId::new(1)]);
        let tel = Telemetry::new(MemorySink::new());
        let out =
            reduce_cf_to_maxis_with_workspace(&h, &GreedyOracle, config, &tel, &mut ws).unwrap();
        let sink = tel.into_sink();
        // Pre-fix: the collision was silently counted as a plain miss
        // and the poisoned entry stayed cached (LRU-refreshed, even).
        assert_eq!(sink.counter_total(Counter::OracleCacheRejects), 1);
        assert_eq!(sink.counter_total(Counter::OracleCacheHits), 0);
        assert_eq!(sink.counter_total(Counter::OracleCacheMisses), out.phases_used as u64);
        // The run falls through to the oracle and stays byte-identical
        // to an uncached baseline.
        assert_eq!(out.records, base.records);
        assert_eq!(out.coloring, base.coloring);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pslocal-reduction-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_phases_record_one_fingerprint_span_each() {
        use pslocal_telemetry::{names, MemorySink, SpanRecord};
        /// The number of `fingerprint` children of each phase span.
        fn per_phase(spans: &[SpanRecord]) -> Vec<usize> {
            let fingerprints = |p: &SpanRecord| {
                let child = |s: &&SpanRecord| s.parent == Some(p.id);
                spans.iter().filter(child).filter(|s| s.name == names::FINGERPRINT).count()
            };
            spans.iter().filter(|s| s.name == names::PHASE).map(fingerprints).collect()
        }
        let k = 3;
        let h = planted(9, 80, 60, k);
        let oracle = LubyOracle::new(5);
        let dir = ckpt_dir("fingerprint-span");
        let tel = Telemetry::new(MemorySink::new());
        let config = ReductionConfig::new(k);
        let (out, _) =
            reduce_cf_to_maxis_resumable(&h, &oracle, config, &Checkpointing::new(&dir), &tel)
                .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.phases_used >= 2, "the instance takes several phases");
        assert_eq!(per_phase(&tel.into_sink().spans()), vec![1; out.phases_used]);
        // Without a journal nothing is pinned, so no phase fingerprints.
        let tel = Telemetry::new(MemorySink::new());
        let plain = reduce_cf_to_maxis_traced(&h, &oracle, config, &tel).unwrap();
        assert_eq!(plain.records, out.records);
        assert_eq!(per_phase(&tel.into_sink().spans()), vec![0; plain.phases_used]);
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_as_noop() {
        let k = 3;
        let h = planted(21, 36, 15, k);
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        let dir = ckpt_dir("clean");
        let tel = Telemetry::disabled();
        let (out, report) = reduce_cf_to_maxis_resumable(
            &h,
            &GreedyOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir),
            &tel,
        )
        .unwrap();
        assert_eq!(out.records, base.records);
        assert_eq!(out.coloring, base.coloring);
        assert!(!report.resumed);
        assert!(report.journal_bytes > 0);
        // Resuming the *completed* journal replays every phase and runs
        // zero new ones — the outcome is byte-identical.
        let (again, report) = reduce_cf_to_maxis_resumable(
            &h,
            &GreedyOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap();
        assert!(report.resumed);
        assert_eq!(report.phases_recovered, base.records.len());
        assert_eq!(again.records, base.records);
        assert_eq!(again.coloring, base.coloring);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_injected_crash_is_byte_identical() {
        // A deliberately weak (λ = 4) oracle guarantees a multi-phase
        // run; Greedy would finish planted instances in one phase.
        let k = 3;
        let h = planted(22, 40, 18, k);
        let oracle = pslocal_maxis::PrecisionOracle::new(4.0);
        let base = reduce_cf_to_maxis(&h, &oracle, ReductionConfig::new(k)).unwrap();
        assert!(base.phases_used >= 2, "need a multi-phase run to interrupt");
        let dir = ckpt_dir("crash");
        let tel = Telemetry::disabled();
        // Kill the run right before phase 1's journal append: phase 1's
        // work is lost, phase 0 survives on disk.
        let ckpt =
            Checkpointing::new(&dir).with_crash(CrashPlan::panicking(1, CrashPoint::BeforeJournal));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reduce_cf_to_maxis_resumable(&h, &oracle, ReductionConfig::new(k), &ckpt, &tel)
        }))
        .expect_err("kill point fires");
        assert!(died.downcast_ref::<CrashSignal>().is_some());
        let (out, report) = reduce_cf_to_maxis_resumable(
            &h,
            &oracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap();
        assert!(report.resumed);
        assert_eq!(report.phases_recovered, 1);
        assert_eq!(out.records, base.records);
        assert_eq!(out.coloring, base.coloring);
        assert_eq!(out.total_colors, base.total_colors);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_under_a_different_config_is_refused() {
        let k = 3;
        let h = planted(23, 36, 15, k);
        let dir = ckpt_dir("mismatch");
        let tel = Telemetry::disabled();
        reduce_cf_to_maxis_resumable(
            &h,
            &GreedyOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir),
            &tel,
        )
        .unwrap();
        // Same journal, different oracle: the header no longer matches
        // and the layer refuses rather than silently clobbering it.
        let err = reduce_cf_to_maxis_resumable(
            &h,
            &ExactOracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap_err();
        assert!(matches!(err, ReductionError::CheckpointFailed { .. }), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
