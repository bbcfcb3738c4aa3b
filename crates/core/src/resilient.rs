//! A hardened Theorem 1.1 reduction driver that survives misbehaving
//! oracles.
//!
//! [`reduce_cf_to_maxis`](crate::reduce_cf_to_maxis) *trusts* its
//! oracle: the paper's analysis assumes every call returns a genuine
//! independent set of size `≥ |E_i|/λ`. [`reduce_cf_resilient`] drops
//! that trust and re-validates every answer before committing a phase:
//!
//! * **independence** — range check plus a full adjacency re-check of
//!   the claimed set against the phase's conflict graph;
//! * **delivery** — the Lemma 2.1 quota `|I_i| ≥ ⌈|E_i|/λ⌉` against
//!   the calling oracle's *certified* λ (skipped for heuristics, whose
//!   λ claims nothing);
//! * **liveness** — oracle panics are caught and isolated
//!   ([`std::panic::catch_unwind`]); stalls reported through
//!   [`MaxIsOracle::stalled_steps`] are billed against a per-attempt
//!   step budget that doubles on every retry (exponential backoff). An
//!   injected process crash never reaches that catch: the recovery
//!   layer's kill points ([`CrashPlan`](crate::recovery::CrashPlan))
//!   fire between a phase's steps, not inside an oracle call.
//!
//! A rejected answer costs one attempt; attempts walk a configurable
//! **fallback chain** (typically `primary → GreedyOracle`) with
//! [`ResilientConfig::max_retries`] retries per oracle. Every rejection
//! is recorded as a [`FaultEvent`], which the checkpointing entry point
//! journals as is. If a phase exhausts the whole
//! chain, the driver fails *with salvage*: the
//! [`PartialOutcome`] carries the verified partial coloring, the still
//! unhappy edges, and the per-phase records accumulated so far.
//!
//! The driver's contract — the chaos-test invariant — is:
//!
//! > For **every** fault schedule, `reduce_cf_resilient` either returns
//! > a verified conflict-free multicoloring or a typed error with a
//! > salvageable partial outcome. It never panics and never returns an
//! > invalid coloring. With no faults it reproduces
//! > [`reduce_cf_to_maxis`](crate::reduce_cf_to_maxis) exactly
//! > (byte-identical [`PhaseRecord`]s).
//!
//! Both drivers run one phase engine, `run_phases`, which differs only
//! in how it acquires each phase's set: the trusting entry points pass
//! a one-oracle chain under the `Trust` policy (no validation, no
//! retry, the oracle's panic propagates), the entry points here pass
//! the chain under `Validate`. One chain × retry walk serves the whole
//! phase graph and, on component-parallel phases, each component.

use crate::components::{ComponentExecutor, ParallelismOptions};
use crate::conflict_graph::{ConflictGraph, ConflictGraphOptions};
use crate::recovery::{
    self, fingerprint_hypergraph, Checkpointing, CrashPoint, DriverKind, JournalHeader,
    JournalPhase, PhaseJournal, RecoveryReport,
};
use crate::reduction::{
    commit_phase, decay_allowed, lemma_2_1_quota, oracle_locality, PhaseRecord, ReductionConfig,
    ReductionError, ReductionOutcome,
};
use crate::workspace::{CacheLookup, PhaseWorkspace};
use pslocal_cfcolor::{checker, Multicoloring};
use pslocal_graph::{
    BitsetScratch, Graph, HyperedgeId, Hypergraph, IndependentSet, KernelStrategy,
};
use pslocal_maxis::{ApproxGuarantee, MaxIsOracle};
use pslocal_slocal::LocalityBudget;
use pslocal_telemetry::{names, span, Counter, Histogram, Instrument, Sink, Span, Telemetry};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The stall budget of attempt `retry` under exponential backoff:
/// `base · 2^retry`, **saturating at `usize::MAX`** once the doubling
/// would overflow. The naive `base << retry` wraps (to 0 in release
/// builds once the set bits shift out), after which every oracle call
/// is falsely rejected as stalled and the fallback chain is burned for
/// nothing; saturation keeps the budget monotone non-decreasing in
/// `retry`, which is what backoff means.
pub fn stall_budget(base: usize, retry: usize) -> usize {
    if base == 0 {
        // Zero tolerance stays zero: backoff multiplies the budget, and
        // 0 · 2^retry = 0.
        return 0;
    }
    // `base << retry` is lossless iff every set bit survives, i.e. the
    // shift fits within `base`'s leading zeros; `checked_shl` alone is
    // not enough (it only rejects shifts ≥ the bit width, not shifts
    // that discard set bits).
    if retry <= base.leading_zeros() as usize {
        base << retry
    } else {
        usize::MAX
    }
}

/// Why the resilient driver rejected (or routed around) an oracle call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultEventKind {
    /// The call panicked; the panic was caught and isolated.
    OraclePanicked,
    /// The claimed independent set failed re-validation (out-of-range
    /// vertex or adjacent pair).
    OracleInvalidOutput,
    /// The set was valid but below the Lemma 2.1 quota its certified λ
    /// promises.
    OracleUnderDelivered {
        /// Vertices actually delivered.
        delivered: usize,
        /// The quota `⌈|E_i|/λ⌉`.
        required: usize,
    },
    /// The call stalled longer than the attempt's step budget.
    OracleStalled {
        /// Steps the call stalled for.
        steps: usize,
        /// The budget it exceeded.
        tolerance: usize,
    },
    /// The driver moved on to the next oracle in the fallback chain.
    FallbackEngaged,
    /// A phase ran out of oracles and retries (terminal; mirrored by
    /// [`ReductionError::RetriesExhausted`]).
    RetriesExhausted {
        /// Attempts spent in the phase.
        attempts: usize,
    },
}

impl fmt::Display for FaultEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEventKind::OraclePanicked => write!(f, "oracle-panicked"),
            FaultEventKind::OracleInvalidOutput => write!(f, "oracle-invalid-output"),
            FaultEventKind::OracleUnderDelivered { delivered, required } => {
                write!(f, "oracle-under-delivered ({delivered} < {required})")
            }
            FaultEventKind::OracleStalled { steps, tolerance } => {
                write!(f, "oracle-stalled ({steps} > {tolerance})")
            }
            FaultEventKind::FallbackEngaged => write!(f, "fallback-engaged"),
            FaultEventKind::RetriesExhausted { attempts } => {
                write!(f, "retries-exhausted ({attempts} attempts)")
            }
        }
    }
}

/// One entry of the resilient driver's fault log, stored as is in the
/// phase journal's records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Phase the event occurred in.
    pub phase: usize,
    /// 0-based attempt index within the phase (on the parallel path,
    /// within the component).
    pub attempt: usize,
    /// Name of the oracle involved.
    pub oracle: String,
    /// The conflict-graph component the event occurred in, when the
    /// phase ran component-parallel; `None` on the serial path.
    pub component: Option<usize>,
    /// What happened.
    pub kind: FaultEventKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "phase {}", self.phase)?;
        if let Some(c) = self.component {
            write!(f, " component {c}")?;
        }
        write!(f, " attempt {} [{}]: {}", self.attempt, self.oracle, self.kind)
    }
}

/// Configuration of [`reduce_cf_resilient`].
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// The underlying reduction configuration (promised `k`, optional λ
    /// override, phase cap).
    pub base: ReductionConfig,
    /// Retries per oracle per phase *beyond* the first attempt.
    pub max_retries: usize,
    /// Base step budget for stalled calls; attempt `j` of an oracle
    /// tolerates [`stall_budget`]`(stall_tolerance, j)` steps, which is
    /// `stall_tolerance · 2^j` saturated at `usize::MAX` (exponential
    /// backoff).
    pub stall_tolerance: usize,
}

impl ResilientConfig {
    /// Default resilience (2 retries, stall tolerance 8) for a promised
    /// palette size `k`.
    pub fn new(k: usize) -> Self {
        ResilientConfig { base: ReductionConfig::new(k), max_retries: 2, stall_tolerance: 8 }
    }
}

/// What could be salvaged from a failed resilient run.
///
/// The coloring is *verified partial progress*: every phase that
/// committed did so with a re-validated independent set, so the
/// coloring is conflict-free on all edges outside
/// [`residual_edges`](Self::residual_edges).
#[derive(Debug, Clone)]
pub struct PartialOutcome {
    /// The partial multicoloring built by the committed phases.
    pub coloring: Multicoloring,
    /// Hyperedges still unhappy under the partial coloring.
    pub residual_edges: Vec<HyperedgeId>,
    /// Per-phase records of the committed phases.
    pub records: Vec<PhaseRecord>,
}

/// Successful resilient run: the base outcome plus fault accounting.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The verified reduction outcome (same shape as the trusting
    /// driver's).
    pub reduction: ReductionOutcome,
    /// Every fault observed and routed around, in order.
    pub fault_log: Vec<FaultEvent>,
    /// Attempts beyond the first across all phases.
    pub retries: usize,
    /// Times the driver fell back to a later oracle in the chain.
    pub fallbacks_engaged: usize,
}

/// Failed resilient run: the typed error, the salvage, and the log.
#[derive(Debug, Clone)]
pub struct ResilientFailure {
    /// Why the run failed.
    pub error: ReductionError,
    /// Verified partial progress at the point of failure.
    pub partial: PartialOutcome,
    /// Every fault observed, in order.
    pub fault_log: Vec<FaultEvent>,
}

impl fmt::Display for ResilientFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} faults logged, {} edges salvageable)",
            self.error,
            self.fault_log.len(),
            self.partial.residual_edges.len()
        )
    }
}

impl Error for ResilientFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Runs the Theorem 1.1 reduction against an untrusted oracle
/// **chain** (`chain[0]` is the primary; later entries are fallbacks,
/// tried left to right).
///
/// Every oracle answer is re-validated before the phase commits; see
/// the [module docs](self) for the validation, retry, and salvage
/// semantics. With well-behaved oracles the result's
/// [`reduction`](ResilientOutcome::reduction) is identical to
/// [`reduce_cf_to_maxis`](crate::reduce_cf_to_maxis)'s on the primary.
///
/// # Errors
///
/// [`ResilientFailure`] wraps the [`ReductionError`] with the
/// salvageable [`PartialOutcome`] and the fault log. An empty `chain`
/// fails immediately with
/// [`ReductionError::RetriesExhausted`]`{ phase: 0, attempts: 0 }`.
// The large `Err` variant is the point: it carries the salvaged
// partial coloring and the fault log for post-mortem use.
#[allow(clippy::result_large_err)]
pub fn reduce_cf_resilient(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
) -> Result<ResilientOutcome, ResilientFailure> {
    let ws = &mut PhaseWorkspace::new();
    reduce_cf_resilient_with_workspace(h, chain, config, &Telemetry::disabled(), ws, None)
}

/// [`reduce_cf_resilient`] under a telemetry pipeline, lending a
/// caller-owned [`PhaseWorkspace`] and honoring an optional wall-clock
/// `deadline` — the entry point for a caller serving requests, whose
/// workers hold one long-lived workspace each and cancel overdue
/// requests cooperatively. (The batch service, `crate::service`, runs
/// the same phase loop with each request's `service-request` span as
/// the parent of its `reduction` span.)
///
/// The span tree is the trusting driver's — `reduction` / `phase` /
/// `oracle` / `commit` / `restrict` — except each phase carries one
/// `oracle` span **per attempt** (indexed by attempt number), and the
/// `retries` / `fallbacks` / `stalled_steps` / `fault_events` counters
/// mirror the fault log.
///
/// The deadline is checked once before `G_k` is built and then at
/// every **phase boundary** (before the phase's oracle work starts),
/// never mid-call: an overdue run fails with
/// [`ReductionError::DeadlineExceeded`] and the usual salvage — a
/// whole number of committed, verified phases. A run whose deadline
/// passed before it started, zero-edge instances included, fails at
/// phase 0 with nothing built. A workspace carries no semantic state,
/// so the next request through the same workspace is unaffected
/// (pinned by the batch deadline tests).
///
/// # Errors
///
/// See [`reduce_cf_resilient`], plus
/// [`ReductionError::DeadlineExceeded`] when `deadline` passes.
#[allow(clippy::result_large_err)]
pub fn reduce_cf_resilient_with_workspace<S: Sink>(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
    tel: &Telemetry<S>,
    ws: &mut PhaseWorkspace,
    deadline: Option<Instant>,
) -> Result<ResilientOutcome, ResilientFailure> {
    run_phases(h, chain, config.base, config.acquire(), tel, None, ws, deadline)
        .map(|(outcome, _)| outcome)
}

/// [`reduce_cf_resilient_with_workspace`] with crash-safe
/// checkpointing: every committed phase — including its fault events,
/// per-slot oracle-call positions, and the quota actually enforced on
/// the accepted set — is durably appended to the [`PhaseJournal`] in
/// `checkpoint.dir`; with [`Checkpointing::resume`] an existing journal
/// is replayed (corruption-tolerant, each record re-validated — see
/// [`crate::recovery`]) and the run continues from the last good
/// phase, with every oracle in the chain fast-forwarded through
/// [`MaxIsOracle::resume_at`] so fault schedules stay aligned and the
/// outcome is **byte-identical** to an uninterrupted run.
///
/// # Errors
///
/// See [`reduce_cf_resilient`]; journal I/O failures surface as
/// [`ReductionError::CheckpointFailed`] with salvage.
#[allow(clippy::result_large_err)]
pub fn reduce_cf_resilient_resumable<S: Sink>(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
    checkpoint: &Checkpointing,
    tel: &Telemetry<S>,
) -> Result<(ResilientOutcome, RecoveryReport), ResilientFailure> {
    let ws = &mut PhaseWorkspace::new();
    run_phases(h, chain, config.base, config.acquire(), tel, Some(checkpoint), ws, None)
}

/// How [`run_phases`] obtains each phase's independent set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Acquire {
    /// The trusting driver: commit the single oracle's answer
    /// unchecked and let its panic propagate. With
    /// [`ReductionConfig::oracle_cache`] a verified memo hit answers a
    /// repeated phase graph without an oracle call.
    Trust,
    /// The resilient driver: validate every answer, retry each oracle
    /// under a doubling stall budget, and fall back along the chain.
    Validate { max_retries: usize, stall_tolerance: usize },
}

impl ResilientConfig {
    pub(crate) fn acquire(&self) -> Acquire {
        Acquire::Validate { max_retries: self.max_retries, stall_tolerance: self.stall_tolerance }
    }
}

impl Acquire {
    /// Judges one answer `set` that `oracle` returned on `target` after
    /// stalling `stalled` steps, on attempt `retry` of that oracle:
    /// `Ok(quota)` accepts it, where `quota` is the Lemma 2.1 delivery
    /// quota it was held to (0 when none applies), and `Err` names the
    /// rejection. `Trust` accepts everything.
    fn judge<O: MaxIsOracle + ?Sized>(
        self,
        target: &Target<'_>,
        oracle: &O,
        set: &IndependentSet,
        stalled: usize,
        retry: usize,
    ) -> Result<usize, FaultEventKind> {
        let Acquire::Validate { stall_tolerance, .. } = self else { return Ok(0) };
        let tolerance = stall_budget(stall_tolerance, retry);
        if stalled > tolerance {
            return Err(FaultEventKind::OracleStalled { steps: stalled, tolerance });
        }
        if !target.is_independent(set) {
            return Err(FaultEventKind::OracleInvalidOutput);
        }
        // Delivery quota per Lemma 2.1, against the calling oracle's
        // own certified λ on the graph it solved; heuristic and
        // asymptotic guarantees promise no per-instance quota.
        let required = match certified(oracle).then(|| target.quota_basis(oracle)) {
            Some((Some(l), edges)) if l >= 1.0 => lemma_2_1_quota(edges, l),
            _ => 0,
        };
        if set.len() < required {
            return Err(FaultEventKind::OracleUnderDelivered { delivered: set.len(), required });
        }
        Ok(required)
    }
}

/// Whether `oracle`'s λ is rigorous per instance: exact (λ = 1) and
/// maximal-IS-based (λ = Δ+1) guarantees. Only these gate the Lemma 2.1
/// quota and the decay invariant; asymptotic guarantees (clique
/// removal's O(n/log²n)) and conditional ones (decomposition with
/// greedy fallback) are measured by the experiments instead.
fn certified<O: MaxIsOracle + ?Sized>(oracle: &O) -> bool {
    matches!(oracle.guarantee(), ApproxGuarantee::Exact | ApproxGuarantee::MaxDegreePlusOne)
}

/// The oracle's concrete λ on a phase conflict graph, preferring the
/// dense route ([`MaxIsOracle::lambda_for_dense`]) when the graph was
/// built on the bitset kernel, so the budget computation does not
/// force a CSR materialization.
fn lambda_for_phase<O: MaxIsOracle + ?Sized>(cg: &ConflictGraph, oracle: &O) -> Option<f64> {
    if let Some(bits) = cg.bitset() {
        if let Some(l) = oracle.lambda_for_dense(bits) {
            return Some(l);
        }
    }
    oracle.lambda_for(cg.graph())
}

/// The graph one chain walk solves, with the residual hyperedge count
/// its Lemma 2.1 quota is computed on.
enum Target<'a> {
    /// The whole phase graph. Calls take the word-parallel dense kernel
    /// ([`MaxIsOracle::independent_set_dense`]) when the graph was
    /// built on the bitset route and the oracle supports it,
    /// byte-identical by the oracle's dense contract; the scratch is
    /// state-free across calls, so a caught panic mid-kernel cannot
    /// poison a retry.
    Whole { cg: &'a ConflictGraph, scratch: &'a mut BitsetScratch, edges: usize },
    /// Component `c`'s induced subgraph. Every hyperedge's triple block
    /// is an `E_edge` clique, so blocks never split across components
    /// and the residual hyperedges partition over them: `edges` is the
    /// component's own share.
    Component { c: usize, sub: &'a Graph, edges: usize },
}

impl Target<'_> {
    fn solve<O: MaxIsOracle + ?Sized>(&mut self, oracle: &O) -> IndependentSet {
        match self {
            Target::Whole { cg, scratch, .. } => match cg.bitset() {
                Some(bits) if oracle.supports_dense() => {
                    oracle.independent_set_dense(bits, scratch)
                }
                _ => oracle.independent_set(cg.graph()),
            },
            Target::Component { sub, .. } => oracle.independent_set(sub),
        }
    }

    fn is_independent(&self, set: &IndependentSet) -> bool {
        match self {
            Target::Whole { cg, .. } => cg.verify_independent(set),
            // The range check must come first: `is_independent_set`
            // panics on out-of-range vertices.
            Target::Component { sub, .. } => {
                set.vertices().iter().all(|v| v.index() < sub.node_count())
                    && sub.is_independent_set(set.vertices())
            }
        }
    }

    /// The oracle's λ on this graph, and the hyperedge count its
    /// Lemma 2.1 quota is taken over.
    fn quota_basis<O: MaxIsOracle + ?Sized>(&self, oracle: &O) -> (Option<f64>, usize) {
        match self {
            Target::Whole { cg, edges, .. } => (lambda_for_phase(cg, oracle), *edges),
            Target::Component { sub, edges, .. } => (oracle.lambda_for(sub), *edges),
        }
    }
}

/// An answer a chain walk accepted.
struct Accepted {
    set: IndependentSet,
    /// The chain slot that produced it.
    slot: usize,
    /// The Lemma 2.1 quota it was held to (0 = none).
    quota: usize,
}

/// What one chain walk did, for the phase to aggregate.
#[derive(Default)]
struct Walk {
    accepted: Option<Accepted>,
    attempts: usize,
    fallbacks: usize,
    events: Vec<FaultEvent>,
    /// `independent_set` invocations per chain slot (resume accounting).
    per_slot: Vec<u64>,
}

/// The chain × retry walk: tries each oracle of `chain` in turn, each
/// up to `max_retries + 1` times, until `acquire` accepts an answer on
/// `target`. Each attempt gets an `oracle` span under `span`, indexed
/// by attempt, and one `oracle_calls` tick (`parallel_oracle_calls` on
/// a component). A panicking call is a rejected attempt, except under
/// `Trust`, which re-raises the oracle's panic.
fn walk_chain<O: MaxIsOracle + ?Sized, S: Sink>(
    chain: &[&O],
    acquire: Acquire,
    phase: usize,
    mut target: Target<'_>,
    span: &Span<'_, S>,
) -> Walk {
    let max_retries = match acquire {
        Acquire::Trust => 0,
        Acquire::Validate { max_retries, .. } => max_retries,
    };
    let (component, calls) = match target {
        Target::Whole { .. } => (None, Counter::OracleCalls),
        Target::Component { c, .. } => (Some(c), Counter::ParallelOracleCalls),
    };
    let event = |attempt, oracle: &O, kind| FaultEvent {
        phase,
        attempt,
        oracle: oracle.name().to_string(),
        component,
        kind,
    };
    let mut walk = Walk { per_slot: vec![0; chain.len()], ..Walk::default() };
    'chain: for (slot, &oracle) in chain.iter().enumerate() {
        if slot > 0 {
            walk.fallbacks += 1;
            walk.events.push(event(walk.attempts, oracle, FaultEventKind::FallbackEngaged));
        }
        for retry in 0..=max_retries {
            let attempt = walk.attempts;
            walk.attempts += 1;
            walk.per_slot[slot] += 1;
            let oracle_span = span!(span, names::ORACLE, attempt);
            span.add(calls, 1);
            let set = match catch_unwind(AssertUnwindSafe(|| target.solve(oracle))) {
                Ok(set) => set,
                Err(payload) if matches!(acquire, Acquire::Trust) => resume_unwind(payload),
                Err(_) => {
                    drop(oracle_span);
                    walk.events.push(event(attempt, oracle, FaultEventKind::OraclePanicked));
                    continue;
                }
            };
            // A single *stateful* oracle is shared by all component
            // workers, so stall readings may interleave across
            // components; the budget still bounds every reading it acts
            // on.
            let stalled = oracle.stalled_steps();
            oracle_span.add(Counter::StalledSteps, stalled as u64);
            oracle_span.sample(Histogram::IndependentSetSize, set.len() as u64);
            drop(oracle_span);
            match acquire.judge(&target, oracle, &set, stalled, retry) {
                Ok(quota) => {
                    walk.accepted = Some(Accepted { set, slot, quota });
                    break 'chain;
                }
                Err(kind) => walk.events.push(event(attempt, oracle, kind)),
            }
        }
    }
    walk
}

/// The phase loop behind every driver entry point: build `G_k`, fix λ
/// and the budget `ρ`, then per phase obtain an independent set as
/// `acquire` says, commit it through the shared
/// [`commit_phase`](crate::reduction::commit_phase), journal it, and
/// restrict `G_k` to the surviving hyperedges. Its `reduction` span
/// opens under `parent`: the pipeline's root for the public entry
/// points, the request's span in the batch service.
///
/// The set comes from one [`walk_chain`] on the whole phase graph or,
/// with `threads > 1` and a disconnected graph, one walk per component
/// on the [`ComponentExecutor`] (a fault retries only its component),
/// merged under the executor's disjointness check. Serial execution is
/// the one-walk case of the same aggregation. Either way the phase
/// commits atomically: one exhausted walk fails the whole phase.
#[allow(clippy::result_large_err)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_phases<O: MaxIsOracle + ?Sized, S: Sink>(
    h: &Hypergraph,
    chain: &[&O],
    config: ReductionConfig,
    acquire: Acquire,
    parent: &impl Instrument<S>,
    checkpoint: Option<&Checkpointing>,
    ws: &mut PhaseWorkspace,
    deadline: Option<Instant>,
) -> Result<(ResilientOutcome, RecoveryReport), ResilientFailure> {
    let root = span!(parent, names::REDUCTION);
    let m = h.edge_count();
    let k = config.k;
    let mut coloring = Multicoloring::new(h.node_count());
    let mut residual: Vec<HyperedgeId> = h.edge_ids().collect();
    let mut fault_log: Vec<FaultEvent> = Vec::new();
    let mut records: Vec<PhaseRecord> = Vec::new();

    macro_rules! fail {
        ($error:expr) => {
            return Err(ResilientFailure {
                error: $error,
                partial: PartialOutcome { coloring, residual_edges: residual, records },
                fault_log,
            })
        };
    }
    // Every fault-log entry is mirrored as a `fault_events` tick so a
    // sink can cross-check the log length without seeing the log.
    macro_rules! fault {
        ($event:expr) => {{
            root.add(Counter::FaultEvents, 1);
            fault_log.push($event);
        }};
    }

    let Some(&primary) = chain.first() else {
        fail!(ReductionError::RetriesExhausted { phase: 0, attempts: 0 });
    };

    // `Auto` takes bit rows only for a primary that reads them: for any
    // other, λ and the oracle call would build the same `G_k` a second
    // time as CSR. Restriction, in the loop and in journal replay,
    // rebuilds with these options: a forced route stays, and `Auto`
    // re-resolves on every residual.
    let kernel = match config.kernel {
        KernelStrategy::Auto if !primary.supports_dense() => KernelStrategy::Csr,
        kernel => kernel,
    };
    // The phase budget needs λ before the first oracle call: the
    // primary's guarantee on the first-phase conflict graph (the
    // largest one — λ for Δ+1-type guarantees only shrinks as edges
    // vanish).
    let options = ConflictGraphOptions::with_kernel(kernel);
    // A run already overdue builds nothing: phase 0 never starts, even
    // on an instance with no edges, whose phase loop would not run.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        fail!(ReductionError::DeadlineExceeded { phase: 0 });
    }
    let mut cg = match ConflictGraph::build_traced(h, k, options, &root) {
        Ok(cg) => cg,
        Err(e) => fail!(ReductionError::ConflictGraphTooLarge(e)),
    };
    let Some(lambda) = config.lambda_override.or_else(|| lambda_for_phase(&cg, primary)) else {
        fail!(ReductionError::NoLambdaAvailable);
    };
    let rho = ReductionConfig::rho(lambda, m);
    let budget = config.max_phases.unwrap_or(rho).min(rho);
    // The decay invariant applies to primary-accepted phases of a
    // certified primary (fallback commits are already annotated in the
    // fault log); replay re-checks under the same gate.
    let enforce_decay = certified(primary) && config.lambda_override.is_none() && lambda >= 1.0;
    let trust = matches!(acquire, Acquire::Trust);

    let mut retries = 0usize;
    let mut fallbacks_engaged = 0usize;
    let mut phase = 0usize;
    // Cumulative `independent_set` invocations per chain slot: the
    // resume positions `MaxIsOracle::resume_at` restores on resume.
    let mut chain_calls: Vec<u64> = vec![0; chain.len()];
    let mut report = RecoveryReport::default();
    let mut journal: Option<PhaseJournal> = None;
    let crash = checkpoint.and_then(|c| c.crash.as_ref());

    if let Some(ckpt) = checkpoint {
        let header = JournalHeader {
            driver: if trust { DriverKind::Trusting } else { DriverKind::Resilient },
            k,
            lambda_bits: lambda.to_bits(),
            rho,
            budget,
            threads: config.parallelism.threads,
            instance_fingerprint: fingerprint_hypergraph(h),
            oracle_names: chain.iter().map(|o| o.name().to_string()).collect(),
        };
        let ctx = recovery::ReplayCtx { h, header, enforce_decay };
        let (j, startup) =
            match recovery::open_or_replay(ctx, ckpt, &mut cg, &mut coloring, &mut residual, &root)
            {
                Ok(replayed) => replayed,
                Err(e) => fail!(ReductionError::CheckpointFailed { message: e.to_string() }),
            };
        // The accepted prefix is the state to continue from; its last
        // record holds the running totals.
        phase = j.phases().len();
        records = j.phases().iter().map(|p| p.record.clone()).collect();
        fault_log = j.phases().iter().flat_map(|p| p.events.iter().cloned()).collect();
        if let Some(last) = j.phases().last() {
            chain_calls.clone_from(&last.chain_calls);
            retries = last.retries as usize;
            fallbacks_engaged = last.fallbacks as usize;
        }
        // Replayed events count on the mirror counter too, so
        // `fault_events == fault_log.len()` still holds on resume.
        root.add(Counter::FaultEvents, fault_log.len() as u64);
        report = startup;
        journal = Some(j);
        for (oracle, &calls) in chain.iter().zip(&chain_calls) {
            oracle.resume_at(calls as usize);
        }
    }

    while !residual.is_empty() && phase < budget {
        // Cooperative cancellation: overdue runs stop at the phase
        // boundary with salvage (whole committed phases only).
        if deadline.is_some_and(|d| Instant::now() >= d) {
            fail!(ReductionError::DeadlineExceeded { phase });
        }
        let phase_span = span!(root, names::PHASE, phase);
        let edges_before = residual.len();
        let phase_log_start = fault_log.len();
        // The journal stores the conflict graph's fingerprint *at phase
        // start* — the graph the set is about to be chosen on. The
        // dense and CSR routes fingerprint to the same value, so the
        // journal stays kernel-agnostic. No oracle reads it: Luby seeds
        // from degrees.
        let cg_fingerprint = journal.as_ref().map(|_| {
            let _span = span!(phase_span, names::FINGERPRINT);
            cg.fingerprint()
        });
        recovery::maybe_crash(crash, phase, CrashPoint::MidOracle);

        let memo = (trust && config.oracle_cache).then(|| cg.fingerprint());
        // A memo hit is re-verified independent on the live graph; a
        // collision evicts the stale entry and counts as a miss.
        let cached = memo.and_then(|fp| match ws.cache.get_verified(fp, &cg) {
            CacheLookup::Hit(set) => {
                phase_span.add(Counter::OracleCacheHits, 1);
                Some(set)
            }
            lookup => {
                let rejected = matches!(lookup, CacheLookup::Reject);
                phase_span.add(Counter::OracleCacheRejects, u64::from(rejected));
                phase_span.add(Counter::OracleCacheMisses, 1);
                None
            }
        });
        // `quota_required` is the Lemma 2.1 quota actually enforced on
        // the accepted set — journaled so replay re-demands exactly
        // what the original run demanded. It is 0 when none applied,
        // and on decomposed phases, whose per-component quotas do not
        // reduce to one whole-graph number.
        let (set, accepted_primary, quota_required) = 'acquire: {
            if let Some(set) = cached {
                break 'acquire (set, true, 0);
            }
            let exec = Some(config.parallelism)
                .filter(ParallelismOptions::is_parallel)
                .map(|options| ComponentExecutor::new(cg.graph(), options))
                .filter(ComponentExecutor::should_decompose);
            let walks = match &exec {
                None => {
                    let target =
                        Target::Whole { cg: &cg, scratch: &mut ws.scratch, edges: edges_before };
                    vec![walk_chain(chain, acquire, phase, target, &phase_span)]
                }
                Some(exec) => {
                    let parts = exec.partition();
                    phase_span.add(Counter::Components, parts.len() as u64);
                    phase_span.add(Counter::LargestComponent, parts.largest_size() as u64);
                    let mut comp_edges = vec![0usize; parts.len()];
                    for e in cg.hypergraph().edge_ids() {
                        comp_edges[parts.component_of(cg.block_start(e))] += 1;
                    }
                    let walks = exec.run(|c, sub| {
                        let comp_span = span!(phase_span, names::COMPONENT, c);
                        let target = Target::Component { c, sub, edges: comp_edges[c] };
                        walk_chain(chain, acquire, phase, target, &comp_span)
                    });
                    let attempts: usize = walks.iter().map(|w| w.attempts).sum();
                    phase_span.add(Counter::OracleCalls, attempts as u64);
                    walks
                }
            };
            // Aggregate in walk order (component id order): the fault
            // log, counters, and merge are deterministic however the
            // workers interleaved.
            let (mut attempts, mut accepted) = (0usize, 0usize);
            let (mut all_primary, mut quota) = (true, 0usize);
            let mut first_failed: Option<usize> = None;
            let mut sets = Vec::with_capacity(walks.len());
            for (c, walk) in walks.into_iter().enumerate() {
                attempts += walk.attempts;
                fallbacks_engaged += walk.fallbacks;
                phase_span.add(Counter::Fallbacks, walk.fallbacks as u64);
                for (total, calls) in chain_calls.iter_mut().zip(&walk.per_slot) {
                    *total += calls;
                }
                for event in walk.events {
                    fault!(event);
                }
                match walk.accepted {
                    Some(a) => {
                        accepted += 1;
                        all_primary &= a.slot == 0;
                        quota = a.quota;
                        sets.push(a.set);
                    }
                    None => {
                        first_failed.get_or_insert(c);
                        sets.push(IndependentSet::empty());
                    }
                }
            }
            retries += attempts - accepted;
            phase_span.add(Counter::Retries, (attempts - accepted) as u64);
            if let Some(c) = first_failed {
                fault!(FaultEvent {
                    phase,
                    attempt: attempts.saturating_sub(1),
                    oracle: chain.last().map_or_else(String::new, |o| o.name().to_string()),
                    component: exec.as_ref().map(|_| c),
                    kind: FaultEventKind::RetriesExhausted { attempts },
                });
                fail!(ReductionError::RetriesExhausted { phase, attempts });
            }
            match exec {
                Some(exec) => (exec.merge(sets), all_primary, 0),
                None => {
                    // The one whole-graph walk accepted its set; the
                    // memo keeps whole-graph answers only.
                    let set = sets.pop().unwrap_or_else(IndependentSet::empty);
                    if let Some(fp) = memo {
                        ws.cache.insert(fp, set.vertices().to_vec());
                    }
                    (set, all_primary, quota)
                }
            }
        };
        // A bitset-resident graph that also built its CSR (for λ, an
        // oracle or the component executor) cost a second `G_k` build.
        phase_span.add(Counter::LazyCsrBuilds, u64::from(cg.built_lazy_csr()));
        recovery::maybe_crash(crash, phase, CrashPoint::AfterOracle);

        let commit_span = span!(phase_span, names::COMMIT);
        let commit = commit_phase(h, &cg, &set, k, phase, &mut coloring, &mut residual);
        let PhaseRecord { edges_removed, edges_after, .. } = commit.record;
        commit_span.add(Counter::HappyEdges, edges_removed as u64);
        commit_span.close();
        phase_span.add(Counter::EdgesRemoved, edges_removed as u64);
        root.add(Counter::Phases, 1);
        records.push(commit.record.clone());

        if accepted_primary && enforce_decay && edges_after > decay_allowed(edges_before, lambda) {
            fail!(ReductionError::DecayViolated {
                phase,
                before: edges_before,
                after: edges_after,
                lambda,
            });
        }

        if let (Some(j), Some(cg_fingerprint)) = (journal.as_mut(), cg_fingerprint) {
            recovery::maybe_crash(crash, phase, CrashPoint::BeforeJournal);
            let write_span = span!(phase_span, names::CHECKPOINT_WRITE);
            let entry = JournalPhase {
                phase,
                cg_fingerprint,
                set: set.vertices().iter().map(|v| v.index() as u64).collect(),
                record: commit.record,
                quota_required,
                primary: accepted_primary,
                chain_calls: chain_calls.clone(),
                retries: retries as u64,
                fallbacks: fallbacks_engaged as u64,
                events: fault_log[phase_log_start..].to_vec(),
            };
            let bytes = match j.append_phase(entry) {
                Ok(bytes) => bytes,
                Err(e) => fail!(ReductionError::CheckpointFailed { message: e.to_string() }),
            };
            write_span.add(Counter::JournalBytes, bytes);
            write_span.close();
            report.journal_bytes = bytes;
            recovery::maybe_crash(crash, phase, CrashPoint::AfterJournal);
        }

        phase += 1;
        if !residual.is_empty() && phase < budget {
            let restrict_span = span!(phase_span, names::RESTRICT);
            cg = cg.restrict_to_edges(&commit.keep_pos);
            restrict_span.add(Counter::CsrBytes, cg.csr_bytes());
        }
    }

    if !residual.is_empty() {
        fail!(ReductionError::PhaseBudgetExhausted {
            rho: budget,
            remaining_edges: residual.len()
        });
    }

    debug_assert!(checker::is_conflict_free(h, &coloring));
    let total_colors = coloring.total_color_count();
    Ok((
        ResilientOutcome {
            reduction: ReductionOutcome {
                coloring,
                lambda,
                rho,
                phases_used: phase,
                total_colors,
                records,
                locality: LocalityBudget {
                    own_locality: 1,
                    oracle_calls: phase,
                    oracle_locality: oracle_locality(h.node_count()),
                },
            },
            fault_log,
            retries,
            fallbacks_engaged,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{CrashPlan, CrashSignal};
    use crate::reduction::reduce_cf_to_maxis;
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_maxis::{
        ExactOracle, FaultKind, FaultPlan, FaultyOracle, GreedyOracle, PrecisionOracle,
        WorstWitnessOracle,
    };
    use rand::SeedableRng;

    fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph
    }

    #[test]
    fn clean_run_matches_trusting_driver_exactly() {
        let k = 3;
        let h = planted(1, 36, 15, k);
        let base = reduce_cf_to_maxis(&h, &GreedyOracle, ReductionConfig::new(k)).unwrap();
        let res = reduce_cf_resilient(&h, &[&GreedyOracle], ResilientConfig::new(k)).unwrap();
        assert_eq!(res.reduction.records, base.records, "byte-identical phase records");
        assert_eq!(res.reduction.coloring, base.coloring);
        assert_eq!(res.reduction.lambda, base.lambda);
        assert_eq!(res.reduction.rho, base.rho);
        assert_eq!(res.reduction.total_colors, base.total_colors);
        // Both drivers charge the oracle the same ⌈log₂ n⌉ view radius
        // — the shared `oracle_locality` helper cannot drift.
        assert_eq!(res.reduction.locality, base.locality);
        assert!(res.fault_log.is_empty());
        assert_eq!(res.retries, 0);
        assert_eq!(res.fallbacks_engaged, 0);
    }

    #[test]
    fn every_single_fault_kind_is_survived_by_retry() {
        let k = 2;
        let h = planted(2, 28, 10, k);
        for kind in [
            FaultKind::InvalidSet,
            FaultKind::EmptySet,
            FaultKind::Panic,
            FaultKind::Stall(1_000_000),
        ] {
            let plan = FaultPlan::scripted(vec![Some(kind)]);
            let faulty = FaultyOracle::new(GreedyOracle, plan);
            let out = reduce_cf_resilient(&h, &[&faulty], ResilientConfig::new(k))
                .unwrap_or_else(|e| panic!("fault {kind:?} not survived: {e}"));
            assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
            assert!(out.retries >= 1, "fault {kind:?} must cost a retry");
            assert!(!out.fault_log.is_empty());
        }
    }

    #[test]
    fn under_delivery_below_certified_quota_is_caught() {
        let k = 2;
        let h = planted(8, 28, 10, k);
        // Exact's certified quota on a CF-k-colorable instance is the
        // full |E_i| (α(G_k) = m); halving it must trip the Lemma 2.1
        // delivery check, and the clean retry completes the run.
        let plan = FaultPlan::scripted(vec![Some(FaultKind::UnderDeliver)]);
        let faulty = FaultyOracle::new(ExactOracle, plan);
        let out = reduce_cf_resilient(&h, &[&faulty], ResilientConfig::new(k)).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert_eq!(out.retries, 1);
        assert!(out
            .fault_log
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::OracleUnderDelivered { .. })));
    }

    #[test]
    fn fallback_rescues_an_always_failing_primary() {
        let k = 2;
        let h = planted(3, 24, 8, k);
        // Primary panics on every call; Greedy fallback must carry the run.
        let broken =
            FaultyOracle::new(ExactOracle, FaultPlan::scripted(vec![Some(FaultKind::Panic); 64]));
        let cfg = ResilientConfig::new(k);
        let out = reduce_cf_resilient(&h, &[&broken, &GreedyOracle], cfg).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert!(out.fallbacks_engaged >= 1);
        assert!(out.fault_log.iter().any(|e| e.kind == FaultEventKind::FallbackEngaged));
        assert!(out.fault_log.iter().any(|e| e.kind == FaultEventKind::OraclePanicked));
    }

    #[test]
    fn exhausted_chain_salvages_partial_progress() {
        let k = 2;
        // 8 disjoint edges: a 1-triple-per-phase oracle removes exactly
        // one edge per phase, so the run cannot finish in phase 0.
        let h =
            Hypergraph::from_edges(16, (0..8).map(|i| vec![2 * i, 2 * i + 1]).collect::<Vec<_>>())
                .unwrap();
        // First call succeeds (phase 0 commits), everything after panics.
        let mut script = vec![None];
        script.extend(std::iter::repeat_n(Some(FaultKind::Panic), 64));
        let faulty = FaultyOracle::new(PrecisionOracle::new(1000.0), FaultPlan::scripted(script));
        let mut cfg = ResilientConfig::new(k);
        cfg.base.lambda_override = Some(3.0);
        let err = reduce_cf_resilient(&h, &[&faulty], cfg).unwrap_err();
        let ReductionError::RetriesExhausted { phase, attempts } = err.error else {
            panic!("expected RetriesExhausted, got {}", err.error);
        };
        assert_eq!(phase, 1, "phase 0 committed before the failures began");
        assert_eq!(attempts, cfg.max_retries + 1);
        assert_eq!(err.partial.records.len(), 1);
        assert!(!err.partial.residual_edges.is_empty());
        // Salvage is verified progress: edges outside the residual are
        // happy under the partial coloring.
        for e in h.edge_ids() {
            if !err.partial.residual_edges.contains(&e) {
                assert!(checker::is_edge_happy(&h, &err.partial.coloring, e));
            }
        }
        assert!(err.to_string().contains("salvageable"));
        assert!(err.source().is_some());
    }

    #[test]
    fn heuristic_primary_without_override_is_refused() {
        let h = planted(5, 20, 6, 2);
        let err =
            reduce_cf_resilient(&h, &[&WorstWitnessOracle], ResilientConfig::new(2)).unwrap_err();
        assert_eq!(err.error, ReductionError::NoLambdaAvailable);
        assert!(err.partial.records.is_empty());
        assert_eq!(err.partial.residual_edges.len(), h.edge_count());
    }

    #[test]
    fn empty_chain_fails_gracefully() {
        let h = planted(6, 20, 6, 2);
        let err = reduce_cf_resilient(&h, &[], ResilientConfig::new(2)).unwrap_err();
        assert!(matches!(err.error, ReductionError::RetriesExhausted { phase: 0, attempts: 0 }));
    }

    #[test]
    fn stall_backoff_admits_slow_oracle_on_retry() {
        let k = 2;
        let h = planted(7, 24, 8, k);
        // Stalls of 20 exceed tolerance 8 but fit 16 on the first
        // retry (8 << 1); a permanently-slow oracle still completes.
        let script = vec![Some(FaultKind::Stall(12)); 64];
        let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::scripted(script));
        let cfg = ResilientConfig { stall_tolerance: 8, ..ResilientConfig::new(k) };
        let out = reduce_cf_resilient(&h, &[&faulty], cfg).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert!(out
            .fault_log
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::OracleStalled { .. })));
    }

    #[test]
    fn stall_budget_saturates_instead_of_wrapping() {
        // The regression: `base << retry` wraps once the set bits shift
        // out — for base = 2^62 the old code handed retry 2 a budget of
        // 0 and rejected every call as stalled. Saturation must keep
        // the budget monotone non-decreasing across retries.
        for base in [1usize, 8, usize::MAX / 3, 1 << 62, usize::MAX] {
            let mut prev = 0usize;
            for retry in 0..=300 {
                let budget = stall_budget(base, retry);
                assert!(
                    budget >= prev,
                    "budget wrapped: base={base} retry={retry}: {budget} < {prev}"
                );
                assert!(budget >= base, "backoff may never shrink below the base");
                prev = budget;
            }
            assert_eq!(stall_budget(base, 300), usize::MAX, "large retries saturate");
        }
        // Exact doubling while it fits…
        assert_eq!(stall_budget(8, 0), 8);
        assert_eq!(stall_budget(8, 3), 64);
        assert_eq!(stall_budget(1, 63), 1 << 63);
        // …saturation exactly at the first lossy shift…
        assert_eq!(stall_budget(1, 64), usize::MAX);
        assert_eq!(stall_budget(1 << 62, 2), usize::MAX);
        // …and zero tolerance stays zero (0 · 2^retry = 0).
        assert_eq!(stall_budget(0, 100), 0);
    }

    #[test]
    fn huge_stall_tolerance_never_false_rejects() {
        // Driver-level regression: with stall_tolerance = 2^62 and many
        // retries, the pre-fix budget wrapped to 0 from retry 2 on, so
        // a clean oracle whose simulated stall fits the *base* budget
        // was falsely rejected forever. Post-fix the saturated budget
        // admits it on every attempt.
        let k = 2;
        let h = planted(9, 24, 8, k);
        let script = vec![Some(FaultKind::Stall(usize::MAX)); 64];
        let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::scripted(script));
        let cfg =
            ResilientConfig { stall_tolerance: 1 << 62, max_retries: 8, ..ResilientConfig::new(k) };
        // A stall of usize::MAX steps exceeds tolerance 2^62 on attempt
        // 0, but retry 1's budget is 2^63 — still short — and retry 2
        // saturates at usize::MAX, admitting the call. Pre-fix, retry 2
        // wrapped to 0 and the run died with RetriesExhausted.
        let out = reduce_cf_resilient(&h, &[&faulty], cfg).unwrap();
        assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
        assert!(out
            .fault_log
            .iter()
            .all(|e| !matches!(e.kind, FaultEventKind::RetriesExhausted { .. })));
    }

    #[test]
    fn traced_resilient_run_attributes_attempts_and_faults() {
        use pslocal_telemetry::{Counter, MemorySink, Telemetry};
        let k = 2;
        let h = planted(10, 28, 10, k);
        let plan = FaultPlan::scripted(vec![Some(FaultKind::Panic), Some(FaultKind::Stall(50))]);
        let faulty = FaultyOracle::new(GreedyOracle, plan);
        let tel = Telemetry::new(MemorySink::new());
        let ws = &mut PhaseWorkspace::new();
        let out = reduce_cf_resilient_with_workspace(
            &h,
            &[&faulty],
            ResilientConfig::new(k),
            &tel,
            ws,
            None,
        )
        .unwrap();
        let sink = tel.into_sink();
        assert!(sink.open_spans().is_empty(), "caught panic must not orphan the oracle span");
        assert_eq!(sink.counter_total(Counter::FaultEvents), out.fault_log.len() as u64);
        assert_eq!(sink.counter_total(Counter::Retries), out.retries as u64);
        let spans = sink.spans();
        let oracle_spans =
            spans.iter().filter(|s| s.name == pslocal_telemetry::names::ORACLE).count();
        // Every committed phase spends one accepted attempt, plus one
        // span per rejected attempt (= retries).
        let attempts = out.reduction.phases_used + out.retries;
        assert_eq!(oracle_spans, attempts, "one oracle span per attempt");
    }

    #[test]
    fn fault_event_display_is_informative() {
        let e = FaultEvent {
            phase: 2,
            attempt: 1,
            oracle: "greedy".into(),
            component: None,
            kind: FaultEventKind::OracleUnderDelivered { delivered: 1, required: 4 },
        };
        let s = e.to_string();
        assert!(s.contains("phase 2"));
        assert!(s.contains("greedy"));
        assert!(s.contains("under-delivered"));
        assert!(!s.contains("component"), "serial events stay component-free");
        let p = FaultEvent { component: Some(3), ..e };
        assert!(p.to_string().contains("component 3"));
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pslocal-resilient-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn resumable_clean_run_matches_the_plain_resilient_run() {
        let k = 3;
        let h = planted(31, 36, 15, k);
        let base = reduce_cf_resilient(&h, &[&GreedyOracle], ResilientConfig::new(k)).unwrap();
        let dir = ckpt_dir("clean");
        let tel = Telemetry::disabled();
        let (out, report) = reduce_cf_resilient_resumable(
            &h,
            &[&GreedyOracle],
            ResilientConfig::new(k),
            &Checkpointing::new(&dir),
            &tel,
        )
        .unwrap();
        assert_eq!(out.reduction.records, base.reduction.records);
        assert_eq!(out.reduction.coloring, base.reduction.coloring);
        assert!(!report.resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_crash_replays_faults_and_stays_byte_identical() {
        // A flaky primary (panics on its 2nd call) forces retries, so
        // the journal must carry both the fault events and the oracle's
        // cumulative call count for the resumed run to realign the
        // schedule. Fresh FaultyOracle instances before each run keep
        // the schedule itself deterministic.
        let k = 3;
        let h = planted(32, 40, 18, k);
        // λ = 4 keeps the run multi-phase (Greedy would finish planted
        // instances in one).
        let plan = || {
            FaultPlan::scripted(vec![None, Some(FaultKind::Panic), None, None, None, None, None])
        };
        let cfg = || ResilientConfig { max_retries: 2, ..ResilientConfig::new(k) };
        let baseline = {
            let flaky = FaultyOracle::new(PrecisionOracle::new(4.0), plan());
            reduce_cf_resilient(&h, &[&flaky], cfg()).unwrap()
        };
        assert!(baseline.reduction.phases_used >= 2, "need phases to interrupt");
        assert_eq!(baseline.retries, 1, "the scripted panic must actually fire");
        let dir = ckpt_dir("crash");
        let tel = Telemetry::disabled();
        {
            let flaky = FaultyOracle::new(PrecisionOracle::new(4.0), plan());
            let ckpt = Checkpointing::new(&dir)
                .with_crash(CrashPlan::panicking(1, CrashPoint::BeforeJournal));
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(reduce_cf_resilient_resumable(&h, &[&flaky], cfg(), &ckpt, &tel));
            }))
            .expect_err("kill point fires");
            assert!(
                died.downcast_ref::<CrashSignal>().is_some(),
                "the kill point's CrashSignal escapes the driver"
            );
        }
        let flaky = FaultyOracle::new(PrecisionOracle::new(4.0), plan());
        let (out, report) = reduce_cf_resilient_resumable(
            &h,
            &[&flaky],
            cfg(),
            &Checkpointing::new(&dir).resuming(),
            &tel,
        )
        .unwrap();
        assert!(report.resumed);
        assert_eq!(report.phases_recovered, 1);
        assert_eq!(out.reduction.records, baseline.reduction.records);
        assert_eq!(out.reduction.coloring, baseline.reduction.coloring);
        assert_eq!(out.retries, baseline.retries);
        assert_eq!(out.fault_log, baseline.fault_log, "fault log survives the crash");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
