//! Chaos tests: the resilient reduction driver against randomized
//! fault schedules.
//!
//! The invariant under test (see `pslocal::core::resilient`):
//!
//! > For **every** fault schedule, `reduce_cf_resilient` either returns
//! > a verified conflict-free multicoloring or a typed error with a
//! > salvageable partial outcome. It never panics and never returns an
//! > invalid coloring.
//!
//! Plus two determinism obligations: identical seeds produce identical
//! fault logs and outcomes, and a fault rate of 0 reproduces the
//! trusting driver `reduce_cf_to_maxis` byte-for-byte (`PhaseRecord`s
//! and coloring).
//!
//! Every schedule runs with telemetry enabled (an in-memory sink), and
//! the recorded span tree is cross-checked against the `FaultEvent`
//! log: one `oracle` span per attempt, phase indices matching the
//! records, no orphaned spans even after a caught oracle panic.

// `ResilientFailure` is deliberately large: it carries the salvaged
// partial outcome, which these tests inspect.
#![allow(clippy::result_large_err)]

use proptest::prelude::*;
use pslocal::cfcolor::checker;
use pslocal::core::{
    reduce_cf_resilient, reduce_cf_resilient_with_workspace, reduce_cf_to_maxis,
    ComponentPartition, ConflictGraph, FaultEvent, FaultEventKind, PhaseWorkspace, ReductionConfig,
    ReductionError, ResilientConfig, ResilientFailure, ResilientOutcome,
};
use pslocal::graph::generators::hyper::{
    multi_component_cf_instance, planted_cf_instance, PlantedCfInstance, PlantedCfParams,
};
use pslocal::graph::Hypergraph;
use pslocal::maxis::{FaultKind, FaultPlan, FaultyOracle, GreedyOracle, MaxIsOracle};
use pslocal::telemetry::{names, Counter, MemorySink, Telemetry};
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn planted() -> impl Strategy<Value = PlantedCfInstance> {
    (0u64..5000, 2usize..4, 4usize..12).prop_map(|(seed, k, m)| {
        let n = 8 * k + (seed as usize % 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k))
    })
}

/// The fault rates the robustness experiment sweeps; index 0 is the
/// clean baseline.
const RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

/// Is this fault-log entry one rejected oracle attempt? (`Fallback
/// Engaged` / `RetriesExhausted` are bookkeeping, not attempts.)
fn is_rejected_attempt(event: &FaultEvent) -> bool {
    matches!(
        event.kind,
        FaultEventKind::OraclePanicked
            | FaultEventKind::OracleInvalidOutput
            | FaultEventKind::OracleUnderDelivered { .. }
            | FaultEventKind::OracleStalled { .. }
    )
}

/// Cross-checks the recorded span tree against the driver's fault log:
///
/// * no orphaned spans (guards close even across a caught panic);
/// * the `fault_events` counter equals the log length;
/// * phase spans are indexed `0..p` contiguously, all under one
///   `reduction` root, where `p` is `committed` or `committed + 1`
///   (a final phase that failed before committing);
/// * each phase holds exactly one `oracle` span per attempt — the
///   rejected ones logged as faults, plus the accepted one iff the
///   phase committed — indexed `0..attempts` in order.
fn assert_telemetry_consistent(sink: &MemorySink, fault_log: &[FaultEvent], committed: usize) {
    assert!(sink.open_spans().is_empty(), "orphaned spans after the run");
    assert_eq!(
        sink.counter_total(Counter::FaultEvents),
        fault_log.len() as u64,
        "fault_events counter must mirror the fault log"
    );
    let spans = sink.spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.name == names::REDUCTION).collect();
    assert_eq!(roots.len(), 1, "exactly one reduction root span");
    let root_id = roots[0].id;

    let phase_spans: Vec<_> = spans.iter().filter(|s| s.name == names::PHASE).collect();
    for (i, p) in phase_spans.iter().enumerate() {
        assert_eq!(p.parent, Some(root_id), "phase spans hang off the root");
        assert_eq!(p.index, Some(i as u64), "phase spans indexed 0..p in order");
    }
    assert!(
        phase_spans.len() == committed || phase_spans.len() == committed + 1,
        "{} phase spans for {committed} committed phases",
        phase_spans.len()
    );

    for (i, p) in phase_spans.iter().enumerate() {
        let oracle_indices: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == names::ORACLE && s.parent == Some(p.id))
            .map(|s| s.index.expect("oracle spans are attempt-indexed"))
            .collect();
        let rejected = fault_log.iter().filter(|e| e.phase == i && is_rejected_attempt(e)).count();
        let attempts = rejected + usize::from(i < committed);
        assert_eq!(
            oracle_indices,
            (0..attempts as u64).collect::<Vec<_>>(),
            "phase {i}: one oracle span per attempt, in order"
        );
    }
}

/// Runs the resilient driver under a seeded fault plan — telemetry
/// enabled on every run — and asserts the full chaos invariant on
/// whatever comes back, including span-tree/fault-log consistency.
fn assert_invariant(
    h: &Hypergraph,
    k: usize,
    fault_seed: u64,
    rate: f64,
    with_fallback: bool,
) -> Result<ResilientOutcome, ResilientFailure> {
    let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::seeded(fault_seed, rate));
    let chain: Vec<&dyn MaxIsOracle> =
        if with_fallback { vec![&faulty, &GreedyOracle] } else { vec![&faulty] };
    let config = ResilientConfig::new(k);

    // Never a panic — injected oracle panics must be isolated inside
    // the driver, not escape to the caller.
    let tel = Telemetry::new(MemorySink::new());
    let ws = &mut PhaseWorkspace::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        reduce_cf_resilient_with_workspace(h, &chain, config, &tel, ws, None)
    }))
    .unwrap_or_else(|_| {
        panic!("driver panicked (seed {fault_seed}, rate {rate}) — invariant broken")
    });

    let (fault_log, committed) = match &result {
        Ok(out) => (&out.fault_log, out.reduction.phases_used),
        Err(fail) => (&fail.fault_log, fail.partial.records.len()),
    };
    assert_telemetry_consistent(tel.sink(), fault_log, committed);

    match &result {
        Ok(out) => {
            // Never an invalid coloring.
            assert!(
                checker::is_conflict_free(h, &out.reduction.coloring),
                "driver returned a non-conflict-free coloring (seed {fault_seed}, rate {rate})"
            );
            assert!(out.reduction.phases_used <= out.reduction.rho);
            assert!(
                out.reduction.total_colors <= k * out.reduction.phases_used.max(1),
                "color bound k·phases violated"
            );
            // Records chain down to zero residual edges.
            let mut prev = h.edge_count();
            for r in &out.reduction.records {
                assert_eq!(r.edges_before, prev);
                assert_eq!(r.edges_before - r.edges_removed, r.edges_after);
                prev = r.edges_after;
            }
            assert_eq!(prev, 0);
        }
        Err(fail) => {
            // Typed error...
            assert!(matches!(
                fail.error,
                ReductionError::RetriesExhausted { .. }
                    | ReductionError::PhaseBudgetExhausted { .. }
                    | ReductionError::DecayViolated { .. }
                    | ReductionError::NoLambdaAvailable
            ));
            // ...with salvageable, *verified* partial progress: every
            // edge outside the residual is happy under the partial
            // coloring, every residual edge is not.
            for e in h.edge_ids() {
                let happy = checker::is_edge_happy(h, &fail.partial.coloring, e);
                let residual = fail.partial.residual_edges.contains(&e);
                assert_eq!(happy, !residual, "salvage misclassifies edge {e:?}");
            }
            for (i, r) in fail.partial.records.iter().enumerate() {
                assert_eq!(r.phase, i, "one record per committed phase, in order");
            }
        }
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The chaos invariant across 256+ randomized (instance, seed,
    /// rate, chain-shape) cases.
    #[test]
    fn resilient_driver_survives_every_fault_schedule(
        inst in planted(),
        fault_seed in 0u64..1_000_000,
        rate_idx in 0usize..RATES.len(),
        fallback_bit in 0usize..2,
    ) {
        let _ = assert_invariant(
            &inst.hypergraph,
            inst.k,
            fault_seed,
            RATES[rate_idx],
            fallback_bit == 1,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a clean fallback in the chain, the run always succeeds —
    /// the fallback rescues any primary misbehavior.
    #[test]
    fn clean_fallback_always_rescues(
        inst in planted(),
        fault_seed in 0u64..1_000_000,
        rate_idx in 0usize..RATES.len(),
    ) {
        let out = assert_invariant(
            &inst.hypergraph,
            inst.k,
            fault_seed,
            RATES[rate_idx],
            true,
        );
        prop_assert!(out.is_ok(), "clean greedy fallback must carry every run");
    }

    /// Determinism: the same (instance, fault seed, rate) twice gives
    /// identical outcomes AND identical fault logs, both the driver's
    /// `FaultEvent` log and the wrapper's `InjectedFault` log.
    #[test]
    fn fault_schedules_are_deterministic(
        inst in planted(),
        fault_seed in 0u64..1_000_000,
        rate_idx in 1usize..RATES.len(), // nonzero rates: logs non-trivial
    ) {
        let rate = RATES[rate_idx];
        let config = ResilientConfig::new(inst.k);
        let run = || {
            let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::seeded(fault_seed, rate));
            let result = reduce_cf_resilient(&inst.hypergraph, &[&faulty], config);
            (result, faulty.fault_log(), faulty.calls())
        };
        let (a, log_a, calls_a) = run();
        let (b, log_b, calls_b) = run();
        prop_assert_eq!(log_a, log_b, "injected-fault logs must be identical");
        prop_assert_eq!(calls_a, calls_b);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.reduction.coloring, y.reduction.coloring);
                prop_assert_eq!(x.reduction.records, y.reduction.records);
                prop_assert_eq!(x.fault_log, y.fault_log);
                prop_assert_eq!(x.retries, y.retries);
                prop_assert_eq!(x.fallbacks_engaged, y.fallbacks_engaged);
            }
            (Err(x), Err(y)) => {
                prop_assert_eq!(x.error, y.error);
                prop_assert_eq!(x.fault_log, y.fault_log);
                prop_assert_eq!(x.partial.coloring, y.partial.coloring);
                prop_assert_eq!(x.partial.residual_edges, y.partial.residual_edges);
            }
            _ => prop_assert!(false, "one run succeeded, the other failed"),
        }
    }

    /// Fault rate 0 is byte-identical to the trusting driver: same
    /// `PhaseRecord`s, same coloring, same budget, empty fault log.
    #[test]
    fn rate_zero_reproduces_trusting_driver(inst in planted(), fault_seed in 0u64..1_000_000) {
        let base = reduce_cf_to_maxis(
            &inst.hypergraph,
            &GreedyOracle,
            ReductionConfig::new(inst.k),
        ).expect("greedy completes on planted instances");
        let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::seeded(fault_seed, 0.0));
        let out = reduce_cf_resilient(
            &inst.hypergraph,
            &[&faulty],
            ResilientConfig::new(inst.k),
        ).expect("rate 0 behaves exactly like the trusting driver");
        prop_assert_eq!(out.reduction.records, base.records);
        prop_assert_eq!(out.reduction.coloring, base.coloring);
        prop_assert_eq!(out.reduction.lambda, base.lambda);
        prop_assert_eq!(out.reduction.rho, base.rho);
        prop_assert_eq!(out.reduction.phases_used, base.phases_used);
        prop_assert_eq!(out.reduction.total_colors, base.total_colors);
        prop_assert!(out.fault_log.is_empty());
        prop_assert_eq!(out.retries, 0);
        prop_assert_eq!(out.fallbacks_engaged, 0);
        prop_assert!(faulty.fault_log().is_empty());
    }
}

// ---------------------------------------------------------------------------
// Component-parallel chaos: faults on the decomposed path stay local.
// ---------------------------------------------------------------------------

/// Span-shape check for *parallel* phases (the serial
/// [`assert_telemetry_consistent`] shape — oracle spans directly under
/// phase spans — does not apply once phases decompose):
///
/// * no orphaned spans;
/// * every `component` span hangs off a `phase` span;
/// * every `oracle` span hangs off either a `component` span (decomposed
///   phase) or a `phase` span (serial fast-path phase), and at least one
///   of the former exists;
/// * the `components` counter was emitted.
fn assert_parallel_span_shape(sink: &MemorySink) {
    assert!(sink.open_spans().is_empty(), "orphaned spans after the run");
    let spans = sink.spans();
    let phase_ids: std::collections::HashSet<_> =
        spans.iter().filter(|s| s.name == names::PHASE).map(|s| s.id).collect();
    let comp_spans: Vec<_> = spans.iter().filter(|s| s.name == names::COMPONENT).collect();
    assert!(!comp_spans.is_empty(), "a decomposed run must record component spans");
    for c in &comp_spans {
        assert!(
            c.parent.is_some_and(|p| phase_ids.contains(&p)),
            "component spans hang off phase spans"
        );
    }
    let comp_ids: std::collections::HashSet<_> = comp_spans.iter().map(|s| s.id).collect();
    let mut under_component = 0usize;
    for o in spans.iter().filter(|s| s.name == names::ORACLE) {
        let parent = o.parent.expect("oracle spans are never roots");
        assert!(
            comp_ids.contains(&parent) || phase_ids.contains(&parent),
            "oracle spans hang off component or phase spans"
        );
        under_component += usize::from(comp_ids.contains(&parent));
    }
    assert!(under_component > 0, "decomposed phases record oracle spans under components");
    assert!(sink.counter_total(Counter::Components) > 0, "components counter emitted");
}

/// One scripted panic against a multi-component instance on the
/// parallel resilient path: the fault is isolated to the component it
/// hit. Exactly ONE extra oracle call happens (that component's retry —
/// not a whole-phase redo), the fault log carries the component id, and
/// the outcome is byte-identical to a clean parallel run.
#[test]
fn component_fault_retries_only_its_component() {
    let k = 3usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let inst = multi_component_cf_instance(&mut rng, PlantedCfParams::new(24, 6, k), 4);
    let parts = ComponentPartition::of(ConflictGraph::build(&inst.hypergraph, k).graph()).len();
    assert!(parts >= 4, "disjoint copies must yield ≥ 4 components, got {parts}");

    let mut config = ResilientConfig::new(k);
    config.base = config.base.with_threads(2);

    // Clean parallel baseline: how many oracle calls does the run make,
    // and what does it produce?
    let clean = FaultyOracle::new(GreedyOracle, FaultPlan::none());
    let base = reduce_cf_resilient(&inst.hypergraph, &[&clean], config)
        .expect("clean parallel run completes");
    let baseline_calls = clean.calls();
    assert!(baseline_calls >= parts, "phase 0 alone solves each component");

    // Same run, but the first oracle call (whichever component's worker
    // claims it) panics.
    let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::scripted(vec![Some(FaultKind::Panic)]));
    let tel = Telemetry::new(MemorySink::new());
    let ws = &mut PhaseWorkspace::new();
    let out =
        reduce_cf_resilient_with_workspace(&inst.hypergraph, &[&faulty], config, &tel, ws, None)
            .expect("one panicking component must not sink the run");

    // Isolation: exactly one extra call — the faulted component was
    // re-solved alone, the other components' results were kept.
    assert_eq!(faulty.calls(), baseline_calls + 1, "only the faulted component may be retried");
    assert_eq!(out.retries, 1, "one component retry, not a phase redo");
    assert_eq!(out.fallbacks_engaged, 0);

    // The fault log pins the event to a component.
    assert_eq!(out.fault_log.len(), 1);
    let event = &out.fault_log[0];
    assert_eq!(event.kind, FaultEventKind::OraclePanicked);
    assert_eq!(event.phase, 0);
    assert!(event.component.is_some(), "parallel-path faults carry their component id");
    assert!(event.component.unwrap() < parts);

    // Recovery is exact: same records and coloring as the clean run.
    assert_eq!(out.reduction.records, base.reduction.records);
    assert_eq!(out.reduction.coloring, base.reduction.coloring);
    assert!(checker::is_conflict_free(&inst.hypergraph, &out.reduction.coloring));

    // Telemetry has the parallel shape and mirrors the fault log.
    assert_parallel_span_shape(tel.sink());
    assert_eq!(tel.sink().counter_total(Counter::FaultEvents), 1);
    assert!(tel.sink().counter_total(Counter::ParallelOracleCalls) >= parts as u64);
}

/// The core chaos invariant — never a panic, never an invalid coloring,
/// typed errors with verified salvage — restated for the *parallel*
/// resilient driver. Scheduling races make the call order (and thus
/// which component a seeded fault lands on) nondeterministic, so this
/// asserts only schedule-independent properties.
fn assert_parallel_invariant(h: &Hypergraph, k: usize, fault_seed: u64, rate: f64, threads: usize) {
    let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::seeded(fault_seed, rate));
    let chain: Vec<&dyn MaxIsOracle> = vec![&faulty, &GreedyOracle];
    let mut config = ResilientConfig::new(k);
    config.base = config.base.with_threads(threads);

    let result = catch_unwind(AssertUnwindSafe(|| reduce_cf_resilient(h, &chain, config)))
        .unwrap_or_else(|_| {
            panic!("parallel driver panicked (seed {fault_seed}, rate {rate}, {threads} threads)")
        });
    match result {
        Ok(out) => {
            assert!(
                checker::is_conflict_free(h, &out.reduction.coloring),
                "parallel driver returned a non-conflict-free coloring"
            );
            let mut prev = h.edge_count();
            for r in &out.reduction.records {
                assert_eq!(r.edges_before, prev);
                prev = r.edges_after;
            }
            assert_eq!(prev, 0);
        }
        Err(fail) => {
            for e in h.edge_ids() {
                let happy = checker::is_edge_happy(h, &fail.partial.coloring, e);
                assert_eq!(happy, !fail.partial.residual_edges.contains(&e));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chaos invariant on the component-parallel path: multi-component
    /// instances, 2 worker threads, seeded fault schedules at every
    /// experiment rate.
    #[test]
    fn parallel_resilient_driver_survives_fault_schedules(
        seed in 0u64..5000,
        copies in 2usize..5,
        fault_seed in 0u64..1_000_000,
        rate_idx in 0usize..RATES.len(),
    ) {
        let k = 3usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inst =
            multi_component_cf_instance(&mut rng, PlantedCfParams::new(24, 5, k), copies);
        assert_parallel_invariant(&inst.hypergraph, k, fault_seed, RATES[rate_idx], 2);
    }
}
