//! Serial/parallel equivalence of component-parallel phase execution.
//!
//! The contract under test (see `pslocal::core::components`): the
//! number of worker threads is an *execution* parameter, never a
//! *semantic* one. For every instance and every thread count, both
//! drivers produce byte-identical outcomes to their serial runs —
//! same `PhaseRecord`s, same coloring, same color budget.
//!
//! Two regression guards ride along: graphs that do not decompose
//! (single-component or empty conflict graphs) must take the serial
//! fast path even when threads are requested — verified through
//! telemetry, which records no `component` spans and no decomposition
//! counters on the fast path.

use proptest::prelude::*;
use pslocal::cfcolor::checker;
use pslocal::core::{
    reduce_cf_resilient, reduce_cf_to_maxis, reduce_cf_to_maxis_traced, ReductionConfig,
    ResilientConfig,
};
use pslocal::graph::generators::hyper::{
    multi_component_cf_instance, PlantedCfInstance, PlantedCfParams,
};
use pslocal::graph::{HypergraphBuilder, NodeId};
use pslocal::maxis::{GreedyOracle, MaxIsOracle};
use pslocal::telemetry::{names, Counter, MemorySink, Telemetry};
use rand::SeedableRng;

/// The thread counts the acceptance criterion sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Vertex-disjoint planted copies, so `G_k` has ≥ `copies` components.
fn multi() -> impl Strategy<Value = PlantedCfInstance> {
    (0u64..5000, 2usize..5, 2usize..4, 4usize..8).prop_map(|(seed, copies, k, m)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        multi_component_cf_instance(&mut rng, PlantedCfParams::new(8 * k, m, k), copies)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trusting driver: every thread count reproduces the serial run
    /// byte-for-byte on multi-component instances.
    #[test]
    fn trusting_driver_is_thread_count_invariant(inst in multi()) {
        let serial = reduce_cf_to_maxis(
            &inst.hypergraph,
            &GreedyOracle,
            ReductionConfig::new(inst.k),
        ).expect("greedy completes on planted instances");
        prop_assert!(checker::is_conflict_free(&inst.hypergraph, &serial.coloring));
        for &threads in &THREADS {
            let par = reduce_cf_to_maxis(
                &inst.hypergraph,
                &GreedyOracle,
                ReductionConfig::new(inst.k).with_threads(threads),
            ).expect("parallel run completes whenever serial does");
            prop_assert_eq!(&par.records, &serial.records, "records differ at {} threads", threads);
            prop_assert_eq!(&par.coloring, &serial.coloring, "coloring differs at {} threads", threads);
            prop_assert_eq!(par.lambda, serial.lambda);
            prop_assert_eq!(par.rho, serial.rho);
            prop_assert_eq!(par.phases_used, serial.phases_used);
            prop_assert_eq!(par.total_colors, serial.total_colors);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Resilient driver (clean oracle): every thread count reproduces
    /// the serial run — same reduction, empty fault log, zero retries.
    #[test]
    fn resilient_driver_is_thread_count_invariant(inst in multi()) {
        let chain: Vec<&dyn MaxIsOracle> = vec![&GreedyOracle];
        let serial = reduce_cf_resilient(
            &inst.hypergraph,
            &chain,
            ResilientConfig::new(inst.k),
        ).expect("clean serial run completes");
        for &threads in &THREADS {
            let mut config = ResilientConfig::new(inst.k);
            config.base = config.base.with_threads(threads);
            let par = reduce_cf_resilient(&inst.hypergraph, &chain, config)
                .expect("clean parallel run completes");
            prop_assert_eq!(&par.reduction.records, &serial.reduction.records);
            prop_assert_eq!(&par.reduction.coloring, &serial.reduction.coloring);
            prop_assert_eq!(par.reduction.total_colors, serial.reduction.total_colors);
            prop_assert!(par.fault_log.is_empty());
            prop_assert_eq!(par.retries, 0);
            prop_assert_eq!(par.fallbacks_engaged, 0);
        }
    }
}

/// Asserts the telemetry of a run that must have taken the serial fast
/// path: no `component` spans, no decomposition counters. (This is the
/// machine-checkable proxy for "no worker threads were spawned" — the
/// decomposed path always records both.)
fn assert_serial_fast_path(sink: &MemorySink) {
    assert!(sink.open_spans().is_empty());
    assert!(
        !sink.spans().iter().any(|s| s.name == names::COMPONENT),
        "fast path must not open component spans"
    );
    assert_eq!(sink.counter_total(Counter::Components), 0);
    assert_eq!(sink.counter_total(Counter::ParallelOracleCalls), 0);
}

/// A single hyperedge's conflict-graph block is an `E_edge` clique, so
/// `G_k` is connected: requesting 8 threads must hit the
/// single-component fast path and match the serial run exactly.
#[test]
fn single_component_takes_the_serial_fast_path() {
    let mut b = HypergraphBuilder::new(3);
    b.add_edge([NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    let h = b.build();
    let k = 3;

    let serial_sink = Telemetry::new(MemorySink::new());
    let serial =
        reduce_cf_to_maxis_traced(&h, &GreedyOracle, ReductionConfig::new(k), &serial_sink)
            .expect("serial run completes");

    let par_sink = Telemetry::new(MemorySink::new());
    let par = reduce_cf_to_maxis_traced(
        &h,
        &GreedyOracle,
        ReductionConfig::new(k).with_threads(8),
        &par_sink,
    )
    .expect("parallel run completes");

    assert_eq!(par.records, serial.records);
    assert_eq!(par.coloring, serial.coloring);
    assert_serial_fast_path(par_sink.sink());
    // And the span trees agree shape-for-shape with the serial run.
    assert_eq!(par_sink.sink().spans().len(), serial_sink.sink().spans().len());
}

/// An edgeless hypergraph reduces in zero phases; with threads
/// requested, nothing decomposes and nothing spawns.
#[test]
fn empty_graph_takes_the_serial_fast_path() {
    let h = HypergraphBuilder::new(4).build();
    let sink = Telemetry::new(MemorySink::new());
    let out = reduce_cf_to_maxis_traced(
        &h,
        &GreedyOracle,
        ReductionConfig::new(2).with_threads(8),
        &sink,
    )
    .expect("empty instance is trivially done");
    assert_eq!(out.phases_used, 0);
    assert_eq!(out.total_colors, 0);
    assert_serial_fast_path(sink.sink());
}

/// The resilient driver's fast path mirrors the trusting one: a
/// connected instance with threads requested records the serial span
/// shape and a clean outcome.
#[test]
fn resilient_single_component_takes_the_serial_fast_path() {
    let mut b = HypergraphBuilder::new(3);
    b.add_edge([NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    let h = b.build();

    let mut config = ResilientConfig::new(3);
    config.base = config.base.with_threads(8);
    let chain: Vec<&dyn MaxIsOracle> = vec![&GreedyOracle];
    let sink = Telemetry::new(MemorySink::new());
    let ws = &mut pslocal::core::PhaseWorkspace::new();
    let out =
        pslocal::core::reduce_cf_resilient_with_workspace(&h, &chain, config, &sink, ws, None)
            .expect("clean run completes");
    assert!(out.fault_log.is_empty());
    assert!(checker::is_conflict_free(&h, &out.reduction.coloring));
    assert_serial_fast_path(sink.sink());
}
