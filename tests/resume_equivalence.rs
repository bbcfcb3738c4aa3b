//! Resume equivalence: a reduction killed at **any** kill point of any
//! phase and then resumed must produce output byte-identical to the
//! uninterrupted run — same `PhaseRecord`s, same coloring, same color
//! count — on both drivers, for serial and component-parallel
//! execution, and on the CSR and the bit-row adjacency routes alike.
//!
//! The kill points (`pslocal::core::recovery::CrashPlan`) bracket every
//! durability boundary of a phase: mid-oracle, after the set is
//! acquired but before commit, before the journal append, and after
//! it. Crashing *after* the append and re-running the phase is the
//! idempotence case; crashing *before* loses the phase and re-derives
//! it. Either way the resumed run leaves the journal byte for byte as
//! an uninterrupted checkpointed run writes it.

// `ResilientFailure` deliberately carries the salvaged partial outcome.
#![allow(clippy::result_large_err)]

use pslocal::core::{
    reduce_cf_resilient, reduce_cf_resilient_resumable, reduce_cf_to_maxis,
    reduce_cf_to_maxis_resumable, Checkpointing, CrashPlan, CrashPoint, CrashSignal, PhaseJournal,
    ReductionConfig, ResilientConfig,
};
use pslocal::graph::generators::hyper::{
    multi_component_cf_instance, planted_cf_instance, PlantedCfParams,
};
use pslocal::graph::{Hypergraph, KernelStrategy};
use pslocal::maxis::{FaultKind, FaultPlan, FaultyOracle, PrecisionOracle};
use pslocal::telemetry::Telemetry;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, collision-free checkpoint directory per crash scenario.
fn ckpt_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pslocal-resume-eq-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads the journal a run left in `dir`, then removes `dir`.
fn take_journal(dir: &Path) -> Vec<u8> {
    let bytes = std::fs::read(PhaseJournal::file_path(dir)).expect("journal exists");
    let _ = std::fs::remove_dir_all(dir);
    bytes
}

const KILL_POINTS: [CrashPoint; 4] = [
    CrashPoint::MidOracle,
    CrashPoint::AfterOracle,
    CrashPoint::BeforeJournal,
    CrashPoint::AfterJournal,
];

/// λ = 4 keeps every run here multi-phase: a 4-approximation of MaxIS
/// on the conflict graph can only retire about a quarter of the edges
/// per phase.
fn weak_oracle() -> PrecisionOracle {
    PrecisionOracle::new(4.0)
}

fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph
}

fn multi_component(seed: u64, copies: usize, k: usize) -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    multi_component_cf_instance(&mut rng, PlantedCfParams::new(24, 10, k), copies).hypergraph
}

#[test]
fn trusting_driver_resumes_identically_from_every_kill_point() {
    let k = 3;
    for (tag, threads, kernel, h) in [
        ("serial", 1usize, KernelStrategy::Auto, planted(40, 40, 18, k)),
        ("parallel", 4, KernelStrategy::Auto, multi_component(41, 4, k)),
        ("bitset", 1, KernelStrategy::Bitset, planted(45, 40, 18, k)),
    ] {
        let oracle = weak_oracle();
        let config = ReductionConfig { kernel, ..ReductionConfig::new(k).with_threads(threads) };
        let base = reduce_cf_to_maxis(&h, &oracle, config).unwrap();
        assert!(base.phases_used >= 2, "{tag}: need a multi-phase run to interrupt");
        let tel = Telemetry::disabled();
        let clean_dir = ckpt_dir(tag);
        reduce_cf_to_maxis_resumable(&h, &oracle, config, &Checkpointing::new(&clean_dir), &tel)
            .unwrap();
        let clean_journal = take_journal(&clean_dir);
        for phase in 0..base.phases_used {
            for point in KILL_POINTS {
                let dir = ckpt_dir(tag);
                let ckpt = Checkpointing::new(&dir).with_crash(CrashPlan::panicking(phase, point));
                let died = catch_unwind(AssertUnwindSafe(|| {
                    reduce_cf_to_maxis_resumable(&h, &oracle, config, &ckpt, &tel)
                }))
                .expect_err("kill point fires");
                assert!(
                    died.downcast_ref::<CrashSignal>().is_some(),
                    "{tag}: phase {phase} {point}: expected an injected crash"
                );
                let (out, report) = reduce_cf_to_maxis_resumable(
                    &h,
                    &oracle,
                    config,
                    &Checkpointing::new(&dir).resuming(),
                    &tel,
                )
                .unwrap_or_else(|e| panic!("{tag}: phase {phase} {point}: resume failed: {e}"));
                assert!(report.resumed);
                // Phases journaled strictly before the kill survive;
                // AfterJournal also keeps the killed phase itself.
                let expected = if point == CrashPoint::AfterJournal { phase + 1 } else { phase };
                assert_eq!(
                    report.phases_recovered, expected,
                    "{tag}: phase {phase} {point}: wrong number of phases recovered"
                );
                assert_eq!(out.records, base.records, "{tag}: phase {phase} {point}");
                assert_eq!(out.coloring, base.coloring, "{tag}: phase {phase} {point}");
                assert_eq!(out.total_colors, base.total_colors);
                assert!(
                    take_journal(&dir) == clean_journal,
                    "{tag}: phase {phase} {point}: the resumed journal differs from a clean one"
                );
            }
        }
    }
}

#[test]
fn resilient_driver_resumes_identically_from_every_kill_point() {
    let k = 3;
    for (tag, threads, kernel, h) in [
        ("serial", 1usize, KernelStrategy::Auto, planted(42, 40, 18, k)),
        ("parallel", 4, KernelStrategy::Auto, multi_component(43, 4, k)),
        ("bitset", 1, KernelStrategy::Bitset, planted(46, 40, 18, k)),
    ] {
        let oracle = weak_oracle();
        let chain: &[&dyn pslocal::maxis::MaxIsOracle] = &[&oracle];
        let config = ResilientConfig {
            base: ReductionConfig { kernel, ..ReductionConfig::new(k).with_threads(threads) },
            ..ResilientConfig::new(k)
        };
        let base = reduce_cf_resilient(&h, chain, config).unwrap();
        assert!(base.reduction.phases_used >= 2, "{tag}: need phases to interrupt");
        let tel = Telemetry::disabled();
        let clean_dir = ckpt_dir(tag);
        reduce_cf_resilient_resumable(&h, chain, config, &Checkpointing::new(&clean_dir), &tel)
            .unwrap();
        let clean_journal = take_journal(&clean_dir);
        for phase in 0..base.reduction.phases_used {
            for point in KILL_POINTS {
                let dir = ckpt_dir(tag);
                let ckpt = Checkpointing::new(&dir).with_crash(CrashPlan::panicking(phase, point));
                let died = catch_unwind(AssertUnwindSafe(|| {
                    reduce_cf_resilient_resumable(&h, chain, config, &ckpt, &tel)
                }))
                .expect_err("kill point fires");
                assert!(
                    died.downcast_ref::<CrashSignal>().is_some(),
                    "{tag}: phase {phase} {point}: expected an injected crash"
                );
                let (out, report) = reduce_cf_resilient_resumable(
                    &h,
                    chain,
                    config,
                    &Checkpointing::new(&dir).resuming(),
                    &tel,
                )
                .unwrap_or_else(|e| {
                    panic!("{tag}: phase {phase} {point}: resume failed: {}", e.error)
                });
                assert!(report.resumed);
                assert_eq!(out.reduction.records, base.reduction.records, "{tag} {phase} {point}");
                assert_eq!(
                    out.reduction.coloring, base.reduction.coloring,
                    "{tag} {phase} {point}"
                );
                assert_eq!(out.fault_log, base.fault_log, "{tag} {phase} {point}");
                assert!(
                    take_journal(&dir) == clean_journal,
                    "{tag}: phase {phase} {point}: the resumed journal differs from a clean one"
                );
            }
        }
    }
}

#[test]
fn a_crash_inside_the_oracle_itself_kills_the_run_and_resumes_cleanly() {
    // The process dies at phase 2's mid-oracle kill point, after a
    // survivable panic burned a retry in phase 1. The resumed run must
    // realign the fault schedule through `resume_at` from the call
    // positions phase 1 journaled.
    let k = 3;
    let h = planted(44, 40, 18, k);
    let plan = || {
        FaultPlan::scripted(vec![
            None,
            Some(FaultKind::Panic), // survivable: burns one retry in phase 1
            None,
            None,
            None,
            None,
        ])
    };
    let config = ResilientConfig::new(k);
    let base = {
        let flaky = FaultyOracle::new(weak_oracle(), plan());
        reduce_cf_resilient(&h, &[&flaky], config).unwrap()
    };
    assert!(base.reduction.phases_used >= 3, "need a phase 2 to kill");
    assert_eq!(base.retries, 1, "the scripted panic must fire");
    let tel = Telemetry::disabled();
    let clean_journal = {
        let flaky = FaultyOracle::new(weak_oracle(), plan());
        let dir = ckpt_dir("oracle-crash-clean");
        reduce_cf_resilient_resumable(&h, &[&flaky], config, &Checkpointing::new(&dir), &tel)
            .unwrap();
        take_journal(&dir)
    };
    let dir = ckpt_dir("oracle-crash");
    {
        let flaky = FaultyOracle::new(weak_oracle(), plan());
        let ckpt =
            Checkpointing::new(&dir).with_crash(CrashPlan::panicking(2, CrashPoint::MidOracle));
        let died = catch_unwind(AssertUnwindSafe(|| {
            reduce_cf_resilient_resumable(&h, &[&flaky], config, &ckpt, &tel)
        }))
        .expect_err("the kill point fires");
        assert!(died.downcast_ref::<CrashSignal>().is_some());
        assert_eq!(flaky.calls(), 3, "phase 2 made no oracle call");
    }
    // Resume with a fresh copy of the schedule: calls 0-2 happened
    // before the crash, and `resume_at` fast-forwards past them, so the
    // resumed run draws from position 3 onward.
    let flaky = FaultyOracle::new(weak_oracle(), plan());
    let (out, report) = reduce_cf_resilient_resumable(
        &h,
        &[&flaky],
        config,
        &Checkpointing::new(&dir).resuming(),
        &tel,
    )
    .unwrap();
    assert!(report.resumed);
    assert_eq!(report.phases_recovered, 2, "phases 0 and 1 were journaled before the crash");
    assert_eq!(out.reduction.records, base.reduction.records);
    assert_eq!(out.reduction.coloring, base.reduction.coloring);
    assert_eq!(out.retries, base.retries);
    assert_eq!(out.fault_log, base.fault_log);
    assert!(take_journal(&dir) == clean_journal, "the resumed journal differs from a clean one");
}
