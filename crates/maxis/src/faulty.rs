//! Deterministic fault injection for MaxIS oracles.
//!
//! The hardness proof of Theorem 1.1 *assumes* the λ-approximate
//! oracle honors its contract on every call. This module supplies the
//! adversary that breaks that assumption on purpose: a seeded
//! [`FaultPlan`] decides, per oracle call, whether to misbehave and
//! how ([`FaultKind`]), and [`FaultyOracle`] applies the plan to any
//! inner [`MaxIsOracle`] while still *claiming* the inner oracle's
//! guarantee — exactly the adversarial setting the resilient reduction
//! driver (`pslocal-core::resilient`) must survive.
//!
//! Every fault here is an *oracle* fault, one the resilient driver can
//! retry or route around. A *process* crash is not an oracle's doing:
//! the checkpointing drivers simulate it at their own kill points
//! (`pslocal-core::recovery::CrashPlan`).
//!
//! Everything is deterministic: the fault decision for call `i` is a
//! pure function of `(seed, i)`, so two runs against the same plan
//! produce identical fault logs and identical downstream behavior —
//! chaos tests shrink to a seed.

use crate::oracle::{ApproxGuarantee, MaxIsOracle};
use pslocal_graph::{BitsetGraph, BitsetScratch, Graph, IndependentSet, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One way an oracle call can misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Return a *claimed* independent set containing an adjacent pair
    /// (or an out-of-range vertex on edgeless graphs) — the output the
    /// verified [`IndependentSet::new`] constructor would reject, built
    /// through [`IndependentSet::new_unchecked`].
    InvalidSet,
    /// Silently return only half of the inner oracle's set — typically
    /// below the `|I| ≥ |E|/λ` delivery the claimed λ promises
    /// (Lemma 2.1), starving the reduction's geometric decay.
    UnderDeliver,
    /// Return the empty set: syntactically valid, zero progress.
    EmptySet,
    /// Panic mid-call, as a crashed oracle process would.
    Panic,
    /// Answer correctly, but only after stalling for this many
    /// simulated steps (a slow or partitioned oracle). Resilient
    /// drivers bill the steps against a stall budget.
    Stall(usize),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::InvalidSet => write!(f, "invalid-set"),
            FaultKind::UnderDeliver => write!(f, "under-deliver"),
            FaultKind::EmptySet => write!(f, "empty-set"),
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Stall(steps) => write!(f, "stall({steps})"),
        }
    }
}

/// A deterministic, per-call schedule of faults.
///
/// Two constructions:
///
/// * [`FaultPlan::seeded`] — every call is independently faulty with
///   probability `rate`; the fault decision for call `i` is derived
///   from `(seed, i)` alone, so schedules are stable under reordering
///   of *other* calls and identical across runs.
/// * [`FaultPlan::scripted`] — an explicit per-call script (position
///   `i` = call `i`); calls beyond the script behave.
///
/// # Examples
///
/// ```
/// use pslocal_maxis::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::scripted(vec![None, Some(FaultKind::EmptySet)]);
/// assert_eq!(plan.fault_for(0), None);
/// assert_eq!(plan.fault_for(1), Some(FaultKind::EmptySet));
/// assert_eq!(plan.fault_for(2), None);
///
/// // Seeded plans are pure functions of (seed, call).
/// let a = FaultPlan::seeded(7, 0.5);
/// let b = FaultPlan::seeded(7, 0.5);
/// assert!((0..100).all(|i| a.fault_for(i) == b.fault_for(i)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    schedule: Schedule,
    max_stall: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Schedule {
    Seeded { seed: u64, rate: f64 },
    Scripted(Vec<Option<FaultKind>>),
}

impl FaultPlan {
    /// Default ceiling for the step count of injected stalls.
    pub const DEFAULT_MAX_STALL: usize = 64;

    /// The always-well-behaved plan (fault rate 0).
    pub fn none() -> Self {
        FaultPlan::seeded(0, 0.0)
    }

    /// Random plan: each call faults independently with probability
    /// `rate`, fault kinds uniform.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate {rate} outside [0, 1]");
        FaultPlan { schedule: Schedule::Seeded { seed, rate }, max_stall: Self::DEFAULT_MAX_STALL }
    }

    /// Explicit script: entry `i` is the fault injected on call `i`
    /// (`None` = behave); calls past the end behave.
    pub fn scripted(script: Vec<Option<FaultKind>>) -> Self {
        FaultPlan { schedule: Schedule::Scripted(script), max_stall: Self::DEFAULT_MAX_STALL }
    }

    /// Caps the step count seeded plans draw for [`FaultKind::Stall`].
    pub fn with_max_stall(mut self, max_stall: usize) -> Self {
        self.max_stall = max_stall.max(1);
        self
    }

    /// The fault injected on call `call`, if any. Pure in
    /// `(self, call)`.
    pub fn fault_for(&self, call: usize) -> Option<FaultKind> {
        match &self.schedule {
            Schedule::Scripted(script) => script.get(call).copied().flatten(),
            Schedule::Seeded { seed, rate } => {
                if *rate <= 0.0 {
                    return None;
                }
                // Independent stream per call index: stable schedules
                // regardless of how many calls preceded this one.
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (call as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                if !rng.gen_bool(*rate) {
                    return None;
                }
                Some(match rng.gen_range(0..5usize) {
                    0 => FaultKind::InvalidSet,
                    1 => FaultKind::UnderDeliver,
                    2 => FaultKind::EmptySet,
                    3 => FaultKind::Panic,
                    _ => FaultKind::Stall(rng.gen_range(1..=self.max_stall)),
                })
            }
        }
    }
}

/// One injected fault, as recorded by [`FaultyOracle`]'s log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// 0-based index of the oracle call the fault was injected into.
    pub call: usize,
    /// What was injected.
    pub kind: FaultKind,
}

/// Wraps any [`MaxIsOracle`] and applies a [`FaultPlan`] to its calls.
///
/// The wrapper *claims* the inner oracle's [`ApproxGuarantee`] — that
/// is the attack: downstream budget math trusts a contract the wrapper
/// deliberately violates. Every injected fault is appended to an
/// internal log ([`fault_log`](Self::fault_log)), which is a pure
/// function of the plan and the call sequence, so identical runs have
/// identical logs.
///
/// # Examples
///
/// ```
/// use pslocal_graph::generators::classic::cycle;
/// use pslocal_maxis::{FaultKind, FaultPlan, FaultyOracle, GreedyOracle, MaxIsOracle};
///
/// let plan = FaultPlan::scripted(vec![Some(FaultKind::EmptySet)]);
/// let oracle = FaultyOracle::new(GreedyOracle, plan);
/// assert!(oracle.independent_set(&cycle(9)).is_empty());
/// assert_eq!(oracle.fault_log().len(), 1);
/// ```
/// State is synchronized (atomics + a mutex-guarded log) rather than
/// `Cell`-based so the wrapper satisfies the [`MaxIsOracle`] trait's
/// `Sync` bound: the component-parallel executor may call one shared
/// wrapper from several worker threads. Under single-threaded use the
/// call sequence — and hence the log — is exactly as deterministic as
/// before; under concurrent use each call still atomically claims a
/// unique call index, so the *multiset* of injected faults is still a
/// pure function of the plan and the call count.
///
/// The wrapper passes its inner oracle's dense kernel through
/// ([`MaxIsOracle::supports_dense`]), so a fault script does not send a
/// dense phase graph to CSR. Every fault gives the same set and the same
/// log on both routes: [`FaultKind::InvalidSet`] claims the graph's
/// first edge in canonical order, read from the CSR or the bit rows.
#[derive(Debug)]
pub struct FaultyOracle<O> {
    inner: O,
    plan: FaultPlan,
    calls: AtomicUsize,
    stalled: AtomicUsize,
    log: Mutex<Vec<InjectedFault>>,
}

impl<O: MaxIsOracle> FaultyOracle<O> {
    /// Wraps `inner`, applying `plan` to each call.
    pub fn new(inner: O, plan: FaultPlan) -> Self {
        FaultyOracle {
            inner,
            plan,
            calls: AtomicUsize::new(0),
            stalled: AtomicUsize::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Number of calls served so far (faulty or not).
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    /// Snapshot of all faults injected so far, in call order.
    pub fn fault_log(&self) -> Vec<InjectedFault> {
        // Injected panics poison this lock by design; the log stays valid.
        self.log.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Resets call counter, stall state, and fault log (the plan is
    /// kept), so one wrapper can serve several independent runs.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::SeqCst);
        self.stalled.store(0, Ordering::SeqCst);
        self.log.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    fn record(&self, call: usize, kind: FaultKind) {
        self.log.lock().unwrap_or_else(PoisonError::into_inner).push(InjectedFault { call, kind });
    }

    fn apply(
        &self,
        host: &impl Host,
        compute: impl FnOnce() -> (IndependentSet, usize),
    ) -> (IndependentSet, usize) {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        self.stalled.store(0, Ordering::SeqCst);
        match self.plan.fault_for(call) {
            None => compute(),
            Some(kind) => {
                self.record(call, kind);
                match kind {
                    FaultKind::Panic => {
                        // pslocal: allow(panic-path, "this panic IS the injected fault: the crate exists to exercise the resilient driver's panic isolation")
                        panic!("injected fault: oracle panicked on call {call}")
                    }
                    FaultKind::EmptySet => (IndependentSet::empty(), 0),
                    FaultKind::InvalidSet => (host.corrupt_set(), 0),
                    FaultKind::UnderDeliver => {
                        let (set, rounds) = compute();
                        let keep: Vec<NodeId> =
                            set.vertices().iter().copied().take(set.len() / 2).collect();
                        (host.subset(keep), rounds)
                    }
                    FaultKind::Stall(steps) => {
                        let out = compute();
                        self.stalled.store(steps, Ordering::SeqCst);
                        out
                    }
                }
            }
        }
    }
}

/// The graph a call answers on, as the faults read it.
trait Host {
    /// A claimed-but-not independent set: the first edge in canonical
    /// order where the graph has edges, an out-of-range vertex otherwise.
    fn corrupt_set(&self) -> IndependentSet;

    /// `keep`, a subset of the inner oracle's set, as a verified set.
    /// Invariant, not a fallible path: a subset of an independent set
    /// is independent, so a failure means the inner oracle lied.
    fn subset(&self, keep: Vec<NodeId>) -> IndependentSet;
}

/// CSR rows.
impl Host for Graph {
    fn corrupt_set(&self) -> IndependentSet {
        let pair = match self.edges().next() {
            Some((u, v)) => vec![u, v],
            None => vec![NodeId::new(self.node_count())],
        };
        IndependentSet::new_unchecked(pair)
    }

    fn subset(&self, keep: Vec<NodeId>) -> IndependentSet {
        IndependentSet::new(self, keep)
            // pslocal: allow(panic-path, "subset of the inner oracle's independent set is independent; a failure means the inner oracle lied")
            .expect("subset of inner oracle's independent set")
    }
}

/// Bit rows.
impl Host for BitsetGraph {
    /// The first edge in canonical order is the least `u` with a
    /// neighbor above it, paired with its least such neighbor.
    fn corrupt_set(&self) -> IndependentSet {
        let mut buf = Vec::new();
        let first = (0..self.node_count()).find_map(|u| {
            let row = self.row(NodeId::new(u), &mut buf);
            let (w, b) = (u / 64, u % 64);
            let above = std::iter::once(row[w] & !(u64::MAX >> (63 - b)))
                .chain(row[w + 1..].iter().copied());
            let (i, word) = above.enumerate().find(|&(_, word)| word != 0)?;
            Some(vec![NodeId::new(u), NodeId::new((w + i) * 64 + word.trailing_zeros() as usize)])
        });
        IndependentSet::new_unchecked(first.unwrap_or_else(|| vec![NodeId::new(self.node_count())]))
    }

    /// The word-parallel checker stands in for `IndependentSet::new`'s
    /// CSR check.
    fn subset(&self, keep: Vec<NodeId>) -> IndependentSet {
        if let Some((u, v)) = self.is_independent_set(&keep) {
            // pslocal: allow(panic-path, "subset of the inner oracle's independent set is independent; a failure means the inner oracle lied")
            panic!("subset of inner oracle's independent set: {u:?} conflicts with {v:?}");
        }
        IndependentSet::new_unchecked(keep)
    }
}

impl<O: MaxIsOracle> MaxIsOracle for FaultyOracle<O> {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn independent_set(&self, graph: &Graph) -> IndependentSet {
        self.apply(graph, || (self.inner.independent_set(graph), 1)).0
    }

    fn independent_set_with_rounds(&self, graph: &Graph) -> (IndependentSet, usize) {
        self.apply(graph, || self.inner.independent_set_with_rounds(graph))
    }

    fn supports_dense(&self) -> bool {
        self.inner.supports_dense()
    }

    fn independent_set_dense(
        &self,
        bits: &BitsetGraph,
        scratch: &mut BitsetScratch,
    ) -> IndependentSet {
        self.apply(bits, || (self.inner.independent_set_dense(bits, scratch), 1)).0
    }

    fn lambda_for_dense(&self, bits: &BitsetGraph) -> Option<f64> {
        self.inner.lambda_for_dense(bits)
    }

    fn stalled_steps(&self) -> usize {
        self.stalled.load(Ordering::SeqCst)
    }

    fn guarantee(&self) -> ApproxGuarantee {
        // Deliberately the inner oracle's claim — the whole point is a
        // contract the wrapper does not honor.
        self.inner.guarantee()
    }

    fn resume_at(&self, calls: usize) {
        // Reposition the per-call fault schedule after a process
        // restart: the plan is a pure function of the call index, so a
        // resumed run re-injects exactly the faults the uninterrupted
        // run would have seen from this point on. The log restarts
        // empty — recovered history lives in the phase journal.
        self.calls.store(calls, Ordering::SeqCst);
        self.stalled.store(0, Ordering::SeqCst);
        self.inner.resume_at(calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactOracle;
    use crate::greedy::GreedyOracle;
    use pslocal_graph::generators::classic::{cycle, star};

    #[test]
    fn rate_zero_is_transparent() {
        let g = cycle(12);
        let faulty = FaultyOracle::new(GreedyOracle, FaultPlan::none());
        assert_eq!(faulty.independent_set(&g), GreedyOracle.independent_set(&g));
        assert!(faulty.fault_log().is_empty());
        assert_eq!(faulty.calls(), 1);
        assert_eq!(faulty.stalled_steps(), 0);
    }

    #[test]
    fn scripted_faults_fire_in_order() {
        let g = star(8); // α = 7
        let plan = FaultPlan::scripted(vec![
            Some(FaultKind::EmptySet),
            None,
            Some(FaultKind::UnderDeliver),
            Some(FaultKind::InvalidSet),
        ]);
        let faulty = FaultyOracle::new(ExactOracle, plan);
        assert!(faulty.independent_set(&g).is_empty());
        assert_eq!(faulty.independent_set(&g).len(), 7);
        assert_eq!(faulty.independent_set(&g).len(), 3); // 7 / 2
        let invalid = faulty.independent_set(&g);
        assert!(!g.is_independent_set(invalid.vertices()));
        assert_eq!(
            faulty.fault_log(),
            vec![
                InjectedFault { call: 0, kind: FaultKind::EmptySet },
                InjectedFault { call: 2, kind: FaultKind::UnderDeliver },
                InjectedFault { call: 3, kind: FaultKind::InvalidSet },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics() {
        let g = cycle(5);
        let faulty =
            FaultyOracle::new(ExactOracle, FaultPlan::scripted(vec![Some(FaultKind::Panic)]));
        let _ = faulty.independent_set(&g);
    }

    #[test]
    fn stall_fault_reports_steps_then_clears() {
        let g = cycle(6);
        let plan = FaultPlan::scripted(vec![Some(FaultKind::Stall(17)), None]);
        let faulty = FaultyOracle::new(GreedyOracle, plan);
        let set = faulty.independent_set(&g);
        assert!(!set.is_empty(), "stall still answers correctly");
        assert_eq!(faulty.stalled_steps(), 17);
        let _ = faulty.independent_set(&g);
        assert_eq!(faulty.stalled_steps(), 0, "stall state is per call");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_rate_monotone() {
        let a = FaultPlan::seeded(42, 0.3);
        let b = FaultPlan::seeded(42, 0.3);
        for call in 0..200 {
            assert_eq!(a.fault_for(call), b.fault_for(call));
        }
        let faults = |rate: f64| {
            (0..400).filter(|&c| FaultPlan::seeded(9, rate).fault_for(c).is_some()).count()
        };
        assert_eq!(faults(0.0), 0);
        assert_eq!(faults(1.0), 400);
        let lo = faults(0.1);
        let hi = faults(0.6);
        assert!(lo > 0 && lo < hi && hi < 400, "lo = {lo}, hi = {hi}");
    }

    #[test]
    fn seeded_stall_respects_cap() {
        let plan = FaultPlan::seeded(3, 1.0).with_max_stall(5);
        for call in 0..300 {
            if let Some(FaultKind::Stall(steps)) = plan.fault_for(call) {
                assert!((1..=5).contains(&steps));
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let g = cycle(7);
        let faulty =
            FaultyOracle::new(GreedyOracle, FaultPlan::scripted(vec![Some(FaultKind::EmptySet)]));
        let _ = faulty.independent_set(&g);
        assert_eq!(faulty.calls(), 1);
        faulty.reset();
        assert_eq!(faulty.calls(), 0);
        assert!(faulty.fault_log().is_empty());
        // After reset the script applies from the top again.
        assert!(faulty.independent_set(&g).is_empty());
    }

    #[test]
    fn resume_at_repositions_the_fault_schedule() {
        let g = star(8);
        // Calls 0 and 1 behave, call 2 under-delivers.
        let plan = FaultPlan::scripted(vec![None, None, Some(FaultKind::UnderDeliver)]);
        let faulty = FaultyOracle::new(ExactOracle, plan);
        // A fresh process that fast-forwards to call 2 sees the fault
        // exactly where the uninterrupted run would have.
        faulty.resume_at(2);
        assert_eq!(faulty.independent_set(&g).len(), 3, "call 2 under-delivers (7 / 2)");
        assert_eq!(faulty.calls(), 3);
        assert_eq!(
            faulty.fault_log(),
            vec![InjectedFault { call: 2, kind: FaultKind::UnderDeliver }]
        );
    }

    #[test]
    fn corrupt_set_on_edgeless_graph_is_out_of_range() {
        let g = pslocal_graph::Graph::empty(3);
        let faulty =
            FaultyOracle::new(ExactOracle, FaultPlan::scripted(vec![Some(FaultKind::InvalidSet)]));
        let set = faulty.independent_set(&g);
        assert!(set.vertices().iter().any(|v| v.index() >= g.node_count()));
    }
}
