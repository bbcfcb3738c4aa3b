//! # pslocal-telemetry
//!
//! The workspace-wide observability substrate: nestable spans with
//! monotonic timing, typed counters and histograms, per-reduction
//! phase timelines, and pluggable [`Sink`]s — dependency-free and
//! std-only, so it sits below every other crate in the hermetic
//! workspace.
//!
//! # Design
//!
//! A [`Telemetry<S>`] pipeline owns a sink and a monotonic clock
//! epoch. Instrumented code creates **spans** (RAII guards that emit a
//! start/end event pair), attributes **counters** and **histogram
//! samples** to them, and nests children off parents — either
//! explicitly via [`Instrument::span`]/[`Instrument::span_idx`] or via
//! the [`span!`] macro:
//!
//! ```
//! use pslocal_telemetry::{span, Counter, MemorySink, Telemetry};
//!
//! let tel = Telemetry::new(MemorySink::new());
//! {
//!     let reduction = span!(tel, "reduction");
//!     for i in 0..3u64 {
//!         let phase = span!(reduction, "phase", i);
//!         phase.add(Counter::EdgesRemoved, 2);
//!     }
//! }
//! let spans = tel.sink().spans();
//! assert_eq!(spans.len(), 4);
//! assert!(tel.sink().open_spans().is_empty());
//! assert_eq!(tel.sink().counter_total(Counter::EdgesRemoved), 6);
//! ```
//!
//! The **disabled path is a no-op by construction**: [`Sink::ENABLED`]
//! is an associated `const`, every emission site is guarded by it, and
//! [`Telemetry::disabled`] uses [`NullSink`] (`ENABLED = false`) — so
//! the monomorphized untraced code performs no clock reads, allocates
//! nothing, and emits nothing. Benchmarked overhead of the disabled
//! path on the reduction pipeline is below 1% (see DESIGN.md §9).
//!
//! Span guards close on drop, **including during unwinding**, so a
//! caught panic (the resilient driver isolates oracle panics) never
//! leaves an orphaned span — the chaos suite asserts this on every
//! fault schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod sink;
pub mod timeline;

pub use aggregate::{AggregateSink, HistogramSummary};
pub use sink::{
    event_to_json, Counter, Event, Histogram, JsonlSink, MemorySink, NullSink, Sink, SpanId,
    SpanRecord,
};
pub use timeline::{render_tree, PhaseTimeline, PhaseTiming};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Canonical span names, shared between the instrumented crates and
/// the consumers ([`PhaseTimeline`], `trace-report`) so they cannot
/// drift.
pub mod names {
    /// Whole reduction run (root span of both Theorem 1.1 drivers).
    pub const REDUCTION: &str = "reduction";
    /// Conflict-graph construction kernel.
    pub const CONFLICT_GRAPH: &str = "conflict-graph";
    /// The CSR construction kernel's emission pass, child of the
    /// conflict-graph span when the graph is built on the CSR route.
    pub const CSR: &str = "csr";
    /// The bit-row construction kernel's emission pass, child of the
    /// conflict-graph span when the graph is built on the bitset route.
    pub const BITSET: &str = "bitset";
    /// Restriction of the previous conflict graph to the surviving
    /// hyperedges (a kernel rebuild of the residual's `G_k`).
    pub const RESTRICT: &str = "restrict";
    /// One reduction phase (index = phase number).
    pub const PHASE: &str = "phase";
    /// One oracle invocation (index = attempt number where retried).
    pub const ORACLE: &str = "oracle";
    /// One connected component solved by the component-parallel
    /// executor (index = component id; children are its oracle calls).
    pub const COMPONENT: &str = "component";
    /// Phase commit: decode, merge palette, rescan residual edges.
    pub const COMMIT: &str = "commit";
    /// One LOCAL-model execution.
    pub const LOCAL_RUN: &str = "local-run";
    /// One SLOCAL-model execution.
    pub const SLOCAL_RUN: &str = "slocal-run";
    /// One durable phase-journal append (checkpointing drivers; index =
    /// phase number).
    pub const CHECKPOINT_WRITE: &str = "checkpoint-write";
    /// The conflict-graph fingerprint a checkpointing run journals
    /// for each phase (child of the phase span; absent without a
    /// journal).
    pub const FINGERPRINT: &str = "fingerprint";
    /// Journal replay at the start of a resumable run (recovery layer).
    pub const RECOVERY_REPLAY: &str = "recovery-replay";
    /// One batch-service request, dequeue to completion (index =
    /// admission sequence number; children are the request's reduction
    /// spans).
    pub const SERVICE_REQUEST: &str = "service-request";
    /// One request as the TCP server sees it, parse to response write
    /// (index = per-connection request ordinal; wraps the service's
    /// `service-request` span plus socket time).
    pub const SERVER_REQUEST: &str = "server-request";
}

/// A telemetry pipeline: a sink plus the monotonic epoch all event
/// timestamps are relative to.
///
/// Cheap to construct; shared by reference into instrumented code. All
/// methods take `&self` (sinks synchronize internally), so a pipeline
/// is `Sync` and scoped worker threads can record through it.
#[derive(Debug)]
pub struct Telemetry<S: Sink> {
    sink: S,
    next_id: AtomicU64,
    epoch: Instant,
}

impl Telemetry<NullSink> {
    /// The disabled pipeline: statically dispatched no-ops everywhere.
    pub fn disabled() -> Self {
        Telemetry::new(NullSink)
    }
}

impl<S: Sink> Telemetry<S> {
    /// A pipeline feeding `sink`, with its epoch at "now".
    pub fn new(sink: S) -> Self {
        Telemetry { sink, next_id: AtomicU64::new(0), epoch: Instant::now() }
    }

    /// Whether this pipeline records anything (compile-time constant).
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        S::ENABLED
    }

    /// The sink, for draining buffered data after a run.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the pipeline and returns the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Nanoseconds since the pipeline epoch.
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Increments `counter` without attributing it to a span. Zero
    /// deltas are suppressed (they carry no information).
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if S::ENABLED && delta > 0 {
            self.sink.record(Event::CounterAdd { counter, delta, span: None });
        }
    }

    /// Records a histogram sample without attributing it to a span.
    #[inline]
    pub fn sample(&self, histogram: Histogram, value: u64) {
        if S::ENABLED {
            self.sink.record(Event::Sample { histogram, value, span: None });
        }
    }

    fn start_span(
        &self,
        name: &'static str,
        index: Option<u64>,
        parent: Option<SpanId>,
    ) -> Span<'_, S> {
        if !S::ENABLED {
            return Span { tel: self, id: SpanId(0) };
        }
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        self.sink.record(Event::SpanStart { id, parent, name, index, start_ns: self.now_ns() });
        Span { tel: self, id }
    }
}

/// Anything a span can be opened under: the pipeline itself (root
/// spans) or another [`Span`] (children). The [`span!`] macro works
/// uniformly over both.
pub trait Instrument<S: Sink> {
    /// Opens a span named `name`.
    fn span(&self, name: &'static str) -> Span<'_, S>;

    /// Opens an indexed span (phase number, attempt number, …).
    fn span_idx(&self, name: &'static str, index: u64) -> Span<'_, S>;
}

impl<S: Sink> Instrument<S> for Telemetry<S> {
    fn span(&self, name: &'static str) -> Span<'_, S> {
        self.start_span(name, None, None)
    }

    fn span_idx(&self, name: &'static str, index: u64) -> Span<'_, S> {
        self.start_span(name, Some(index), None)
    }
}

/// An in-flight span. Ends (emits [`Event::SpanEnd`]) when dropped —
/// also during unwinding, so caught panics cannot orphan spans.
#[derive(Debug)]
pub struct Span<'t, S: Sink> {
    tel: &'t Telemetry<S>,
    id: SpanId,
}

impl<'t, S: Sink> Span<'t, S> {
    /// This span's id (0 on a disabled pipeline).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Increments `counter`, attributed to this span. Zero deltas are
    /// suppressed.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if S::ENABLED && delta > 0 {
            self.tel.sink.record(Event::CounterAdd { counter, delta, span: Some(self.id) });
        }
    }

    /// Records a histogram sample, attributed to this span.
    #[inline]
    pub fn sample(&self, histogram: Histogram, value: u64) {
        if S::ENABLED {
            self.tel.sink.record(Event::Sample { histogram, value, span: Some(self.id) });
        }
    }

    /// Ends the span now (sugar for dropping it).
    pub fn close(self) {}
}

impl<'t, S: Sink> Instrument<S> for Span<'t, S> {
    fn span(&self, name: &'static str) -> Span<'_, S> {
        self.tel.start_span(name, None, Some(self.id))
    }

    fn span_idx(&self, name: &'static str, index: u64) -> Span<'_, S> {
        self.tel.start_span(name, Some(index), Some(self.id))
    }
}

impl<S: Sink, I: Instrument<S>> Instrument<S> for &I {
    fn span(&self, name: &'static str) -> Span<'_, S> {
        (**self).span(name)
    }

    fn span_idx(&self, name: &'static str, index: u64) -> Span<'_, S> {
        (**self).span_idx(name, index)
    }
}

impl<S: Sink> Drop for Span<'_, S> {
    fn drop(&mut self) {
        if S::ENABLED {
            self.tel.sink.record(Event::SpanEnd { id: self.id, end_ns: self.tel.now_ns() });
        }
    }
}

/// Opens a span under a [`Telemetry`] pipeline or a parent [`Span`]:
/// `span!(parent, "name")` or `span!(parent, "phase", i)`.
#[macro_export]
macro_rules! span {
    ($parent:expr, $name:expr) => {
        $crate::Instrument::span(&$parent, $name)
    };
    ($parent:expr, $name:expr, $index:expr) => {
        $crate::Instrument::span_idx(&$parent, $name, ($index) as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let tel = Telemetry::new(MemorySink::new());
        {
            let root = span!(tel, names::REDUCTION);
            let phase = span!(root, names::PHASE, 0);
            let oracle = span!(phase, names::ORACLE, 1);
            oracle.add(Counter::OracleCalls, 1);
        }
        let spans = tel.sink().spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].index, Some(0));
        assert_eq!(spans[2].parent, Some(spans[1].id));
        assert_eq!(spans[2].index, Some(1));
        assert!(tel.sink().open_spans().is_empty());
        // Children close before parents.
        assert!(spans[2].end_ns.unwrap() <= spans[1].end_ns.unwrap());
        assert!(spans[1].end_ns.unwrap() <= spans[0].end_ns.unwrap());
    }

    #[test]
    fn disabled_pipeline_emits_nothing_and_reports_disabled() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        let root = span!(tel, "anything");
        root.add(Counter::Retries, 3);
        root.sample(Histogram::IndependentSetSize, 9);
        tel.add(Counter::Phases, 1);
        assert_eq!(root.id(), SpanId(0));
    }

    #[test]
    fn panic_inside_a_span_still_closes_it() {
        let tel = Telemetry::new(MemorySink::new());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = span!(tel, names::ORACLE);
            panic!("oracle crashed");
        }));
        assert!(caught.is_err());
        assert!(tel.sink().open_spans().is_empty(), "unwinding must close the guard");
        assert_eq!(tel.sink().spans().len(), 1);
    }

    #[test]
    fn zero_deltas_are_suppressed() {
        let tel = Telemetry::new(MemorySink::new());
        tel.add(Counter::Retries, 0);
        {
            let s = span!(tel, "x");
            s.add(Counter::Retries, 0);
        }
        assert_eq!(tel.sink().counter_total(Counter::Retries), 0);
        assert_eq!(tel.sink().events().len(), 2, "only the span start/end pair");
    }

    #[test]
    fn worker_threads_can_record_through_a_shared_pipeline() {
        let tel = Telemetry::new(MemorySink::new());
        let root = span!(tel, names::CONFLICT_GRAPH);
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let root = &root;
                s.spawn(move || {
                    let pass = span!(root, names::CSR, i);
                    pass.sample(Histogram::ShardBuildNs, i * 10);
                });
            }
        });
        drop(root);
        let spans = tel.sink().spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans.iter().filter(|s| s.name == names::CSR).count(), 4);
        assert!(tel.sink().open_spans().is_empty());
        let mut samples = tel.sink().samples(Histogram::ShardBuildNs);
        samples.sort_unstable();
        assert_eq!(samples, vec![0, 10, 20, 30]);
    }

    #[test]
    fn timestamps_are_monotone() {
        let tel = Telemetry::new(MemorySink::new());
        let a = span!(tel, "a");
        drop(a);
        let b = span!(tel, "b");
        drop(b);
        let spans = tel.sink().spans();
        assert!(spans[0].start_ns <= spans[0].end_ns.unwrap());
        assert!(spans[0].end_ns.unwrap() <= spans[1].start_ns);
    }
}
