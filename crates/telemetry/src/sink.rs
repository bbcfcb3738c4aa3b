//! Telemetry events and the pluggable [`Sink`]s that receive them.
//!
//! Everything the instrumented code emits is one of four [`Event`]s:
//! a span starts, a span ends, a typed [`Counter`] is incremented, or a
//! [`Histogram`] sample is recorded. A [`Sink`] is the consumer:
//!
//! * [`NullSink`] — the disabled path. Its [`Sink::ENABLED`] is
//!   `false`, which every instrumentation site checks **at compile
//!   time** (it is an associated `const`), so the monomorphized
//!   null-telemetry code contains no clock reads and no event
//!   construction at all;
//! * [`MemorySink`] — buffers every event behind a mutex and can
//!   reconstruct the span tree ([`SpanRecord`]) — the sink tests and
//!   `trace-report` use;
//! * [`JsonlSink`] — serializes each event as one JSON object per line
//!   to any writer (the `--metrics-out` artifact format).
//!
//! Sinks compose structurally: `&S`, `Option<S>`, and `(A, B)` are all
//! sinks, so "memory plus optional JSONL file" is just a tuple.

use crate::aggregate::lock_unpoisoned;
use std::fmt;
use std::io::{self, Write};
use std::sync::{Mutex, OnceLock};

/// Identifier of one span within a [`Telemetry`](crate::Telemetry)
/// pipeline's lifetime. Ids are allocated from 1; they are unique per
/// pipeline, not globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The typed counters the workspace's instrumentation increments.
///
/// A closed enum (rather than free-form string keys) so that sites and
/// consumers cannot drift: adding a metric is a compile-visible change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Counter {
    /// Hyperedges removed from the residual set (reduction drivers).
    EdgesRemoved,
    /// Edges found happy during a phase commit's residual scan.
    HappyEdges,
    /// Oracle attempts beyond the first within a phase (resilient
    /// driver).
    Retries,
    /// Simulated steps oracle calls stalled for (resilient driver).
    StalledSteps,
    /// Oracle invocations.
    OracleCalls,
    /// Bytes of CSR storage materialized (conflict-graph builder).
    CsrBytes,
    /// Times a resilient driver fell back to a later oracle in its
    /// chain.
    Fallbacks,
    /// Fault events the resilient driver recorded.
    FaultEvents,
    /// Reduction phases committed.
    Phases,
    /// Rounds a LOCAL execution ran for.
    LocalRounds,
    /// Messages a LOCAL execution delivered.
    LocalMessages,
    /// Nodes an SLOCAL run processed (views extracted).
    SlocalViews,
    /// Total vertices across all SLOCAL views (the run's volume).
    SlocalViewVolume,
    /// Connected components a phase's conflict graph decomposed into
    /// (component-parallel executor; only emitted on the parallel
    /// path, so 0 means the serial fast path ran).
    Components,
    /// Conflict-graph nodes of the largest component of a phase
    /// (attributed to the phase span — a gauge recorded once per
    /// decomposed phase).
    LargestComponent,
    /// Oracle invocations issued through the component-parallel
    /// executor (one per component per phase attempt).
    ParallelOracleCalls,
    /// Phases restored from a phase journal instead of being recomputed
    /// (resumable drivers; attributed to the `recovery-replay` span).
    PhasesRecovered,
    /// Bytes of the phase journal persisted by a checkpoint write (a
    /// gauge: each `checkpoint-write` span records the journal's size
    /// after its append).
    JournalBytes,
    /// Phase oracle calls answered from the fingerprint-keyed memo
    /// cache instead of invoking the oracle (drivers with
    /// `oracle_cache` enabled).
    OracleCacheHits,
    /// Phase oracle lookups that missed the memo cache and fell through
    /// to a real oracle call (drivers with `oracle_cache` enabled).
    OracleCacheMisses,
    /// Memo-cache hits whose stored set failed re-verification against
    /// the current conflict graph (a fingerprint collision): the entry
    /// is evicted and the lookup falls through to the oracle. Also
    /// counted as a miss, so hits + misses still equals lookups.
    OracleCacheRejects,
    /// Requests the batch service admitted into its bounded queue.
    RequestsAdmitted,
    /// Requests the batch service refused with `QueueFull` backpressure
    /// (queue at capacity or service draining).
    RequestsRejected,
    /// Requests a batch service worker completed (any outcome except
    /// queue rejection).
    RequestsCompleted,
    /// Requests that hit their deadline at a phase boundary and were
    /// cooperatively cancelled.
    DeadlinesExceeded,
    /// Requests whose reduction failed (driver error or panic).
    RequestsFailed,
    /// Cumulative nanoseconds requests spent waiting in the admission
    /// queue before a worker picked them up.
    QueueWaitNs,
    /// TCP connections the server accepted and handed to a connection
    /// handler.
    ConnectionsAccepted,
    /// TCP connections the server refused with a typed overload
    /// response because the connection cap was reached (or the server
    /// was draining).
    ConnectionsRefused,
    /// Bytes of request stream the server read off its sockets.
    BytesIn,
    /// Bytes of response stream the server wrote to its sockets.
    BytesOut,
    /// Input lines that did not parse as protocol requests and were
    /// answered with a typed `bad_request` line.
    BadRequests,
    /// Bitset-resident phase graphs whose CSR form was built as well,
    /// on demand, during their phase: a second build of the same `G_k`
    /// (reduction drivers; attributed to the phase span).
    LazyCsrBuilds,
}

impl Counter {
    /// Stable snake_case name used by the JSONL schema and reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EdgesRemoved => "edges_removed",
            Counter::HappyEdges => "happy_edges",
            Counter::Retries => "retries",
            Counter::StalledSteps => "stalled_steps",
            Counter::OracleCalls => "oracle_calls",
            Counter::CsrBytes => "csr_bytes",
            Counter::Fallbacks => "fallbacks",
            Counter::FaultEvents => "fault_events",
            Counter::Phases => "phases",
            Counter::LocalRounds => "local_rounds",
            Counter::LocalMessages => "local_messages",
            Counter::SlocalViews => "slocal_views",
            Counter::SlocalViewVolume => "slocal_view_volume",
            Counter::Components => "components",
            Counter::LargestComponent => "largest_component",
            Counter::ParallelOracleCalls => "parallel_oracle_calls",
            Counter::PhasesRecovered => "phases_recovered",
            Counter::JournalBytes => "journal_bytes",
            Counter::OracleCacheHits => "oracle_cache_hit",
            Counter::OracleCacheMisses => "oracle_cache_miss",
            Counter::OracleCacheRejects => "oracle_cache_reject",
            Counter::RequestsAdmitted => "requests_admitted",
            Counter::RequestsRejected => "requests_rejected",
            Counter::RequestsCompleted => "requests_completed",
            Counter::DeadlinesExceeded => "requests_deadline_exceeded",
            Counter::RequestsFailed => "requests_failed",
            Counter::QueueWaitNs => "queue_wait_total_ns",
            Counter::ConnectionsAccepted => "connections_accepted",
            Counter::ConnectionsRefused => "connections_refused",
            Counter::BytesIn => "bytes_in",
            Counter::BytesOut => "bytes_out",
            Counter::BadRequests => "bad_requests",
            Counter::LazyCsrBuilds => "lazy_csr_builds",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The typed value distributions the instrumentation samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Histogram {
    /// Wall time of the conflict-graph kernel's emission pass, ns.
    ShardBuildNs,
    /// Size of an oracle's returned independent set.
    IndependentSetSize,
    /// Realized locality of an SLOCAL run.
    RealizedLocality,
    /// Admission-queue depth sampled as each batch request is enqueued
    /// (after the push, so an idle service samples 1).
    QueueDepth,
    /// Nanoseconds one batch request waited in the admission queue
    /// before a worker dequeued it.
    QueueWaitNs,
    /// End-to-end nanoseconds for one batch request, submission to
    /// completion (queue wait + execution).
    RequestLatencyNs,
}

impl Histogram {
    /// Stable snake_case name used by the JSONL schema and reports.
    pub fn name(self) -> &'static str {
        match self {
            Histogram::ShardBuildNs => "shard_build_ns",
            Histogram::IndependentSetSize => "independent_set_size",
            Histogram::RealizedLocality => "realized_locality",
            Histogram::QueueDepth => "queue_depth",
            Histogram::QueueWaitNs => "queue_wait_ns",
            Histogram::RequestLatencyNs => "request_latency_ns",
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One telemetry event. Timestamps are nanoseconds since the owning
/// [`Telemetry`](crate::Telemetry) pipeline's construction (monotonic,
/// from [`std::time::Instant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A span began.
    SpanStart {
        /// The span's id.
        id: SpanId,
        /// The enclosing span, if any.
        parent: Option<SpanId>,
        /// Static span name (see [`crate::names`]).
        name: &'static str,
        /// Optional index distinguishing repeated spans (phase number,
        /// attempt number, component number).
        index: Option<u64>,
        /// Start time, ns since pipeline construction.
        start_ns: u64,
    },
    /// A span ended.
    SpanEnd {
        /// The span that ended.
        id: SpanId,
        /// End time, ns since pipeline construction.
        end_ns: u64,
    },
    /// A counter was incremented.
    CounterAdd {
        /// Which counter.
        counter: Counter,
        /// The (positive) increment.
        delta: u64,
        /// The span the increment is attributed to, if any.
        span: Option<SpanId>,
    },
    /// A histogram sample was recorded.
    Sample {
        /// Which histogram.
        histogram: Histogram,
        /// The sampled value.
        value: u64,
        /// The span the sample is attributed to, if any.
        span: Option<SpanId>,
    },
}

/// A consumer of telemetry [`Event`]s.
///
/// `Sync` is a supertrait because the component executor's scoped
/// workers and the service's worker threads record through a shared
/// reference.
pub trait Sink: Sync {
    /// Compile-time enable flag. Instrumentation sites branch on this
    /// `const`, so with [`NullSink`] (`ENABLED = false`) the whole
    /// telemetry path — including clock reads — monomorphizes away.
    const ENABLED: bool = true;

    /// Receives one event. Must not panic.
    fn record(&self, event: Event);

    /// A live, human-readable snapshot of what this sink has
    /// aggregated so far, or `None` when the sink keeps no queryable
    /// aggregates (the default). The server's `STATS` command renders
    /// whatever the first snapshot-capable sink in the pipeline
    /// returns — see [`AggregateSink`](crate::AggregateSink).
    fn stats_snapshot(&self) -> Option<String> {
        None
    }
}

/// The disabled sink: receives nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _event: Event) {}
}

/// Forwarding through a shared reference.
impl<S: Sink> Sink for &S {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn record(&self, event: Event) {
        (**self).record(event);
    }

    fn stats_snapshot(&self) -> Option<String> {
        (**self).stats_snapshot()
    }
}

/// `None` drops events at runtime; the compile-time flag follows the
/// inner sink (an `Option` is for runtime-optional outputs like
/// `--metrics-out`, not for disabling telemetry — use [`NullSink`]).
impl<S: Sink> Sink for Option<S> {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn record(&self, event: Event) {
        if let Some(sink) = self {
            sink.record(event);
        }
    }

    fn stats_snapshot(&self) -> Option<String> {
        self.as_ref().and_then(Sink::stats_snapshot)
    }
}

/// Fan-out to two sinks (build bigger fans by nesting tuples).
impl<A: Sink, B: Sink> Sink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn record(&self, event: Event) {
        self.0.record(event);
        self.1.record(event);
    }

    /// The first member with a snapshot wins.
    fn stats_snapshot(&self) -> Option<String> {
        self.0.stats_snapshot().or_else(|| self.1.stats_snapshot())
    }
}

/// One reconstructed span, as [`MemorySink::spans`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's id.
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Static span name.
    pub name: &'static str,
    /// Optional repetition index (phase/attempt/component number).
    pub index: Option<u64>,
    /// Start time, ns since pipeline construction.
    pub start_ns: u64,
    /// End time; `None` for a span that never closed (an orphan —
    /// indicates an instrumentation bug, since guards close on drop
    /// even during unwinding).
    pub end_ns: Option<u64>,
    /// Counter increments attributed to this span, in order.
    pub counters: Vec<(Counter, u64)>,
    /// Histogram samples attributed to this span, in order.
    pub samples: Vec<(Histogram, u64)>,
}

impl SpanRecord {
    /// The span's duration, ns (0 for an orphan).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |end| end.saturating_sub(self.start_ns))
    }

    /// Total of the increments of `counter` attributed to this span.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.iter().filter(|(c, _)| *c == counter).map(|(_, d)| d).sum()
    }
}

/// An in-memory sink buffering every event, able to reconstruct the
/// span tree — the sink tests assert against and `trace-report` renders.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of every event received so far, in order.
    pub fn events(&self) -> Vec<Event> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Discards all buffered events.
    pub fn clear(&self) {
        lock_unpoisoned(&self.events).clear();
    }

    /// Reconstructs every span (closed or not) in start order, with its
    /// attributed counters and samples.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let events = lock_unpoisoned(&self.events);
        let mut spans: Vec<SpanRecord> = Vec::new();
        for event in events.iter() {
            match *event {
                Event::SpanStart { id, parent, name, index, start_ns } => {
                    spans.push(SpanRecord {
                        id,
                        parent,
                        name,
                        index,
                        start_ns,
                        end_ns: None,
                        counters: Vec::new(),
                        samples: Vec::new(),
                    });
                }
                Event::SpanEnd { id, end_ns } => {
                    if let Some(span) = spans.iter_mut().rev().find(|s| s.id == id) {
                        span.end_ns = Some(end_ns);
                    }
                }
                Event::CounterAdd { counter, delta, span: Some(id) } => {
                    if let Some(span) = spans.iter_mut().rev().find(|s| s.id == id) {
                        span.counters.push((counter, delta));
                    }
                }
                Event::Sample { histogram, value, span: Some(id) } => {
                    if let Some(span) = spans.iter_mut().rev().find(|s| s.id == id) {
                        span.samples.push((histogram, value));
                    }
                }
                Event::CounterAdd { span: None, .. } | Event::Sample { span: None, .. } => {}
            }
        }
        spans
    }

    /// The spans that started but never ended. Always empty after a
    /// correctly instrumented run — span guards close on drop, even
    /// during a caught panic.
    pub fn open_spans(&self) -> Vec<SpanRecord> {
        self.spans().into_iter().filter(|s| s.end_ns.is_none()).collect()
    }

    /// Total of every increment of `counter`, span-attributed or not.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        lock_unpoisoned(&self.events)
            .iter()
            .filter_map(|e| match e {
                Event::CounterAdd { counter: c, delta, .. } if *c == counter => Some(*delta),
                _ => None,
            })
            .sum()
    }

    /// All samples of `histogram`, in arrival order.
    pub fn samples(&self, histogram: Histogram) -> Vec<u64> {
        lock_unpoisoned(&self.events)
            .iter()
            .filter_map(|e| match e {
                Event::Sample { histogram: h, value, .. } if *h == histogram => Some(*value),
                _ => None,
            })
            .collect()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event) {
        lock_unpoisoned(&self.events).push(event);
    }
}

/// Serializes `event` as one JSON object (no trailing newline). Span
/// names and metric names are workspace-internal identifiers and are
/// emitted verbatim (they contain no characters needing JSON escaping).
pub fn event_to_json(event: &Event) -> String {
    fn opt(v: Option<u64>) -> String {
        v.map_or_else(|| "null".to_string(), |x| x.to_string())
    }
    match *event {
        Event::SpanStart { id, parent, name, index, start_ns } => format!(
            "{{\"event\":\"span_start\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"index\":{},\"t_ns\":{}}}",
            id.0,
            opt(parent.map(|p| p.0)),
            name,
            opt(index),
            start_ns,
        ),
        Event::SpanEnd { id, end_ns } => {
            format!("{{\"event\":\"span_end\",\"id\":{},\"t_ns\":{}}}", id.0, end_ns)
        }
        Event::CounterAdd { counter, delta, span } => format!(
            "{{\"event\":\"counter\",\"counter\":\"{}\",\"delta\":{},\"span\":{}}}",
            counter.name(),
            delta,
            opt(span.map(|s| s.0)),
        ),
        Event::Sample { histogram, value, span } => format!(
            "{{\"event\":\"sample\",\"histogram\":\"{}\",\"value\":{},\"span\":{}}}",
            histogram.name(),
            value,
            opt(span.map(|s| s.0)),
        ),
    }
}

/// A sink writing one JSON object per event per line — the
/// `--metrics-out` artifact format (schema `pslocal-telemetry/v1`).
///
/// A write error never takes down the pipeline the sink observes: the
/// sink keeps the first one, goes on, and returns it from
/// [`into_inner`](Self::into_inner) once the run is over.
///
/// The sink is **crash-safe**: the buffered writer is flushed on every
/// [`Event::SpanEnd`] (span closes are the natural durability
/// boundaries of the stream — a consumer can always reconstruct every
/// *closed* span), on [`flush`](Self::flush), and on drop — including
/// a drop during panic unwinding, so a panicking run loses at most the
/// events since the last span close, never the whole buffered tail.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    // `Option` so `into_inner` can move the writer out from under the
    // `Drop` impl; `None` only ever after `into_inner`.
    writer: Mutex<Option<W>>,
    /// The first write or flush that failed.
    error: OnceLock<io::Error>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer: Mutex::new(Some(writer)), error: OnceLock::new() }
    }

    /// Flushes and returns the inner writer.
    ///
    /// # Errors
    ///
    /// The first write or flush that failed since the sink was made,
    /// this last flush included.
    pub fn into_inner(mut self) -> io::Result<W> {
        let mut w = lock_unpoisoned(&self.writer)
            .take()
            // pslocal: allow(panic-path, "the Option is None only after into_inner, which consumes self — a second take is unreachable")
            .expect("writer present until into_inner");
        let flushed = w.flush();
        match self.error.take() {
            Some(e) => Err(e),
            None => flushed.map(|()| w),
        }
    }

    /// Flushes the inner writer.
    pub fn flush(&self) {
        if let Some(w) = lock_unpoisoned(&self.writer).as_mut() {
            self.keep_error(w.flush());
        }
    }

    /// Keeps `result`'s error for `into_inner` if it is the first.
    fn keep_error(&self, result: io::Result<()>) {
        if let Err(e) = result {
            let _ = self.error.set(e);
        }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&self, event: Event) {
        let mut guard = lock_unpoisoned(&self.writer);
        if let Some(w) = guard.as_mut() {
            self.keep_error(writeln!(w, "{}", event_to_json(&event)));
            // Span closes bound the stream's loss window: flush so a
            // later panic (or abort) cannot lose a closed span.
            if matches!(event, Event::SpanEnd { .. }) {
                self.keep_error(w.flush());
            }
        }
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Best-effort tail flush, also during unwinding — a panicking
        // run must not lose the metrics written before the panic.
        if let Ok(mut guard) = self.writer.lock() {
            if let Some(w) = guard.as_mut() {
                let _ = w.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, name: &'static str, t: u64) -> Event {
        Event::SpanStart {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name,
            index: None,
            start_ns: t,
        }
    }

    #[test]
    fn memory_sink_reconstructs_the_span_tree() {
        let sink = MemorySink::new();
        sink.record(start(1, None, "root", 0));
        sink.record(start(2, Some(1), "child", 10));
        sink.record(Event::CounterAdd {
            counter: Counter::EdgesRemoved,
            delta: 5,
            span: Some(SpanId(2)),
        });
        sink.record(Event::Sample {
            histogram: Histogram::IndependentSetSize,
            value: 7,
            span: Some(SpanId(2)),
        });
        sink.record(Event::SpanEnd { id: SpanId(2), end_ns: 40 });
        sink.record(Event::SpanEnd { id: SpanId(1), end_ns: 100 });

        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[0].duration_ns(), 100);
        assert_eq!(spans[1].parent, Some(SpanId(1)));
        assert_eq!(spans[1].duration_ns(), 30);
        assert_eq!(spans[1].counter(Counter::EdgesRemoved), 5);
        assert_eq!(spans[1].samples, vec![(Histogram::IndependentSetSize, 7)]);
        assert!(sink.open_spans().is_empty());
        assert_eq!(sink.counter_total(Counter::EdgesRemoved), 5);
        assert_eq!(sink.samples(Histogram::IndependentSetSize), vec![7]);
    }

    #[test]
    fn open_spans_are_reported_as_orphans() {
        let sink = MemorySink::new();
        sink.record(start(1, None, "root", 0));
        assert_eq!(sink.open_spans().len(), 1);
        sink.record(Event::SpanEnd { id: SpanId(1), end_ns: 5 });
        assert!(sink.open_spans().is_empty());
        sink.clear();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn composite_sinks_forward_to_every_member() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        let both = (&a, Some(&b));
        both.record(start(1, None, "x", 0));
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
        let none: Option<&MemorySink> = None;
        none.record(start(2, None, "y", 0));
    }

    #[test]
    fn null_sink_is_compile_time_disabled() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(MemorySink::ENABLED) };
        const { assert!(<(NullSink, MemorySink)>::ENABLED) };
        const { assert!(!<(NullSink, NullSink)>::ENABLED) };
        NullSink.record(start(1, None, "ignored", 0));
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(Event::SpanStart {
            id: SpanId(1),
            parent: None,
            name: "reduction",
            index: Some(3),
            start_ns: 42,
        });
        sink.record(Event::CounterAdd { counter: Counter::Retries, delta: 2, span: None });
        sink.record(Event::SpanEnd { id: SpanId(1), end_ns: 99 });
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"event\":\"span_start\",\"id\":1,\"parent\":null,\"name\":\"reduction\",\"index\":3,\"t_ns\":42}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"counter\",\"counter\":\"retries\",\"delta\":2,\"span\":null}"
        );
        assert_eq!(lines[2], "{\"event\":\"span_end\",\"id\":1,\"t_ns\":99}");
    }

    /// A writer that counts flushes and exposes what reached it.
    #[derive(Default)]
    struct FlushProbe {
        bytes: Vec<u8>,
        flushes: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Write for FlushProbe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_flushes_on_every_span_close() {
        let flushes = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let sink = JsonlSink::new(FlushProbe { bytes: Vec::new(), flushes: flushes.clone() });
        sink.record(start(1, None, "root", 0));
        sink.record(Event::CounterAdd { counter: Counter::Phases, delta: 1, span: None });
        assert_eq!(flushes.load(std::sync::atomic::Ordering::SeqCst), 0, "no close yet");
        sink.record(Event::SpanEnd { id: SpanId(1), end_ns: 9 });
        assert_eq!(flushes.load(std::sync::atomic::Ordering::SeqCst), 1, "span close flushes");
        sink.flush();
        assert_eq!(flushes.load(std::sync::atomic::Ordering::SeqCst), 2, "explicit flush");
        drop(sink);
        assert!(flushes.load(std::sync::atomic::Ordering::SeqCst) >= 3, "drop flushes the tail");
    }

    #[test]
    fn jsonl_sink_keeps_its_first_write_error_for_into_inner() {
        // Sixteen bytes hold no event: the first write fails, the sink
        // goes on, and `into_inner` returns that failure.
        let mut buf = [0u8; 16];
        let sink = JsonlSink::new(&mut buf[..]);
        sink.record(start(1, None, "reduction", 0));
        sink.record(Event::SpanEnd { id: SpanId(1), end_ns: 9 });
        let err = sink.into_inner().expect_err("the writes did not fit");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert!(JsonlSink::new(Vec::new()).into_inner().is_ok());
    }

    #[test]
    fn jsonl_sink_flushes_when_dropped_during_unwinding() {
        let flushes = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let probe_flushes = flushes.clone();
        let result = std::panic::catch_unwind(move || {
            let sink = JsonlSink::new(FlushProbe { bytes: Vec::new(), flushes: probe_flushes });
            sink.record(start(1, None, "doomed", 0));
            panic!("simulated crash mid-run");
        });
        assert!(result.is_err());
        assert!(
            flushes.load(std::sync::atomic::Ordering::SeqCst) >= 1,
            "the drop during unwinding must flush the buffered tail"
        );
    }

    #[test]
    fn counter_and_histogram_names_are_stable() {
        assert_eq!(Counter::CsrBytes.name(), "csr_bytes");
        assert_eq!(Counter::StalledSteps.to_string(), "stalled_steps");
        assert_eq!(Counter::OracleCacheHits.name(), "oracle_cache_hit");
        assert_eq!(Counter::OracleCacheMisses.name(), "oracle_cache_miss");
        assert_eq!(Counter::OracleCacheRejects.name(), "oracle_cache_reject");
        assert_eq!(Counter::RequestsAdmitted.name(), "requests_admitted");
        assert_eq!(Counter::RequestsRejected.name(), "requests_rejected");
        assert_eq!(Counter::DeadlinesExceeded.name(), "requests_deadline_exceeded");
        assert_eq!(Counter::QueueWaitNs.name(), "queue_wait_total_ns");
        assert_eq!(Counter::ConnectionsAccepted.name(), "connections_accepted");
        assert_eq!(Counter::ConnectionsRefused.name(), "connections_refused");
        assert_eq!(Counter::BytesIn.name(), "bytes_in");
        assert_eq!(Counter::BytesOut.name(), "bytes_out");
        assert_eq!(Counter::BadRequests.name(), "bad_requests");
        assert_eq!(Counter::LazyCsrBuilds.name(), "lazy_csr_builds");
        assert_eq!(Histogram::ShardBuildNs.name(), "shard_build_ns");
        assert_eq!(Histogram::RealizedLocality.to_string(), "realized_locality");
        assert_eq!(Histogram::QueueDepth.name(), "queue_depth");
        assert_eq!(Histogram::QueueWaitNs.name(), "queue_wait_ns");
        assert_eq!(Histogram::RequestLatencyNs.name(), "request_latency_ns");
    }
}
