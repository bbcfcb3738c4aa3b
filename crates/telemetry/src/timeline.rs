//! Per-reduction phase timelines and the flamegraph-style text
//! renderer behind `pslocal trace-report`.
//!
//! Both consumers work off the [`SpanRecord`]s a
//! [`MemorySink`](crate::MemorySink) reconstructs:
//!
//! * [`PhaseTimeline`] aggregates a Theorem 1.1 reduction's span tree
//!   into the build / oracle / commit cost split per phase (the shape
//!   the paper's ρ-phase analysis induces);
//! * [`render_tree`] renders any span forest as an indented tree with
//!   durations, proportional bars, and attributed counters.

use crate::sink::{Counter, SpanRecord};
use crate::{names, SpanId};
use std::fmt::Write as _;

/// Cost attribution of one reduction phase, from its span subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// The phase index.
    pub phase: u64,
    /// Wall time of the whole phase span, ns.
    pub total_ns: u64,
    /// Time spent restricting the previous conflict graph, ns (0 in
    /// phase 0, whose graph is built under the reduction root).
    pub restrict_ns: u64,
    /// Time spent inside oracle calls, ns (summed over attempts).
    pub oracle_ns: u64,
    /// Time spent committing (decode, palette merge, residual scan), ns.
    pub commit_ns: u64,
    /// Oracle attempts made (1 for a clean phase, more under retries).
    pub oracle_attempts: usize,
    /// Hyperedges removed by the phase.
    pub edges_removed: u64,
}

/// A whole reduction's cost split, aggregated from its span tree.
///
/// `build_ns` covers the initial conflict-graph construction plus all
/// phase-incremental restrictions; `total_ns` is the root reduction
/// span, so `total_ns ≥ build_ns + oracle_ns + commit_ns` (the
/// remainder is driver bookkeeping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTimeline {
    /// Wall time of the whole reduction, ns.
    pub total_ns: u64,
    /// Conflict-graph construction + restriction time, ns.
    pub build_ns: u64,
    /// Total oracle time, ns.
    pub oracle_ns: u64,
    /// Total commit time, ns.
    pub commit_ns: u64,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseTiming>,
}

impl PhaseTimeline {
    /// Aggregates the first `reduction` span tree found in `spans`, or
    /// `None` if there is none.
    pub fn from_spans(spans: &[SpanRecord]) -> Option<Self> {
        let root = spans.iter().find(|s| s.name == names::REDUCTION)?;
        let children = |id: SpanId| spans.iter().filter(move |s| s.parent == Some(id));
        let subtree_ns = |id: SpanId, name: &'static str| -> u64 {
            children(id).filter(|s| s.name == name).map(|s| s.duration_ns()).sum()
        };

        let mut timeline = PhaseTimeline {
            total_ns: root.duration_ns(),
            build_ns: subtree_ns(root.id, names::CONFLICT_GRAPH),
            oracle_ns: 0,
            commit_ns: 0,
            phases: Vec::new(),
        };
        let mut phases: Vec<&SpanRecord> =
            children(root.id).filter(|s| s.name == names::PHASE).collect();
        phases.sort_by_key(|s| s.index);
        for phase in phases {
            let timing = PhaseTiming {
                phase: phase.index.unwrap_or(0),
                total_ns: phase.duration_ns(),
                restrict_ns: subtree_ns(phase.id, names::RESTRICT),
                oracle_ns: subtree_ns(phase.id, names::ORACLE),
                commit_ns: subtree_ns(phase.id, names::COMMIT),
                oracle_attempts: children(phase.id).filter(|s| s.name == names::ORACLE).count(),
                edges_removed: phase.counter(Counter::EdgesRemoved),
            };
            timeline.build_ns += timing.restrict_ns;
            timeline.oracle_ns += timing.oracle_ns;
            timeline.commit_ns += timing.commit_ns;
            timeline.phases.push(timing);
        }
        Some(timeline)
    }

    /// Renders the per-phase table `trace-report` prints. The
    /// `build+restrict` column holds each phase's restriction, and its
    /// total adds the phase-0 `conflict-graph` build, which runs under
    /// the root before phase 0 opens.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<7} {:>10} {:>14} {:>10} {:>10} {:>9} {:>7}",
            "phase", "total", "build+restrict", "oracle", "commit", "attempts", "edges-"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<7} {:>10} {:>14} {:>10} {:>10} {:>9} {:>7}",
                p.phase,
                fmt_ns(p.total_ns),
                fmt_ns(p.restrict_ns),
                fmt_ns(p.oracle_ns),
                fmt_ns(p.commit_ns),
                p.oracle_attempts,
                p.edges_removed,
            );
        }
        let _ = writeln!(
            out,
            "{:<7} {:>10} {:>14} {:>10} {:>10}",
            "total",
            fmt_ns(self.total_ns),
            fmt_ns(self.build_ns),
            fmt_ns(self.oracle_ns),
            fmt_ns(self.commit_ns),
        );
        out
    }
}

/// Formats a nanosecond duration with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a span forest as an indented tree: name, duration, a bar
/// proportional to the share of the enclosing root span, and any
/// attributed counters — the flamegraph-style view of `trace-report`.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    for root in roots {
        render_node(spans, root, root.duration_ns().max(1), "", true, true, &mut out);
    }
    out
}

const BAR_WIDTH: usize = 24;

fn render_node(
    spans: &[SpanRecord],
    node: &SpanRecord,
    root_ns: u64,
    prefix: &str,
    is_root: bool,
    is_last: bool,
    out: &mut String,
) {
    let label = match node.index {
        Some(i) => format!("{} {}", node.name, i),
        None => node.name.to_string(),
    };
    let connector = if is_root {
        String::new()
    } else {
        format!("{prefix}{}", if is_last { "└─ " } else { "├─ " })
    };
    let fill = ((node.duration_ns() as u128 * BAR_WIDTH as u128) / root_ns as u128) as usize;
    let bar: String = "#".repeat(fill.min(BAR_WIDTH));
    // One total per counter, printed where that counter was first added.
    let mut annotations = String::new();
    for (i, (c, _)) in node.counters.iter().enumerate() {
        if node.counters[..i].iter().all(|(seen, _)| seen != c) {
            let _ = write!(annotations, " {}={}", c.name(), node.counter(*c));
        }
    }
    for (h, v) in &node.samples {
        let _ = write!(annotations, " {}:{}", h.name(), v);
    }
    if node.end_ns.is_none() {
        annotations.push_str(" (open)");
    }
    let head = format!("{connector}{label}");
    let _ = writeln!(
        out,
        "{head:<40} {:>10}  {bar:<BAR_WIDTH$}{annotations}",
        fmt_ns(node.duration_ns())
    );

    let children: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == Some(node.id)).collect();
    let child_prefix = if is_root {
        String::new()
    } else {
        format!("{prefix}{}", if is_last { "   " } else { "│  " })
    };
    for (i, child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        render_node(spans, child, root_ns, &child_prefix, false, last, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Event, Histogram, MemorySink, Sink, SpanId};

    /// Builds the span tree of a synthetic 2-phase reduction.
    fn synthetic() -> MemorySink {
        let sink = MemorySink::new();
        let mut t = 0u64;
        let mut emit_span =
            |id: u64, parent: Option<u64>, name: &'static str, index: Option<u64>, dur: u64| {
                sink.record(Event::SpanStart {
                    id: SpanId(id),
                    parent: parent.map(SpanId),
                    name,
                    index,
                    start_ns: t,
                });
                t += dur;
                sink.record(Event::SpanEnd { id: SpanId(id), end_ns: t });
            };
        // Hand-rolled flat layout (parents closed after children in
        // reality; MemorySink only needs matching start/end pairs).
        emit_span(2, Some(1), names::CONFLICT_GRAPH, None, 400);
        emit_span(4, Some(3), names::ORACLE, Some(0), 300);
        emit_span(5, Some(3), names::ORACLE, Some(1), 200);
        emit_span(6, Some(3), names::COMMIT, None, 100);
        sink.record(Event::SpanStart {
            id: SpanId(3),
            parent: Some(SpanId(1)),
            name: names::PHASE,
            index: Some(0),
            start_ns: 400,
        });
        sink.record(Event::CounterAdd {
            counter: Counter::EdgesRemoved,
            delta: 9,
            span: Some(SpanId(3)),
        });
        sink.record(Event::SpanEnd { id: SpanId(3), end_ns: 1000 });
        emit_span(8, Some(7), names::RESTRICT, None, 50);
        emit_span(9, Some(7), names::ORACLE, Some(0), 150);
        emit_span(10, Some(7), names::COMMIT, None, 60);
        sink.record(Event::SpanStart {
            id: SpanId(7),
            parent: Some(SpanId(1)),
            name: names::PHASE,
            index: Some(1),
            start_ns: 1000,
        });
        sink.record(Event::SpanEnd { id: SpanId(7), end_ns: 1260 });
        sink.record(Event::SpanStart {
            id: SpanId(1),
            parent: None,
            name: names::REDUCTION,
            index: None,
            start_ns: 0,
        });
        for _ in 0..2 {
            sink.record(Event::CounterAdd {
                counter: Counter::Phases,
                delta: 1,
                span: Some(SpanId(1)),
            });
        }
        sink.record(Event::SpanEnd { id: SpanId(1), end_ns: 1300 });
        sink
    }

    #[test]
    fn timeline_aggregates_the_cost_split() {
        let sink = synthetic();
        let tl = PhaseTimeline::from_spans(&sink.spans()).expect("reduction root present");
        assert_eq!(tl.total_ns, 1300);
        assert_eq!(tl.build_ns, 400 + 50);
        assert_eq!(tl.oracle_ns, 300 + 200 + 150);
        assert_eq!(tl.commit_ns, 100 + 60);
        assert_eq!(tl.phases.len(), 2);
        assert_eq!(tl.phases[0].phase, 0);
        assert_eq!(tl.phases[0].oracle_attempts, 2);
        assert_eq!(tl.phases[0].edges_removed, 9);
        assert_eq!(tl.phases[1].restrict_ns, 50);
        assert_eq!(tl.phases[1].oracle_attempts, 1);
        let table = tl.render();
        assert!(table.contains("phase"));
        assert!(table.contains("total"));
        // The column's total is the build plus every restrict, and its
        // header says so.
        let header = table.lines().next().unwrap_or_default();
        assert!(header.contains("build+restrict"), "{table}");
        let total = table.lines().find(|l| l.starts_with("total")).unwrap_or_default();
        assert!(total.contains(&fmt_ns(400 + 50)), "{table}");
    }

    #[test]
    fn timeline_requires_a_reduction_root() {
        let sink = MemorySink::new();
        sink.record(Event::SpanStart {
            id: SpanId(1),
            parent: None,
            name: names::LOCAL_RUN,
            index: None,
            start_ns: 0,
        });
        sink.record(Event::SpanEnd { id: SpanId(1), end_ns: 10 });
        assert_eq!(PhaseTimeline::from_spans(&sink.spans()), None);
    }

    #[test]
    fn tree_renderer_shows_structure_durations_and_counters() {
        let sink = synthetic();
        let text = render_tree(&sink.spans());
        assert!(text.contains("reduction"));
        assert!(text.contains("├─ "));
        assert!(text.contains("└─ "));
        assert!(text.contains("phase 0"));
        assert!(text.contains("oracle 1"));
        assert!(text.contains("edges_removed=9"));
        // The root's two `phases` adds print as one total.
        assert!(text.contains("phases=2"), "counters summed: {text}");
        assert!(!text.contains("phases=1"), "counters summed: {text}");
        assert!(text.contains("1.3us"), "root duration rendered: {text}");
        // Two phases under one root: phase lines are indented.
        let phase_lines: Vec<&str> = text.lines().filter(|l| l.contains("phase ")).collect();
        assert_eq!(phase_lines.len(), 2);
    }

    #[test]
    fn open_spans_are_flagged() {
        let sink = MemorySink::new();
        sink.record(Event::SpanStart {
            id: SpanId(1),
            parent: None,
            name: names::ORACLE,
            index: None,
            start_ns: 5,
        });
        let text = render_tree(&sink.spans());
        assert!(text.contains("(open)"));
    }

    #[test]
    fn durations_format_adaptively() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
        let sample = Histogram::ShardBuildNs;
        assert_eq!(sample.name(), "shard_build_ns");
    }
}
