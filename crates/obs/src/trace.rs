//! The collecting recorder.

use std::collections::{BTreeMap, HashMap};

use crate::metrics::{Histogram, MetricsRegistry};
use crate::recorder::{Record, Recorder};
use crate::summary::PhaseSummary;
use crate::Phase;
use parking_lot::Mutex;

/// What a [`TraceEvent`] marks: a span boundary or an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening.
    Begin,
    /// Span closing.
    End,
    /// Instantaneous event.
    Instant,
}

/// One recorded event, timestamped in simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub t: f64,
    /// Reporting task rank.
    pub rank: usize,
    /// Pipeline phase (export category).
    pub phase: Phase,
    /// Span or event name.
    pub name: String,
    /// Boundary kind.
    pub kind: EventKind,
    /// Correlation id linking this event to others (JSA incarnation
    /// numbers). `None` for uncorrelated events.
    pub corr: Option<u64>,
}

/// One PIOFS server's busy interval inside a priced I/O phase, in simulated
/// seconds. The per-server Gantt/utilization report is built from these.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerInterval {
    /// Server index.
    pub server: usize,
    /// Name of the I/O phase that occupied the server.
    pub name: String,
    /// Interval start (the later of the server's prior busy horizon and
    /// the phase start).
    pub start: f64,
    /// Interval end (the server's new busy horizon).
    pub end: f64,
}

impl TraceEvent {
    /// The event a span or event report makes on `rank` at `t`; `None` for
    /// an untimed report and for server intervals, counters and gauges.
    pub fn from_record(t: Option<f64>, rank: usize, r: Record<'_>) -> Option<TraceEvent> {
        let (phase, name, kind, corr) = match r {
            Record::SpanStart { phase, name } => (phase, name, EventKind::Begin, None),
            Record::SpanEnd { phase, name } => (phase, name, EventKind::End, None),
            Record::Event { phase, name, corr } => (phase, name, EventKind::Instant, corr),
            _ => return None,
        };
        Some(TraceEvent { t: t?, rank, phase, name: name.to_owned(), kind, corr })
    }
}

/// Pairs span boundaries LIFO per `(rank, phase, name)`: each `End` closes
/// the most recent open `Begin` of its key, so nested same-name spans pair
/// innermost-first, and unmatched boundaries are dropped. `events` must be
/// sorted as [`TraceRecorder::events`] returns them, which makes the
/// pairing, and every sum over it, independent of host thread order.
/// Returns `(start, End event)` per closed span, in `End` order.
pub fn closed_spans(events: &[TraceEvent]) -> Vec<(f64, &TraceEvent)> {
    let mut open: HashMap<(usize, Phase, &str), Vec<f64>> = HashMap::new();
    let mut closed = Vec::new();
    for e in events {
        let key = (e.rank, e.phase, e.name.as_str());
        match e.kind {
            EventKind::Begin => open.entry(key).or_default().push(e.t),
            EventKind::End => {
                if let Some(start) = open.get_mut(&key).and_then(Vec::pop) {
                    closed.push((start, e));
                }
            }
            EventKind::Instant => {}
        }
    }
    closed
}

/// Per-phase latency histograms of the closed spans in the sorted `events`,
/// sorted by phase name.
pub(crate) fn span_histograms(events: &[TraceEvent]) -> BTreeMap<&'static str, Histogram> {
    let mut hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for (start, end) in closed_spans(events) {
        hists.entry(end.phase.as_str()).or_default().record(end.t - start);
    }
    hists
}

/// Recorder that appends events to a vector under one short-lived mutex
/// and aggregates counters/gauges into a [`MetricsRegistry`]. Event order
/// is append order; consumers sort by time where needed.
///
/// The per-phase span latency histograms of the JSONL export are derived
/// there from the sorted [`TraceRecorder::events`] through
/// [`closed_spans`], like [`PhaseSummary`]; nothing pairs spans live.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<TraceEvent>>,
    servers: Mutex<Vec<ServerInterval>>,
    metrics: MetricsRegistry,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all recorded events, sorted by (time, rank). The rank
    /// tiebreak matters for determinism: ranks append concurrently, so at
    /// equal timestamps the raw append order races across runs. Within one
    /// (time, rank) group the stable sort keeps that rank's own append
    /// order, which preserves Begin-before-End at equal timestamps.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut ev = self.events.lock().clone();
        ev.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.rank.cmp(&b.rank)));
        ev
    }

    /// Snapshot of all server busy intervals, sorted by (start, server,
    /// end, name) so the listing is deterministic across runs.
    pub fn server_intervals(&self) -> Vec<ServerInterval> {
        let mut si = self.servers.lock().clone();
        si.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.server.cmp(&b.server))
                .then(a.end.total_cmp(&b.end))
                .then(a.name.cmp(&b.name))
        });
        si
    }

    /// The aggregated counters and gauges.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Per-phase summary derived from the recorded rank-0 spans.
    pub fn phase_summary(&self) -> PhaseSummary {
        PhaseSummary::from_events(&self.events())
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, t: Option<f64>, rank: usize, r: Record<'_>) {
        match r {
            Record::ServerBusy { server, name, end } => {
                let start = t.unwrap_or(end);
                self.servers.lock().push(ServerInterval {
                    server,
                    name: name.to_owned(),
                    start,
                    end,
                });
            }
            Record::Counter { name, array, delta } => {
                self.metrics.counter_add(rank, name, array, delta)
            }
            Record::Gauge { name, index, value } => self.metrics.gauge_set(name, index, value),
            _ => {
                if let Some(ev) = TraceEvent::from_record(t, rank, r) {
                    self.events.lock().push(ev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_events_and_metrics() {
        let r = TraceRecorder::new();
        assert!(r.enabled());
        r.span_start(1.0, 0, Phase::Segment, "write");
        r.event(1.5, 1, Phase::Control, "mark");
        r.span_end(2.0, 0, Phase::Segment, "write");
        r.counter_add(0, crate::names::SEGMENT_BYTES, None, 64);
        r.gauge_set(crate::names::SERVER_BUSY, 3, 0.25);
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].kind, EventKind::Begin);
        assert_eq!(ev[1].kind, EventKind::Instant);
        assert_eq!(ev[2].kind, EventKind::End);
        assert_eq!(r.metrics().counter_total(crate::names::SEGMENT_BYTES), 64);
        assert_eq!(r.metrics().gauge(crate::names::SERVER_BUSY, 3), Some(0.25));
    }

    #[test]
    fn events_sorted_by_simulated_time() {
        let r = TraceRecorder::new();
        r.event(5.0, 0, Phase::Control, "late");
        r.event(1.0, 1, Phase::Control, "early");
        let ev = r.events();
        assert_eq!(ev[0].name, "early");
        assert_eq!(ev[1].name, "late");
    }

    #[test]
    fn span_close_records_phase_latency_histogram() {
        let r = TraceRecorder::new();
        r.span_start(1.0, 0, Phase::IoPhase, "collective");
        r.span_start(2.0, 1, Phase::IoPhase, "collective");
        r.span_end(4.0, 1, Phase::IoPhase, "collective");
        r.span_end(5.0, 0, Phase::IoPhase, "collective");
        // Unmatched end: ignored, like PhaseSummary.
        r.span_end(9.0, 2, Phase::IoPhase, "collective");
        let h = &span_histograms(&r.events())["io_phase"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 4.0);
        assert!((h.sum() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn nested_same_name_spans_pair_lifo_per_rank() {
        let r = TraceRecorder::new();
        r.span_start(0.0, 0, Phase::Arrays, "a");
        r.span_start(1.0, 0, Phase::Arrays, "a");
        r.span_end(2.0, 0, Phase::Arrays, "a"); // inner: 1
        r.span_end(4.0, 0, Phase::Arrays, "a"); // outer: 4
        let h = &span_histograms(&r.events())["arrays"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 4.0);
        assert!((h.sum() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn server_intervals_sorted_deterministically() {
        let r = TraceRecorder::new();
        r.server_interval(0, 3, "collective", 5.0, 6.0);
        r.server_interval(0, 1, "collective", 2.0, 4.0);
        r.server_interval(0, 0, "collective", 2.0, 3.0);
        let si = r.server_intervals();
        assert_eq!(si.len(), 3);
        assert_eq!((si[0].server, si[0].start), (0, 2.0));
        assert_eq!((si[1].server, si[1].start), (1, 2.0));
        assert_eq!((si[2].server, si[2].start), (3, 5.0));
    }

    #[test]
    fn event_with_corr_defaults_forward_and_trace_keeps_id() {
        let r = TraceRecorder::new();
        r.event_with_corr(0.0, 0, Phase::Control, "job bt restarted", 2);
        let ev = r.events();
        assert_eq!(ev[0].corr, Some(2));
    }
}
