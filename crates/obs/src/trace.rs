//! The collecting recorder.

use std::collections::HashMap;

use crate::metrics::MetricsRegistry;
use crate::recorder::Recorder;
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
    /// Correlation id linking this event to others (message send/recv
    /// pairs, JSA incarnation numbers). `None` for uncorrelated events.
    pub corr: Option<u64>,
}

/// One point-to-point message as reported by the `msg` layer: the sender's
/// completion time, the receiver's delivery time (once received), and the
/// correlation id both sides share. These are the cross-task causal edges
/// of the span DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgRecord {
    /// Correlation id, unique per message within a trace.
    pub corr: u64,
    /// Sending task rank.
    pub src: usize,
    /// Receiving task rank.
    pub dst: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Sender clock when the send call returned (wire time charged).
    pub send_t: f64,
    /// Receiver clock when delivery completed; `None` if never received.
    pub recv_t: Option<f64>,
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

/// Recorder that appends events to a vector under one short-lived mutex
/// and aggregates counters/gauges into a [`MetricsRegistry`]. Event order
/// is append order; consumers sort by time where needed.
///
/// Span closes additionally record the span's duration into a latency
/// histogram named after the phase (`MetricsRegistry::histogram`), pairing
/// each `span_end` with the most recent open `span_start` of the same
/// `(rank, phase, name)`; unmatched ends are ignored, mirroring
/// [`PhaseSummary`].
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<TraceEvent>>,
    /// Open-span begin times, keyed by (rank, phase, name); a stack per key
    /// supports nested same-name spans.
    open: Mutex<HashMap<(usize, Phase, String), Vec<f64>>>,
    msgs: Mutex<Vec<MsgRecord>>,
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

    /// Snapshot of all message records, sorted by (send time, src, dst,
    /// corr) so the listing is deterministic across runs.
    pub fn msg_records(&self) -> Vec<MsgRecord> {
        let mut ms = self.msgs.lock().clone();
        ms.sort_by(|a, b| {
            a.send_t
                .total_cmp(&b.send_t)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
                .then(a.corr.cmp(&b.corr))
        });
        ms
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

    /// The aggregated counters, gauges, and latency histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Per-phase summary derived from the recorded rank-0 spans.
    pub fn phase_summary(&self) -> PhaseSummary {
        PhaseSummary::from_events(&self.events())
    }

    fn push(&self, ev: TraceEvent) {
        self.events.lock().push(ev);
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        self.open.lock().entry((rank, phase, name.to_owned())).or_default().push(t);
        self.push(TraceEvent {
            t,
            rank,
            phase,
            name: name.to_owned(),
            kind: EventKind::Begin,
            corr: None,
        });
    }

    fn span_end(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        if let Some(t0) =
            self.open.lock().get_mut(&(rank, phase, name.to_owned())).and_then(Vec::pop)
        {
            self.metrics.histogram_record(phase.as_str(), t - t0);
        }
        self.push(TraceEvent {
            t,
            rank,
            phase,
            name: name.to_owned(),
            kind: EventKind::End,
            corr: None,
        });
    }

    fn event(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        self.push(TraceEvent {
            t,
            rank,
            phase,
            name: name.to_owned(),
            kind: EventKind::Instant,
            corr: None,
        });
    }

    fn event_with_corr(&self, t: f64, rank: usize, phase: Phase, name: &str, corr: u64) {
        self.push(TraceEvent {
            t,
            rank,
            phase,
            name: name.to_owned(),
            kind: EventKind::Instant,
            corr: Some(corr),
        });
    }

    fn msg_sent(&self, t: f64, src: usize, dst: usize, tag: u64, corr: u64, bytes: u64) {
        self.msgs.lock().push(MsgRecord { corr, src, dst, tag, bytes, send_t: t, recv_t: None });
        self.push(TraceEvent {
            t,
            rank: src,
            phase: Phase::Msg,
            name: format!("send->{dst}"),
            kind: EventKind::Instant,
            corr: Some(corr),
        });
    }

    fn msg_received(&self, t: f64, src: usize, dst: usize, tag: u64, corr: u64) {
        let _ = tag;
        if let Some(m) = self.msgs.lock().iter_mut().rev().find(|m| m.corr == corr) {
            m.recv_t = Some(t);
        }
        self.push(TraceEvent {
            t,
            rank: dst,
            phase: Phase::Msg,
            name: format!("recv<-{src}"),
            kind: EventKind::Instant,
            corr: Some(corr),
        });
    }

    fn server_interval(&self, _rank: usize, server: usize, name: &str, start: f64, end: f64) {
        self.servers.lock().push(ServerInterval { server, name: name.to_owned(), start, end });
    }

    fn counter_add(&self, rank: usize, name: &'static str, array: Option<&str>, delta: u64) {
        self.metrics.counter_add(rank, name, array, delta);
    }

    fn gauge_set(&self, name: &'static str, index: usize, value: f64) {
        self.metrics.gauge_set(name, index, value);
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
        let h = r.metrics().histogram("io_phase").unwrap();
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
        let h = r.metrics().histogram("arrays").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 4.0);
        assert!((h.sum() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn msg_records_pair_send_and_recv_by_corr() {
        let r = TraceRecorder::new();
        r.msg_sent(1.0, 0, 1, 7, 42, 128);
        r.msg_sent(1.5, 0, 1, 7, 43, 64);
        r.msg_received(2.0, 0, 1, 7, 42);
        let ms = r.msg_records();
        assert_eq!(ms.len(), 2);
        assert_eq!(
            ms[0],
            MsgRecord {
                corr: 42,
                src: 0,
                dst: 1,
                tag: 7,
                bytes: 128,
                send_t: 1.0,
                recv_t: Some(2.0)
            }
        );
        assert_eq!(ms[1].recv_t, None);
        // Instant events carry the correlation id.
        let ev = r.events();
        assert!(ev
            .iter()
            .any(|e| e.phase == Phase::Msg && e.corr == Some(42) && e.name == "send->1"));
        assert!(ev
            .iter()
            .any(|e| e.phase == Phase::Msg && e.corr == Some(42) && e.name == "recv<-0"));
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
