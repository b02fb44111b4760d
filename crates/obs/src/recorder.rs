//! The [`Recorder`] trait and its zero-cost null implementation.

use crate::Phase;

/// One encoded flight-recorder seal, as returned by
/// [`Recorder::flight_seal`]: the drained contents of the sealing rank's
/// bounded in-memory ring, ready to be persisted alongside checkpoint data.
///
/// The `tag` uniquely identifies the seal across the whole job
/// (incarnation, rank, and per-rank seal sequence) and is safe to use as a
/// file name; `events` and `evicted` let the sealing call site publish
/// capture/overflow counters without the flight recorder ever re-entering
/// the recorder stack it is part of.
#[derive(Debug, Clone)]
pub struct FlightSeal {
    /// Unique seal tag, e.g. `inc0-r3-s2`.
    pub tag: String,
    /// Encoded ring contents (self-describing wire format).
    pub bytes: Vec<u8>,
    /// Events drained into this seal.
    pub events: u64,
    /// Events evicted oldest-first from the full ring since the last seal.
    pub evicted: u64,
}

/// File name of rank `rank`'s sealed ring under a checkpoint (or staging)
/// prefix directory.
pub fn ring_file_name(rank: usize) -> String {
    format!("blackbox-r{rank}")
}

/// Storage directory crash-point salvage seals land under (keyed by their
/// unique seal tag, so they never collide across incarnations).
pub const SALVAGE_DIR: &str = "bb";

/// One report to a [`Recorder`]: what happened, without the when and who
/// that [`Recorder::record`] carries beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Record<'a> {
    /// A span named `name` opened.
    SpanStart {
        /// Pipeline phase of the span.
        phase: Phase,
        /// Span name.
        name: &'a str,
    },
    /// The most recent open span with this `(rank, phase, name)` closed.
    SpanEnd {
        /// Pipeline phase of the span.
        phase: Phase,
        /// Span name.
        name: &'a str,
    },
    /// An instantaneous event.
    Event {
        /// Pipeline phase of the event.
        phase: Phase,
        /// Event name.
        name: &'a str,
        /// Correlation id linking the event to other records (e.g. a job
        /// start to its JSA incarnation number); `None` for uncorrelated
        /// events.
        corr: Option<u64>,
    },
    /// One PIOFS server was busy from the report's time until `end` inside
    /// the priced I/O phase `name`, for utilization and stripe-imbalance
    /// attribution. The rank is the task whose I/O phase priced it.
    ServerBusy {
        /// Server index.
        server: usize,
        /// Name of the I/O phase that occupied the server.
        name: &'a str,
        /// The server's new busy horizon, in simulated seconds.
        end: f64,
    },
    /// `delta` added to the monotonic counter `name`.
    Counter {
        /// Metric name (see [`crate::names`]).
        name: &'static str,
        /// Checkpoint array the increment belongs to, when applicable.
        array: Option<&'a str>,
        /// Amount added.
        delta: u64,
    },
    /// Gauge `name[index]` set to `value` (e.g. per-server busy time).
    Gauge {
        /// Metric name (see [`crate::names`]).
        name: &'static str,
        /// Gauge index (a server, or 0 for scalar gauges).
        index: usize,
        /// New value.
        value: f64,
    },
}

/// Sink for structured spans, instant events, counters, and gauges.
///
/// A sink implements one report method, [`Recorder::record`]. The named
/// spellings (`span_start`, `event`, `counter_add_at`, ...) are what
/// instrumentation calls; each only builds a [`Record`] and passes it on,
/// and no sink overrides them.
///
/// All timestamps are **simulated** seconds supplied by the caller's task
/// clock; implementations must not consult host time. `rank` is the
/// reporting task's rank (control-plane callers pass rank 0).
///
/// Every method has a default body, and `record`'s is empty, so null
/// recording costs nothing; instrumentation sites may additionally check
/// [`Recorder::enabled`] to skip building labels.
#[allow(unused_variables)]
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. When `false`, callers may
    /// skip instrumentation entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// The one report hook: `r` happened on `rank` at simulated time `t`.
    /// `t == None` marks a control-plane report that has no clock.
    fn record(&self, t: Option<f64>, rank: usize, r: Record<'_>) {}

    /// Opens a span named `name` at simulated time `t`.
    fn span_start(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        self.record(Some(t), rank, Record::SpanStart { phase, name });
    }

    /// Closes the most recent open span with this `(rank, phase, name)`.
    fn span_end(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        self.record(Some(t), rank, Record::SpanEnd { phase, name });
    }

    /// Records an instantaneous event.
    fn event(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        self.record(Some(t), rank, Record::Event { phase, name, corr: None });
    }

    /// Records an instantaneous event carrying a correlation id, so causal
    /// analysis can link it to other records.
    fn event_with_corr(&self, t: f64, rank: usize, phase: Phase, name: &str, corr: u64) {
        self.record(Some(t), rank, Record::Event { phase, name, corr: Some(corr) });
    }

    /// Reports one PIOFS server's busy interval `[start, end]` inside a
    /// priced I/O phase; `rank` is the task whose I/O phase priced it.
    fn server_interval(&self, rank: usize, server: usize, name: &str, start: f64, end: f64) {
        self.record(Some(start), rank, Record::ServerBusy { server, name, end });
    }

    /// Adds `delta` to the monotonic counter `name`, labelled by `rank`
    /// and optionally an `array` name, with no clock.
    fn counter_add(&self, rank: usize, name: &'static str, array: Option<&str>, delta: u64) {
        self.record(None, rank, Record::Counter { name, array, delta });
    }

    /// As [`Recorder::counter_add`], stamped with the caller's simulated
    /// clock `t`. Instrumentation sites that hold a clock should prefer
    /// this spelling.
    fn counter_add_at(
        &self,
        t: f64,
        rank: usize,
        name: &'static str,
        array: Option<&str>,
        delta: u64,
    ) {
        self.record(Some(t), rank, Record::Counter { name, array, delta });
    }

    /// Sets gauge `name[index]` to `value` from the control plane (rank 0,
    /// no clock).
    fn gauge_set(&self, name: &'static str, index: usize, value: f64) {
        self.record(None, 0, Record::Gauge { name, index, value });
    }

    /// As [`Recorder::gauge_set`], stamped with the caller's simulated
    /// clock `t` and reporting `rank`.
    fn gauge_set_at(&self, t: f64, rank: usize, name: &'static str, index: usize, value: f64) {
        self.record(Some(t), rank, Record::Gauge { name, index, value });
    }

    /// Whether a flight recorder is attached somewhere in this recorder
    /// stack. Instrumentation that exists purely for the flight recorder
    /// (commit markers, ring persistence, the extra seal barrier) gates on
    /// this so runs without one stay bit-identical to builds before it.
    fn flight_enabled(&self) -> bool {
        false
    }

    /// Seals a snapshot of the calling rank's flight-recorder ring at
    /// simulated time `t`, returning the encoded seal for the caller to
    /// persist. `reason` labels why the seal was taken (e.g. `"sop"` or a
    /// crash-point name) and is embedded in the seal header.
    ///
    /// Only a flight-recorder sink returns `Some`; every other recorder
    /// keeps this default so existing stacks are unaffected. Must be
    /// called from rank `rank`'s own thread — rings are single-writer.
    fn flight_seal(&self, t: f64, rank: usize, reason: &str) -> Option<FlightSeal> {
        None
    }
}

/// Recorder that tees every report to a list of downstream recorders, so a
/// post-hoc trace sink and an online streaming sink can observe the same
/// run. `enabled()` is true when any branch is enabled; disabled branches
/// still receive the calls (their own empty bodies make that free).
pub struct FanoutRecorder {
    sinks: Vec<std::sync::Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// A fan-out over `sinks`, invoked in order on every report.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Recorder>>) -> FanoutRecorder {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, t: Option<f64>, rank: usize, r: Record<'_>) {
        for s in &self.sinks {
            s.record(t, rank, r);
        }
    }

    fn flight_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.flight_enabled())
    }

    fn flight_seal(&self, t: f64, rank: usize, reason: &str) -> Option<FlightSeal> {
        self.sinks.iter().find_map(|s| s.flight_seal(t, rank, reason))
    }
}

/// Recorder that drops everything; the default wherever a recorder is
/// optional. `enabled()` is `false`, so instrumented code short-circuits.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = NullRecorder;
        assert!(!r.enabled());
        assert!(!r.flight_enabled());
        r.span_start(0.0, 0, Phase::Init, "x");
        r.record(None, 0, Record::Gauge { name: crate::names::SERVER_BUSY, index: 2, value: 1.5 });
        assert!(r.flight_seal(0.9, 0, "sop").is_none());
    }

    /// Keeps every report it receives, its `Record` as a debug string.
    #[derive(Default)]
    struct Capture(Mutex<Vec<(Option<f64>, usize, String)>>);

    impl Recorder for Capture {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&self, t: Option<f64>, rank: usize, r: Record<'_>) {
            self.0.lock().push((t, rank, format!("{r:?}")));
        }
    }

    #[test]
    fn every_spelling_reaches_record_through_fanout() {
        use crate::names::{COMMITS, SERVER_BUSY};
        use std::sync::Arc;

        let cap = Arc::new(Capture::default());
        let fan = FanoutRecorder::new(vec![Arc::new(NullRecorder), cap.clone()]);
        assert!(fan.enabled());
        fan.span_start(1.0, 2, Phase::Arrays, "u");
        fan.span_end(2.0, 2, Phase::Arrays, "u");
        fan.event(3.0, 1, Phase::Manifest, "e");
        fan.event_with_corr(4.0, 0, Phase::Control, "job", 7);
        fan.server_interval(3, 5, "collective", 5.0, 6.5);
        fan.counter_add(1, COMMITS, Some("v"), 2);
        fan.counter_add_at(7.0, 2, COMMITS, None, 3);
        fan.gauge_set(SERVER_BUSY, 4, 0.5);
        fan.gauge_set_at(8.0, 3, SERVER_BUSY, 1, 0.25);
        let want: Vec<(Option<f64>, usize, Record<'_>)> = vec![
            (Some(1.0), 2, Record::SpanStart { phase: Phase::Arrays, name: "u" }),
            (Some(2.0), 2, Record::SpanEnd { phase: Phase::Arrays, name: "u" }),
            (Some(3.0), 1, Record::Event { phase: Phase::Manifest, name: "e", corr: None }),
            (Some(4.0), 0, Record::Event { phase: Phase::Control, name: "job", corr: Some(7) }),
            (Some(5.0), 3, Record::ServerBusy { server: 5, name: "collective", end: 6.5 }),
            (None, 1, Record::Counter { name: COMMITS, array: Some("v"), delta: 2 }),
            (Some(7.0), 2, Record::Counter { name: COMMITS, array: None, delta: 3 }),
            (None, 0, Record::Gauge { name: SERVER_BUSY, index: 4, value: 0.5 }),
            (Some(8.0), 3, Record::Gauge { name: SERVER_BUSY, index: 1, value: 0.25 }),
        ];
        let want: Vec<_> =
            want.into_iter().map(|(t, rank, r)| (t, rank, format!("{r:?}"))).collect();
        assert_eq!(*cap.0.lock(), want);
    }

    #[test]
    fn fanout_tees_to_every_sink() {
        use crate::TraceRecorder;
        use std::sync::Arc;

        let a = Arc::new(TraceRecorder::default());
        let b = Arc::new(TraceRecorder::default());
        let fan = FanoutRecorder::new(vec![a.clone() as Arc<dyn Recorder>, b.clone()]);
        assert!(fan.enabled());
        fan.event(1.0, 0, Phase::Control, "e");
        fan.counter_add_at(2.0, 1, crate::names::COMMITS, None, 2);
        fan.gauge_set(crate::names::SERVER_BUSY, 0, 3.5);
        for rec in [&a, &b] {
            assert_eq!(rec.events().len(), 1);
            assert_eq!(rec.metrics().counter_total(crate::names::COMMITS), 2);
            assert_eq!(rec.metrics().gauge(crate::names::SERVER_BUSY, 0), Some(3.5));
        }
    }

    #[test]
    fn fanout_of_nulls_is_disabled() {
        let fan = FanoutRecorder::new(vec![std::sync::Arc::new(NullRecorder)]);
        assert!(!fan.enabled());
    }
}
