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

/// Sink for structured spans, instant events, counters, and gauges.
///
/// All timestamps (`t`) are **simulated** seconds supplied by the caller's
/// task clock; implementations must not consult host time. `rank` is the
/// reporting task's rank (control-plane callers pass rank 0). `array`
/// optionally labels the checkpoint array a sample belongs to.
///
/// Every method has an empty default body so null recording costs nothing;
/// instrumentation sites may additionally check [`Recorder::enabled`] to
/// skip building labels.
#[allow(unused_variables)]
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. When `false`, callers may
    /// skip instrumentation entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a span named `name` at simulated time `t`.
    fn span_start(&self, t: f64, rank: usize, phase: Phase, name: &str) {}

    /// Closes the most recent open span with this `(rank, phase, name)`.
    fn span_end(&self, t: f64, rank: usize, phase: Phase, name: &str) {}

    /// Records an instantaneous event.
    fn event(&self, t: f64, rank: usize, phase: Phase, name: &str) {}

    /// Records an instantaneous event carrying a correlation id, so causal
    /// analysis can link it to other records (e.g. a job start to its JSA
    /// incarnation number). The default forwards to [`Recorder::event`],
    /// dropping the id.
    fn event_with_corr(&self, t: f64, rank: usize, phase: Phase, name: &str, corr: u64) {
        self.event(t, rank, phase, name);
    }

    /// Reports one PIOFS server's busy interval inside a priced I/O phase
    /// (`[start, end]` in simulated seconds), for utilization and
    /// stripe-imbalance attribution. `rank` is the task whose I/O phase
    /// priced the interval: aggregate sinks ignore it, streaming sinks
    /// attribute the interval to that task's stream, keeping per-task sample
    /// order deterministic when several ranks price phases concurrently.
    fn server_interval(&self, rank: usize, server: usize, name: &str, start: f64, end: f64) {}

    /// Adds `delta` to the monotonic counter `name`, labelled by `rank`
    /// and optionally an `array` name.
    fn counter_add(&self, rank: usize, name: &'static str, array: Option<&str>, delta: u64) {}

    /// As [`Recorder::counter_add`], stamped with the caller's simulated
    /// clock `t`. Aggregate-only sinks keep the default (which drops the
    /// timestamp and forwards to [`Recorder::counter_add`]); streaming
    /// sinks such as windowed online collectors override it to place the
    /// increment on the simulated time axis. Instrumentation sites that
    /// hold a clock should prefer this variant.
    fn counter_add_at(
        &self,
        t: f64,
        rank: usize,
        name: &'static str,
        array: Option<&str>,
        delta: u64,
    ) {
        self.counter_add(rank, name, array, delta);
    }

    /// Sets gauge `name[index]` to `value` (e.g. per-server busy time).
    fn gauge_set(&self, name: &'static str, index: usize, value: f64) {}

    /// As [`Recorder::gauge_set`], stamped with the caller's simulated
    /// clock `t` and reporting `rank`. Aggregate sinks keep the default
    /// (which drops both); streaming sinks override it to place the sample
    /// on the reporting task's stream.
    fn gauge_set_at(&self, t: f64, rank: usize, name: &'static str, index: usize, value: f64) {
        self.gauge_set(name, index, value);
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
    /// A fan-out over `sinks`, invoked in order on every hook.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Recorder>>) -> FanoutRecorder {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn span_start(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        for s in &self.sinks {
            s.span_start(t, rank, phase, name);
        }
    }

    fn span_end(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        for s in &self.sinks {
            s.span_end(t, rank, phase, name);
        }
    }

    fn event(&self, t: f64, rank: usize, phase: Phase, name: &str) {
        for s in &self.sinks {
            s.event(t, rank, phase, name);
        }
    }

    fn event_with_corr(&self, t: f64, rank: usize, phase: Phase, name: &str, corr: u64) {
        for s in &self.sinks {
            s.event_with_corr(t, rank, phase, name, corr);
        }
    }

    fn server_interval(&self, rank: usize, server: usize, name: &str, start: f64, end: f64) {
        for s in &self.sinks {
            s.server_interval(rank, server, name, start, end);
        }
    }

    fn counter_add(&self, rank: usize, name: &'static str, array: Option<&str>, delta: u64) {
        for s in &self.sinks {
            s.counter_add(rank, name, array, delta);
        }
    }

    fn counter_add_at(
        &self,
        t: f64,
        rank: usize,
        name: &'static str,
        array: Option<&str>,
        delta: u64,
    ) {
        for s in &self.sinks {
            s.counter_add_at(t, rank, name, array, delta);
        }
    }

    fn gauge_set(&self, name: &'static str, index: usize, value: f64) {
        for s in &self.sinks {
            s.gauge_set(name, index, value);
        }
    }

    fn gauge_set_at(&self, t: f64, rank: usize, name: &'static str, index: usize, value: f64) {
        for s in &self.sinks {
            s.gauge_set_at(t, rank, name, index, value);
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

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.span_start(0.0, 0, Phase::Init, "x");
        r.span_end(1.0, 0, Phase::Init, "x");
        r.event(0.5, 1, Phase::Control, "e");
        r.event_with_corr(0.5, 1, Phase::Control, "e", 7);
        r.server_interval(0, 3, "collective", 0.0, 1.0);
        r.counter_add(0, crate::names::MESSAGES_SENT, None, 3);
        r.counter_add_at(0.7, 0, crate::names::MESSAGES_SENT, None, 3);
        r.gauge_set(crate::names::SERVER_BUSY, 2, 1.5);
        assert!(r.flight_seal(0.9, 0, "sop").is_none());
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
