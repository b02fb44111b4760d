//! drms-pulse: online telemetry, health rules, and live stall attribution
//! for in-flight runs.
//!
//! The existing observability layer (`drms-obs`) is post-hoc: a
//! [`TraceRecorder`](drms_obs::TraceRecorder) accumulates everything and is
//! inspected after the run. Pulse adds the *online* half, built entirely on
//! the same [`Recorder`] hook points:
//!
//! * a streaming aggregator — bounded per-task sample rings drained by a
//!   collector into tumbling windows over simulated time (per-wave compute
//!   and checkpoint throughput, SOP stall seconds, retry/giveup rates,
//!   PIOFS queue depth and degraded-mode status, memory-tier replica
//!   health);
//! * a declarative health-rule engine ([`PulseRule`]) with
//!   threshold/rate/absence/skew predicates over those windows, emitting
//!   typed alerts as first-class obs events;
//! * live exporters — a heartbeat stream (one sorted-key JSON line per
//!   settled window) and a plain-text status view for bench binaries.
//!
//! Attach pulse next to a trace via
//! [`FanoutRecorder`](drms_obs::FanoutRecorder):
//!
//! ```
//! use std::sync::Arc;
//! use drms_obs::{FanoutRecorder, Recorder, TraceRecorder};
//! use drms_pulse::{Pulse, PulseConfig};
//!
//! let trace = Arc::new(TraceRecorder::new());
//! let pulse = Pulse::new(PulseConfig { ntasks: 4, ..PulseConfig::default() });
//! pulse.set_sink(trace.clone());
//! let rec: Arc<dyn Recorder> =
//!     Arc::new(FanoutRecorder::new(vec![trace, pulse.recorder()]));
//! // ... run with `rec`, calling `pulse.drain()` periodically ...
//! let report = pulse.finish();
//! assert!(report.alerts.is_empty());
//! ```
//!
//! Determinism: each ring clamps sample stamps to its own high-water mark,
//! so stamp sequences depend only on what each task produced — never on
//! drain timing — and a window is evaluated only once every producing
//! ring's watermark has passed it. For a fixed fault seed the heartbeat
//! stream and alert list are byte-identical run to run, no matter how the
//! collector's drains interleave with the run.
//!
//! Pulse meters itself: host time spent inside its recorder hooks and
//! collector is accumulated and reported as `pulse.overhead_seconds`, and
//! the `bench --bin gate -- pulse` gate holds that self-overhead under 2% of the
//! host wall time of an identical pulse-off run.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod collect;
pub mod heartbeat;
mod recorder;
mod ring;
pub mod rules;
mod view;
pub mod window;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use drms_obs::{names, NullRecorder, Recorder};
use parking_lot::Mutex;

use collect::Collector;

pub use recorder::PulseRecorder;
pub use rules::{builtin_rules, Alert, Predicate, PulseRule, RuleEngine, RuleThresholds};
pub use window::{window_bounds, window_of, GaugeWrite, WindowStats};

/// Configuration for a [`Pulse`] instance.
#[derive(Debug, Clone)]
pub struct PulseConfig {
    /// SPMD tasks in the run (one sample ring each; out-of-range ranks
    /// clamp to the last ring).
    pub ntasks: usize,
    /// Tumbling-window width in simulated seconds.
    pub window: f64,
    /// Health rules to evaluate per window.
    pub rules: Vec<PulseRule>,
}

impl Default for PulseConfig {
    fn default() -> PulseConfig {
        PulseConfig { ntasks: 1, window: 0.5, rules: builtin_rules(&RuleThresholds::default()) }
    }
}

/// Everything pulse knew when the run ended.
#[derive(Debug, Clone)]
pub struct PulseReport {
    /// Heartbeat lines, one sorted-key JSON object per settled window that
    /// had samples or alerts, in window order.
    pub heartbeats: Vec<String>,
    /// Every alert fired, in firing order.
    pub alerts: Vec<Alert>,
    /// Samples ingested across all rings.
    pub samples: u64,
    /// Samples dropped by full rings.
    pub dropped: u64,
    /// Cumulative counter totals observed online, by metric name. Matches
    /// a post-hoc trace's totals for the same run.
    pub cum_counters: std::collections::BTreeMap<&'static str, u64>,
    /// Cumulative closed-span seconds per `(rank, phase)`. Matches the
    /// post-hoc per-phase span sums exactly (same float additions).
    pub span_seconds: std::collections::BTreeMap<(usize, drms_obs::Phase), f64>,
    /// Host seconds pulse spent in its own hooks and collector.
    pub overhead_seconds: f64,
}

/// The online observability pipeline: recorder, collector, rule engine and
/// exporters behind one handle.
///
/// Shareable across threads; the hot path (recorder hooks) only touches the
/// per-rank rings, while [`drain`](Pulse::drain)/[`finish`](Pulse::finish)
/// take the collector lock.
pub struct Pulse {
    recorder: Arc<PulseRecorder>,
    collector: Mutex<Collector>,
    sink: Mutex<Arc<dyn Recorder>>,
    collect_ns: AtomicU64,
}

impl Pulse {
    /// Builds the pipeline for `config`.
    pub fn new(config: PulseConfig) -> Arc<Pulse> {
        Arc::new(Pulse {
            recorder: PulseRecorder::new(config.ntasks),
            collector: Mutex::new(Collector::new(config.window, config.rules)),
            sink: Mutex::new(Arc::new(NullRecorder)),
            collect_ns: AtomicU64::new(0),
        })
    }

    /// The recorder to install (typically fanned out next to a trace).
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        self.recorder.clone() as Arc<dyn Recorder>
    }

    /// Where alerts, heartbeat counters and pulse self-metrics are emitted
    /// as first-class obs events. Set this to the underlying trace
    /// recorder, **not** the fan-out that includes pulse itself (that would
    /// feed alerts back into the rings).
    pub fn set_sink(&self, sink: Arc<dyn Recorder>) {
        *self.sink.lock() = sink;
    }

    /// Drains every ring and settles all windows behind the watermark.
    /// Call periodically during the run (any cadence; content is
    /// drain-invariant). Returns the number of samples ingested.
    pub fn drain(&self) -> usize {
        let t0 = Instant::now();
        let drains = self.recorder.drain_all();
        let sink = self.sink.lock().clone();
        let n = self.collector.lock().ingest(drains, &sink);
        self.collect_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        n
    }

    /// Final drain plus forced settlement of every remaining window, then
    /// the end-of-run report. Emits `pulse.samples`, `pulse.dropped` and
    /// `pulse.overhead_seconds` to the sink. Idempotent.
    pub fn finish(&self) -> PulseReport {
        let t0 = Instant::now();
        let drains = self.recorder.drain_all();
        let sink = self.sink.lock().clone();
        let mut c = self.collector.lock();
        let already = c.finished();
        if !already {
            c.ingest(drains, &sink);
            c.finish(&sink);
        }
        drop(c);
        self.collect_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let overhead = self.overhead_seconds();
        if !already && sink.enabled() {
            sink.gauge_set(names::PULSE_OVERHEAD_SECONDS, 0, overhead);
        }
        let c = self.collector.lock();
        PulseReport {
            heartbeats: c.heartbeats.clone(),
            alerts: c.alerts.clone(),
            samples: c.samples,
            dropped: c.dropped,
            cum_counters: c.cum_counters.clone(),
            span_seconds: c.cum_span_secs.clone(),
            overhead_seconds: overhead,
        }
    }

    /// Heartbeat lines settled so far.
    pub fn heartbeats(&self) -> Vec<String> {
        self.collector.lock().heartbeats.clone()
    }

    /// Alerts fired so far.
    pub fn alerts(&self) -> Vec<Alert> {
        self.collector.lock().alerts.clone()
    }

    /// Host seconds pulse has spent on itself so far (recorder hooks plus
    /// collector drains).
    pub fn overhead_seconds(&self) -> f64 {
        self.recorder.overhead_seconds() + self.collect_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Plain-text status table over the most recent settled windows and
    /// all fired alerts.
    pub fn status(&self) -> String {
        view::render(&self.collector.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::{Phase, TraceRecorder};

    #[test]
    fn end_to_end_windows_settle_and_report() {
        let pulse = Pulse::new(PulseConfig { ntasks: 2, ..PulseConfig::default() });
        let trace = Arc::new(TraceRecorder::new());
        pulse.set_sink(trace.clone());
        let rec = pulse.recorder();
        // Rank 0 and 1 both produce; retries storm in window 0.
        for rank in 0..2 {
            rec.span_start(0.0, rank, Phase::StreamWave, "w");
            rec.span_end(0.4, rank, Phase::StreamWave, "w");
            rec.counter_add_at(0.1, rank, names::IO_RETRIES, None, 10);
            rec.counter_add_at(3.0, rank, names::COMMITS, None, 1);
        }
        pulse.drain();
        let report = pulse.finish();
        assert_eq!(report.samples, 8);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.cum_counters[names::IO_RETRIES], 20);
        assert!((report.span_seconds[&(0, Phase::StreamWave)] - 0.4).abs() < 1e-12);
        assert!(report.alerts.iter().any(|a| a.rule == names::ALERT_RETRY_STORM));
        assert!(!report.heartbeats.is_empty());
        // Alerts and pulse meta-metrics landed in the sink as obs events.
        let m = trace.metrics();
        assert_eq!(m.counter_total(names::ALERT_RETRY_STORM), 1);
        assert_eq!(m.counter_total(names::PULSE_ALERTS), report.alerts.len() as u64);
        assert_eq!(m.counter_total(names::PULSE_SAMPLES), 8);
        assert!(m.gauge(names::PULSE_OVERHEAD_SECONDS, 0).is_some());
        // finish() is idempotent.
        let again = pulse.finish();
        assert_eq!(again.heartbeats, report.heartbeats);
        assert_eq!(m.counter_total(names::PULSE_SAMPLES), 8);
    }

    #[test]
    fn drain_cadence_does_not_change_output() {
        let run = |chunked: bool| {
            let pulse = Pulse::new(PulseConfig { ntasks: 2, ..PulseConfig::default() });
            let rec = pulse.recorder();
            for i in 0..40u64 {
                let t = i as f64 * 0.1;
                let rank = (i % 2) as usize;
                rec.counter_add_at(t, rank, names::IO_RETRIES, None, 1 + i % 3);
                if chunked && i % 7 == 0 {
                    pulse.drain();
                }
            }
            let r = pulse.finish();
            (r.heartbeats, r.alerts)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn status_renders_after_settlement() {
        let pulse = Pulse::new(PulseConfig::default());
        let rec = pulse.recorder();
        rec.counter_add_at(0.1, 0, names::COMMITS, None, 1);
        pulse.finish();
        let s = pulse.status();
        assert!(s.contains("pulse | windows settled: 1"));
    }
}
