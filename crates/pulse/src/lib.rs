//! drms-pulse: online telemetry, health rules, and live stall attribution
//! for in-flight runs.
//!
//! The existing observability layer (`drms-obs`) is post-hoc: a
//! [`TraceRecorder`](drms_obs::TraceRecorder) accumulates everything and is
//! inspected after the run. Pulse adds the *online* half, built entirely on
//! the same [`Recorder`] hook points:
//!
//! * a streaming aggregator — each task's recorder hook folds its report at
//!   once into that task's tumbling windows over simulated time, which a
//!   collector settles and merges (per-wave compute and checkpoint
//!   throughput, SOP stall seconds, retry/giveup rates, PIOFS queue depth
//!   and degraded-mode status, memory-tier replica health);
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
//! Determinism: each task clamps its report stamps to its own high-water
//! mark, so stamp sequences depend only on what each task produced — never
//! on drain timing — and a window is settled only once every task's mark
//! has passed it. Every float a window sums is written by one task, in that
//! task's report order, so for a fixed fault seed the heartbeat stream and
//! alert list are byte-identical run to run, no matter how the collector's
//! drains interleave with the run.
//!
//! Memory is bounded by the unsettled windows each task holds, not by a
//! sample cap: no report is ever dropped. The `bench --bin gate -- pulse`
//! gate holds pulse's modelled self-overhead (the run's report count times
//! the host cost of one report) under 2% of the host wall time of an
//! identical pulse-off run.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod collect;
pub mod heartbeat;
mod recorder;
pub mod rules;
mod view;
pub mod window;

use std::sync::Arc;

use drms_obs::{NullRecorder, Recorder};
use parking_lot::Mutex;

use collect::Collector;

pub use recorder::PulseRecorder;
pub use rules::{builtin_rules, Alert, Predicate, PulseRule, RuleEngine, RuleThresholds};
pub use window::{window_bounds, window_of, GaugeWrite, WindowStats};

/// Configuration for a [`Pulse`] instance.
#[derive(Debug, Clone)]
pub struct PulseConfig {
    /// SPMD tasks in the run (one fold state each; out-of-range ranks
    /// clamp to the last task).
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
    /// Reports folded across all tasks.
    pub samples: u64,
    /// Cumulative counter totals observed online, by metric name. Matches
    /// a post-hoc trace's totals for the same run.
    pub cum_counters: std::collections::BTreeMap<&'static str, u64>,
    /// Cumulative closed-span seconds per `(rank, phase)`. Matches the
    /// post-hoc per-phase span sums exactly (same float additions).
    pub span_seconds: std::collections::BTreeMap<(usize, drms_obs::Phase), f64>,
}

/// The online observability pipeline: recorder, collector, rule engine and
/// exporters behind one handle.
///
/// Shareable across threads; the hot path (recorder hooks) only touches its
/// task's fold, while [`drain`](Pulse::drain)/[`finish`](Pulse::finish)
/// take the collector lock.
pub struct Pulse {
    recorder: Arc<PulseRecorder>,
    collector: Mutex<Collector>,
    sink: Mutex<Arc<dyn Recorder>>,
}

impl Pulse {
    /// Builds the pipeline for `config`.
    pub fn new(config: PulseConfig) -> Arc<Pulse> {
        Arc::new(Pulse {
            recorder: PulseRecorder::new(config.ntasks, config.window),
            collector: Mutex::new(Collector::new(config.window, config.rules)),
            sink: Mutex::new(Arc::new(NullRecorder)),
        })
    }

    /// The recorder to install (typically fanned out next to a trace).
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        self.recorder.clone() as Arc<dyn Recorder>
    }

    /// Where alerts, heartbeat counters and pulse self-metrics are emitted
    /// as first-class obs events. Set this to the underlying trace
    /// recorder, **not** the fan-out that includes pulse itself (that would
    /// feed alerts back into the folds).
    pub fn set_sink(&self, sink: Arc<dyn Recorder>) {
        *self.sink.lock() = sink;
    }

    /// Settles every window behind the watermark. Call periodically during
    /// the run (any cadence; content is drain-invariant). Returns the
    /// number of reports folded since the previous drain.
    pub fn drain(&self) -> usize {
        let sink = self.sink.lock().clone();
        self.collector.lock().drain(&self.recorder, false, &sink)
    }

    /// Forced settlement of every remaining window, then the end-of-run
    /// report. Emits `pulse.samples` to the sink. Idempotent.
    pub fn finish(&self) -> PulseReport {
        let sink = self.sink.lock().clone();
        let mut c = self.collector.lock();
        c.finish(&self.recorder, &sink);
        PulseReport {
            heartbeats: c.heartbeats.clone(),
            alerts: c.alerts.clone(),
            samples: c.samples,
            cum_counters: c.cum_counters.clone(),
            span_seconds: c.cum_span_secs.clone(),
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

    /// Plain-text status table over the most recent settled windows and
    /// all fired alerts.
    pub fn status(&self) -> String {
        view::render(&self.collector.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::{names, Phase, TraceRecorder};

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
        assert_eq!(report.cum_counters[names::IO_RETRIES], 20);
        assert!((report.span_seconds[&(0, Phase::StreamWave)] - 0.4).abs() < 1e-12);
        assert!(report.alerts.iter().any(|a| a.rule == names::ALERT_RETRY_STORM));
        assert!(!report.heartbeats.is_empty());
        // Alerts and pulse meta-metrics landed in the sink as obs events.
        let m = trace.metrics();
        assert_eq!(m.counter_total(names::ALERT_RETRY_STORM), 1);
        assert_eq!(m.counter_total(names::PULSE_ALERTS), report.alerts.len() as u64);
        assert_eq!(m.counter_total(names::PULSE_SAMPLES), 8);
        // finish() is idempotent.
        let again = pulse.finish();
        assert_eq!(again.heartbeats, report.heartbeats);
        assert_eq!(m.counter_total(names::PULSE_SAMPLES), 8);
    }

    #[test]
    fn drain_cadence_does_not_change_output() {
        let run = |every_sample: bool| {
            let pulse = Pulse::new(PulseConfig { ntasks: 3, ..PulseConfig::default() });
            let rec = pulse.recorder();
            let drain = || {
                if every_sample {
                    pulse.drain();
                }
            };
            for step in 0..20u64 {
                let t = step as f64 * 0.3;
                for rank in 0..3 {
                    rec.counter_add_at(t, rank, names::IO_RETRIES, None, 1 + step % 3);
                    drain();
                    // Spans of 0.6 s, across window ends.
                    match step % 3 {
                        0 => rec.span_start(t, rank, Phase::StreamWave, "w"),
                        2 => rec.span_end(t, rank, Phase::StreamWave, "w"),
                        _ => continue,
                    }
                    drain();
                }
                // Ranks 1 and 2 set the same gauge in one window.
                for rank in 1..3 {
                    rec.gauge_set_at(t, rank, names::MEMTIER_REPLICAS, 0, (rank + 2) as f64);
                    drain();
                }
            }
            let r = pulse.finish();
            (r.heartbeats, r.alerts, r.samples, r.cum_counters, r.span_seconds)
        };
        let (once, each) = (run(false), run(true));
        assert_eq!(once.4.len(), 3, "every rank closed spans: {:?}", once.4);
        assert_eq!(once, each);
    }

    #[test]
    fn no_report_is_dropped_without_a_drain() {
        const N: u64 = 200_000;
        let pulse = Pulse::new(PulseConfig::default());
        let rec = pulse.recorder();
        for i in 0..N {
            rec.counter_add_at(i as f64 * 1e-3, 0, names::IO_RETRIES, None, 1 + i % 2);
        }
        let report = pulse.finish();
        assert_eq!(report.samples, N);
        assert_eq!(report.cum_counters[names::IO_RETRIES], N + N / 2);
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
