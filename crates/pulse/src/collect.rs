//! The collector: settles windows behind the cross-task watermark, runs
//! the rule engine, and emits heartbeats and alerts.
//!
//! Settlement is what makes the stream *online yet deterministic*: window
//! `W` is taken from the tasks' folds and evaluated as soon as every
//! task's high-water mark has passed it — from that point no task can
//! contribute to `W` again (stamps are per-task monotone), so the
//! evaluation a live drain performs mid-run is byte-identical to what a
//! post-hoc pass would produce. Drain timing only changes *when* a window
//! settles, never what it contains.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use drms_obs::{names, Phase, Recorder};

use crate::heartbeat::Row;
use crate::recorder::PulseRecorder;
use crate::rules::{Alert, PulseRule, RuleEngine};
use crate::window::{window_bounds, window_of, WindowStats};

/// Upper bound on individually evaluated empty windows between two active
/// ones; larger idle gaps are skipped (rules then see the stall at the
/// next active window or at finish).
const MAX_GAP_EVAL: u64 = 4096;

/// How many settled rows the live status view keeps.
const RECENT_ROWS: usize = 8;

pub(crate) struct Collector {
    width: f64,
    /// Next window index to evaluate; `None` until the first settlement.
    next_eval: Option<u64>,
    /// Reports folded over all tasks, as of the latest drain.
    pub samples: u64,
    /// Cumulative totals over every settled window.
    pub cum_counters: BTreeMap<&'static str, u64>,
    pub cum_span_secs: BTreeMap<(usize, Phase), f64>,
    engine: RuleEngine,
    pub heartbeats: Vec<String>,
    pub alerts: Vec<Alert>,
    pub recent: VecDeque<Row>,
    finished: bool,
}

impl Collector {
    pub fn new(width: f64, rules: Vec<PulseRule>) -> Collector {
        Collector {
            width,
            next_eval: None,
            samples: 0,
            cum_counters: BTreeMap::new(),
            cum_span_secs: BTreeMap::new(),
            engine: RuleEngine::new(rules),
            heartbeats: Vec::new(),
            alerts: Vec::new(),
            recent: VecDeque::new(),
            finished: false,
        }
    }

    /// Takes every window now behind the watermark from the tasks' folds
    /// (every window at all with `force`) and evaluates them in order.
    /// Returns the reports folded since the previous drain.
    ///
    /// Windows are settled by index: those below the watermark's own
    /// window. Every later stamp of every task is at or past the watermark,
    /// and `window_of` is monotone in the stamp, so no task can report into
    /// a settled window again — comparing the watermark with a window's
    /// float end could not promise that.
    pub fn drain(&mut self, rec: &PulseRecorder, force: bool, sink: &Arc<dyn Recorder>) -> usize {
        let below = (!force).then(|| window_of(rec.watermark(), self.width));
        let (windows, samples) = rec.take_windows(below);
        let folded = samples - self.samples;
        self.samples = samples;
        for (idx, stats) in windows {
            for (name, delta) in &stats.counters {
                *self.cum_counters.entry(*name).or_default() += delta;
            }
            for (key, secs) in &stats.span_secs {
                *self.cum_span_secs.entry(*key).or_default() += secs;
            }
            let next = self.next_eval.unwrap_or(idx);
            debug_assert!(idx >= next, "window {idx} reported after it settled");
            // Evaluate the empty windows of a bounded idle gap first, so
            // absence rules and carried gauges see time passing.
            if idx > next && idx - next <= MAX_GAP_EVAL {
                for j in next..idx {
                    self.evaluate(j, WindowStats::default(), sink);
                }
            }
            self.evaluate(idx, stats, sink);
            self.next_eval = Some(idx.saturating_add(1));
        }
        folded as usize
    }

    /// Settles everything still open (end of run). Idempotent.
    pub fn finish(&mut self, rec: &PulseRecorder, sink: &Arc<dyn Recorder>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.drain(rec, true, sink);
        if sink.enabled() {
            sink.counter_add(0, names::PULSE_SAMPLES, None, self.samples);
        }
    }

    /// Runs the rules over one settled window and emits its heartbeat (for
    /// windows with samples or alerts).
    fn evaluate(&mut self, idx: u64, mut stats: WindowStats, sink: &Arc<dyn Recorder>) {
        let (t0, t1) = window_bounds(idx, self.width);
        let fired = self.engine.evaluate(idx, t0, t1, &stats);
        for a in &fired {
            stats.alerts.push(a.rule);
            if sink.enabled() {
                sink.counter_add(0, a.rule, None, 1);
                sink.counter_add(0, names::PULSE_ALERTS, None, 1);
                sink.event(
                    a.t1,
                    0,
                    Phase::Pulse,
                    &format!("{} window={} value={:.3}", a.rule, a.window, a.value),
                );
            }
        }
        self.alerts.extend(fired);
        if stats.samples == 0 && stats.alerts.is_empty() {
            return;
        }
        let row = Row { window: idx, t0, t1, stats };
        self.heartbeats.push(row.to_jsonl());
        if sink.enabled() {
            sink.counter_add(0, names::PULSE_HEARTBEATS, None, 1);
        }
        if self.recent.len() == RECENT_ROWS {
            self.recent.pop_front();
        }
        self.recent.push_back(row);
    }
}
