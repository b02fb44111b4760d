//! The collector: drains rings, folds samples into tumbling windows,
//! settles windows behind the cross-ring watermark, runs the rule engine,
//! and emits heartbeats and alerts.
//!
//! Settlement is what makes the stream *online yet deterministic*: window
//! `W` is evaluated as soon as every ring's high-water mark has passed
//! `W`'s end — from that point no ring can contribute to `W` again
//! (ring stamps are per-ring monotone), so the evaluation a live drain
//! performs mid-run is byte-identical to what a post-hoc pass would
//! produce. Drain timing only changes *when* a window settles, never what
//! it contains.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use drms_obs::{names, Phase, Recorder};

use crate::heartbeat::Row;
use crate::ring::{Drained, Payload};
use crate::rules::{Alert, PulseRule, RuleEngine};
use crate::window::{window_bounds, window_of, GaugeWrite, WindowStats};

/// Upper bound on individually evaluated empty windows between two active
/// ones; larger idle gaps are skipped (rules then see the stall at the
/// next active window or at finish).
const MAX_GAP_EVAL: u64 = 4096;

/// How many settled rows the live status view keeps.
const RECENT_ROWS: usize = 8;

pub(crate) struct Collector {
    width: f64,
    windows: BTreeMap<u64, WindowStats>,
    /// LIFO stacks of open-span raw start times, keyed `(rank, phase)`.
    open_spans: HashMap<(usize, Phase), Vec<f64>>,
    /// Next window index to evaluate; `None` until the first settlement.
    next_eval: Option<u64>,
    ring_hwms: Vec<f64>,
    pub samples: u64,
    pub dropped: u64,
    pub cum_counters: BTreeMap<&'static str, u64>,
    pub cum_span_secs: BTreeMap<(usize, Phase), f64>,
    pub max_stamp: f64,
    engine: RuleEngine,
    pub heartbeats: Vec<String>,
    pub alerts: Vec<Alert>,
    pub recent: VecDeque<Row>,
    finished: bool,
}

impl Collector {
    pub fn new(width: f64, rules: Vec<PulseRule>) -> Collector {
        let width = if width.is_finite() && width > 0.0 { width } else { 1.0 };
        Collector {
            width,
            windows: BTreeMap::new(),
            open_spans: HashMap::new(),
            next_eval: None,
            ring_hwms: Vec::new(),
            samples: 0,
            dropped: 0,
            cum_counters: BTreeMap::new(),
            cum_span_secs: BTreeMap::new(),
            max_stamp: 0.0,
            engine: RuleEngine::new(rules),
            heartbeats: Vec::new(),
            alerts: Vec::new(),
            recent: VecDeque::new(),
            finished: false,
        }
    }

    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Folds one batch of ring drains in, then settles and evaluates every
    /// window now behind the watermark. Returns the samples ingested.
    pub fn ingest(&mut self, drains: Vec<Drained>, sink: &Arc<dyn Recorder>) -> usize {
        if self.ring_hwms.len() < drains.len() {
            self.ring_hwms.resize(drains.len(), 0.0);
        }
        let mut ingested = 0;
        for (i, d) in drains.into_iter().enumerate() {
            self.ring_hwms[i] = d.hwm;
            self.dropped += d.dropped;
            for s in d.samples {
                ingested += 1;
                self.fold(s.stamp, s.raw_t, s.rank, s.payload);
            }
        }
        self.samples += ingested as u64;
        self.settle(false, sink);
        ingested
    }

    /// Settles everything still open (end of run).
    pub fn finish(&mut self, sink: &Arc<dyn Recorder>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.settle(true, sink);
        if sink.enabled() {
            sink.counter_add(0, names::PULSE_SAMPLES, None, self.samples);
            sink.counter_add(0, names::PULSE_DROPPED, None, self.dropped);
        }
    }

    fn fold(&mut self, stamp: f64, raw_t: f64, rank: usize, payload: Payload) {
        self.max_stamp = self.max_stamp.max(stamp);
        let mut idx = window_of(stamp, self.width);
        if let Some(next) = self.next_eval {
            // Safety net: per-ring monotone stamps make contributions to a
            // settled window impossible; if one ever appeared it folds into
            // the oldest still-open window rather than vanishing.
            idx = idx.max(next);
        }
        let w = self.windows.entry(idx).or_default();
        w.samples += 1;
        match payload {
            Payload::SpanStart { phase } => {
                self.open_spans.entry((rank, phase)).or_default().push(raw_t);
            }
            Payload::SpanEnd { phase } => {
                if let Some(start) = self.open_spans.get_mut(&(rank, phase)).and_then(Vec::pop) {
                    let secs = (raw_t - start).max(0.0);
                    *w.span_secs.entry((rank, phase)).or_default() += secs;
                    *self.cum_span_secs.entry((rank, phase)).or_default() += secs;
                }
            }
            Payload::Event { .. } => {}
            Payload::Counter { name, delta } => {
                *w.counters.entry(name).or_default() += delta;
                *self.cum_counters.entry(name).or_default() += delta;
            }
            Payload::Gauge { name, index, value } => {
                w.record_gauge(name, index, GaugeWrite { stamp, rank, value });
            }
            Payload::ServerBusy { server, seconds } => {
                let secs = if seconds.is_finite() { seconds.max(0.0) } else { 0.0 };
                *w.server_busy.entry((server, rank)).or_default() += secs;
            }
        }
    }

    /// The cross-ring settlement watermark: the slowest ring's high-water
    /// mark, over **every** ring — including ones that have produced
    /// nothing yet. A silent ring pins the watermark at its mark (0.0
    /// until it speaks), which is exactly what keeps settlement
    /// drain-invariant: were silent rings skipped, drain timing would
    /// decide whether a late-starting ring's first samples land before or
    /// after their window settles. `None` before the first drain.
    fn watermark(&self) -> Option<f64> {
        self.ring_hwms.iter().copied().reduce(f64::min)
    }

    fn settle(&mut self, force: bool, sink: &Arc<dyn Recorder>) {
        let watermark = self.watermark();
        while let Some(&idx) = self.windows.keys().next() {
            let (_, end) = window_bounds(idx, self.width);
            let ready = force || watermark.is_some_and(|wm| end <= wm);
            if !ready {
                break;
            }
            // Evaluate the empty windows of a bounded idle gap first, so
            // absence rules and carried gauges see time passing.
            let next = self.next_eval.unwrap_or(idx);
            if idx > next && idx - next <= MAX_GAP_EVAL {
                for j in next..idx {
                    self.evaluate(j, WindowStats::default(), sink);
                }
            }
            let stats = self.windows.remove(&idx).unwrap_or_default();
            self.evaluate(idx, stats, sink);
            self.next_eval = Some(idx.saturating_add(1));
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
