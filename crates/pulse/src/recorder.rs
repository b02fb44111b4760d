//! The streaming [`Recorder`] implementation: each hook call folds its
//! report at once into its task's unsettled windows.
//!
//! Every SPMD task (plus the control plane, which reports as rank 0 between
//! regions) owns one [`TaskFold`] behind its own mutex. Tasks are threads
//! of one address space, so the fold state is plain memory the collector
//! reads under the same lock; the lock is uncontended except against a
//! drain.
//!
//! Two invariants make settlement deterministic regardless of when (or how
//! often) the collector drains:
//!
//! * **Per-task monotone stamps.** Every report's window-assignment stamp
//!   is clamped to the task's high-water mark (`max(t, hwm)`), so a task's
//!   stamp sequence never goes backward even when callers report
//!   retroactive times (phase spans recorded after the fact, control-plane
//!   events carrying sequence numbers, incarnation restarts that reset the
//!   simulated clock). The clamp depends only on the task's own report
//!   sequence, never on drain timing.
//! * **Raw times preserved.** Span durations are computed from the caller's
//!   unclamped `t`, the exact values a post-hoc trace would see.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use drms_obs::{Phase, Record, Recorder};
use parking_lot::Mutex;

use crate::window::{add_into, window_of, GaugeWrite, WindowStats};

/// One task's fold state: the windows its reports have touched that the
/// collector has not yet settled, and its running totals.
#[derive(Default)]
struct TaskFold {
    /// Highest stamp the task has reported (its settlement mark; 0.0 until
    /// it speaks).
    hwm: f64,
    /// Reports folded so far.
    samples: u64,
    /// LIFO stacks of open-span raw start times, keyed `(rank, phase)`.
    open_spans: HashMap<(usize, Phase), Vec<f64>>,
    /// Unsettled windows, by index.
    windows: BTreeMap<u64, WindowStats>,
    /// Cumulative counter totals.
    counters: BTreeMap<&'static str, u64>,
    /// Cumulative closed-span seconds per `(rank, phase)`.
    span_secs: BTreeMap<(usize, Phase), f64>,
}

/// Folds every [`Record`] into per-task tumbling windows.
///
/// A report goes to its rank's fold; control-plane reports carry rank 0,
/// and fold 0 is fed by the control plane and the rank-0 task — the
/// threads that produce those reports.
pub struct PulseRecorder {
    width: f64,
    tasks: Vec<Mutex<TaskFold>>,
}

impl PulseRecorder {
    /// Fold states for `ntasks` tasks over windows `width` simulated
    /// seconds wide.
    pub(crate) fn new(ntasks: usize, width: f64) -> Arc<PulseRecorder> {
        let tasks = (0..ntasks.max(1)).map(|_| Mutex::default()).collect();
        Arc::new(PulseRecorder { width, tasks })
    }

    /// The settlement watermark: the lowest high-water mark over **every**
    /// task, including ones that have reported nothing yet (0.0).
    pub(crate) fn watermark(&self) -> f64 {
        self.tasks.iter().map(|t| t.lock().hwm).fold(f64::INFINITY, f64::min)
    }

    /// Takes every task's windows below index `below` (all of them for
    /// `None`) and merges them in rank order, with the reports folded so
    /// far over all tasks.
    pub(crate) fn take_windows(&self, below: Option<u64>) -> (BTreeMap<u64, WindowStats>, u64) {
        let mut merged: BTreeMap<u64, WindowStats> = BTreeMap::new();
        let mut samples = 0;
        for task in &self.tasks {
            let mut task = task.lock();
            samples += task.samples;
            let keep = match below {
                Some(below) => task.windows.split_off(&below),
                None => BTreeMap::new(),
            };
            for (idx, w) in std::mem::replace(&mut task.windows, keep) {
                match merged.entry(idx) {
                    Entry::Vacant(e) => {
                        e.insert(w);
                    }
                    Entry::Occupied(mut e) => e.get_mut().absorb(w),
                }
            }
        }
        (merged, samples)
    }

    /// Takes every task's cumulative counter totals and closed-span
    /// seconds into `counters` and `span_secs`, in rank order.
    pub(crate) fn take_totals(
        &self,
        counters: &mut BTreeMap<&'static str, u64>,
        span_secs: &mut BTreeMap<(usize, Phase), f64>,
    ) {
        for task in &self.tasks {
            let mut task = task.lock();
            add_into(counters, std::mem::take(&mut task.counters));
            add_into(span_secs, std::mem::take(&mut task.span_secs));
        }
    }
}

impl Recorder for PulseRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, t: Option<f64>, rank: usize, r: Record<'_>) {
        let mut guard = self.tasks[rank.min(self.tasks.len() - 1)].lock();
        let task = &mut *guard;
        // A report with no clock goes at the task's high-water mark (the
        // newest simulated time this rank reported), and so does a
        // non-finite time, so window arithmetic never sees NaN/inf. So do
        // control-plane instants (the event log): they carry a sequence
        // number as their pseudo-time, and stamping them literally would
        // drag the mark, and with it the whole window timeline, onto the
        // sequence axis.
        let clocked = t
            .filter(|t| t.is_finite() && !matches!(r, Record::Event { phase: Phase::Control, .. }));
        let (stamp, raw_t) = match clocked {
            Some(t) => (t.max(task.hwm), t),
            None => (task.hwm, task.hwm),
        };
        task.hwm = stamp;
        task.samples += 1;
        let w = task.windows.entry(window_of(stamp, self.width)).or_default();
        w.samples += 1;
        match r {
            Record::SpanStart { phase, .. } => {
                task.open_spans.entry((rank, phase)).or_default().push(raw_t);
            }
            Record::SpanEnd { phase, .. } => {
                if let Some(start) = task.open_spans.get_mut(&(rank, phase)).and_then(Vec::pop) {
                    let secs = (raw_t - start).max(0.0);
                    *w.span_secs.entry((rank, phase)).or_default() += secs;
                    *task.span_secs.entry((rank, phase)).or_default() += secs;
                }
            }
            Record::Event { .. } => {}
            Record::Counter { name, delta, .. } => {
                *w.counters.entry(name).or_default() += delta;
                *task.counters.entry(name).or_default() += delta;
            }
            Record::Gauge { name, index, value } => {
                w.record_gauge(name, index, GaugeWrite { stamp, rank, value });
            }
            Record::ServerBusy { server, end, .. } => {
                let secs = end - t.unwrap_or(end);
                let secs = if secs.is_finite() { secs.max(0.0) } else { 0.0 };
                *w.server_busy.entry((server, rank)).or_default() += secs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::names;

    /// Each task's report count, in rank order.
    fn samples(rec: &PulseRecorder) -> Vec<u64> {
        rec.tasks.iter().map(|t| t.lock().samples).collect()
    }

    #[test]
    fn hooks_land_in_their_tasks_fold() {
        let rec = PulseRecorder::new(3, 0.5);
        rec.span_start(1.0, 1, Phase::Segment, "seg");
        rec.span_end(2.0, 1, Phase::Segment, "seg");
        rec.counter_add_at(2.5, 2, names::COMMITS, None, 1);
        rec.counter_add(0, names::IO_RETRIES, None, 1);
        rec.gauge_set(names::MEMTIER_REPLICAS, 0, 2.0);
        // Task 0: counter + gauge; task 1: span pair; task 2: counter.
        assert_eq!(samples(&rec), vec![2, 2, 1]);
    }

    #[test]
    fn out_of_range_ranks_clamp_to_the_last_ring() {
        let rec = PulseRecorder::new(2, 0.5);
        rec.event(1.0, 99, Phase::Control, "e");
        assert_eq!(samples(&rec), vec![0, 1]);
    }

    #[test]
    fn stamps_are_monotone_and_raw_times_survive() {
        let rec = PulseRecorder::new(1, 1.0);
        rec.span_start(2.5, 0, Phase::Segment, "seg");
        // A retroactive close: stamped at the mark (window 2), yet the
        // span is measured from the raw times, clamped at zero.
        rec.span_end(1.0, 0, Phase::Segment, "seg");
        rec.span_start(0.5, 0, Phase::Arrays, "a");
        rec.span_end(3.25, 0, Phase::Arrays, "a");
        assert_eq!(rec.watermark(), 3.25);
        let (windows, n) = rec.take_windows(None);
        assert_eq!(n, 4);
        assert_eq!(windows.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(windows[&2].samples, 3);
        assert_eq!(windows[&2].span_secs[&(0, Phase::Segment)], 0.0);
        // The retroactive start at 0.5 still spans to 3.25.
        assert_eq!(windows[&3].span_secs[&(0, Phase::Arrays)], 2.75);
    }

    #[test]
    fn non_finite_times_collapse_to_hwm() {
        let rec = PulseRecorder::new(1, 1.0);
        rec.event(5.0, 0, Phase::Segment, "e");
        rec.span_start(f64::NAN, 0, Phase::Segment, "seg");
        rec.span_end(f64::INFINITY, 0, Phase::Segment, "seg");
        rec.server_interval(0, 1, "collective", f64::NEG_INFINITY, 6.0);
        assert_eq!(rec.watermark(), 5.0);
        let (windows, _) = rec.take_windows(None);
        assert_eq!(windows.keys().copied().collect::<Vec<_>>(), vec![5]);
        let w = &windows[&5];
        assert_eq!(w.samples, 4);
        // Both span ends collapsed to the mark: a zero-length span.
        assert_eq!(w.span_secs[&(0, Phase::Segment)], 0.0);
        // A busy interval with a non-finite start accrues nothing.
        assert_eq!(w.server_busy[&(1, 0)], 0.0);
    }
}
