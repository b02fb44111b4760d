//! The streaming [`Recorder`] implementation: hook calls become ring
//! samples, with the time spent in the hook itself accounted to the pulse
//! self-overhead meter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use drms_obs::{Phase, Recorder};

use crate::ring::{Drained, Payload, Ring};

/// Routes every [`Recorder`] hook into bounded per-task rings.
///
/// Hooks that carry a rank (`span_*`, `event`, `counter_add*`) go to that
/// rank's ring; message hooks go to the sender's/receiver's ring; reports
/// with no rank of their own (gauges, server intervals) go to ring 0,
/// which in this runtime is fed by the control plane and the rank-0 task —
/// the threads that produce those reports.
///
/// Every hook body is timed with the host clock and accumulated into an
/// atomic nanosecond counter, so pulse's own cost is a first-class metric
/// rather than an invisible tax (see `Pulse::overhead_seconds`).
pub struct PulseRecorder {
    rings: Vec<Ring>,
    overhead_ns: AtomicU64,
}

impl PulseRecorder {
    /// Rings for `ntasks` tasks, each bounded to `ring_capacity` samples.
    pub(crate) fn new(ntasks: usize, ring_capacity: usize) -> Arc<PulseRecorder> {
        let n = ntasks.max(1);
        Arc::new(PulseRecorder {
            rings: (0..n).map(|_| Ring::new(ring_capacity)).collect(),
            overhead_ns: AtomicU64::new(0),
        })
    }

    fn ring(&self, rank: usize) -> &Ring {
        &self.rings[rank.min(self.rings.len() - 1)]
    }

    fn timed(&self, f: impl FnOnce()) {
        let t0 = Instant::now();
        f();
        self.overhead_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Host seconds spent inside recorder hooks so far.
    pub(crate) fn overhead_seconds(&self) -> f64 {
        self.overhead_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Drains every ring, in rank order.
    pub(crate) fn drain_all(&self) -> Vec<Drained> {
        self.rings.iter().map(|r| r.drain()).collect()
    }
}

impl Recorder for PulseRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&self, t: f64, rank: usize, phase: Phase, _name: &str) {
        self.timed(|| self.ring(rank).push(t, rank, Payload::SpanStart { phase }));
    }

    fn span_end(&self, t: f64, rank: usize, phase: Phase, _name: &str) {
        self.timed(|| self.ring(rank).push(t, rank, Payload::SpanEnd { phase }));
    }

    fn event(&self, t: f64, rank: usize, phase: Phase, _name: &str) {
        // Control-plane instants (the event log) carry a sequence number as
        // their pseudo-time, not a simulated clock; stamping them literally
        // would drag the ring's high-water mark — and with it the whole
        // window timeline — onto the sequence axis. Place them at the
        // ring's current mark instead.
        self.timed(|| {
            if phase == Phase::Control {
                self.ring(rank).push_at_hwm(rank, Payload::Event { phase });
            } else {
                self.ring(rank).push(t, rank, Payload::Event { phase });
            }
        });
    }

    fn msg_sent(&self, t: f64, src: usize, _dst: usize, _tag: u64, _corr: u64, bytes: u64) {
        self.timed(|| self.ring(src).push(t, src, Payload::MsgSent { bytes }));
    }

    fn msg_received(&self, t: f64, _src: usize, dst: usize, _tag: u64, _corr: u64) {
        self.timed(|| self.ring(dst).push(t, dst, Payload::MsgReceived));
    }

    fn server_interval(&self, rank: usize, server: usize, _name: &str, start: f64, end: f64) {
        self.timed(|| {
            self.ring(rank).push(start, rank, Payload::ServerBusy { server, seconds: end - start })
        });
    }

    fn counter_add(&self, rank: usize, name: &'static str, _array: Option<&str>, delta: u64) {
        // No caller clock: place the increment at the ring's current
        // high-water mark (the newest simulated time this rank reported).
        self.timed(|| self.ring(rank).push_at_hwm(rank, Payload::Counter { name, delta }));
    }

    fn counter_add_at(
        &self,
        t: f64,
        rank: usize,
        name: &'static str,
        _array: Option<&str>,
        delta: u64,
    ) {
        self.timed(|| self.ring(rank).push(t, rank, Payload::Counter { name, delta }));
    }

    fn gauge_set(&self, name: &'static str, index: usize, value: f64) {
        self.timed(|| self.ring(0).push_at_hwm(0, Payload::Gauge { name, index, value }));
    }

    fn gauge_set_at(&self, t: f64, rank: usize, name: &'static str, index: usize, value: f64) {
        self.timed(|| self.ring(rank).push(t, rank, Payload::Gauge { name, index, value }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::names;

    #[test]
    fn hooks_land_in_the_right_rings_and_are_metered() {
        let rec = PulseRecorder::new(3, 64);
        rec.span_start(1.0, 1, Phase::Segment, "seg");
        rec.span_end(2.0, 1, Phase::Segment, "seg");
        rec.counter_add_at(2.5, 2, names::COMMITS, None, 1);
        rec.counter_add(0, names::MSG_RETRIES, None, 1);
        rec.msg_sent(0.5, 2, 0, 7, 1, 64);
        rec.msg_received(0.9, 2, 0, 7, 1);
        rec.gauge_set(names::MEMTIER_REPLICAS, 0, 2.0);
        let drained = rec.drain_all();
        assert_eq!(drained[0].samples.len(), 3); // counter + msg_received + gauge
        assert_eq!(drained[1].samples.len(), 2); // span pair
        assert_eq!(drained[2].samples.len(), 2); // counter + msg_sent
        assert!(rec.overhead_seconds() > 0.0);
    }

    #[test]
    fn out_of_range_ranks_clamp_to_the_last_ring() {
        let rec = PulseRecorder::new(2, 64);
        rec.event(1.0, 99, Phase::Control, "e");
        let drained = rec.drain_all();
        assert_eq!(drained[1].samples.len(), 1);
    }
}
