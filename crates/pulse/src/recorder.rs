//! The streaming [`Recorder`] implementation: hook calls become ring
//! samples, with the time spent in the hook itself accounted to the pulse
//! self-overhead meter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use drms_obs::{Phase, Record, Recorder};

use crate::ring::{Drained, Payload, Ring};

/// Bounded capacity of each per-task ring, in samples. Overflow drops
/// samples (counted in `pulse.dropped`) rather than blocking the run.
pub(crate) const RING_CAPACITY: usize = 1 << 16;

/// Routes every [`Record`] into bounded per-task rings.
///
/// A report goes to its rank's ring; control-plane reports carry rank 0,
/// and ring 0 is fed by the control plane and the rank-0 task — the
/// threads that produce those reports.
///
/// The one hook, [`Recorder::record`], is timed with the host clock and
/// accumulated into an atomic nanosecond counter, so pulse's own cost is a
/// first-class metric rather than an invisible tax (see
/// `Pulse::overhead_seconds`).
pub struct PulseRecorder {
    rings: Vec<Ring>,
    overhead_ns: AtomicU64,
}

impl PulseRecorder {
    /// Rings for `ntasks` tasks, each bounded to [`RING_CAPACITY`] samples.
    pub(crate) fn new(ntasks: usize) -> Arc<PulseRecorder> {
        let n = ntasks.max(1);
        Arc::new(PulseRecorder {
            rings: (0..n).map(|_| Ring::new(RING_CAPACITY)).collect(),
            overhead_ns: AtomicU64::new(0),
        })
    }

    fn ring(&self, rank: usize) -> &Ring {
        &self.rings[rank.min(self.rings.len() - 1)]
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

    fn record(&self, t: Option<f64>, rank: usize, r: Record<'_>) {
        let t0 = Instant::now();
        let payload = match r {
            Record::SpanStart { phase, .. } => Payload::SpanStart { phase },
            Record::SpanEnd { phase, .. } => Payload::SpanEnd { phase },
            Record::Event { phase, .. } => Payload::Event { phase },
            Record::ServerBusy { server, end, .. } => {
                Payload::ServerBusy { server, seconds: end - t.unwrap_or(end) }
            }
            Record::Counter { name, delta, .. } => Payload::Counter { name, delta },
            Record::Gauge { name, index, value } => Payload::Gauge { name, index, value },
        };
        // A report with no clock goes at the ring's current high-water mark
        // (the newest simulated time this rank reported). So do
        // control-plane instants (the event log): they carry a sequence
        // number as their pseudo-time, and stamping them literally would
        // drag the mark, and with it the whole window timeline, onto the
        // sequence axis.
        let ring = self.ring(rank);
        match t {
            Some(t) if !matches!(r, Record::Event { phase: Phase::Control, .. }) => {
                ring.push(t, rank, payload)
            }
            _ => ring.push_at_hwm(rank, payload),
        }
        self.overhead_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::names;

    #[test]
    fn hooks_land_in_the_right_rings_and_are_metered() {
        let rec = PulseRecorder::new(3);
        rec.span_start(1.0, 1, Phase::Segment, "seg");
        rec.span_end(2.0, 1, Phase::Segment, "seg");
        rec.counter_add_at(2.5, 2, names::COMMITS, None, 1);
        rec.counter_add(0, names::IO_RETRIES, None, 1);
        rec.gauge_set(names::MEMTIER_REPLICAS, 0, 2.0);
        let drained = rec.drain_all();
        assert_eq!(drained[0].samples.len(), 2); // counter + gauge
        assert_eq!(drained[1].samples.len(), 2); // span pair
        assert_eq!(drained[2].samples.len(), 1); // counter
        assert!(rec.overhead_seconds() > 0.0);
    }

    #[test]
    fn out_of_range_ranks_clamp_to_the_last_ring() {
        let rec = PulseRecorder::new(2);
        rec.event(1.0, 99, Phase::Control, "e");
        let drained = rec.drain_all();
        assert_eq!(drained[1].samples.len(), 1);
    }
}
