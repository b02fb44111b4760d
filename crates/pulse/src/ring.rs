//! Bounded per-task sample rings: the producer side of the pulse pipeline.
//!
//! Each SPMD task (plus the control plane, which reports as rank 0 between
//! regions) pushes fixed-size [`Sample`]s into its own ring; the collector
//! drains them in batches. Rings are single-producer in practice — the
//! runtime gives every rank its own OS thread — so the mutex guarding each
//! ring is effectively uncontended except against the drainer, and the
//! critical section is a bounds check plus a push.
//!
//! Two invariants make downstream windowing deterministic regardless of
//! when (or how often) the collector drains:
//!
//! * **Per-ring monotone stamps.** Every sample's window-assignment stamp
//!   is clamped to the ring's high-water mark at push time
//!   (`max(t, hwm)`), so a ring's stamp sequence never goes backward even
//!   when callers report retroactive times (phase spans recorded after the
//!   fact, control-plane events carrying sequence numbers, incarnation
//!   restarts that reset the simulated clock). The clamp depends only on
//!   the ring's own sample sequence, never on drain timing.
//! * **Raw times preserved.** The caller's uncorrected `t` rides along in
//!   [`Sample::raw_t`], so span durations are computed from the exact
//!   values a post-hoc trace would see.

use drms_obs::Phase;
use parking_lot::Mutex;

/// What one sample reports. Payloads are fixed-size — no strings — so a
/// push never allocates beyond the ring's own growth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Payload {
    /// A span opened (`phase` identifies it; names are not needed online).
    SpanStart { phase: Phase },
    /// The most recent open span of `phase` on this rank closed.
    SpanEnd { phase: Phase },
    /// An instantaneous event.
    Event { phase: Phase },
    /// `delta` added to counter `name`.
    Counter { name: &'static str, delta: u64 },
    /// Gauge `name[index]` set to `value`.
    Gauge { name: &'static str, index: usize, value: f64 },
    /// One PIOFS server accrued `seconds` of busy time in a priced phase.
    ServerBusy { server: usize, seconds: f64 },
}

/// One sample: a monotone window stamp, the raw caller time, the reporting
/// rank, and the payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    /// Window-assignment time: per-ring monotone (clamped at push).
    pub stamp: f64,
    /// The caller-supplied simulated time, unclamped (span arithmetic).
    pub raw_t: f64,
    /// Reporting rank.
    pub rank: usize,
    /// What happened.
    pub payload: Payload,
}

struct Inner {
    queue: Vec<Sample>,
    hwm: f64,
    dropped: u64,
}

/// A bounded sample ring for one task.
pub(crate) struct Ring {
    inner: Mutex<Inner>,
    cap: usize,
}

/// What one drain took from a ring.
pub(crate) struct Drained {
    pub samples: Vec<Sample>,
    /// Highest stamp the ring has ever accepted (the settlement watermark).
    pub hwm: f64,
    /// Samples dropped on the floor since the previous drain.
    pub dropped: u64,
}

impl Ring {
    pub fn new(cap: usize) -> Ring {
        Ring {
            inner: Mutex::new(Inner { queue: Vec::new(), hwm: 0.0, dropped: 0 }),
            cap: cap.max(1),
        }
    }

    /// Pushes a sample stamped `max(t, hwm)`; non-finite times collapse to
    /// the high-water mark so window arithmetic never sees NaN/inf.
    pub fn push(&self, t: f64, rank: usize, payload: Payload) {
        let mut g = self.inner.lock();
        if g.queue.len() >= self.cap {
            g.dropped += 1;
            return;
        }
        let stamp = if t.is_finite() { t.max(g.hwm) } else { g.hwm };
        g.hwm = stamp;
        g.queue.push(Sample { stamp, raw_t: if t.is_finite() { t } else { stamp }, rank, payload });
    }

    /// Pushes a sample stamped at the ring's current high-water mark, for
    /// reports that carry no timestamp of their own (legacy `counter_add`,
    /// gauges).
    pub fn push_at_hwm(&self, rank: usize, payload: Payload) {
        let mut g = self.inner.lock();
        if g.queue.len() >= self.cap {
            g.dropped += 1;
            return;
        }
        let stamp = g.hwm;
        g.queue.push(Sample { stamp, raw_t: stamp, rank, payload });
    }

    /// Takes everything queued, plus the ring's watermark bookkeeping.
    pub fn drain(&self) -> Drained {
        let mut g = self.inner.lock();
        let samples = std::mem::take(&mut g.queue);
        let dropped = std::mem::take(&mut g.dropped);
        Drained { samples, hwm: g.hwm, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_monotone_and_raw_times_survive() {
        let r = Ring::new(16);
        r.push(2.0, 0, Payload::Event { phase: Phase::Control });
        r.push(1.0, 0, Payload::Event { phase: Phase::Control }); // retroactive
        r.push(3.0, 0, Payload::Event { phase: Phase::Control });
        let d = r.drain();
        let stamps: Vec<f64> = d.samples.iter().map(|s| s.stamp).collect();
        assert_eq!(stamps, vec![2.0, 2.0, 3.0]);
        let raw: Vec<f64> = d.samples.iter().map(|s| s.raw_t).collect();
        assert_eq!(raw, vec![2.0, 1.0, 3.0]);
        assert_eq!(d.hwm, 3.0);
    }

    #[test]
    fn full_ring_counts_drops() {
        let r = Ring::new(2);
        for i in 0..5 {
            r.push(i as f64, 0, Payload::Event { phase: Phase::Control });
        }
        let d = r.drain();
        assert_eq!(d.samples.len(), 2);
        assert_eq!(d.dropped, 3);
        // Drops cleared by the drain; capacity is available again.
        r.push(9.0, 0, Payload::Event { phase: Phase::Control });
        let d = r.drain();
        assert_eq!(d.samples.len(), 1);
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn non_finite_times_collapse_to_hwm() {
        let r = Ring::new(8);
        r.push(5.0, 0, Payload::Event { phase: Phase::Control });
        r.push(f64::NAN, 0, Payload::Event { phase: Phase::Control });
        r.push(f64::INFINITY, 0, Payload::Event { phase: Phase::Control });
        let d = r.drain();
        assert!(d.samples.iter().all(|s| s.stamp == 5.0));
        assert!(d.samples.iter().all(|s| s.raw_t == 5.0));
    }
}
