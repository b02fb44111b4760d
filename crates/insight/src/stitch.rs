//! Cross-incarnation timeline stitching.
//!
//! Each incarnation of a job records simulated time from zero: its trace
//! is a self-contained span DAG that knows nothing of the incarnations
//! before or after it. The stitcher lays the recovered per-incarnation
//! event streams (from the flight recorder's seal archive, `drms-blackbox`)
//! end to end on one global clock — incarnation `k` is offset by the total
//! duration of incarnations `0..k` plus one detection-latency gap per
//! restart — producing a single timeline whose segments abut exactly, so
//! the stitched wall clock has zero unattributed gaps by construction.
//!
//! The JSA's `RunSummary::attribution` (rtenv crate) is the one caller on
//! the run path: it feeds the archive's streams and its incarnation
//! records in, with the flight recorder's configured detection latency.

use drms_obs::TraceEvent;

/// One incarnation's recovered events plus what the JSA knows about it.
#[derive(Debug, Clone)]
pub struct IncarnationInput {
    /// Incarnation number (ascending, 0 = fresh start).
    pub incarnation: u64,
    /// Recovered, deduplicated events on the incarnation's local clock,
    /// sorted by (time, rank, capture sequence).
    pub events: Vec<TraceEvent>,
    /// Whether the incarnation was killed (crash point or node failure).
    pub killed: bool,
    /// Whether the incarnation restarted from a checkpoint (false for the
    /// first and for rare fresh re-starts that found no checkpoint).
    pub restarted: bool,
}

/// One incarnation's extent on the stitched clock.
#[derive(Debug, Clone, PartialEq)]
pub struct StitchSegment {
    /// Incarnation number.
    pub incarnation: u64,
    /// Global time the incarnation's local clock zero maps to.
    pub start: f64,
    /// Global time of the incarnation's last event (== `start` for an
    /// incarnation that recovered no events).
    pub end: f64,
    /// Detection-latency gap billed *before* `start` (0 for the first).
    pub detect: f64,
    /// Whether the incarnation was killed.
    pub killed: bool,
    /// Whether it restarted from a checkpoint.
    pub restarted: bool,
}

/// The joined cross-incarnation timeline.
#[derive(Debug, Clone)]
pub struct StitchedTimeline {
    /// Every recovered event, re-stamped onto the global clock, sorted by
    /// (time, rank) with the per-incarnation capture order preserved.
    pub events: Vec<TraceEvent>,
    /// Per-incarnation extents, in incarnation order. Consecutive segments
    /// abut exactly: `segments[k+1].start == segments[k].end +
    /// segments[k+1].detect`.
    pub segments: Vec<StitchSegment>,
}

impl StitchedTimeline {
    /// End-to-end stitched wall clock: last segment's end (detection gaps
    /// included, since they are part of every segment's offset).
    pub fn wall(&self) -> f64 {
        self.segments.last().map(|s| s.end).unwrap_or(0.0)
    }

    /// The events of incarnation `inc` on the global clock.
    pub fn events_of(&self, inc: u64) -> impl Iterator<Item = &TraceEvent> {
        let seg = self.segments.iter().find(|s| s.incarnation == inc);
        let (lo, hi) = seg.map(|s| (s.start, s.end)).unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
        self.events.iter().filter(move |e| e.t >= lo && e.t <= hi)
    }
}

/// Stitches the incarnations (pre-sorted by `incarnation`) into one
/// timeline, `detection_latency` simulated seconds between an
/// incarnation's death and its successor's clock starting (billed as
/// detection latency). Deterministic: output order depends only on the
/// inputs.
pub fn stitch(inputs: &[IncarnationInput], detection_latency: f64) -> StitchedTimeline {
    let mut events = Vec::new();
    let mut segments = Vec::new();
    let mut cursor = 0.0f64;
    for (i, inp) in inputs.iter().enumerate() {
        let detect = if i > 0 { detection_latency } else { 0.0 };
        cursor += detect;
        let start = cursor;
        let horizon = inp.events.iter().map(|e| e.t).fold(0.0f64, f64::max);
        for e in &inp.events {
            let mut e = e.clone();
            e.t += start;
            events.push(e);
        }
        cursor = start + horizon;
        segments.push(StitchSegment {
            incarnation: inp.incarnation,
            start,
            end: cursor,
            detect,
            killed: inp.killed,
            restarted: inp.restarted,
        });
    }
    StitchedTimeline { events, segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::{EventKind, Phase};

    fn ev(t: f64, rank: usize, name: &str) -> TraceEvent {
        TraceEvent {
            t,
            rank,
            phase: Phase::Arrays,
            name: name.to_string(),
            kind: EventKind::Instant,
            corr: None,
        }
    }

    #[test]
    fn segments_abut_exactly_with_detection_gaps() {
        let inputs = vec![
            IncarnationInput {
                incarnation: 0,
                events: vec![ev(1.0, 0, "a"), ev(10.0, 1, "b")],
                killed: true,
                restarted: false,
            },
            IncarnationInput {
                incarnation: 1,
                events: vec![ev(2.0, 0, "c"), ev(8.0, 0, "d")],
                killed: false,
                restarted: true,
            },
        ];
        let tl = stitch(&inputs, 2.0);
        assert_eq!(tl.segments.len(), 2);
        assert_eq!(tl.segments[0].start, 0.0);
        assert_eq!(tl.segments[0].end, 10.0);
        assert_eq!(tl.segments[1].detect, 2.0);
        assert_eq!(tl.segments[1].start, 12.0);
        assert_eq!(tl.segments[1].end, 20.0);
        assert_eq!(tl.wall(), 20.0);
        // Events re-stamped onto the global clock.
        assert_eq!(tl.events[2].t, 14.0);
        assert_eq!(tl.events_of(1).count(), 2);
    }

    #[test]
    fn empty_incarnation_collapses_to_a_point() {
        let inputs = vec![
            IncarnationInput { incarnation: 0, events: vec![], killed: true, restarted: false },
            IncarnationInput {
                incarnation: 1,
                events: vec![ev(3.0, 0, "x")],
                killed: false,
                restarted: true,
            },
        ];
        let tl = stitch(&inputs, 1.0);
        assert_eq!(tl.segments[0].start, tl.segments[0].end);
        assert_eq!(tl.segments[1].start, 1.0);
        assert_eq!(tl.wall(), 4.0);
    }
}
