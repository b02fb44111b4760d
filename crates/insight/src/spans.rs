//! Span reconstruction: pairing `Begin`/`End` trace events into closed
//! spans and assigning containment parents.
//!
//! The recorder deliberately does not issue span ids (concurrent ranks
//! would race over them and break export determinism), so the analysis
//! re-derives the span tree from the time-sorted event stream, pairing
//! through [`drms_obs::closed_spans`] like the trace's own histograms and
//! phase summary. Ids are assigned after a deterministic sort, so equal
//! traces yield equal span tables.

use drms_obs::{closed_spans, Phase, TraceEvent};

/// One closed span reconstructed from a `Begin`/`End` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Deterministic id: index into the sorted span table.
    pub id: usize,
    /// Reporting task rank.
    pub rank: usize,
    /// Pipeline phase.
    pub phase: Phase,
    /// Span name (array, phase label, ...).
    pub name: String,
    /// Start time in simulated seconds.
    pub start: f64,
    /// End time in simulated seconds.
    pub end: f64,
    /// Smallest enclosing span on the same rank, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span length in simulated seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Whether this span's interval contains `[a, b]`.
    fn covers(&self, a: f64, b: f64) -> bool {
        self.start <= a && b <= self.end
    }
}

/// Phase ordinal for deterministic sorting (declaration order).
fn phase_ord(p: Phase) -> usize {
    Phase::ALL.iter().position(|&q| q == p).unwrap_or(usize::MAX)
}

/// Reconstructs closed spans from a **time-sorted** event stream (as
/// returned by `TraceRecorder::events`), paired by
/// [`drms_obs::closed_spans`]. The result is sorted by `(start, longer-first, rank, phase,
/// name)` and ids are indices into that order; `parent` links each span
/// to its smallest enclosing span on the same rank.
pub fn build_spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans: Vec<Span> = closed_spans(events)
        .into_iter()
        .map(|(start, e)| Span {
            id: 0,
            rank: e.rank,
            phase: e.phase,
            name: e.name.clone(),
            start,
            end: e.t,
            parent: None,
        })
        .collect();

    spans.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then(b.end.total_cmp(&a.end)) // longer (enclosing) spans first
            .then(a.rank.cmp(&b.rank))
            .then(phase_ord(a.phase).cmp(&phase_ord(b.phase)))
            .then(a.name.cmp(&b.name))
    });
    for (i, s) in spans.iter_mut().enumerate() {
        s.id = i;
    }

    // Containment parents, per rank. Quadratic in span count, which is
    // fine at trace scale (thousands). Equal-interval spans chain by id
    // so the relation stays acyclic.
    let parents: Vec<Option<usize>> = spans
        .iter()
        .map(|s| {
            spans
                .iter()
                .filter(|c| {
                    c.id != s.id
                        && c.rank == s.rank
                        && c.covers(s.start, s.end)
                        && (c.start < s.start || s.end < c.end || c.id < s.id)
                })
                .min_by(|x, y| {
                    x.duration()
                        .total_cmp(&y.duration())
                        .then(y.start.total_cmp(&x.start))
                        .then(y.id.cmp(&x.id))
                })
                .map(|c| c.id)
        })
        .collect();
    for (s, p) in spans.iter_mut().zip(parents) {
        s.parent = p;
    }
    spans
}

/// The deepest (smallest) span of `rank` covering the interval `[a, b]`,
/// among `spans`. Ties break toward the later-starting, then higher-id
/// span, matching the parent rule.
pub fn deepest_covering(spans: &[Span], rank: usize, a: f64, b: f64) -> Option<&Span> {
    spans.iter().filter(|s| s.rank == rank && s.covers(a, b)).min_by(|x, y| {
        x.duration()
            .total_cmp(&y.duration())
            .then(y.start.total_cmp(&x.start))
            .then(y.id.cmp(&x.id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::EventKind;

    fn ev(t: f64, rank: usize, phase: Phase, name: &str, kind: EventKind) -> TraceEvent {
        TraceEvent { t, rank, phase, name: name.to_owned(), kind, corr: None }
    }

    #[test]
    fn pairs_nested_spans_lifo_and_assigns_parents() {
        let events = vec![
            ev(0.0, 0, Phase::Segment, "write", EventKind::Begin),
            ev(1.0, 0, Phase::IoPhase, "collective", EventKind::Begin),
            ev(2.0, 0, Phase::IoPhase, "collective", EventKind::End),
            ev(4.0, 0, Phase::Segment, "write", EventKind::End),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 2);
        let outer = &spans[0];
        let inner = &spans[1];
        assert_eq!((outer.phase, outer.start, outer.end), (Phase::Segment, 0.0, 4.0));
        assert_eq!((inner.phase, inner.start, inner.end), (Phase::IoPhase, 1.0, 2.0));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn unmatched_begins_and_ends_are_dropped() {
        let events = vec![
            ev(0.0, 0, Phase::Arrays, "a", EventKind::Begin),
            ev(1.0, 1, Phase::Arrays, "a", EventKind::End),
        ];
        assert!(build_spans(&events).is_empty());
    }

    #[test]
    fn parents_stay_on_the_same_rank() {
        let events = vec![
            ev(0.0, 0, Phase::Segment, "write", EventKind::Begin),
            ev(1.0, 1, Phase::StreamWave, "a", EventKind::Begin),
            ev(2.0, 1, Phase::StreamWave, "a", EventKind::End),
            ev(4.0, 0, Phase::Segment, "write", EventKind::End),
        ];
        let spans = build_spans(&events);
        let wave = spans.iter().find(|s| s.phase == Phase::StreamWave).unwrap();
        assert_eq!(wave.parent, None, "rank-1 span must not parent under a rank-0 span");
    }

    #[test]
    fn equal_interval_spans_chain_without_cycles() {
        let events = vec![
            ev(0.0, 0, Phase::Arrays, "a", EventKind::Begin),
            ev(0.0, 0, Phase::Arrays, "a", EventKind::Begin),
            ev(3.0, 0, Phase::Arrays, "a", EventKind::End),
            ev(3.0, 0, Phase::Arrays, "a", EventKind::End),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }

    #[test]
    fn deepest_covering_prefers_the_innermost_span() {
        let events = vec![
            ev(0.0, 0, Phase::Segment, "write", EventKind::Begin),
            ev(1.0, 0, Phase::IoPhase, "collective", EventKind::Begin),
            ev(3.0, 0, Phase::IoPhase, "collective", EventKind::End),
            ev(4.0, 0, Phase::Segment, "write", EventKind::End),
        ];
        let spans = build_spans(&events);
        let deep = deepest_covering(&spans, 0, 1.5, 2.5).unwrap();
        assert_eq!(deep.phase, Phase::IoPhase);
        assert_eq!(deepest_covering(&spans, 0, 0.25, 0.5).unwrap().phase, Phase::Segment);
        assert!(deepest_covering(&spans, 0, 4.5, 5.0).is_none());
    }
}
