//! Per-phase summary derived from recorded spans.

use crate::trace::{closed_spans, TraceEvent};
use crate::Phase;
use std::collections::HashMap;

/// Totals for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// The phase.
    pub phase: Phase,
    /// Matched rank-0 spans in this phase.
    pub spans: usize,
    /// Summed span duration in simulated seconds.
    pub total_s: f64,
}

/// Wall-clock time per phase, measured on rank 0.
///
/// The orchestration layer emits its phase spans on rank 0 only, with the
/// exact timestamps it also uses to build its operation report — so a
/// summary built here and the report can never disagree. Spans pair
/// through [`closed_spans`], so nested spans of the same name pair up
/// innermost-first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseSummary {
    rows: Vec<PhaseRow>,
}

impl PhaseSummary {
    /// Builds the summary from recorded events. Only rank-0 spans are
    /// counted (other ranks' spans serve the timeline view); unmatched
    /// span boundaries are ignored.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut spans: HashMap<Phase, (usize, f64)> = HashMap::new();
        for (t0, end) in closed_spans(events).into_iter().filter(|(_, e)| e.rank == 0) {
            let (n, total) = spans.entry(end.phase).or_insert((0, 0.0));
            *n += 1;
            *total += end.t - t0;
        }
        let rows = Phase::ALL
            .iter()
            .filter_map(|&phase| {
                spans.get(&phase).map(|&(n, total_s)| PhaseRow { phase, spans: n, total_s })
            })
            .collect();
        PhaseSummary { rows }
    }

    /// Rows in [`Phase::ALL`] order; phases with no spans are omitted.
    pub fn rows(&self) -> &[PhaseRow] {
        &self.rows
    }

    /// Total simulated seconds spent in `phase` (0.0 when absent).
    pub fn total(&self, phase: Phase) -> f64 {
        self.rows.iter().find(|r| r.phase == phase).map_or(0.0, |r| r.total_s)
    }

    /// Renders the plain-text summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("phase         spans    total (s)\n");
        out.push_str("-----------  ------  -----------\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<11}  {:>6}  {:>11.6}\n",
                row.phase.as_str(),
                row.spans,
                row.total_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::trace::TraceRecorder;

    #[test]
    fn nested_spans_match_innermost_first() {
        let r = TraceRecorder::new();
        // Outer "arrays" span containing two nested waves, plus a
        // same-name nested pair to exercise the per-key stack.
        r.span_start(0.0, 0, Phase::Arrays, "arrays");
        r.span_start(1.0, 0, Phase::StreamWave, "wave");
        r.span_end(2.0, 0, Phase::StreamWave, "wave");
        r.span_start(2.0, 0, Phase::StreamWave, "wave");
        r.span_start(2.5, 0, Phase::StreamWave, "wave");
        r.span_end(3.0, 0, Phase::StreamWave, "wave");
        r.span_end(4.0, 0, Phase::StreamWave, "wave");
        r.span_end(5.0, 0, Phase::Arrays, "arrays");
        let s = r.phase_summary();
        assert_eq!(s.total(Phase::Arrays), 5.0);
        // Waves: 1s + 0.5s (inner) + 2s (outer of the nested pair).
        assert_eq!(s.total(Phase::StreamWave), 3.5);
        let wave_row = s.rows().iter().find(|r| r.phase == Phase::StreamWave).unwrap();
        assert_eq!(wave_row.spans, 3);
    }

    #[test]
    fn non_rank0_spans_do_not_count() {
        let r = TraceRecorder::new();
        r.span_start(0.0, 1, Phase::Segment, "s");
        r.span_end(9.0, 1, Phase::Segment, "s");
        r.span_start(0.0, 0, Phase::Segment, "s");
        r.span_end(2.0, 0, Phase::Segment, "s");
        assert_eq!(r.phase_summary().total(Phase::Segment), 2.0);
    }

    #[test]
    fn table_lists_phases_in_fixed_order() {
        let r = TraceRecorder::new();
        r.span_start(0.0, 0, Phase::Arrays, "a");
        r.span_end(1.0, 0, Phase::Arrays, "a");
        r.span_start(1.0, 0, Phase::Init, "i");
        r.span_end(3.0, 0, Phase::Init, "i");
        let table = r.phase_summary().render_table();
        let init_pos = table.find("init").unwrap();
        let arrays_pos = table.find("arrays").unwrap();
        assert!(init_pos < arrays_pos, "init row must precede arrays:\n{table}");
    }

    #[test]
    fn unmatched_ends_are_ignored() {
        let r = TraceRecorder::new();
        r.span_end(1.0, 0, Phase::Init, "never_opened");
        let s = r.phase_summary();
        assert!(s.rows().is_empty());
        assert_eq!(s.total(Phase::Init), 0.0);
    }
}
