//! # drms-insight — causal analysis of DRMS traces
//!
//! Consumes a finished [`drms_obs::TraceRecorder`] session and derives,
//! deterministically:
//!
//! * a **span DAG**: `Begin`/`End` events paired into closed spans
//!   ([`spans::build_spans`]), parented by same-rank containment, with
//!   two families of causal edges: PIOFS phase → server-busy intervals,
//!   and JSA incarnation links on control events. There is no message
//!   edge: checkpoint traffic crosses the collectives, whose only trace is
//!   the spans every rank opens around them;
//! * the **critical path** of the traced operation
//!   ([`critical::critical_path`]): every instant of the operation window
//!   attributed to the deepest covering rank-0 span (or synthetic
//!   idle/sync time), refined with the straggling task of each stream
//!   wave and the gating PIOFS server of each I/O segment — segment
//!   durations sum to the wall time by construction;
//! * **straggler detection** per stream wave ([`straggler::stragglers`])
//!   and a per-server utilization/Gantt report ([`servers::server_report`]).
//!
//! All outputs are deterministic for a given trace: inputs are the
//! recorder's sorted snapshots, every grouping is explicitly ordered, and
//! [`Analysis::render`] is byte-identical across runs of the same seed.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod critical;
pub mod recovery;
pub mod servers;
pub mod spans;
pub mod stitch;
pub mod straggler;

use std::fmt::Write as _;

use drms_obs::{EventKind, Phase, TraceEvent, TraceRecorder};

pub use critical::{CriticalPath, Segment};
pub use recovery::{IncarnationCost, RecoveryReport};
pub use servers::{ServerReport, ServerRow};
pub use spans::Span;
pub use stitch::{stitch, IncarnationInput, StitchSegment, StitchedTimeline};
pub use straggler::StragglerRow;

/// A JSA incarnation link: a control-plane event carrying an incarnation
/// number as its correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct IncarnationLink {
    /// Incarnation number.
    pub incarnation: u64,
    /// The control event's rendered description.
    pub event: String,
}

/// The full causal analysis of one traced operation.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Closed spans, deterministically ordered and parented.
    pub spans: Vec<Span>,
    /// The operation's critical path.
    pub critical: CriticalPath,
    /// Per-wave straggler table.
    pub stragglers: Vec<StragglerRow>,
    /// Per-server utilization report.
    pub servers: ServerReport,
    /// JSA incarnation links found on control events.
    pub incarnations: Vec<IncarnationLink>,
}

impl Analysis {
    /// Analyzes a finished recorder session.
    pub fn from_recorder(rec: &TraceRecorder) -> Analysis {
        Analysis::from_parts(&rec.events(), &rec.server_intervals())
    }

    /// Analyzes raw snapshots: `events` must be time-sorted and
    /// `server_intervals` deterministically sorted, as the
    /// [`TraceRecorder`] accessors guarantee.
    pub fn from_parts(
        events: &[TraceEvent],
        server_intervals: &[drms_obs::ServerInterval],
    ) -> Analysis {
        let spans = spans::build_spans(events);
        let critical = critical::critical_path(&spans, server_intervals);
        let stragglers = straggler::stragglers(&spans);
        let servers = servers::server_report(server_intervals);

        let incarnations = events
            .iter()
            .filter(|e| e.phase == Phase::Control && e.kind == EventKind::Instant)
            .filter_map(|e| {
                e.corr.map(|c| IncarnationLink { incarnation: c, event: e.name.clone() })
            })
            .collect();

        Analysis { spans, critical, stragglers, servers, incarnations }
    }

    /// Operation wall time (the critical-path window).
    pub fn wall(&self) -> f64 {
        self.critical.wall()
    }

    /// Deterministic plain-text report: window and span counts, the
    /// critical path with per-segment bottlenecks, per-phase attribution,
    /// the top stragglers, and server utilization. Byte-identical across
    /// runs of the same traced seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = self.wall();
        let _ = writeln!(out, "== drms-insight causal analysis ==");
        let _ = writeln!(
            out,
            "window [{:.6}, {:.6}] s  wall {:.6} s  spans {}  incarnation links {}",
            self.critical.t0,
            self.critical.t1,
            w,
            self.spans.len(),
            self.incarnations.len(),
        );

        let _ = writeln!(out, "\n-- critical path: {} segments --", self.critical.segments.len());
        let _ = writeln!(
            out,
            "  {:>10} {:>10} {:>10}  {:<12} {:<24} bottleneck",
            "start", "end", "dur", "phase", "name"
        );
        for seg in &self.critical.segments {
            let bottleneck = match (seg.task, seg.server) {
                (Some(t), _) => format!("task {t}"),
                (None, Some(s)) => format!("server {s}"),
                (None, None) => "-".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {:>10.6} {:>10.6} {:>10.6}  {:<12} {:<24} {}",
                seg.start,
                seg.end,
                seg.duration(),
                seg.phase_label(),
                seg.name,
                bottleneck
            );
        }

        let _ = writeln!(out, "\n-- attribution by phase --");
        for (label, secs) in self.critical.by_phase() {
            let pct = if w > 0.0 { 100.0 * secs / w } else { 0.0 };
            let _ = writeln!(out, "  {label:<12} {secs:>10.6} s  {pct:>5.1}%");
        }

        let mut by_gap: Vec<&StragglerRow> = self.stragglers.iter().collect();
        by_gap.sort_by(|a, b| {
            b.gap().total_cmp(&a.gap()).then(a.name.cmp(&b.name)).then(a.wave.cmp(&b.wave))
        });
        let top = by_gap.len().min(10);
        let _ = writeln!(
            out,
            "\n-- stream-wave stragglers: top {top} of {} (gap = slowest - median) --",
            by_gap.len()
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>4} {:>5}  {:>8} {:>10} {:>10} {:>10}",
            "array", "wave", "ranks", "slowest", "max", "median", "gap"
        );
        for row in &by_gap[..top] {
            let _ = writeln!(
                out,
                "  {:<10} {:>4} {:>5}  {:>8} {:>10.6} {:>10.6} {:>10.6}",
                row.name,
                row.wave,
                row.ranks,
                row.slowest_rank,
                row.max,
                row.median,
                row.gap()
            );
        }

        let _ = writeln!(out, "\n-- PIOFS server utilization --");
        let _ = writeln!(
            out,
            "  {:>6} {:>10} {:>6}  {:>9} {:>10}",
            "server", "busy", "util", "intervals", "finish"
        );
        for row in &self.servers.rows {
            let _ = writeln!(
                out,
                "  {:>6} {:>10.6} {:>5.1}%  {:>9} {:>10.6}",
                row.server,
                row.busy,
                100.0 * row.utilization(w),
                row.intervals,
                row.last
            );
        }
        let _ = match self.servers.slowest() {
            Some(s) => {
                writeln!(out, "  slowest server: {s}  (imbalance {:.3})", self.servers.imbalance())
            }
            None => writeln!(out, "  no server activity recorded"),
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::Recorder;

    fn sample_recorder() -> TraceRecorder {
        let r = TraceRecorder::new();
        r.span_start(0.0, 0, Phase::Segment, "write");
        r.span_start(0.0, 1, Phase::StreamWave, "a");
        r.span_end(1.0, 1, Phase::StreamWave, "a");
        r.span_end(2.0, 0, Phase::Segment, "write");
        r.server_interval(0, 0, "collective", 0.0, 1.5);
        r.server_interval(0, 1, "collective", 0.0, 0.5);
        r.event_with_corr(0.0, 0, Phase::Control, "job bt started", 0);
        r
    }

    #[test]
    fn analysis_links_incarnations_and_servers() {
        let a = Analysis::from_recorder(&sample_recorder());
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.incarnations.len(), 1);
        assert_eq!(a.incarnations[0].incarnation, 0);
        assert_eq!(a.servers.slowest(), Some(0));
    }

    #[test]
    fn critical_path_tiles_the_window() {
        let a = Analysis::from_recorder(&sample_recorder());
        assert!((a.critical.length() - a.wall()).abs() < 1e-12);
        assert!(a.wall() >= a.spans.iter().map(Span::duration).fold(0.0, f64::max));
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let rec = sample_recorder();
        let one = Analysis::from_recorder(&rec).render();
        let two = Analysis::from_recorder(&rec).render();
        assert_eq!(one, two);
        assert!(one.contains("critical path"));
        assert!(one.contains("attribution by phase"));
        assert!(one.contains("slowest server: 0"));
        assert!(one.contains("incarnation links 1"));
    }
}
