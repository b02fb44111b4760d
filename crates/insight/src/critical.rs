//! Critical-path extraction.
//!
//! The operation window `[t0, t1]` spans the earliest span start to the
//! latest span end in the trace (control-plane instants are stamped with
//! sequence numbers, not simulated time, so only spans define the
//! window). The path is a sweep over rank 0's spans — rank 0 drives every
//! collective operation, so its timeline covers the operation — that
//! attributes **every** instant of the window to the deepest rank-0 span
//! covering it; instants no span covers become synthetic `idle/sync`
//! segments (time rank 0 spent waiting on other ranks or on collective
//! skew). By construction the segment durations sum exactly to the wall
//! time of the window.
//!
//! Each segment is then refined with its cross-task/cross-server
//! bottleneck: a `StreamWave` segment names the straggling task of that
//! wave (the rank whose same-wave span finished last), and an `IoPhase`
//! segment names the PIOFS server whose busy interval overlapping the
//! segment finished last.

use drms_obs::{Phase, ServerInterval};

use crate::spans::{deepest_covering, Span};

/// One segment of the critical path. `phase == None` marks synthetic
/// idle/sync time not covered by any rank-0 span.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Segment start in simulated seconds.
    pub start: f64,
    /// Segment end in simulated seconds.
    pub end: f64,
    /// Owning span's phase; `None` for idle/sync gaps.
    pub phase: Option<Phase>,
    /// Owning span's name; `"idle/sync"` for gaps.
    pub name: String,
    /// Id of the owning span in the span table, if any.
    pub span: Option<usize>,
    /// The task gating this segment, where the refinement found one (the
    /// straggler of a stream wave).
    pub task: Option<usize>,
    /// The PIOFS server gating this segment, where the refinement found
    /// one (last-finishing busy interval overlapping an I/O segment).
    pub server: Option<usize>,
}

impl Segment {
    /// Segment length in simulated seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Attribution label: the phase name, or `"idle/sync"` for gaps.
    pub fn phase_label(&self) -> &str {
        match self.phase {
            Some(p) => p.as_str(),
            None => "idle/sync",
        }
    }
}

/// The critical path of one traced operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Window start (earliest span start).
    pub t0: f64,
    /// Window end (latest span end).
    pub t1: f64,
    /// Contiguous segments covering `[t0, t1]` exactly.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Window wall time.
    pub fn wall(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Sum of segment durations. Equal to [`CriticalPath::wall`] up to
    /// floating-point rounding, by construction.
    pub fn length(&self) -> f64 {
        self.segments.iter().map(Segment::duration).sum()
    }

    /// Total attributed time per phase label, sorted by descending time
    /// then label (deterministic).
    pub fn by_phase(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for seg in &self.segments {
            let label = seg.phase_label();
            match totals.iter_mut().find(|(l, _)| l == label) {
                Some((_, t)) => *t += seg.duration(),
                None => totals.push((label.to_owned(), seg.duration())),
            }
        }
        totals.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        totals
    }
}

/// Occurrence index of each `StreamWave` span within its `(rank, name)`
/// stream: the checkpoint pipeline emits one span per wave in time order,
/// so the k-th occurrence is wave k.
pub(crate) fn wave_index(spans: &[Span], target: &Span) -> usize {
    spans
        .iter()
        .filter(|s| {
            s.phase == Phase::StreamWave
                && s.rank == target.rank
                && s.name == target.name
                && (s.start < target.start || (s.start == target.start && s.id < target.id))
        })
        .count()
}

/// The straggler of wave `wave` of array `name`: the rank whose wave-k
/// span ends last (ties to the lower rank).
fn wave_straggler(spans: &[Span], name: &str, wave: usize) -> Option<usize> {
    spans
        .iter()
        .filter(|s| s.phase == Phase::StreamWave && s.name == name && wave_index(spans, s) == wave)
        .max_by(|a, b| a.end.total_cmp(&b.end).then(b.rank.cmp(&a.rank)))
        .map(|s| s.rank)
}

/// The PIOFS server whose busy interval overlapping `[a, b]` ends last
/// (ties to the lower server index).
fn gating_server(servers: &[ServerInterval], a: f64, b: f64) -> Option<usize> {
    servers
        .iter()
        .filter(|iv| iv.start < b && a < iv.end)
        .max_by(|x, y| x.end.total_cmp(&y.end).then(y.server.cmp(&x.server)))
        .map(|iv| iv.server)
}

/// Extracts the critical path from the span table and server intervals.
/// Returns an empty path when the trace holds no spans.
pub fn critical_path(spans: &[Span], servers: &[ServerInterval]) -> CriticalPath {
    let (Some(t0), Some(t1)) = (
        spans.iter().map(|s| s.start).min_by(f64::total_cmp),
        spans.iter().map(|s| s.end).max_by(f64::total_cmp),
    ) else {
        return CriticalPath { t0: 0.0, t1: 0.0, segments: Vec::new() };
    };

    // Elementary intervals: window bounds plus every rank-0 span boundary
    // inside the window.
    let mut cuts: Vec<f64> = vec![t0, t1];
    for s in spans.iter().filter(|s| s.rank == 0) {
        for t in [s.start, s.end] {
            if t0 < t && t < t1 {
                cuts.push(t);
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    // Attribute each elementary interval, merging runs owned by the same
    // span (or equally idle).
    let mut segments: Vec<Segment> = Vec::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a == b {
            continue;
        }
        let owner = deepest_covering(spans, 0, a, b);
        let owner_id = owner.map(|s| s.id);
        if let Some(last) = segments.last_mut() {
            if last.span == owner_id && last.end == a {
                last.end = b;
                continue;
            }
        }
        segments.push(match owner {
            Some(s) => Segment {
                start: a,
                end: b,
                phase: Some(s.phase),
                name: s.name.clone(),
                span: Some(s.id),
                task: None,
                server: None,
            },
            None => Segment {
                start: a,
                end: b,
                phase: None,
                name: "idle/sync".to_owned(),
                span: None,
                task: None,
                server: None,
            },
        });
    }

    // Bottleneck refinement.
    for seg in &mut segments {
        match seg.phase {
            Some(Phase::StreamWave) => {
                if let Some(owner) = seg.span.map(|id| &spans[id]) {
                    let wave = wave_index(spans, owner);
                    seg.task = wave_straggler(spans, &owner.name, wave);
                }
            }
            Some(Phase::IoPhase) => {
                seg.server = gating_server(servers, seg.start, seg.end);
            }
            _ => {}
        }
    }

    CriticalPath { t0, t1, segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::build_spans;
    use drms_obs::{EventKind, TraceEvent};

    fn ev(t: f64, rank: usize, phase: Phase, name: &str, kind: EventKind) -> TraceEvent {
        TraceEvent { t, rank, phase, name: name.to_owned(), kind, corr: None }
    }

    fn span_pair(out: &mut Vec<TraceEvent>, t0: f64, t1: f64, rank: usize, p: Phase, n: &str) {
        out.push(ev(t0, rank, p, n, EventKind::Begin));
        out.push(ev(t1, rank, p, n, EventKind::End));
    }

    fn sorted(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
        events.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.rank.cmp(&b.rank)));
        events
    }

    #[test]
    fn segments_tile_the_window_exactly() {
        let mut events = Vec::new();
        span_pair(&mut events, 0.0, 1.0, 0, Phase::Init, "load");
        span_pair(&mut events, 1.0, 3.0, 0, Phase::Segment, "write");
        span_pair(&mut events, 1.5, 2.5, 0, Phase::IoPhase, "collective");
        // Gap [3, 4): rank 1 still streaming; rank 0 idle.
        span_pair(&mut events, 3.0, 4.0, 1, Phase::StreamWave, "a");
        span_pair(&mut events, 4.0, 6.0, 0, Phase::Arrays, "stream");
        let spans = build_spans(&sorted(events));
        let path = critical_path(&spans, &[]);

        assert_eq!((path.t0, path.t1), (0.0, 6.0));
        let labels: Vec<(&str, f64, f64)> =
            path.segments.iter().map(|s| (s.phase_label(), s.start, s.end)).collect();
        assert_eq!(
            labels,
            vec![
                ("init", 0.0, 1.0),
                ("segment", 1.0, 1.5),
                ("io_phase", 1.5, 2.5),
                ("segment", 2.5, 3.0),
                ("idle/sync", 3.0, 4.0),
                ("arrays", 4.0, 6.0),
            ]
        );
        assert!((path.length() - path.wall()).abs() < 1e-12);
        let by_phase = path.by_phase();
        let total: f64 = by_phase.iter().map(|(_, t)| t).sum();
        assert!((total - 6.0).abs() < 1e-12);
        assert_eq!(by_phase[0].0, "arrays");
    }

    #[test]
    fn stream_wave_segments_name_the_straggling_task() {
        let mut events = Vec::new();
        span_pair(&mut events, 0.0, 4.0, 0, Phase::Arrays, "stream");
        // Wave 0 of array "a" on three ranks; rank 2 is slowest.
        span_pair(&mut events, 0.0, 1.0, 0, Phase::StreamWave, "a");
        span_pair(&mut events, 0.0, 1.5, 1, Phase::StreamWave, "a");
        span_pair(&mut events, 0.0, 2.0, 2, Phase::StreamWave, "a");
        // Wave 1: rank 0 is slowest.
        span_pair(&mut events, 2.0, 4.0, 0, Phase::StreamWave, "a");
        span_pair(&mut events, 2.0, 3.0, 1, Phase::StreamWave, "a");
        span_pair(&mut events, 2.5, 3.5, 2, Phase::StreamWave, "a");
        let spans = build_spans(&sorted(events));
        let path = critical_path(&spans, &[]);

        let waves: Vec<&Segment> =
            path.segments.iter().filter(|s| s.phase == Some(Phase::StreamWave)).collect();
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0].task, Some(2), "wave 0 gated by rank 2");
        assert_eq!(waves[1].task, Some(0), "wave 1 gated by rank 0");
    }

    #[test]
    fn io_segments_name_the_last_finishing_server() {
        let mut events = Vec::new();
        span_pair(&mut events, 0.0, 3.0, 0, Phase::IoPhase, "collective");
        let spans = build_spans(&sorted(events));
        let servers = vec![
            ServerInterval { server: 0, name: "collective".into(), start: 0.0, end: 2.0 },
            ServerInterval { server: 1, name: "collective".into(), start: 0.0, end: 3.0 },
            ServerInterval { server: 2, name: "collective".into(), start: 5.0, end: 6.0 },
        ];
        let path = critical_path(&spans, &servers);
        assert_eq!(path.segments.len(), 1);
        assert_eq!(path.segments[0].server, Some(1), "server 2's interval is outside the segment");
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let path = critical_path(&[], &[]);
        assert_eq!(path.segments.len(), 0);
        assert_eq!(path.wall(), 0.0);
    }
}
