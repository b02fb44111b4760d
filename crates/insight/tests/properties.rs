//! Property tests for the causal analysis invariants:
//!
//! * the critical path tiles the operation window exactly — its length
//!   equals the wall time (so it can never exceed it) and is at least
//!   the duration of the longest single span;
//! * the analysis is a pure function of the recorded trace: feeding the
//!   same events in different interleavings (as racing ranks would)
//!   renders byte-identical reports.

use drms_insight::{stitch, Analysis, IncarnationInput};
use drms_obs::{EventKind, Phase, Recorder, TraceEvent, TraceRecorder};
use proptest::prelude::*;

/// One generated span: rank, phase pick, name pick, start and duration
/// in microsecond-ish integer units (mapped to seconds).
#[derive(Debug, Clone)]
struct GenSpan {
    rank: usize,
    phase: Phase,
    name: &'static str,
    start: f64,
    dur: f64,
}

const PHASES: [Phase; 5] =
    [Phase::Segment, Phase::Arrays, Phase::StreamWave, Phase::IoPhase, Phase::Redistribute];
const NAMES: [&str; 4] = ["a", "b", "write", "collective"];

fn arb_span(nranks: usize) -> impl Strategy<Value = GenSpan> {
    (0usize..nranks, 0usize..PHASES.len(), 0usize..NAMES.len(), 0u32..1000, 1u32..500).prop_map(
        |(rank, p, n, start, dur)| GenSpan {
            rank,
            phase: PHASES[p],
            name: NAMES[n],
            start: start as f64 * 1e-3,
            dur: dur as f64 * 1e-3,
        },
    )
}

/// One recorder call in some rank's program order.
enum Call {
    Begin(f64, usize, Phase, &'static str),
    End(f64, usize, Phase, &'static str),
    Server(usize, f64, f64),
}

/// Replays the generated spans (plus some server intervals) into a
/// recorder under a chosen cross-rank schedule. Each rank's own calls keep
/// their program order — exactly the orderings a real threaded run can
/// produce; only the interleaving across ranks varies.
fn record(spans: &[GenSpan], nranks: usize, reversed_schedule: bool) -> TraceRecorder {
    let mut queues: Vec<std::collections::VecDeque<Call>> =
        (0..nranks).map(|_| std::collections::VecDeque::new()).collect();
    for (i, s) in spans.iter().enumerate() {
        let (b, e) = (s.start, s.start + s.dur);
        queues[s.rank].push_back(Call::Begin(b, s.rank, s.phase, s.name));
        if i % 4 == 0 {
            queues[s.rank].push_back(Call::Server(i % 3, b, e));
        }
        queues[s.rank].push_back(Call::End(e, s.rank, s.phase, s.name));
    }

    let rec = TraceRecorder::new();
    let order: Vec<usize> =
        if reversed_schedule { (0..nranks).rev().collect() } else { (0..nranks).collect() };
    while queues.iter().any(|q| !q.is_empty()) {
        for &rank in &order {
            match queues[rank].pop_front() {
                Some(Call::Begin(t, r, p, n)) => rec.span_start(t, r, p, n),
                Some(Call::End(t, r, p, n)) => rec.span_end(t, r, p, n),
                Some(Call::Server(server, b, e)) => {
                    rec.server_interval(0, server, "collective", b, e)
                }
                None => {}
            }
        }
    }
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn critical_path_length_bounded_by_wall_and_longest_span(
        nranks in 1usize..5,
        spans in proptest::collection::vec(arb_span(4), 1..40),
    ) {
        let spans: Vec<GenSpan> =
            spans.into_iter().map(|mut s| { s.rank %= nranks; s }).collect();
        let rec = record(&spans, nranks, false);
        let a = Analysis::from_recorder(&rec);

        let wall = a.wall();
        let eps = 1e-9 * wall.max(1.0);
        // Length == wall by construction, so it can never exceed it...
        prop_assert!((a.critical.length() - wall).abs() <= eps,
            "length {} != wall {}", a.critical.length(), wall);
        // ...and every span fits inside the window, so the longest single
        // span bounds it from below.
        let longest = a.spans.iter().map(|s| s.duration()).fold(0.0, f64::max);
        prop_assert!(a.critical.length() + eps >= longest,
            "length {} < longest span {}", a.critical.length(), longest);

        // Segments tile the window contiguously.
        if let (Some(first), Some(last)) = (a.critical.segments.first(), a.critical.segments.last()) {
            prop_assert_eq!(first.start, a.critical.t0);
            prop_assert_eq!(last.end, a.critical.t1);
        }
        for w in a.critical.segments.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }

        // Per-phase attribution sums to the wall time.
        let total: f64 = a.critical.by_phase().iter().map(|(_, t)| t).sum();
        prop_assert!((total - wall).abs() <= eps);
    }

    #[test]
    fn analysis_is_byte_identical_across_interleavings(
        nranks in 1usize..5,
        spans in proptest::collection::vec(arb_span(4), 1..40),
    ) {
        let spans: Vec<GenSpan> =
            spans.into_iter().map(|mut s| { s.rank %= nranks; s }).collect();
        let forward = Analysis::from_recorder(&record(&spans, nranks, false)).render();
        let backward = Analysis::from_recorder(&record(&spans, nranks, true)).render();
        prop_assert_eq!(forward, backward);
    }

    /// Stitch ordering invariant: for arbitrary incarnation event shapes,
    /// consecutive segments abut bit-exactly (`start == prev.end +
    /// detect`), starts and ends are monotone, the wall clock is the last
    /// end, and no event falls outside its incarnation's extent.
    #[test]
    fn stitch_segments_abut_exactly(
        detection_us in 0u64..2_000_000,
        shapes_us in proptest::collection::vec(
            proptest::collection::vec(0u64..100_000_000, 0..16), 1..8),
    ) {
        let detection = detection_us as f64 * 1e-6;
        let shapes: Vec<Vec<f64>> = shapes_us
            .iter()
            .map(|v| v.iter().map(|&us| us as f64 * 1e-6).collect())
            .collect();
        let ev = |t: f64| TraceEvent {
            t,
            rank: 0,
            phase: Phase::Arrays,
            name: "e".to_string(),
            kind: EventKind::Instant,
            corr: None,
        };
        let inputs: Vec<IncarnationInput> = shapes
            .iter()
            .enumerate()
            .map(|(k, times)| {
                let mut times = times.clone();
                times.sort_by(f64::total_cmp);
                IncarnationInput {
                    incarnation: k as u64,
                    events: times.iter().map(|&t| ev(t)).collect(),
                    killed: k + 1 < shapes.len(),
                    restarted: k > 0,
                }
            })
            .collect();
        let tl = stitch(&inputs, detection);
        prop_assert_eq!(tl.segments.len(), inputs.len());
        prop_assert_eq!(tl.events.len(), shapes.iter().map(Vec::len).sum::<usize>());
        prop_assert_eq!(tl.segments[0].detect, 0.0);
        prop_assert_eq!(tl.segments[0].start, 0.0);
        for k in 1..tl.segments.len() {
            prop_assert_eq!(
                tl.segments[k].start.to_bits(),
                (tl.segments[k - 1].end + tl.segments[k].detect).to_bits()
            );
            prop_assert!(tl.segments[k].start >= tl.segments[k - 1].start);
            prop_assert!(tl.segments[k].end >= tl.segments[k - 1].end);
        }
        prop_assert_eq!(tl.wall(), tl.segments.last().unwrap().end);
        for (seg, inp) in tl.segments.iter().zip(&inputs) {
            prop_assert!(seg.end >= seg.start);
            for e in tl.events_of(seg.incarnation) {
                prop_assert!(e.t >= seg.start && e.t <= seg.end);
            }
            prop_assert_eq!(seg.killed, inp.killed);
            prop_assert_eq!(seg.restarted, inp.restarted);
        }
    }
}
