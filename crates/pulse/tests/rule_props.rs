//! Property tests for the pulse pipeline's determinism contracts:
//!
//! * window arithmetic never panics, whatever garbage the stamps are;
//! * heartbeats and alerts are invariant under drain batching — chopping
//!   the same hook stream into arbitrary drain chunks changes nothing;
//! * one continuous breach fires exactly one alert: over any per-window
//!   load profile, the alert count equals the number of below→above
//!   transitions, never one per breaching window.

use drms_obs::{names, Phase};
use drms_pulse::{window_bounds, window_of, Predicate, Pulse, PulseConfig, PulseRule};
use proptest::prelude::*;

/// One synthetic hook call, decoded from integer lattice points (the
/// vendored proptest shim only draws integer ranges).
#[derive(Debug, Clone, Copy)]
struct Step {
    rank: usize,
    kind: u8,
    t: f64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0usize..4, 0u8..6, 0u64..50_000), 1..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(rank, kind, t_micro)| Step { rank, kind, t: t_micro as f64 * 1e-6 })
            .collect()
    })
}

/// Replays the synthetic stream into `pulse`, draining after every step
/// whose index is in `cuts`, then finishes and returns (heartbeats, alert
/// names-with-windows).
fn replay(script: &[Step], cuts: &[usize]) -> (Vec<String>, Vec<(String, u64)>) {
    let pulse = Pulse::new(PulseConfig {
        ntasks: 4,
        window: 0.005,
        // Hair-trigger rules so alerts actually participate in the
        // comparison.
        rules: vec![
            PulseRule {
                name: names::ALERT_RETRY_STORM,
                predicate: Predicate::RateAbove {
                    metrics: vec![names::IO_RETRIES],
                    per_second: 150.0,
                },
                min_windows: 1,
            },
            PulseRule {
                name: names::ALERT_REPLICA_LOSS,
                predicate: Predicate::GaugeBelow {
                    name: names::MEMTIER_REPLICAS,
                    index: 0,
                    below: 2.0,
                },
                min_windows: 1,
            },
        ],
    });
    let rec = pulse.recorder();
    for (i, s) in script.iter().enumerate() {
        match s.kind {
            0 => rec.span_start(s.t, s.rank, Phase::StreamWave, "wave"),
            1 => rec.span_end(s.t, s.rank, Phase::StreamWave, "wave"),
            2 => rec.counter_add_at(s.t, s.rank, names::IO_RETRIES, None, 1),
            3 => rec.gauge_set_at(s.t, s.rank, names::MEMTIER_REPLICAS, 0, (s.rank % 3) as f64),
            4 => rec.server_interval(s.rank, s.rank % 2, "collective", s.t, s.t + 1e-4),
            _ => rec.event(s.t, s.rank, Phase::Segment, "tick"),
        }
        if cuts.contains(&i) {
            pulse.drain();
        }
    }
    let report = pulse.finish();
    let alerts = report.alerts.iter().map(|a| (a.rule.to_string(), a.window)).collect();
    (report.heartbeats, alerts)
}

proptest! {
    /// Window assignment and bounds are total functions: any bit pattern
    /// for stamp and width — NaN, infinities, subnormals, negatives — maps
    /// to a window without panicking, and the bounds round-trip contains
    /// well-formed stamps.
    #[test]
    fn window_arithmetic_never_panics(stamp_bits in 0u64..u64::MAX, width_bits in 0u64..u64::MAX) {
        let stamp = f64::from_bits(stamp_bits);
        let width = f64::from_bits(width_bits);
        let idx = window_of(stamp, width);
        let (t0, t1) = window_bounds(idx, width);
        prop_assert!(!t0.is_nan() && !t1.is_nan());
        prop_assert!(t1 >= t0);
        // Well-formed stamps land inside their own window's bounds when
        // neither saturation nor width sanitation kicked in.
        if stamp.is_finite() && stamp >= 0.0 && width.is_finite() && width > 0.0
            && idx < u64::MAX && (idx as f64) * width < 1e18
        {
            prop_assert!(t0 <= stamp, "stamp {stamp} before window [{t0},{t1})");
        }
    }

    /// Drain batching is invisible: draining after every prescribed prefix
    /// of the stream produces byte-identical heartbeats and alerts to a
    /// single drain at the end.
    #[test]
    fn heartbeats_and_alerts_are_drain_invariant(
        script in steps(),
        raw_cuts in proptest::collection::vec(0usize..120, 0..12),
    ) {
        let cuts: Vec<usize> = raw_cuts.iter().map(|c| c % script.len().max(1)).collect();
        let (hb_ref, alerts_ref) = replay(&script, &[]);
        let (hb_cut, alerts_cut) = replay(&script, &cuts);
        prop_assert_eq!(hb_ref, hb_cut, "heartbeats changed under drain batching");
        prop_assert_eq!(alerts_ref, alerts_cut, "alerts changed under drain batching");
    }

    /// One continuous breach fires exactly once. For an arbitrary
    /// per-window retry profile the engine emits one alert per below→above
    /// transition of the rate — latched while the breach continues,
    /// re-armed only after a clean window.
    #[test]
    fn one_alert_per_breach_onset(deltas in proptest::collection::vec(0u64..6, 1..40)) {
        const WIDTH: f64 = 1.0;
        const THRESHOLD: f64 = 2.5;
        let pulse = Pulse::new(PulseConfig {
            ntasks: 1,
            window: WIDTH,
            rules: vec![PulseRule {
                name: names::ALERT_RETRY_STORM,
                predicate: Predicate::RateAbove {
                    metrics: vec![names::IO_RETRIES],
                    per_second: THRESHOLD,
                },
                min_windows: 1,
            }],
        });
        let rec = pulse.recorder();
        for (i, &d) in deltas.iter().enumerate() {
            // One counter sample per window keeps every window populated
            // (delta 0 is a sample with no increment — a clean window).
            rec.counter_add_at(i as f64 * WIDTH + 0.5, 0, names::IO_RETRIES, None, d);
        }
        let report = pulse.finish();

        let breach: Vec<bool> =
            deltas.iter().map(|&d| d as f64 / WIDTH >= THRESHOLD).collect();
        let onsets: Vec<u64> = breach
            .iter()
            .enumerate()
            .filter(|&(i, &b)| b && (i == 0 || !breach[i - 1]))
            .map(|(i, _)| i as u64)
            .collect();
        let fired: Vec<u64> = report.alerts.iter().map(|a| a.window).collect();
        prop_assert_eq!(
            fired,
            onsets,
            "alerts disagree with breach onsets for profile {:?}",
            deltas
        );
    }
}
