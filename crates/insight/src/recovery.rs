//! Recovery-cost attribution over a stitched timeline.
//!
//! Answers "where did the wall clock of this faulty run go?" with an
//! *exact tiling*: every stitched second lands in exactly one of six
//! buckets — detection latency, restore, localized recovery,
//! re-computation, useful work, or lost work — so the buckets sum to the
//! stitched wall clock to the last bit (useful work is the residual of
//! the other five inside each incarnation's extent, and the boundary
//! quantities are differences of the same event timestamps, so nothing
//! is double-billed).
//!
//! Bucket boundaries, per incarnation `k` over `[start_k, end_k]`:
//!
//! * **detect** — the gap billed before `start_k` (restarts only);
//! * **restore** — `start_k` to the last close of a restore span
//!   ([`drms_obs::markers::RESTORE_SPAN_NAMES`]), restarted incarnations only;
//! * **localized** — the union of in-incarnation localized-recovery
//!   spans ([`drms_obs::markers::LOCALIZED_SPAN_NAME`]): survivors paused
//!   while lost sections were restored in place, no restart billed.
//!   Overlap with the restore window stays restore; overlap with the
//!   recompute or lost windows is billed localized (priority
//!   restore > localized > recompute > lost);
//! * **recompute** — restore end to the first `commit:` marker: work
//!   re-done because it post-dated the checkpoint the restart used. A
//!   restarted incarnation that never commits is all re-computation (if it
//!   completed) or all lost (if it was killed again);
//! * **lost** — last `commit:` marker to `end_k`, killed incarnations
//!   only: work that died uncommitted;
//! * **useful** — everything else.
//!
//! The localized bucket is what separates a run that recovered through
//! the survivor-driven section-restore path from one that fell back to a
//! full restart: localized time replaces an entire detect + restore +
//! recompute cycle of a new incarnation.

use std::fmt::Write as _;

use drms_obs::markers::{COMMIT_EVENT_PREFIX, LOCALIZED_SPAN_NAME, RESTORE_SPAN_NAMES};
use drms_obs::EventKind;

use crate::stitch::StitchedTimeline;

/// One incarnation's share of the six buckets, in stitched seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct IncarnationCost {
    /// Incarnation number.
    pub incarnation: u64,
    /// Detection latency billed before this incarnation started.
    pub detect: f64,
    /// Restore window (checkpoint read + redistribution).
    pub restore: f64,
    /// In-place localized-recovery windows (survivor-driven section
    /// restore that avoided a restart).
    pub localized: f64,
    /// Re-computation to regain the pre-crash frontier.
    pub recompute: f64,
    /// Productive, committed-or-final work.
    pub useful: f64,
    /// Uncommitted work a kill destroyed.
    pub lost: f64,
    /// Commits observed inside the incarnation's extent.
    pub commits: usize,
    /// Per-rank lost tails `(rank, seconds)` for killed incarnations: how
    /// far past the last commit each rank's recovered history reaches.
    pub rank_lost: Vec<(usize, f64)>,
}

impl IncarnationCost {
    /// The incarnation's extent duration (all buckets except `detect`).
    pub fn duration(&self) -> f64 {
        self.restore + self.localized + self.recompute + self.useful + self.lost
    }
}

/// The full attribution: per-incarnation rows plus totals that tile the
/// stitched wall clock exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// One row per incarnation, in order.
    pub rows: Vec<IncarnationCost>,
    /// Stitched end-to-end wall clock the rows tile.
    pub wall: f64,
}

impl RecoveryReport {
    /// Computes the attribution from a stitched timeline.
    pub fn from_timeline(tl: &StitchedTimeline) -> RecoveryReport {
        let mut rows = Vec::with_capacity(tl.segments.len());
        for seg in &tl.segments {
            let events: Vec<_> =
                tl.events.iter().filter(|e| e.t >= seg.start && e.t <= seg.end).collect();
            let restore_end = if seg.restarted {
                events
                    .iter()
                    .filter(|e| {
                        e.kind == EventKind::End && RESTORE_SPAN_NAMES.contains(&e.name.as_str())
                    })
                    .map(|e| e.t)
                    .fold(seg.start, f64::max)
            } else {
                seg.start
            };
            let commits: Vec<f64> = events
                .iter()
                .filter(|e| e.kind == EventKind::Instant && e.name.starts_with(COMMIT_EVENT_PREFIX))
                .map(|e| e.t)
                .collect();
            // Localized-recovery windows: paired Start/End spans within the
            // extent. An unclosed span (a crash mid-recovery) extends to
            // the extent's end. Clamped below the restore window so restore
            // keeps priority, then merged so overlaps bill once.
            let mut localized_windows: Vec<(f64, f64)> = Vec::new();
            let mut open: Option<f64> = None;
            for e in events.iter().filter(|e| e.name == LOCALIZED_SPAN_NAME) {
                match e.kind {
                    EventKind::Begin => open = Some(e.t),
                    EventKind::End => {
                        if let Some(s) = open.take() {
                            localized_windows.push((s, e.t));
                        }
                    }
                    EventKind::Instant => {}
                }
            }
            if let Some(s) = open {
                localized_windows.push((s, seg.end));
            }
            let localized_windows = merge_windows(localized_windows, restore_end, seg.end);
            let restore = restore_end - seg.start;
            // Only a restarted incarnation re-computes: its pre-commit work
            // repeats ground the checkpoint had already covered. A fresh
            // incarnation's pre-commit work is ordinary useful progress.
            let (recompute, lost_from) = if seg.restarted {
                match (commits.first(), commits.last()) {
                    (Some(&first), Some(&last)) => ((first - restore_end).max(0.0), last),
                    // No commit: a killed incarnation's whole tail is lost;
                    // a surviving one re-computed to its horizon.
                    _ if seg.killed => (0.0, restore_end),
                    _ => (seg.end - restore_end, seg.end),
                }
            } else {
                (0.0, commits.last().copied().unwrap_or(seg.start))
            };
            // Priority walk: time inside a localized window is billed
            // localized, carved out of whichever lower-priority bucket
            // (recompute, lost) would otherwise have claimed it.
            let localized: f64 = localized_windows.iter().map(|&(s, e)| e - s).sum();
            let recompute = recompute
                - localized_windows
                    .iter()
                    .map(|&(s, e)| overlap(s, e, restore_end, restore_end + recompute))
                    .sum::<f64>();
            let lost_raw = if seg.killed { (seg.end - lost_from).max(0.0) } else { 0.0 };
            let lost = lost_raw
                - localized_windows
                    .iter()
                    .map(|&(s, e)| overlap(s, e, seg.end - lost_raw, seg.end))
                    .sum::<f64>();
            let duration = seg.end - seg.start;
            let useful = duration - restore - localized - recompute - lost;
            let mut rank_lost: Vec<(usize, f64)> = Vec::new();
            if seg.killed {
                let mut by_rank: std::collections::BTreeMap<usize, f64> = Default::default();
                for e in &events {
                    let t = by_rank.entry(e.rank).or_insert(seg.start);
                    *t = t.max(e.t);
                }
                rank_lost =
                    by_rank.into_iter().map(|(r, t)| (r, (t - lost_from).max(0.0))).collect();
            }
            rows.push(IncarnationCost {
                incarnation: seg.incarnation,
                detect: seg.detect,
                restore,
                localized,
                recompute,
                useful,
                lost,
                commits: commits.len(),
                rank_lost,
            });
        }
        RecoveryReport { rows, wall: tl.wall() }
    }

    /// Sum of one bucket across incarnations.
    fn total(&self, f: impl Fn(&IncarnationCost) -> f64) -> f64 {
        self.rows.iter().map(f).sum()
    }

    /// Total recovery cost: everything except useful work.
    pub fn recovery_cost(&self) -> f64 {
        self.total(|r| r.detect + r.restore + r.localized + r.recompute + r.lost)
    }

    /// Recovery cost as a fraction of the stitched wall clock (0 when the
    /// timeline is empty). The JSA publishes this value as the
    /// `blackbox.recovery_ratio` gauge.
    pub fn recovery_fraction(&self) -> f64 {
        if self.wall <= 0.0 {
            0.0
        } else {
            self.recovery_cost() / self.wall
        }
    }

    /// Largest absolute tiling error: how far the six buckets are from
    /// summing to the wall clock. Zero up to floating-point association
    /// (the quantities are differences of shared timestamps).
    pub fn tiling_error(&self) -> f64 {
        let sum = self.total(|r| r.detect + r.duration());
        (sum - self.wall).abs()
    }

    /// Deterministic plain-text table of the attribution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "recovery-cost attribution ({} incarnations)", self.rows.len());
        let _ = writeln!(
            out,
            "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
            "inc", "detect", "restore", "localized", "recompute", "useful", "lost", "commits"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>4} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>8}",
                r.incarnation,
                r.detect,
                r.restore,
                r.localized,
                r.recompute,
                r.useful,
                r.lost,
                r.commits
            );
            for (rank, lost) in &r.rank_lost {
                if *lost > 0.0 {
                    let _ = writeln!(out, "       rank {rank}: {lost:.6}s past last commit");
                }
            }
        }
        let _ = writeln!(
            out,
            "totals detect={:.6} restore={:.6} localized={:.6} recompute={:.6} useful={:.6} \
             lost={:.6}",
            self.total(|r| r.detect),
            self.total(|r| r.restore),
            self.total(|r| r.localized),
            self.total(|r| r.recompute),
            self.total(|r| r.useful),
            self.total(|r| r.lost),
        );
        let _ = writeln!(
            out,
            "wall={:.6} recovery_cost={:.6} recovery_fraction={:.6}",
            self.wall,
            self.recovery_cost(),
            self.recovery_fraction()
        );
        out
    }
}

/// Clamps each window to `[lo, hi]`, drops empties, and merges overlaps
/// so every instant is counted at most once.
fn merge_windows(mut windows: Vec<(f64, f64)>, lo: f64, hi: f64) -> Vec<(f64, f64)> {
    for w in &mut windows {
        w.0 = w.0.max(lo);
        w.1 = w.1.min(hi);
    }
    windows.retain(|&(s, e)| e > s);
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(windows.len());
    for (s, e) in windows {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Length of the intersection of `[a0, a1]` and `[b0, b1]`.
fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stitch::{stitch, IncarnationInput};
    use drms_obs::markers::{RESTORE_ARRAYS_DELTA, SPMD_READ_SEGMENT};
    use drms_obs::{Phase, TraceEvent};

    fn ev(t: f64, rank: usize, name: &str, kind: EventKind) -> TraceEvent {
        TraceEvent { t, rank, phase: Phase::Arrays, name: name.to_string(), kind, corr: None }
    }

    fn timeline() -> StitchedTimeline {
        timeline_restored_by("restore_arrays")
    }

    /// Incarnation 0: commits at 4 and 6, killed at horizon 10.
    /// Incarnation 1 (restarted): a `restore_span` closes at 3, commit 5,
    /// horizon 8.
    fn timeline_restored_by(restore_span: &str) -> StitchedTimeline {
        let inputs = vec![
            IncarnationInput {
                incarnation: 0,
                events: vec![
                    ev(0.5, 0, "warmup", EventKind::Instant),
                    ev(4.0, 0, "commit:ck/a", EventKind::Instant),
                    ev(6.0, 0, "commit:ck/b", EventKind::Instant),
                    ev(9.0, 1, "late-work", EventKind::Instant),
                    ev(10.0, 0, "crash:ckpt_mid_publish", EventKind::Instant),
                ],
                killed: true,
                restarted: false,
            },
            IncarnationInput {
                incarnation: 1,
                events: vec![
                    ev(3.0, 0, restore_span, EventKind::End),
                    ev(5.0, 0, "commit:ck/c", EventKind::Instant),
                    ev(8.0, 0, "done", EventKind::Instant),
                ],
                killed: false,
                restarted: true,
            },
        ];
        stitch(&inputs, 2.0)
    }

    #[test]
    fn buckets_tile_the_wall_clock_exactly() {
        let tl = timeline();
        let rep = RecoveryReport::from_timeline(&tl);
        assert_eq!(rep.wall, 20.0);
        assert_eq!(rep.tiling_error(), 0.0);
        // Inc 0: useful 6 (start→last commit), lost 4 (6→10).
        assert_eq!(rep.rows[0].useful, 6.0);
        assert_eq!(rep.rows[0].lost, 4.0);
        assert_eq!(rep.rows[0].detect, 0.0);
        // Inc 1: detect 2, restore 3, recompute 2 (3→5), useful 3 (5→8).
        assert_eq!(rep.rows[1].detect, 2.0);
        assert_eq!(rep.rows[1].restore, 3.0);
        assert_eq!(rep.rows[1].recompute, 2.0);
        assert_eq!(rep.rows[1].useful, 3.0);
        // cost = 4 + 2 + 3 + 2 = 11 of 20.
        assert!((rep.recovery_fraction() - 11.0 / 20.0).abs() < 1e-12);
    }

    /// A delta-chain restart closes its restore window with
    /// `restore_arrays_delta`, a conventional SPMD restart with
    /// `spmd_read_segment`: either close ends the restore bucket, so only
    /// the run-up to the first commit is billed as re-computation.
    #[test]
    fn every_restore_path_closes_the_restore_window() {
        for span in [RESTORE_ARRAYS_DELTA, SPMD_READ_SEGMENT] {
            let rep = RecoveryReport::from_timeline(&timeline_restored_by(span));
            assert_eq!((rep.rows[1].restore, rep.rows[1].recompute), (3.0, 2.0), "{span}");
        }
    }

    #[test]
    fn rank_lost_tails_attribute_per_rank() {
        let rep = RecoveryReport::from_timeline(&timeline());
        let tails = &rep.rows[0].rank_lost;
        // Rank 0's last event is the crash marker at 10 (4s past commit at
        // 6); rank 1's late work at 9 is 3s past.
        assert_eq!(tails.len(), 2);
        assert_eq!(tails[0], (0, 4.0));
        assert_eq!(tails[1], (1, 3.0));
    }

    #[test]
    fn localized_spans_bill_their_own_bucket() {
        // One incarnation, never killed or restarted: a commit at 3, then
        // a localized recovery from 5 to 7, horizon 10. The two seconds
        // inside the span are recovery cost; the rest is useful.
        let inputs = vec![IncarnationInput {
            incarnation: 0,
            events: vec![
                ev(3.0, 0, "commit:ck/a", EventKind::Instant),
                ev(5.0, 0, LOCALIZED_SPAN_NAME, EventKind::Begin),
                ev(7.0, 0, LOCALIZED_SPAN_NAME, EventKind::End),
                ev(10.0, 0, "done", EventKind::Instant),
            ],
            killed: false,
            restarted: false,
        }];
        let tl = stitch(&inputs, 2.0);
        let rep = RecoveryReport::from_timeline(&tl);
        assert_eq!(rep.rows[0].localized, 2.0);
        assert_eq!(rep.rows[0].useful, 8.0);
        assert_eq!(rep.rows[0].restore, 0.0);
        assert_eq!(rep.recovery_cost(), 2.0);
        assert_eq!(rep.tiling_error(), 0.0);
        assert!(rep.render().contains("localized"));
    }

    #[test]
    fn localized_takes_priority_over_lost() {
        // Killed incarnation: commit at 4, localized span [6, 8], horizon
        // 10. The span is carved out of the lost tail, not double-billed.
        let inputs = vec![IncarnationInput {
            incarnation: 0,
            events: vec![
                ev(4.0, 0, "commit:ck/a", EventKind::Instant),
                ev(6.0, 0, LOCALIZED_SPAN_NAME, EventKind::Begin),
                ev(8.0, 0, LOCALIZED_SPAN_NAME, EventKind::End),
                ev(10.0, 0, "crash:x", EventKind::Instant),
            ],
            killed: true,
            restarted: false,
        }];
        let tl = stitch(&inputs, 1.0);
        let rep = RecoveryReport::from_timeline(&tl);
        assert_eq!(rep.rows[0].localized, 2.0);
        assert_eq!(rep.rows[0].lost, 4.0);
        assert_eq!(rep.rows[0].useful, 4.0);
        assert_eq!(rep.tiling_error(), 0.0);
    }

    #[test]
    fn unclosed_localized_span_extends_to_the_crash() {
        // A second failure mid-recovery leaves the span open: everything
        // from the span start to the horizon is localized-recovery time.
        let inputs = vec![IncarnationInput {
            incarnation: 0,
            events: vec![
                ev(6.0, 0, LOCALIZED_SPAN_NAME, EventKind::Begin),
                ev(9.0, 0, "crash:recover_restored", EventKind::Instant),
            ],
            killed: true,
            restarted: false,
        }];
        let tl = stitch(&inputs, 1.0);
        let rep = RecoveryReport::from_timeline(&tl);
        // With no commit the whole extent is a lost tail; the open span
        // carves [6, 9] out of it as localized-recovery time.
        assert_eq!(rep.rows[0].localized, 3.0);
        assert_eq!(rep.rows[0].lost, 6.0);
        assert_eq!(rep.rows[0].useful, 0.0);
        assert_eq!(rep.tiling_error(), 0.0);
    }

    #[test]
    fn killed_without_commit_is_all_lost_after_restore() {
        let inputs = vec![
            IncarnationInput {
                incarnation: 0,
                events: vec![ev(10.0, 0, "w", EventKind::Instant)],
                killed: true,
                restarted: false,
            },
            IncarnationInput {
                incarnation: 1,
                events: vec![
                    ev(2.0, 0, "restore_arrays", EventKind::End),
                    ev(7.0, 0, "crash:x", EventKind::Instant),
                ],
                killed: true,
                restarted: true,
            },
        ];
        let tl = stitch(&inputs, 1.0);
        let rep = RecoveryReport::from_timeline(&tl);
        assert_eq!(rep.rows[1].restore, 2.0);
        assert_eq!(rep.rows[1].recompute, 0.0);
        assert_eq!(rep.rows[1].lost, 5.0);
        assert_eq!(rep.rows[1].useful, 0.0);
        assert_eq!(rep.tiling_error(), 0.0);
        let render = rep.render();
        assert!(render.contains("recovery_fraction"));
    }
}
