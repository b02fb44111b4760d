//! Flight-recorder campaign: crash-surviving trace recovery at every
//! enumerated [`CrashPoint`](drms::chaos::CrashPoint).
//!
//! The sweep kills the region at each blocking-path crash point of the
//! two-phase commit (the `Flush*` family fires only inside the async
//! pipeline's background flush and is swept in `tests/async_campaign.rs`)
//! with a tiny-capacity flight recorder riding the run. The invariants,
//! per point:
//!
//! * the JSA drives the job to bitwise completion anyway;
//! * **every** incarnation — including the one that died at the armed
//!   point — is recovered into the archive with a non-empty event stream
//!   (SOP seals for the committed past, the crash salvage for the tail);
//! * the stitched cross-incarnation timeline has zero unattributed gaps:
//!   consecutive segments abut bit-exactly, separated only by the billed
//!   detection latency;
//! * the recovery-cost attribution tiles the stitched wall clock to
//!   floating-point association error;
//! * the `blackbox.recovery_ratio` gauge the JSA last published is the
//!   attribution's recovery fraction, bit for bit.
//!
//! A token-kill scenario rides along: a processor failure (no crash
//! point, so nothing salvages the tail) must surface its loss as the
//! audited `blackbox.events_dropped` counter rather than silence, and the
//! campaign replays bit-identically per seed — same stitched stream, same
//! recovery cost to the bit — which is what makes the `FAULT_SEED` repro
//! lines below trustworthy. A localized-recovery run closes the set: its
//! in-place recovery is billed, and gauged, inside one incarnation.
//!
//! The job, the sweep, the deep dive and the coverage contract are the
//! `blackbox` gate row's ([`drms_bench::blackbox`]), the localized run the
//! `recover` row's; this file runs them at its own seeds.

use drms::chaos::FaultPlan;
use drms_bench::blackbox::{assert_covered, crash_sweep, deep_dive};
use drms_bench::recover::{self, Mode};
use drms_bench::seed::fault_seed_env;

/// Ring capacity for the campaign: small enough that evictions are part
/// of every run, so recovery works from overlapping partial snapshots —
/// the hard case — rather than from complete histories.
const RING_CAPACITY: usize = 256;

/// Base seed of the crash-point sweep; the token-kill scenario perturbs
/// it so the two campaigns never alias under a `FAULT_SEED` filter.
const SWEEP_SEED: u64 = 0xB1ACB;

/// The one-command repro printed by every campaign assertion, in the
/// repo-wide `FAULT_SEED` convention shared with the other campaigns.
fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("blackbox_campaign", seed)
}

/// The tentpole sweep: every blocking-path crash point, exhaustively. The
/// restart-side points need an organic restart to fire inside, so those
/// runs also kill one processor mid-run. Per point the crashed
/// incarnation's tail reached storage as a salvage seal — the ring
/// survived the very instant it is for.
#[test]
fn every_crash_point_leaves_a_recoverable_flight_record() {
    if fault_seed_env().is_some_and(|only| only != SWEEP_SEED) {
        return;
    }
    assert!(!crash_sweep(SWEEP_SEED, RING_CAPACITY, &repro_cmd(SWEEP_SEED)).is_empty());
}

/// Token kill: a processor failure between checkpoints, with no crash
/// point armed, so the dying incarnation's unsealed tail has no salvage
/// path. The loss must be audited — `blackbox.events_dropped` counts the
/// exact tail — while everything up to the last SOP seal still recovers
/// and the stitched timeline still covers every incarnation. The deep
/// dive kills a processor at iteration 7 after a mid-publish crash, under
/// fault weather.
#[test]
fn token_kill_audits_its_dropped_tail() {
    let seed = SWEEP_SEED ^ 0x7111;
    if fault_seed_env().is_some_and(|only| only != seed) {
        return;
    }
    deep_dive(seed, RING_CAPACITY, &repro_cmd(seed));
}

/// Determinism: replaying the identical plan replays the identical
/// recovery — same checksum, run summary and stitched stream, same
/// recovery cost to the bit. This is what makes every repro line in this
/// file trustworthy.
#[test]
fn campaign_replays_bit_identically() {
    let seed = SWEEP_SEED ^ 0xD00D;
    if fault_seed_env().is_some_and(|only| only != seed) {
        return;
    }
    deep_dive(seed, RING_CAPACITY, &repro_cmd(seed));
}

/// Localized recovery: a node loss survived in place, inside the one
/// incarnation. The attribution bills the recovery window to its own
/// bucket, and the gauge the JSA published counts it too (the coverage
/// contract compares the two bit for bit).
#[test]
fn localized_recovery_is_billed_and_gauged() {
    let seed = SWEEP_SEED ^ 0x10CA;
    if fault_seed_env().is_some_and(|only| only != seed) {
        return;
    }
    let r = recover::run_campaign(FaultPlan::seeded(seed), Mode::Piofs);
    assert_eq!(
        r.out.summary.incarnations.len(),
        1,
        "a localized recovery cost an incarnation: {:?}\nreproduce with: {}",
        r.out.summary,
        repro_cmd(seed)
    );
    let (_, rep) = assert_covered(&r, "localized recovery", &repro_cmd(seed));
    assert!(
        rep.rows[0].localized > 0.0,
        "localized recovery billed no localized time\n{}\nreproduce with: {}",
        rep.render(),
        repro_cmd(seed)
    );
}
