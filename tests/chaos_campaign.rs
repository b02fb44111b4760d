//! Crash-consistency campaign: the two-phase checkpoint commit under fire.
//!
//! The sweep iterates **every** enumerated [`CrashPoint`] — the list is
//! generated from the same macro as the enum, so a new point is swept
//! automatically — and for each one kills the region at that exact instant
//! of a checkpoint or restart. The invariants, per point:
//!
//! * the JSA drives the job to completion anyway;
//! * the final state is **bitwise equal** to an uninterrupted run;
//! * no incarnation ever restarts from a staging (`.tmp`) prefix, and no
//!   staged incarnation is ever visible to `find_checkpoints`;
//! * after the run, `sweep_orphans` reclaims whatever staging the crash
//!   stranded, leaving no `.tmp` debris behind.
//!
//! Two scenario campaigns ride along: transient PIOFS weather (every I/O
//! operation retries under the backoff policy and the run still completes
//! bitwise-exact), and a torn staged write paired with a crash (the torn
//! bytes die in staging and are never published — the hazard the two-phase
//! commit exists to close).

use std::sync::Arc;

use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan, PiofsFaults, TornWrite};
use drms::core::{find_checkpoints, sweep_orphans};
use drms::piofs::Piofs;
use drms::rtenv::RunSummary;
use drms_bench::campaign::{policy, Campaign, Fault, Rig, FAULTS};

const NITER: i64 = 10;
const APP: &str = "chaoscamp";

/// The base seed of the crash-point sweep. Every campaign seed is pinned in
/// this file — no ambient, time-based, or derived seeding — so a failing
/// campaign always names its seed and reproduces with one command.
const SWEEP_SEED: u64 = 0xC0A5;

/// Seeds of the transient-weather scenario campaign.
const WEATHER_SEEDS: &[u64] = &[11, 12, 13];

/// The one-command repro printed by every campaign assertion, in the
/// repo-wide `FAULT_SEED` convention shared with the failure and
/// storage-fault campaigns (see `drms_bench::seed`).
fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("chaos_campaign", seed)
}

/// The seed filter, when a repro command set one.
fn seed_filter() -> Option<u64> {
    drms_bench::seed::fault_seed_env()
}

/// Everything a campaign assertion wants to inspect after the run.
struct CampaignResult {
    checksum: f64,
    summary: RunSummary,
    fs: Arc<Piofs>,
    ctl: Arc<ChaosCtl>,
}

/// Runs the campaign job under a fault plan, optionally killing one
/// processor at an iteration (to force an organic restart, so the
/// restart-side crash points have a restart to fire inside). An injected
/// crash surfaces as `CoreError::Interrupted` from whichever collective
/// the region died inside; the job reports itself killed and the JSA
/// reincarnates it from the newest *committed* checkpoint.
fn run_campaign(plan: FaultPlan, fail_at: Option<Fault>) -> CampaignResult {
    let rig = Rig::new(APP, plan.seed, None);
    let ctl = ChaosCtl::new(plan);
    let jsa = rig.jsa(policy()).with_chaos(Arc::clone(&ctl));
    let job =
        Campaign { faults: fail_at.into_iter().collect(), ..Campaign::new(APP, "ck/chaos", NITER) };
    let (checksum, summary) = job.launch(&rig, &jsa);
    CampaignResult { checksum, summary, fs: rig.fs, ctl }
}

/// Asserts the crash-consistency invariants common to every campaign.
fn assert_crash_consistent(r: &CampaignResult, what: &str, seed: u64) {
    assert!(
        r.summary.completed,
        "{what}: job did not complete: {:?}\nreproduce with: {}",
        r.summary,
        repro_cmd(seed)
    );
    assert_eq!(
        r.checksum,
        FAULTS.reference(NITER),
        "{what}: recovered state diverged from the uninterrupted run\nreproduce with: {}",
        repro_cmd(seed)
    );
    // No incarnation ever restarted from a staging prefix.
    for inc in &r.summary.incarnations {
        if let Some(from) = &inc.restart_from {
            assert!(
                !from.contains(".tmp"),
                "{what}: incarnation restarted from staging prefix {from:?}\nreproduce with: {}",
                repro_cmd(seed)
            );
        }
    }
    // Staged incarnations are invisible to checkpoint discovery.
    for (prefix, _) in find_checkpoints(&r.fs, Some(APP)) {
        assert!(
            !prefix.contains(".tmp"),
            "{what}: staged prefix {prefix:?} discoverable as a checkpoint\nreproduce with: {}",
            repro_cmd(seed)
        );
    }
    // Whatever staging the crash stranded is orphan-sweepable; after the
    // sweep, no `.tmp` debris remains anywhere on the file system.
    sweep_orphans(&r.fs);
    for info in r.fs.list("") {
        assert!(
            !info.path.contains(".tmp"),
            "{what}: staging debris {:?} survived sweep_orphans\nreproduce with: {}",
            info.path,
            repro_cmd(seed)
        );
    }
}

/// The tentpole sweep: every enumerated crash point, exhaustively. The
/// checkpoint-side points fire inside the first checkpoint (occurrence 1);
/// the restart-side points need an organic restart first, so those runs
/// also kill one processor mid-run.
#[test]
fn every_crash_point_recovers_bitwise() {
    for &point in CrashPoint::ALL.iter() {
        // The `Flush*` family fires only inside the asynchronous pipeline's
        // background flush — a blocking checkpoint never consults those
        // points, so arming one here would never fire. They get their own
        // exhaustive sweep in `tests/async_campaign.rs`.
        // The `Recover*` family likewise fires only inside a localized
        // recovery; it gets its own sweep in `tests/recover_campaign.rs`.
        if point.is_flush_side() || point.is_recover_side() {
            continue;
        }
        if seed_filter().is_some_and(|only| only != SWEEP_SEED) {
            continue;
        }
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(SWEEP_SEED) };
        let restart_side = matches!(
            point,
            CrashPoint::RestartAfterInit
                | CrashPoint::RestartAfterSegment
                | CrashPoint::RestartAfterArrays
        );
        let fail_at = restart_side.then(|| Fault::kill(4, 2));
        let r = run_campaign(plan, fail_at);
        let what = format!("crash point {point}");
        assert!(
            r.ctl.crash_fired(),
            "{what}: armed crash never fired (instrumentation gap)\nreproduce with: {}",
            repro_cmd(SWEEP_SEED)
        );
        // The crash killed at least one incarnation; recovery reincarnated.
        assert!(
            r.summary.incarnations.len() >= 2,
            "{what}: expected at least one reincarnation: {:?}\nreproduce with: {}",
            r.summary,
            repro_cmd(SWEEP_SEED)
        );
        assert_crash_consistent(&r, &what, SWEEP_SEED);
    }
}

/// Transient weather: file-system server errors, all retried under the
/// backoff policy. The job completes
/// in one incarnation, bitwise-exact, and actually exercised the retry
/// paths. Deterministic per seed: the same plan replays the same faults.
#[test]
fn transient_weather_retries_to_exact_completion() {
    for &seed in WEATHER_SEEDS {
        if seed_filter().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan {
            piofs: PiofsFaults { transient_prob: 0.25, torn: None },
            ..FaultPlan::seeded(seed)
        };
        let r = run_campaign(plan.clone(), None);
        eprintln!("weather seed {seed}: retries={} giveups={}", r.ctl.retries(), r.ctl.giveups());
        assert_crash_consistent(&r, &format!("weather seed {seed}"), seed);
        assert!(
            r.ctl.retries() > 0,
            "weather seed {seed}: no retries recorded — faults never injected\nreproduce with: {}",
            repro_cmd(seed)
        );
        // Determinism: replaying the identical plan reproduces the run
        // shape exactly (this is what makes the repro line trustworthy).
        let again = run_campaign(plan, None);
        assert_eq!(again.checksum, r.checksum);
        assert_eq!(again.summary, r.summary);
        assert_eq!(again.ctl.retries(), r.ctl.retries());
    }
}

/// The torn-write hazard the two-phase commit closes: a staged segment
/// write is torn AND the region crashes before the manifest is staged. The
/// torn bytes die in `.tmp` — never published, never a restart source —
/// and the re-taken checkpoint commits clean.
#[test]
fn torn_staged_write_dies_in_staging() {
    let seed = SWEEP_SEED ^ 0xF00D;
    if seed_filter().is_some_and(|only| only != seed) {
        return;
    }
    let plan = FaultPlan {
        piofs: PiofsFaults {
            transient_prob: 0.0,
            // The first staged segment write persists only half its bytes…
            torn: Some(TornWrite {
                path_contains: ".tmp/segment".to_string(),
                occurrence: 1,
                keep_fraction: 0.5,
            }),
        },
        // …and the region dies right after, still inside staging.
        crash: Some((CrashPoint::CkptAfterSegment, 1)),
        ..FaultPlan::seeded(seed)
    };
    let r = run_campaign(plan, None);
    assert_crash_consistent(&r, "torn staged write", seed);
    // The torn write actually happened (the hazard was real, not vacuous).
    assert!(
        r.ctl.crash_fired(),
        "torn scenario: crash never fired\nreproduce with: {}",
        repro_cmd(seed)
    );
}

/// A committed checkpoint's manifest cannot be clobbered by a stray rename:
/// the no-overwrite guard in `Piofs::rename` means the only way to replace
/// a commit marker is the deliberate uncommit-then-publish sequence of the
/// two-phase protocol.
#[test]
fn committed_manifests_survive_stray_renames() {
    let r = run_campaign(FaultPlan::seeded(SWEEP_SEED), None);
    assert!(r.summary.completed);
    let cks = find_checkpoints(&r.fs, Some(APP));
    assert!(!cks.is_empty());
    let (prefix, before) = &cks[0];
    // A stray staged file trying to land on the committed manifest bounces.
    let stray = format!("{prefix}/stray");
    r.fs.preload(&stray, vec![0xAB; 16]);
    assert!(!r.fs.rename(&stray, &format!("{prefix}/manifest")));
    let after = find_checkpoints(&r.fs, Some(APP));
    assert_eq!(after[0].1, *before, "committed manifest changed under a refused rename");
}
