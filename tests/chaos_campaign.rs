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
use drms::core::find_checkpoints;
use drms_bench::campaign::{blocking_sweep, policy, Campaign, Fault, Launched, Rig};
use drms_bench::seed::fault_seed_env;

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

/// The campaign job, fault-free.
fn job() -> Campaign {
    Campaign::new(APP, "ck/chaos", NITER)
}

/// Runs the campaign job under a fault plan, optionally killing one
/// processor at an iteration (to force an organic restart, so the
/// restart-side crash points have a restart to fire inside). An injected
/// crash surfaces as `CoreError::Interrupted` from whichever collective
/// the region died inside; the job reports itself killed and the JSA
/// reincarnates it from the newest *committed* checkpoint. Returns the
/// launch and the chaos controller.
fn run_campaign(plan: FaultPlan, fail_at: Option<Fault>) -> (Launched, Arc<ChaosCtl>) {
    let rig = Rig::new(APP, plan.seed, None);
    let ctl = ChaosCtl::new(plan);
    let jsa = rig.jsa(policy()).with_chaos(Arc::clone(&ctl));
    let job = Campaign { faults: fail_at.into_iter().collect(), ..job() };
    (job.launch(&rig, &jsa), ctl)
}

/// The tentpole sweep: every enumerated crash point, exhaustively. The
/// checkpoint-side points fire inside the first checkpoint (occurrence 1);
/// the restart-side points need an organic restart first, so those runs
/// also kill one processor mid-run.
#[test]
fn every_crash_point_recovers_bitwise() {
    // `blocking_sweep` skips the `Flush*` and `Recover*` families, which
    // fire only inside an overlapped flush or a localized recovery.
    for (point, kill) in blocking_sweep() {
        if fault_seed_env().is_some_and(|only| only != SWEEP_SEED) {
            continue;
        }
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(SWEEP_SEED) };
        let (r, ctl) = run_campaign(plan, kill);
        let what = format!("crash point {point}");
        assert!(
            ctl.crash_fired(),
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
        r.assert_recovered(&job(), &what, &repro_cmd(SWEEP_SEED));
    }
}

/// Transient weather: file-system server errors, all retried under the
/// backoff policy. The job completes
/// in one incarnation, bitwise-exact, and actually exercised the retry
/// paths. Deterministic per seed: the same plan replays the same faults.
#[test]
fn transient_weather_retries_to_exact_completion() {
    for &seed in WEATHER_SEEDS {
        if fault_seed_env().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan {
            piofs: PiofsFaults { transient_prob: 0.25, torn: None },
            ..FaultPlan::seeded(seed)
        };
        let (r, ctl) = run_campaign(plan.clone(), None);
        eprintln!("weather seed {seed}: retries={} giveups={}", ctl.retries(), ctl.giveups());
        r.assert_recovered(&job(), &format!("weather seed {seed}"), &repro_cmd(seed));
        assert!(
            ctl.retries() > 0,
            "weather seed {seed}: no retries recorded — faults never injected\nreproduce with: {}",
            repro_cmd(seed)
        );
        // Determinism: replaying the identical plan reproduces the run
        // shape exactly (this is what makes the repro line trustworthy).
        let (again, again_ctl) = run_campaign(plan, None);
        assert_eq!(again.checksum, r.checksum);
        assert_eq!(again.summary, r.summary);
        assert_eq!(again_ctl.retries(), ctl.retries());
    }
}

/// The torn-write hazard the two-phase commit closes: a staged segment
/// write is torn AND the region crashes before the manifest is staged. The
/// torn bytes die in `.tmp` — never published, never a restart source —
/// and the re-taken checkpoint commits clean.
#[test]
fn torn_staged_write_dies_in_staging() {
    let seed = SWEEP_SEED ^ 0xF00D;
    if fault_seed_env().is_some_and(|only| only != seed) {
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
    let (r, ctl) = run_campaign(plan, None);
    r.assert_recovered(&job(), "torn staged write", &repro_cmd(seed));
    // The torn write actually happened (the hazard was real, not vacuous).
    assert!(
        ctl.crash_fired(),
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
    let (r, _) = run_campaign(FaultPlan::seeded(SWEEP_SEED), None);
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
