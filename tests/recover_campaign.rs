//! Localized-recovery campaign: the survivor-driven restore path under fire.
//!
//! The drill: an iterative job checkpoints on a cadence and retains its
//! sections at each commit. Mid-run it loses a node's worth of sections and
//! performs a **localized recovery** — survivors keep their retained bytes,
//! only the lost sections stream back from the newest checkpoint, and the
//! whole region resumes from the SOP. The campaign then sweeps **every**
//! `Recover*` crash point — a second failure striking inside the recovery
//! protocol itself — and asserts the escalation contract:
//!
//! * the interrupted recovery surfaces as a kill, never a wrong answer;
//! * the JSA escalates to a verified full restart from the newest committed
//!   checkpoint and drives the job to completion anyway;
//! * the final state is **bitwise equal** to an uninterrupted run, and the
//!   flight recorder's attribution tiles the stitched wall clock;
//! * a crashed recovery's staging (`.recover-eN.tmp`) is orphan-sweepable,
//!   while a committed recovery journal survives the sweep;
//! * the whole dance is deterministic per seed: same plan, same run.
//!
//! The job, its run and the soundness contract are the `recover` gate
//! row's durable localized campaign ([`drms_bench::recover`],
//! [`Mode::Piofs`]); this file runs them at its own seeds.

use drms::chaos::{CrashPoint, FaultPlan};
use drms::rtenv::JsaPolicy;
use drms_bench::campaign::Rig;
use drms_bench::recover::{assert_sound, job, run_campaign, Mode};
use drms_bench::seed::fault_seed_env;

/// The journal of the one localized recovery: epoch 1, from the
/// checkpoint of iteration 3.
const JOURNAL: &str = "ck/rb/3.recover-e1/journal";

/// Base seed of the sweep; every campaign seed is pinned so a failing
/// assertion names its seed and reproduces with one command.
const SWEEP_SEED: u64 = 0x5EC0;

fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("recover_campaign", seed)
}

/// The control run: no faults, one localized recovery. The job completes in
/// a single incarnation, the recovery journal commits, and the final state
/// matches the uninterrupted reference bitwise.
#[test]
fn localized_recovery_completes_in_one_incarnation() {
    if fault_seed_env().is_some_and(|only| only != SWEEP_SEED) {
        return;
    }
    let r = run_campaign(FaultPlan::seeded(SWEEP_SEED), Mode::Piofs);
    assert_sound(&r, "control", &repro_cmd(SWEEP_SEED));
    assert_eq!(
        r.out.summary.incarnations.len(),
        1,
        "control: a localized recovery must not cost an incarnation\nreproduce with: {}",
        repro_cmd(SWEEP_SEED)
    );
    assert!(
        r.out.fs.exists(JOURNAL),
        "control: recovery journal did not commit\nreproduce with: {}",
        repro_cmd(SWEEP_SEED)
    );
}

/// The tentpole sweep: every `Recover*` crash point — a second failure at
/// each stage of the in-flight recovery — escalates to a verified full
/// restart and still finishes bitwise-exact.
#[test]
fn second_failure_during_recovery_escalates_bitwise() {
    if fault_seed_env().is_some_and(|only| only != SWEEP_SEED) {
        return;
    }
    for point in CrashPoint::ALL.into_iter().filter(|p| p.is_recover_side()) {
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(SWEEP_SEED) };
        let r = run_campaign(plan, Mode::Piofs);
        let what = format!("recover crash point {point}");
        assert!(
            r.ctl.crash_fired(),
            "{what}: armed crash never fired (instrumentation gap)\nreproduce with: {}",
            repro_cmd(SWEEP_SEED)
        );
        assert!(
            r.out.summary.incarnations.len() >= 2,
            "{what}: expected escalation to a full restart: {:?}\nreproduce with: {}",
            r.out.summary,
            repro_cmd(SWEEP_SEED)
        );
        // The escalation restarted from a committed checkpoint, not from
        // the interrupted recovery's staging.
        let last = r.out.summary.incarnations.last().unwrap();
        assert!(
            last.restart_from.as_deref().is_some_and(|f| f.starts_with("ck/rb/")),
            "{what}: escalated incarnation restarted from {:?}\nreproduce with: {}",
            last.restart_from,
            repro_cmd(SWEEP_SEED)
        );
        assert_sound(&r, &what, &repro_cmd(SWEEP_SEED));
    }
}

/// Determinism of the escalation: replaying the identical plan reproduces
/// the identical run — same incarnations, same checksum, bit for bit.
#[test]
fn escalation_is_deterministic_per_seed() {
    let seed = SWEEP_SEED ^ 0xD1CE;
    if fault_seed_env().is_some_and(|only| only != seed) {
        return;
    }
    let plan =
        FaultPlan { crash: Some((CrashPoint::RecoverRestored, 1)), ..FaultPlan::seeded(seed) };
    let one = run_campaign(plan.clone(), Mode::Piofs);
    let two = run_campaign(plan, Mode::Piofs);
    assert_sound(&one, "determinism", &repro_cmd(seed));
    assert_eq!(one.out.checksum.to_bits(), two.out.checksum.to_bits());
    assert_eq!(one.out.summary, two.out.summary);
}

/// A JSA policy without `localized_recovery` never enters the protocol:
/// the job runs recovery-free end to end and commits no recovery journal
/// (the drill is gated on `env.localized`, exactly how a real harness would
/// consult its policy).
#[test]
fn policy_gates_localized_recovery() {
    let seed = SWEEP_SEED ^ 0x0FF;
    if fault_seed_env().is_some_and(|only| only != seed) {
        return;
    }
    let job = job(Mode::Piofs);
    let rig = Rig::new(job.app, seed, None);
    let r = job.launch(&rig, &rig.jsa(JsaPolicy::default()));
    r.assert_recovered(&job, "default policy", &repro_cmd(seed));
    assert_eq!(r.summary.incarnations.len(), 1);
    assert!(!r.fs.exists(JOURNAL), "default policy must not permit localized recovery");
}
