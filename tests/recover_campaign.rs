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
//! * the final state is **bitwise equal** to an uninterrupted run;
//! * a crashed recovery's staging (`.recover-eN.tmp`) is orphan-sweepable,
//!   while a committed recovery journal survives the sweep;
//! * the whole dance is deterministic per seed: same plan, same run.

use std::sync::Arc;

use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan};
use drms::core::{find_checkpoints, sweep_orphans};
use drms::piofs::Piofs;
use drms::rtenv::{JsaPolicy, RunSummary};
use drms_bench::campaign::{Campaign, LossDrill, Rig, FAULTS};

const NITER: i64 = 10;
const APP: &str = "recovcamp";
/// The iteration whose top-of-loop suffers the section loss.
const RECOVER_AT: i64 = 5;
/// The node (== rank under identity placement) whose sections are lost.
const VICTIM: usize = 2;

/// Base seed of the sweep; every campaign seed is pinned so a failing
/// assertion names its seed and reproduces with one command.
const SWEEP_SEED: u64 = 0x5EC0;

fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("recover_campaign", seed)
}

fn seed_filter() -> Option<u64> {
    drms_bench::seed::fault_seed_env()
}

struct CampaignResult {
    checksum: f64,
    summary: RunSummary,
    fs: Arc<Piofs>,
    ctl: Arc<ChaosCtl>,
}

/// Runs the campaign job with the loss drill under `policy` and a fault
/// plan. Each run attempts exactly one localized recovery at `RECOVER_AT`:
/// survivors recover in place from their retained bytes plus section reads
/// of the newest checkpoint, then the whole region rolls back to the SOP.
/// If a crash point kills the region inside the protocol, the retried
/// incarnation does **not** re-attempt it (the JSA's full restart is the
/// escalation) — which is precisely the ladder the sweep asserts.
fn run_drill(plan: FaultPlan, policy: JsaPolicy) -> CampaignResult {
    let rig = Rig::new(APP, plan.seed, None);
    let ctl = ChaosCtl::new(plan);
    let jsa = rig.jsa(policy).with_chaos(Arc::clone(&ctl));
    let drill = LossDrill { at: RECOVER_AT, victim: VICTIM, replicas: None };
    let (checksum, summary, _) =
        Campaign::new(APP, "ck/rec", NITER).launch_drill(&rig, &jsa, drill);
    CampaignResult { checksum, summary, fs: rig.fs, ctl }
}

fn run_campaign(plan: FaultPlan) -> CampaignResult {
    run_drill(plan, JsaPolicy { localized_recovery: true, ..Default::default() })
}

/// Crash-consistency invariants shared by every campaign run.
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
        "{what}: final state diverged from the uninterrupted run\nreproduce with: {}",
        repro_cmd(seed)
    );
    for inc in &r.summary.incarnations {
        if let Some(from) = &inc.restart_from {
            assert!(
                !from.contains(".tmp"),
                "{what}: incarnation restarted from staging prefix {from:?}\nreproduce with: {}",
                repro_cmd(seed)
            );
        }
    }
    for (prefix, _) in find_checkpoints(&r.fs, Some(APP)) {
        assert!(
            !prefix.contains(".tmp"),
            "{what}: staged prefix {prefix:?} discoverable as a checkpoint\nreproduce with: {}",
            repro_cmd(seed)
        );
    }
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

/// The control run: no faults, one localized recovery. The job completes in
/// a single incarnation, the recovery journal commits, and the final state
/// matches the uninterrupted reference bitwise.
#[test]
fn localized_recovery_completes_in_one_incarnation() {
    if seed_filter().is_some_and(|only| only != SWEEP_SEED) {
        return;
    }
    let r = run_campaign(FaultPlan::seeded(SWEEP_SEED));
    assert_crash_consistent(&r, "control", SWEEP_SEED);
    assert_eq!(
        r.summary.incarnations.len(),
        1,
        "control: a localized recovery must not cost an incarnation\nreproduce with: {}",
        repro_cmd(SWEEP_SEED)
    );
    assert!(
        r.fs.exists("ck/rec/3.recover-e1/journal"),
        "control: recovery journal did not commit\nreproduce with: {}",
        repro_cmd(SWEEP_SEED)
    );
}

/// The tentpole sweep: every `Recover*` crash point — a second failure at
/// each stage of the in-flight recovery — escalates to a verified full
/// restart and still finishes bitwise-exact.
#[test]
fn second_failure_during_recovery_escalates_bitwise() {
    for &point in CrashPoint::ALL.iter() {
        if !point.is_recover_side() {
            continue;
        }
        if seed_filter().is_some_and(|only| only != SWEEP_SEED) {
            continue;
        }
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(SWEEP_SEED) };
        let r = run_campaign(plan);
        let what = format!("recover crash point {point}");
        assert!(
            r.ctl.crash_fired(),
            "{what}: armed crash never fired (instrumentation gap)\nreproduce with: {}",
            repro_cmd(SWEEP_SEED)
        );
        assert!(
            r.summary.incarnations.len() >= 2,
            "{what}: expected escalation to a full restart: {:?}\nreproduce with: {}",
            r.summary,
            repro_cmd(SWEEP_SEED)
        );
        // The escalation restarted from a committed checkpoint, not from
        // the interrupted recovery's staging.
        let last = r.summary.incarnations.last().unwrap();
        assert!(
            last.restart_from.as_deref().is_some_and(|f| f.starts_with("ck/rec/")),
            "{what}: escalated incarnation restarted from {:?}\nreproduce with: {}",
            last.restart_from,
            repro_cmd(SWEEP_SEED)
        );
        assert_crash_consistent(&r, &what, SWEEP_SEED);
    }
}

/// Determinism of the escalation: replaying the identical plan reproduces
/// the identical run — same incarnations, same checksum, bit for bit.
#[test]
fn escalation_is_deterministic_per_seed() {
    let seed = SWEEP_SEED ^ 0xD1CE;
    if seed_filter().is_some_and(|only| only != seed) {
        return;
    }
    let plan =
        FaultPlan { crash: Some((CrashPoint::RecoverRestored, 1)), ..FaultPlan::seeded(seed) };
    let one = run_campaign(plan.clone());
    let two = run_campaign(plan);
    assert_crash_consistent(&one, "determinism", seed);
    assert_eq!(one.checksum.to_bits(), two.checksum.to_bits());
    assert_eq!(one.summary, two.summary);
}

/// A JSA policy without `localized_recovery` never enters the protocol:
/// the job runs recovery-free end to end and commits no recovery journal
/// (the drill is gated on `env.localized`, exactly how a real harness would
/// consult its policy).
#[test]
fn policy_gates_localized_recovery() {
    let seed = SWEEP_SEED ^ 0x0FF;
    if seed_filter().is_some_and(|only| only != seed) {
        return;
    }
    let r = run_drill(FaultPlan::seeded(seed), JsaPolicy::default());
    assert_crash_consistent(&r, "default policy", seed);
    assert_eq!(r.summary.incarnations.len(), 1);
    assert!(
        !r.fs.exists("ck/rec/3.recover-e1/journal"),
        "default policy must not permit localized recovery"
    );
}
