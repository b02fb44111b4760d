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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan};
use drms::core::segment::DataSegment;
use drms::core::{find_checkpoints, sweep_orphans, Drms, DrmsConfig};
use drms::darray::{DistArray, Distribution};
use drms::msg::CostModel;
use drms::piofs::{Piofs, PiofsConfig};
use drms::recover::{recover, retain, Membership, RecoverError};
use drms::rtenv::{EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ResourceCoordinator, RunSummary};
use drms::slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 10;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;
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

fn domain() -> Slice {
    Slice::boxed(&[(1, 18), (1, 14)])
}

struct CampaignResult {
    checksum: f64,
    summary: RunSummary,
    fs: Arc<Piofs>,
    ctl: Arc<ChaosCtl>,
}

/// Runs the iterative job under a fault plan. Each run attempts exactly one
/// localized recovery at `RECOVER_AT`; if a crash point kills the region
/// inside the protocol, the retried incarnation does **not** re-attempt it
/// (the JSA's full restart is the escalation) — which is precisely the
/// ladder the sweep asserts.
fn run_campaign(plan: FaultPlan) -> CampaignResult {
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), plan.seed);
    let cfg = DrmsConfig::new(APP);
    Drms::install_binary(&fs, &cfg);
    let ctl = ChaosCtl::new(plan);
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log,
        CostModel::default(),
        JsaPolicy { localized_recovery: true, ..Default::default() },
    )
    .with_chaos(Arc::clone(&ctl));

    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);

    let job = JobSpec::new(APP, (1, NPROCS), move |ctx, env| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new(APP), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        // The loss drill runs only in the job's first incarnation: an
        // escalated (restarted) incarnation is the full-restart fallback
        // and must run recovery-free. Every rank derives this from the
        // same restart state, so the collective branch is consistent.
        let mut may_recover = restart.is_none();
        match restart {
            None => u.fill_assigned(|p| (p[0] * 13 + p[1] * 3) as f64),
            Some(info) => {
                seg = info.segment;
                start_iter = seg.control("iter").unwrap() + 1;
            }
        }
        let mut membership = Membership::initial(ctx.ntasks());
        // Sections retained at the newest commit, plus its SOP iteration.
        let mut retained = None;
        let mut iter = start_iter;
        while iter <= NITER {
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }
            // The drill: at RECOVER_AT's top-of-loop, node VICTIM's
            // sections are lost. Survivors recover in place from their
            // retained bytes plus section reads of the newest checkpoint,
            // then the whole region rolls back to the SOP. One attempt per
            // run: a crash inside the protocol escalates to the JSA's
            // verified full restart instead of retrying localized.
            if env.localized && iter == RECOVER_AT && may_recover {
                may_recover = false;
                if let Some((ret, sop)) = retained.take() {
                    let got = recover(
                        ctx,
                        &env.fs,
                        None,
                        &ret,
                        &membership,
                        &[VICTIM],
                        &mut [&mut u],
                        ctx.ntasks(),
                    );
                    match got {
                        Ok((next, _report)) => {
                            membership = next;
                            seg.set_control("iter", sop);
                            iter = sop + 1;
                            continue;
                        }
                        Err(RecoverError::Escalate(why)) => {
                            return JobOutcome::Failed(format!("unexpected escalation: {why}"))
                        }
                        Err(e) => return JobOutcome::from_err(e),
                    }
                }
            }
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 1.5).unwrap();
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                let prefix = format!("ck/rec/{iter}");
                if let Err(e) = drms.reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u]) {
                    return JobOutcome::from_err(e);
                }
                retained = Some((retain(ctx, &prefix, iter as u64, &[&u]), iter));
            }
            iter += 1;
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        out2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
        JobOutcome::Completed
    });

    let summary = jsa.run_job(&job);
    let checksum: f64 = out.lock().iter().sum();
    CampaignResult { checksum, summary, fs, ctl }
}

/// The ground-truth checksum of an uninterrupted, recovery-free run.
fn reference() -> f64 {
    let mut s = 0.0;
    domain().points(Order::ColumnMajor).for_each(|p| {
        s += (p[0] * 13 + p[1] * 3) as f64 + NITER as f64 * 1.5;
    });
    s
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
        reference(),
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
/// the job runs recovery-free end to end (the drill is gated on
/// `env.localized`, exactly how a real harness would consult its policy).
#[test]
fn policy_gates_localized_recovery() {
    let seed = SWEEP_SEED ^ 0x0FF;
    if seed_filter().is_some_and(|only| only != seed) {
        return;
    }
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), seed);
    Drms::install_binary(&fs, &DrmsConfig::new(APP));
    let jsa =
        Jsa::new(Arc::clone(&rc), Arc::clone(&fs), log, CostModel::default(), JsaPolicy::default());
    let hit = Arc::new(AtomicUsize::new(0));
    let hit2 = Arc::clone(&hit);
    let job = JobSpec::new(APP, (1, NPROCS), move |ctx, env| {
        if env.localized {
            hit2.fetch_add(1, Ordering::SeqCst);
        }
        ctx.barrier();
        JobOutcome::Completed
    });
    let summary = jsa.run_job(&job);
    assert!(summary.completed);
    assert_eq!(hit.load(Ordering::SeqCst), 0, "default policy must not permit localized recovery");
}
