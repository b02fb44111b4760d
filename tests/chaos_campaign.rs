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
//! Two scenario campaigns ride along: transient message/IO weather (every
//! layer retries under the backoff policy and the run still completes
//! bitwise-exact), and a torn staged write paired with a crash (the torn
//! bytes die in staging and are never published — the hazard the two-phase
//! commit exists to close).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan, MsgFaults, PiofsFaults, TornWrite};
use drms::core::segment::DataSegment;
use drms::core::{find_checkpoints, sweep_orphans, Drms, DrmsConfig};
use drms::darray::{DistArray, Distribution};
use drms::msg::CostModel;
use drms::piofs::{Piofs, PiofsConfig};
use drms::rtenv::{
    EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ProcessorState, ResourceCoordinator, RunSummary,
};
use drms::slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 10;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;
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

fn domain() -> Slice {
    Slice::boxed(&[(1, 18), (1, 14)])
}

/// Everything a campaign assertion wants to inspect after the run.
struct CampaignResult {
    checksum: f64,
    summary: RunSummary,
    fs: Arc<Piofs>,
    ctl: Arc<ChaosCtl>,
}

/// Runs the iterative job under a fault plan, optionally killing one
/// processor at an iteration (to force an organic restart, so the
/// restart-side crash points have a restart to fire inside).
fn run_campaign(plan: FaultPlan, fail_at: Option<(i64, usize)>) -> CampaignResult {
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
        JsaPolicy { repair_when_starved: true, ..Default::default() },
    )
    .with_chaos(Arc::clone(&ctl));

    let injected = Arc::new(AtomicUsize::new(0));
    let out = Arc::new(Mutex::new(Vec::new()));
    let rc2 = Arc::clone(&rc);
    let injected2 = Arc::clone(&injected);
    let out2 = Arc::clone(&out);

    let job = JobSpec::new(APP, (1, NPROCS), move |ctx, env| {
        // An injected crash surfaces as `CoreError::Interrupted` from
        // whichever collective the region died inside; the job reports
        // itself killed and the JSA reincarnates it from the newest
        // *committed* checkpoint.
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new(APP), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        match restart {
            None => u.fill_assigned(|p| (p[0] * 13 + p[1] * 3) as f64),
            Some(info) => {
                seg = info.segment;
                start_iter = seg.control("iter").unwrap() + 1;
            }
        }
        for iter in start_iter..=NITER {
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 1.5).unwrap();
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                let prefix = format!("ck/chaos/{iter}");
                if let Err(e) = drms.reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u]) {
                    return JobOutcome::from_err(e);
                }
            }
            // Optional processor failure, once: forces an organic restart
            // so the restart-side crash points get their window.
            if ctx.rank() == 0 {
                if let Some((at, victim)) = fail_at {
                    if iter >= at
                        && injected2.swap(1, Ordering::SeqCst) == 0
                        && rc2.state_of(victim) != ProcessorState::Failed
                    {
                        rc2.fail_processor(victim);
                    }
                }
            }
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

/// The ground-truth checksum of an uninterrupted run.
fn reference() -> f64 {
    let mut s = 0.0;
    domain().points(Order::ColumnMajor).for_each(|p| {
        s += (p[0] * 13 + p[1] * 3) as f64 + NITER as f64 * 1.5;
    });
    s
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
        reference(),
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
        let fail_at = restart_side.then_some((4i64, 2usize));
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

/// Transient weather: message drops/duplicates/latency plus file-system
/// server errors, all retried under the backoff policy. The job completes
/// in one incarnation, bitwise-exact, and actually exercised the retry
/// paths. Deterministic per seed: the same plan replays the same faults.
#[test]
fn transient_weather_retries_to_exact_completion() {
    for &seed in WEATHER_SEEDS {
        if seed_filter().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan {
            msg: MsgFaults { drop_prob: 0.25, dup_prob: 0.1, max_extra_latency: 1e-4 },
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
