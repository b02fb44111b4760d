//! End-to-end scalable recovery: a DRMS application loses a processor
//! mid-run, the RC detects and kills it, and the JSA restarts it from its
//! latest checkpoint on the remaining processors — without waiting for the
//! failed processor to be repaired. The final answer must be bitwise
//! identical to an uninterrupted run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms_blackbox::{Blackbox, BlackboxConfig};
use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan};
use drms_core::manifest::CkptKind;
use drms_core::segment::DataSegment;
use drms_core::{Drms, DrmsConfig, EnableFlag};
use drms_darray::{DistArray, Distribution};
use drms_memtier::{store_checkpoint, MemTier, RestartTier};
use drms_msg::{run_spmd, run_spmd_traced, CostModel, Ctx, Spmd};
use drms_obs::{names, Phase, Recorder, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig};
use drms_rtenv::{
    Event, EventLog, IncarnationRecord, JobEnv, JobOutcome, JobSpec, Jsa, JsaPolicy, KillToken,
    ResourceCoordinator, RunSummary, Uic,
};
use drms_slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 12;
const CKPT_EVERY: i64 = 4;

fn domain() -> Slice {
    Slice::boxed(&[(1, 20), (1, 16)])
}

fn cfg() -> DrmsConfig {
    let mut c = DrmsConfig::new("solver");
    c.text_bytes = 2048;
    c
}

/// Builds the solver job. `fail_at`: (incarnation 0 only) inject a failure
/// of `fail_proc` at that iteration. Returns per-run final sums via `out`.
fn solver_job(
    rc: Arc<ResourceCoordinator>,
    fail_at: Option<(i64, usize)>,
    out: Arc<Mutex<Vec<f64>>>,
) -> JobSpec {
    JobSpec::new("solver", (1, 8), move |ctx, env| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, cfg(), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        match restart {
            None => u.fill_assigned(|p| (p[0] * 31 + p[1]) as f64),
            Some(info) => {
                seg = info.segment;
                start_iter = seg.control("iter").unwrap() + 1;
            }
        }

        for iter in start_iter..=NITER {
            // SOP: observe the kill token at the consistent point
            // (collective decision, so no task abandons a collective).
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }

            // One deterministic step.
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v * 1.0 + 2.0).unwrap();
            });
            seg.set_control("iter", iter);

            if iter % CKPT_EVERY == 0 {
                let prefix = format!("ck/solver/sop{iter}");
                drms.reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u]).unwrap();
            }

            // Failure injection (first incarnation only): rank 0 crashes a
            // processor in the pool right after this iteration.
            if let Some((at, proc)) = fail_at {
                if env.incarnation == 0 && iter == at && ctx.rank() == 0 {
                    rc.fail_processor(proc);
                }
            }
        }

        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        let sum = u.fold_assigned(0.0, |acc, _, v| acc + v);
        out.lock().push(sum);
        JobOutcome::Completed
    })
}

fn run_cluster(fail_at: Option<(i64, usize)>) -> (f64, Vec<Event>, RunStats) {
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(8, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 5);
    Drms::install_binary(&fs, &cfg());
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log.clone(),
        CostModel::default(),
        JsaPolicy::default(),
    );
    let out = Arc::new(Mutex::new(Vec::new()));
    let job = solver_job(Arc::clone(&rc), fail_at, Arc::clone(&out));
    let summary = jsa.run_job(&job);
    assert!(summary.completed, "job must complete: {summary:?}");
    let sums = out.lock();
    let total: f64 = sums.iter().sum();
    (
        total,
        log.snapshot(),
        RunStats {
            incarnations: summary.incarnations.len(),
            task_counts: summary.incarnations.iter().map(|i| i.ntasks).collect(),
            restart_prefixes: summary.incarnations.iter().map(|i| i.restart_from.clone()).collect(),
        },
    )
}

struct RunStats {
    incarnations: usize,
    task_counts: Vec<usize>,
    restart_prefixes: Vec<Option<String>>,
}

#[test]
fn recovery_from_processor_failure_is_exact_and_reconfigured() {
    // Reference: uninterrupted run on 8 processors.
    let (reference, _, ref_stats) = run_cluster(None);
    assert_eq!(ref_stats.incarnations, 1);
    assert_eq!(ref_stats.task_counts, vec![8]);

    // Faulty run: processor 3 dies at iteration 6 (after the SOP-4
    // checkpoint).
    let (recovered, events, stats) = run_cluster(Some((6, 3)));

    // Same answer, bit for bit.
    assert_eq!(recovered, reference);

    // Two incarnations: 8 tasks, then 7 (the failed processor is NOT
    // repaired before restart — scalable recovery).
    assert_eq!(stats.incarnations, 2);
    assert_eq!(stats.task_counts, vec![8, 7]);
    assert_eq!(stats.restart_prefixes[0], None);
    assert_eq!(stats.restart_prefixes[1].as_deref(), Some("ck/solver/sop4"));

    // Protocol events in order: failure -> lost connection -> app killed ->
    // user informed -> job restarted.
    let pos = |pred: &dyn Fn(&Event) -> bool| events.iter().position(pred).expect("event");
    let failed = pos(&|e| matches!(e, Event::ProcessorFailed { proc: 3 }));
    let lost = pos(&|e| matches!(e, Event::ConnectionLost { proc: 3 }));
    let killed = pos(&|e| matches!(e, Event::ApplicationKilled { .. }));
    let restarted = events
        .iter()
        .position(|e| matches!(e, Event::JobStarted { restart_from: Some(_), .. }))
        .unwrap();
    let completed = pos(&|e| matches!(e, Event::JobCompleted { .. }));
    assert!(failed < lost && lost < killed && killed < restarted && restarted < completed);
}

#[test]
fn multiple_cascading_failures() {
    // Two failures in successive incarnations; ends on 6 processors.
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(8, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 9);
    Drms::install_binary(&fs, &cfg());
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log.clone(),
        CostModel::default(),
        JsaPolicy::default(),
    );
    let out = Arc::new(Mutex::new(Vec::new()));

    // Fail a processor at iteration 6 of EVERY incarnation until two have
    // died.
    let failures = Arc::new(AtomicUsize::new(0));
    let rc2 = Arc::clone(&rc);
    let failures2 = Arc::clone(&failures);
    let out2 = Arc::clone(&out);
    let job = JobSpec::new("solver", (1, 8), move |ctx, env| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, cfg(), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        match restart {
            None => u.fill_assigned(|p| (p[0] + p[1]) as f64),
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
                u.set(p, v + 1.0).unwrap();
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                let prefix = format!("ck/solver/sop{iter}");
                drms.reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u]).unwrap();
            }
            if iter == 6 && ctx.rank() == 0 && failures2.load(Ordering::SeqCst) < 2 {
                let victim = failures2.fetch_add(1, Ordering::SeqCst);
                rc2.fail_processor(victim);
            }
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        out2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
        JobOutcome::Completed
    });

    let summary = jsa.run_job(&job);
    assert!(summary.completed);
    assert_eq!(summary.incarnations.len(), 3);
    let counts: Vec<usize> = summary.incarnations.iter().map(|i| i.ntasks).collect();
    assert_eq!(counts, vec![8, 7, 6]);

    // Ground truth: initial + NITER.
    let expect: f64 = {
        let mut s = 0.0;
        domain().points(Order::ColumnMajor).for_each(|p| {
            s += (p[0] + p[1]) as f64 + NITER as f64;
        });
        s
    };
    let total: f64 = out.lock().iter().sum();
    assert_eq!(total, expect);

    // UIC shows two failed processors awaiting repair.
    let uic = Uic::new(Arc::clone(&rc), fs, log);
    let failed_lines = uic.processor_status().iter().filter(|l| l.contains("FAILED")).count();
    assert_eq!(failed_lines, 2);
}

#[test]
fn job_queues_when_starved_and_runs_after_repair() {
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(2, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
    Drms::install_binary(&fs, &cfg());
    rc.fail_processor(0);
    rc.fail_processor(1);

    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log.clone(),
        CostModel::default(),
        JsaPolicy::default(),
    );
    let job = JobSpec::new("noop", (1, 2), |_, _| JobOutcome::Completed);
    let summary = jsa.run_job(&job);
    assert!(!summary.completed, "no processors -> job stays queued");

    // With auto-repair the scheduler fixes the pool and runs the job.
    let jsa = Jsa::new(
        Arc::clone(&rc),
        fs,
        log,
        CostModel::default(),
        JsaPolicy { repair_when_starved: true, ..Default::default() },
    );
    let summary = jsa.run_job(&job);
    assert!(summary.completed);
    assert_eq!(summary.incarnations[0].ntasks, 2);
}

/// One incarnation's environment, as the JSA would hand it to the body.
fn env_for(
    fs: &Arc<Piofs>,
    restart: Option<(&str, RestartTier)>,
    tier: Option<Arc<MemTier>>,
) -> JobEnv {
    JobEnv {
        fs: Arc::clone(fs),
        restart_from: restart.map(|(prefix, _)| prefix.to_string()),
        restart_kind: CkptKind::Drms,
        kill: KillToken::new(),
        enable: EnableFlag::new(),
        incarnation: usize::from(restart.is_some()),
        memtier: tier,
        restart_tier: restart.map_or(RestartTier::Piofs, |(_, tier)| tier),
        localized: false,
    }
}

fn field(ctx: &Ctx, fill: f64) -> DistArray<f64> {
    let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
    let mut u = DistArray::new("u", Order::ColumnMajor, dist, ctx.rank());
    u.fill_assigned(|_| fill);
    u
}

fn holds(u: &DistArray<f64>, v: f64) -> bool {
    u.fold_assigned(true, |ok, _, x| ok && x == v)
}

#[test]
fn resume_dispatches_on_what_the_jsa_resolved() {
    // No binary installed, so a restart's only PIOFS traffic is checkpoint
    // reads.
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 3);
    let tier = MemTier::new(1);

    // A fresh incarnation: no restart info, arrays untouched. It then
    // leaves one state in the tier and another on PIOFS.
    let env = env_for(&fs, None, Some(Arc::clone(&tier)));
    run_spmd(4, CostModel::default(), |ctx| {
        let mut u = field(ctx, 1.5);
        let (mut drms, restart) = env.resume(ctx, cfg(), &mut [&mut u]).unwrap();
        assert!(restart.is_none());
        assert!(holds(&u, 1.5), "a fresh start must not touch the arrays");
        let mut seg = DataSegment::new();
        seg.set_control("iter", 4);
        store_checkpoint(ctx, &tier, "ck/mem", &mut drms, &seg, &[&u]).unwrap();
        u.fill_assigned(|_| 2.5);
        drms.reconfig_checkpoint(ctx, &fs, "ck/disk", &seg, &[&u]).unwrap();
    })
    .unwrap();

    // `RestartTier::Memory`: served out of the tier, on another task count,
    // without one PIOFS request.
    let rec = Arc::new(TraceRecorder::new());
    let env = env_for(&fs, Some(("ck/mem", RestartTier::Memory)), Some(Arc::clone(&tier)));
    run_spmd_traced(3, CostModel::default(), rec.clone(), |ctx| {
        let mut u = field(ctx, 0.0);
        let (_, restart) = env.resume(ctx, cfg(), &mut [&mut u]).unwrap();
        assert_eq!(restart.unwrap().segment.control("iter"), Some(4));
        assert!(holds(&u, 1.5));
    })
    .unwrap();
    assert_eq!(rec.metrics().counter_total(names::IO_REQUESTS), 0);
    assert!(rec.metrics().counter_total(names::MEMTIER_RESTORE_BYTES) > 0);

    // `RestartTier::Piofs` reads the checkpoint files...
    let env = env_for(&fs, Some(("ck/disk", RestartTier::Piofs)), Some(tier));
    run_spmd(3, CostModel::default(), |ctx| {
        let mut u = field(ctx, 0.0);
        let (_, restart) = env.resume(ctx, cfg(), &mut [&mut u]).unwrap();
        assert_eq!(restart.unwrap().delta, -1);
        assert!(holds(&u, 2.5));
    })
    .unwrap();

    // ...and an injected crash on the way is the kill the JSA reincarnates.
    let plan =
        FaultPlan { crash: Some((CrashPoint::RestartAfterSegment, 1)), ..Default::default() };
    let outcomes = Spmd::new(3, CostModel::default())
        .chaos(ChaosCtl::new(plan))
        .run(|ctx| {
            let mut u = field(ctx, 0.0);
            env.resume(ctx, cfg(), &mut [&mut u]).err()
        })
        .unwrap();
    assert_eq!(outcomes, vec![Some(JobOutcome::Killed); 3]);
}

/// An incarnation record with only the fields the attribution reads set.
fn record(restart_from: Option<&str>, outcome: JobOutcome) -> IncarnationRecord {
    IncarnationRecord {
        ntasks: 1,
        procs: vec![0],
        restart_from: restart_from.map(str::to_string),
        fallback_depth: 0,
        tier: RestartTier::Piofs,
        outcome,
    }
}

/// `RunSummary::attribution` bills a killed incarnation's uncommitted
/// tail as lost and a restart's detection gap, restore window and
/// re-computation as recovery, at the flight recorder's detection latency;
/// a re-start that found no checkpoint is a fresh start.
#[test]
fn attribution_accounts_lost_and_detection() {
    let cfg = BlackboxConfig { capacity: 1024, detection_latency: 2.0 };
    let bb = Blackbox::new(cfg, 1);
    // Incarnation 0: commit at t=4, horizon t=10, killed → 6s lost.
    bb.begin_incarnation(0);
    bb.event(4.0, 0, Phase::Manifest, "commit:ck/a");
    bb.event(10.0, 0, Phase::Arrays, "work");
    for s in bb.seal_all(10.0, "salvage") {
        bb.ingest(&s.bytes).unwrap();
    }
    // Incarnation 1 (restarted): restore ends t=3, commit t=5, horizon
    // t=8, completed.
    bb.begin_incarnation(1);
    bb.span_end(3.0, 0, Phase::Arrays, "restore_arrays");
    bb.event(5.0, 0, Phase::Manifest, "commit:ck/a");
    bb.event(8.0, 0, Phase::Arrays, "work");
    for s in bb.seal_all(8.0, "final") {
        bb.ingest(&s.bytes).unwrap();
    }
    let summary = RunSummary {
        incarnations: vec![
            record(None, JobOutcome::Killed),
            record(Some("ck/a"), JobOutcome::Completed),
        ],
        completed: true,
    };
    let (tl, rep) = summary.attribution(&bb);
    // The detection latency is the flight recorder's.
    assert_eq!(tl.segments[1].detect, 2.0);
    // cost = lost(6) + detect(2) + restore(3) + recompute(2) = 13
    // wall = 10 + 2 + 8 = 20
    assert!((rep.recovery_fraction() - 13.0 / 20.0).abs() < 1e-12, "got {rep:?}");
    // A re-start that found no checkpoint is a fresh start: no restore
    // window, and its pre-commit work is useful, not re-computation.
    let fresh = RunSummary {
        incarnations: vec![record(None, JobOutcome::Killed), record(None, JobOutcome::Completed)],
        completed: true,
    };
    let (_, rep) = fresh.attribution(&bb);
    assert_eq!(rep.rows[1].restore, 0.0);
    assert_eq!(rep.rows[1].recompute, 0.0);
    assert!((rep.recovery_fraction() - 8.0 / 20.0).abs() < 1e-12, "got {rep:?}");
}
