//! Interleaving-exhaustive campaign over the asynchronous checkpoint
//! pipeline: every crash point the pipeline consults — the foreground
//! `CkptEnter`/`FlushArmed` pair plus the whole background `Flush*` family
//! — is armed at every occurrence the schedule produces (first through
//! third flush), and for each (stage × occurrence) pair the invariants
//! hold:
//!
//! * the armed crash actually fires (the sweep is never vacuous);
//! * the JSA reincarnates the job and drives it to completion;
//! * the final state is **bitwise equal** to an uninterrupted run — the
//!   job never restores from an uncommitted snapshot;
//! * no incarnation restarts from a staging (`.tmp`) prefix and no staged
//!   attempt is discoverable as a checkpoint;
//! * `sweep_orphans` reclaims whatever staging the crash stranded.
//!
//! Scenario campaigns ride along: the same sweep through the in-memory
//! replica tier, a delta-chain flush cut at every stage of its second
//! link, transient weather replayed twice for determinism, and a
//! restore-through-`Drms::initialize` bitwise check of an async commit.

use std::sync::Arc;

use drms::async_ckpt::{AsyncCheckpointer, AsyncConfig};
use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan, PiofsFaults};
use drms::core::segment::DataSegment;
use drms::core::{find_checkpoints, verify, Drms, DrmsConfig, EnableFlag, Start};
use drms::darray::{DistArray, Distribution};
use drms::memtier::MemTier;
use drms::msg::{run_spmd, CostModel};
use drms::piofs::{Piofs, PiofsConfig};
use drms::rtenv::JobOutcome;
use drms::slices::Order;
use drms_bench::campaign::{policy, Campaign, CkptMode, Launched, Rig, BANDED, FAULTS};
use drms_bench::seed::fault_seed_env;

const NITER: i64 = 10;
const APP: &str = "asynccamp";

/// Base seed of the sweep; pinned so a failure names its repro.
const SWEEP_SEED: u64 = 0xA51C;

/// Seeds of the transient-weather determinism scenario.
const WEATHER_SEEDS: &[u64] = &[41, 42];

/// Every crash point the asynchronous pipeline consults, in consultation
/// order: the two foreground points, then the flush stages in the order
/// the background flusher reaches them.
const PIPELINE_POINTS: &[CrashPoint] = &[
    CrashPoint::CkptEnter,
    CrashPoint::FlushArmed,
    CrashPoint::FlushAfterSegment,
    CrashPoint::FlushAfterArray,
    CrashPoint::FlushStagedManifest,
    CrashPoint::FlushMidPublish,
    CrashPoint::FlushCommitted,
];

fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("async_campaign", seed)
}

/// The campaign job with asynchronous checkpoints: snapshot budget 2, a
/// flush in flight across compute iterations, drain before completion.
fn overlapped() -> Campaign {
    Campaign { mode: CkptMode::Overlapped { budget: 2 }, ..Campaign::new(APP, "ck/async", NITER) }
}

/// Runs `job` under the JSA with `plan`. `tiered` routes the flush
/// through an in-memory replica tier on its way to PIOFS; a sealed tier
/// entry is restartable before its PIOFS publish (the diskless-tier
/// model), and the job's resume honors the JSA's memory-tier restart
/// resolution. Returns the launch and the chaos controller.
fn run_campaign(job: &Campaign, plan: FaultPlan, tiered: bool) -> (Launched, Arc<ChaosCtl>) {
    let rig = Rig::new(job.app, plan.seed, None);
    let ctl = ChaosCtl::new(plan);
    let mut jsa = rig.jsa(policy()).with_chaos(Arc::clone(&ctl));
    if tiered {
        jsa = jsa.with_memtier(MemTier::new(1));
    }
    (job.launch(&rig, &jsa), ctl)
}

/// The tentpole sweep: every (pipeline stage × occurrence) pair. The job
/// takes three asynchronous checkpoints per incarnation, so occurrences 1
/// through 3 cut the first, second, and third flush at that stage —
/// exhausting every interleaving of crash point against the flusher
/// schedule the run produces.
#[test]
fn every_flush_stage_and_occurrence_recovers_bitwise() {
    for &point in PIPELINE_POINTS {
        for occurrence in 1..=3u32 {
            if fault_seed_env().is_some_and(|only| only != SWEEP_SEED) {
                continue;
            }
            let plan =
                FaultPlan { crash: Some((point, occurrence)), ..FaultPlan::seeded(SWEEP_SEED) };
            let (r, ctl) = run_campaign(&overlapped(), plan, false);
            let what = format!("flush stage {point} occurrence {occurrence}");
            assert!(
                ctl.crash_fired(),
                "{what}: armed crash never fired (instrumentation gap)\nreproduce with: {}",
                repro_cmd(SWEEP_SEED)
            );
            assert!(
                r.summary.incarnations.len() >= 2,
                "{what}: expected at least one reincarnation: {:?}\nreproduce with: {}",
                r.summary,
                repro_cmd(SWEEP_SEED)
            );
            r.assert_recovered(&overlapped(), &what, &repro_cmd(SWEEP_SEED));
        }
    }
}

/// The same pipeline points, with the flush routed through the in-memory
/// replica tier (replicate → seal → spill to staging → publish): the
/// tier-side interleavings recover identically.
#[test]
fn tiered_flush_crashes_recover_bitwise() {
    let seed = SWEEP_SEED ^ 0x7E12;
    for &point in PIPELINE_POINTS {
        if fault_seed_env().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(seed) };
        let (r, ctl) = run_campaign(&overlapped(), plan, true);
        let what = format!("tiered flush stage {point}");
        assert!(
            ctl.crash_fired(),
            "{what}: armed crash never fired\nreproduce with: {}",
            repro_cmd(seed)
        );
        r.assert_recovered(&overlapped(), &what, &repro_cmd(seed));
    }
}

/// Transient weather under the asynchronous pipeline: retries happen (in
/// the foreground and inside detached flushes), the run completes bitwise
/// exact, and replaying the identical plan reproduces the run — the
/// seeded-interleaving determinism the pipeline promises.
#[test]
fn async_weather_is_deterministic_per_seed() {
    for &seed in WEATHER_SEEDS {
        if fault_seed_env().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan {
            piofs: PiofsFaults { transient_prob: 0.2, torn: None },
            ..FaultPlan::seeded(seed)
        };
        let (r, ctl) = run_campaign(&overlapped(), plan.clone(), false);
        r.assert_recovered(&overlapped(), &format!("weather seed {seed}"), &repro_cmd(seed));
        assert!(
            ctl.retries() > 0,
            "weather seed {seed}: no retries recorded\nreproduce with: {}",
            repro_cmd(seed)
        );
        let (again, again_ctl) = run_campaign(&overlapped(), plan, false);
        assert_eq!(again.checksum, r.checksum);
        assert_eq!(again.summary, r.summary);
        assert_eq!(again_ctl.retries(), ctl.retries());
    }
}

/// Every flush stage, cut during the **second** delta link of the job on
/// the banded field: the half-flushed link is never a restart source, the
/// JSA restarts the chain from the newest committed link, and the
/// recomputed state is bitwise exact.
#[test]
fn delta_flush_stages_cut_mid_chain_recover_bitwise() {
    let seed = SWEEP_SEED ^ 0xDE17;
    let job = Campaign {
        mode: CkptMode::OverlappedDelta { budget: 2 },
        shape: BANDED,
        ..Campaign::new("adelta", "ck/ad", 9)
    };
    let verify_links = |fs: &Piofs, what: &str| {
        for (prefix, _) in find_checkpoints(fs, Some(job.app)) {
            assert!(verify(fs, &prefix).is_valid(), "{what}: {prefix:?} invalid");
        }
    };
    for &point in &PIPELINE_POINTS[1..] {
        if fault_seed_env().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan { crash: Some((point, 2)), ..FaultPlan::seeded(seed) };
        let (r, ctl) = run_campaign(&job, plan, false);
        let what = format!("delta flush stage {point}");
        let repro = repro_cmd(seed);
        assert!(ctl.crash_fired(), "{what}: armed crash never fired\nreproduce with: {repro}");
        assert_eq!(r.summary.incarnations[0].outcome, JobOutcome::Killed, "{what}");
        let expect = if point == CrashPoint::FlushCommitted { "ck/ad/6" } else { "ck/ad/3" };
        let from = r.summary.incarnations[1].restart_from.as_deref();
        assert_eq!(from, Some(expect), "{what}: wrong fallback\nreproduce with: {repro}");
        verify_links(&r.fs, &what);
        r.assert_recovered(&job, &what, &repro);
        verify_links(&r.fs, &format!("{what}, after the sweep"));

        // A relaunch on the swept file system restarts from the newest link.
        let rig = Rig::on(job.app, r.fs, None);
        let again = job.launch(&rig, &rig.jsa(policy()));
        let from = again.summary.incarnations[0].restart_from.as_deref();
        assert_eq!(from, Some("ck/ad/9"), "{what}");
        let reference = BANDED.reference(job.niter);
        assert_eq!(again.checksum, reference, "{what}: relaunch diverged\nreproduce with: {repro}");
    }
}

/// An asynchronous commit restores bitwise through unmodified
/// `Drms::initialize`: the committed layout is indistinguishable from a
/// blocking checkpoint of the same state.
#[test]
fn async_commit_restores_bitwise_through_initialize() {
    let f = Piofs::new(PiofsConfig::test_tiny(8), 5);
    let cfg = DrmsConfig::new(APP);
    Drms::install_binary(&f, &cfg);
    let f2 = Arc::clone(&f);
    let sums = run_spmd(4, CostModel::default(), move |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &f2, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&FAULTS.domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(|p| (p[0] * 5 + p[1]) as f64);
        let mut seg = DataSegment::new();
        seg.set_control("iter", 6);
        let mut ck = AsyncCheckpointer::new(AsyncConfig { budget: 1 });
        ck.checkpoint(ctx, &f2, &mut drms, "ck/bitwise", &seg, &[&u], None).unwrap();
        ck.drain(ctx);
        u.fold_assigned(0.0, |acc, _, v| acc + v)
    })
    .unwrap();
    let written: f64 = sums.iter().sum();

    // A brand-new region (different task count) restores the commit; each
    // task reports the `iter` it found (none on a fresh start).
    let f3 = Arc::clone(&f);
    let restored = run_spmd(3, CostModel::default(), move |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, &f3, DrmsConfig::new(APP), EnableFlag::new(), Some("ck/bitwise"))
                .unwrap();
        let Start::Restarted(info) = start else { return (None, 0.0) };
        let dist = Distribution::block_auto(&FAULTS.domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        drms.restore_arrays(ctx, &f3, "ck/bitwise", &info.manifest, &mut [&mut u]).unwrap();
        (info.segment.control("iter"), u.fold_assigned(0.0, |acc, _, v| acc + v))
    })
    .unwrap();
    assert!(restored.iter().all(|&(iter, _)| iter == Some(6)), "{restored:?}");
    let restored: f64 = restored.iter().map(|&(_, sum)| sum).sum();
    assert_eq!(written, restored, "async commit did not restore bitwise");
}
