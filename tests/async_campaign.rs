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
use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan, MsgFaults, PiofsFaults};
use drms::core::segment::DataSegment;
use drms::core::{find_checkpoints, sweep_orphans, verify, Drms, DrmsConfig, EnableFlag, Start};
use drms::darray::{DistArray, Distribution};
use drms::delta::{restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms::memtier::MemTier;
use drms::msg::{run_spmd, CostModel, Spmd};
use drms::piofs::{Piofs, PiofsConfig};
use drms::rtenv::RunSummary;
use drms::slices::{Order, Slice};
use drms_bench::campaign::{domain, policy, reference, Campaign, CkptMode, Rig, CKPT_EVERY};

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

fn seed_filter() -> Option<u64> {
    drms_bench::seed::fault_seed_env()
}

struct CampaignResult {
    checksum: f64,
    summary: RunSummary,
    fs: Arc<Piofs>,
    ctl: Arc<ChaosCtl>,
}

/// Runs the campaign job under the JSA with asynchronous checkpoints:
/// snapshot budget 2, a flush in flight across compute iterations, drain
/// before completion. `tiered` routes the flush through an in-memory
/// replica tier on its way to PIOFS; a sealed tier entry is restartable
/// before its PIOFS publish (the diskless-tier model), and the job's
/// resume honors the JSA's memory-tier restart resolution.
fn run_campaign(plan: FaultPlan, tiered: bool) -> CampaignResult {
    let rig = Rig::new(APP, plan.seed, None);
    let ctl = ChaosCtl::new(plan);
    let mut jsa = rig.jsa(policy()).with_chaos(Arc::clone(&ctl));
    if tiered {
        jsa = jsa.with_memtier(MemTier::new(1));
    }
    let job = Campaign {
        mode: CkptMode::Overlapped { budget: 2 },
        ..Campaign::new(APP, "ck/async", NITER)
    };
    let (checksum, summary) = job.launch(&rig, &jsa);
    CampaignResult { checksum, summary, fs: rig.fs, ctl }
}

fn assert_crash_consistent(r: &CampaignResult, what: &str, seed: u64) {
    assert!(
        r.summary.completed,
        "{what}: job did not complete: {:?}\nreproduce with: {}",
        r.summary,
        repro_cmd(seed)
    );
    assert_eq!(
        r.checksum,
        reference(NITER),
        "{what}: recovered state diverged from the uninterrupted run\nreproduce with: {}",
        repro_cmd(seed)
    );
    // The job never restores from an uncommitted snapshot: every restart
    // source is a committed (non-staging) checkpoint.
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

/// The tentpole sweep: every (pipeline stage × occurrence) pair. The job
/// takes three asynchronous checkpoints per incarnation, so occurrences 1
/// through 3 cut the first, second, and third flush at that stage —
/// exhausting every interleaving of crash point against the flusher
/// schedule the run produces.
#[test]
fn every_flush_stage_and_occurrence_recovers_bitwise() {
    for &point in PIPELINE_POINTS {
        for occurrence in 1..=3u32 {
            if seed_filter().is_some_and(|only| only != SWEEP_SEED) {
                continue;
            }
            let plan =
                FaultPlan { crash: Some((point, occurrence)), ..FaultPlan::seeded(SWEEP_SEED) };
            let r = run_campaign(plan, false);
            let what = format!("flush stage {point} occurrence {occurrence}");
            assert!(
                r.ctl.crash_fired(),
                "{what}: armed crash never fired (instrumentation gap)\nreproduce with: {}",
                repro_cmd(SWEEP_SEED)
            );
            assert!(
                r.summary.incarnations.len() >= 2,
                "{what}: expected at least one reincarnation: {:?}\nreproduce with: {}",
                r.summary,
                repro_cmd(SWEEP_SEED)
            );
            assert_crash_consistent(&r, &what, SWEEP_SEED);
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
        if seed_filter().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(seed) };
        let r = run_campaign(plan, true);
        let what = format!("tiered flush stage {point}");
        assert!(
            r.ctl.crash_fired(),
            "{what}: armed crash never fired\nreproduce with: {}",
            repro_cmd(seed)
        );
        assert_crash_consistent(&r, &what, seed);
    }
}

/// Transient weather under the asynchronous pipeline: retries happen (in
/// the foreground and inside detached flushes), the run completes bitwise
/// exact, and replaying the identical plan reproduces the run — the
/// seeded-interleaving determinism the pipeline promises.
#[test]
fn async_weather_is_deterministic_per_seed() {
    for &seed in WEATHER_SEEDS {
        if seed_filter().is_some_and(|only| only != seed) {
            continue;
        }
        let plan = FaultPlan {
            msg: MsgFaults { drop_prob: 0.2, dup_prob: 0.1, max_extra_latency: 1e-4 },
            piofs: PiofsFaults { transient_prob: 0.2, torn: None },
            ..FaultPlan::seeded(seed)
        };
        let r = run_campaign(plan.clone(), false);
        assert_crash_consistent(&r, &format!("weather seed {seed}"), seed);
        assert!(
            r.ctl.retries() > 0,
            "weather seed {seed}: no retries recorded\nreproduce with: {}",
            repro_cmd(seed)
        );
        let again = run_campaign(plan, false);
        assert_eq!(again.checksum, r.checksum);
        assert_eq!(again.summary, r.summary);
        assert_eq!(again.ctl.retries(), r.ctl.retries());
    }
}

// ---------------------------------------------------------------------------
// Delta-chain flush interleavings (two-incarnation structure, no JSA).
// ---------------------------------------------------------------------------

const D_NITER: i64 = 9;
const D_N: i64 = 2048;
const D_BAND: i64 = 256;
const D_APP: &str = "adelta";

fn d_domain() -> Slice {
    Slice::boxed(&[(1, D_N)])
}

fn d_cfg() -> DrmsConfig {
    DrmsConfig::new(D_APP)
}

fn dcfg() -> DeltaConfig {
    DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true }
}

fn d_touched(p: &[i64], iter: i64) -> bool {
    (p[0] - 1) / D_BAND == iter % (D_N / D_BAND)
}

fn d_truth(p: &[i64], iter: i64) -> f64 {
    let mut v = (p[0] * 7 + 2) as f64;
    for t in 1..=iter {
        if d_touched(p, t) {
            v += 0.25;
        }
    }
    v
}

fn d_reference() -> f64 {
    let mut total = 0.0;
    d_domain().points(Order::ColumnMajor).for_each(|p| total += d_truth(p, D_NITER));
    total
}

/// One incarnation of the delta-async job: links at iterations 3, 6, 9
/// through `AsyncCheckpointer::checkpoint_delta`, drained before the sum.
fn delta_incarnation(
    f: &Arc<Piofs>,
    ctl: Option<Arc<ChaosCtl>>,
    restart_from: Option<&str>,
) -> Option<f64> {
    let body = |ctx: &mut drms::msg::Ctx| {
        let dist = Distribution::block_auto(&d_domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        let mut chain;
        let mut drms = match restart_from {
            None => {
                let (drms, _) = Drms::initialize(ctx, f, d_cfg(), EnableFlag::new(), None).unwrap();
                chain = DeltaChain::new();
                u.fill_assigned(|p| d_truth(p, 0));
                drms
            }
            Some(prefix) => {
                let (drms, start) = resume(ctx, f, d_cfg(), EnableFlag::new(), prefix).unwrap();
                let Start::Restarted(info) = start else { panic!("expected restart") };
                seg = info.segment.clone();
                start_iter = seg.control("iter").unwrap() + 1;
                restore_arrays_delta(&drms, ctx, f, prefix, &info.manifest, &mut [&mut u]).unwrap();
                chain = DeltaChain::recover(prefix, &info.manifest).unwrap();
                drms
            }
        };
        let mut ck = AsyncCheckpointer::new(AsyncConfig { budget: 2 });
        for iter in start_iter..=D_NITER {
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                if d_touched(p, iter) {
                    let v = u.get(p).unwrap();
                    u.set(p, v + 0.25).unwrap();
                }
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                match ck.checkpoint_delta(
                    ctx,
                    f,
                    &mut drms,
                    &mut chain,
                    &dcfg(),
                    &format!("ck/ad{iter}"),
                    &seg,
                    &[&u],
                ) {
                    Ok(_) => {}
                    Err(e) if e.is_interrupted() => return None,
                    Err(e) => panic!("delta checkpoint failed: {e}"),
                }
            }
        }
        ck.drain(ctx);
        Some(u.fold_assigned(0.0, |acc, _, v| acc + v))
    };
    let sums = Spmd::new(4, CostModel::default()).chaos(ctl).run(body).unwrap();
    let mut total = 0.0;
    for s in sums {
        total += s?;
    }
    Some(total)
}

/// Every flush stage, cut during the **second** delta link: the
/// half-flushed link is never a restart source, the chain recovers from
/// the newest committed link, and the recomputed state is bitwise exact.
#[test]
fn delta_flush_stages_cut_mid_chain_recover_bitwise() {
    let seed = SWEEP_SEED ^ 0xDE17;
    let reference = d_reference();
    for &point in &PIPELINE_POINTS[1..] {
        if seed_filter().is_some_and(|only| only != seed) {
            continue;
        }
        let ctl = ChaosCtl::new(FaultPlan { crash: Some((point, 2)), ..FaultPlan::seeded(seed) });
        let f = Piofs::new(PiofsConfig::test_tiny(8), 17);
        let first = delta_incarnation(&f, Some(Arc::clone(&ctl)), None);
        assert!(
            ctl.crash_fired(),
            "{point}: armed crash never fired\nreproduce with: {}",
            repro_cmd(seed)
        );
        assert_eq!(first, None, "{point}: crashed incarnation completed");

        for (prefix, _) in find_checkpoints(&f, Some(D_APP)) {
            assert!(!prefix.contains(".tmp"), "{point}: staged {prefix:?} discoverable");
            assert!(verify(&f, &prefix).is_valid(), "{point}: {prefix:?} invalid");
        }
        let expect = if point == CrashPoint::FlushCommitted { "ck/ad6" } else { "ck/ad3" };
        let from = find_checkpoints(&f, Some(D_APP))
            .first()
            .map(|(p, _)| p.clone())
            .expect("a committed fallback must exist");
        assert_eq!(from, expect, "{point}: wrong fallback\nreproduce with: {}", repro_cmd(seed));
        sweep_orphans(&f);
        assert!(verify(&f, &from).is_valid(), "{point}: sweep broke the fallback");

        let total = delta_incarnation(&f, None, Some(&from))
            .unwrap_or_else(|| panic!("{point}: recovery incarnation crashed"));
        assert_eq!(
            total,
            reference,
            "{point}: recovered state diverged\nreproduce with: {}",
            repro_cmd(seed)
        );
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
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
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

    // A brand-new region (different task count) restores the commit.
    let f3 = Arc::clone(&f);
    let restored = run_spmd(3, CostModel::default(), move |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, &f3, DrmsConfig::new(APP), EnableFlag::new(), Some("ck/bitwise"))
                .unwrap();
        let Start::Restarted(info) = start else { panic!("expected restart") };
        assert_eq!(info.segment.control("iter").unwrap(), 6);
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        drms.restore_arrays(ctx, &f3, "ck/bitwise", &info.manifest, &mut [&mut u]).unwrap();
        u.fold_assigned(0.0, |acc, _, v| acc + v)
    })
    .unwrap();
    let restored: f64 = restored.iter().sum();
    assert_eq!(written, restored, "async commit did not restore bitwise");
}
