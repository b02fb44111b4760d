//! Flight-recorder campaign: crash-surviving trace recovery at every
//! enumerated [`CrashPoint`].
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
//! campaign replays bit-identically per seed — same stitched render, same
//! recovery cost to the bit — which is what makes the `FAULT_SEED` repro
//! lines below trustworthy. A localized-recovery run closes the set: its
//! in-place recovery is billed, and gauged, inside one incarnation.

use std::sync::Arc;

use drms::blackbox::{Blackbox, BlackboxConfig};
use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan};
use drms::insight::{RecoveryReport, StitchedTimeline};
use drms::obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms::rtenv::JsaPolicy;
use drms_bench::campaign::{
    blocking_sweep, policy, Campaign, Fault, Launched, LossDrill, Rig, NPROCS,
};
use drms_bench::seed::fault_seed_env;

const NITER: i64 = 10;
const APP: &str = "bbcamp";

/// Ring capacity for the campaign: small enough that evictions are part
/// of every run, so recovery works from overlapping partial snapshots —
/// the hard case — rather than from complete histories.
const RING_CAPACITY: usize = 256;

/// Detection latency scaled to the tiny simulated workload (the default
/// 1 s would dwarf the millisecond-scale runs and make every fraction
/// read as ~100 % detection).
const DETECTION_LATENCY: f64 = 1e-4;

/// Base seed of the crash-point sweep; the token-kill scenario perturbs
/// it so the two campaigns never alias under a `FAULT_SEED` filter.
const SWEEP_SEED: u64 = 0xB1ACB;

/// The one-command repro printed by every campaign assertion, in the
/// repo-wide `FAULT_SEED` convention shared with the other campaigns.
fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("blackbox_campaign", seed)
}

/// The launch plus what the coverage contract inspects beside it.
struct CampaignResult {
    out: Launched,
    rec: Arc<TraceRecorder>,
    bb: Arc<Blackbox>,
    ctl: Arc<ChaosCtl>,
}

/// The campaign job, fault-free.
fn job() -> Campaign {
    Campaign::new(APP, "ck/bb", NITER)
}

/// Runs the campaign job under a fault plan with the flight recorder on
/// the fan-out and its lifecycle driven by the JSA, optionally killing
/// one processor at an iteration (the token kill: an organic restart with
/// no crash point, so nothing salvages the unsealed tail), or surviving a
/// node loss in place (`drill`, under a policy that permits localized
/// recovery).
fn run_campaign(
    plan: FaultPlan,
    fail_at: Option<Fault>,
    drill: Option<LossDrill>,
) -> CampaignResult {
    let rec = Arc::new(TraceRecorder::default());
    let bb = Arc::new(Blackbox::new(
        BlackboxConfig { capacity: RING_CAPACITY, detection_latency: DETECTION_LATENCY },
        NPROCS,
    ));
    let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![
        rec.clone() as Arc<dyn Recorder>,
        bb.clone() as Arc<dyn Recorder>,
    ]));
    let rig = Rig::new(APP, plan.seed, Some(fan));
    let ctl = ChaosCtl::new(plan);
    let jsa = rig
        .jsa(JsaPolicy { localized_recovery: drill.is_some(), ..policy() })
        .with_chaos(Arc::clone(&ctl))
        .with_blackbox(Arc::clone(&bb));
    let job = Campaign { faults: fail_at.into_iter().collect(), drill, ..job() };
    CampaignResult { out: job.launch(&rig, &jsa), rec, bb, ctl }
}

/// The coverage contract shared by every campaign assertion: bitwise
/// recovery (`Launched::assert_recovered`), a non-empty recovered stream
/// for every incarnation, exact segment abutment, attribution tiling the
/// stitched wall clock, and the JSA's recovery-ratio gauge reading the
/// attribution's fraction.
fn assert_covered(
    r: &CampaignResult,
    tl: &StitchedTimeline,
    rep: &RecoveryReport,
    what: &str,
    seed: u64,
) {
    r.out.assert_recovered(&job(), what, &repro_cmd(seed));
    assert_eq!(
        tl.segments.len(),
        r.out.summary.incarnations.len(),
        "{what}: stitched segment count diverged from the incarnation record\nreproduce with: {}",
        repro_cmd(seed)
    );
    for (i, _) in r.out.summary.incarnations.iter().enumerate() {
        assert!(
            !r.bb.events_for(i as u64).is_empty(),
            "{what}: incarnation {i} recovered no events — a silent gap in the \
             flight record\nreproduce with: {}",
            repro_cmd(seed)
        );
    }
    for k in 1..tl.segments.len() {
        assert_eq!(
            tl.segments[k].start.to_bits(),
            (tl.segments[k - 1].end + tl.segments[k].detect).to_bits(),
            "{what}: segments {} and {k} do not abut — unattributed gap\nreproduce with: {}",
            k - 1,
            repro_cmd(seed)
        );
    }
    let tol = 1e-9 * rep.wall.max(1.0);
    assert!(
        rep.tiling_error() <= tol,
        "{what}: attribution buckets do not tile the wall clock \
         (error {} > {tol})\nreproduce with: {}",
        rep.tiling_error(),
        repro_cmd(seed)
    );
    let gauge = r.rec.metrics().gauge(names::BLACKBOX_RECOVERY_RATIO, 0);
    assert_eq!(
        gauge.map(f64::to_bits),
        Some(rep.recovery_fraction().to_bits()),
        "{what}: the recovery-ratio gauge ({gauge:?}) is not the report's fraction ({})\n\
         reproduce with: {}",
        rep.recovery_fraction(),
        repro_cmd(seed)
    );
}

/// The tentpole sweep: every blocking-path crash point, exhaustively. The
/// restart-side points need an organic restart to fire inside, so those
/// runs also kill one processor mid-run.
#[test]
fn every_crash_point_leaves_a_recoverable_flight_record() {
    // `blocking_sweep` skips the `Flush*` and `Recover*` families, which
    // fire only inside an overlapped flush or a localized recovery.
    for (point, kill) in blocking_sweep() {
        if fault_seed_env().is_some_and(|only| only != SWEEP_SEED) {
            continue;
        }
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(SWEEP_SEED) };
        let r = run_campaign(plan, kill, None);
        let what = format!("crash point {point}");
        assert!(
            r.ctl.crash_fired(),
            "{what}: armed crash never fired (instrumentation gap)\nreproduce with: {}",
            repro_cmd(SWEEP_SEED)
        );
        assert!(
            r.out.summary.incarnations.len() >= 2,
            "{what}: expected at least one reincarnation: {:?}\nreproduce with: {}",
            r.out.summary,
            repro_cmd(SWEEP_SEED)
        );
        // The crashed incarnation's tail reached storage as a salvage
        // seal — the ring survived the very instant it is for.
        assert!(
            r.rec.metrics().counter_total(names::BLACKBOX_SALVAGES) > 0,
            "{what}: crash fired but no ring was salvaged\nreproduce with: {}",
            repro_cmd(SWEEP_SEED)
        );
        let (tl, rep) = r.out.summary.attribution(&r.bb);
        assert_covered(&r, &tl, &rep, &what, SWEEP_SEED);
    }
}

/// Token kill: a processor failure between checkpoints, with no crash
/// point armed, so the dying incarnation's unsealed tail has no salvage
/// path. The loss must be audited — `blackbox.events_dropped` counts the
/// exact tail — while everything up to the last SOP seal still recovers
/// and the stitched timeline still covers every incarnation.
#[test]
fn token_kill_audits_its_dropped_tail() {
    let seed = SWEEP_SEED ^ 0x7111;
    if fault_seed_env().is_some_and(|only| only != seed) {
        return;
    }
    let r = run_campaign(FaultPlan::seeded(seed), Some(Fault::kill(4, 2)), None);
    assert!(
        r.out.summary.incarnations.len() >= 2,
        "token kill never reincarnated: {:?}\nreproduce with: {}",
        r.out.summary,
        repro_cmd(seed)
    );
    let dropped = r.rec.metrics().counter_total(names::BLACKBOX_EVENTS_DROPPED);
    assert!(
        dropped > 0,
        "token kill lost no trace events — the drop audit is vacuous\nreproduce with: {}",
        repro_cmd(seed)
    );
    let (tl, rep) = r.out.summary.attribution(&r.bb);
    assert_covered(&r, &tl, &rep, "token kill", seed);
}

/// Determinism: replaying the identical plan replays the identical
/// recovery — same stitched render, same recovery cost to the bit. This
/// is what makes every repro line in this file trustworthy.
#[test]
fn campaign_replays_bit_identically() {
    let seed = SWEEP_SEED ^ 0xD00D;
    if fault_seed_env().is_some_and(|only| only != seed) {
        return;
    }
    let plan =
        FaultPlan { crash: Some((CrashPoint::CkptMidPublish, 1)), ..FaultPlan::seeded(seed) };
    let a = run_campaign(plan.clone(), Some(Fault::kill(7, 2)), None);
    let b = run_campaign(plan, Some(Fault::kill(7, 2)), None);
    assert_eq!(a.out.checksum, b.out.checksum, "reproduce with: {}", repro_cmd(seed));
    assert_eq!(a.out.summary, b.out.summary, "reproduce with: {}", repro_cmd(seed));
    let (tla, repa) = a.out.summary.attribution(&a.bb);
    let (tlb, repb) = b.out.summary.attribution(&b.bb);
    assert_eq!(tla.events.len(), tlb.events.len(), "reproduce with: {}", repro_cmd(seed));
    assert_eq!(repa.render(), repb.render(), "reproduce with: {}", repro_cmd(seed));
    assert_eq!(
        repa.recovery_cost().to_bits(),
        repb.recovery_cost().to_bits(),
        "reproduce with: {}",
        repro_cmd(seed)
    );
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
    let drill = LossDrill { at: 5, victim: 2, replicas: None };
    let r = run_campaign(FaultPlan::seeded(seed), None, Some(drill));
    assert_eq!(
        r.out.summary.incarnations.len(),
        1,
        "a localized recovery cost an incarnation: {:?}\nreproduce with: {}",
        r.out.summary,
        repro_cmd(seed)
    );
    let (tl, rep) = r.out.summary.attribution(&r.bb);
    assert_covered(&r, &tl, &rep, "localized recovery", seed);
    assert!(
        rep.rows[0].localized > 0.0,
        "localized recovery billed no localized time\n{}\nreproduce with: {}",
        rep.render(),
        repro_cmd(seed)
    );
}
