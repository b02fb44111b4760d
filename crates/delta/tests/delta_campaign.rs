//! Crash-point campaign over the incremental checkpoint's two-phase
//! commit: for every enumerated checkpoint-side crash point, armed during
//! the *second* link of a delta chain, the half-staged delta is never a
//! restart source, recovery falls back to the newest fully-committed link,
//! and the recomputed final state is bitwise identical to the uninterrupted
//! run.

use std::sync::Arc;

use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan, MsgFaults, PiofsFaults};
use drms_core::segment::DataSegment;
use drms_core::{
    find_checkpoints, sweep_orphans, verify, CoreError, Drms, DrmsConfig, EnableFlag, Start,
};
use drms_darray::{DistArray, Distribution};
use drms_delta::{delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms_msg::{CostModel, Spmd};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

const APP: &str = "camp";
const NTASKS: usize = 4;
const NITER: i64 = 9;
const CKPT_EVERY: i64 = 3; // delta links at iterations 3, 6, 9
const N: i64 = 2048;
const BAND: i64 = 256;

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(8), 17)
}

fn cfg() -> DrmsConfig {
    DrmsConfig::new(APP)
}

fn dcfg() -> DeltaConfig {
    DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true }
}

fn domain() -> Slice {
    Slice::boxed(&[(1, N)])
}

fn touched(p: &[i64], iter: i64) -> bool {
    (p[0] - 1) / BAND == iter % (N / BAND)
}

fn truth(p: &[i64], iter: i64) -> f64 {
    let mut v = (p[0] * 7 + 2) as f64;
    for t in 1..=iter {
        if touched(p, t) {
            v += 0.25;
        }
    }
    v
}

fn reference() -> f64 {
    let mut total = 0.0;
    domain().points(Order::ColumnMajor).for_each(|p| total += truth(p, NITER));
    total
}

/// One incarnation: initialize (fresh or from `restart_from`), iterate to
/// `NITER` with a delta checkpoint every `CKPT_EVERY`, die cleanly on an
/// injected crash. Returns the global final sum when the incarnation
/// completed, `None` when it crashed.
fn incarnation(
    f: &Arc<Piofs>,
    ctl: Option<Arc<ChaosCtl>>,
    restart_from: Option<&str>,
) -> Option<f64> {
    let body = |ctx: &mut drms_msg::Ctx| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        let mut chain;
        let mut drms = match restart_from {
            None => {
                let (drms, _) = Drms::initialize(ctx, f, cfg(), EnableFlag::new(), None).unwrap();
                chain = DeltaChain::new();
                u.fill_assigned(|p| truth(p, 0));
                drms
            }
            Some(prefix) => {
                let (drms, start) = resume(ctx, f, cfg(), EnableFlag::new(), prefix).unwrap();
                let Start::Restarted(info) = start else { panic!("expected restart") };
                seg = info.segment.clone();
                start_iter = seg.control("iter").unwrap() + 1;
                restore_arrays_delta(&drms, ctx, f, prefix, &info.manifest, &mut [&mut u]).unwrap();
                chain = DeltaChain::recover(prefix, &info.manifest).unwrap();
                drms
            }
        };
        for iter in start_iter..=NITER {
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                if touched(p, iter) {
                    let v = u.get(p).unwrap();
                    u.set(p, v + 0.25).unwrap();
                }
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                match delta_checkpoint(
                    &mut drms,
                    &mut chain,
                    &dcfg(),
                    ctx,
                    f,
                    &format!("ck/c{iter}"),
                    &seg,
                    &[&u],
                ) {
                    Ok(_) => {}
                    Err(CoreError::Interrupted(_)) => return None,
                    Err(e) => panic!("checkpoint failed: {e}"),
                }
            }
        }
        Some(u.fold_assigned(0.0, |acc, _, v| acc + v))
    };
    let sums = Spmd::new(NTASKS, CostModel::default()).chaos(ctl).run(body).unwrap();
    let mut total = 0.0;
    for s in sums {
        total += s?;
    }
    Some(total)
}

/// Newest committed checkpoint of the app, by SOP.
fn newest(f: &Arc<Piofs>) -> Option<String> {
    find_checkpoints(f, Some(APP)).first().map(|(p, _)| p.clone())
}

#[test]
fn crash_point_sweep_over_delta_commits() {
    let reference = reference();
    let ckpt_points = [
        CrashPoint::CkptEnter,
        CrashPoint::CkptAfterSegment,
        CrashPoint::CkptAfterArray,
        CrashPoint::CkptStagedManifest,
        CrashPoint::CkptMidPublish,
        CrashPoint::CkptCommitted,
    ];
    for point in ckpt_points {
        // Arm the crash at the point's second consultation — during the
        // second link, so a committed first link exists to fall back to.
        let ctl = ChaosCtl::new(FaultPlan { crash: Some((point, 2)), ..FaultPlan::seeded(23) });
        let f = fs();
        let first = incarnation(&f, Some(Arc::clone(&ctl)), None);
        assert!(ctl.crash_fired(), "{point}: armed crash never fired");
        assert_eq!(first, None, "{point}: crashed incarnation completed");

        // A half-staged delta is never a restart source: nothing under a
        // staging prefix is discoverable, and every discoverable
        // checkpoint verifies in full (chunk refs included).
        let found = find_checkpoints(&f, Some(APP));
        for (prefix, _) in &found {
            assert!(!prefix.contains(".tmp"), "{point}: staged {prefix:?} discoverable");
            assert!(verify(&f, prefix).is_valid(), "{point}: {prefix:?} invalid");
        }
        // Fallback is the newest *fully committed* link: the first link
        // always, plus the second exactly when the crash hit after its
        // commit point.
        let expect = if point == CrashPoint::CkptCommitted { "ck/c6" } else { "ck/c3" };
        let from = newest(&f).expect("a committed fallback must exist");
        assert_eq!(from, expect, "{point}: wrong fallback");

        // Reclaiming the crashed attempt's staging never breaks the
        // surviving chain.
        sweep_orphans(&f);
        assert!(verify(&f, &from).is_valid(), "{point}: sweep broke the fallback");

        // Second incarnation restarts from the fallback (recovering the
        // chain from its manifest) and lands bitwise on the reference.
        let total = incarnation(&f, None, Some(&from))
            .unwrap_or_else(|| panic!("{point}: recovery incarnation crashed"));
        assert_eq!(total, reference, "{point}: recovered state diverged");
    }
}

#[test]
fn delta_chain_survives_transient_weather() {
    // Transient message/I-O faults (no crash): the chain commits through
    // retries, deterministically per seed.
    let plan = FaultPlan {
        msg: MsgFaults { drop_prob: 0.2, dup_prob: 0.1, max_extra_latency: 1e-4 },
        piofs: PiofsFaults { transient_prob: 0.2, torn: None },
        ..FaultPlan::seeded(29)
    };
    let f1 = fs();
    let ctl1 = ChaosCtl::new(plan.clone());
    let t1 = incarnation(&f1, Some(Arc::clone(&ctl1)), None).expect("weather run crashed");
    assert!(ctl1.retries() > 0, "weather plan injected no faults");
    assert_eq!(t1, reference(), "weather run diverged");

    let f2 = fs();
    let ctl2 = ChaosCtl::new(plan);
    let t2 = incarnation(&f2, Some(ctl2), None).expect("weather rerun crashed");
    assert_eq!(t1, t2, "weather run is nondeterministic");
    for (prefix, _) in find_checkpoints(&f2, Some(APP)) {
        assert!(verify(&f2, &prefix).is_valid(), "{prefix:?} invalid after weather");
    }
}
