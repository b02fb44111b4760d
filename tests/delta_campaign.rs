//! Crash-point campaign over the incremental checkpoint's two-phase
//! commit: for every enumerated checkpoint-side crash point, armed during
//! the *second* link of a delta chain, the half-staged delta is never a
//! restart source, recovery falls back to the newest fully-committed link,
//! and the recomputed final state is bitwise identical to the uninterrupted
//! run.

mod common;

use std::sync::Arc;

use common::{fs, DeltaToy};
use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan, PiofsFaults};
use drms_core::{find_checkpoints, sweep_orphans, verify};
use drms_piofs::Piofs;

const APP: &str = "camp";

/// The shared delta toy, its links taken by the blocking `delta_checkpoint`.
const TOY: DeltaToy = DeltaToy { app: APP, stem: "ck/c", overlapped: false };

/// Newest committed checkpoint of the app, by SOP.
fn newest(f: &Arc<Piofs>) -> Option<String> {
    find_checkpoints(f, Some(APP)).first().map(|(p, _)| p.clone())
}

#[test]
fn crash_point_sweep_over_delta_commits() {
    let reference = DeltaToy::reference();
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
        let first = TOY.incarnation(&f, Some(Arc::clone(&ctl)), None);
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
        let total = TOY
            .incarnation(&f, None, Some(&from))
            .unwrap_or_else(|| panic!("{point}: recovery incarnation crashed"));
        assert_eq!(total, reference, "{point}: recovered state diverged");
    }
}

#[test]
fn delta_chain_survives_transient_weather() {
    // Transient PIOFS faults (no crash): the chain commits through
    // retries, deterministically per seed.
    let plan = FaultPlan {
        piofs: PiofsFaults { transient_prob: 0.2, torn: None },
        ..FaultPlan::seeded(29)
    };
    let f1 = fs();
    let ctl1 = ChaosCtl::new(plan.clone());
    let t1 = TOY.incarnation(&f1, Some(Arc::clone(&ctl1)), None).expect("weather run crashed");
    assert!(ctl1.retries() > 0, "weather plan injected no faults");
    assert_eq!(t1, DeltaToy::reference(), "weather run diverged");

    let f2 = fs();
    let ctl2 = ChaosCtl::new(plan);
    let t2 = TOY.incarnation(&f2, Some(ctl2), None).expect("weather rerun crashed");
    assert_eq!(t1, t2, "weather run is nondeterministic");
    for (prefix, _) in find_checkpoints(&f2, Some(APP)) {
        assert!(verify(&f2, &prefix).is_valid(), "{prefix:?} invalid after weather");
    }
}
