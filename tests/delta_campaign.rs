//! Crash-point campaign over the incremental checkpoint's two-phase
//! commit: for every enumerated checkpoint-side crash point, armed during
//! the *second* link of a delta chain, the half-staged delta is never a
//! restart source, the JSA restarts the job from the newest
//! fully-committed link, and the recomputed final state is bitwise
//! identical to the uninterrupted run.

use std::sync::Arc;

use drms_bench::campaign::{policy, Campaign, CkptMode, Rig, BANDED};
use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan, PiofsFaults};
use drms_core::manifest::ChunkSource;
use drms_core::{find_checkpoints, sweep_orphans, verify};
use drms_piofs::Piofs;
use drms_rtenv::{JobOutcome, RunSummary};

const APP: &str = "camp";
const NITER: i64 = 9; // delta links at iterations 3, 6, 9

/// The campaign job on the banded field, its links taken by the blocking
/// `delta_checkpoint`.
fn job() -> Campaign {
    Campaign { mode: CkptMode::Delta, shape: BANDED, ..Campaign::new(APP, "ck/c", NITER) }
}

/// Runs the job under the JSA with `plan`; returns the checksum, the
/// summary, the file system and the chaos controller.
fn launch(plan: FaultPlan) -> (f64, RunSummary, Arc<Piofs>, Arc<ChaosCtl>) {
    let rig = Rig::new(APP, 17, None);
    let ctl = ChaosCtl::new(plan);
    let (sum, summary) = job().launch(&rig, &rig.jsa(policy()).with_chaos(Arc::clone(&ctl)));
    (sum, summary, rig.fs, ctl)
}

/// Every discoverable link is committed and verifies in full (chunk refs
/// included).
fn assert_links_verify(fs: &Piofs, what: &str) {
    for (prefix, _) in find_checkpoints(fs, Some(APP)) {
        assert!(!prefix.contains(".tmp"), "{what}: staged {prefix:?} discoverable");
        assert!(verify(fs, &prefix).is_valid(), "{what}: {prefix:?} invalid");
    }
}

#[test]
fn crash_point_sweep_over_delta_commits() {
    let reference = BANDED.reference(NITER);
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
        let plan = FaultPlan { crash: Some((point, 2)), ..FaultPlan::seeded(23) };
        let (sum, summary, fs, ctl) = launch(plan);
        assert!(ctl.crash_fired(), "{point}: armed crash never fired");
        assert_eq!(summary.incarnations[0].outcome, JobOutcome::Killed, "{point}: {summary:?}");

        // Fallback is the newest *fully committed* link: the first link
        // always, plus the second exactly when the crash hit after its
        // commit point. No incarnation restarted from staging.
        let expect = if point == CrashPoint::CkptCommitted { "ck/c/6" } else { "ck/c/3" };
        let from = summary.incarnations[1].restart_from.as_deref();
        assert_eq!(from, Some(expect), "{point}: wrong fallback");
        for inc in &summary.incarnations {
            let staged = inc.restart_from.as_ref().is_some_and(|p| p.contains(".tmp"));
            assert!(!staged, "{point}: restarted from staging: {summary:?}");
        }
        assert!(summary.completed, "{point}: {summary:?}");
        assert_eq!(sum, reference, "{point}: recovered state diverged");

        // The newest link stored the 6 chunks its three bands dirtied and
        // carries the other 10 by reference, so the sweep below runs over
        // a chain whose links share packs.
        let links = find_checkpoints(&fs, Some(APP));
        let chunks = &links[0].1.deltas[0].chunks;
        let refs = chunks.iter().filter(|c| matches!(c.source, ChunkSource::Ref { .. })).count();
        assert_eq!((chunks.len(), refs), (16, 10), "{point}: link layout");

        // A half-staged delta is never discoverable, and reclaiming the
        // crashed attempt's staging never breaks the surviving chain.
        assert_links_verify(&fs, &format!("{point}"));
        sweep_orphans(&fs);
        assert_links_verify(&fs, &format!("{point} after the sweep"));

        // A relaunch on the swept file system restarts from the newest
        // link (recovering the chain from its manifest) and lands
        // bitwise on the reference.
        let rig = Rig::on(APP, fs, None);
        let (sum, summary) = job().launch(&rig, &rig.jsa(policy()));
        assert_eq!(summary.incarnations[0].restart_from.as_deref(), Some("ck/c/9"), "{point}");
        assert_eq!(sum, reference, "{point}: relaunch diverged");
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
    let (t1, s1, _, ctl1) = launch(plan.clone());
    assert!(ctl1.retries() > 0, "weather plan injected no faults");
    assert!(s1.completed, "weather run did not complete: {s1:?}");
    assert_eq!(t1, BANDED.reference(NITER), "weather run diverged");

    let (t2, s2, f2, ctl2) = launch(plan);
    assert_eq!(
        (t1, &s1, ctl1.retries()),
        (t2, &s2, ctl2.retries()),
        "weather run is nondeterministic"
    );
    assert_links_verify(&f2, "after weather");
}
