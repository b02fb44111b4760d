//! End-to-end localized recovery: a committed checkpoint, a node loss, and
//! a section restore that leaves the survivors' memory untouched and the
//! global state bitwise equal to a full restore.

use std::sync::Arc;

use drms_core::restore::{PiofsFull, RestartSource};
use drms_core::segment::DataSegment;
use drms_core::{CoreError, Drms, DrmsConfig, EnableFlag, Start};
use drms_darray::stream::StreamRange;
use drms_darray::{DistArray, Distribution};
use drms_delta::{
    delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig, DeltaSource,
};
use drms_memtier::{store_checkpoint, MemTier};
use drms_msg::{run_spmd, CostModel, Ctx, ReduceOp};
use drms_piofs::{Piofs, PiofsConfig, ReadAccess};
use drms_recover::{recover, retain, Membership, StreamSource};
use drms_slices::{Order, Slice};

const APP: &str = "loct";
const NTASKS: usize = 6;

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(NTASKS), 29)
}

fn domain() -> Slice {
    Slice::boxed(&[(1, 22), (1, 17)])
}

fn truth(p: &[i64]) -> f64 {
    (p[0] * 31 + p[1] * 7) as f64
}

fn array(ctx: &Ctx) -> DistArray<f64> {
    let dom = domain();
    let dist = Distribution::block_auto(&dom, ctx.ntasks(), 0).unwrap();
    let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
    u.fill_assigned(truth);
    u
}

/// Checks that the assigned sections across the region cover the whole
/// domain exactly once and hold the checkpoint values bitwise.
fn assert_checkpoint_state(ctx: &mut Ctx, u: &DistArray<f64>) {
    let (ok, n) = u.fold_assigned((true, 0u64), |(ok, n), p, v| {
        (ok && v.to_bits() == truth(p).to_bits(), n + 1)
    });
    assert!(ok, "rank {} holds non-checkpoint bytes", ctx.rank());
    let covered = ctx.allreduce(n as f64, ReduceOp::Sum);
    assert_eq!(covered as usize, domain().size(), "assigned sections must tile the domain");
}

#[test]
fn memtier_hit_restores_without_piofs() {
    let fs = fs();
    let tier = MemTier::new(2); // survives one node loss
    let outs = run_spmd(NTASKS, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let mut u = array(ctx);
        let mut seg = DataSegment::new();
        seg.set_control("iter", 3);
        store_checkpoint(ctx, &tier, "ck/1", &mut drms, &seg, &[&u]).unwrap();
        let retained = retain(ctx, "ck/1", 3, &[&u]);

        // The app progresses past the SOP; this work is rolled back.
        u.fill_assigned(|p| truth(p) + 9.5);

        // Node 2 dies (rank 2 with the identity placement); the tier keeps
        // a replica of every piece elsewhere.
        if ctx.rank() == 0 {
            tier.fail_node(2);
        }
        ctx.barrier();
        let prev = Membership::initial(ctx.ntasks());
        let (next, report) =
            recover(ctx, &fs, Some(&tier), &retained, &prev, &[2], &mut [&mut u], ctx.ntasks())
                .unwrap();

        assert_eq!(next.epoch, 1);
        assert_eq!(next.lost(), vec![2]);
        assert_eq!(report.source, StreamSource::Replica);
        assert_eq!(report.piofs_bytes, 0, "a memtier hit must never touch PIOFS");
        assert!(report.replica_bytes > 0);
        assert!(report.survivor_bytes > 0);
        assert_checkpoint_state(ctx, &u);
        if !next.survivors[ctx.rank()] {
            assert!(u.assigned().is_empty(), "a lost rank owns nothing after recovery");
        }
        report
    })
    .unwrap();
    // The recovery journal committed (rename-last commit point).
    assert!(fs.exists("ck/1.recover-e1/journal"));
    let j = String::from_utf8(fs.peek("ck/1.recover-e1/journal").unwrap()).unwrap();
    assert!(j.contains("epoch 1"), "journal records the epoch: {j}");
    assert!(j.contains("lost [2]"), "journal records the lost ranks: {j}");
    // Every rank observed the identical report.
    assert!(outs.windows(2).all(|w| w[0].replica_bytes == w[1].replica_bytes));
}

#[test]
fn falls_back_to_piofs_full_stream_without_a_tier() {
    let fs = fs();
    run_spmd(NTASKS, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let mut u = array(ctx);
        let mut seg = DataSegment::new();
        seg.set_control("iter", 1);
        drms.reconfig_checkpoint(ctx, &fs, "ck/1", &seg, &[&u]).unwrap();
        let retained = retain(ctx, "ck/1", 1, &[&u]);
        u.fill_assigned(|p| truth(p) - 2.0);

        let prev = Membership::initial(ctx.ntasks());
        let (next, report) =
            recover(ctx, &fs, None, &retained, &prev, &[4], &mut [&mut u], ctx.ntasks()).unwrap();
        assert_eq!(report.source, StreamSource::PiofsFull);
        assert!(report.piofs_bytes > 0);
        assert_eq!(report.replica_bytes, 0);
        assert!(
            report.piofs_bytes < u.domain().size() as u64 * 8,
            "section reads must move less than the full stream"
        );
        assert_eq!(next.active(), vec![0, 1, 2, 3, 5]);
        assert_checkpoint_state(ctx, &u);
    })
    .unwrap();
}

#[test]
fn falls_back_to_delta_chain_range_reads() {
    let fs = fs();
    let rung = run_spmd(NTASKS, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let mut u = array(ctx);
        let mut chain = DeltaChain::new();
        let cfg = DeltaConfig::default();
        let mut seg = DataSegment::new();
        seg.set_control("iter", 2);
        delta_checkpoint(&mut drms, &mut chain, &cfg, ctx, &fs, "ck/d1", &seg, &[&u]).unwrap();
        let retained = retain(ctx, "ck/d1", 2, &[&u]);
        u.fill_assigned(|p| truth(p) * 0.5);

        let prev = Membership::initial(ctx.ntasks());
        let (_, report) =
            recover(ctx, &fs, None, &retained, &prev, &[1], &mut [&mut u], ctx.ntasks()).unwrap();
        assert_eq!(report.source, StreamSource::PiofsDelta);
        assert!(report.piofs_bytes > 0);
        assert_checkpoint_state(ctx, &u);

        // One stored chunk rots on PIOFS: the rung's range fetch — the
        // `DeltaSource` call `recover` makes — reports it.
        let link = DeltaSource(PiofsFull { fs: &fs, prefix: "ck/d1" });
        let manifest = link.manifest(ctx).unwrap();
        let chunk = &manifest.delta("u").unwrap().chunks[0];
        if ctx.rank() == 0 {
            fs.corrupt_range(&chunk.pack_path("ck/d1", "u"), chunk.offset, 1, 7);
        }
        ctx.barrier();
        let range = StreamRange { offset: 0, len: chunk.len as u64, access: ReadAccess::Strided };
        let rung = link.fetch_range(ctx, &manifest, "u", range, &mut Vec::new()).unwrap_err();
        assert!(matches!(rung, CoreError::Integrity(_)), "rung reported {rung}");
        rung.to_string()
    })
    .unwrap();
    // A full restart reads through the same fetcher and the same
    // verification, so it fails in the same words. (One task, so the failure
    // is the whole region's.)
    run_spmd(1, CostModel::default(), |ctx| {
        let (drms, start) =
            resume(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), "ck/d1").unwrap();
        let Start::Restarted(info) = start else { panic!("resume always restarts") };
        let mut u = array(ctx);
        let full = restore_arrays_delta(&drms, ctx, &fs, "ck/d1", &info.manifest, &mut [&mut u])
            .unwrap_err();
        assert!(full.to_string().contains(&rung[0]), "full restart reported {full}");
    })
    .unwrap();
}

#[test]
fn escalates_when_nothing_can_serve() {
    let fs = fs();
    run_spmd(NTASKS, CostModel::default(), |ctx| {
        let (_, _) =
            Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let mut u = array(ctx);
        // Retained state points at a checkpoint that was never written.
        let retained = retain(ctx, "ck/never", 1, &[&u]);
        let prev = Membership::initial(ctx.ntasks());
        let err = recover(ctx, &fs, None, &retained, &prev, &[3], &mut [&mut u], ctx.ntasks())
            .unwrap_err();
        assert!(matches!(err, CoreError::Escalate(_)), "expected escalation, got {err}");
        assert!(!err.is_interrupted());
    })
    .unwrap();
}

#[test]
fn second_loss_composes_with_higher_epoch() {
    let fs = fs();
    let tier = MemTier::new(3);
    run_spmd(NTASKS, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let mut u = array(ctx);
        let seg = DataSegment::new();
        store_checkpoint(ctx, &tier, "ck/1", &mut drms, &seg, &[&u]).unwrap();
        let retained = retain(ctx, "ck/1", 1, &[&u]);

        if ctx.rank() == 0 {
            tier.fail_node(5);
        }
        ctx.barrier();
        let prev = Membership::initial(ctx.ntasks());
        let (m1, _) =
            recover(ctx, &fs, Some(&tier), &retained, &prev, &[5], &mut [&mut u], ctx.ntasks())
                .unwrap();
        // Survivors retain again at the new epoch's distribution before the
        // next loss (the harness does this after each recovery commit).
        let retained = retain(ctx, "ck/1", 1, &[&u]);
        if ctx.rank() == 0 {
            tier.fail_node(0);
        }
        ctx.barrier();
        let (m2, report) =
            recover(ctx, &fs, Some(&tier), &retained, &m1, &[0], &mut [&mut u], ctx.ntasks())
                .unwrap();
        assert_eq!(m2.epoch, 2);
        assert_eq!(m2.lost(), vec![0, 5]);
        assert_eq!(report.source, StreamSource::Replica);
        assert_checkpoint_state(ctx, &u);
    })
    .unwrap();
    assert!(fs.exists("ck/1.recover-e1/journal"));
    assert!(fs.exists("ck/1.recover-e2/journal"));
}
