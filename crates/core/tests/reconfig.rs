//! End-to-end reconfigurable checkpoint/restart: the headline capability of
//! the paper. An application checkpoints with `t1` tasks on `p1` processors
//! and restarts from the archived state with `t2` tasks.

use std::sync::Arc;

use drms_core::manifest::CkptKind;
use drms_core::segment::DataSegment;
use drms_core::{find_checkpoints, CheckpointArray, Drms, DrmsConfig, EnableFlag, Start};
use drms_darray::{DistArray, Distribution};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(8), 3)
}

fn cfg() -> DrmsConfig {
    let mut c = DrmsConfig::new("mini");
    c.text_bytes = 4096;
    c
}

fn domain() -> Slice {
    Slice::boxed(&[(1, 24), (1, 18)])
}

fn truth(p: &[i64], iter: i64) -> f64 {
    (p[0] * 100 + p[1]) as f64 + iter as f64 * 0.5
}

/// Runs `iters` steps starting at `start_iter` on `ntasks`, checkpointing at
/// `ckpt_at` (if any). Returns per-task final assigned sums.
fn run_app(
    fs: &Arc<Piofs>,
    ntasks: usize,
    restart_from: Option<&str>,
    ckpt_at: Option<(i64, &str)>,
    end_iter: i64,
) -> Vec<f64> {
    run_spmd(ntasks, CostModel::default(), |ctx| {
        let (mut drms, start) =
            Drms::initialize(ctx, fs, cfg(), EnableFlag::new(), restart_from).unwrap();

        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());

        match start {
            Start::Fresh => {
                u.fill_assigned(|p| truth(p, 0));
            }
            Start::Restarted(info) => {
                seg = info.segment.clone();
                start_iter = seg.control("iter").unwrap() + 1;
                // delta != 0 exercises the reconfigured path; arrays were
                // created under the new distribution above, so just load.
                drms.restore_arrays(ctx, fs, restart_from.unwrap(), &info.manifest, &mut [&mut u])
                    .unwrap();
            }
        }

        for iter in start_iter..=end_iter {
            // A deterministic "solver step": everything shifts by 0.5.
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 0.5).unwrap();
            });
            seg.set_control("iter", iter);
            if let Some((at, prefix)) = ckpt_at {
                if iter == at {
                    drms.reconfig_checkpoint(ctx, fs, prefix, &seg, &[&u]).unwrap();
                }
            }
        }
        u.fold_assigned(0.0, |acc, _, v| acc + v)
    })
    .unwrap()
}

#[test]
fn reconfigured_restart_is_bitwise_identical() {
    // Uninterrupted reference run on 4 tasks.
    let fs_ref = fs();
    let reference: f64 = run_app(&fs_ref, 4, None, None, 10).into_iter().sum();

    for restart_tasks in [2usize, 4, 6] {
        let fs = fs();
        // Run on 4 tasks, checkpoint at iteration 5.
        run_app(&fs, 4, None, Some((5, "ck/a")), 5);
        // Restart on a different task count, run to completion.
        let total: f64 = run_app(&fs, restart_tasks, Some("ck/a"), None, 10).into_iter().sum();
        assert_eq!(
            total, reference,
            "restart with {restart_tasks} tasks diverged from uninterrupted run"
        );
    }
}

#[test]
fn every_element_survives_reconfiguration() {
    let fs = fs();
    run_app(&fs, 6, None, Some((3, "ck/e")), 3);
    run_spmd(3, CostModel::default(), |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), Some("ck/e")).unwrap();
        let Start::Restarted(info) = start else { panic!("expected restart") };
        assert_eq!(info.delta, 3 - 6);
        assert_eq!(info.manifest.ntasks, 6);
        let dist = Distribution::block_auto(&domain(), 3, 2).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        drms.restore_arrays(ctx, &fs, "ck/e", &info.manifest, &mut [&mut u]).unwrap();
        u.mapped().clone().points(Order::ColumnMajor).for_each(|p| {
            assert_eq!(u.get(p).unwrap(), truth(p, 0) + 3.0 * 0.5, "point {p:?}");
        });
    })
    .unwrap();
}

#[test]
fn multiple_prefixes_coexist_and_restart_from_any() {
    let fs = fs();
    run_spmd(2, CostModel::default(), |ctx| {
        let (mut drms, _) = Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&domain(), 2, 0).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let mut seg = DataSegment::new();
        for (i, prefix) in [(1i64, "ck/one"), (2, "ck/two"), (3, "ck/three")] {
            u.fill_assigned(|p| truth(p, i));
            seg.set_control("iter", i);
            drms.reconfig_checkpoint(ctx, &fs, prefix, &seg, &[&u]).unwrap();
        }
    })
    .unwrap();

    let found = find_checkpoints(&fs, Some("mini"));
    assert_eq!(found.len(), 3);
    assert_eq!(found[0].1.sop, 3, "newest first");
    assert!(found.iter().all(|(_, m)| m.kind == CkptKind::Drms));

    // Restart from the middle checkpoint on a different task count.
    run_spmd(5, CostModel::default(), |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), Some("ck/two")).unwrap();
        let Start::Restarted(info) = start else { panic!() };
        assert_eq!(info.segment.control("iter"), Some(2));
        let dist = Distribution::block_auto(&domain(), 5, 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        drms.restore_arrays(ctx, &fs, "ck/two", &info.manifest, &mut [&mut u]).unwrap();
        u.fold_assigned((), |_, p, v| assert_eq!(v, truth(p, 2)));
    })
    .unwrap();
}

#[test]
fn chkenable_only_fires_when_raised() {
    let fs = fs();
    let flag = EnableFlag::new();
    let flag2 = flag.clone();
    run_spmd(2, CostModel::default(), |ctx| {
        let (mut drms, _) = Drms::initialize(ctx, &fs, cfg(), flag2.clone(), None).unwrap();
        let dist = Distribution::block_auto(&domain(), 2, 0).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(|p| truth(p, 9));
        let seg = DataSegment::new();

        // Not raised: no checkpoint.
        let r = drms.reconfig_chkenable(ctx, &fs, "ck/en", &seg, &[&u]).unwrap();
        assert!(r.is_none());

        // Scheduler raises the signal (rank 0 simulates the TC delivery).
        if ctx.rank() == 0 {
            flag2.raise();
        }
        ctx.barrier();
        let r = drms.reconfig_chkenable(ctx, &fs, "ck/en", &seg, &[&u]).unwrap();
        assert!(r.is_some());
        // Flag cleared after the checkpoint.
        let r = drms.reconfig_chkenable(ctx, &fs, "ck/en2", &seg, &[&u]).unwrap();
        assert!(r.is_none());
    })
    .unwrap();
    assert!(fs.exists("ck/en/manifest"));
    assert!(!fs.exists("ck/en2/manifest"));
}

#[test]
fn restart_validates_manifest() {
    let fs = fs();
    run_app(&fs, 2, None, Some((1, "ck/v")), 1);
    run_spmd(2, CostModel::default(), |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), Some("ck/v")).unwrap();
        let Start::Restarted(info) = start else { panic!() };

        // Wrong element type.
        let dist = Distribution::block_auto(&domain(), 2, 0).unwrap();
        let mut wrong_t = DistArray::<f32>::new("u", Order::ColumnMajor, dist.clone(), ctx.rank());
        let err =
            drms.restore_arrays(ctx, &fs, "ck/v", &info.manifest, &mut [&mut wrong_t]).unwrap_err();
        assert!(err.to_string().contains("element code"));

        // Wrong domain.
        let other = Slice::boxed(&[(1, 10), (1, 10)]);
        let dist2 = Distribution::block_auto(&other, 2, 0).unwrap();
        let mut wrong_d = DistArray::<f64>::new("u", Order::ColumnMajor, dist2, ctx.rank());
        let err =
            drms.restore_arrays(ctx, &fs, "ck/v", &info.manifest, &mut [&mut wrong_d]).unwrap_err();
        assert!(err.to_string().contains("domain"));

        // Unknown array name.
        let dist3 = Distribution::block_auto(&domain(), 2, 0).unwrap();
        let mut unknown = DistArray::<f64>::new("zz", Order::ColumnMajor, dist3, ctx.rank());
        let err =
            drms.restore_arrays(ctx, &fs, "ck/v", &info.manifest, &mut [&mut unknown]).unwrap_err();
        assert!(err.to_string().contains("no array"));
    })
    .unwrap();
}

#[test]
fn initialize_without_checkpoint_errors() {
    let fs = fs();
    let out = run_spmd(2, CostModel::default(), |ctx| {
        Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), Some("ck/missing"))
            .err()
            .map(|e| e.to_string())
    })
    .unwrap();
    assert!(out[0].as_ref().unwrap().contains("no checkpoint"));
}

#[test]
fn adjust_redistribute_handle_path() {
    // Exercise the trait-object adjust path used for on-the-fly
    // reconfiguration.
    let fs = fs();
    let _ = &fs;
    run_spmd(4, CostModel::default(), |ctx| {
        let dist = Distribution::block_auto(&domain(), 4, 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(|p| truth(p, 1));
        drms_darray::assign::refresh_shadows(ctx, &mut u).unwrap();
        let h: &mut dyn CheckpointArray = &mut u;
        h.adjust_redistribute(ctx).unwrap();
        u.fold_assigned((), |_, p, v| assert_eq!(v, truth(p, 1)));
    })
    .unwrap();
}
