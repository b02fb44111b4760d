//! Conventional (non-reconfigurable) SPMD checkpointing — the paper's
//! comparison baseline, similar to the approaches of [6, 10, 18].
//!
//! Every task saves its *entire* data segment — stack, replicated and
//! private data, and the full (compile-time-fixed) storage of its mapped
//! array sections — to a private file, synchronizing at the end. The run-time
//! knows nothing about distributed data structures, so:
//!
//! * the saved state grows linearly with the number of tasks (Table 3);
//! * a restart requires **exactly** the task count the checkpoint was taken
//!   with ([`CoreError::TaskCountFixed`] otherwise) — no reconfigured
//!   recovery.

use drms_msg::Ctx;
use drms_obs::{markers, Phase};
use drms_piofs::{Piofs, ReadAccess, ReadReq, WriteReq};

use crate::drms::{load_text, phase_span, record_bytes};
use crate::handle::{encode_segment_with_locals, CheckpointArray};
use crate::manifest::{manifest_path, task_segment_path, CkptKind, Manifest};
use crate::report::OpBreakdown;
use crate::restore::{check_manifest, check_record, closing_vote};
use crate::segment::DataSegment;
use crate::{CoreError, DrmsConfig, Result};

/// Conventional SPMD checkpoint: every task writes its full segment to its
/// own file. Collective.
pub fn checkpoint(
    ctx: &mut Ctx,
    fs: &Piofs,
    cfg: &DrmsConfig,
    prefix: &str,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
    sop: u64,
) -> Result<OpBreakdown> {
    ctx.barrier();
    let t0 = ctx.now();

    let bytes = encode_segment_with_locals(base_segment, arrays, cfg.fixed_local_bytes);
    let path = task_segment_path(prefix, ctx.rank());
    fs.create(&path, bytes.len() as u64);
    fs.collective_write(ctx, vec![WriteReq { path, offset: 0, data: bytes }]);
    ctx.barrier();
    let t1 = ctx.now();

    if ctx.rank() == 0 {
        let manifest = Manifest {
            app: cfg.app.clone(),
            kind: CkptKind::Spmd,
            ntasks: ctx.ntasks(),
            sop,
            arrays: Vec::new(),
            integrity: crate::drms::compute_integrity(fs, prefix),
            deltas: Vec::new(),
        };
        let bytes = manifest.encode();
        // Stage, then publish by rename: the manifest appears atomically,
        // so an observer never sees a half-written commit marker.
        let smp = crate::commit::staged_manifest_path(prefix);
        fs.create(&smp, bytes.len() as u64);
        fs.write_at(ctx, &smp, 0, bytes);
        fs.delete(&manifest_path(prefix));
        crate::commit::publish_manifest(fs, prefix);
    }
    ctx.barrier();
    let t2 = ctx.now();

    let total: u64 =
        (0..ctx.ntasks()).map(|r| fs.size(&task_segment_path(prefix, r)).unwrap_or(0)).sum();
    phase_span(ctx, Phase::Segment, "spmd_write_segments", t0, t1);
    phase_span(ctx, Phase::Manifest, "write_manifest", t1, t2);
    record_bytes(ctx, total, 0);
    Ok(OpBreakdown {
        init: 0.0,
        segment: t1 - t0,
        arrays: 0.0,
        segment_bytes: total,
        array_bytes: 0,
    })
}

/// Conventional SPMD restart: each task reads back its own segment file.
/// Fails unless the checkpoint is an SPMD one of this application taken on
/// exactly this task count; a task that cannot load its segment, or whose
/// segment does not match its manifest record, fails the restart on every
/// task.
pub fn restart(
    ctx: &mut Ctx,
    fs: &Piofs,
    cfg: &DrmsConfig,
    prefix: &str,
) -> Result<(DataSegment, OpBreakdown)> {
    let manifest = crate::drms::read_manifest_collective(ctx, fs, prefix)?;
    check_manifest(&manifest, CkptKind::Spmd, prefix, &cfg.app)?;
    if manifest.ntasks != ctx.ntasks() {
        return Err(CoreError::TaskCountFixed {
            checkpointed: manifest.ntasks,
            restarting: ctx.ntasks(),
        });
    }

    // Initialization: application text.
    let t0 = load_text(ctx, fs, &cfg.app)?;
    let t1 = ctx.now();

    // Each task reads its own (large, sequential) segment file. The handle
    // shares the stored bytes, so every task checks its file against its
    // manifest record and decodes it at once, one copy per byte. A task
    // whose file cannot be sized still joins the read phase, with no
    // request, and every failure waits for the closing vote so the tasks
    // fail together.
    let path = task_segment_path(prefix, ctx.rank());
    let record = &path[prefix.len() + 1..]; // `task-{rank}`, its record's name
    let len = fs.size(&path);
    let reqs = len.iter().map(|&len| ReadReq {
        path: path.clone(),
        offset: 0,
        len,
        access: ReadAccess::Sequential,
    });
    let read = fs.collective_read(ctx, reqs.collect());
    let segment = len.and(read).map_err(CoreError::from).and_then(|got| {
        // The file was sized, so there was exactly one request.
        let bytes = &got[0];
        check_record(&manifest, record, prefix, bytes, true)?;
        Ok(DataSegment::decode_serial(bytes)?)
    });
    closing_vote(ctx, segment.as_ref().err().cloned())?;
    let segment = segment?;
    let t2 = ctx.now();

    let total: u64 =
        (0..ctx.ntasks()).map(|r| fs.size(&task_segment_path(prefix, r)).unwrap_or(0)).sum();
    phase_span(ctx, Phase::Init, markers::LOAD_TEXT, t0, t1);
    phase_span(ctx, Phase::Segment, markers::SPMD_READ_SEGMENT, t1, t2);
    record_bytes(ctx, total, 0);
    Ok((
        segment,
        OpBreakdown {
            init: t1 - t0,
            segment: t2 - t1,
            arrays: 0.0,
            segment_bytes: total,
            array_bytes: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::RegionKind;
    use drms_darray::{DistArray, Distribution};
    use drms_msg::{run_spmd, CostModel};
    use drms_piofs::PiofsConfig;
    use drms_slices::{Order, Slice};
    use std::sync::Arc;

    fn setup() -> (Arc<Piofs>, DrmsConfig) {
        let fs = Piofs::new(PiofsConfig::test_tiny(4), 11);
        let mut cfg = DrmsConfig::new("toy");
        cfg.text_bytes = 1024;
        crate::Drms::install_binary(&fs, &cfg);
        (fs, cfg)
    }

    fn make_array(rank: usize, p: usize) -> DistArray<f64> {
        let dom = Slice::boxed(&[(0, 15)]);
        let dist = Distribution::block(&dom, &[p], &[1]).unwrap();
        let mut a = DistArray::new("u", Order::ColumnMajor, dist, rank);
        a.fill_mapped(|pt| pt[0] as f64 * 2.0);
        a
    }

    #[test]
    fn checkpoint_restart_same_task_count() {
        let (fs, cfg) = setup();
        run_spmd(4, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 4);
            let mut seg = DataSegment::new();
            seg.set_control("iter", 7);
            let report = checkpoint(ctx, &fs, &cfg, "ck/spmd", &seg, &[&a], 1).unwrap();
            assert!(report.segment > 0.0 || report.segment_bytes > 0);
            assert_eq!(report.array_bytes, 0);

            let (restored, rep) = restart(ctx, &fs, &cfg, "ck/spmd").unwrap();
            assert_eq!(restored.control("iter"), Some(7));
            assert!(rep.init >= 0.0);

            // Restore arrays from the local-sections region.
            let mut b = DistArray::<f64>::new(
                "u",
                Order::ColumnMajor,
                Distribution::block(&Slice::boxed(&[(0, 15)]), &[4], &[1]).unwrap(),
                ctx.rank(),
            );
            let blob = restored.region("local-sections").unwrap();
            crate::handle::decode_locals(&mut [&mut b], &blob.bytes).unwrap();
            assert_eq!(b.local(), a.local());
        })
        .unwrap();
        // One file per task plus the manifest.
        assert_eq!(fs.list("ck/spmd/").len(), 5);
    }

    #[test]
    fn restart_with_different_task_count_rejected() {
        let (fs, cfg) = setup();
        run_spmd(4, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 4);
            let seg = DataSegment::new();
            checkpoint(ctx, &fs, &cfg, "ck/s", &seg, &[&a], 1).unwrap();
        })
        .unwrap();
        let out =
            run_spmd(2, CostModel::default(), |ctx| restart(ctx, &fs, &cfg, "ck/s").err().unwrap())
                .unwrap();
        assert!(matches!(out[0], CoreError::TaskCountFixed { checkpointed: 4, restarting: 2 }));
    }

    #[test]
    fn saved_state_grows_linearly_with_tasks() {
        let (fs, cfg) = setup();
        let mut sizes = Vec::new();
        for p in [2usize, 4] {
            let prefix = format!("ck/grow{p}");
            run_spmd(p, CostModel::default(), |ctx| {
                let dom = Slice::boxed(&[(0, 63)]);
                let dist = Distribution::block(&dom, &[p], &[0]).unwrap();
                let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
                a.fill_mapped(|pt| pt[0] as f64);
                let mut seg = DataSegment::new();
                // Fixed-size private region, like real replicated state.
                seg.set_region("work", RegionKind::PrivateData, vec![1; 4096]);
                let mut cfg = cfg.clone();
                cfg.fixed_local_bytes = 64 * 8 / 2; // compiled for 2 tasks minimum
                checkpoint(ctx, &fs, &cfg, &prefix, &seg, &[&a], 1).unwrap();
            })
            .unwrap();
            sizes.push(fs.total_bytes(&format!("{prefix}/")));
        }
        // Doubling tasks roughly doubles the saved state.
        let ratio = sizes[1] as f64 / sizes[0] as f64;
        assert!(ratio > 1.8 && ratio < 2.2, "sizes {sizes:?}");
    }

    #[test]
    fn restart_rejects_another_apps_checkpoint() {
        let (fs, cfg) = setup();
        run_spmd(2, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 2);
            let mut seg = DataSegment::new();
            seg.set_control("iter", 3);
            checkpoint(ctx, &fs, &cfg, "ck/toy", &seg, &[&a], 1).unwrap();
            let err = restart(ctx, &fs, &DrmsConfig::new("other"), "ck/toy").err().unwrap();
            let CoreError::ManifestMismatch(text) = err else { panic!("{err}") };
            assert!(text.contains("belongs to app \"toy\""), "{text}");
        })
        .unwrap();
    }

    #[test]
    fn restart_fails_every_task_at_once_when_one_cannot_decode() {
        let (fs, cfg) = setup();
        run_spmd(2, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 2);
            checkpoint(ctx, &fs, &cfg, "ck/rot", &DataSegment::new(), &[&a], 1).unwrap();
        })
        .unwrap();
        assert_eq!(fs.corrupt_range(&task_segment_path("ck/rot", 1), 0, 1, 3), 1);
        let started = std::time::Instant::now();
        let errs = run_spmd(2, CostModel::default(), |ctx| {
            restart(ctx, &fs, &cfg, "ck/rot").err().unwrap()
        })
        .unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert!(matches!(errs[1], CoreError::Integrity(_)), "{}", errs[1]);
        assert_eq!(errs[0], errs[1]);
    }

    /// Checkpoints `p` tasks, each with its array and `iter` in the segment.
    fn checkpoint_toy(fs: &Piofs, cfg: &DrmsConfig, prefix: &str, p: usize, iter: i64) {
        run_spmd(p, CostModel::default(), |ctx| {
            let mut a = make_array(ctx.rank(), p);
            a.fill_mapped(|pt| (pt[0] * iter) as f64);
            let mut seg = DataSegment::new();
            seg.set_control("iter", iter);
            checkpoint(ctx, fs, cfg, prefix, &seg, &[&a], 1).unwrap();
        })
        .unwrap();
    }

    /// Each rank's restart outcome: its restored `iter`, or its error.
    fn restart_all(
        fs: &Piofs,
        cfg: &DrmsConfig,
        prefix: &str,
        p: usize,
    ) -> Vec<Result<Option<i64>>> {
        run_spmd(p, CostModel::default(), |ctx| {
            restart(ctx, fs, cfg, prefix).map(|(seg, _)| seg.control("iter"))
        })
        .unwrap()
    }

    /// Flips every byte of every task's segment in turn: each flip must
    /// fail the restart on every rank, none may restore rotted bytes.
    fn every_flip_fails_every_rank(p: usize) {
        let (fs, cfg) = setup();
        let prefix = format!("ck/sweep{p}");
        checkpoint_toy(&fs, &cfg, &prefix, p, 3);
        for rank in 0..p {
            let path = task_segment_path(&prefix, rank);
            for offset in 0..fs.size(&path).unwrap() {
                assert_eq!(fs.corrupt_range(&path, offset, 1, offset), 1);
                let out = restart_all(&fs, &cfg, &prefix, p);
                assert!(
                    out.iter().all(Result::is_err),
                    "task {rank}, byte {offset} flipped: {out:?}"
                );
                // The same flip again restores the byte.
                fs.corrupt_range(&path, offset, 1, offset);
            }
        }
        assert!(restart_all(&fs, &cfg, &prefix, p).into_iter().all(|r| r == Ok(Some(3))));
    }

    #[test]
    fn restart_refuses_every_single_byte_flip_on_one_task() {
        every_flip_fails_every_rank(1);
    }

    #[test]
    fn restart_refuses_every_single_byte_flip_on_two_tasks() {
        every_flip_fails_every_rank(2);
    }

    /// An overwrite in place that crashed before its manifest was
    /// published leaves the old manifest over the new bytes: refused, not
    /// restored as the old checkpoint.
    #[test]
    fn restart_refuses_an_old_manifest_over_new_bytes() {
        let (fs, cfg) = setup();
        checkpoint_toy(&fs, &cfg, "ck/over", 2, 3);
        let old = fs.peek(&manifest_path("ck/over")).unwrap();
        checkpoint_toy(&fs, &cfg, "ck/over", 2, 4);
        assert!(restart_all(&fs, &cfg, "ck/over", 2).into_iter().all(|r| r == Ok(Some(4))));
        fs.preload(&manifest_path("ck/over"), old);
        for err in restart_all(&fs, &cfg, "ck/over", 2) {
            let Err(CoreError::Integrity(text)) = err else { panic!("{err:?}") };
            assert!(text.contains("fails checksum verification"), "{text}");
        }
    }

    #[test]
    fn restart_refuses_a_segment_without_a_record() {
        let (fs, cfg) = setup();
        checkpoint_toy(&fs, &cfg, "ck/bare", 2, 3);
        let mut manifest = Manifest::decode(&fs.peek(&manifest_path("ck/bare")).unwrap()).unwrap();
        manifest.integrity.retain(|fi| fi.name != "task-1");
        fs.preload(&manifest_path("ck/bare"), manifest.encode());
        let errs = restart_all(&fs, &cfg, "ck/bare", 2);
        let Err(CoreError::Integrity(text)) = &errs[0] else { panic!("{errs:?}") };
        assert_eq!(text, "task-1 of \"ck/bare\" has no integrity record");
        assert_eq!(errs[0], errs[1]);
    }

    #[test]
    fn restart_rejects_drms_checkpoint() {
        let (fs, cfg) = setup();
        run_spmd(2, CostModel::default(), |ctx| {
            let a = make_array(ctx.rank(), 2);
            let mut drms =
                crate::Drms::initialize(ctx, &fs, cfg.clone(), crate::EnableFlag::new(), None)
                    .map(|(d, _)| d)
                    .unwrap();
            let seg = DataSegment::new();
            drms.reconfig_checkpoint(ctx, &fs, "ck/d", &seg, &[&a]).unwrap();
            let err = restart(ctx, &fs, &cfg, "ck/d").err().unwrap();
            assert!(matches!(err, CoreError::ManifestMismatch(_)));
        })
        .unwrap();
    }
}
