//! End-to-end incremental checkpoint/restart: a sparse-update solver takes
//! a chain of delta checkpoints and restarts from any link, on any task
//! count, bitwise identical to the uninterrupted run.

use std::sync::{Arc, Mutex};

use drms_core::manifest::{delta_path, ChunkSource, CkptKind};
use drms_core::restore::{PiofsFull, RestartSource};
use drms_core::segment::DataSegment;
use drms_core::{find_checkpoints, verify, Drms, DrmsConfig, EnableFlag, Start};
use drms_darray::chunks::Codec;
use drms_darray::stream::StreamRange;
use drms_darray::{DistArray, Distribution};
use drms_delta::{
    delta_checkpoint, materialize_stream, restore_arrays_delta, resume, DeltaChain, DeltaConfig,
    DeltaReport, DeltaSource,
};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig, ReadAccess};
use drms_slices::{Order, Slice};

const N: i64 = 4096; // elements of u
const CHUNK: u64 = 1024; // bytes; 128 elements per chunk, 32 chunks
const BAND: i64 = 512; // elements per update band: 4 chunks of the 32

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(8), 11)
}

fn cfg() -> DrmsConfig {
    let mut c = DrmsConfig::new("mini");
    c.text_bytes = 4096;
    c
}

fn dcfg() -> DeltaConfig {
    DeltaConfig { chunk_bytes: CHUNK, full_every: 8, compress: true }
}

fn domain() -> Slice {
    Slice::boxed(&[(1, N)])
}

/// Which band iteration `iter` updates (a moving contiguous window of the
/// canonical stream, 1/8 of the array).
fn touched(p: &[i64], iter: i64) -> bool {
    (p[0] - 1) / BAND == iter % (N / BAND)
}

/// Ground truth at `(p, iter)`: the initial fill plus 0.5 per iteration
/// whose band covered `p`.
fn truth(p: &[i64], iter: i64) -> f64 {
    let mut v = (p[0] * 3 + 1) as f64;
    for t in 1..=iter {
        if touched(p, t) {
            v += 0.5;
        }
    }
    v
}

/// The canonical stream of `u` at `iter` — domain points in array order,
/// little-endian — which delta restore must reproduce bitwise.
fn expected_stream(iter: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity((N * 8) as usize);
    domain()
        .points(Order::ColumnMajor)
        .for_each(|p| out.extend_from_slice(&truth(p, iter).to_le_bytes()));
    out
}

/// Runs the sparse-update app for `end_iter` iterations on `ntasks`,
/// delta-checkpointing at every iteration in `ckpts` (prefix `ck/d{iter}`),
/// optionally restarting from a committed delta prefix. Returns per-task
/// final sums; rank 0's checkpoint reports land in `reports`.
fn run_app(
    fs: &Arc<Piofs>,
    ntasks: usize,
    restart_from: Option<&str>,
    ckpts: &[i64],
    end_iter: i64,
    dc: &DeltaConfig,
    reports: &Mutex<Vec<DeltaReport>>,
) -> Vec<f64> {
    run_spmd(ntasks, CostModel::default(), |ctx| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        let mut chain;
        let mut drms = match restart_from {
            None => {
                let (drms, start) =
                    Drms::initialize(ctx, fs, cfg(), EnableFlag::new(), None).unwrap();
                assert!(matches!(start, Start::Fresh));
                chain = DeltaChain::new();
                u.fill_assigned(|p| truth(p, 0));
                drms
            }
            Some(prefix) => {
                let (drms, start) = resume(ctx, fs, cfg(), EnableFlag::new(), prefix).unwrap();
                let Start::Restarted(info) = start else { panic!("expected restart") };
                seg = info.segment.clone();
                start_iter = seg.control("iter").unwrap() + 1;
                restore_arrays_delta(&drms, ctx, fs, prefix, &info.manifest, &mut [&mut u])
                    .unwrap();
                chain = DeltaChain::recover(prefix, &info.manifest).unwrap();
                drms
            }
        };
        for iter in start_iter..=end_iter {
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                if touched(p, iter) {
                    let v = u.get(p).unwrap();
                    u.set(p, v + 0.5).unwrap();
                }
            });
            seg.set_control("iter", iter);
            if ckpts.contains(&iter) {
                let r = delta_checkpoint(
                    &mut drms,
                    &mut chain,
                    dc,
                    ctx,
                    fs,
                    &format!("ck/d{iter}"),
                    &seg,
                    &[&u],
                )
                .unwrap();
                if ctx.rank() == 0 {
                    reports.lock().unwrap().push(r);
                }
            }
        }
        u.fold_assigned(0.0, |acc, _, v| acc + v)
    })
    .unwrap()
}

#[test]
fn delta_restart_is_bitwise_identical_on_any_task_count() {
    let reports = Mutex::new(Vec::new());
    let reference: f64 = run_app(&fs(), 4, None, &[], 10, &dcfg(), &reports).into_iter().sum();

    for restart_tasks in [2usize, 4, 6] {
        let f = fs();
        let reports = Mutex::new(Vec::new());
        run_app(&f, 4, None, &[3, 6], 6, &dcfg(), &reports);
        let total: f64 =
            run_app(&f, restart_tasks, Some("ck/d6"), &[], 10, &dcfg(), &reports).into_iter().sum();
        assert_eq!(
            total, reference,
            "delta restart with {restart_tasks} tasks diverged from uninterrupted run"
        );
    }
}

#[test]
fn deltas_shrink_and_materialize_bitwise() {
    let f = fs();
    let reports = Mutex::new(Vec::new());
    run_app(&f, 4, None, &[3, 6], 6, &dcfg(), &reports);
    let reports = reports.into_inner().unwrap();
    assert_eq!(reports.len(), 2);

    // First checkpoint of the chain is a full rewrite; the second is a
    // delta that carries clean chunks forward and writes far less.
    assert!(reports[0].full && !reports[1].full);
    assert_eq!(reports[0].clean_chunks, 0, "full rewrite carries nothing forward");
    assert!(reports[1].clean_chunks > 0, "delta carried nothing forward");
    assert!(
        reports[1].pack_bytes * 2 <= reports[0].pack_bytes,
        "delta wrote {} pack bytes vs {} full",
        reports[1].pack_bytes,
        reports[0].pack_bytes
    );
    assert_eq!(reports[1].chain_depth, 1);

    // Both links verify and materialize bitwise against ground truth.
    let found = find_checkpoints(&f, Some("mini"));
    for (prefix, iter) in [("ck/d3", 3i64), ("ck/d6", 6)] {
        let (_, m) = found.iter().find(|(p, _)| p == prefix).expect("committed");
        assert_eq!(m.kind, CkptKind::DrmsDelta);
        assert!(verify(&f, prefix).is_valid(), "{prefix} fails validation");
        assert_eq!(
            materialize_stream(&f, prefix, m, "u").unwrap(),
            expected_stream(iter),
            "{prefix} does not materialize bitwise"
        );
    }

    // The delta link references the full link's pack by prefix, one hop.
    let (_, m6) = found.iter().find(|(p, _)| p == "ck/d6").unwrap();
    let d = m6.delta("u").unwrap();
    assert_eq!(d.chunk_bytes, CHUNK);
    let mut refs = 0;
    for c in &d.chunks {
        if let ChunkSource::Ref { prefix, array } = &c.source {
            assert_eq!((prefix.as_str(), array.as_str()), ("ck/d3", "u"));
            refs += 1;
        }
    }
    assert!(refs > 0, "delta manifest holds no references");
}

#[test]
fn full_every_bounds_the_chain() {
    let f = fs();
    let reports = Mutex::new(Vec::new());
    let dc = DeltaConfig { full_every: 2, ..dcfg() };
    run_app(&f, 2, None, &[1, 2, 3, 4], 4, &dc, &reports);
    let fulls: Vec<bool> = reports.into_inner().unwrap().iter().map(|r| r.full).collect();
    // Epoch of 2: at most one incremental between full rewrites.
    assert_eq!(fulls, vec![true, false, true, false]);
    // A full rewrite is self-contained: no references out of its manifest.
    let found = find_checkpoints(&f, Some("mini"));
    let (_, m3) = found.iter().find(|(p, _)| p == "ck/d3").unwrap();
    assert!(m3.referenced_packs().is_empty(), "full rewrite references prior incarnations");
}

#[test]
fn constant_arrays_compress_and_round_trip() {
    let f = fs();
    run_spmd(2, CostModel::default(), |ctx| {
        let (mut drms, _) = Drms::initialize(ctx, &f, cfg(), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut flat = DistArray::<f64>::new("flat", Order::ColumnMajor, dist, ctx.rank());
        flat.fill_assigned(|_| 0.0);
        let mut chain = DeltaChain::new();
        let r = delta_checkpoint(
            &mut drms,
            &mut chain,
            &dcfg(),
            ctx,
            &f,
            "ck/flat",
            &DataSegment::new(),
            &[&flat],
        )
        .unwrap();
        if ctx.rank() == 0 {
            // An all-zero stream: one stored chunk (RLE-compressed), the
            // rest deduplicated against it inside the same pack.
            assert!(r.compressed_saved > 0, "constant chunks did not compress");
            assert!(r.dedup_hits >= 30, "constant chunks did not dedup: {}", r.dedup_hits);
            assert!(r.pack_bytes < CHUNK, "pack is {} bytes", r.pack_bytes);
        }
    })
    .unwrap();
    let (prefix, m) = find_checkpoints(&f, Some("mini")).remove(0);
    let d = m.delta("flat").unwrap();
    assert!(d.chunks.iter().any(|c| c.codec == Codec::Rle));
    assert_eq!(materialize_stream(&f, &prefix, &m, "flat").unwrap(), vec![0u8; (N * 8) as usize]);
    // Compression never leaks into pack size beyond what was stored.
    assert!(f.size(&delta_path(&prefix, "flat")).unwrap() < CHUNK);
}

#[test]
fn initialize_and_resume_reject_each_others_kind() {
    let f = fs();
    let reports = Mutex::new(Vec::new());
    run_app(&f, 2, None, &[2], 2, &dcfg(), &reports);
    run_spmd(2, CostModel::default(), |ctx| {
        // The classic entry point refuses a delta manifest...
        let err = Drms::initialize(ctx, &f, cfg(), EnableFlag::new(), Some("ck/d2"));
        assert!(err.is_err(), "initialize accepted a delta checkpoint");
        // ...and writes a classic checkpoint that `resume` refuses.
        let (mut drms, _) = Drms::initialize(ctx, &f, cfg(), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(|p| truth(p, 0));
        drms.reconfig_checkpoint(ctx, &f, "ck/full", &DataSegment::new(), &[&u]).unwrap();
        let err = resume(ctx, &f, cfg(), EnableFlag::new(), "ck/full");
        assert!(err.is_err(), "resume accepted a full checkpoint");
    })
    .unwrap();
}

#[test]
fn fresh_prefix_is_required() {
    let f = fs();
    let reports = Mutex::new(Vec::new());
    run_app(&f, 2, None, &[2], 2, &dcfg(), &reports);
    run_spmd(2, CostModel::default(), |ctx| {
        let (mut drms, start) = resume(ctx, &f, cfg(), EnableFlag::new(), "ck/d2").unwrap();
        let Start::Restarted(info) = start else { panic!("expected restart") };
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        restore_arrays_delta(&drms, ctx, &f, "ck/d2", &info.manifest, &mut [&mut u]).unwrap();
        let mut chain = DeltaChain::recover("ck/d2", &info.manifest).unwrap();
        let err = delta_checkpoint(
            &mut drms,
            &mut chain,
            &dcfg(),
            ctx,
            &f,
            "ck/d2", // already committed: would clobber a referenced link
            &DataSegment::new(),
            &[&u],
        );
        assert!(err.is_err(), "delta checkpoint overwrote a committed prefix");
        // The chain aborted cleanly: the next checkpoint to a fresh prefix
        // still works and still carries clean chunks forward.
        let r = delta_checkpoint(
            &mut drms,
            &mut chain,
            &dcfg(),
            ctx,
            &f,
            "ck/d2b",
            &DataSegment::new(),
            &[&u],
        )
        .unwrap();
        if ctx.rank() == 0 {
            assert!(!r.full);
            assert_eq!(r.dirty_chunks, 0, "unchanged array re-stored chunks");
        }
    })
    .unwrap();
}

#[test]
fn a_chunk_that_rots_after_commit_fails_every_task_promptly() {
    // Chunk 20 of 32 lies in the third of four stream pieces, so on 4 tasks
    // only rank 2's fetch meets it. That rank must not leave its siblings
    // waiting in the wave's redistribution: every task returns the error,
    // in well under the collectives' stall guard.
    let f = fs();
    let reports = Mutex::new(Vec::new());
    run_app(&f, 4, None, &[1, 2], 2, &dcfg(), &reports);
    let outcomes = run_spmd(4, CostModel::default(), |ctx| {
        let (drms, start) = resume(ctx, &f, cfg(), EnableFlag::new(), "ck/d2").unwrap();
        let Start::Restarted(info) = start else { panic!("resume always restarts") };
        if ctx.rank() == 0 {
            let chunk = &info.manifest.delta("u").unwrap().chunks[20];
            f.corrupt_range(&chunk.pack_path("ck/d2", "u"), chunk.offset, 1, 7);
        }
        ctx.barrier();
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let began = std::time::Instant::now();
        let restored = restore_arrays_delta(&drms, ctx, &f, "ck/d2", &info.manifest, &mut [&mut u]);
        // A range the chunk table cannot serve is refused after the fetch's
        // collective read, not instead of it: rank 3 asks past the stream.
        let link = DeltaSource(PiofsFull { fs: &f, prefix: "ck/d2" });
        let offset = if ctx.rank() == 3 { (N * 8) as u64 } else { 0 };
        let range = StreamRange { offset, len: 8, access: ReadAccess::Strided };
        let fetched = link.fetch_range(ctx, &info.manifest, "u", range, &mut Vec::new());
        (restored.map_err(|e| e.to_string()), fetched.is_ok(), began.elapsed())
    })
    .unwrap();
    for (rank, (restored, fetched, took)) in outcomes.iter().enumerate() {
        let err = restored.as_ref().expect_err("a rotted chunk must fail the restore");
        assert!(err.contains("chunk 20"), "rank {rank} reported {err}");
        assert_eq!(*fetched, rank != 3, "rank {rank}'s range fetch");
        assert!(took.as_secs_f64() < 1.0, "rank {rank} returned after {took:?}");
    }
}
