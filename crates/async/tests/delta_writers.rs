//! The blocking and the asynchronous delta writer share one delta stage,
//! so the same state through the same chain must commit the same bytes:
//! a two-link chain (a full rewrite, then a delta with a quarter of each
//! array dirty) taken once with `delta_checkpoint` and once with
//! `AsyncCheckpointer::checkpoint_delta` plus `drain`, on two file systems
//! built alike, leaves byte-identical manifests and `delta-*` packs per
//! link and reports equal chunk statistics.

use std::sync::{Arc, Mutex};

use drms_async::{AsyncCheckpointer, AsyncConfig};
use drms_core::manifest::{delta_path, manifest_path};
use drms_core::segment::DataSegment;
use drms_core::{CheckpointArray, Drms, DrmsConfig, EnableFlag};
use drms_darray::{DistArray, Distribution};
use drms_delta::{delta_checkpoint, DeltaChain, DeltaConfig, StageStats};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

const N: i64 = 2048; // elements per array; 16 KiB streams, 16 chunks each
const NTASKS: usize = 3;
const PREFIXES: [&str; 2] = ["ck/d1", "ck/d2"];

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(4), 17)
}

fn dcfg() -> DeltaConfig {
    DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true }
}

/// Element value at `p` for link `link` of array `salt`: link 2 rewrites
/// the second quarter of each array; `v` is constant in runs so chunks
/// compress and dedup.
fn value(p: &[i64], link: usize, salt: i64) -> f64 {
    let dirty = link == 2 && (N / 4..N / 2).contains(&(p[0] - 1));
    let base = if salt == 0 { (p[0] * 7 + 3) as f64 } else { ((p[0] - 1) / 256) as f64 };
    base + if dirty { 0.5 } else { 0.0 }
}

/// Takes the two links on `f`, blocking or asynchronous; returns rank 0's
/// chunk statistics per link.
fn take_chain(f: &Arc<Piofs>, asynchronous: bool) -> Vec<StageStats> {
    let stats = Mutex::new(Vec::new());
    run_spmd(NTASKS, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, f, DrmsConfig::new("dwriters"), EnableFlag::new(), None).unwrap();
        let dom = Slice::boxed(&[(1, N)]);
        let dist = Distribution::block_auto(&dom, ctx.ntasks(), 0).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist.clone(), ctx.rank());
        let mut v = DistArray::<f64>::new("v", Order::ColumnMajor, dist, ctx.rank());
        let (mut chain, mut ck) =
            (DeltaChain::new(), AsyncCheckpointer::new(AsyncConfig::default()));
        let mut seg = DataSegment::new();
        for (i, prefix) in PREFIXES.iter().enumerate() {
            let link = i + 1;
            u.fill_assigned(|p| value(p, link, 0));
            v.fill_assigned(|p| value(p, link, 1));
            seg.set_control("link", link as i64);
            let arrays: [&dyn CheckpointArray; 2] = [&u, &v];
            let s = if asynchronous {
                let r = ck
                    .checkpoint_delta(ctx, f, &mut drms, &mut chain, &dcfg(), prefix, &seg, &arrays)
                    .unwrap();
                ck.drain(ctx);
                r.delta.expect("delta summary").stats
            } else {
                let r =
                    delta_checkpoint(&mut drms, &mut chain, &dcfg(), ctx, f, prefix, &seg, &arrays)
                        .unwrap();
                StageStats {
                    dirty: r.dirty_chunks,
                    clean: r.clean_chunks,
                    dedup: r.dedup_hits,
                    pack_bytes: r.pack_bytes,
                    saved: r.compressed_saved,
                }
            };
            if ctx.rank() == 0 {
                stats.lock().unwrap().push(s);
            }
        }
    })
    .unwrap();
    stats.into_inner().unwrap()
}

#[test]
fn blocking_and_async_delta_links_commit_identical_bytes() {
    let (fb, fa) = (fs(), fs());
    let blocking = take_chain(&fb, false);
    let asynchronous = take_chain(&fa, true);
    assert_eq!(blocking, asynchronous, "chunk statistics per link");
    assert!(blocking[1].clean > 0 && blocking[1].dirty > 0, "link 2 is a real delta");
    assert!(blocking[0].dedup > 0, "the constant runs of v dedup");

    for prefix in PREFIXES {
        let mut files = vec![manifest_path(prefix)];
        files.extend(["u", "v"].map(|a| delta_path(prefix, a)));
        for path in files {
            let bytes = fb.peek(&path).unwrap_or_else(|| panic!("blocking {path} missing"));
            assert_eq!(Some(bytes), fa.peek(&path), "{path} differs between the writers");
        }
    }
}
