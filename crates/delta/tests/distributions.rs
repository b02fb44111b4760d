//! A checkpoint taken under a cyclic distribution restarts bitwise under
//! other distribution kinds and task counts, on the full path and from a
//! delta chain. An array's stream is distribution-independent, so neither
//! the writers' distribution nor the readers' may show in what is restored.

use drms_core::manifest::Manifest;
use drms_core::segment::DataSegment;
use drms_core::{Drms, DrmsConfig, EnableFlag, Start};
use drms_darray::{DistArray, Distribution};
use drms_delta::{delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms_msg::{run_spmd, CostModel, Ctx};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

const ROWS: i64 = 64;
const COLS: i64 = 32;

fn domain() -> Slice {
    Slice::boxed(&[(1, ROWS), (0, COLS - 1)])
}

fn cfg() -> DrmsConfig {
    DrmsConfig::new("dist")
}

/// The value at `p` after `link` checkpoints. Link `k` rewrites row `4k`;
/// under row-major order a row is 256 bytes, so each link dirties its own
/// 1 KiB chunk of the stream, and the third link reaches into both packs
/// before it.
fn value(p: &[i64], link: i64) -> f64 {
    let base = (p[0] * 131 + p[1] * 7) as f64 + 0.375;
    if p[0] % 4 == 0 && p[0] / 4 <= link {
        base + p[0] as f64 * 0.5
    } else {
        base
    }
}

/// How a run lays `u` out over its tasks.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Cyclic along the axis.
    Cyclic(usize),
    BlockAuto,
    /// Blocks of whole rows, one per task.
    Block,
}

fn array(ctx: &Ctx, order: Order, layout: Layout) -> DistArray<f64> {
    let (dom, p) = (domain(), ctx.ntasks());
    let dist = match layout {
        Layout::Cyclic(axis) => Distribution::cyclic(&dom, p, axis),
        Layout::BlockAuto => Distribution::block_auto(&dom, p, 1),
        Layout::Block => Distribution::block(&dom, &[p, 1], &[1, 1]),
    };
    DistArray::new("u", order, dist.unwrap(), ctx.rank())
}

/// This task's restored iteration, its assigned points, and how many of
/// them differ from `value(_, link)` in any bit.
fn tally(seg: &DataSegment, u: &DistArray<f64>, link: i64) -> (Option<i64>, usize, usize) {
    let (seen, bad) = u.fold_assigned((0, 0), |(seen, bad), p, v| {
        (seen + 1, bad + usize::from(v.to_bits() != value(p, link).to_bits()))
    });
    (seg.control("iter"), seen, bad)
}

/// Every task restored iteration `link`, and together they hold every
/// point of the domain, each bit for bit.
fn assert_bitwise(got: &[(Option<i64>, usize, usize)], link: i64, what: &str) {
    assert!(got.iter().all(|g| g.0 == Some(link)), "{what}: {got:?}");
    let seen: usize = got.iter().map(|g| g.1).sum();
    let bad: usize = got.iter().map(|g| g.2).sum();
    assert_eq!((seen, bad), (domain().size(), 0), "{what}");
}

#[test]
fn a_full_checkpoint_under_cyclic_restarts_bitwise_under_block_auto_and_cyclic() {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 17);
    let order = Order::ColumnMajor;
    run_spmd(3, CostModel::default(), |ctx| {
        let (mut drms, _) = Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), None).unwrap();
        let mut u = array(ctx, order, Layout::Cyclic(0));
        u.fill_assigned(|p| value(p, 1));
        let mut seg = DataSegment::new();
        seg.set_control("iter", 1);
        drms.reconfig_checkpoint(ctx, &fs, "ck/full", &seg, &[&u]).unwrap();
    })
    .unwrap();
    for (ntasks, layout) in [(2, Layout::BlockAuto), (4, Layout::Cyclic(1))] {
        let got = run_spmd(ntasks, CostModel::default(), |ctx| {
            let restart = Some("ck/full");
            let (drms, start) = Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), restart)
                .expect("the full checkpoint restarts");
            let Start::Restarted(info) = start else { panic!("expected a restart") };
            let mut u = array(ctx, order, layout);
            drms.restore_arrays(ctx, &fs, "ck/full", &info.manifest, &mut [&mut u]).unwrap();
            tally(&info.segment, &u, 1)
        })
        .unwrap();
        assert_bitwise(&got, 1, &format!("full, cyclic on 3 -> {layout:?} on {ntasks}"));
    }
}

#[test]
fn a_delta_chain_under_cyclic_restarts_bitwise_under_block_and_cyclic() {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 19);
    let order = Order::RowMajor;
    let dcfg = DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true };
    run_spmd(3, CostModel::default(), |ctx| {
        let (mut drms, _) = Drms::initialize(ctx, &fs, cfg(), EnableFlag::new(), None).unwrap();
        let mut u = array(ctx, order, Layout::Cyclic(1));
        let (mut chain, mut seg) = (DeltaChain::new(), DataSegment::new());
        for link in 1..=3 {
            u.fill_assigned(|p| value(p, link));
            seg.set_control("iter", link);
            let prefix = format!("ck/d{link}");
            delta_checkpoint(&mut drms, &mut chain, &dcfg, ctx, &fs, &prefix, &seg, &[&u]).unwrap();
        }
    })
    .unwrap();
    let last = Manifest::decode(&fs.peek("ck/d3/manifest").unwrap()).unwrap();
    let packs = last.referenced_packs();
    for earlier in ["ck/d1/", "ck/d2/"] {
        assert!(packs.iter().any(|p| p.starts_with(earlier)), "ck/d3 reaches {earlier}: {packs:?}");
    }
    for (ntasks, layout) in [(2, Layout::Block), (5, Layout::Cyclic(1))] {
        let got = run_spmd(ntasks, CostModel::default(), |ctx| {
            let (drms, start) = resume(ctx, &fs, cfg(), EnableFlag::new(), "ck/d3")
                .expect("the third link restarts");
            let Start::Restarted(info) = start else { panic!("expected a restart") };
            let mut u = array(ctx, order, layout);
            restore_arrays_delta(&drms, ctx, &fs, "ck/d3", &info.manifest, &mut [&mut u]).unwrap();
            tally(&info.segment, &u, 3)
        })
        .unwrap();
        assert_bitwise(&got, 3, &format!("delta, cyclic on 3 -> {layout:?} on {ntasks}"));
    }
}

/// The distributions above are what they say: a cyclic layout interleaves
/// its tasks' points, a block layout does not.
#[test]
fn the_layouts_differ() {
    let owners = |layout: Layout| -> Vec<Slice> {
        run_spmd(2, CostModel::free(), |ctx| {
            array(ctx, Order::ColumnMajor, layout).assigned().clone()
        })
        .unwrap()
    };
    let cyclic = owners(Layout::Cyclic(0));
    assert_eq!(cyclic[0].range(0).to_vec(), (1..=ROWS).step_by(2).collect::<Vec<_>>());
    let block = owners(Layout::Block);
    assert_eq!(block[0].range(0).to_vec(), (1..=ROWS / 2).collect::<Vec<_>>());
}
