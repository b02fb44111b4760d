//! Property tests for the reconfigurability invariants:
//!
//! * redistribution between arbitrary distributions preserves every element;
//! * a streamed section is distribution-independent: writing with `P1` tasks
//!   and reading with `P2` tasks (any distributions, any I/O parallelism)
//!   restores every element exactly — also at the mini-apps' shape (4-D,
//!   component axis undivided, spatial shadows) for every element width;
//! * the run walk that packs and unpacks regions visits exactly the flat
//!   indices of the point walk, in order, in maximal runs.

use std::sync::Arc;

use drms_darray::{
    assign, factorize, for_each_region_run, stream, DistArray, Distribution, Element,
};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Range, Slice};
use proptest::collection;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum DistChoice {
    BlockAuto { shadow: usize },
    BlockGrid { axis_bias: usize, shadow: usize },
    Cyclic { axis: usize },
}

fn arb_dist() -> impl Strategy<Value = DistChoice> {
    prop_oneof![
        (0usize..3).prop_map(|shadow| DistChoice::BlockAuto { shadow }),
        (0usize..2, 0usize..2)
            .prop_map(|(axis_bias, shadow)| DistChoice::BlockGrid { axis_bias, shadow }),
        (0usize..2).prop_map(|axis| DistChoice::Cyclic { axis }),
    ]
}

fn build_dist(choice: &DistChoice, domain: &Slice, ntasks: usize) -> Arc<Distribution> {
    match choice {
        DistChoice::BlockAuto { shadow } => {
            Distribution::block_auto(domain, ntasks, *shadow).expect("block auto")
        }
        DistChoice::BlockGrid { axis_bias, shadow } => {
            // Put all parts on one axis.
            let mut parts = vec![1usize; domain.rank()];
            let ax = *axis_bias % domain.rank();
            parts[ax] = ntasks;
            let shadows = vec![*shadow; domain.rank()];
            Distribution::block(domain, &parts, &shadows).expect("block grid")
        }
        DistChoice::Cyclic { axis } => {
            Distribution::cyclic(domain, ntasks, *axis % domain.rank()).expect("cyclic")
        }
    }
}

fn value(p: &[i64]) -> f64 {
    p.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * (x as f64 + 0.25)).product::<f64>() + 1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn redistribution_preserves_all_elements(
        rows in 4i64..20,
        cols in 4i64..20,
        p in 1usize..5,
        src in arb_dist(),
        dst in arb_dist(),
    ) {
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        let src_dist = build_dist(&src, &dom, p);
        let dst_dist = build_dist(&dst, &dom, p);
        let results = run_spmd(p, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("a", Order::ColumnMajor, src_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            let b = assign::redistribute(ctx, &a, dst_dist.clone()).unwrap();
            // Check every mapped element against the ground truth.
            let mut bad = 0usize;
            b.mapped().clone().points(Order::ColumnMajor).for_each(|pt| {
                if b.get(pt).unwrap() != value(pt) {
                    bad += 1;
                }
            });
            bad
        }).unwrap();
        prop_assert_eq!(results.into_iter().sum::<usize>(), 0);
    }

    #[test]
    fn streaming_is_reconfigurable(
        rows in 4i64..16,
        cols in 4i64..16,
        p1 in 1usize..5,
        p2 in 1usize..5,
        d1 in arb_dist(),
        d2 in arb_dist(),
        io1 in 1usize..5,
        io2 in 1usize..5,
    ) {
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let w_dist = build_dist(&d1, &dom, p1);
        run_spmd(p1, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, w_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs, &a, "u", io1).unwrap();
        }).unwrap();

        let r_dist = build_dist(&d2, &dom, p2);
        let results = run_spmd(p2, CostModel::default(), |ctx| {
            let mut b = DistArray::<f64>::new("u", Order::ColumnMajor, r_dist.clone(), ctx.rank());
            stream::read_array(ctx, &fs, &mut b, "u", io2).unwrap();
            let mut bad = 0usize;
            b.mapped().clone().points(Order::ColumnMajor).for_each(|pt| {
                if b.get(pt).unwrap() != value(pt) {
                    bad += 1;
                }
            });
            bad
        }).unwrap();
        prop_assert_eq!(results.into_iter().sum::<usize>(), 0);
    }

    #[test]
    fn stream_bytes_independent_of_writer_config(
        rows in 4i64..12,
        cols in 4i64..12,
        p in 1usize..5,
        d in arb_dist(),
        io in 1usize..5,
    ) {
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        // Reference stream: serial write from one task.
        let fs_ref = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let ref_dist = Distribution::block_auto(&dom, 1, 0).unwrap();
        run_spmd(1, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, ref_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs_ref, &a, "u", 1).unwrap();
        }).unwrap();

        let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let dist = build_dist(&d, &dom, p);
        run_spmd(p, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs, &a, "u", io).unwrap();
        }).unwrap();

        prop_assert_eq!(fs.peek("u").unwrap(), fs_ref.peek("u").unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// C-style (row-major) arrays stream and reconfigure just like
    /// Fortran-style ones; the two orders produce different byte streams
    /// for the same data, and each reads back exactly.
    #[test]
    fn row_major_streams_are_reconfigurable(
        rows in 4i64..12,
        cols in 4i64..12,
        p1 in 1usize..4,
        p2 in 1usize..4,
    ) {
        // Asymmetric in the axes, so transposed enumerations differ.
        fn value(p: &[i64]) -> f64 {
            (p[0] * 1000 + p[1]) as f64 + 0.5
        }
        let dom = Slice::boxed(&[(0, rows - 1), (0, cols - 1)]);
        let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
        let w_dist = Distribution::block_auto(&dom, p1, 1).unwrap();
        run_spmd(p1, CostModel::default(), |ctx| {
            let mut a = DistArray::<f64>::new("u", Order::RowMajor, w_dist.clone(), ctx.rank());
            a.fill_assigned(value);
            stream::write_array(ctx, &fs, &a, "u", p1).unwrap();
        }).unwrap();

        let r_dist = Distribution::block_auto(&dom, p2, 0).unwrap();
        let bad: usize = run_spmd(p2, CostModel::default(), |ctx| {
            let mut b = DistArray::<f64>::new("u", Order::RowMajor, r_dist.clone(), ctx.rank());
            stream::read_array(ctx, &fs, &mut b, "u", p2).unwrap();
            let mut bad = 0usize;
            b.mapped().clone().points(Order::RowMajor).for_each(|pt| {
                if b.get(pt).unwrap() != value(pt) {
                    bad += 1;
                }
            });
            bad
        }).unwrap().into_iter().sum();
        prop_assert_eq!(bad, 0);

        // Cross-check: a column-major stream of the same data differs
        // byte-wise (unless the section is one-dimensional in effect).
        if rows > 1 && cols > 1 {
            let fs2 = Piofs::new(PiofsConfig::test_tiny(4), 3);
            let dist1 = Distribution::block_auto(&dom, 1, 0).unwrap();
            run_spmd(1, CostModel::default(), |ctx| {
                let mut a =
                    DistArray::<f64>::new("u", Order::ColumnMajor, dist1.clone(), ctx.rank());
                a.fill_assigned(value);
                stream::write_array(ctx, &fs2, &a, "u", 1).unwrap();
            }).unwrap();
            prop_assert_ne!(fs.peek("u").unwrap(), fs2.peek("u").unwrap());
        }
    }
}

/// One axis of a run-walk case. The mapped range: kind 0 contiguous, 1
/// strided, 2 explicit (first index, length, stride, explicit gaps). The
/// region's positions within it: kind 0 all, 1 a window, 2 every k-th,
/// 3 a bit mask.
type AxisCase = ((u8, i64, usize, i64, Vec<i64>), (u8, usize, usize, u32));

fn arb_axis() -> impl Strategy<Value = AxisCase> {
    (
        (0u8..3, -3i64..4, 1usize..7, 2i64..4, collection::vec(1i64..4, 6..7)),
        (0u8..4, 0usize..8, 0usize..8, 0u32..256),
    )
}

fn axis_ranges(((kind, lo, len, step, gaps), (pick, a, b, mask)): &AxisCase) -> (Range, Range) {
    let mut at = *lo;
    let mapped: Vec<i64> = (0..*len)
        .map(|i| {
            if i > 0 {
                at += match kind {
                    0 => 1,
                    1 => *step,
                    _ => gaps[i - 1],
                };
            }
            at
        })
        .collect();
    let keep = |i: usize| match pick {
        0 => true,
        1 => (a % len..=a % len + b).contains(&i),
        2 => i >= b % len && (i - b % len).is_multiple_of(a % 3 + 1),
        _ => mask >> i & 1 == 1,
    };
    let region: Vec<i64> =
        mapped.iter().enumerate().filter(|&(i, _)| keep(i)).map(|(_, &g)| g).collect();
    (Range::from_indices(&mapped).unwrap(), Range::from_indices(&region).unwrap())
}

/// Block distribution at the mini-apps' shape: axis 0 (the components) is
/// never divided and carries no shadow; the spatial axes are split over
/// `p` tasks with `shadow` overlap.
fn apps_dist(dom: &Slice, p: usize, shadow: usize) -> Arc<Distribution> {
    let mut parts = vec![1];
    parts.extend(factorize(p, &dom.extents()[1..]));
    Distribution::block(dom, &parts, &[0, shadow, shadow, shadow]).unwrap()
}

fn le_bytes<T: Element>(v: T) -> Vec<u8> {
    let mut out = vec![0u8; T::SIZE];
    v.write_le(&mut out);
    out
}

/// Writes a `5 × n0 × n1 × n2` array of `T` from `p1` tasks, reads it back on
/// `p2` tasks under other shadows, and checks every mapped element bitwise
/// and the stream (file, collected pieces and the stream gathered to rank 0)
/// against a 1-task serial write.
#[allow(clippy::too_many_arguments)]
fn apps_shape_roundtrip<T: Element>(
    value: fn(&[i64]) -> T,
    n: (i64, i64, i64),
    (p1, io1, s1): (usize, usize, usize),
    (p2, io2, s2): (usize, usize, usize),
    order: Order,
) {
    let dom = Slice::boxed(&[(1, 5), (1, n.0), (1, n.1), (1, n.2)]);
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
    let w_dist = apps_dist(&dom, p1, s1);
    let pieces = std::sync::Mutex::new(Vec::new());
    let gathered = run_spmd(p1, CostModel::default(), |ctx| {
        let mut a = DistArray::<T>::new("u", order, w_dist.clone(), ctx.rank());
        a.fill_assigned(value);
        stream::write_array(ctx, &fs, &a, "u", io1).unwrap();
        let mine = stream::collect_array_pieces(ctx, &a, io1).unwrap();
        pieces.lock().unwrap().extend(mine);
        stream::gather_stream(ctx, &a).unwrap()
    })
    .unwrap();

    let fs_ref = Piofs::new(PiofsConfig::test_tiny(4), 3);
    let ref_dist = Distribution::block_auto(&dom, 1, 0).unwrap();
    run_spmd(1, CostModel::default(), |ctx| {
        let mut a = DistArray::<T>::new("u", order, ref_dist.clone(), ctx.rank());
        a.fill_assigned(value);
        stream::write_array(ctx, &fs_ref, &a, "u", 1).unwrap();
    })
    .unwrap();
    let serial = fs_ref.peek("u").unwrap();
    assert_eq!(fs.peek("u").unwrap(), serial, "file stream vs serial write");
    let mut pieces = pieces.into_inner().unwrap();
    pieces.sort_by_key(|p| p.offset);
    let collected: Vec<u8> = pieces.into_iter().flat_map(|p| p.data).collect();
    assert_eq!(collected, serial, "collected pieces vs serial write");
    assert_eq!(gathered[0].as_ref(), Some(&serial), "stream gathered to rank 0 vs serial write");
    assert!(gathered[1..].iter().all(Option::is_none), "only rank 0 gathers the stream");

    let r_dist = apps_dist(&dom, p2, s2);
    let bad: usize = run_spmd(p2, CostModel::default(), |ctx| {
        let mut b = DistArray::<T>::new("u", order, r_dist.clone(), ctx.rank());
        stream::read_array(ctx, &fs, &mut b, "u", io2).unwrap();
        let mut bad = 0usize;
        b.mapped().clone().points(order).for_each(|pt| {
            if le_bytes(b.get(pt).unwrap()) != le_bytes(value(pt)) {
                bad += 1;
            }
        });
        bad
    })
    .unwrap()
    .into_iter()
    .sum();
    assert_eq!(bad, 0, "elements restored wrong");
}

fn mix(p: &[i64]) -> i64 {
    p.iter().fold(17i64, |h, &x| h.wrapping_mul(31).wrapping_add(x * 7 + 3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The run walk, expanded, is the point walk's flat-index sequence, and
    /// its runs are maximal: none is empty and none ends where the next
    /// begins.
    #[test]
    fn run_walk_expands_to_point_walk(
        axes in collection::vec(arb_axis(), 0..5),
        row_major in proptest::bool::ANY,
    ) {
        let (mapped, region): (Vec<Range>, Vec<Range>) = axes.iter().map(axis_ranges).unzip();
        let (mapped, region) = (Slice::new(mapped), Slice::new(region));
        let order = if row_major { Order::RowMajor } else { Order::ColumnMajor };
        let mut runs = Vec::new();
        for_each_region_run(&mapped, &region, order, |start, len| runs.push((start, len))).unwrap();
        let expanded: Vec<usize> = runs.iter().flat_map(|&(s, n)| s..s + n).collect();
        let mut points = Vec::new();
        region.points(order).for_each(|p| {
            points.push(mapped.stream_position(p, order).unwrap().unwrap());
        });
        prop_assert_eq!(expanded, points);
        prop_assert!(runs.iter().all(|&(_, n)| n > 0));
        prop_assert!(runs.windows(2).all(|w| w[0].0 + w[0].1 != w[1].0), "{runs:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming at the mini-apps' shape: 4-D, component axis undivided,
    /// spatial shadows 0–2, elements of 1, 4 and 8 bytes. A unit slip
    /// between elements and bytes, or a wrong merge of runs across axes,
    /// breaks the stream bytes or the restored values.
    #[test]
    fn apps_shape_streams_are_reconfigurable_for_every_width(
        n in (2i64..7, 2i64..7, 2i64..7),
        w in (1usize..5, 1usize..5, 0usize..3),
        r in (1usize..5, 1usize..5, 0usize..3),
        ty in 0u8..4,
        row_major in proptest::bool::ANY,
    ) {
        let order = if row_major { Order::RowMajor } else { Order::ColumnMajor };
        match ty {
            0 => apps_shape_roundtrip::<f64>(|p| mix(p) as f64 * 0.125, n, w, r, order),
            1 => apps_shape_roundtrip::<f32>(|p| (mix(p) % 100_000) as f32 * 0.5, n, w, r, order),
            2 => apps_shape_roundtrip::<i32>(|p| mix(p) as i32, n, w, r, order),
            _ => apps_shape_roundtrip::<u8>(|p| mix(p) as u8, n, w, r, order),
        }
    }
}
