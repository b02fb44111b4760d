//! The storage-walk stencil against the point walk it replaced.
//!
//! [`solver::step`] indexes neighbors by storage strides after one layout
//! check per call. The point walk below is the kernel as it was before: one
//! `stream_position` search per point and per neighbor, and a domain
//! containment test for the boundary clamp. Both run from the same state on
//! every split of a `7³` grid over 1 to 5 tasks, with shadow widths 1 to 3
//! and domains starting at 0 and at 1, and must agree bit for bit.

use drms_apps::solver::{self, initial_value};
use drms_darray::{assign, factorize, DarrayError, DistArray, Distribution};
use drms_msg::{run_spmd, CostModel, Ctx, SpmdError};
use drms_slices::{Order, Slice};

type TestResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// The point-walk kernel, the oracle [`solver::step`] must match.
fn point_walk_step(
    ctx: &mut Ctx,
    fields: &mut [DistArray<f64>],
    iter: i64,
) -> Result<(), DarrayError> {
    let Some((u, derived)) = fields.split_first_mut() else { return Ok(()) };
    assign::refresh_shadows(ctx, u)?;
    let source = 0.001 * (iter % 16) as f64;
    let mut updates = Vec::new();
    let mut points = u.assigned().points(Order::ColumnMajor);
    while let Some(p) = points.point() {
        let at = u.local_index(p)?;
        let center = u.local()[at];
        let mut acc = 0.25 * center;
        let mut q = p.to_vec();
        for ax in 1..4 {
            for dir in [-1i64, 1] {
                q[ax] = p[ax] + dir;
                let v = if u.domain().contains(&q)? { u.get(&q)? } else { center };
                acc += 0.125 * v;
                q[ax] = p[ax];
            }
        }
        updates.push((at, acc + source));
        points.advance();
    }
    for (at, v) in updates {
        u.local_mut()[at] = v;
    }
    for f in derived {
        let mut updates = Vec::new();
        let mut points = f.assigned().points(Order::ColumnMajor);
        while let Some(p) = points.point() {
            let uv = u.get(&[0, p[1], p[2], p[3]])?;
            let at = f.local_index(p)?;
            updates.push((at, 0.5 * f.local()[at] + 0.25 * uv + source));
            points.advance();
        }
        for (at, v) in updates {
            f.local_mut()[at] = v;
        }
    }
    Ok(())
}

/// One task's fields on a `7³` grid whose spatial axes start at
/// `origin`: a 5-component primary, then a 5- and a 1-component derived
/// field, each initialized over its mapped section.
fn fields(
    rank: usize,
    parts: &[usize],
    shadow: usize,
    origin: i64,
) -> Result<Vec<DistArray<f64>>, DarrayError> {
    let s = (origin, origin + 6);
    let mut out = Vec::new();
    for (i, comps) in [5i64, 5, 1].into_iter().enumerate() {
        let dom = Slice::boxed(&[(0, comps - 1), s, s, s]);
        let dist = Distribution::block(&dom, parts, &[0, shadow, shadow, shadow])?;
        let mut f = DistArray::new(&format!("f{i}"), Order::ColumnMajor, dist, rank);
        f.fill_mapped(|pt| initial_value(i, pt));
        out.push(f);
    }
    Ok(out)
}

/// Runs both kernels for 3 steps from the same state on `parts` and
/// returns, per task and field, the local storage bits of each.
fn both_kernels(parts: &[usize], shadow: usize, origin: i64) -> TestResult<Vec<[Vec<u64>; 2]>> {
    let p = parts.iter().product();
    let per_task = run_spmd(p, CostModel::default(), |ctx| {
        let mut walked = fields(ctx.rank(), parts, shadow, origin)?;
        let mut oracle = fields(ctx.rank(), parts, shadow, origin)?;
        for iter in 1..=3 {
            solver::step(ctx, &mut walked, iter);
            point_walk_step(ctx, &mut oracle, iter)?;
        }
        let bits = |fs: &[DistArray<f64>]| {
            fs.iter().flat_map(|f| f.local()).map(|v| v.to_bits()).collect()
        };
        Ok::<_, DarrayError>([bits(&walked), bits(&oracle)])
    })?;
    Ok(per_task.into_iter().collect::<Result<_, _>>()?)
}

#[test]
fn storage_walk_matches_the_point_walk_bit_for_bit() -> TestResult {
    for p in 1..=5usize {
        let mut splits: Vec<Vec<usize>> =
            (1..4).map(|ax| (0..4).map(|k| if k == ax { p } else { 1 }).collect()).collect();
        let mut all_axes = vec![1];
        all_axes.extend(factorize(p, &[7, 7, 7]));
        splits.push(all_axes);
        for parts in &splits {
            for shadow in 1..=3 {
                for origin in [0, 1] {
                    for (rank, [walked, oracle]) in
                        both_kernels(parts, shadow, origin)?.into_iter().enumerate()
                    {
                        assert!(
                            walked == oracle,
                            "parts {parts:?}, shadow {shadow}, origin {origin}: rank {rank} \
                             differs from the point walk"
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn a_missing_shadow_is_refused_not_read() {
    // Without a shadow the ±x neighbors across a block edge are not in local
    // storage; a stride past the edge would read another element, or past
    // the storage. The layout check refuses the step first.
    let out = run_spmd(2, CostModel::default(), |ctx| {
        let mut fs = fields(ctx.rank(), &[1, 2, 1, 1], 0, 1)?;
        solver::step(ctx, &mut fs, 1);
        Ok::<_, DarrayError>(())
    });
    let Err(SpmdError::TaskPanicked { message, .. }) = out else {
        panic!("a step without shadows must panic, got {out:?}");
    };
    assert!(message.contains("cannot be walked by strides"), "{message}");
}
