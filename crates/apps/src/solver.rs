//! The deterministic stencil kernel shared by all three mini-applications.
//!
//! One iteration performs the shape of an NPB time step: refresh shadow
//! regions, apply a 7-point relaxation sweep to the primary field, then
//! update the derived fields from the primary solution. Every update of a
//! point depends only on *values* of fixed neighbor coordinates (fetched
//! from shadow copies after a refresh), summed in a fixed per-point order —
//! so the results are **bitwise identical for any task count and
//! distribution**. That invariant is what lets the test suite demand exact
//! equality between an uninterrupted run and a reconfigured restart.
//!
//! The kernel walks storage, not points: [`for_each_region_index`] hands it
//! each assigned point with its flat index in the local (mapped) storage,
//! and a ±1 neighbor on a spatial axis sits one storage stride of that axis
//! away. That holds only while every spatial axis of the mapped section is
//! one contiguous range reaching one element past the assigned range
//! wherever the domain continues, which a shadow width of at least 1 gives.
//! [`step`] checks it once per call, in O(rank) per field, and panics
//! rather than read a wrong element.

use std::sync::Arc;

use drms_darray::{assign, for_each_region_index, DistArray};
use drms_msg::Ctx;
use drms_slices::Range;

/// Simulated compute throughput of one 1997-era node (POWER2 thin node,
/// ~25 MFLOP/s effective).
const FLOP_RATE: f64 = 25.0e6;
/// Approximate flops charged per updated grid point.
const FLOPS_PER_POINT: f64 = 26.0;

/// Deterministic initial condition for component point `p = [c, x, y, z]`
/// of field `field_idx`.
pub fn initial_value(field_idx: usize, p: &[i64]) -> f64 {
    let (c, x, y, z) = (p[0], p[1], p[2], p[3]);
    ((field_idx as i64 + 1) * 1000 + c * 100) as f64 * 0.001
        + (x * 3 + y * 5 + z * 7) as f64 * 0.0625
}

/// One solver iteration over `fields` (`fields[0]` is the primary solution
/// `u`; no fields, no work). Collective: all tasks call with their views.
///
/// Panics when the fields' distributions do not span this region's tasks
/// (the shadow refresh) or the primary's mapped section does not hold every
/// element the step reads at its strided offset (the layout check): both
/// are properties of how the fields were built, not of their values.
pub fn step(ctx: &mut Ctx, fields: &mut [DistArray<f64>], iter: i64) {
    let Some((u, derived)) = fields.split_first_mut() else { return };

    // Shadow refresh: neighbor reads below must see owner values.
    assign::refresh_shadows(ctx, u).expect("shadow refresh");
    let layout = match Layout::of(u, derived) {
        Ok(layout) => layout,
        Err(why) => panic!("solver: {} cannot be walked by strides: {why}", u.name()),
    };

    let source = 0.001 * (iter % 16) as f64;
    let mut touched = 0;

    // Sweep the primary field: Jacobi-style so reads see old values only.
    // New values are kept in walk order, then written back by the same walk.
    let mut new = Vec::with_capacity(u.assigned().size());
    let old = u.local();
    for_each_region_index(u.mapped(), u.assigned(), u.order(), |at, p| {
        let center = old[at];
        let mut acc = 0.25 * center;
        // Fixed neighbor order: -x, +x, -y, +y, -z, +z; the domain's edge
        // clamps to the center.
        for ((&c, &(first, last)), &stride) in
            p.iter().zip(&layout.edge).zip(&layout.stride).skip(1)
        {
            acc += 0.125 * if c > first { old[at - stride] } else { center };
            acc += 0.125 * if c < last { old[at + stride] } else { center };
        }
        new.push(acc + source);
    });
    let mut next = new.into_iter();
    touched += update_assigned(u, |v, _| *v = next.next().unwrap_or(*v));

    // Derived fields relax toward the primary solution's first component,
    // in place: a point reads only its own old value.
    let primary = u.local();
    for f in derived {
        touched += update_assigned(f, |v, p| {
            *v = 0.5 * *v + 0.25 * primary[layout.component0(p)] + source;
        });
    }

    ctx.charge(touched as f64 * FLOPS_PER_POINT / FLOP_RATE);
}

/// Sets each assigned element of `f` through `g(element, point)`, walking
/// storage in `f`'s order; returns how many it visited.
fn update_assigned(f: &mut DistArray<f64>, mut g: impl FnMut(&mut f64, &[i64])) -> usize {
    let dist = Arc::clone(f.dist());
    let (rank, order, local) = (f.rank(), f.order(), f.local_mut());
    let mut n = 0;
    for_each_region_index(dist.mapped(rank), dist.assigned(rank), order, |at, p| {
        g(&mut local[at], p);
        n += 1;
    });
    n
}

/// Where the stencil finds the primary field's elements in its local
/// storage, per axis `[c, x, y, z]`.
struct Layout {
    /// Storage stride of the mapped box.
    stride: [usize; 4],
    /// First mapped coordinate.
    origin: [i64; 4],
    /// First and last domain coordinate: the boundary clamp.
    edge: [(i64, i64); 4],
}

impl Layout {
    /// Checks, in O(rank) per field, that every element the step reads is in
    /// `u`'s mapped storage at its strided offset: each field is a
    /// `[c, x, y, z]` box, each derived field assigns the primary's spatial
    /// points, and on each axis the domain and the mapped range are
    /// contiguous, the mapped range holding component 0 (which the derived
    /// fields read) and, on a spatial axis, reaching one past the assigned
    /// range wherever the domain continues.
    fn of(u: &DistArray<f64>, derived: &[DistArray<f64>]) -> Result<Layout, String> {
        let (mapped, assigned) = (u.mapped(), u.assigned());
        let shares = |f: &DistArray<f64>| {
            f.domain().rank() == 4 && (1..4).all(|ax| f.assigned().range(ax) == assigned.range(ax))
        };
        if u.domain().rank() != 4 || !derived.iter().all(shares) {
            return Err("the fields are not [c, x, y, z] boxes on one decomposition".into());
        }
        let mut layout = Layout { stride: [0; 4], origin: [0; 4], edge: [(0, 0); 4] };
        let mut acc = 1;
        for ax in u.order().axes_fast_to_slow(4) {
            layout.stride[ax] = acc;
            acc *= mapped.range(ax).len();
        }
        if assigned.is_empty() {
            return Ok(layout);
        }
        for ax in 0..4 {
            let (&Range::Contiguous { lo: first, hi: last }, &Range::Contiguous { lo, hi }) =
                (u.domain().range(ax), mapped.range(ax))
            else {
                return Err(format!("axis {ax} is not contiguous"));
            };
            let r = assigned.range(ax);
            let reads = match (ax, r.first(), r.last()) {
                (1..=3, Some(a), Some(b)) => ((a - 1).max(first), (b + 1).min(last)),
                _ if derived.is_empty() => (lo, hi),
                _ => (0, 0),
            };
            if lo > reads.0 || hi < reads.1 {
                return Err(format!("axis {ax} maps {lo}..={hi} but the step reads {reads:?}"));
            }
            (layout.origin[ax], layout.edge[ax]) = (lo, (first, last));
        }
        Ok(layout)
    }

    /// Storage offset in the primary of component 0 at `p`'s spatial point.
    fn component0(&self, p: &[i64]) -> usize {
        let at = |ax: usize, c: i64| (c - self.origin[ax]) as usize * self.stride[ax];
        at(0, 0) + at(1, p[1]) + at(2, p[2]) + at(3, p[3])
    }
}

/// Global residual-style diagnostic: the sum of the primary field over its
/// assigned sections, reduced across tasks. (Diagnostic only: the reduction
/// order depends on the task count, so it is *not* used to steer the
/// solver.)
pub fn residual(ctx: &mut Ctx, fields: &[DistArray<f64>]) -> f64 {
    let local = fields[0].fold_assigned(0.0, |acc, _, v| acc + v);
    ctx.allreduce(local, drms_msg::ReduceOp::Sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_darray::{DarrayError, Distribution};
    use drms_msg::{run_spmd, CostModel};
    use drms_slices::{Order, Slice};

    type TestResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

    /// A 5-component `6³` domain split along x over `p` tasks.
    fn dist(p: usize) -> Result<Arc<Distribution>, DarrayError> {
        let dom = Slice::boxed(&[(0, 4), (1, 6), (1, 6), (1, 6)]);
        Distribution::block(&dom, &[1, p, 1, 1], &[0, 1, 1, 1])
    }

    /// Field `idx`'s view on `rank`, filled with its initial values.
    fn field(dist: &Arc<Distribution>, rank: usize, idx: usize) -> DistArray<f64> {
        let mut f = DistArray::new(&format!("f{idx}"), Order::ColumnMajor, Arc::clone(dist), rank);
        f.fill_assigned(|pt| initial_value(idx, pt));
        f
    }

    fn run_solver(p: usize, iters: i64) -> TestResult<Vec<(Vec<i64>, f64)>> {
        let dist = dist(p)?;
        let per_task = run_spmd(p, CostModel::default(), |ctx| {
            let mut fields = vec![field(&dist, ctx.rank(), 0), field(&dist, ctx.rank(), 1)];
            for iter in 1..=iters {
                step(ctx, &mut fields, iter);
            }
            let mut vals = Vec::new();
            for f in &fields {
                f.fold_assigned((), |_, pt, v| vals.push((pt.to_vec(), v)));
            }
            vals
        })?;
        let mut all: Vec<(Vec<i64>, f64)> = per_task.into_iter().flatten().collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(all)
    }

    #[test]
    fn solver_is_bitwise_distribution_independent() -> TestResult {
        let ref1 = run_solver(1, 4)?;
        for p in [2usize, 3, 4] {
            let got = run_solver(p, 4)?;
            assert_eq!(got.len(), ref1.len());
            for (a, b) in ref1.iter().zip(&got) {
                assert_eq!(a.0, b.0);
                assert!(a.1 == b.1, "point {:?}: {} (1 task) vs {} ({p} tasks)", a.0, a.1, b.1);
            }
        }
        Ok(())
    }

    #[test]
    fn solver_changes_state_each_iteration() -> TestResult {
        let one = run_solver(2, 1)?;
        let two = run_solver(2, 2)?;
        let diff = one.iter().zip(&two).filter(|(a, b)| a.1 != b.1).count();
        assert!(diff > one.len() / 2, "only {diff} points changed");
        Ok(())
    }

    #[test]
    fn residual_is_finite_and_nonzero() -> TestResult {
        let dist = dist(2)?;
        let out = run_spmd(2, CostModel::default(), |ctx| {
            let mut fields = vec![field(&dist, ctx.rank(), 0)];
            step(ctx, &mut fields, 1);
            residual(ctx, &fields)
        })?;
        assert!(out[0].is_finite());
        assert!(out[0] != 0.0);
        assert_eq!(out[0], out[1]);
        Ok(())
    }

    #[test]
    fn compute_time_is_charged() -> TestResult {
        let dist = dist(1)?;
        let out = run_spmd(1, CostModel::default(), |ctx| {
            let t0 = ctx.now();
            step(ctx, &mut [field(&dist, ctx.rank(), 0)], 1);
            ctx.now() - t0
        })?;
        assert!(out[0] > 0.0);
        Ok(())
    }
}
