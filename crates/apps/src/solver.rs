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

use drms_darray::{assign, DistArray};
use drms_msg::Ctx;
use drms_slices::Order;

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
/// `u`). Collective: all tasks call with their views.
pub fn step(ctx: &mut Ctx, fields: &mut [DistArray<f64>], iter: i64) {
    assert!(!fields.is_empty());

    // Shadow refresh: neighbor reads below must see owner values.
    {
        let u = &mut fields[0];
        assign::refresh_shadows(ctx, u).expect("shadow refresh");
    }

    let source = 0.001 * (iter % 16) as f64;
    let mut touched = 0usize;

    // Sweep the primary field: Jacobi-style so reads see old values only.
    // Updates are kept as (local index, value): no allocation per point.
    {
        let u = &fields[0];
        let domain = u.domain().clone();
        let region = u.assigned().clone();
        let mut updates: Vec<(usize, f64)> = Vec::with_capacity(region.size());
        region.points(Order::ColumnMajor).for_each(|p| {
            let at = u.local_index(p).expect("assigned is mapped");
            let center = u.local()[at];
            let mut acc = 0.25 * center;
            let mut q: [i64; 4] = p.try_into().expect("points are [c, x, y, z]");
            // Fixed neighbor order: -x, +x, -y, +y, -z, +z.
            for ax in 1..4 {
                for dir in [-1i64, 1] {
                    q[ax] = p[ax] + dir;
                    let v = if domain.contains(&q).expect("rank matches") {
                        // Interior neighbor: present in the mapped section
                        // thanks to the shadow region.
                        u.get(&q).expect("neighbor within shadow")
                    } else {
                        center // boundary: clamp
                    };
                    acc += 0.125 * v;
                    q[ax] = p[ax];
                }
            }
            updates.push((at, acc + source));
        });
        touched += updates.len();
        apply(&mut fields[0], &updates);
    }

    // Derived fields relax toward the primary solution's first component.
    let (primary, rest) = fields.split_first_mut().expect("nonempty");
    for f in rest {
        let region = f.assigned().clone();
        let mut updates: Vec<(usize, f64)> = Vec::with_capacity(region.size());
        region.points(Order::ColumnMajor).for_each(|p| {
            let up = [0, p[1], p[2], p[3]];
            let uv = primary.get(&up).expect("same spatial decomposition");
            let at = f.local_index(p).expect("assigned is mapped");
            updates.push((at, 0.5 * f.local()[at] + 0.25 * uv + source));
        });
        touched += updates.len();
        apply(f, &updates);
    }

    ctx.charge(touched as f64 * FLOPS_PER_POINT / FLOP_RATE);
}

/// Writes `(local index, value)` updates into `f`'s local storage.
fn apply(f: &mut DistArray<f64>, updates: &[(usize, f64)]) {
    let local = f.local_mut();
    for &(at, v) in updates {
        local[at] = v;
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
    use drms_darray::Distribution;
    use drms_msg::{run_spmd, CostModel};
    use drms_slices::Slice;

    fn field(name: &str, rank: usize, p: usize, comps: i64) -> DistArray<f64> {
        let n = 6i64;
        let dom = Slice::boxed(&[(0, comps - 1), (1, n), (1, n), (1, n)]);
        let dist = Distribution::block(&dom, &[1, p, 1, 1], &[0, 1, 1, 1]).unwrap();
        DistArray::new(name, Order::ColumnMajor, dist, rank)
    }

    fn run_solver(p: usize, iters: i64) -> Vec<(Vec<i64>, f64)> {
        let per_task = run_spmd(p, CostModel::default(), |ctx| {
            let mut u = field("u", ctx.rank(), p, 5);
            let mut rhs = field("rhs", ctx.rank(), p, 5);
            u.fill_assigned(|pt| initial_value(0, pt));
            rhs.fill_assigned(|pt| initial_value(1, pt));
            let mut fields = vec![u, rhs];
            for iter in 1..=iters {
                step(ctx, &mut fields, iter);
            }
            let mut vals = Vec::new();
            for f in &fields {
                f.fold_assigned((), |_, pt, v| vals.push((pt.to_vec(), v)));
            }
            vals
        })
        .unwrap();
        let mut all: Vec<(Vec<i64>, f64)> = per_task.into_iter().flatten().collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    #[test]
    fn solver_is_bitwise_distribution_independent() {
        let ref1 = run_solver(1, 4);
        for p in [2usize, 3, 4] {
            let got = run_solver(p, 4);
            assert_eq!(got.len(), ref1.len());
            for (a, b) in ref1.iter().zip(&got) {
                assert_eq!(a.0, b.0);
                assert!(a.1 == b.1, "point {:?}: {} (1 task) vs {} ({p} tasks)", a.0, a.1, b.1);
            }
        }
    }

    #[test]
    fn solver_changes_state_each_iteration() {
        let one = run_solver(2, 1);
        let two = run_solver(2, 2);
        let diff = one.iter().zip(&two).filter(|(a, b)| a.1 != b.1).count();
        assert!(diff > one.len() / 2, "only {diff} points changed");
    }

    #[test]
    fn residual_is_finite_and_nonzero() {
        let out = run_spmd(2, CostModel::default(), |ctx| {
            let mut u = field("u", ctx.rank(), 2, 5);
            u.fill_assigned(|pt| initial_value(0, pt));
            let mut fields = vec![u];
            step(ctx, &mut fields, 1);
            residual(ctx, &fields)
        })
        .unwrap();
        assert!(out[0].is_finite());
        assert!(out[0] != 0.0);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn compute_time_is_charged() {
        let out = run_spmd(1, CostModel::default(), |ctx| {
            let mut u = field("u", ctx.rank(), 1, 5);
            u.fill_assigned(|pt| initial_value(0, pt));
            let t0 = ctx.now();
            let mut fields = vec![u];
            step(ctx, &mut fields, 1);
            ctx.now() - t0
        })
        .unwrap();
        assert!(out[0] > 0.0);
    }
}
