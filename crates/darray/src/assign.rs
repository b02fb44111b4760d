//! The array assignment operation `B <- A` (paper, Section 3.1).
//!
//! Sets every element of `B` to the value of the corresponding element of
//! `A`, across arbitrary distributions of the same domain. If an element of
//! `B` is present in several tasks (one assigned copy plus mapped/shadow
//! copies), **all** copies are updated consistently. Assignment is the
//! primitive beneath data redistribution, shadow refresh, computational
//! steering, and checkpoint streaming.
//!
//! The implementation is the natural one for message passing: task `i` packs
//! `assigned_A(i) ∩ mapped_B(p)` for every destination `p` (in the array's
//! stream order over global coordinates), a single `alltoallv` moves the
//! buffers, and each destination unpacks symmetric intersections. Packing
//! cost is charged to the virtual clock via the cost model's memory
//! bandwidth.

use std::sync::Arc;

use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_slices::Slice;

use crate::{DarrayError, DistArray, Distribution, Element, Result};

/// One end of an [`exchange`]: a task's storage for its mapped section of
/// [`Local::dist`]. A [`DistArray`] holds it as typed elements; a canonical
/// stream piece (`stream::Piece`) holds it as the piece's stream bytes.
pub(crate) trait Local {
    /// The distribution whose mapped section (this task's) the storage holds.
    fn dist(&self) -> &Arc<Distribution>;

    /// Packs `region` (within the mapped section) as stream bytes.
    fn pack_region(&self, region: &Slice) -> Result<Vec<u8>>;

    /// Stores [`Local::pack_region`] bytes of `region`.
    fn unpack_region(&mut self, region: &Slice, bytes: &[u8]) -> Result<()>;
}

impl<T: Element> Local for DistArray<T> {
    fn dist(&self) -> &Arc<Distribution> {
        DistArray::dist(self)
    }

    fn pack_region(&self, region: &Slice) -> Result<Vec<u8>> {
        DistArray::pack_region(self, region)
    }

    fn unpack_region(&mut self, region: &Slice, bytes: &[u8]) -> Result<()> {
        DistArray::unpack_region(self, region, bytes)
    }
}

/// Collective: assigns `src`'s values into `dst` (same domain, any
/// distributions). Every task of the region must call it.
pub fn assign<T: Element>(ctx: &mut Ctx, dst: &mut DistArray<T>, src: &DistArray<T>) -> Result<()> {
    let p = ctx.ntasks();
    if src.domain() != dst.domain() {
        return Err(DarrayError::DomainMismatch {
            left: src.domain().clone(),
            right: dst.domain().clone(),
        });
    }
    if src.dist().ntasks() != p || dst.dist().ntasks() != p {
        return Err(DarrayError::TaskCountMismatch {
            expected: p,
            got: src.dist().ntasks().max(dst.dist().ntasks()),
        });
    }
    exchange(ctx, src.name(), Some(src), dst)
}

/// Collective: the one redistribution sequence. Every task packs
/// `assigned_src(me) ∩ mapped_dst(p)` for every destination `p`, one
/// `alltoallv` moves the buffers, and every task unpacks
/// `assigned_src(q) ∩ mapped_dst(me)` from every source `q`; then the
/// packed plus unpacked bytes are charged at memory bandwidth, and a
/// `Redistribute` span and the `REDISTRIBUTION_BYTES` counter are recorded
/// under `name`.
///
/// `src` is `None` for `A <- A` (shadow refresh): the source is `dst`
/// itself, a task's own transfer is skipped (its mapped copy of its own
/// assigned data is already current) and the counter reports the bytes
/// packed plus unpacked instead of the bytes packed.
pub(crate) fn exchange<S: Local, D: Local>(
    ctx: &mut Ctx,
    name: &str,
    src: Option<&S>,
    dst: &mut D,
) -> Result<()> {
    let p = ctx.ntasks();
    let me = ctx.rank();
    let refresh = src.is_none();
    let from = Arc::clone(src.map_or(dst.dist(), |s| s.dist()));
    let to = Arc::clone(dst.dist());
    let t0 = ctx.now();
    let mut outgoing = Vec::with_capacity(p);
    let mut packed = 0usize;
    for dest in 0..p {
        let region = from.assigned(me).intersect(to.mapped(dest))?;
        let buf = if region.is_empty() || (refresh && dest == me) {
            Vec::new()
        } else {
            match src {
                Some(s) => s.pack_region(&region)?,
                None => dst.pack_region(&region)?,
            }
        };
        packed += buf.len();
        outgoing.push(buf);
    }

    let incoming = ctx.alltoallv(outgoing);

    let mut unpacked = 0usize;
    for source in 0..p {
        if refresh && source == me {
            continue;
        }
        let region = from.assigned(source).intersect(to.mapped(me))?;
        if region.is_empty() {
            continue;
        }
        let buf = incoming.from(source);
        unpacked += buf.len();
        dst.unpack_region(&region, buf)?;
    }

    ctx.charge((packed + unpacked) as f64 / ctx.cost().memcpy_bw);
    if ctx.recorder().enabled() {
        let counted = if refresh { packed + unpacked } else { packed };
        ctx.recorder().span_start(t0, me, Phase::Redistribute, name);
        ctx.recorder().span_end(ctx.now(), me, Phase::Redistribute, name);
        ctx.recorder().counter_add_at(
            ctx.now(),
            me,
            names::REDISTRIBUTION_BYTES,
            Some(name),
            counted as u64,
        );
    }
    Ok(())
}

/// Collective: returns a copy of `src` under `new_dist` (the runtime's data
/// redistribution operation, `drms_distribute` after a `drms_adjust`).
pub fn redistribute<T: Element>(
    ctx: &mut Ctx,
    src: &DistArray<T>,
    new_dist: Arc<Distribution>,
) -> Result<DistArray<T>> {
    let mut dst = DistArray::new(src.name(), src.order(), new_dist, ctx.rank());
    assign(ctx, &mut dst, src)?;
    Ok(dst)
}

/// Collective: refreshes shadow copies — every mapped element is updated
/// from its assigned owner. This is `A <- A` in the paper's formulation.
pub fn refresh_shadows<T: Element>(ctx: &mut Ctx, array: &mut DistArray<T>) -> Result<()> {
    let p = ctx.ntasks();
    if array.dist().ntasks() != p {
        return Err(DarrayError::TaskCountMismatch { expected: p, got: array.dist().ntasks() });
    }
    let name = array.name().to_string();
    exchange::<DistArray<T>, _>(ctx, &name, None, array)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_msg::{run_spmd, CostModel};
    use drms_slices::{Order, Slice};

    #[test]
    fn block_to_cyclic_preserves_values() {
        let dom = Slice::boxed(&[(0, 19)]);
        let out = run_spmd(4, CostModel::default(), |ctx| {
            let bdist = Distribution::block(&dom, &[4], &[0]).unwrap();
            let cdist = Distribution::cyclic(&dom, 4, 0).unwrap();
            let mut a = DistArray::<i64>::new("a", Order::ColumnMajor, bdist, ctx.rank());
            a.fill_assigned(|p| p[0] * 3 + 1);
            let b = redistribute(ctx, &a, cdist).unwrap();
            b.fold_assigned(Vec::new(), |mut acc, p, v| {
                acc.push((p[0], v));
                acc
            })
        })
        .unwrap();
        for vals in out {
            for (g, v) in vals {
                assert_eq!(v, g * 3 + 1, "element {g}");
            }
        }
    }

    #[test]
    fn assignment_updates_all_copies_including_shadows() {
        let dom = Slice::boxed(&[(0, 15)]);
        let out = run_spmd(2, CostModel::default(), |ctx| {
            let src_dist = Distribution::block(&dom, &[2], &[0]).unwrap();
            let dst_dist = Distribution::block(&dom, &[2], &[2]).unwrap();
            let mut a = DistArray::<i64>::new("a", Order::ColumnMajor, src_dist, ctx.rank());
            a.fill_assigned(|p| 100 + p[0]);
            let mut b = DistArray::<i64>::new("b", Order::ColumnMajor, dst_dist, ctx.rank());
            assign(ctx, &mut b, &a).unwrap();
            // Every mapped point of b (shadows included) has the value.
            let mut all = Vec::new();
            b.mapped().clone().points(Order::ColumnMajor).for_each(|p| {
                all.push((p[0], b.get(p).unwrap()));
            });
            all
        })
        .unwrap();
        for vals in out {
            for (g, v) in vals {
                assert_eq!(v, 100 + g, "element {g}");
            }
        }
    }

    #[test]
    fn refresh_shadows_propagates_owner_values() {
        let dom = Slice::boxed(&[(0, 15), (0, 3)]);
        let out = run_spmd(4, CostModel::default(), |ctx| {
            let dist = Distribution::block(&dom, &[4, 1], &[1, 0]).unwrap();
            let mut a = DistArray::<f64>::new("a", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(|p| (p[0] * 10 + p[1]) as f64);
            refresh_shadows(ctx, &mut a).unwrap();
            let mut all = Vec::new();
            a.mapped().clone().points(Order::ColumnMajor).for_each(|p| {
                all.push((p.to_vec(), a.get(p).unwrap()));
            });
            all
        })
        .unwrap();
        for vals in out {
            for (p, v) in vals {
                assert_eq!(v, (p[0] * 10 + p[1]) as f64, "point {p:?}");
            }
        }
    }

    #[test]
    fn domain_mismatch_rejected() {
        let out = run_spmd(1, CostModel::free(), |ctx| {
            let d1 = Slice::boxed(&[(0, 9)]);
            let d2 = Slice::boxed(&[(0, 8)]);
            let dist1 = Distribution::block(&d1, &[1], &[0]).unwrap();
            let dist2 = Distribution::block(&d2, &[1], &[0]).unwrap();
            let a = DistArray::<f64>::new("a", Order::ColumnMajor, dist1, 0);
            let mut b = DistArray::<f64>::new("b", Order::ColumnMajor, dist2, 0);
            assign(ctx, &mut b, &a).unwrap_err()
        })
        .unwrap();
        assert!(matches!(out[0], DarrayError::DomainMismatch { .. }));
    }

    #[test]
    fn assignment_charges_time() {
        let dom = Slice::boxed(&[(0, 1023)]);
        let out = run_spmd(2, CostModel::default(), |ctx| {
            let b = Distribution::block(&dom, &[2], &[0]).unwrap();
            let c = Distribution::cyclic(&dom, 2, 0).unwrap();
            let mut a = DistArray::<f64>::new("a", Order::ColumnMajor, b, ctx.rank());
            a.fill_assigned(|p| p[0] as f64);
            let _ = redistribute(ctx, &a, c).unwrap();
            ctx.now()
        })
        .unwrap();
        assert!(out[0] > 0.0);
    }

    #[test]
    fn irregular_destination_distribution() {
        // Send a block array into an irregular strided decomposition.
        let dom = Slice::boxed(&[(0, 11)]);
        let out = run_spmd(2, CostModel::default(), |ctx| {
            use drms_slices::Range;
            let bdist = Distribution::block(&dom, &[2], &[0]).unwrap();
            let evens = Slice::new(vec![Range::strided(0, 11, 2).unwrap()]);
            let odds = Slice::new(vec![Range::strided(1, 11, 2).unwrap()]);
            let idist =
                Distribution::irregular(&dom, vec![evens.clone(), odds.clone()], vec![evens, odds])
                    .unwrap();
            let mut a = DistArray::<i64>::new("a", Order::ColumnMajor, bdist, ctx.rank());
            a.fill_assigned(|p| p[0] * p[0]);
            let b = redistribute(ctx, &a, idist).unwrap();
            b.fold_assigned(Vec::new(), |mut acc, p, v| {
                acc.push((p[0], v));
                acc
            })
        })
        .unwrap();
        assert_eq!(out[0].len(), 6);
        for rank_vals in out {
            for (g, v) in rank_vals {
                assert_eq!(v, g * g);
            }
        }
    }
}
