use std::sync::Arc;

use drms_slices::{Order, Slice, SliceError};

use crate::element::{decode_into, encode_into};
use crate::{DarrayError, Distribution, Element, Result};

/// One task's view of a distributed array: shared metadata plus the local
/// storage backing this task's mapped section.
///
/// The local storage is a dense array of the mapped section's shape, laid
/// out in the array's storage [`Order`] — exactly the paper's "local array
/// of the same shape as the section". Elements of the assigned section are
/// authoritative; the rest of the mapped section (shadow regions) holds
/// copies maintained by [`assign`](crate::assign::assign) /
/// [`refresh_shadows`](crate::assign::refresh_shadows).
pub struct DistArray<T: Element> {
    name: String,
    order: Order,
    dist: Arc<Distribution>,
    rank: usize,
    local: Vec<T>,
}

impl<T: Element> DistArray<T> {
    /// Creates this task's view, zero-initialized.
    pub fn new(name: &str, order: Order, dist: Arc<Distribution>, rank: usize) -> DistArray<T> {
        assert!(rank < dist.ntasks(), "rank {rank} outside distribution");
        let len = dist.mapped(rank).size();
        DistArray { name: name.to_string(), order, dist, rank, local: vec![T::default(); len] }
    }

    /// Array name (checkpoint files are keyed by it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Storage and streaming order.
    pub fn order(&self) -> Order {
        self.order
    }

    /// The distribution currently in effect.
    pub fn dist(&self) -> &Arc<Distribution> {
        &self.dist
    }

    /// The global index domain.
    pub fn domain(&self) -> &Slice {
        self.dist.domain()
    }

    /// This task's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This task's assigned section.
    pub fn assigned(&self) -> &Slice {
        self.dist.assigned(self.rank)
    }

    /// This task's mapped section.
    pub fn mapped(&self) -> &Slice {
        self.dist.mapped(self.rank)
    }

    /// Raw local storage (mapped section, storage order).
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Mutable raw local storage.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.local
    }

    /// Bytes of local storage — the contribution of this array to the
    /// task's data segment (Table 4's "local sections").
    pub fn local_bytes(&self) -> usize {
        self.local.len() * T::SIZE
    }

    /// Replaces this view's distribution and storage with `other`'s
    /// (same name, order, and domain required). Used for in-place
    /// redistribution across a reconfiguration.
    pub fn adopt(&mut self, other: DistArray<T>) -> Result<()> {
        if other.domain() != self.domain() {
            return Err(DarrayError::DomainMismatch {
                left: self.domain().clone(),
                right: other.domain().clone(),
            });
        }
        debug_assert_eq!(self.name, other.name);
        debug_assert_eq!(self.order, other.order);
        self.dist = other.dist;
        self.rank = other.rank;
        self.local = other.local;
        Ok(())
    }

    /// Flat index of a global point within the local storage.
    pub fn local_index(&self, point: &[i64]) -> Result<usize> {
        match self.mapped().stream_position(point, self.order)? {
            Some(i) => Ok(i),
            None => Err(DarrayError::NotMapped { point: point.to_vec() }),
        }
    }

    /// Reads the element at a global point (must be mapped to this task).
    pub fn get(&self, point: &[i64]) -> Result<T> {
        Ok(self.local[self.local_index(point)?])
    }

    /// Writes the element at a global point (must be mapped to this task).
    pub fn set(&mut self, point: &[i64], v: T) -> Result<()> {
        let i = self.local_index(point)?;
        self.local[i] = v;
        Ok(())
    }

    /// Fills the assigned section from a function of the global point.
    pub fn fill_assigned(&mut self, mut f: impl FnMut(&[i64]) -> T) {
        let region = self.assigned().clone();
        self.for_each_local_of(&region, |idx, point, local| local[idx] = f(point));
    }

    /// Fills the whole mapped section (shadows included) from a function of
    /// the global point.
    pub fn fill_mapped(&mut self, mut f: impl FnMut(&[i64]) -> T) {
        let region = self.mapped().clone();
        self.for_each_local_of(&region, |idx, point, local| local[idx] = f(point));
    }

    /// Folds over the assigned section in stream order.
    pub fn fold_assigned<B>(&self, init: B, mut f: impl FnMut(B, &[i64], T) -> B) -> B {
        fold_region_index(self.mapped(), self.assigned(), self.order, init, |acc, idx, point| {
            f(acc, point, self.local[idx])
        })
    }

    /// Packs the elements of `region` (a subset of the mapped section) into
    /// a little-endian byte buffer, in the array's stream order over the
    /// region's *global* coordinates. Both ends of a transfer enumerate the
    /// region identically, which is what makes redistribution
    /// representation-independent. Fails with [`DarrayError::NotMapped`]
    /// when the region leaves the mapped section.
    pub fn pack_region(&self, region: &Slice) -> Result<Vec<u8>> {
        pack_runs(self.mapped(), region, self.order, T::SIZE, |run, out| {
            encode_into(&self.local[run], out)
        })
    }

    /// Unpacks bytes produced by [`DistArray::pack_region`] on the same
    /// region into local storage. Fails, leaving the storage untouched, when
    /// the region leaves the mapped section or `bytes` is not exactly the
    /// region's size ([`DarrayError::PayloadLength`]).
    pub fn unpack_region(&mut self, region: &Slice, bytes: &[u8]) -> Result<()> {
        let local = &mut self.local;
        unpack_runs(self.dist.mapped(self.rank), region, self.order, T::SIZE, bytes, |run, b| {
            decode_into(b, &mut local[run])
        })
    }

    /// Internal mutable visitor over a region of local storage.
    fn for_each_local_of(&mut self, region: &Slice, mut f: impl FnMut(usize, &[i64], &mut [T])) {
        let mapped = self.mapped().clone();
        let order = self.order;
        let local = &mut self.local;
        for_each_region_index(&mapped, region, order, |idx, point| f(idx, point, local));
    }
}

/// Visits every point of `region` in `order`, passing its flat index within
/// the dense storage of `mapped` (also laid out in `order`) and its global
/// coordinates.
///
/// Uses per-axis offset tables (computed once) plus an odometer walk, so the
/// per-element cost is O(rank) arithmetic with no range searches. This is
/// the walk of `fill`/`fold` and of the mini-applications' stencil, which
/// need coordinates; packing and unpacking move whole runs
/// ([`for_each_region_run`]).
///
/// Points of `region` outside `mapped` are not visited: callers pass a
/// subset, as a view's assigned and mapped sections are, which debug builds
/// assert.
pub fn for_each_region_index(
    mapped: &Slice,
    region: &Slice,
    order: Order,
    mut f: impl FnMut(usize, &[i64]),
) {
    fold_region_index(mapped, region, order, (), |(), idx, point| f(idx, point))
}

/// [`for_each_region_index`] threading an accumulator: each visit maps it
/// to the next, starting from `init`, and the last is returned.
#[allow(clippy::needless_range_loop)] // per-axis loop reads several tables
fn fold_region_index<B>(
    mapped: &Slice,
    region: &Slice,
    order: Order,
    init: B,
    mut f: impl FnMut(B, usize, &[i64]) -> B,
) -> B {
    debug_assert!(region.is_subset_of(mapped), "region {region} not within mapped {mapped}");
    if region.is_empty() {
        return init;
    }
    let d = region.rank();
    if d == 0 {
        return f(init, 0, &[]);
    }

    // Storage strides of the mapped box, in `order`.
    let mut strides = vec![0usize; d];
    let mut acc = 1usize;
    for ax in order.axes_fast_to_slow(d) {
        strides[ax] = acc;
        acc *= mapped.range(ax).len();
    }

    // Per-axis tables: local offset (position in mapped range x stride) and
    // global coordinate for each element of the region's range.
    let mut offsets: Vec<Vec<usize>> = Vec::with_capacity(d);
    let mut coords: Vec<Vec<i64>> = Vec::with_capacity(d);
    for ax in 0..d {
        let mrange = mapped.range(ax);
        let rrange = region.range(ax);
        let mut offs = Vec::with_capacity(rrange.len());
        let mut crds = Vec::with_capacity(rrange.len());
        for g in rrange.iter() {
            let Some(pos) = mrange.position(g) else { continue };
            offs.push(pos * strides[ax]);
            crds.push(g);
        }
        if offs.is_empty() {
            return init;
        }
        offsets.push(offs);
        coords.push(crds);
    }

    // Odometer walk in stream order.
    let axes: Vec<usize> = order.axes_fast_to_slow(d).collect();
    let mut idx = vec![0usize; d];
    let mut point = vec![0i64; d];
    for ax in 0..d {
        point[ax] = coords[ax][0];
    }
    let mut acc = init;
    loop {
        let flat: usize = (0..d).map(|ax| offsets[ax][idx[ax]]).sum();
        acc = f(acc, flat, &point);
        // Advance odometer.
        let mut done = true;
        for &ax in &axes {
            idx[ax] += 1;
            if idx[ax] < offsets[ax].len() {
                point[ax] = coords[ax][idx[ax]];
                done = false;
                break;
            }
            idx[ax] = 0;
            point[ax] = coords[ax][0];
        }
        if done {
            return acc;
        }
    }
}

/// Visits the maximal runs of consecutive storage indices that `region`
/// occupies in the dense storage of `mapped` (laid out in `order`), as
/// `f(flat_start, len)`, in the stream order of the region's global
/// coordinates: expanded, the runs are exactly the flat indices
/// [`Slice::points`] and [`Slice::stream_position`] give, point by point.
///
/// The leading (fastest) axes along which the region spans the whole mapped
/// extent form one contiguous block; the first axis it does not span cuts
/// that block into runs of consecutive positions; every slower axis repeats
/// them at its offsets, and a run that ends where the next starts is merged
/// into it. A region of a column-major `5 × n³` array whose component axis is
/// undivided therefore moves in runs of `5 × extent` elements, not one at a
/// time.
///
/// Fails before visiting anything: [`DarrayError::NotMapped`] (with a
/// witness point) when `region` is not a subset of `mapped`, a rank
/// mismatch as [`DarrayError::Slice`].
pub fn for_each_region_run(
    mapped: &Slice,
    region: &Slice,
    order: Order,
    mut f: impl FnMut(usize, usize),
) -> Result<()> {
    if region.rank() != mapped.rank() {
        return Err(SliceError::RankMismatch { left: region.rank(), right: mapped.rank() }.into());
    }
    if region.is_empty() {
        return Ok(());
    }
    let d = region.rank();
    if d == 0 {
        f(0, 1);
        return Ok(());
    }

    // Per-axis offset tables, fastest axis first: each region element's
    // position in the mapped range times that axis's storage stride.
    let axes: Vec<usize> = order.axes_fast_to_slow(d).collect();
    let mut tables: Vec<Vec<usize>> = Vec::with_capacity(d);
    let mut stride = 1usize;
    for &ax in &axes {
        let mrange = mapped.range(ax);
        let mut offs = Vec::with_capacity(region.range(ax).len());
        for g in region.range(ax).iter() {
            let Some(pos) = mrange.position(g) else {
                // The region is not empty, so every axis has a first point.
                let mut point: Vec<i64> =
                    region.ranges().iter().map(|r| r.first().unwrap_or_default()).collect();
                point[ax] = g;
                return Err(DarrayError::NotMapped { point });
            };
            offs.push(pos * stride);
        }
        tables.push(offs);
        stride *= mrange.len();
    }

    // Leading axes the region spans completely: one block of `block`
    // consecutive elements. (A subset of the mapped range of equal length
    // is the whole range.)
    let mut block = 1usize;
    let mut k = 0;
    while k < d && tables[k].len() == mapped.range(axes[k]).len() {
        block *= tables[k].len();
        k += 1;
    }
    // The first axis not spanned: runs of consecutive positions, each
    // `block` elements per position (its stride is `block`).
    let segments: Vec<(usize, usize)> = match tables.get(k) {
        None => vec![(0, block)],
        Some(offs) => {
            let mut segs: Vec<(usize, usize)> = Vec::new();
            for &o in offs {
                match segs.last_mut() {
                    Some((start, len)) if *start + *len == o => *len += block,
                    _ => segs.push((o, block)),
                }
            }
            segs
        }
    };

    // The slower axes repeat the segments at their offsets (odometer), and
    // adjacent runs merge.
    let slow = tables.get(k + 1..).unwrap_or(&[]);
    let mut idx = vec![0usize; slow.len()];
    let mut pending: Option<(usize, usize)> = None;
    loop {
        let base: usize = slow.iter().zip(&idx).map(|(t, &i)| t[i]).sum();
        for &(s, len) in &segments {
            let start = base + s;
            pending = match pending {
                Some((p, plen)) if p + plen == start => Some((p, plen + len)),
                Some((p, plen)) => {
                    f(p, plen);
                    Some((start, len))
                }
                None => Some((start, len)),
            };
        }
        let mut j = 0;
        loop {
            if j == slow.len() {
                if let Some((p, plen)) = pending {
                    f(p, plen);
                }
                return Ok(());
            }
            idx[j] += 1;
            if idx[j] < slow[j].len() {
                break;
            }
            idx[j] = 0;
            j += 1;
        }
    }
}

/// Packs `region` of a dense store of `mapped` (in `order`, `elem` bytes
/// per element) into a fresh buffer: `put(run, out)` writes the storage
/// elements `run` as their `run.len() * elem` stream bytes `out`. Shared by
/// the typed [`DistArray`] and the byte-held canonical stream piece.
pub(crate) fn pack_runs(
    mapped: &Slice,
    region: &Slice,
    order: Order,
    elem: usize,
    mut put: impl FnMut(std::ops::Range<usize>, &mut [u8]),
) -> Result<Vec<u8>> {
    let mut out = vec![0u8; region.size() * elem];
    let mut at = 0;
    for_each_region_run(mapped, region, order, |start, len| {
        let n = len * elem;
        put(start..start + len, &mut out[at..at + n]);
        at += n;
    })?;
    Ok(out)
}

/// The inverse of [`pack_runs`]: `take(run, bytes)` stores the stream bytes
/// of storage elements `run`. Checks the payload length before storing
/// anything.
pub(crate) fn unpack_runs(
    mapped: &Slice,
    region: &Slice,
    order: Order,
    elem: usize,
    bytes: &[u8],
    mut take: impl FnMut(std::ops::Range<usize>, &[u8]),
) -> Result<()> {
    let expected = region.size() * elem;
    if bytes.len() != expected {
        return Err(DarrayError::PayloadLength { expected, got: bytes.len() });
    }
    let mut at = 0;
    for_each_region_run(mapped, region, order, |start, len| {
        let n = len * elem;
        take(start..start + len, &bytes[at..at + n]);
        at += n;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_slices::Range;

    fn dist_1x1(domain: &Slice) -> Arc<Distribution> {
        Distribution::block(domain, &vec![1; domain.rank()], &vec![0; domain.rank()]).unwrap()
    }

    #[test]
    fn get_set_roundtrip() {
        let dom = Slice::boxed(&[(0, 3), (0, 3)]);
        let mut a = DistArray::<f64>::new("a", Order::ColumnMajor, dist_1x1(&dom), 0);
        a.set(&[2, 3], 7.5).unwrap();
        assert_eq!(a.get(&[2, 3]).unwrap(), 7.5);
        assert_eq!(a.get(&[0, 0]).unwrap(), 0.0);
        assert!(a.get(&[4, 0]).is_err());
    }

    #[test]
    fn fill_assigned_covers_assigned_only() {
        let dom = Slice::boxed(&[(0, 7)]);
        let dist = Distribution::block(&dom, &[2], &[1]).unwrap();
        let mut a = DistArray::<i64>::new("a", Order::ColumnMajor, dist, 0);
        a.fill_assigned(|p| p[0] * 10);
        // Assigned 0..=3 filled; shadow element 4 untouched.
        assert_eq!(a.get(&[3]).unwrap(), 30);
        assert_eq!(a.get(&[4]).unwrap(), 0);
        a.fill_mapped(|p| p[0]);
        assert_eq!(a.get(&[4]).unwrap(), 4);
    }

    #[test]
    fn local_layout_matches_order() {
        let dom = Slice::boxed(&[(0, 1), (0, 2)]);
        let mut col = DistArray::<i32>::new("c", Order::ColumnMajor, dist_1x1(&dom), 0);
        col.fill_mapped(|p| (p[0] * 10 + p[1]) as i32);
        // Column-major: axis 0 fastest.
        assert_eq!(col.local(), &[0, 10, 1, 11, 2, 12]);
        let mut row = DistArray::<i32>::new("r", Order::RowMajor, dist_1x1(&dom), 0);
        row.fill_mapped(|p| (p[0] * 10 + p[1]) as i32);
        assert_eq!(row.local(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn pack_unpack_region_roundtrip() {
        let dom = Slice::boxed(&[(0, 4), (0, 4)]);
        let mut a = DistArray::<f64>::new("a", Order::ColumnMajor, dist_1x1(&dom), 0);
        a.fill_mapped(|p| (p[0] * 100 + p[1]) as f64);
        let region =
            Slice::new(vec![Range::from_indices(&[0, 2, 3]).unwrap(), Range::contiguous(1, 3)]);
        let bytes = a.pack_region(&region).unwrap();
        assert_eq!(bytes.len(), region.size() * 8);

        let mut b = DistArray::<f64>::new("b", Order::ColumnMajor, dist_1x1(&dom), 0);
        b.unpack_region(&region, &bytes).unwrap();
        region.points(Order::ColumnMajor).for_each(|p| {
            assert_eq!(b.get(p).unwrap(), a.get(p).unwrap(), "point {p:?}");
        });
        // Points outside the region stay zero.
        assert_eq!(b.get(&[1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn pack_between_different_mapped_boxes() {
        // Packing from one task's view and unpacking into another with a
        // different mapped section must agree on global coordinates.
        let dom = Slice::boxed(&[(0, 9)]);
        let dist = Distribution::block(&dom, &[2], &[2]).unwrap();
        let mut src = DistArray::<i64>::new("x", Order::ColumnMajor, dist.clone(), 0);
        src.fill_mapped(|p| p[0] * 7);
        let mut dst = DistArray::<i64>::new("x", Order::ColumnMajor, dist, 1);
        // Overlap of task 0 assigned (0..=4) and task 1 mapped (3..=9).
        let region = Slice::boxed(&[(3, 4)]);
        dst.unpack_region(&region, &src.pack_region(&region).unwrap()).unwrap();
        assert_eq!(dst.get(&[3]).unwrap(), 21);
        assert_eq!(dst.get(&[4]).unwrap(), 28);
    }

    #[test]
    fn pack_and_unpack_misuse_is_an_error() {
        let dom = Slice::boxed(&[(0, 9)]);
        let dist = Distribution::block(&dom, &[2], &[1]).unwrap();
        let mut a = DistArray::<i64>::new("x", Order::ColumnMajor, dist, 0);
        a.fill_mapped(|p| p[0]);
        // Task 0 maps 0..=5: a region reaching 6 is not mapped.
        let outside = Slice::boxed(&[(4, 6)]);
        assert_eq!(a.pack_region(&outside), Err(DarrayError::NotMapped { point: vec![6] }));
        assert!(matches!(
            a.unpack_region(&outside, &[0u8; 24]),
            Err(DarrayError::NotMapped { .. })
        ));
        // A short or long payload is refused before anything is stored.
        let inside = Slice::boxed(&[(1, 3)]);
        for len in [23, 25] {
            assert_eq!(
                a.unpack_region(&inside, &vec![0xff; len]),
                Err(DarrayError::PayloadLength { expected: 24, got: len })
            );
        }
        assert_eq!(a.get(&[2]).unwrap(), 2);
    }

    #[test]
    fn runs_merge_across_spanned_axes() {
        let runs = |mapped: &Slice, region: &Slice, order| {
            let mut out = Vec::new();
            for_each_region_run(mapped, region, order, |s, n| out.push((s, n))).unwrap();
            out
        };
        // A component axis spanned whole: runs of 3 × 4 elements per column.
        let mapped = Slice::boxed(&[(0, 2), (0, 5), (0, 3)]);
        let region = Slice::boxed(&[(0, 2), (1, 4), (1, 2)]);
        assert_eq!(runs(&mapped, &region, Order::ColumnMajor), vec![(21, 12), (39, 12)]);
        // Spanning the two fast axes makes the whole slab one run.
        let slab = Slice::boxed(&[(0, 2), (0, 5), (1, 2)]);
        assert_eq!(runs(&mapped, &slab, Order::ColumnMajor), vec![(18, 36)]);
        // Row-major: the last axis is fastest and not spanned here.
        assert_eq!(runs(&mapped, &region, Order::RowMajor)[..2], [(5, 2), (9, 2)]);
        // Positions {0, 2} of 3 with a spanned slower step: the tail of one
        // column abuts the head of the next.
        let m = Slice::boxed(&[(0, 2), (0, 1)]);
        let r = Slice::new(vec![Range::from_indices(&[0, 2]).unwrap(), Range::contiguous(0, 1)]);
        assert_eq!(runs(&m, &r, Order::ColumnMajor), vec![(0, 1), (2, 2), (5, 1)]);
    }

    #[test]
    fn fold_assigned_sums() {
        let dom = Slice::boxed(&[(1, 4)]);
        let mut a = DistArray::<f64>::new("a", Order::ColumnMajor, dist_1x1(&dom), 0);
        a.fill_assigned(|p| p[0] as f64);
        let sum = a.fold_assigned(0.0, |acc, _, v| acc + v);
        assert_eq!(sum, 10.0);
    }

    #[test]
    fn local_bytes_counts_shadow_storage() {
        let dom = Slice::boxed(&[(0, 15)]);
        let dist = Distribution::block(&dom, &[2], &[2]).unwrap();
        let a = DistArray::<f64>::new("a", Order::ColumnMajor, dist, 0);
        // Mapped = 8 assigned + 2 shadow = 10 elements.
        assert_eq!(a.local_bytes(), 10 * 8);
    }

    #[test]
    fn region_enumeration_matches_cursor() {
        let mapped = Slice::boxed(&[(0, 5), (2, 6)]);
        let region = Slice::new(vec![
            Range::strided(1, 5, 2).unwrap(),
            Range::from_indices(&[2, 5, 6]).unwrap(),
        ]);
        for order in [Order::ColumnMajor, Order::RowMajor] {
            let mut via_helper = Vec::new();
            for_each_region_index(&mapped, &region, order, |idx, p| {
                via_helper.push((idx, p.to_vec()));
            });
            let mut via_cursor = Vec::new();
            region.points(order).for_each(|p| {
                let idx = mapped.stream_position(p, order).unwrap().unwrap();
                via_cursor.push((idx, p.to_vec()));
            });
            assert_eq!(via_helper, via_cursor, "order {order:?}");
        }
    }

    #[test]
    fn rank_zero_region() {
        let mapped = Slice::new(vec![]);
        let region = Slice::new(vec![]);
        let mut count = 0;
        for_each_region_index(&mapped, &region, Order::ColumnMajor, |idx, p| {
            assert_eq!(idx, 0);
            assert!(p.is_empty());
            count += 1;
        });
        assert_eq!(count, 1);
    }
}
