use std::sync::Arc;

use drms_slices::{Order, Slice};

use crate::element::{decode, encode};
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
        let mut acc = Some(init);
        let region = self.assigned();
        for_each_region_index(self.mapped(), region, self.order, |idx, point| {
            let prev = acc.take().expect("fold accumulator");
            acc = Some(f(prev, point, self.local[idx]));
        });
        acc.expect("fold accumulator")
    }

    /// Packs the elements of `region` (a subset of the mapped section) into
    /// a little-endian byte buffer, in the array's stream order over the
    /// region's *global* coordinates. Both ends of a transfer enumerate the
    /// region identically, which is what makes redistribution
    /// representation-independent.
    pub fn pack_region(&self, region: &Slice) -> Vec<u8> {
        let mut vals = Vec::with_capacity(region.size());
        for_each_region_index(self.mapped(), region, self.order, |idx, _point| {
            vals.push(self.local[idx]);
        });
        encode(&vals)
    }

    /// Unpacks bytes produced by [`DistArray::pack_region`] on the same
    /// region into local storage.
    pub fn unpack_region(&mut self, region: &Slice, bytes: &[u8]) {
        let vals = decode::<T>(bytes);
        debug_assert_eq!(vals.len(), region.size(), "payload size vs region");
        let mut it = vals.into_iter();
        let mapped = self.mapped().clone();
        let order = self.order;
        for_each_region_index(&mapped, region, order, |idx, _point| {
            self.local[idx] = it.next().expect("sized above");
        });
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
/// per-element cost is O(rank) arithmetic with no range searches — this is
/// the hot loop of redistribution and streaming.
#[allow(clippy::needless_range_loop)] // per-axis loop reads several tables
pub(crate) fn for_each_region_index(
    mapped: &Slice,
    region: &Slice,
    order: Order,
    mut f: impl FnMut(usize, &[i64]),
) {
    debug_assert!(region.is_subset_of(mapped), "region {region} not within mapped {mapped}");
    if region.is_empty() {
        return;
    }
    let d = region.rank();
    if d == 0 {
        f(0, &[]);
        return;
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
            let pos = mrange
                .position(g)
                .unwrap_or_else(|| panic!("region point {g} on axis {ax} not mapped"));
            offs.push(pos * strides[ax]);
            crds.push(g);
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
    loop {
        let flat: usize = (0..d).map(|ax| offsets[ax][idx[ax]]).sum();
        f(flat, &point);
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
            break;
        }
    }
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
        let bytes = a.pack_region(&region);
        assert_eq!(bytes.len(), region.size() * 8);

        let mut b = DistArray::<f64>::new("b", Order::ColumnMajor, dist_1x1(&dom), 0);
        b.unpack_region(&region, &bytes);
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
        dst.unpack_region(&region, &src.pack_region(&region));
        assert_eq!(dst.get(&[3]).unwrap(), 21);
        assert_eq!(dst.get(&[4]).unwrap(), 28);
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
