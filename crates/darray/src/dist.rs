use std::sync::Arc;

use drms_slices::{Range, Slice};

use crate::{DarrayError, Result};

/// How a distribution was constructed — retained so that `adjust` (the
/// paper's `drms_adjust`) can recompute an equivalent distribution for a
/// different number of tasks after a reconfigured restart.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DistKind {
    /// Block decomposition over a `parts[axis]` processor grid with a
    /// per-axis shadow width (in elements).
    BlockGrid { parts: Vec<usize>, shadow: Vec<usize> },
    /// Cyclic decomposition along one axis.
    CyclicAxis { axis: usize },
    /// Canonical per-piece distribution used by the streaming engine.
    Pieces,
    /// Arbitrary user-supplied sections.
    Irregular,
    /// Block decomposition over an *active subset* of the region's tasks;
    /// the remaining tasks hold empty sections but still participate in
    /// collectives. This is how localized recovery and online shrink/grow
    /// re-partition live arrays without changing the region's task count.
    ActiveBlock { active: Vec<usize>, shadow: Vec<usize> },
}

/// The mapping of array sections to tasks: one *assigned* and one *mapped*
/// slice per task (paper, Section 3.1).
///
/// Invariants, enforced at construction:
/// * assigned sections are pairwise disjoint (element values are unique);
/// * each assigned section is a subset of its mapped section;
/// * every section lies within the array domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    domain: Slice,
    assigned: Vec<Slice>,
    mapped: Vec<Slice>,
    kind: DistKind,
}

impl Distribution {
    /// Block decomposition of `domain` over a `parts` grid of tasks (one
    /// entry per axis, product = task count), with `shadow[axis]` extra
    /// overlap elements mapped on each side of the assigned block.
    ///
    /// Task ranks traverse the part grid in column-major order (first axis
    /// fastest), matching the Fortran convention of the paper's benchmarks.
    pub fn block(domain: &Slice, parts: &[usize], shadow: &[usize]) -> Result<Arc<Distribution>> {
        let d = domain.rank();
        if parts.len() != d || shadow.len() != d {
            return Err(DarrayError::BadDecomposition {
                reason: format!(
                    "domain rank {d} but {} part counts / {} shadow widths",
                    parts.len(),
                    shadow.len()
                ),
            });
        }
        if parts.contains(&0) {
            return Err(DarrayError::BadDecomposition {
                reason: "zero parts along an axis".into(),
            });
        }
        let ntasks: usize = parts.iter().product();
        let mut assigned = Vec::with_capacity(ntasks);
        let mut mapped = Vec::with_capacity(ntasks);
        for task in 0..ntasks {
            // Column-major grid coordinates of this task.
            let mut rem = task;
            let mut a_ranges = Vec::with_capacity(d);
            let mut m_ranges = Vec::with_capacity(d);
            for ax in 0..d {
                let coord = rem % parts[ax];
                rem /= parts[ax];
                let r = domain.range(ax);
                let n = r.len();
                let lo = n * coord / parts[ax];
                let hi = n * (coord + 1) / parts[ax];
                a_ranges.push(r.subrange(lo, hi)?);
                let mlo = lo.saturating_sub(shadow[ax]);
                let mhi = (hi + shadow[ax]).min(n);
                m_ranges.push(r.subrange(mlo, mhi)?);
            }
            assigned.push(Slice::new(a_ranges));
            mapped.push(Slice::new(m_ranges));
        }
        let dist = Distribution {
            domain: domain.clone(),
            assigned,
            mapped,
            kind: DistKind::BlockGrid { parts: parts.to_vec(), shadow: shadow.to_vec() },
        };
        dist.validate()?;
        Ok(Arc::new(dist))
    }

    /// Block decomposition for `ntasks` tasks with a uniform shadow width,
    /// choosing the processor grid automatically (larger axes get more
    /// parts).
    pub fn block_auto(
        domain: &Slice,
        ntasks: usize,
        shadow_width: usize,
    ) -> Result<Arc<Distribution>> {
        let extents = domain.extents();
        let parts = factorize(ntasks, &extents);
        let shadow = vec![shadow_width; domain.rank()];
        Self::block(domain, &parts, &shadow)
    }

    /// Cyclic decomposition along `axis`: task `t` is assigned elements
    /// `t, t + P, t + 2P, ...` of that axis (mapped = assigned; cyclic codes
    /// carry no shadows).
    pub fn cyclic(domain: &Slice, ntasks: usize, axis: usize) -> Result<Arc<Distribution>> {
        if ntasks == 0 || axis >= domain.rank() {
            return Err(DarrayError::BadDecomposition {
                reason: format!("cyclic over {ntasks} tasks along axis {axis}"),
            });
        }
        let r = domain.range(axis);
        let idx = r.to_vec();
        let mut assigned = Vec::with_capacity(ntasks);
        for t in 0..ntasks {
            let mine: Vec<i64> = idx.iter().skip(t).step_by(ntasks).cloned().collect();
            let range = Range::from_indices(&mine)?;
            assigned.push(domain.with_range(axis, range));
        }
        let dist = Distribution {
            domain: domain.clone(),
            assigned: assigned.clone(),
            mapped: assigned,
            kind: DistKind::CyclicAxis { axis },
        };
        dist.validate()?;
        Ok(Arc::new(dist))
    }

    /// Canonical distribution for a streaming wave: task `t` is assigned
    /// (and mapped) exactly `pieces[t]`; tasks beyond the pieces get empty
    /// sections (they participate in redistribution but perform no I/O —
    /// paper, Section 3.2).
    pub fn pieces(domain: &Slice, ntasks: usize, pieces: &[Slice]) -> Result<Arc<Distribution>> {
        if pieces.len() > ntasks {
            return Err(DarrayError::TaskCountMismatch { expected: ntasks, got: pieces.len() });
        }
        let mut assigned: Vec<Slice> = pieces.to_vec();
        assigned.resize_with(ntasks, || Slice::empty(domain.rank()));
        let dist = Distribution {
            domain: domain.clone(),
            assigned: assigned.clone(),
            mapped: assigned,
            kind: DistKind::Pieces,
        };
        dist.validate()?;
        Ok(Arc::new(dist))
    }

    /// Arbitrary user-supplied assigned and mapped sections; validated
    /// against the distribution invariants. Supports the sparse and
    /// unstructured decompositions of Section 3.1.
    pub fn irregular(
        domain: &Slice,
        assigned: Vec<Slice>,
        mapped: Vec<Slice>,
    ) -> Result<Arc<Distribution>> {
        if assigned.len() != mapped.len() {
            return Err(DarrayError::TaskCountMismatch {
                expected: assigned.len(),
                got: mapped.len(),
            });
        }
        let dist =
            Distribution { domain: domain.clone(), assigned, mapped, kind: DistKind::Irregular };
        dist.validate()?;
        Ok(Arc::new(dist))
    }

    /// Block decomposition of `domain` over the `active` subset of a
    /// region's `ntasks` tasks, with a uniform shadow width. The domain is
    /// partitioned block-wise across `active.len()` parts (processor grid
    /// chosen automatically, as in [`Distribution::block_auto`]); part `i`
    /// is assigned to rank `active[i]` and every rank outside `active`
    /// gets an empty section. The active list must be strictly increasing
    /// and within `0..ntasks`.
    ///
    /// This is the distribution shape of survivor-driven recovery and of
    /// malleable shrink/grow: the SPMD region keeps all `ntasks` tasks (so
    /// collectives stay well-formed), but only the active subset owns data.
    pub fn block_active(
        domain: &Slice,
        active: &[usize],
        ntasks: usize,
        shadow_width: usize,
    ) -> Result<Arc<Distribution>> {
        if active.is_empty() || active.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DarrayError::BadDecomposition {
                reason: format!("active task list {active:?} is empty or not strictly increasing"),
            });
        }
        if let Some(last) = active.last().filter(|&&last| last >= ntasks) {
            return Err(DarrayError::BadDecomposition {
                reason: format!("active task {last} outside region of {ntasks}"),
            });
        }
        let part = Distribution::block_auto(domain, active.len(), shadow_width)?;
        let d = domain.rank();
        let mut assigned = vec![Slice::empty(d); ntasks];
        let mut mapped = vec![Slice::empty(d); ntasks];
        for (i, &task) in active.iter().enumerate() {
            assigned[task] = part.assigned(i).clone();
            mapped[task] = part.mapped(i).clone();
        }
        let dist = Distribution {
            domain: domain.clone(),
            assigned,
            mapped,
            kind: DistKind::ActiveBlock { active: active.to_vec(), shadow: vec![shadow_width; d] },
        };
        dist.validate()?;
        Ok(Arc::new(dist))
    }

    /// A copy of this distribution with every task for which `keep` is
    /// false stripped to empty assigned *and* mapped sections. The result
    /// is what survivors still hold after a node loss: redistributing from
    /// a masked distribution moves only the survivors' data and leaves the
    /// lost sections as holes for the section-restore path to fill.
    pub fn masked(&self, keep: &[bool]) -> Result<Arc<Distribution>> {
        if keep.len() != self.ntasks() {
            return Err(DarrayError::TaskCountMismatch {
                expected: self.ntasks(),
                got: keep.len(),
            });
        }
        let d = self.domain.rank();
        let assigned = self
            .assigned
            .iter()
            .zip(keep)
            .map(|(s, &k)| if k { s.clone() } else { Slice::empty(d) })
            .collect();
        let mapped = self
            .mapped
            .iter()
            .zip(keep)
            .map(|(s, &k)| if k { s.clone() } else { Slice::empty(d) })
            .collect();
        let dist = Distribution {
            domain: self.domain.clone(),
            assigned,
            mapped,
            kind: DistKind::Irregular,
        };
        dist.validate()?;
        Ok(Arc::new(dist))
    }

    /// Per-axis shadow widths of a block-style distribution (`None` for
    /// cyclic, pieces, and irregular kinds, which carry no shadows). Used
    /// to re-derive an equivalent active-set distribution when recovery or
    /// shrink/grow re-partitions an array.
    pub fn shadow_widths(&self) -> Option<&[usize]> {
        match &self.kind {
            DistKind::BlockGrid { shadow, .. } | DistKind::ActiveBlock { shadow, .. } => {
                Some(shadow)
            }
            _ => None,
        }
    }

    /// Recomputes this distribution for a different task count — the
    /// `drms_adjust` operation invoked after a reconfigured restart with
    /// `delta != 0`. Block and cyclic distributions adjust automatically;
    /// irregular ones must be re-specified by the application.
    pub fn adjust(&self, new_ntasks: usize) -> Result<Arc<Distribution>> {
        match &self.kind {
            DistKind::BlockGrid { parts: _, shadow } => {
                let extents = self.domain.extents();
                let parts = factorize(new_ntasks, &extents);
                Distribution::block(&self.domain, &parts, shadow)
            }
            DistKind::CyclicAxis { axis } => Distribution::cyclic(&self.domain, new_ntasks, *axis),
            // A restart onto a fresh region activates every task again: the
            // active-set shape was a property of the old region's failures.
            DistKind::ActiveBlock { shadow, .. } => {
                Distribution::block_auto(&self.domain, new_ntasks, shadow[0])
            }
            DistKind::Pieces | DistKind::Irregular => Err(DarrayError::NotAdjustable),
        }
    }

    /// The array domain.
    pub fn domain(&self) -> &Slice {
        &self.domain
    }

    /// Number of tasks the distribution spans.
    pub fn ntasks(&self) -> usize {
        self.assigned.len()
    }

    /// The section assigned to `task`.
    pub fn assigned(&self, task: usize) -> &Slice {
        &self.assigned[task]
    }

    /// The section mapped to `task`.
    pub fn mapped(&self, task: usize) -> &Slice {
        &self.mapped[task]
    }

    /// Total elements in mapped sections (the paper's "local sections"
    /// storage, which exceeds the domain size by the shadow overlap).
    pub fn mapped_elements(&self) -> usize {
        self.mapped.iter().map(Slice::size).sum()
    }

    /// Enforces the paper's distribution invariants.
    fn validate(&self) -> Result<()> {
        let p = self.assigned.len();
        if self.mapped.len() != p {
            return Err(DarrayError::TaskCountMismatch { expected: p, got: self.mapped.len() });
        }
        for t in 0..p {
            if !self.assigned[t].is_subset_of(&self.mapped[t]) {
                return Err(DarrayError::AssignedNotMapped { task: t });
            }
            if !self.mapped[t].is_subset_of(&self.domain) {
                return Err(DarrayError::OutsideDomain { task: t });
            }
        }
        for a in 0..p {
            if self.assigned[a].is_empty() {
                continue;
            }
            for b in (a + 1)..p {
                let overlap = self.assigned[a].intersect(&self.assigned[b])?;
                if !overlap.is_empty() {
                    return Err(DarrayError::AssignedOverlap { a, b, witness: overlap });
                }
            }
        }
        Ok(())
    }
}

/// Factorizes `p` into one factor per axis, giving larger factors to axes
/// with larger extents (the usual near-isotropic processor grid). The
/// result is deterministic.
pub fn factorize(p: usize, extents: &[usize]) -> Vec<usize> {
    let d = extents.len();
    if d == 0 {
        return Vec::new();
    }
    let mut parts = vec![1usize; d];
    // Prime-factor p, largest primes first.
    let mut primes = Vec::new();
    let mut n = p.max(1);
    let mut f = 2;
    while f * f <= n {
        while n.is_multiple_of(f) {
            primes.push(f);
            n /= f;
        }
        f += 1;
    }
    if n > 1 {
        primes.push(n);
    }
    primes.sort_unstable_by(|a, b| b.cmp(a));
    for prime in primes {
        // Assign to the axis where elements-per-part stays largest, the
        // first such axis on a tie.
        let per_part = |i: usize| extents[i] as f64 / (parts[i] * prime) as f64;
        let best = (1..d).fold(0, |best, i| if per_part(i) > per_part(best) { i } else { best });
        parts[best] *= prime;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain3(n: usize) -> Slice {
        Slice::boxed(&[(1, n as i64), (1, n as i64), (1, n as i64)])
    }

    #[test]
    fn block_covers_domain_disjointly() {
        let dom = domain3(8);
        let dist = Distribution::block(&dom, &[2, 2, 2], &[0, 0, 0]).unwrap();
        assert_eq!(dist.ntasks(), 8);
        let total: usize = (0..8).map(|t| dist.assigned(t).size()).sum();
        assert_eq!(total, dom.size());
        // Validation already rejects overlaps; spot-check coverage.
        for p in [[1i64, 1, 1], [8, 8, 8], [4, 5, 6]] {
            let owners = (0..8).filter(|&t| dist.assigned(t).contains(&p).unwrap()).count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn block_shadows_extend_mapped() {
        let dom = domain3(8);
        let dist = Distribution::block(&dom, &[2, 1, 1], &[1, 0, 0]).unwrap();
        // Task 0 assigned rows 1..=4, mapped extends one past: 1..=5.
        assert_eq!(dist.assigned(0).range(0), &Range::contiguous(1, 4));
        assert_eq!(dist.mapped(0).range(0), &Range::contiguous(1, 5));
        // Task 1 assigned 5..=8, mapped 4..=8 (clipped at domain edge).
        assert_eq!(dist.mapped(1).range(0), &Range::contiguous(4, 8));
        assert!(dist.mapped_elements() > dom.size());
    }

    #[test]
    fn block_remainder_split_is_balanced() {
        let dom = Slice::boxed(&[(0, 9)]); // 10 elements over 3 parts
        let dist = Distribution::block(&dom, &[3], &[0]).unwrap();
        let sizes: Vec<usize> = (0..3).map(|t| dist.assigned(t).size()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "{sizes:?}");
    }

    #[test]
    fn block_rank_ordering_is_column_major() {
        let dom = Slice::boxed(&[(0, 3), (0, 3)]);
        let dist = Distribution::block(&dom, &[2, 2], &[0, 0]).unwrap();
        // Rank 1 = grid coords (1, 0): second half of axis 0, first of axis 1.
        assert_eq!(dist.assigned(1), &Slice::boxed(&[(2, 3), (0, 1)]));
        // Rank 2 = grid coords (0, 1).
        assert_eq!(dist.assigned(2), &Slice::boxed(&[(0, 1), (2, 3)]));
    }

    #[test]
    fn block_rejects_bad_args() {
        let dom = domain3(4);
        assert!(Distribution::block(&dom, &[2, 2], &[0, 0, 0]).is_err());
        assert!(Distribution::block(&dom, &[0, 1, 1], &[0, 0, 0]).is_err());
    }

    #[test]
    fn cyclic_interleaves() {
        let dom = Slice::boxed(&[(0, 9)]);
        let dist = Distribution::cyclic(&dom, 3, 0).unwrap();
        assert_eq!(dist.assigned(0).range(0).to_vec(), vec![0, 3, 6, 9]);
        assert_eq!(dist.assigned(1).range(0).to_vec(), vec![1, 4, 7]);
        assert_eq!(dist.assigned(2).range(0).to_vec(), vec![2, 5, 8]);
    }

    #[test]
    fn irregular_validation_catches_overlap() {
        let dom = Slice::boxed(&[(0, 9)]);
        let a = vec![Slice::boxed(&[(0, 5)]), Slice::boxed(&[(5, 9)])];
        let err = Distribution::irregular(&dom, a.clone(), a).unwrap_err();
        assert!(matches!(err, DarrayError::AssignedOverlap { a: 0, b: 1, .. }));
    }

    #[test]
    fn irregular_validation_catches_unmapped_assigned() {
        let dom = Slice::boxed(&[(0, 9)]);
        let assigned = vec![Slice::boxed(&[(0, 5)])];
        let mapped = vec![Slice::boxed(&[(2, 9)])];
        let err = Distribution::irregular(&dom, assigned, mapped).unwrap_err();
        assert!(matches!(err, DarrayError::AssignedNotMapped { task: 0 }));
    }

    #[test]
    fn irregular_validation_catches_outside_domain() {
        let dom = Slice::boxed(&[(0, 9)]);
        let s = vec![Slice::boxed(&[(5, 12)])];
        let err = Distribution::irregular(&dom, s.clone(), s).unwrap_err();
        assert!(matches!(err, DarrayError::OutsideDomain { task: 0 }));
    }

    #[test]
    fn adjust_block_to_new_task_count() {
        let dom = domain3(12);
        let dist = Distribution::block(&dom, &[2, 2, 1], &[1, 1, 1]).unwrap();
        let adjusted = dist.adjust(6).unwrap();
        assert_eq!(adjusted.ntasks(), 6);
        let total: usize = (0..6).map(|t| adjusted.assigned(t).size()).sum();
        assert_eq!(total, dom.size());
    }

    #[test]
    fn adjust_preserves_shadow_width() {
        let dom = Slice::boxed(&[(0, 31)]);
        let dist = Distribution::block(&dom, &[4], &[2]).unwrap();
        let adjusted = dist.adjust(2).unwrap();
        // Interior boundary at element 16: mapped extends 2 each way.
        assert_eq!(adjusted.assigned(0).range(0), &Range::contiguous(0, 15));
        assert_eq!(adjusted.mapped(0).range(0), &Range::contiguous(0, 17));
    }

    #[test]
    fn adjust_irregular_fails() {
        let dom = Slice::boxed(&[(0, 9)]);
        let s = vec![Slice::boxed(&[(0, 9)])];
        let dist = Distribution::irregular(&dom, s.clone(), s).unwrap();
        assert!(matches!(dist.adjust(2), Err(DarrayError::NotAdjustable)));
    }

    #[test]
    fn pieces_pads_with_empty() {
        let dom = Slice::boxed(&[(0, 9)]);
        let dist =
            Distribution::pieces(&dom, 4, &[Slice::boxed(&[(0, 4)]), Slice::boxed(&[(5, 9)])])
                .unwrap();
        assert_eq!(dist.ntasks(), 4);
        assert!(dist.assigned(2).is_empty());
        assert!(dist.assigned(3).is_empty());
    }

    #[test]
    fn factorize_prefers_long_axes() {
        assert_eq!(factorize(8, &[64, 64, 64]).iter().product::<usize>(), 8);
        let parts = factorize(4, &[1000, 10]);
        assert_eq!(parts, vec![4, 1]);
        let parts = factorize(6, &[100, 100]);
        assert_eq!(parts.iter().product::<usize>(), 6);
        assert_eq!(factorize(1, &[5, 5]), vec![1, 1]);
        assert_eq!(factorize(7, &[100]), vec![7]);
    }

    #[test]
    fn factorize_deterministic() {
        for _ in 0..5 {
            assert_eq!(factorize(12, &[30, 30, 30]), factorize(12, &[30, 30, 30]));
        }
    }
}
