//! Survivor-group collectives: a shrunken communicator over a subset of a
//! region's tasks.
//!
//! An SPMD region's task count is fixed for its lifetime, but after a node
//! loss (or an explicit shrink) only a *subset* of the tasks owns live
//! data. A [`Group`] names that subset and provides the collectives the
//! localized-recovery protocol needs over it — barrier, byte allgather,
//! and agreement — implemented on top of the full-region
//! [`Ctx::alltoallv`] with non-members contributing empty buffers. Empty
//! buffers are free under the alltoallv cost model, so a group collective
//! prices exactly like a collective among the members, while every task of
//! the region still participates (keeping the region's collective schedule
//! well-formed — non-members are the "replacement tasks" of the paper's
//! recovery model, idling at the same rendezvous).

use crate::comm::Ctx;

/// An ordered subset of a region's ranks, acting as a communicator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<usize>,
}

impl Group {
    /// A group over the given ranks (sorted, deduplicated). Panics if
    /// empty — a communicator with no members cannot rendezvous.
    pub fn new(mut members: Vec<usize>) -> Group {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "a group needs at least one member");
        Group { members }
    }

    /// The member ranks, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether `rank` is a member.
    pub fn contains(&self, rank: usize) -> bool {
        self.members.binary_search(&rank).is_ok()
    }

    /// Collective over the *whole region*: synchronizes the group members
    /// (each pays one collective rendezvous with its peers); non-members
    /// pass through contributing nothing.
    pub fn barrier(&self, ctx: &mut Ctx) {
        self.allgather_bytes(ctx, vec![0u8]);
    }

    /// Collective over the *whole region*: gathers `data` from every
    /// member to every member, in member order. Non-members contribute
    /// empty buffers (free) and receive an empty result.
    pub fn allgather_bytes(&self, ctx: &mut Ctx, data: Vec<u8>) -> Vec<Vec<u8>> {
        let p = ctx.ntasks();
        let me_in = self.contains(ctx.rank());
        let mut outgoing = vec![Vec::new(); p];
        if me_in {
            for &m in &self.members {
                outgoing[m] = data.clone();
            }
        }
        let incoming = ctx.alltoallv(outgoing);
        if !me_in {
            return Vec::new();
        }
        self.members.iter().map(|&m| incoming.from(m).to_vec()).collect()
    }

    /// Collective over the *whole region*: every member contributes a
    /// `u64`; all members receive the element-wise list in member order.
    /// The building block for group agreement (checksum votes, epoch
    /// proposals). Non-members receive an empty vector.
    pub fn allgather_u64(&self, ctx: &mut Ctx, value: u64) -> Vec<u64> {
        self.allgather_bytes(ctx, value.to_le_bytes().to_vec())
            .into_iter()
            .map(|b| {
                let mut le = [0u8; 8];
                le.copy_from_slice(&b);
                u64::from_le_bytes(le)
            })
            .collect()
    }

    /// Collective over the *whole region*: whether every member
    /// contributed the same `u64` — the "same restored bytes" agreement of
    /// the recovery barrier. Non-members return `true` (they hold no data
    /// to disagree about).
    pub fn agree_u64(&self, ctx: &mut Ctx, value: u64) -> bool {
        let all = self.allgather_u64(ctx, value);
        all.iter().all(|&v| v == value) || !self.contains(ctx.rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::CostModel;
    use crate::runner::run_spmd;

    #[test]
    fn membership_queries() {
        let g = Group::new(vec![3, 1, 1, 5]);
        assert_eq!(g.members(), &[1, 3, 5]);
        assert_eq!(g.size(), 3);
        assert!(g.contains(3));
        assert!(!g.contains(0));
    }

    #[test]
    fn allgather_orders_by_member() {
        let vals = run_spmd(4, CostModel::default(), |ctx| {
            let g = Group::new(vec![0, 2, 3]);
            g.allgather_u64(ctx, 100 + ctx.rank() as u64)
        })
        .unwrap();
        assert_eq!(vals[0], vec![100, 102, 103]);
        assert_eq!(vals[2], vec![100, 102, 103]);
        assert_eq!(vals[3], vec![100, 102, 103]);
        assert!(vals[1].is_empty(), "non-member receives nothing");
    }

    #[test]
    fn agreement_detects_divergence() {
        let out = run_spmd(4, CostModel::default(), |ctx| {
            let g = Group::new(vec![1, 2]);
            let same = g.agree_u64(ctx, 7);
            let diff = g.agree_u64(ctx, if ctx.rank() == 2 { 9 } else { 7 });
            (same, diff)
        })
        .unwrap();
        assert!(out[1].0 && out[2].0);
        assert!(!out[1].1 && !out[2].1);
        // Non-members observe agreement vacuously.
        assert!(out[0].1 && out[3].1);
    }

    #[test]
    fn group_barrier_synchronizes_members() {
        run_spmd(3, CostModel::default(), |ctx| {
            if ctx.rank() == 1 {
                ctx.charge(0.25);
            }
            let g = Group::new(vec![0, 1]);
            g.barrier(ctx);
            if g.contains(ctx.rank()) {
                assert!(ctx.now() >= 0.25, "members wait for the slowest member");
            }
        })
        .unwrap();
    }
}
