//! Online shrink and grow: malleable jobs without storage.
//!
//! The paper reconfigures task counts *through a checkpoint*: write on
//! `t1` tasks, restart on `t2`. The localized-recovery machinery makes the
//! storage round-trip unnecessary when the tasks themselves are still
//! alive: at an SOP, every array re-partitions across the new active set
//! through the live redistribution path ([`drms_darray::assign`]) — the
//! same online membership transition a recovery performs, minus the
//! restore. Shrink leaves the vacated tasks running with empty sections
//! (ready to be re-grown or to serve as replacements); grow re-activates
//! them and spreads the arrays back out. Zero checkpoint I/O either way.

use drms_core::{CheckpointArray, CoreError, Result};
use drms_msg::Ctx;
use drms_obs::names;

use crate::epoch::{recovery_barrier, Membership};

/// Collective: re-partitions every array onto `active` tasks and stamps
/// the membership transition with a fresh epoch. The active list must be
/// non-empty, strictly increasing, and within the region.
pub fn resize(
    ctx: &mut Ctx,
    prev: &Membership,
    active: &[usize],
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<Membership> {
    if active.is_empty() {
        return Err(CoreError::ManifestMismatch("cannot resize to zero tasks".into()));
    }
    for a in arrays.iter_mut() {
        a.repartition(ctx, active)?;
    }
    // The epoch barrier doubles as the SOP synchronization: every task
    // observes the same transition. Nothing failed, so no nodes are
    // reported lost; survivorship is simply the new active set.
    let agreed = recovery_barrier(ctx, prev, &[]);
    let survivors: Vec<bool> = (0..ctx.ntasks()).map(|r| active.contains(&r)).collect();
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        ctx.recorder().counter_add_at(ctx.now(), 0, names::RECOVER_RESIZES, None, 1);
    }
    Ok(Membership { epoch: agreed.epoch, survivors })
}

/// Collective: shrinks the job to its first `n` tasks at an SOP. The
/// remaining tasks keep running with empty sections.
pub fn shrink(
    ctx: &mut Ctx,
    prev: &Membership,
    n: usize,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<Membership> {
    let active: Vec<usize> = (0..n.min(ctx.ntasks())).collect();
    resize(ctx, prev, &active, arrays)
}

/// Collective: grows the job back to its first `n` tasks at an SOP,
/// re-activating previously vacated tasks.
pub fn grow(
    ctx: &mut Ctx,
    prev: &Membership,
    n: usize,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<Membership> {
    shrink(ctx, prev, n, arrays)
}
