//! Collective crash-point injection for robustness campaigns.
//!
//! A crash must be a *collective* decision: if rank 0 alone vanished
//! mid-checkpoint, its siblings would hang in the next barrier until the
//! stall guard fired. Instead, rank 0 consults the chaos controller and the
//! vote is propagated through the exchange board, so every task returns
//! [`CoreError::Interrupted`] from the same point — the job-level analog of
//! a node death at that instant. The runtime environment treats the error
//! like any other kill and drives a restart from the last *committed*
//! checkpoint.

use drms_chaos::CrashPoint;
use drms_msg::Ctx;
use drms_obs::{markers, names, Phase};
use drms_piofs::Piofs;

use crate::{CoreError, Result};

/// Fires the enumerated crash point when the region runs under a chaos
/// plan that armed it. Regions without a chaos controller pay nothing:
/// no exchange, no branch on plan contents, so virtual timing is
/// bit-identical to a build without injection.
///
/// `aborts_commit` marks points where a staged-but-uncommitted checkpoint
/// is abandoned, counted separately (as [`names::COMMIT_ABORTS`]) from
/// crashes that interrupt nothing in flight.
///
/// When a flight recorder is attached, every rank salvages one last seal
/// of its ring to `fs` before dying (see `salvage_flight_ring`), so the
/// post-crash restart can recover the incarnation's final moments.
pub fn crash_point(
    ctx: &mut Ctx,
    fs: &Piofs,
    point: CrashPoint,
    aborts_commit: bool,
) -> Result<()> {
    let Some(chaos) = ctx.chaos() else { return Ok(()) };
    let mine = ctx.rank() == 0 && chaos.should_crash(point);
    let (votes, _) = ctx.exchange(mine);
    if !votes[0] {
        return Ok(());
    }
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.counter_add(0, names::CRASHES_INJECTED, None, 1);
        if aborts_commit {
            rec.counter_add(0, names::COMMIT_ABORTS, None, 1);
        }
        rec.event(ctx.now(), 0, Phase::Control, &format!("{}{point}", markers::CRASH_EVENT_PREFIX));
    }
    salvage_flight_ring(ctx, fs, point.as_str());
    Err(CoreError::Interrupted(point.as_str().to_string()))
}

/// The dying region's last words: seals a snapshot of the calling rank's
/// flight ring and dumps it straight into the salvage area. The dump is a
/// control-plane `preload` — a process that is about to die does not get
/// to price orderly collective I/O, it scribbles what it can — and the
/// file is keyed by the seal's unique tag, so salvages from different
/// incarnations and crash points never collide. No-op without a flight
/// recorder.
fn salvage_flight_ring(ctx: &Ctx, fs: &Piofs, reason: &str) {
    let rec = ctx.recorder();
    if !rec.flight_enabled() {
        return;
    }
    let Some(seal) = rec.flight_seal(ctx.now(), ctx.rank(), reason) else { return };
    fs.preload(&format!("{}/{}", drms_obs::SALVAGE_DIR, seal.tag), seal.bytes.clone());
    let (t, r) = (ctx.now(), ctx.rank());
    rec.counter_add_at(t, r, names::BLACKBOX_SALVAGES, None, 1);
    rec.counter_add_at(t, r, names::BLACKBOX_SEALS, None, 1);
    rec.counter_add_at(t, r, names::BLACKBOX_SEAL_BYTES, None, seal.bytes.len() as u64);
    rec.counter_add_at(t, r, names::BLACKBOX_EVENTS_CAPTURED, None, seal.events);
    rec.counter_add_at(t, r, names::BLACKBOX_EVENTS_EVICTED, None, seal.evicted);
}
