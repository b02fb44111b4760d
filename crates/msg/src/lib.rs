//! In-process SPMD task runtime with virtual-time message passing.
//!
//! This crate is the substitute for the MPL/MPI layer of the IBM RS/6000 SP
//! the paper ran on. An application region runs as `P` *tasks* (one OS thread
//! each) that communicate through a [`Ctx`]: barriers, reductions, gathers,
//! and the `alltoallv` exchange that array redistribution is built on.
//! Checkpoint traffic is collective: every byte a checkpoint or restart
//! moves between tasks crosses `alltoallv` or the exchange board. The
//! point-to-point pair [`Ctx::send`]/[`Ctx::recv`] is the plain cost-model
//! path (overhead, wire time, latency) with no fault injection; no
//! checkpoint path uses it.
//!
//! **Virtual time.** Every task owns a [`SimClock`]. Communication and
//! compute charge simulated seconds against it according to a [`CostModel`]
//! (wire latency + 1/bandwidth, calibrated to the 1995-era SP switch);
//! synchronizing operations reconcile clocks (a barrier takes the maximum).
//! All *data* movement is real — payload bytes actually travel between
//! threads — but *time* is simulated, which is what lets a single-core host
//! report faithful 16-processor execution times.
//!
//! **Starting a region.** [`Spmd`] is the one way to start a region:
//! `Spmd::new(ntasks, cost)`, optionally `.nodes(..)`, `.recorder(..)` and
//! `.chaos(..)`, then `.run(f)`. [`run_spmd`] and [`run_spmd_traced`] are
//! one-line spellings of its two commonest uses.
//!
//! **Host threads.** A task blocked in a collective or a `recv` parks its
//! thread until the one task that completes the wait unparks it, and panics
//! after 120 s. [`spread`] is the one fan-out of host work over the idle
//! cores: a task doing pure byte work alone (the representative task's
//! segment encode, CRC and decode) lends it to scoped threads that join
//! before the call returns, and never reaches a clock.
//!
//! The paper's experiments map tasks one-to-one onto processors; the runtime
//! records the task → node placement ([`Spmd::nodes`]) so the file-system
//! layer can model client/server co-location interference (paper,
//! Section 5).
//!
//! **Observability.** A region optionally carries a `drms-obs`
//! [`Recorder`](drms_obs::Recorder) ([`Spmd::recorder`]); tasks reach it
//! through [`Ctx::recorder`], and `send` and `alltoallv` count messages and
//! payload bytes. The default recorder is the zero-cost
//! [`NullRecorder`](drms_obs::NullRecorder).

#![deny(missing_docs)]

mod board;
mod clock;
mod comm;
mod group;
mod runner;
mod spread;

pub use clock::{CostModel, SimClock};
pub use comm::{Ctx, Incoming, Parcel, ReduceOp};
pub use group::Group;
pub use runner::{run_spmd, run_spmd_traced, Spmd, SpmdError};
pub use spread::{copy_spread, spread, SPREAD_MIN, SPREAD_PIECE};

/// Re-export of the fault-injection crate: consumers that only hold a
/// [`Ctx`] can name the controller types without a direct dependency.
pub use drms_chaos as chaos;

/// Task identifier within an SPMD region (0-based rank).
pub type Rank = usize;
