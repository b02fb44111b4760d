//! Deterministic fault injection for the DRMS checkpoint/restart pipeline.
//!
//! Production checkpointing systems are judged by what happens when the
//! environment misbehaves *during* an operation, not between operations: a
//! file-system server that answers "try again", a write torn halfway, a
//! node that dies between the data phase and the manifest phase of a
//! checkpoint. This crate supplies the machinery to rehearse exactly those
//! moments, reproducibly:
//!
//! * [`FaultPlan`] — a seeded, declarative description of which faults to
//!   inject: the parallel file system ([`PiofsFaults`]: transient server
//!   errors, torn writes) and the runtime ([`CrashPoint`]: task/node death
//!   at enumerated points inside checkpoint and restart). There is no
//!   message weather: a checkpoint or restart moves every byte through the
//!   collectives (`alltoallv` and the board exchange), never through a
//!   point-to-point send, so the file system is where transient faults
//!   meet checkpoint traffic.
//! * [`ChaosCtl`] — the controller instrumented code consults. Every
//!   decision is a **stateless hash** of `(seed, site, rank, sequence,
//!   attempt)`, so outcomes do not depend on thread interleaving: the same
//!   plan against the same program replays the same faults, which is what
//!   makes a failing campaign reproducible from its one-command repro line.
//! * [`RetryPolicy`] — the bounded exponential-backoff schedule the PIOFS
//!   read/write retry loops charge against the virtual clock.
//!   Deterministic per seed, monotone non-decreasing, capped, and bounded
//!   in attempt count (property-tested in `tests/properties.rs`).
//!
//! The crate has no dependencies and injects nothing by itself: layers opt
//! in by consulting a controller that the region was started with
//! (`drms_msg::Spmd::chaos`), and a region without one pays nothing.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod backoff;
mod ctl;
mod plan;
mod rng;

pub use backoff::RetryPolicy;
pub use ctl::ChaosCtl;
pub use plan::{
    CommitPoints, CrashPoint, FaultPlan, PiofsFaults, RestartPoints, TornWrite, CKPT_COMMIT,
    FLUSH_COMMIT, RESTART_DELTA, RESTART_FULL,
};
pub use rng::{mix, unit};
