//! The DRMS programming model: reconfigurable checkpoint and restart.
//!
//! This crate is the paper's primary contribution. It extends the SPMD model
//! with schedulable-and-observable points (SOPs) at which the state of a
//! parallel application is captured in a **task-count-independent** form:
//!
//! * the [`segment::DataSegment`] of *one* representative task — replicated
//!   variables, control variables, private data, system (message-buffer)
//!   residency, and the compile-time-fixed local-section storage;
//! * every distributed array, streamed through
//!   [`drms_darray::stream`] into its distribution-independent
//!   representation.
//!
//! [`Drms::reconfig_checkpoint`] implements the `drms_reconfig_checkpoint`
//! call of Table 2; [`Drms::initialize`] implements `drms_initialize`
//! (restart detection and state reload); [`Drms::reconfig_chkenable`] is the
//! system-enabled variant. A checkpoint taken on `t1` tasks restarts on `t2`
//! tasks: the application adjusts its distributions
//! ([`drms_darray::Distribution::adjust`]) and reloads each array under the
//! new distribution.
//!
//! The [`spmd`] module implements the paper's comparison baseline:
//! conventional SPMD checkpointing in which every task dumps its entire data
//! segment to a private file — simple, but the saved state grows linearly
//! with the task count and restart requires the identical task count.
//!
//! **Substitution note (execution context).** The original system restored a
//! Unix process image (stack, registers, heap) so execution resumed inside
//! the checkpoint call. Rust cannot (and should not) longjmp across task
//! frames; instead, restart returns the saved control variables and the
//! application re-enters its outer loop at the saved SOP — the same
//! structure as the paper's Figure 1 skeleton, where the loop body is
//! steered by control variables in the restored segment. At an SOP the DRMS
//! model defines the application state as exactly what we save, so no
//! information is lost by this substitution.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod commit;
pub mod manifest;
pub mod mpmd;
pub mod report;
pub mod restore;
pub mod segment;
pub mod spmd;
pub mod wire;

mod drms;
mod error;
mod handle;
mod inject;
mod verify;

pub use drms::{
    compute_integrity, delete_checkpoint, find_checkpoints, integrity_chunk, phase_span,
    read_manifest_collective, record_bytes, retain_checkpoints, stage_flight_rings, sweep_orphans,
    Drms, DrmsConfig, EnableFlag, Start,
};
pub use error::CoreError;
pub use inject::crash_point;
pub use restore::RestartInfo;
pub use verify::{verify, ChunkFault, VerifyReport};

/// Re-export of the fault-injection crate, so campaign code can name
/// [`chaos::CrashPoint`] and fault plans through the core facade.
pub use drms_chaos as chaos;
pub use handle::{decode_locals, encode_locals, encode_segment_with_locals, CheckpointArray};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
