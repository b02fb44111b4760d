//! The DRMS run-time environment (paper, Section 4).
//!
//! A DRMS-managed system consists of one master daemon — the **resource
//! coordinator** (RC) — plus one **task coordinator** (TC) per processor,
//! a **job scheduler and analyzer** (JSA) for resource allocation, and a
//! **user interface coordinator** (UIC). This crate implements that control
//! plane in-process: TCs are real threads whose liveness the RC observes
//! through channel disconnection (the stand-in for the paper's lost socket
//! connections), and the JSA drives applications through checkpoint-based
//! reconfiguration.
//!
//! The failure model is the paper's: the basic failure event is a processor
//! failure, detected by the RC as the loss of its TC connection. The RC then
//! (1) identifies the affected application and TC pool, (2) kills the
//! application's remaining processes and TCs, (3) declares the application
//! terminated, (4) informs the user, and (5) restarts TCs, returning
//! processors to the available pool as they come back. The application is
//! restarted from its latest checkpoint on whatever processors are
//! available — equal, larger, or smaller in number — *without waiting for
//! the failed processor to be repaired*.
//!
//! **Substitution note.** Applications are killed cooperatively: the RC
//! raises a kill token that tasks observe at their next SOP. This is where
//! the DRMS model helps — SOPs are the globally consistent points at which
//! an application can be cut anyway, and the archived state used for
//! recovery is always a complete checkpoint, never a torn one.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod events;
mod job;
mod jsa;
mod rc;
mod uic;

pub use events::{Event, EventLog};
pub use job::{JobEnv, JobOutcome, JobSpec, KillToken};
pub use jsa::{IncarnationRecord, Jsa, JsaPolicy, RunSummary};
pub use rc::{ProcessorState, ResourceCoordinator};
pub use uic::Uic;
