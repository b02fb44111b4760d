//! Localized recovery: survivor-driven section restore instead of a
//! full-application restart.
//!
//! The paper's recovery model — and every layer built on it so far — treats
//! node loss as total: the application is killed, every task restarts, and
//! the whole state reloads from the newest checkpoint. That is *globally
//! rolled back and globally re-read*. This crate keeps the global rollback
//! (all tasks resume from the checkpoint iteration — the SOP definition of
//! state makes that the only consistent cut) but localizes the **data
//! movement**:
//!
//! * Survivors *retain* their checkpoint-time local sections in memory
//!   ([`retain`], a memcpy-priced copy at each commit) and reinstate them
//!   without touching the network or storage.
//! * Only the **lost ranks' sections** are fetched, through an escalation
//!   ladder whose rungs are the range fetches of the three restart sources
//!   ([`drms_core::restore::RestartSource`]): memory-tier replicas first
//!   ([`drms_memtier::TierSource`], no storage round-trip), then
//!   range-limited PIOFS reads of the committed checkpoint (full streams,
//!   or delta chains via [`drms_delta::DeltaSource`]), and — when neither
//!   can serve — escalation to the ordinary verified full restart
//!   ([`drms_core::CoreError::Escalate`]).
//! * Distributions are re-adjusted **online**: the arrays re-partition onto
//!   the surviving task subset through the live redistribution path
//!   (`drms_darray::assign`), never through storage. The same machinery
//!   gives malleable jobs explicit [`shrink`]/[`grow`] at an SOP.
//! * A collective, epoch-stamped **recovery barrier**
//!   ([`recovery_barrier`]) makes every survivor observe the same
//!   membership transition, and a survivor-group agreement step
//!   ([`drms_msg::Group`]) commits to the same restored bytes.
//!
//! The protocol is crash-consistent: each stage carries a
//! [`drms_core::chaos::CrashPoint`] (`Recover*`), flight rings are staged
//! through the same salvage path as checkpoint commits, and a recovery
//! journal is published with its final rename as the commit point. A
//! second failure mid-recovery therefore degrades *deterministically* to
//! the verified full restart — never to a half-restored state.
//!
//! Every entry point fails in [`drms_core::CoreError`]: `Escalate` asks
//! the caller for the full restart, and a crash point firing mid-protocol
//! is [`drms_core::CoreError::Interrupted`], the kill a checkpoint-time
//! crash is.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod epoch;
mod malleable;
mod protocol;

pub use epoch::{recovery_barrier, Membership};
pub use malleable::{grow, resize, shrink};
pub use protocol::{recover, retain, RecoverReport, Retained, StreamSource};
