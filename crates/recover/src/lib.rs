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
//!   ([`RecoverError::Escalate`]).
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

#![deny(missing_docs)]

use std::fmt;

use drms_core::CoreError;
use drms_memtier::MemTierError;

mod epoch;
mod malleable;
mod protocol;

pub use epoch::{recovery_barrier, Membership};
pub use malleable::{grow, resize, shrink};
pub use protocol::{recover, retain, RecoverReport, Retained, StreamSource};

/// Why localized recovery could not run (distinct from a protocol error).
#[derive(Debug)]
pub enum RecoverError {
    /// Localized recovery cannot serve this loss (replicas gone and no
    /// readable checkpoint, no survivors, or an unsupported checkpoint
    /// kind). The caller must fall back to the verified full restart.
    Escalate(
        /// Human-readable reason, surfaced in the degradation alert.
        String,
    ),
    /// A core-protocol error — including [`CoreError::Interrupted`] when a
    /// chaos crash fires at a `Recover*` crash point, which the job maps to
    /// a kill exactly like a checkpoint-time crash.
    Core(CoreError),
    /// A memory-tier error outside the escalation decision (the upfront
    /// intact check routes ordinary replica loss to `Escalate`).
    MemTier(MemTierError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Escalate(why) => {
                write!(f, "localized recovery escalated to full restart: {why}")
            }
            RecoverError::Core(e) => write!(f, "{e}"),
            RecoverError::MemTier(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Escalate(_) => None,
            RecoverError::Core(e) => Some(e),
            RecoverError::MemTier(e) => Some(e),
        }
    }
}

impl From<CoreError> for RecoverError {
    fn from(e: CoreError) -> RecoverError {
        RecoverError::Core(e)
    }
}

impl From<MemTierError> for RecoverError {
    fn from(e: MemTierError) -> RecoverError {
        RecoverError::MemTier(e)
    }
}

impl RecoverError {
    /// Whether this error is the chaos-injected crash signal (the job must
    /// treat it as a kill, not an escalation).
    pub fn is_interrupted(&self) -> bool {
        matches!(self, RecoverError::Core(CoreError::Interrupted(_)))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RecoverError>;
