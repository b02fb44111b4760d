//! Asynchronous checkpoint pipeline: COW snapshot at the SOP, background
//! flush through the memory tier and PIOFS.
//!
//! A blocking `drms_reconfig_checkpoint` holds the whole region inside the
//! checkpoint collective until the manifest rename commits — the entire
//! I/O time sits on the compute critical path. This crate splits that call
//! in two along the line the paper's SOP definition already draws: at an
//! SOP the application state **is** the data segment plus the canonical
//! array streams, so once those bytes are captured, compute may proceed
//! while durability catches up.
//!
//! The pipeline composes the checkpoints it overlaps rather than copying
//! them:
//!
//! * **Snapshot** ([`drms_memtier::Snapshot::capture`], the capture the
//!   blocking memory-tier store takes): at the SOP every task copies its
//!   pieces of the canonical streams (and rank 0 encodes the data
//!   segment). The copy is priced at memory bandwidth — this is the only
//!   checkpoint cost left on the critical path.
//! * **Delta** ([`AsyncCheckpointer::checkpoint_delta`]): the shared
//!   [`drms_delta::DeltaStage`] of the blocking delta writer diffs each
//!   array in the foreground; only its pack writes ride the flush.
//! * **Flush** ([`AsyncCheckpointer`]): a background flusher drains the
//!   snapshot through the optional in-memory replica tier and down to
//!   PIOFS through the same two-phase [`drms_core::commit::Commit`] as the
//!   blocking path, so a committed asynchronous checkpoint is **bitwise
//!   identical** to a blocking one and restores through unmodified
//!   [`drms_core::Drms::initialize`].
//! * **Backpressure**: at most [`AsyncConfig::budget`] snapshots may be in
//!   flight. A new SOP arriving while the budget is exhausted stalls until
//!   the oldest flush commits; only that residual wait is charged to
//!   compute ([`drms_obs::names::ASYNC_STALL_US`]).
//!
//! **Determinism.** There are no wall-clock races anywhere in the
//! pipeline. The flush body runs *eagerly* inside a detached virtual-time
//! region ([`drms_msg::Ctx::run_detached`]): its side effects (PIOFS
//! pricing, chaos weather, torn writes, crash points) happen in program
//! order under the run's seed, its duration `d` is measured on the
//! detached clock, and the flusher timeline is then reconstructed
//! analytically — `finish = max(t_snap, flusher_free) + d` — identically
//! on every task. Replaying a seed replays the exact interleaving.
//!
//! **Errors.** The pipeline fails in [`drms_core::CoreError`], whether the
//! snapshot, the tier or the flush failed; an injected crash arrives as
//! [`drms_core::CoreError::Interrupted`], unwrapped.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod pipeline;

pub use pipeline::{AsyncCheckpointer, AsyncConfig, AsyncReport, DeltaSummary, Flight};

/// Seconds to whole microseconds, the unit the `async.*_us` counters use.
pub(crate) fn micros(seconds: f64) -> u64 {
    (seconds * 1e6).round() as u64
}
