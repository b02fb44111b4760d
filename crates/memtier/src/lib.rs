//! Diskless checkpoint tier: in-memory replication above the PIOFS path.
//!
//! The paper's restart always pays full PIOFS I/O. Later recovery work
//! (ReStore; diskless checkpointing generally) showed that keeping the
//! newest checkpoint replicated in surviving nodes' memory makes recovery
//! latency nearly independent of storage bandwidth. This crate layers that
//! idea over the DRMS machinery without changing what a checkpoint *is*:
//!
//! * **Capture** ([`Snapshot::capture`]): the state at an SOP — rank 0's
//!   encoded data segment plus every task's pieces of the canonical array
//!   streams of `darray::stream`, the same distribution-independent bytes
//!   the file path writes — copied once and priced at memory bandwidth.
//!   The blocking store below and the asynchronous pipeline of
//!   `drms-async` both take exactly this capture.
//! * **Store** ([`store_checkpoint`]): a capture is kept in node memory
//!   and scattered to [`MemTier::replicas`] additional nodes over `msg`,
//!   never co-located with the owning node ([`placement`]). Replication
//!   traffic is priced by the simulator's deterministic cost model like
//!   any other message.
//! * **Survivability**: a checkpoint survives the loss of up to
//!   `replicas` nodes (owner plus `replicas - 1` copies of some piece may
//!   die and one copy remains); [`MemTier::fail_node`] applies node loss
//!   and evicts entries that crossed the threshold. Node memory does not
//!   come back with a repaired node.
//! * **Spill** ([`spill_checkpoint`]): resident pieces are persisted to the
//!   exact PIOFS files the direct checkpoint path would have produced,
//!   manifest (with integrity records) last, verified end-to-end before the
//!   checkpoint counts as durable — so durability is unchanged and a PIOFS
//!   fallback restores bitwise-identical state.
//! * **Tiered restart** ([`choose_restart_tiered`]): memory tier if intact
//!   and at least as new as the durable chain, else the verified PIOFS
//!   walk of `drms_resil` with its scrub/quarantine fallback.
//!   [`resume_from_tier`] / [`restore_arrays_from_tier`] then serve the
//!   restart out of resident pieces at memory/interconnect speed.
//!
//! Every operation fails in [`drms_core::CoreError`], the tier's own
//! failures included ([`drms_core::CoreError::NotIntact`],
//! [`drms_core::CoreError::TierCorrupt`], …): a restart served out of the
//! tier fails exactly like one served out of PIOFS.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod placement;
mod restart;
mod restore;
mod snapshot;
mod store;
mod tier;

pub use restart::{choose_restart_tiered, RestartTier, TieredRestartPlan};
pub use restore::{restore_arrays_from_tier, resume_from_tier, TierSource};
pub use snapshot::{ArraySnapshot, Snapshot, SnapshotPiece};
pub use store::{
    array_file, spill_checkpoint, spill_to_staging, store_captured, store_checkpoint,
    store_feasible, CapturedPiece, SpillReport, StoreReport, SEGMENT_FILE,
};
pub use tier::{Fetched, MemTier, DEFAULT_PIECE_BYTES};
