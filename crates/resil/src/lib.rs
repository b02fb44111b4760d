//! Storage resilience for the DRMS checkpoint/restart pipeline.
//!
//! The paper's recovery story assumes the checkpoint that a restart reads is
//! the checkpoint that was written. On real parallel file systems that
//! assumption fails in two ways: a server node dies and takes its stripe
//! units with it, or bytes rot silently between write and read. This crate
//! closes the gap with four cooperating pieces, layered over the simulated
//! PIOFS and the versioned manifest format:
//!
//! * **Verification** ([`verify_checkpoint`]) — the one verifier,
//!   [`drms_core::verify`], with its telemetry: the manifest's own trailing
//!   CRC, the existence of every file the checkpoint kind mandates, each
//!   file's per-chunk CRC32 records, and the content hash of every chunk a
//!   delta checkpoint references from a prior incarnation's pack. Failures
//!   are reported chunk-by-chunk so repair can be surgical.
//! * **Scrub** ([`scrub_checkpoint`]) — repairs checksum-failed chunks from
//!   the RAID-5-style parity stripes maintained by the file system, then
//!   re-verifies; a chunk is only counted repaired when its CRC matches
//!   afterwards.
//! * **Fault plans** ([`CorruptionCampaign`]) — deterministic, seeded
//!   storage-fault injection (stripe corruption across the files of a
//!   checkpoint) for tests and benchmarks.
//! * **Restart fallback** ([`choose_restart`]) — walks the checkpoint chain
//!   newest-first, scrubbing what it can and quarantining what it cannot,
//!   and returns the newest checkpoint that verifies plus the fallback
//!   depth (how many newer, damaged checkpoints were skipped).
//!
//! Everything here is control-plane: no simulated clock advances. The
//! *cost* of degraded operation is priced where the data moves — in the
//! PIOFS phase model — while this crate accounts for *what happened*
//! through the observability [`Recorder`][drms_obs::Recorder] (phases
//! `verify`, `scrub`, `reconstruct`; counters
//! `resil.corruptions_detected` / `resil.corruptions_repaired`).

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod faults;
mod restart;
mod scrub;
mod verify;

pub use faults::{AppliedCorruption, CorruptionCampaign};
pub use restart::{choose_restart, quarantine_checkpoint, RestartPlan};
pub use scrub::{scrub_checkpoint, ScrubReport};
pub use verify::verify_checkpoint;
