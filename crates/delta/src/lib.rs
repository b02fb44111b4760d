//! Incremental (differential) checkpointing for the DRMS model.
//!
//! A reconfigurable checkpoint's cost is dominated by streaming every
//! distributed array in full. Iterative applications rarely change every
//! byte between checkpoints — and the paper's Section 6 already argues for
//! skipping regions "not updated since the last checkpoint". This crate
//! carries that idea to chunk granularity over the *distribution-
//! independent* stream, which is the representation that makes the
//! optimization task-count-proof:
//!
//! * each array's canonical stream is cut into fixed-size chunks (the
//!   shared [`drms_darray::chunks::ChunkParams`] geometry, by default the
//!   same chunk size integrity CRCs use);
//! * a chunk whose 128-bit content hash
//!   ([`drms_darray::chunks::content_hash`], a word-wide kernel that keeps
//!   up with memory on one core) is unchanged since the last *committed*
//!   checkpoint is carried forward as a one-hop **reference** to the
//!   incarnation that stores it — no bytes written;
//! * a dirty chunk whose content already exists anywhere in the committed
//!   chain (or earlier in this very checkpoint) is **deduplicated** into a
//!   reference as well;
//! * remaining chunks are optionally compressed (per chunk, only when the
//!   codec strictly wins) and appended to the checkpoint's pack file;
//! * every [`DeltaConfig::full_every`]-th checkpoint is a **full rewrite**,
//!   bounding the chain a restart must reach through.
//!
//! The manifest (v4) records one self-contained [`ChunkRecord`] per chunk
//! — hash, lengths, codec, offset, and source pack — so restore and
//! garbage collection never chase manifests transitively: restart
//! materializes any chain bitwise with one pack read per chunk
//! ([`restore_arrays_delta`], [`materialize_stream`]), the orphan sweep
//! marks referenced packs straight from the chunk tables, and retention
//! *uncommits* (rather than deletes) incarnations whose packs are still
//! referenced.
//!
//! Commit safety composes with the two-phase protocol of
//! [`drms_core::commit`]: packs stage under `{prefix}.tmp`, the manifest
//! rename is the single commit point, the [`DeltaChain`]'s own state is
//! two-phase (staged digests promote only after the rename), and a delta
//! never commits a reference to an incarnation that is no longer committed
//! — a missing reference escalates to a local write instead.
//!
//! [`ChunkRecord`]: drms_core::manifest::ChunkRecord

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod chain;
mod checkpoint;
mod restore;
mod stage;

pub use chain::{DeltaChain, DeltaConfig, StageStats};
pub use checkpoint::{delta_checkpoint, DeltaReport};
pub use restore::{materialize_stream, restore_arrays_delta, resume, DeltaSource};
pub use stage::{record_commit, require_fresh_prefix, DeltaStage};
