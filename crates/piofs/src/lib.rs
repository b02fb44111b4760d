//! PIOFS — a simulated striped parallel file system with real byte storage.
//!
//! The paper's experiments ran on the IBM PIOFS parallel file system,
//! installed on all 16 nodes of an RS/6000 SP, each node acting as both a
//! client and a server (files striped across all 16 nodes). This crate
//! substitutes for that hardware:
//!
//! * **Data** is real: logical files store actual bytes, striped (logically)
//!   across `n_servers` server nodes; reads return exactly what was written.
//! * **Time** is simulated: every I/O phase is priced by a cost model
//!   ([`config::PiofsConfig`]) with the three mechanisms the paper uses to
//!   explain its measurements (Section 5):
//!   1. **server-limited writes** — per-server streaming bandwidth, degraded
//!      by co-location interference when application tasks share the node,
//!      plus per-chunk overhead that penalizes small strided pieces;
//!   2. **client-limited reads** — prefetch makes sequential reads cheap on
//!      the server side (cached bytes are served once per unique byte), so
//!      restart scales with the number of reading clients;
//!   3. **a buffer-memory threshold** — each node has a memory ledger
//!      (OS + resident application task + server buffers); when concurrent
//!      read/write streams need more buffer than a node has left, that
//!      node's efficiency collapses, which is what makes large conventional
//!      SPMD restarts fall off a cliff (BT going 8→16 processors, LU
//!      already over the edge at 8).
//!
//! Collective I/O phases are scheduled deterministically: all tasks deposit
//! request descriptors on the exchange board, rank 0 prices the phase under
//! the file-system lock, and every task adopts its computed completion time.
//! A seeded Gaussian jitter on phase times produces the run-to-run variance
//! reported in Table 5 of the paper.
//!
//! Reads hand out shared bytes. A read takes a [`Stored`] handle under the
//! file-system lock — the file's bytes plus a range, or the parity rebuild
//! of a range with lost bytes — and its caller uses the handle after the
//! lock is dropped. Writes are copy-on-write: a write copies a file's bytes
//! only while some handle still holds them, so a handle keeps the bytes it
//! was given. The lock guards the namespace, parity, the integrity slot
//! tables and pricing, and never runs caller code.
//!
//! Every write also CRCs its own bytes at the integrity-chunk grid
//! ([`integrity`]), so a checkpoint's integrity records are folded from what
//! its writers computed rather than read back by one task.

#![deny(missing_docs)]

pub mod config;
pub mod integrity;
pub mod parity;
pub mod phase;
pub mod rng;
pub mod stripe;

mod fs;
mod store;

pub use config::PiofsConfig;
pub use fs::{FileInfo, Piofs, PiofsError};
pub use parity::ParityGeom;
pub use phase::{ReadAccess, ReadReq, WriteReq};
pub use store::Stored;
