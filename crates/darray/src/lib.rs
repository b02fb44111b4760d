//! Distributed arrays for the DRMS programming model.
//!
//! A distributed array (paper, Section 3.1) is an abstract Cartesian index
//! space whose *sections* live concretely in the tasks of an application:
//!
//! * a [`Distribution`] maps an **assigned** section (elements whose values
//!   the task defines — pairwise disjoint across tasks) and a **mapped**
//!   section (elements present in the task's address space, a superset of
//!   the assigned section; overlaps between mapped sections are the *shadow
//!   regions* of grid codes) to every task;
//! * a [`DistArray`] is one task's view: metadata shared by all tasks plus
//!   the local storage backing its mapped section;
//! * [`assign`](assign::assign) implements the paper's array assignment
//!   `B <- A` between arrays of the same shape but arbitrary distributions:
//!   every copy of every element — including shadows — is updated
//!   consistently. Redistribution, shadow refresh, and checkpoint streaming
//!   are all built from it;
//! * [`stream`] implements serial and parallel array-section streaming
//!   (Figure 5b): sections are written to / read from PIOFS files in a
//!   **distribution-independent** order, which is what makes checkpoints
//!   restartable on a different number of tasks.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod assign;
pub mod chunks;
pub mod shadow;
pub mod stream;

mod array;
mod dist;
mod element;
mod error;

pub use array::{for_each_region_index, for_each_region_run, DistArray};
pub use dist::{factorize, Distribution};
pub use element::{decode_into, encode_into, Element};
pub use error::DarrayError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DarrayError>;
