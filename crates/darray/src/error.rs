use std::fmt;

use drms_slices::{Slice, SliceError};

/// Errors from distribution construction and distributed-array operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DarrayError {
    /// An underlying range/slice error.
    Slice(SliceError),
    /// The number of per-task slices did not match the task count.
    TaskCountMismatch {
        /// Expected number of tasks.
        expected: usize,
        /// Number of slices supplied.
        got: usize,
    },
    /// Two assigned sections overlap (their values would be ambiguous).
    AssignedOverlap {
        /// First task.
        a: usize,
        /// Second task.
        b: usize,
        /// A witness region of the overlap.
        witness: Slice,
    },
    /// An assigned section is not contained in its mapped section.
    AssignedNotMapped {
        /// Offending task.
        task: usize,
    },
    /// A section lies (partly) outside the array domain.
    OutsideDomain {
        /// Offending task.
        task: usize,
    },
    /// Arrays with different domains were combined.
    DomainMismatch {
        /// Left domain.
        left: Slice,
        /// Right domain.
        right: Slice,
    },
    /// A block decomposition asked for more parts than elements, or a
    /// mismatched axis count.
    BadDecomposition {
        /// Human-readable reason.
        reason: String,
    },
    /// The distribution kind cannot be adjusted automatically to a new task
    /// count (irregular distributions need an explicit new specification).
    NotAdjustable,
    /// A point outside the task's mapped section was addressed.
    NotMapped {
        /// The offending point.
        point: Vec<i64>,
    },
    /// A packed payload's length disagrees with the region it is unpacked
    /// into.
    PayloadLength {
        /// Bytes the region holds.
        expected: usize,
        /// Bytes supplied.
        got: usize,
    },
    /// A file-system error during streaming.
    Io(
        /// Rendered error.
        String,
    ),
}

impl fmt::Display for DarrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DarrayError::Slice(e) => write!(f, "slice error: {e}"),
            DarrayError::TaskCountMismatch { expected, got } => {
                write!(f, "expected {expected} per-task slices, got {got}")
            }
            DarrayError::AssignedOverlap { a, b, witness } => {
                write!(f, "assigned sections of tasks {a} and {b} overlap at {witness}")
            }
            DarrayError::AssignedNotMapped { task } => {
                write!(f, "assigned section of task {task} is not within its mapped section")
            }
            DarrayError::OutsideDomain { task } => {
                write!(f, "section of task {task} lies outside the array domain")
            }
            DarrayError::DomainMismatch { left, right } => {
                write!(f, "array domain mismatch: {left} vs {right}")
            }
            DarrayError::BadDecomposition { reason } => {
                write!(f, "bad decomposition: {reason}")
            }
            DarrayError::NotAdjustable => {
                write!(f, "distribution kind cannot be adjusted automatically")
            }
            DarrayError::NotMapped { point } => {
                write!(f, "point {point:?} is not mapped to this task")
            }
            DarrayError::PayloadLength { expected, got } => {
                write!(f, "payload of {got} bytes for a region of {expected} bytes")
            }
            DarrayError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for DarrayError {}

impl From<SliceError> for DarrayError {
    fn from(e: SliceError) -> Self {
        DarrayError::Slice(e)
    }
}
