use std::fmt;

use drms_core::CoreError;

/// Errors from memory-tier checkpoint operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MemTierError {
    /// The requested replication factor cannot be satisfied by the current
    /// node set (`replicas` must be at least 1 and leave every piece with
    /// `replicas` holders distinct from its owner).
    ReplicationUnsatisfiable {
        /// Requested replicas per piece (owner excluded).
        replicas: usize,
        /// Distinct nodes available, owner included.
        nodes: usize,
    },
    /// No tier entry exists under the given prefix.
    NoCheckpoint(
        /// The prefix searched.
        String,
    ),
    /// The tier entry exists but cannot serve a restart: it is unsealed, or
    /// node losses took every replica of at least one piece.
    NotIntact(
        /// Human-readable description.
        String,
    ),
    /// A resident piece failed its CRC check when fetched.
    Corrupt {
        /// Checkpoint prefix.
        prefix: String,
        /// File the piece belongs to.
        file: String,
        /// Stream offset of the piece.
        offset: u64,
    },
    /// A sealed entry does not cover a file contiguously, or a fetch asked
    /// for a range outside the stream.
    Incomplete(
        /// Human-readable description.
        String,
    ),
    /// A spilled checkpoint failed post-spill verification against PIOFS.
    SpillVerify(
        /// Human-readable description.
        String,
    ),
    /// Failure in the underlying checkpoint machinery.
    Core(CoreError),
}

impl fmt::Display for MemTierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemTierError::ReplicationUnsatisfiable { replicas, nodes } => write!(
                f,
                "replication factor {replicas} unsatisfiable with {nodes} distinct node(s): \
                 every piece needs {replicas} holder(s) distinct from its owner"
            ),
            MemTierError::NoCheckpoint(p) => {
                write!(f, "memory tier holds no checkpoint under prefix {p:?}")
            }
            MemTierError::NotIntact(m) => write!(f, "memory-tier checkpoint not intact: {m}"),
            MemTierError::Corrupt { prefix, file, offset } => write!(
                f,
                "memory-tier piece of {prefix:?} file {file:?} at offset {offset} fails its CRC"
            ),
            MemTierError::Incomplete(m) => write!(f, "memory-tier stream incomplete: {m}"),
            MemTierError::SpillVerify(m) => write!(f, "spill verification failed: {m}"),
            MemTierError::Core(e) => write!(f, "checkpoint machinery: {e}"),
        }
    }
}

impl std::error::Error for MemTierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemTierError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for MemTierError {
    fn from(e: CoreError) -> Self {
        MemTierError::Core(e)
    }
}
