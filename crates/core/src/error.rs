use std::fmt;

use drms_darray::DarrayError;
use drms_piofs::PiofsError;

use crate::wire::WireError;

/// Errors from checkpoint and restart operations, whichever tier holds the
/// state and whichever pipeline moves it: the core path, the memory tier,
/// the asynchronous flush and localized recovery all fail in this type.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Distributed-array failure.
    Darray(DarrayError),
    /// File-system failure.
    Piofs(PiofsError),
    /// Malformed checkpoint file.
    Wire(WireError),
    /// No checkpoint exists under the given prefix (on PIOFS or in the
    /// memory tier).
    NoCheckpoint(
        /// The prefix searched.
        String,
    ),
    /// A conventional SPMD checkpoint was restarted with a different number
    /// of tasks — the defining limitation of the baseline scheme.
    TaskCountFixed {
        /// Tasks at checkpoint time.
        checkpointed: usize,
        /// Tasks at restart time.
        restarting: usize,
    },
    /// The checkpoint manifest disagrees with the application's declaration
    /// (array missing, element type or domain mismatch).
    ManifestMismatch(
        /// Human-readable description.
        String,
    ),
    /// Checkpoint data failed checksum verification against its manifest.
    Integrity(
        /// Human-readable description.
        String,
    ),
    /// The operation was cut short by an injected crash point (robustness
    /// campaigns): the region dies here as a unit, exactly as if the node
    /// hosting it failed, and recovery proceeds from the last committed
    /// checkpoint.
    Interrupted(
        /// The crash-point name that fired.
        String,
    ),
    /// The requested memory-tier replication factor cannot be satisfied by
    /// the current node set (`replicas` must be at least 1 and leave every
    /// piece with `replicas` holders distinct from its owner).
    ReplicationUnsatisfiable {
        /// Requested replicas per piece (owner excluded).
        replicas: usize,
        /// Distinct nodes available, owner included.
        nodes: usize,
    },
    /// The memory-tier entry exists but cannot serve a restart: it is
    /// unsealed, or node losses took every replica of at least one piece.
    NotIntact(
        /// Human-readable description.
        String,
    ),
    /// A resident memory-tier piece failed its CRC check when fetched.
    TierCorrupt {
        /// Checkpoint prefix.
        prefix: String,
        /// File the piece belongs to.
        file: String,
        /// Stream offset of the piece.
        offset: u64,
    },
    /// A sealed memory-tier entry does not cover a file contiguously, or a
    /// fetch asked for a range outside the stream.
    Incomplete(
        /// Human-readable description.
        String,
    ),
    /// A spilled memory-tier checkpoint failed post-spill verification
    /// against PIOFS.
    SpillVerify(
        /// Human-readable description.
        String,
    ),
    /// Localized recovery cannot serve this loss (replicas gone and no
    /// readable checkpoint, no survivors, or an unsupported checkpoint
    /// kind). The caller must fall back to the verified full restart.
    Escalate(
        /// Human-readable reason, surfaced in the degradation alert.
        String,
    ),
}

impl CoreError {
    /// Whether this error is an injected crash point firing — the signal
    /// job bodies translate into a kill so the JSA reincarnates them from
    /// the last committed checkpoint.
    pub fn is_interrupted(&self) -> bool {
        matches!(self, CoreError::Interrupted(_))
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Darray(e) => write!(f, "distributed array: {e}"),
            CoreError::Piofs(e) => write!(f, "file system: {e}"),
            CoreError::Wire(e) => write!(f, "checkpoint format: {e}"),
            CoreError::NoCheckpoint(p) => write!(f, "no checkpoint under prefix {p:?}"),
            CoreError::TaskCountFixed { checkpointed, restarting } => write!(
                f,
                "SPMD checkpoint taken with {checkpointed} tasks cannot restart with \
                 {restarting}; only DRMS checkpoints are reconfigurable"
            ),
            CoreError::ManifestMismatch(m) => write!(f, "manifest mismatch: {m}"),
            CoreError::Integrity(m) => write!(f, "integrity failure: {m}"),
            CoreError::Interrupted(p) => write!(f, "interrupted at crash point {p:?}"),
            CoreError::ReplicationUnsatisfiable { replicas, nodes } => write!(
                f,
                "replication factor {replicas} unsatisfiable with {nodes} distinct node(s): \
                 every piece needs {replicas} holder(s) distinct from its owner"
            ),
            CoreError::NotIntact(m) => write!(f, "memory-tier checkpoint not intact: {m}"),
            CoreError::TierCorrupt { prefix, file, offset } => write!(
                f,
                "memory-tier piece of {prefix:?} file {file:?} at offset {offset} fails its CRC"
            ),
            CoreError::Incomplete(m) => write!(f, "memory-tier stream incomplete: {m}"),
            CoreError::SpillVerify(m) => write!(f, "spill verification failed: {m}"),
            CoreError::Escalate(why) => {
                write!(f, "localized recovery escalated to full restart: {why}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DarrayError> for CoreError {
    fn from(e: DarrayError) -> Self {
        CoreError::Darray(e)
    }
}

impl From<PiofsError> for CoreError {
    fn from(e: PiofsError) -> Self {
        CoreError::Piofs(e)
    }
}

impl From<WireError> for CoreError {
    fn from(e: WireError) -> Self {
        CoreError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moved_variants_keep_their_wording() {
        let table = [
            (
                CoreError::ReplicationUnsatisfiable { replicas: 2, nodes: 2 },
                "replication factor 2 unsatisfiable with 2 distinct node(s): every piece needs \
                 2 holder(s) distinct from its owner",
            ),
            (
                CoreError::NotIntact("\"ck/1\" is not sealed".into()),
                "memory-tier checkpoint not intact: \"ck/1\" is not sealed",
            ),
            (
                CoreError::TierCorrupt { prefix: "ck/1".into(), file: "segment".into(), offset: 8 },
                "memory-tier piece of \"ck/1\" file \"segment\" at offset 8 fails its CRC",
            ),
            (CoreError::Incomplete("gap at 16".into()), "memory-tier stream incomplete: gap at 16"),
            (CoreError::SpillVerify("size".into()), "spill verification failed: size"),
            (
                CoreError::Escalate("no survivors".into()),
                "localized recovery escalated to full restart: no survivors",
            ),
        ];
        for (err, text) in table {
            assert_eq!(err.to_string(), text, "{err:?}");
        }
    }
}
