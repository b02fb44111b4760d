use std::fmt;

use drms_core::CoreError;
use drms_memtier::MemTierError;

/// Errors from the asynchronous checkpoint pipeline: either the underlying
/// checkpoint machinery or the memory tier the flush drains through.
#[derive(Debug, Clone, PartialEq)]
pub enum AsyncError {
    /// Failure in the core checkpoint machinery (including injected
    /// crashes, which surface as [`CoreError::Interrupted`]).
    Core(CoreError),
    /// Failure in the in-memory replica tier the flush drains through.
    Tier(MemTierError),
}

impl AsyncError {
    /// Whether this error is an injected crash point firing — the signal
    /// job bodies translate into a `Killed` outcome so the JSA
    /// reincarnates them from the last committed checkpoint.
    pub fn is_interrupted(&self) -> bool {
        matches!(
            self,
            AsyncError::Core(CoreError::Interrupted(_))
                | AsyncError::Tier(MemTierError::Core(CoreError::Interrupted(_)))
        )
    }
}

impl fmt::Display for AsyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsyncError::Core(e) => write!(f, "async checkpoint: {e}"),
            AsyncError::Tier(e) => write!(f, "async checkpoint tier: {e}"),
        }
    }
}

impl std::error::Error for AsyncError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsyncError::Core(e) => Some(e),
            AsyncError::Tier(e) => Some(e),
        }
    }
}

impl From<CoreError> for AsyncError {
    fn from(e: CoreError) -> Self {
        AsyncError::Core(e)
    }
}

impl From<MemTierError> for AsyncError {
    fn from(e: MemTierError) -> Self {
        AsyncError::Tier(e)
    }
}
