//! The chaos controller instrumented layers consult.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::backoff::RetryPolicy;
use crate::plan::{CrashPoint, FaultPlan};
use crate::rng::unit;

/// Site labels folded into each decision hash, so the same `(rank,
/// sequence)` coordinates decide independently at different sites. The
/// value is part of every PIOFS fault decision: changing it reshuffles the
/// weather of every blessed campaign.
mod site {
    pub const IO_FAULT: u64 = 4;
}

/// Shared fault-injection controller for one chaos-enabled world.
///
/// All probabilistic decisions are stateless hashes of the plan seed plus
/// the caller's coordinates — thread interleaving cannot perturb them. The
/// only mutable state is the once-only arming of the crash point and the
/// torn write, both of which are consulted from serialized positions
/// (rank 0 between barriers; the file-system lock), plus monotone tallies
/// exposed for campaign assertions.
pub struct ChaosCtl {
    plan: FaultPlan,
    /// Consultations of the armed crash point so far.
    crash_seen: AtomicU64,
    /// Whether the armed crash already fired (fires exactly once).
    crash_fired: AtomicBool,
    /// Matching writes seen by the armed torn write.
    torn_seen: AtomicU64,
    retries: AtomicU64,
    giveups: AtomicU64,
}

impl ChaosCtl {
    /// Builds a controller over a plan.
    pub fn new(plan: FaultPlan) -> Arc<ChaosCtl> {
        Arc::new(ChaosCtl {
            plan,
            crash_seen: AtomicU64::new(0),
            crash_fired: AtomicBool::new(false),
            torn_seen: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            giveups: AtomicU64::new(0),
        })
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The retry/backoff policy instrumented layers charge with.
    pub fn retry(&self) -> RetryPolicy {
        self.plan.retry
    }

    // ------------------------------------------------------------------
    // File-system layer
    // ------------------------------------------------------------------

    /// Whether attempt `attempt` of I/O operation `(rank, seq)` hits a
    /// transient server error.
    pub fn io_fault(&self, rank: u64, seq: u64, attempt: u64) -> bool {
        self.plan.piofs.transient_prob > 0.0
            && unit(&[self.plan.seed, site::IO_FAULT, rank, seq, attempt])
                < self.plan.piofs.transient_prob
    }

    /// Consults the armed torn write for a `write_at` of `len` bytes to
    /// `path`: `Some(kept)` on the armed occurrence (a strict prefix of the
    /// payload lands), `None` otherwise. Serialized by the caller (the
    /// file-system lock), so occurrence counting is deterministic.
    pub fn torn_len(&self, path: &str, len: usize) -> Option<usize> {
        let torn = self.plan.piofs.torn.as_ref()?;
        if len == 0 || !path.contains(&torn.path_contains) {
            return None;
        }
        let seen = self.torn_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if seen != torn.occurrence as u64 {
            return None;
        }
        Some(((len as f64 * torn.keep_fraction) as usize).min(len - 1))
    }

    // ------------------------------------------------------------------
    // Crash points
    // ------------------------------------------------------------------

    /// Consults the armed crash point: `true` exactly once, at the armed
    /// occurrence of the armed point. Consulted from one serialized
    /// position per region (rank 0 between barriers).
    pub fn should_crash(&self, point: CrashPoint) -> bool {
        let Some((armed, occurrence)) = self.plan.crash else { return false };
        if armed != point || self.crash_fired.load(Ordering::SeqCst) {
            return false;
        }
        let seen = self.crash_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if seen == occurrence as u64 {
            self.crash_fired.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Whether the armed crash point has fired.
    pub fn crash_fired(&self) -> bool {
        self.crash_fired.load(Ordering::SeqCst)
    }

    // ------------------------------------------------------------------
    // Tallies
    // ------------------------------------------------------------------

    /// Records one transient-fault retry (any layer).
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retry-budget exhaustion (any layer).
    pub fn note_giveup(&self) {
        self.giveups.fetch_add(1, Ordering::Relaxed);
    }

    /// Total transient-fault retries observed.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Total retry-budget exhaustions observed.
    pub fn giveups(&self) -> u64 {
        self.giveups.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PiofsFaults, TornWrite};

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = |seed| FaultPlan {
            seed,
            piofs: PiofsFaults { transient_prob: 0.5, torn: None },
            ..Default::default()
        };
        let a = ChaosCtl::new(plan(1));
        let b = ChaosCtl::new(plan(1));
        let c = ChaosCtl::new(plan(2));
        let fingerprint =
            |ctl: &ChaosCtl| -> Vec<bool> { (0..64).map(|i| ctl.io_fault(i % 4, i, 1)).collect() };
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn crash_fires_exactly_once_at_armed_occurrence() {
        let ctl = ChaosCtl::new(FaultPlan {
            crash: Some((CrashPoint::CkptAfterSegment, 2)),
            ..Default::default()
        });
        assert!(!ctl.should_crash(CrashPoint::CkptEnter), "unarmed point never fires");
        assert!(!ctl.should_crash(CrashPoint::CkptAfterSegment), "first occurrence passes");
        assert!(ctl.should_crash(CrashPoint::CkptAfterSegment), "second occurrence fires");
        assert!(ctl.crash_fired());
        assert!(!ctl.should_crash(CrashPoint::CkptAfterSegment), "never fires twice");
    }

    #[test]
    fn torn_write_arms_one_occurrence_and_keeps_a_strict_prefix() {
        let ctl = ChaosCtl::new(FaultPlan {
            piofs: PiofsFaults {
                transient_prob: 0.0,
                torn: Some(TornWrite {
                    path_contains: "manifest".into(),
                    occurrence: 2,
                    keep_fraction: 0.5,
                }),
            },
            ..Default::default()
        });
        assert_eq!(ctl.torn_len("ck/x/segment", 100), None, "pattern must match");
        assert_eq!(ctl.torn_len("ck/x.tmp/manifest.tmp", 100), None, "first match passes");
        assert_eq!(ctl.torn_len("ck/x.tmp/manifest.tmp", 100), Some(50), "second tears");
        assert_eq!(ctl.torn_len("ck/x.tmp/manifest.tmp", 100), None, "fires once");
    }

    #[test]
    fn torn_write_never_keeps_the_full_payload() {
        let ctl = ChaosCtl::new(FaultPlan {
            piofs: PiofsFaults {
                transient_prob: 0.0,
                torn: Some(TornWrite {
                    path_contains: "f".into(),
                    occurrence: 1,
                    keep_fraction: 1.0,
                }),
            },
            ..Default::default()
        });
        assert_eq!(ctl.torn_len("f", 10), Some(9), "a torn write must lose bytes");
    }
}
