//! Declarative fault plans.

use crate::backoff::RetryPolicy;

/// Declares the [`CrashPoint`] enum, its stable names, and `CrashPoint::ALL`
/// in one place, mirroring the `phases!` idiom in `drms-obs`: a crash point
/// added here is automatically part of the exhaustive sweep campaigns that
/// iterate `ALL`, so no point can silently escape coverage.
macro_rules! crash_points {
    ($($(#[$doc:meta])* $variant:ident = $name:literal;)+) => {
        /// An enumerated instant inside a checkpoint or restart at which
        /// the chaos controller can kill the region. Each point names a
        /// distinct window of the two-phase commit protocol (or of the
        /// restart path), so sweeping `ALL` exercises every intermediate
        /// on-storage state an interruption can leave behind.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum CrashPoint {
            $($(#[$doc])* $variant,)+
        }

        impl CrashPoint {
            /// Stable lowercase name, used in traces and repro lines.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(CrashPoint::$variant => $name,)+
                }
            }

            /// Every crash point, in protocol order. Generated from the
            /// same variant list as the enum, so sweeps cannot miss one.
            pub const ALL: [CrashPoint; [$(CrashPoint::$variant),+].len()] =
                [$(CrashPoint::$variant),+];
        }
    };
}

crash_points! {
    /// Checkpoint entered: SOP advanced, nothing written yet.
    CkptEnter = "ckpt_enter";
    /// Data segment staged, arrays not yet streamed.
    CkptAfterSegment = "ckpt_after_segment";
    /// One array stream finished (arm an occurrence to pick which).
    CkptAfterArray = "ckpt_after_array";
    /// All data and the manifest staged under the `.tmp` prefix, nothing
    /// published.
    CkptStagedManifest = "ckpt_staged_manifest";
    /// Data files renamed into the final prefix, manifest rename (the
    /// commit point) not yet executed.
    CkptMidPublish = "ckpt_mid_publish";
    /// Manifest renamed into place: the checkpoint is committed, but the
    /// region dies before the operation returns.
    CkptCommitted = "ckpt_committed";
    /// Restart: application text loaded, data segment not yet read.
    RestartAfterInit = "restart_after_init";
    /// Restart: data segment decoded, arrays not yet restored.
    RestartAfterSegment = "restart_after_segment";
    /// Restart: every array restored, region dies before resuming compute.
    RestartAfterArrays = "restart_after_arrays";
    /// Async pipeline: snapshot captured and handed to the background
    /// flusher, nothing staged on storage yet.
    FlushArmed = "flush_armed";
    /// Async flush: data segment staged under the `.tmp` prefix, arrays
    /// not yet written.
    FlushAfterSegment = "flush_after_segment";
    /// Async flush: one array's snapshot stream staged (arm an occurrence
    /// to pick which).
    FlushAfterArray = "flush_after_array";
    /// Async flush: all data and the manifest staged, nothing published.
    FlushStagedManifest = "flush_staged_manifest";
    /// Async flush: data files renamed into the final prefix, manifest
    /// rename (the commit point) not yet executed.
    FlushMidPublish = "flush_mid_publish";
    /// Async flush: manifest renamed into place — the overlapped
    /// checkpoint is committed, but the region dies before the flusher
    /// retires the snapshot.
    FlushCommitted = "flush_committed";
    /// Localized recovery entered: a node loss was observed at an SOP,
    /// the epoch-stamped recovery barrier has not yet run.
    RecoverEnter = "recover_enter";
    /// Localized recovery: membership agreement reached (every survivor
    /// holds the same epoch and lost-node set), nothing restored yet.
    RecoverAgreed = "recover_agreed";
    /// Localized recovery: survivor sections reinstated and lost sections
    /// fetched, the recovery journal not yet staged.
    RecoverRestored = "recover_restored";
    /// Localized recovery: journal and flight rings staged under the
    /// `.tmp` prefix, nothing published.
    RecoverStagedJournal = "recover_staged_journal";
    /// Localized recovery: journal renamed into place — the membership
    /// transition is durable, but the region dies before resuming compute.
    RecoverCommitted = "recover_committed";
}

/// The crash points of one two-phase commit, in protocol order: segment
/// staged, one array staged, manifest staged (nothing published), data
/// published (manifest rename pending), committed. The commit driver
/// (`drms_core::commit::Commit`) is told which family to consult by one of
/// the two tables below and is the only code that reaches these points.
pub type CommitPoints = [CrashPoint; 5];

/// The family a blocking checkpoint (full or delta) consults.
pub static CKPT_COMMIT: CommitPoints = [
    CrashPoint::CkptAfterSegment,
    CrashPoint::CkptAfterArray,
    CrashPoint::CkptStagedManifest,
    CrashPoint::CkptMidPublish,
    CrashPoint::CkptCommitted,
];

/// The family an asynchronous background flush consults, paired point for
/// point with [`CKPT_COMMIT`].
pub static FLUSH_COMMIT: CommitPoints = [
    CrashPoint::FlushAfterSegment,
    CrashPoint::FlushAfterArray,
    CrashPoint::FlushStagedManifest,
    CrashPoint::FlushMidPublish,
    CrashPoint::FlushCommitted,
];

/// The crash points of one restart, in protocol order: application text
/// loaded, data segment decoded, every array restored. `None` where a
/// restart source does not consult. The restore driver
/// (`drms_core::restore`) is told which table to consult by its source and
/// is the only code that reaches these points; a source that consults
/// nothing (the memory tier) has no table.
pub type RestartPoints = [Option<CrashPoint>; 3];

/// What a restart from a full PIOFS checkpoint consults.
pub static RESTART_FULL: RestartPoints = [
    Some(CrashPoint::RestartAfterInit),
    Some(CrashPoint::RestartAfterSegment),
    Some(CrashPoint::RestartAfterArrays),
];

/// What a restart from a PIOFS delta chain consults.
pub static RESTART_DELTA: RestartPoints = [None, None, Some(CrashPoint::RestartAfterArrays)];

impl CrashPoint {
    /// Whether this point lives inside the asynchronous background flush
    /// (consulted only by `drms-async`'s overlapped checkpoints). Blocking
    /// checkpoint/restart sweeps skip these — an armed flush-side point can
    /// never fire on a path that takes no overlapped checkpoints.
    pub fn is_flush_side(&self) -> bool {
        *self == CrashPoint::FlushArmed || FLUSH_COMMIT.contains(self)
    }

    /// Whether this point lives inside the localized-recovery protocol
    /// (consulted only by `drms-recover`). Checkpoint/restart sweeps that
    /// never enter a localized recovery skip these — an armed recover-side
    /// point can never fire on a path that takes no localized recoveries.
    pub fn is_recover_side(&self) -> bool {
        matches!(
            self,
            CrashPoint::RecoverEnter
                | CrashPoint::RecoverAgreed
                | CrashPoint::RecoverRestored
                | CrashPoint::RecoverStagedJournal
                | CrashPoint::RecoverCommitted
        )
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// File-system faults, decided per `(rank, operation sequence)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PiofsFaults {
    /// Probability an I/O operation hits a transient server error and is
    /// retried under the plan's [`RetryPolicy`].
    pub transient_prob: f64,
    /// Optional single armed torn write (partial `write_at`).
    pub torn: Option<TornWrite>,
}

/// One armed torn write: the n-th `write_at` whose path contains the
/// pattern persists only a prefix of its payload — the simulation of a
/// crash or media error mid-write. Fires once.
#[derive(Debug, Clone, PartialEq)]
pub struct TornWrite {
    /// Substring selecting the victim path (e.g. `"manifest"`).
    pub path_contains: String,
    /// Which matching write to tear, 1-based.
    pub occurrence: u32,
    /// Fraction of the payload that lands, in `[0, 1)`.
    pub keep_fraction: f64,
}

/// A complete, seeded fault plan: what to inject at each layer, and the
/// retry policy instrumented code backs off with. The default plan injects
/// nothing (all probabilities zero, no torn write, no crash).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed all stateless fault decisions hash against.
    pub seed: u64,
    /// File-system faults.
    pub piofs: PiofsFaults,
    /// Optional armed crash: the region dies at the n-th consultation
    /// (1-based occurrence) of the given point. Fires once per controller.
    pub crash: Option<(CrashPoint, u32)>,
    /// Backoff schedule for transient-fault retries.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan with the given seed and no faults armed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_point_names_unique_and_all_exhaustive() {
        let mut names: Vec<&str> = CrashPoint::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(names.len(), CrashPoint::ALL.len());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CrashPoint::ALL.len(), "duplicate crash-point name");
    }

    #[test]
    fn commit_tables_pair_up_and_define_the_flush_side() {
        // Equal length is the `CommitPoints` type's.
        let (ckpt, flush) = (CKPT_COMMIT, FLUSH_COMMIT);
        for (c, f) in ckpt.iter().zip(&flush) {
            let (c, f) = (c.as_str(), f.as_str());
            assert!(c.starts_with("ckpt_"), "{c}");
            assert_eq!(c.strip_prefix("ckpt_"), f.strip_prefix("flush_"), "{c} vs {f}");
        }
        for p in CrashPoint::ALL {
            let in_flush_family = p == CrashPoint::FlushArmed || flush.contains(&p);
            assert_eq!(p.is_flush_side(), in_flush_family, "{p}");
            assert!(!(ckpt.contains(&p) && flush.contains(&p)), "{p} in both tables");
        }
    }

    #[test]
    fn restart_tables_are_the_consults_each_source_makes_today() {
        // Widening either family moves blessed virtual-time numbers (a
        // consult under a chaos controller is an exchange), so it has to be
        // an edit of these literals. The memory tier consults nothing and
        // so has no table.
        use CrashPoint::{RestartAfterArrays, RestartAfterInit, RestartAfterSegment};
        assert_eq!(
            RESTART_FULL,
            [Some(RestartAfterInit), Some(RestartAfterSegment), Some(RestartAfterArrays)]
        );
        assert_eq!(RESTART_DELTA, [None, None, Some(RestartAfterArrays)]);
        let restart_side: Vec<CrashPoint> =
            CrashPoint::ALL.into_iter().filter(|p| p.as_str().starts_with("restart_")).collect();
        assert_eq!(restart_side, RESTART_FULL.map(|p| p.expect("full consults all three")));
    }

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert_eq!(p.piofs.transient_prob, 0.0);
        assert!(p.crash.is_none() && p.piofs.torn.is_none());
    }
}
