//! Observability layer for the DRMS checkpoint/restart pipeline.
//!
//! Every hot path in the workspace (message passing, PIOFS phase pricing,
//! array streaming, checkpoint orchestration, the runtime environment)
//! reports through a [`Recorder`], whose one hook takes a typed [`Record`].
//! Two implementations live here:
//!
//! * [`NullRecorder`] — the hook is an empty default body and
//!   [`Recorder::enabled`] returns `false`, so instrumented code can skip
//!   label construction entirely. This is the default everywhere; existing
//!   call sites pay nothing.
//! * [`TraceRecorder`] — collects [`TraceEvent`]s in **simulated** clock
//!   time behind a single mutex and aggregates counters and gauges in a
//!   [`MetricsRegistry`]. Spans are paired in one place, [`closed_spans`],
//!   over the time-sorted events.
//!
//! Timestamps are always supplied by the caller (from the task's simulated
//! clock), never sampled from the host, so recorded traces are exactly as
//! deterministic as the simulation itself.
//!
//! Collected traces export three ways (see [`TraceRecorder`]):
//! a JSONL event log, Chrome `trace_event` JSON loadable in Perfetto
//! (`chrome://tracing`), and a plain-text per-phase summary table built by
//! [`PhaseSummary`]. The summary is derived from the same span timestamps
//! the core crate uses to build its operation report, so the two can never
//! disagree.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod export;
mod metrics;
mod recorder;
mod summary;
mod trace;

pub use metrics::{CounterKey, Histogram, MetricsRegistry};
pub use recorder::{
    ring_file_name, FanoutRecorder, FlightSeal, NullRecorder, Record, Recorder, SALVAGE_DIR,
};
pub use summary::{PhaseRow, PhaseSummary};
pub use trace::{closed_spans, EventKind, ServerInterval, TraceEvent, TraceRecorder};

/// Declares the well-known metric names together with `names::ALL`, so the
/// drift test over "every name is emitted somewhere" can never miss a
/// constant: adding a name here automatically adds it to the checked list.
macro_rules! metric_names {
    ($($(#[$doc:meta])* $ident:ident = $value:literal;)+) => {
        $($(#[$doc])* pub const $ident: &str = $value;)+

        /// Every metric name above, in declaration order. Generated by the
        /// same macro invocation that declares the constants, so a new name
        /// cannot silently drop out of coverage tests.
        pub const ALL: [&str; [$($value),+].len()] = [$($value),+];
    };
}

/// Well-known counter and gauge names, shared by instrumentation sites and
/// consumers so they cannot drift apart.
pub mod names {
    metric_names! {
        /// Counter: point-to-point messages sent (`Ctx::send`).
        MESSAGES_SENT = "msg.messages_sent";
        /// Counter: payload bytes of point-to-point messages.
        MESSAGE_BYTES = "msg.message_bytes";
        /// Counter: bytes moved through `alltoallv` (redistribution volume).
        REDISTRIBUTION_BYTES = "redistribute.bytes";
        /// Counter: ~1 MB stream pieces written by array streaming.
        PIECES_WRITTEN = "stream.pieces_written";
        /// Counter: bytes streamed to or from checkpoint array files.
        BYTES_STREAMED = "stream.bytes";
        /// Counter: PIOFS collective I/O phases priced.
        IO_PHASES = "piofs.phases";
        /// Counter: individual I/O requests inside PIOFS phases.
        IO_REQUESTS = "piofs.requests";
        /// Counter: file-stripe touches across PIOFS servers.
        STRIPES_TOUCHED = "piofs.stripes";
        /// Counter: checkpoint segment bytes written (core report input).
        SEGMENT_BYTES = "core.segment_bytes";
        /// Counter: checkpoint array bytes written (core report input).
        ARRAY_BYTES = "core.array_bytes";
        /// Counter: job (re)starts observed by the runtime environment; the
        /// count above the first start is the retry count.
        JOB_STARTS = "rtenv.job_starts";
        /// Counter: recovery retries (task-coordinator restarts).
        RETRIES = "rtenv.retries";
        /// Gauge (indexed by server): accumulated PIOFS server busy horizon
        /// in simulated seconds.
        SERVER_BUSY = "piofs.server_busy";
        /// Counter: parity bytes written alongside data (RAID-5 overhead).
        PARITY_BYTES = "piofs.parity_bytes";
        /// Counter: bytes served by XOR reconstruction in degraded mode.
        RECONSTRUCTED_BYTES = "piofs.reconstructed_bytes";
        /// Counter: checkpoint chunks whose checksum failed verification.
        CORRUPTIONS_DETECTED = "resil.corruptions_detected";
        /// Counter: corrupt chunks repaired from parity by a scrub pass.
        CORRUPTIONS_REPAIRED = "resil.corruptions_repaired";
        /// Counter: checkpoints quarantined after failing verification.
        CHECKPOINTS_QUARANTINED = "rtenv.checkpoints_quarantined";
        /// Counter: total fallback depth (checkpoints skipped before a
        /// restart found one that verified).
        FALLBACK_DEPTH = "rtenv.fallback_depth";
        /// Counter: bytes captured into the in-memory checkpoint tier
        /// (owner copies, before replication).
        MEMTIER_STORE_BYTES = "memtier.store_bytes";
        /// Counter: replica bytes scattered over the network by memory-tier
        /// stores (the replication traffic the cost model prices).
        MEMTIER_REPLICA_BYTES = "memtier.replica_bytes";
        /// Counter: bytes served out of the memory tier during a restart.
        MEMTIER_RESTORE_BYTES = "memtier.restore_bytes";
        /// Counter: bytes spilled from the memory tier to durable PIOFS files.
        MEMTIER_SPILL_BYTES = "memtier.spill_bytes";
        /// Counter: restarts served by the memory tier instead of PIOFS.
        MEMTIER_HITS = "rtenv.memtier_hits";
        /// Counter: memory-tier checkpoints invalidated by node loss.
        MEMTIER_INVALIDATIONS = "rtenv.memtier_invalidations";
        /// Gauge (index 0): simulated seconds of the most recent memory-tier
        /// spill to PIOFS.
        MEMTIER_SPILL_SECONDS = "memtier.spill_seconds";
        /// Counter: transient PIOFS faults retried with backoff.
        IO_RETRIES = "piofs.retries";
        /// Counter: operations that exhausted their retry budget (reads
        /// fail, writes escalate to the blocking path).
        RETRY_GIVEUPS = "chaos.giveups";
        /// Counter: `write_at` calls torn short by fault injection.
        TORN_WRITES = "chaos.torn_writes";
        /// Counter: crash points fired by the chaos controller.
        CRASHES_INJECTED = "chaos.crashes_injected";
        /// Counter: checkpoints atomically published (manifest renamed
        /// into place — the two-phase commit point).
        COMMITS = "core.commits";
        /// Counter: checkpoint attempts abandoned before their commit
        /// point (staging reclaimed by the orphan sweep).
        COMMIT_ABORTS = "core.commit_aborts";
        /// Counter: renames refused to protect a committed manifest.
        RENAMES_REFUSED = "piofs.renames_refused";
        /// Gauge (index 0): number of currently failed PIOFS servers (0 =
        /// healthy; >0 = degraded mode, reads reconstruct from parity).
        PIOFS_DEGRADED = "piofs.degraded";
        /// Gauge (indexed by server): simulated seconds of work enqueued on
        /// each server by the most recent priced I/O phase (queue depth in
        /// service time, the live imbalance signal).
        PIOFS_QUEUE_DEPTH = "piofs.queue_depth";
        /// Gauge (index 0): minimum surviving replica count over the pieces
        /// of the newest intact memory-tier checkpoint (0 once node loss
        /// evicts it; the replica-health signal live rules watch).
        MEMTIER_REPLICAS = "memtier.replicas";
        /// Counter: reports folded by the pulse online pipeline.
        PULSE_SAMPLES = "pulse.samples";
        /// Counter: heartbeat lines emitted by the pulse collector.
        PULSE_HEARTBEATS = "pulse.heartbeats";
        /// Counter: health-rule alerts raised by the pulse engine.
        PULSE_ALERTS = "pulse.alerts";
        /// Counter: checkpoint-stall SLO breaches (no commit for longer
        /// than the configured stall budget while the run is active).
        ALERT_CKPT_STALL = "pulse.alert.ckpt_stall";
        /// Counter: retry-storm alerts (I/O retry rate over threshold).
        ALERT_RETRY_STORM = "pulse.alert.retry_storm";
        /// Counter: straggler-skew alerts (slowest/median wave duration
        /// over threshold).
        ALERT_STRAGGLER = "pulse.alert.straggler_skew";
        /// Counter: parity-degraded-writes alerts (phases priced while a
        /// PIOFS server is down).
        ALERT_PARITY_DEGRADED = "pulse.alert.parity_degraded";
        /// Counter: memory-tier replica-count-below-threshold alerts.
        ALERT_REPLICA_LOSS = "pulse.alert.replica_loss";
        /// Counter: stream chunks rewritten by incremental checkpoints
        /// (content hash differed from the last committed checkpoint).
        DELTA_DIRTY_CHUNKS = "delta.dirty_chunks";
        /// Counter: stream chunks incremental checkpoints carried forward
        /// unchanged (referenced in a prior incarnation's pack).
        DELTA_CLEAN_CHUNKS = "delta.clean_chunks";
        /// Counter: dirty chunks satisfied by content-hash dedup against an
        /// already-committed chunk instead of a pack write.
        DELTA_DEDUP_HITS = "delta.dedup_hits";
        /// Counter: pack bytes actually written by incremental checkpoints
        /// (the delta bench's bytes-written reduction is measured on this).
        DELTA_BYTES_WRITTEN = "delta.bytes_written";
        /// Counter: pack bytes saved by per-chunk compression (raw length
        /// minus stored length, summed over compressed chunks).
        DELTA_COMPRESSED_BYTES = "delta.compressed_bytes";
        /// Counter: full rewrites taken by the delta path (first checkpoint
        /// of a chain or the full-every epoch bound).
        DELTA_FULL_REWRITES = "delta.full_rewrites";
        /// Gauge (index 0): committed delta-chain depth — incremental
        /// checkpoints since the last full rewrite.
        DELTA_CHAIN_DEPTH = "delta.chain_depth";
        /// Gauge (index 0): dirty-chunk ratio of the most recent delta
        /// checkpoint (1.0 = nothing carried forward, the delta collapsed).
        DELTA_DIRTY_RATIO = "delta.dirty_ratio";
        /// Counter: delta-ratio-collapse alerts (dirty ratio above ceiling —
        /// incremental checkpoints no longer save anything).
        ALERT_DELTA_COLLAPSE = "pulse.alert.delta_collapse";
        /// Counter: snapshots armed by the asynchronous checkpoint pipeline
        /// (one per SOP handed to the background flusher).
        ASYNC_SNAPSHOTS = "async.snapshots";
        /// Counter: bytes captured into copy-on-write snapshots at the SOP
        /// (segment plus every array's canonical stream).
        ASYNC_SNAPSHOT_BYTES = "async.snapshot_bytes";
        /// Counter: background flushes that reached their commit point
        /// (manifest renamed into place).
        ASYNC_FLUSHES = "async.flushes";
        /// Counter: armed snapshots abandoned before commit (flush failed
        /// or the region died; staging reclaimed by the orphan sweep).
        ASYNC_FLUSH_ABORTS = "async.flush_aborts";
        /// Counter: SOPs that had to wait for an in-flight flush because
        /// the snapshot budget was exhausted (backpressure engagements).
        ASYNC_BACKPRESSURE_STALLS = "async.backpressure_stalls";
        /// Counter: microseconds of compute critical path lost to
        /// backpressure waits (the residual stall asynchrony cannot hide).
        ASYNC_STALL_US = "async.stall_us";
        /// Counter: microseconds between a snapshot arming and its flush
        /// commit becoming visible — how far durability lags the SOP.
        ASYNC_FLUSH_LAG_US = "async.flush_lag_us";
        /// Gauge (index 0): snapshots currently in flight behind the
        /// background flusher (bounded by the configured budget).
        ASYNC_INFLIGHT = "async.inflight";
        /// Gauge (index 0): fraction of the most recently retired flush
        /// window hidden off the critical path (1.0 = fully overlapped).
        ASYNC_OVERLAP_RATIO = "async.overlap_ratio";
        /// Counter: flush-lag alerts (durability lagging the SOP by more
        /// than the configured budget within one window).
        ALERT_FLUSH_LAG = "pulse.alert.flush_lag";
        /// Counter: events captured into per-rank flight-recorder rings.
        BLACKBOX_EVENTS_CAPTURED = "blackbox.events_captured";
        /// Counter: events evicted oldest-first from full flight rings
        /// between seals (bounded-memory overflow, visible loss).
        BLACKBOX_EVENTS_EVICTED = "blackbox.events_evicted";
        /// Counter: flight-ring seals taken (SOP persistence plus crash
        /// salvage), each draining the ring into an encoded blob.
        BLACKBOX_SEALS = "blackbox.seals";
        /// Counter: encoded seal bytes handed to persistence.
        BLACKBOX_SEAL_BYTES = "blackbox.seal_bytes";
        /// Counter: seals salvaged opportunistically at a firing crash
        /// point (the dying incarnation's last words).
        BLACKBOX_SALVAGES = "blackbox.salvages";
        /// Counter: sealed rings recovered from storage across restarts.
        BLACKBOX_RINGS_RECOVERED = "blackbox.rings_recovered";
        /// Counter: recorded events lost with a dying incarnation (buffered
        /// but never sealed to storage before the crash).
        BLACKBOX_EVENTS_DROPPED = "blackbox.events_dropped";
        /// Gauge (index 0): cumulative recovery cost (detection + restore +
        /// re-computation + lost work) as a fraction of stitched wall time.
        BLACKBOX_RECOVERY_RATIO = "blackbox.recovery_ratio";
        /// Counter: recovery-budget alerts (cumulative recovery cost above
        /// the configured fraction of run time).
        ALERT_RECOVERY_BUDGET = "pulse.alert.recovery_budget";
        /// Gauge (index 0): current membership epoch — bumped by every
        /// agreed membership transition (node loss, shrink, grow).
        RECOVER_EPOCH = "recover.epoch";
        /// Counter: localized recoveries completed (lost sections restored
        /// in place, survivors kept their live state — no full restart).
        RECOVER_LOCALIZED = "recover.localized";
        /// Counter: localized recoveries that escalated to a verified full
        /// restart (replicas gone, no usable checkpoint, or a second
        /// failure while the recovery was in flight).
        RECOVER_FULL_RESTARTS = "recover.full_restarts";
        /// Counter: lost array sections restored by localized recoveries.
        RECOVER_SECTIONS = "recover.sections_restored";
        /// Counter: lost-section bytes served out of memory-tier replicas
        /// (the no-storage-round-trip restore path).
        RECOVER_REPLICA_BYTES = "recover.replica_bytes";
        /// Counter: lost-section bytes read back from PIOFS manifests
        /// (full streams or range-limited delta chains).
        RECOVER_PIOFS_BYTES = "recover.piofs_bytes";
        /// Counter: checkpoint-state bytes survivors reinstated from their
        /// retained in-memory copies (never touch the network or storage).
        RECOVER_SURVIVOR_BYTES = "recover.survivor_bytes";
        /// Counter: bytes copied into the survivors' retained checkpoint
        /// snapshots at each commit (the price of recoverability).
        RECOVER_RETAIN_BYTES = "recover.retain_bytes";
        /// Counter: online shrink/grow re-partitions completed at an SOP
        /// (live arrays redistributed across a new active task count
        /// without any storage I/O).
        RECOVER_RESIZES = "recover.resizes";
        /// Counter: recovery-degradation alerts (a localized recovery fell
        /// back to a full application restart).
        ALERT_RECOVERY_DEGRADED = "pulse.alert.recovery_degraded";
    }
}

/// Event and span names the cross-incarnation recovery attribution keys
/// on, shared by the sites that emit them and the fold that reads them.
/// They are trace names, not metrics, so they sit outside `names::ALL`.
pub mod markers {
    /// Event-name prefix of the rank-0 instant the core checkpoint paths
    /// emit at each two-phase commit point (`commit:{prefix}`). The
    /// recovery-cost attribution uses these markers as the durable-progress
    /// lattice.
    pub const COMMIT_EVENT_PREFIX: &str = "commit:";

    /// Event-name prefix of the `Phase::Control` instant the crash injector
    /// emits when a crash point fires (`crash:{point}`). These carry real
    /// simulated time (unlike other control-plane events) and mark where an
    /// incarnation died.
    pub const CRASH_EVENT_PREFIX: &str = "crash:";

    /// Span of a restart's program-text read.
    pub const LOAD_TEXT: &str = "load_text";
    /// Span of a restart's data-segment read.
    pub const LOAD_SEGMENT: &str = "load_segment";
    /// Span of a restart's distributed-array restore.
    pub const RESTORE_ARRAYS: &str = "restore_arrays";
    /// Span of a delta-chain restart's distributed-array restore.
    pub const RESTORE_ARRAYS_DELTA: &str = "restore_arrays_delta";
    /// Span of a conventional SPMD restart's per-task segment read.
    pub const SPMD_READ_SEGMENT: &str = "spmd_read_segment";

    /// Span names of every restart restore path: the full-state path in
    /// execution order, then the delta-chain array restore and the SPMD
    /// segment read. The attribution treats the latest close of any of
    /// these as the end of an incarnation's restore window.
    pub const RESTORE_SPAN_NAMES: [&str; 5] =
        [LOAD_TEXT, LOAD_SEGMENT, RESTORE_ARRAYS, RESTORE_ARRAYS_DELTA, SPMD_READ_SEGMENT];

    /// Span name of a localized in-incarnation recovery window (rank 0,
    /// `Phase::Recover`): survivors reinstated their retained sections and
    /// the lost sections were fetched, all without tearing the incarnation
    /// down. The attribution carves these windows out of useful work as
    /// localized restore, mirroring how [`RESTORE_SPAN_NAMES`] mark a full
    /// restart's restore window.
    pub const LOCALIZED_SPAN_NAME: &str = "localized_recover";
}

/// Declares the [`Phase`] enum, its stable export names, and `Phase::ALL`
/// in one place: the same macro invocation generates all three, so a new
/// variant cannot silently drop out of summary tables or trace categories.
macro_rules! phases {
    ($($(#[$doc:meta])* $variant:ident = $name:literal;)+) => {
        /// Pipeline phase a span or event belongs to. Doubles as the
        /// Chrome-trace category, so Perfetto can filter on it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Phase {
            $($(#[$doc])* $variant,)+
        }

        impl Phase {
            /// Stable lowercase name, used in exports.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Phase::$variant => $name,)+
                }
            }

            /// All phases, in summary-table order. Generated from the same
            /// variant list as the enum itself, so it is always in sync.
            pub const ALL: [Phase; [$(Phase::$variant),+].len()] =
                [$(Phase::$variant),+];
        }
    };
}

phases! {
    /// Restart initialization: program text plus data-segment read.
    Init = "init";
    /// Data-segment write (checkpoint) or read (restart).
    Segment = "segment";
    /// Distributed-array streaming, all arrays of one operation.
    Arrays = "arrays";
    /// Checkpoint manifest write or read.
    Manifest = "manifest";
    /// One wave of array-section streaming.
    StreamWave = "stream_wave";
    /// Redistribution between distributions (`alltoallv` pack/unpack).
    Redistribute = "redistribute";
    /// A PIOFS collective I/O phase.
    IoPhase = "io_phase";
    /// Runtime-environment / control-plane activity.
    Control = "control";
    /// End-to-end checkpoint verification (manifest digest + chunk CRCs).
    Verify = "verify";
    /// A storage scrub pass (detect and repair corrupt stripes).
    Scrub = "scrub";
    /// XOR reconstruction of lost stripes during degraded reads.
    Reconstruct = "reconstruct";
    /// In-memory checkpoint-tier activity (store, replication, restore).
    MemTier = "memtier";
    /// Spill of a memory-tier checkpoint to durable PIOFS storage.
    Spill = "spill";
    /// Backoff wait between retries of a transiently failed operation.
    Retry = "retry";
    /// Online telemetry: health-rule alerts and heartbeat emission by the
    /// pulse collector.
    Pulse = "pulse";
    /// Incremental checkpointing: chunk digesting, dedup, and pack writes.
    Delta = "delta";
    /// Asynchronous checkpoint pipeline: COW snapshot capture at the SOP
    /// and the background flush window that drains it to durable storage.
    Async = "async";
    /// Flight-recorder activity: ring seals, crash salvage, and recovered
    /// ring handoff across incarnations.
    Blackbox = "blackbox";
    /// Localized recovery: membership agreement, survivor reinstatement,
    /// lost-section restore, and the recovery-journal commit.
    Recover = "recover";
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod phase_tests {
    use super::Phase;

    /// `Phase::ALL` is macro-generated from the variant list, so it cannot
    /// miss a variant; this pins the remaining invariants: names are unique
    /// (export categories must not collide) and `ALL` has no duplicates.
    #[test]
    fn phase_all_is_exhaustive_and_names_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(names.len(), Phase::ALL.len());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len(), "duplicate phase export name");
        // Every variant in ALL appears exactly once.
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(Phase::ALL.iter().position(|q| q == p), Some(i));
        }
    }

    #[test]
    fn metric_names_unique() {
        let mut names: Vec<&str> = crate::names::ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), crate::names::ALL.len(), "duplicate metric name");
    }
}
