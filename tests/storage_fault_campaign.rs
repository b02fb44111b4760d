//! Storage-fault campaigns: the resilience layer under fire. Processors die
//! *and* the storage beneath the checkpoints fails — PIOFS servers are
//! killed mid-run and checkpoints are silently corrupted by seeded
//! campaigns — yet the JSA must always drive the job to completion with the
//! final state bitwise equal to an uninterrupted run. The restart path
//! reads through parity reconstruction in degraded mode, scrubs repairable
//! corruption, and quarantines + falls back past checkpoints that stay
//! damaged.

use std::sync::Arc;

use drms::memtier::{MemTier, RestartTier};
use drms::obs::{names, TraceRecorder};
use drms::piofs::{Piofs, PiofsConfig};
use drms::rtenv::{Event, JobOutcome, RunSummary};
use drms_bench::campaign::{policy, Campaign, CkptMode, Fault, Rig, StorageFault, FAULTS, NPROCS};

const NITER: i64 = 10;
const APP: &str = "storm";

/// Repo-wide campaign seed convention (shared with the chaos and failure
/// campaigns): `FAULT_SEED` overrides the pinned seed of the
/// seed-parametric campaigns below, and every campaign assertion prints a
/// one-command repro naming its seed.
fn campaign_seed(default: u64) -> u64 {
    drms_bench::seed::fault_seed_or(default)
}

/// The one-command repro printed by campaign assertions.
fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("storage_fault_campaign", seed)
}

/// Checksum of the final state of an uninterrupted run.
fn expect_total() -> f64 {
    FAULTS.reference(NITER)
}

/// A storage fault also kills a processor, because it only matters once
/// something has to restart across it. `Server`: the restart must read
/// every checkpoint stripe on that server through parity reconstruction.
fn server_fault(at: i64, server: usize, victim: usize) -> Fault {
    Fault { storage: Some(StorageFault::Server(server)), ..Fault::kill(at, victim) }
}

/// A seeded corruption campaign against the newest checkpoint, then a
/// kill: the restart must detect the damage and either scrub it from
/// parity or fall back to an older checkpoint.
fn corrupt_fault(at: i64, seed: u64, victim: usize) -> Fault {
    Fault { storage: Some(StorageFault::Corrupt(seed)), ..Fault::kill(at, victim) }
}

struct StormWorld {
    rig: Rig,
    rec: Arc<TraceRecorder>,
    seed: u64,
}

/// A world over `fs` with a fresh coordinator, log and trace recorder.
/// Reusing a file system continues its checkpoint chain (used by the
/// fallback tests below).
fn world_on(fs: Arc<Piofs>, seed: u64) -> StormWorld {
    let rec = Arc::new(TraceRecorder::default());
    StormWorld { rig: Rig::on(APP, fs, Some(rec.clone())), rec, seed }
}

fn build_world(seed: u64, parity: bool) -> StormWorld {
    let cfg = if parity {
        PiofsConfig::test_tiny(NPROCS).with_parity()
    } else {
        PiofsConfig::test_tiny(NPROCS)
    };
    world_on(Piofs::new(cfg, seed), seed)
}

/// Runs the storm job under a fault schedule; returns the global checksum
/// and the JSA's run summary.
fn run_storm(w: &StormWorld, faults: Vec<Fault>) -> (f64, RunSummary) {
    run_storm_with(w, None, faults)
}

/// As [`run_storm`], optionally routing every checkpoint through an
/// in-memory replicated tier (with a verified spill, so the durable PIOFS
/// chain is identical either way; a region too small for the replication
/// factor degrades to a direct checkpoint) and restarts through the JSA's
/// tiered resolution.
fn run_storm_with(
    w: &StormWorld,
    tier: Option<Arc<MemTier>>,
    faults: Vec<Fault>,
) -> (f64, RunSummary) {
    let mut jsa = w.rig.jsa(policy());
    if let Some(tier) = tier {
        jsa = jsa.with_memtier(tier);
    }
    let job = Campaign { mode: CkptMode::Tier, faults, ..Campaign::new(APP, "ck/storm", NITER) };
    let (total, summary) = job.launch(&w.rig, &jsa);
    assert!(
        summary.completed,
        "storm (seed {}) did not complete: {summary:?}\nreproduce with: {}",
        w.seed,
        repro_cmd(w.seed)
    );
    (total, summary)
}

#[test]
fn server_loss_restarts_through_reconstruction() {
    let run = |seed| {
        let w = build_world(seed, true);
        let faults = vec![server_fault(4, 2, 3)];
        let (total, summary) = run_storm(&w, faults);
        assert_eq!(total, expect_total(), "degraded restart diverged");
        assert!(summary.restarts() >= 1);
        // The newest checkpoint was healthy (just striped across a dead
        // server), so no fallback was needed…
        assert!(summary.incarnations.iter().all(|i| i.fallback_depth == 0));
        // …but restoring it really did rebuild lost stripes from parity.
        let reconstructed = w.rec.metrics().counter_total(names::RECONSTRUCTED_BYTES);
        assert!(reconstructed > 0, "restart never hit the reconstruction path");
        assert!(w.rec.metrics().counter_total(names::PARITY_BYTES) > 0);
        reconstructed
    };
    // Degraded-mode activity is deterministic per seed (override: FAULT_SEED).
    let seed = campaign_seed(11);
    assert_eq!(run(seed), run(seed));
}

#[test]
fn corruption_campaign_is_scrubbed_or_fallen_back() {
    let w = build_world(7, true);
    let faults = vec![corrupt_fault(4, 0xC0FFEE, 1)];
    let (total, summary) = run_storm(&w, faults);
    // Whether scrub repaired the damage in place or the restart fell back
    // to an older checkpoint, the recomputed final state is exact.
    assert_eq!(total, expect_total(), "corrupted restart diverged");
    assert!(summary.restarts() >= 1);
    let detected = w.rec.metrics().counter_total(names::CORRUPTIONS_DETECTED);
    assert!(detected > 0, "seeded corruption was never detected");
    let repaired = w.rec.metrics().counter_total(names::CORRUPTIONS_REPAIRED);
    let fell_back = summary.incarnations.iter().any(|i| i.fallback_depth > 0);
    assert!(repaired > 0 || fell_back, "damage neither scrubbed nor fallen back");
}

#[test]
fn mixed_storage_and_processor_faults_recover_exactly() {
    let w = build_world(3, true);
    let faults = vec![Fault::kill(2, 5), server_fault(5, 0, 2), corrupt_fault(8, 99, 6)];
    let (total, summary) = run_storm(&w, faults);
    assert_eq!(total, expect_total(), "mixed campaign diverged");
    assert!(summary.restarts() >= 3);
}

#[test]
fn unrepairable_damage_falls_back_to_older_checkpoint() {
    // A clean run leaves checkpoints at iterations 3, 6, 9.
    let w = build_world(5, true);
    let (total, _) = run_storm(&w, Vec::new());
    assert_eq!(total, expect_total());

    // Destroy a data file of the newest checkpoint. Parity is per-file, so
    // a whole missing file is beyond any scrub.
    assert!(w.rig.fs.delete("ck/storm/9/segment"));

    // A fresh scheduler run must quarantine ck/storm/9 and restart from
    // ck/storm/6 — then recompute the lost iterations exactly.
    let w2 = world_on(Arc::clone(&w.rig.fs), w.seed);
    let (total, summary) = run_storm(&w2, Vec::new());
    assert_eq!(total, expect_total(), "fallback restart diverged");

    let first = &summary.incarnations[0];
    assert_eq!(first.restart_from.as_deref(), Some("ck/storm/6"));
    assert_eq!(first.fallback_depth, 1, "one damaged checkpoint skipped");
    assert!(w2
        .rig
        .log
        .any(|e| matches!(e, Event::CheckpointQuarantined { prefix } if prefix == "ck/storm/9")));
    assert!(w2.rig.log.any(
        |e| matches!(e, Event::RestartFallback { depth, prefix, .. } if *depth == 1 && prefix == "ck/storm/6")
    ));
    // Quarantine renames the manifest aside; the data stays for diagnosis.
    assert!(w2.rig.fs.exists("ck/storm/9/manifest.quarantined"));
    assert!(w2.rig.fs.exists("ck/storm/9/array-u"));
}

#[test]
fn memory_tier_serves_restart_within_survivability() {
    // r = 2: every piece has three resident copies (owner + 2 replicas),
    // so one killed processor cannot take the tier down — the restart must
    // be a memory-tier hit with no fallback, and still recover exactly
    // across the task-count change (8 -> 7 tasks).
    let run = |seed| {
        let w = build_world(seed, true);
        let tier = MemTier::new(2);
        let faults = vec![Fault::kill(4, 3)];
        let (total, summary) = run_storm_with(&w, Some(Arc::clone(&tier)), faults);
        assert_eq!(total, expect_total(), "memory-tier restart diverged");
        assert!(summary.restarts() >= 1);

        let restarted = &summary.incarnations[1];
        assert_eq!(restarted.tier, RestartTier::Memory, "restart should hit the memory tier");
        assert_eq!(restarted.restart_from.as_deref(), Some("ck/storm/3"));
        assert_eq!(restarted.fallback_depth, 0);
        assert!(w
            .rig
            .log
            .any(|e| matches!(e, Event::MemTierHit { prefix } if prefix == "ck/storm/3")));
        assert!(
            !w.rig.log.any(|e| matches!(e, Event::MemTierInvalidated { .. })),
            "one kill must not cross the r=2 survivability threshold"
        );
        assert!(w.rec.metrics().counter_total(names::MEMTIER_HITS) >= 1);
        assert_eq!(w.rec.metrics().counter_total(names::MEMTIER_INVALIDATIONS), 0);
        assert!(w.rec.metrics().counter_total(names::MEMTIER_STORE_BYTES) > 0);
        assert!(w.rec.metrics().counter_total(names::MEMTIER_RESTORE_BYTES) > 0);
        total
    };
    // Deterministic per seed (override: FAULT_SEED).
    let seed = campaign_seed(21);
    assert_eq!(run(seed), run(seed));
}

#[test]
fn node_kills_crossing_threshold_fall_back_to_piofs_bitwise() {
    // r = 1: two resident copies per piece. A clean tier-checkpointed run
    // leaves spilled (durable, verified) checkpoints at 3, 6, 9 plus the
    // resident tier entries.
    let w = build_world(31, false);
    let tier = MemTier::new(1);
    let (total, _) = run_storm_with(&w, Some(Arc::clone(&tier)), Vec::new());
    assert_eq!(total, expect_total());
    assert!(tier.is_intact("ck/storm/9"));

    // The durable copy of the newest checkpoint is silently damaged (no
    // parity on this fs, so it stays damaged); the tier copy is fine.
    assert!(w.rig.fs.corrupt_range("ck/storm/9/array-u", 0, 16, 13) > 0);

    // Second scheduler run over the same fs and tier: incarnation 0 is a
    // memory-tier hit on ck/storm/9 — then a node-kill schedule takes 7 of
    // the 8 processors, crossing the r=1 survivability threshold (every
    // copy of some piece is on a dead node).
    let w2 = world_on(Arc::clone(&w.rig.fs), w.seed);
    let faults = vec![Fault { at: 10, storage: None, victims: (0..=6).collect() }];
    let (total, summary) = run_storm_with(&w2, Some(Arc::clone(&tier)), faults);
    assert_eq!(total, expect_total(), "PIOFS fallback diverged from the clean run");

    // Incarnation 0: served out of the memory tier.
    let first = &summary.incarnations[0];
    assert_eq!(first.tier, RestartTier::Memory);
    assert_eq!(first.restart_from.as_deref(), Some("ck/storm/9"));
    assert_eq!(first.outcome, JobOutcome::Killed);
    assert!(w2
        .rig
        .log
        .any(|e| matches!(e, Event::MemTierHit { prefix } if prefix == "ck/storm/9")));

    // Incarnation 1: the mass kill invalidated the tier, so the JSA fell
    // back to the durable chain — quarantining the damaged ck/storm/9 and
    // restarting from ck/storm/6 with the correct fallback depth, on the
    // single surviving processor.
    let second = &summary.incarnations[1];
    assert_eq!(second.tier, RestartTier::Piofs, "invalidated tier must fall back to PIOFS");
    assert_eq!(second.restart_from.as_deref(), Some("ck/storm/6"));
    assert_eq!(second.fallback_depth, 1, "one damaged durable checkpoint skipped");
    assert_eq!(second.ntasks, 1);
    assert_eq!(second.outcome, JobOutcome::Completed);

    assert!(!tier.is_intact("ck/storm/9"), "threshold-crossing kill must evict the entry");
    assert!(w2
        .rig
        .log
        .any(|e| matches!(e, Event::MemTierInvalidated { prefix } if prefix == "ck/storm/9")));
    assert!(w2
        .rig
        .log
        .any(|e| matches!(e, Event::CheckpointQuarantined { prefix } if prefix == "ck/storm/9")));
    assert!(w2.rec.metrics().counter_total(names::MEMTIER_INVALIDATIONS) >= 1);
    assert_eq!(w2.rec.metrics().counter_total(names::FALLBACK_DEPTH), 1);
}

#[test]
fn integrity_without_parity_detects_and_falls_back() {
    // Checksums without redundancy: corruption is detected but cannot be
    // scrubbed, so the restart must fall back.
    let w = build_world(9, false);
    let (total, _) = run_storm(&w, Vec::new());
    assert_eq!(total, expect_total());
    assert!(w.rig.fs.corrupt_range("ck/storm/9/array-u", 0, 16, 13) > 0);

    let w2 = world_on(Arc::clone(&w.rig.fs), w.seed);
    let (total, summary) = run_storm(&w2, Vec::new());
    assert_eq!(total, expect_total(), "no-parity fallback diverged");

    let first = &summary.incarnations[0];
    assert_eq!(first.restart_from.as_deref(), Some("ck/storm/6"));
    assert_eq!(first.fallback_depth, 1);
    assert!(w2.rec.metrics().counter_total(names::CORRUPTIONS_DETECTED) > 0);
    assert_eq!(w2.rec.metrics().counter_total(names::CORRUPTIONS_REPAIRED), 0);
    assert_eq!(w2.rec.metrics().counter_total(names::CHECKPOINTS_QUARANTINED), 1);
    assert_eq!(w2.rec.metrics().counter_total(names::FALLBACK_DEPTH), 1);
}
