//! Storage-fault campaigns: the resilience layer under fire. Processors die
//! *and* the storage beneath the checkpoints fails — PIOFS servers are
//! killed mid-run and checkpoints are silently corrupted by seeded
//! campaigns — yet the JSA must always drive the job to completion with the
//! final state bitwise equal to an uninterrupted run. The restart path
//! reads through parity reconstruction in degraded mode, scrubs repairable
//! corruption, and quarantines + falls back past checkpoints that stay
//! damaged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms::core::segment::DataSegment;
use drms::core::{find_checkpoints, Drms, DrmsConfig};
use drms::darray::{DistArray, Distribution};
use drms::memtier::{spill_checkpoint, store_checkpoint, store_feasible, MemTier, RestartTier};
use drms::msg::CostModel;
use drms::obs::{names, TraceRecorder};
use drms::piofs::{Piofs, PiofsConfig};
use drms::resil::CorruptionCampaign;
use drms::rtenv::{
    Event, EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ProcessorState, ResourceCoordinator,
    RunSummary,
};
use drms::slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 10;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;
const APP: &str = "storm";

fn domain() -> Slice {
    Slice::boxed(&[(1, 18), (1, 14)])
}

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

/// Checksum of the final state of an uninterrupted run (integer-valued
/// sums, so f64 addition is exact in any order).
fn expect_total() -> f64 {
    let mut s = 0.0;
    domain().points(Order::ColumnMajor).for_each(|p| {
        s += (p[0] * 13 + p[1] * 3) as f64 + NITER as f64 * 1.5;
    });
    s
}

/// A storage fault to inject at a scheduled iteration. Each one also kills
/// a processor, because a storage fault only matters once something has to
/// restart across it.
#[derive(Clone)]
enum Fault {
    /// Kill processor `victim` (the classic campaign, for mixing).
    Proc { victim: usize },
    /// Kill PIOFS server `server`, then processor `victim`: the restart
    /// must read every checkpoint stripe on that server through parity
    /// reconstruction.
    Server { server: usize, victim: usize },
    /// Run a seeded corruption campaign against the newest checkpoint,
    /// then kill `victim`: the restart must detect the damage and either
    /// scrub it from parity or fall back to an older checkpoint.
    Corrupt { seed: u64, victim: usize },
    /// Kill a whole set of processors at once — the schedule that crosses
    /// the memory tier's survivability threshold when it takes every
    /// resident copy of some checkpoint piece.
    Nodes { victims: Vec<usize> },
}

struct StormWorld {
    rc: Arc<ResourceCoordinator>,
    fs: Arc<Piofs>,
    log: EventLog,
    rec: Arc<TraceRecorder>,
    seed: u64,
}

fn build_world(seed: u64, parity: bool) -> StormWorld {
    let rec = Arc::new(TraceRecorder::default());
    let log = EventLog::with_recorder(rec.clone());
    let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
    let cfg = if parity {
        PiofsConfig::test_tiny(NPROCS).with_parity()
    } else {
        PiofsConfig::test_tiny(NPROCS)
    };
    let fs = Piofs::new(cfg, seed);
    Drms::install_binary(&fs, &DrmsConfig::new(APP));
    StormWorld { rc, fs, log, rec, seed }
}

/// Runs the storm job under a fault schedule; returns the global checksum
/// and the JSA's run summary. Reusing a world continues its checkpoint
/// chain (used by the fallback tests below).
fn run_storm(w: &StormWorld, faults: Vec<(i64, Fault)>) -> (f64, RunSummary) {
    run_storm_with(w, None, faults)
}

/// As [`run_storm`], optionally routing every checkpoint through an
/// in-memory replicated tier (with a verified spill, so the durable PIOFS
/// chain is identical either way) and restarts through the JSA's tiered
/// resolution.
fn run_storm_with(
    w: &StormWorld,
    tier: Option<Arc<MemTier>>,
    faults: Vec<(i64, Fault)>,
) -> (f64, RunSummary) {
    let mut jsa = Jsa::new(
        Arc::clone(&w.rc),
        Arc::clone(&w.fs),
        w.log.clone(),
        CostModel::default(),
        JsaPolicy { repair_when_starved: true, ..Default::default() },
    );
    if let Some(tier) = tier {
        jsa = jsa.with_memtier(tier);
    }

    let injected = Arc::new(AtomicUsize::new(0));
    let out = Arc::new(Mutex::new(Vec::new()));
    let rc2 = Arc::clone(&w.rc);
    let fs2 = Arc::clone(&w.fs);
    let injected2 = Arc::clone(&injected);
    let out2 = Arc::clone(&out);
    let faults = Arc::new(faults);

    let job = JobSpec::new(APP, (1, NPROCS), move |ctx, env| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new(APP), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        match restart {
            None => u.fill_assigned(|p| (p[0] * 13 + p[1] * 3) as f64),
            Some(info) => {
                seg = info.segment;
                start_iter = seg.control("iter").unwrap() + 1;
            }
        }
        for iter in start_iter..=NITER {
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 1.5).unwrap();
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                let prefix = format!("ck/storm/{iter}");
                match &env.memtier {
                    // Diskless checkpoint plus verified spill: the PIOFS
                    // chain ends up bitwise-identical to the direct path.
                    // A region too small for the replication factor (e.g.
                    // one surviving node) degrades to a direct checkpoint.
                    Some(tier) if store_feasible(ctx, tier) => {
                        store_checkpoint(ctx, tier, &prefix, &mut drms, &seg, &[&u]).unwrap();
                        spill_checkpoint(ctx, &env.fs, tier, &prefix).unwrap();
                    }
                    _ => {
                        drms.reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u]).unwrap();
                    }
                }
            }
            // Injection: the next scheduled fault fires once its iteration
            // is reached.
            if ctx.rank() == 0 {
                let k = injected2.load(Ordering::SeqCst);
                if let Some((at, fault)) = faults.get(k) {
                    if iter >= *at {
                        injected2.store(k + 1, Ordering::SeqCst);
                        let victims = match fault {
                            Fault::Proc { victim } => vec![*victim],
                            Fault::Server { server, victim } => {
                                fs2.fail_server(*server);
                                vec![*victim]
                            }
                            Fault::Corrupt { seed, victim } => {
                                if let Some((prefix, _)) = find_checkpoints(&fs2, Some(APP)).first()
                                {
                                    CorruptionCampaign::new(*seed, 3).apply(&fs2, prefix);
                                }
                                vec![*victim]
                            }
                            Fault::Nodes { victims } => victims.clone(),
                        };
                        for victim in victims {
                            if rc2.state_of(victim) != ProcessorState::Failed {
                                rc2.fail_processor(victim);
                            }
                        }
                    }
                }
            }
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        out2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
        JobOutcome::Completed
    });

    let summary = jsa.run_job(&job);
    assert!(
        summary.completed,
        "storm (seed {}) did not complete: {summary:?}\nreproduce with: {}",
        w.seed,
        repro_cmd(w.seed)
    );
    let total: f64 = out.lock().iter().sum();
    (total, summary)
}

#[test]
fn server_loss_restarts_through_reconstruction() {
    let run = |seed| {
        let w = build_world(seed, true);
        let faults = vec![(4, Fault::Server { server: 2, victim: 3 })];
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
    let faults = vec![(4, Fault::Corrupt { seed: 0xC0FFEE, victim: 1 })];
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
    let faults = vec![
        (2, Fault::Proc { victim: 5 }),
        (5, Fault::Server { server: 0, victim: 2 }),
        (8, Fault::Corrupt { seed: 99, victim: 6 }),
    ];
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
    assert!(w.fs.delete("ck/storm/9/segment"));

    // A fresh scheduler run must quarantine ck/storm/9 and restart from
    // ck/storm/6 — then recompute the lost iterations exactly.
    let rec = Arc::new(TraceRecorder::default());
    let log = EventLog::with_recorder(rec.clone());
    let w2 = StormWorld {
        rc: Arc::new(ResourceCoordinator::new(NPROCS, log.clone())),
        fs: Arc::clone(&w.fs),
        log,
        rec,
        seed: w.seed,
    };
    let (total, summary) = run_storm(&w2, Vec::new());
    assert_eq!(total, expect_total(), "fallback restart diverged");

    let first = &summary.incarnations[0];
    assert_eq!(first.restart_from.as_deref(), Some("ck/storm/6"));
    assert_eq!(first.fallback_depth, 1, "one damaged checkpoint skipped");
    assert!(w2
        .log
        .any(|e| matches!(e, Event::CheckpointQuarantined { prefix } if prefix == "ck/storm/9")));
    assert!(w2.log.any(
        |e| matches!(e, Event::RestartFallback { depth, prefix, .. } if *depth == 1 && prefix == "ck/storm/6")
    ));
    // Quarantine renames the manifest aside; the data stays for diagnosis.
    assert!(w2.fs.exists("ck/storm/9/manifest.quarantined"));
    assert!(w2.fs.exists("ck/storm/9/array-u"));
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
        let faults = vec![(4, Fault::Proc { victim: 3 })];
        let (total, summary) = run_storm_with(&w, Some(Arc::clone(&tier)), faults);
        assert_eq!(total, expect_total(), "memory-tier restart diverged");
        assert!(summary.restarts() >= 1);

        let restarted = &summary.incarnations[1];
        assert_eq!(restarted.tier, RestartTier::Memory, "restart should hit the memory tier");
        assert_eq!(restarted.restart_from.as_deref(), Some("ck/storm/3"));
        assert_eq!(restarted.fallback_depth, 0);
        assert!(w.log.any(|e| matches!(e, Event::MemTierHit { prefix } if prefix == "ck/storm/3")));
        assert!(
            !w.log.any(|e| matches!(e, Event::MemTierInvalidated { .. })),
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
    assert!(w.fs.corrupt_range("ck/storm/9/array-u", 0, 16, 13) > 0);

    // Second scheduler run over the same fs and tier: incarnation 0 is a
    // memory-tier hit on ck/storm/9 — then a node-kill schedule takes 7 of
    // the 8 processors, crossing the r=1 survivability threshold (every
    // copy of some piece is on a dead node).
    let rec = Arc::new(TraceRecorder::default());
    let log = EventLog::with_recorder(rec.clone());
    let w2 = StormWorld {
        rc: Arc::new(ResourceCoordinator::new(NPROCS, log.clone())),
        fs: Arc::clone(&w.fs),
        log,
        rec,
        seed: w.seed,
    };
    let faults = vec![(10, Fault::Nodes { victims: (0..=6).collect() })];
    let (total, summary) = run_storm_with(&w2, Some(Arc::clone(&tier)), faults);
    assert_eq!(total, expect_total(), "PIOFS fallback diverged from the clean run");

    // Incarnation 0: served out of the memory tier.
    let first = &summary.incarnations[0];
    assert_eq!(first.tier, RestartTier::Memory);
    assert_eq!(first.restart_from.as_deref(), Some("ck/storm/9"));
    assert_eq!(first.outcome, JobOutcome::Killed);
    assert!(w2.log.any(|e| matches!(e, Event::MemTierHit { prefix } if prefix == "ck/storm/9")));

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
        .log
        .any(|e| matches!(e, Event::MemTierInvalidated { prefix } if prefix == "ck/storm/9")));
    assert!(w2
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
    assert!(w.fs.corrupt_range("ck/storm/9/array-u", 0, 16, 13) > 0);

    let rec = Arc::new(TraceRecorder::default());
    let log = EventLog::with_recorder(rec.clone());
    let w2 = StormWorld {
        rc: Arc::new(ResourceCoordinator::new(NPROCS, log.clone())),
        fs: Arc::clone(&w.fs),
        log,
        rec,
        seed: w.seed,
    };
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
