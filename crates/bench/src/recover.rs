//! Localized-recovery bench: survivor-driven section restore versus the
//! classical full-application restart, as a cost and determinism gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- recover [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! Four campaigns over the campaign job ([`crate::campaign`]), all at the
//! same `FAULT_SEED`, each with a [`Blackbox`](drms_blackbox::Blackbox)
//! flight recorder riding the recorder fan-out so the recovery cost lands
//! in the attribution:
//!
//! 1. **Localized, memory tier** — checkpoints replicate into a memory
//!    tier; a node loss at the drill iteration recovers through replica
//!    fetches (`StreamSource::Replica`). The run must finish in a single
//!    incarnation with **zero PIOFS restore bytes**, and its attribution
//!    bills only the `localized` bucket (no detect, no restore).
//! 2. **Localized, PIOFS sections** — same drill against a durable
//!    checkpoint: only the lost ranks' sections stream back
//!    (`StreamSource::PiofsFull`), strictly less than the full state.
//! 3. **Full restart** — the classical path: a processor kill at the same
//!    iteration, a verified full restart from the newest checkpoint, the
//!    whole state re-read and the same iterations recomputed.
//! 4. **Shrink/grow** — the same machinery resizes a malleable job online:
//!    two membership transitions, bytes preserved bitwise, and **zero
//!    storage traffic** (no `piofs.*` or `stream.*` metric is emitted).
//!
//! The headline gate: at the same seed, both localized variants must carry
//! a **strictly lower recovery cost** (restore + recompute share of the
//! attributed wall clock) than the full restart. Campaigns 1 and 3 run
//! twice; checksums and rendered attributions must be bit-identical (the
//! per-`FAULT_SEED` determinism contract). Campaigns 1–3 must pass the
//! blackbox coverage contract ([`assert_covered`]): among its clauses, the
//! JSA's last `blackbox.recovery_ratio` gauge equals the report's recovery
//! fraction bit for bit, localized time included. The run and the
//! soundness contract ([`assert_sound`]) are what
//! `tests/recover_campaign.rs` runs too, at its own seeds.
//!
//! With `--json DIR` the headline numbers land in `BENCH_recover.json`;
//! `--baseline PATH` compares against a committed baseline within
//! `--tolerance` (relative); `--bless` rewrites it. The
//! `TIMELINE_recover.txt` artefact (CI uploads it) holds all three
//! attribution tables plus the stitched event stream of the full-restart
//! campaign.

use std::fmt::Write as _;
use std::sync::Arc;

use drms_blackbox::BlackboxConfig;
use drms_chaos::FaultPlan;
use drms_darray::{DistArray, Distribution};
use drms_insight::{RecoveryReport, StitchedTimeline};
use drms_memtier::MemTier;
use drms_msg::{run_spmd_traced, CostModel};
use drms_obs::{names, TraceRecorder};
use drms_recover::{grow, shrink, Membership, StreamSource};
use drms_rtenv::JsaPolicy;
use drms_slices::Order;
use parking_lot::Mutex;

use crate::blackbox::{assert_covered, launch, render_events, Run};
use crate::campaign::{initial, policy, Campaign, Fault, LossDrill, FAULTS, NPROCS};
use crate::gate::{no_gate_flags, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The protocol-timeline artefact (CI uploads it under this name).
pub const TIMELINE_FILE: &str = "TIMELINE_recover.txt";
const NITER: i64 = 12;
const APP: &str = "recbench";
/// The iteration whose top-of-loop suffers the loss (both drills).
const RECOVER_AT: i64 = 5;
/// The node (== rank under identity placement) whose sections are lost.
const VICTIM: usize = 2;

/// How a campaign survives the loss at `RECOVER_AT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Localized recovery served by memory-tier replicas.
    Tier,
    /// Localized recovery served by manifest-ranged PIOFS section reads.
    Piofs,
    /// The classical path: a processor kill and a verified full restart.
    Full,
}

/// The row's job with the loss handled as `mode` says. The localized
/// modes retain sections at each commit and, where the JSA permits it,
/// recover in place at `RECOVER_AT` (the loss drill: the memory-tier drill
/// replicates into the tier, the durable drill commits to PIOFS); the
/// full mode loses a processor there instead.
pub fn job(mode: Mode) -> Campaign {
    let mut job = Campaign::new(APP, "ck/rb", NITER);
    match mode {
        Mode::Full => job.faults.push(Fault::kill(RECOVER_AT, VICTIM)),
        Mode::Tier | Mode::Piofs => {
            let replicas = (mode == Mode::Tier).then(|| MemTier::new(2));
            job.drill = Some(LossDrill { at: RECOVER_AT, victim: VICTIM, replicas });
        }
    }
    job
}

/// Runs [`job`]`(mode)` under a fault plan and a policy that permits
/// localized recovery in the localized modes, a flight recorder riding the
/// recorder fan-out throughout. A localized run attempts exactly one
/// recovery: if a crash point kills the region inside the protocol, the
/// retried incarnation does not re-attempt it (the JSA's full restart is
/// the escalation). The full mode pays the classical kill → detect →
/// restore → recompute sequence instead.
pub fn run_campaign(plan: FaultPlan, mode: Mode) -> Run {
    let policy = JsaPolicy { localized_recovery: mode != Mode::Full, ..policy() };
    launch(job(mode), plan, policy, None, BlackboxConfig::default().capacity)
}

/// The soundness contract: the run recovered bitwise
/// ([`Launched::assert_recovered`](crate::campaign::Launched::assert_recovered))
/// and its attribution buckets tile the stitched wall clock. Returns the
/// timeline and the attribution.
pub fn assert_sound(run: &Run, what: &str, repro: &str) -> (StitchedTimeline, RecoveryReport) {
    run.out.assert_recovered(&run.job, what, repro);
    let (tl, report) = run.out.summary.attribution(&run.bb);
    let budget = 1e-9 * report.wall.max(1.0);
    assert!(
        report.tiling_error() <= budget,
        "{what}: buckets do not tile the wall clock (error {} > {budget})\nreproduce with: {repro}",
        report.tiling_error()
    );
    (tl, report)
}

fn bucket_total(rep: &RecoveryReport, f: impl Fn(&drms_insight::IncarnationCost) -> f64) -> f64 {
    rep.rows.iter().map(f).sum()
}

/// The `recover` row of the gate table.
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    no_gate_flags("recover", &args.rest);
    let seed = args.seed;
    let repro = crate::seed::bin_repro("recover", seed);
    println!(
        "Localized-recovery bench: survivor-driven section restore vs full \
             restart (seed {}, {} iterations, {} PEs, loss at iteration {})\n",
        seed, NITER, NPROCS, RECOVER_AT
    );
    let mut result = BenchResult::new("recover");
    result.param("seed", seed);
    result.param("niter", NITER);
    result.param("nprocs", NPROCS);
    result.param("recover_at", RECOVER_AT);
    result.stamp_header(seed, NPROCS);
    let state_bytes = FAULTS.domain().extents().iter().product::<usize>() as u64
        * std::mem::size_of::<f64>() as u64;

    // Campaign 1 — localized recovery off memory-tier replicas: one
    // incarnation, zero PIOFS restore bytes, only `localized` billed.
    let tier_run = run_campaign(FaultPlan::seeded(seed), Mode::Tier);
    let (_, tier_rep) = assert_covered(&tier_run, "localized-tier", &repro);
    assert_eq!(
        tier_run.out.summary.incarnations.len(),
        1,
        "localized-tier: a localized recovery must not cost an incarnation"
    );
    let trep = tier_run.out.report.as_ref().expect("localized-tier: protocol report missing");
    assert_eq!(trep.source, StreamSource::Replica, "localized-tier: wrong ladder rung");
    assert_eq!(trep.piofs_bytes, 0, "localized-tier: replica hit touched PIOFS");
    assert_eq!(
        tier_run.rec.metrics().counter_total(names::RECOVER_PIOFS_BYTES),
        0,
        "localized-tier: PIOFS restore bytes recorded on a replica hit"
    );
    assert!(trep.replica_bytes > 0, "localized-tier: no replica bytes fetched");
    assert!(trep.survivor_bytes > 0, "localized-tier: survivors reinstated nothing");
    assert_eq!(
        tier_run.rec.metrics().counter_total(names::RECOVER_LOCALIZED),
        1,
        "localized-tier: localized-recovery counter"
    );
    let tier_localized = bucket_total(&tier_rep, |r| r.localized);
    assert!(tier_localized > 0.0, "localized-tier: attribution billed no localized time");
    assert_eq!(bucket_total(&tier_rep, |r| r.detect), 0.0, "localized-tier: detect billed");
    assert_eq!(bucket_total(&tier_rep, |r| r.restore), 0.0, "localized-tier: restore billed");
    println!(
        "localized-tier : cost {:.6} sim s ({:.1}% of wall), {} replica B, \
             {} survivor B, {} sections, 1 incarnation",
        tier_rep.recovery_cost(),
        tier_rep.recovery_fraction() * 100.0,
        trep.replica_bytes,
        trep.survivor_bytes,
        trep.sections
    );

    // Campaign 2 — localized recovery off PIOFS section reads: only
    // the lost ranks' sections stream back, strictly less than the
    // whole state.
    let piofs_run = run_campaign(FaultPlan::seeded(seed), Mode::Piofs);
    let (_, piofs_rep) = assert_covered(&piofs_run, "localized-piofs", &repro);
    assert_eq!(piofs_run.out.summary.incarnations.len(), 1, "localized-piofs: reincarnated");
    let prep = piofs_run.out.report.as_ref().expect("localized-piofs: protocol report missing");
    assert_eq!(prep.source, StreamSource::PiofsFull, "localized-piofs: wrong ladder rung");
    assert_eq!(prep.replica_bytes, 0, "localized-piofs: phantom replica bytes");
    assert!(prep.piofs_bytes > 0, "localized-piofs: no section bytes read");
    assert!(
        prep.piofs_bytes < state_bytes,
        "localized-piofs: section reads ({} B) not smaller than the full state ({state_bytes} B)",
        prep.piofs_bytes
    );
    let piofs_localized = bucket_total(&piofs_rep, |r| r.localized);
    assert!(piofs_localized > 0.0, "localized-piofs: no localized time billed");
    println!(
        "localized-piofs: cost {:.6} sim s ({:.1}% of wall), {} PIOFS B of {} B state, \
             {} survivor B, 1 incarnation",
        piofs_rep.recovery_cost(),
        piofs_rep.recovery_fraction() * 100.0,
        prep.piofs_bytes,
        state_bytes,
        prep.survivor_bytes
    );

    // Campaign 3 — the classical full restart at the same seed and the
    // same loss point: kill, detect, restore everything, recompute.
    let full_run = run_campaign(FaultPlan::seeded(seed), Mode::Full);
    let (full_tl, full_rep) = assert_covered(&full_run, "full-restart", &repro);
    assert!(
        full_run.out.summary.incarnations.len() >= 2,
        "full-restart: the kill never caused a restart"
    );
    let full_detect = bucket_total(&full_rep, |r| r.detect);
    let full_restore = bucket_total(&full_rep, |r| r.restore);
    let full_recompute = bucket_total(&full_rep, |r| r.recompute);
    assert!(
        full_detect + full_restore + full_recompute > 0.0,
        "full-restart: no recovery cost attributed"
    );
    assert_eq!(
        bucket_total(&full_rep, |r| r.localized),
        0.0,
        "full-restart: localized time billed on the classical path"
    );
    println!(
        "full-restart   : cost {:.6} sim s ({:.1}% of wall), detect {:.6} + restore {:.6} \
             + recompute {:.6}, {} incarnations",
        full_rep.recovery_cost(),
        full_rep.recovery_fraction() * 100.0,
        full_detect,
        full_restore,
        full_recompute,
        full_run.out.summary.incarnations.len()
    );

    // The headline gate: localized recovery is strictly cheaper than
    // the full restart at the same seed — in absolute attributed cost
    // and in share of the wall clock.
    for (what, rep) in [("localized-tier", &tier_rep), ("localized-piofs", &piofs_rep)] {
        assert!(
            rep.recovery_cost() < full_rep.recovery_cost(),
            "{what}: localized cost {:.6} not strictly below full-restart cost {:.6}",
            rep.recovery_cost(),
            full_rep.recovery_cost()
        );
        assert!(
            rep.recovery_fraction() < full_rep.recovery_fraction(),
            "{what}: localized share {:.4} not strictly below full-restart share {:.4}",
            rep.recovery_fraction(),
            full_rep.recovery_fraction()
        );
    }
    println!(
        "\nlocalized vs full: tier {:.1}x cheaper, piofs sections {:.1}x cheaper",
        full_rep.recovery_cost() / tier_rep.recovery_cost(),
        full_rep.recovery_cost() / piofs_rep.recovery_cost()
    );

    // Campaign 4 — online shrink/grow: two membership transitions,
    // bytes preserved, zero storage traffic.
    let resize_rec = Arc::new(TraceRecorder::default());
    let before = Arc::new(Mutex::new(Vec::new()));
    let after = Arc::new(Mutex::new(Vec::new()));
    let (b2, a2) = (Arc::clone(&before), Arc::clone(&after));
    run_spmd_traced(NPROCS, CostModel::default(), resize_rec.clone(), |ctx| {
        let dist = Distribution::block_auto(&FAULTS.domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(initial);
        b2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
        let m0 = Membership::initial(ctx.ntasks());
        let m1 = shrink(ctx, &m0, NPROCS - 3, &mut [&mut u]).unwrap();
        let m2 = grow(ctx, &m1, ctx.ntasks(), &mut [&mut u]).unwrap();
        assert!(m2.epoch > m1.epoch && m1.epoch > m0.epoch);
        a2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
    })
    .expect("shrink/grow region");
    let sum_before: f64 = before.lock().iter().sum();
    let sum_after: f64 = after.lock().iter().sum();
    assert_eq!(sum_before, sum_after, "shrink/grow: bytes not preserved");
    let resizes = resize_rec.metrics().counter_total(names::RECOVER_RESIZES);
    assert_eq!(resizes, 2, "shrink/grow: resize counter");
    for (key, _) in resize_rec.metrics().counters() {
        assert!(
            !key.name.starts_with("piofs.") && !key.name.starts_with("stream."),
            "shrink/grow: storage traffic ({}) during an online resize",
            key.name
        );
    }
    println!("shrink/grow    : {resizes} resizes, bytes preserved, zero storage I/O");

    // Determinism: the localized protocol and the escalated full
    // restart must both replay bit-identically per seed.
    let tier_again = run_campaign(FaultPlan::seeded(seed), Mode::Tier);
    let (_, tier_again_rep) = tier_again.out.summary.attribution(&tier_again.bb);
    assert_eq!(
        tier_again.out.checksum.to_bits(),
        tier_run.out.checksum.to_bits(),
        "localized campaign is nondeterministic"
    );
    assert_eq!(
        tier_again_rep.render(),
        tier_rep.render(),
        "localized attribution is nondeterministic"
    );
    let full_again = run_campaign(FaultPlan::seeded(seed), Mode::Full);
    let (_, full_again_rep) = full_again.out.summary.attribution(&full_again.bb);
    assert_eq!(
        full_again.out.checksum.to_bits(),
        full_run.out.checksum.to_bits(),
        "full-restart campaign is nondeterministic"
    );
    assert_eq!(
        full_again_rep.recovery_cost().to_bits(),
        full_rep.recovery_cost().to_bits(),
        "full-restart cost drifted between identical runs"
    );

    result.metric("tier.recovery_cost_sim_s", tier_rep.recovery_cost());
    result.metric("tier.recovery_fraction", tier_rep.recovery_fraction());
    result.metric("tier.localized_sim_s", tier_localized);
    result.metric("tier.replica_bytes", trep.replica_bytes as f64);
    result.metric("tier.survivor_bytes", trep.survivor_bytes as f64);
    result.metric("tier.sections", trep.sections as f64);
    result.metric("piofs.recovery_cost_sim_s", piofs_rep.recovery_cost());
    result.metric("piofs.recovery_fraction", piofs_rep.recovery_fraction());
    result.metric("piofs.section_bytes", prep.piofs_bytes as f64);
    result.metric("piofs.state_bytes", state_bytes as f64);
    result.metric("full.recovery_cost_sim_s", full_rep.recovery_cost());
    result.metric("full.recovery_fraction", full_rep.recovery_fraction());
    result.metric("full.detect_sim_s", full_detect);
    result.metric("full.restore_sim_s", full_restore);
    result.metric("full.recompute_sim_s", full_recompute);
    result.metric("full.incarnations", full_run.out.summary.incarnations.len() as f64);
    result.metric("speedup.tier_vs_full", full_rep.recovery_cost() / tier_rep.recovery_cost());
    result.metric("speedup.piofs_vs_full", full_rep.recovery_cost() / piofs_rep.recovery_cost());
    result.metric("resize.count", resizes as f64);

    let mut timeline = String::new();
    for (what, rep) in [
        ("localized recovery, memory-tier replicas", &tier_rep),
        ("localized recovery, PIOFS section reads", &piofs_rep),
        ("classical full restart", &full_rep),
    ] {
        writeln!(timeline, "== {what} ==\n{}", rep.render()).unwrap();
    }
    writeln!(timeline, "== stitched events, full-restart campaign ==").unwrap();
    timeline.push_str(&render_events(&full_tl));
    println!(
        "\nAt the same FAULT_SEED, survivor-driven section restore beats the \
             full-application restart on attributed recovery cost through both \
             ladder rungs, resizes touch no storage, and every campaign replays \
             bit-identically."
    );
    GateOutput { result, artefacts: vec![(TIMELINE_FILE.into(), timeline)] }
}
