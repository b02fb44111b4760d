//! Localized-recovery bench: survivor-driven section restore versus the
//! classical full-application restart, as a cost and determinism gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin recover -- [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless] \
//!     [--timeline-out PATH]
//! ```
//!
//! Four campaigns over the iterative checkpointing job, all at the same
//! `FAULT_SEED`, each with a [`Blackbox`] flight recorder riding the
//! recorder fan-out so the recovery cost lands in the attribution:
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
//! per-`FAULT_SEED` determinism contract).
//!
//! With `--json DIR` the headline numbers land in `BENCH_recover.json`;
//! `--baseline PATH` compares against a committed baseline within
//! `--tolerance` (relative); `--bless` rewrites it. `--timeline-out`
//! writes the recovery-timeline artifact CI uploads: all three attribution
//! tables plus the stitched event stream of the full-restart campaign.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms_bench::gate::{baseline_gate, run_gated};
use drms_bench::json::BenchResult;
use drms_blackbox::{Blackbox, BlackboxConfig};
use drms_chaos::{ChaosCtl, FaultPlan};
use drms_core::segment::DataSegment;
use drms_core::{Drms, DrmsConfig};
use drms_darray::{DistArray, Distribution};
use drms_insight::{stitch, IncarnationInput, RecoveryReport, StitchOptions, StitchedTimeline};
use drms_memtier::{store_checkpoint, MemTier};
use drms_msg::{run_spmd_traced, CostModel};
use drms_obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig};
use drms_recover::{grow, recover, retain, shrink, Membership, RecoverReport, StreamSource};
use drms_rtenv::{
    EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ProcessorState, ResourceCoordinator, RunSummary,
};
use drms_slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 12;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;
const APP: &str = "recbench";
const DEFAULT_SEED: u64 = 42;
/// The iteration whose top-of-loop suffers the loss (both drills).
const RECOVER_AT: i64 = 5;
/// The node (== rank under identity placement) whose sections are lost.
const VICTIM: usize = 2;

struct Opts {
    seed: u64,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    bless: bool,
    timeline_out: Option<PathBuf>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: drms_bench::seed::fault_seed_or(DEFAULT_SEED),
        json: None,
        baseline: None,
        tolerance: 0.05,
        bless: false,
        timeline_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--fault-seed" => {
                let v = value("--fault-seed");
                opts.seed = v.parse().unwrap_or_else(|_| usage(&format!("bad seed {v:?}")));
            }
            "--json" => opts.json = Some(PathBuf::from(value("--json"))),
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline"))),
            "--tolerance" => {
                let v = value("--tolerance");
                opts.tolerance = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad tolerance {v:?}")));
            }
            "--bless" => opts.bless = true,
            "--timeline-out" => opts.timeline_out = Some(PathBuf::from(value("--timeline-out"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    opts
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: recover [--fault-seed N] [--json DIR] [--baseline PATH]\n\
         \x20              [--tolerance REL] [--bless] [--timeline-out PATH]"
    );
    std::process::exit(2);
}

fn domain() -> Slice {
    Slice::boxed(&[(1, 18), (1, 14)])
}

/// Checksum of the final state of an uninterrupted run.
fn reference() -> f64 {
    let mut s = 0.0;
    domain().points(Order::ColumnMajor).for_each(|p| {
        s += (p[0] * 13 + p[1] * 3) as f64 + NITER as f64 * 1.5;
    });
    s
}

/// How a campaign survives the loss at `RECOVER_AT`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Localized recovery served by memory-tier replicas.
    Tier,
    /// Localized recovery served by manifest-ranged PIOFS section reads.
    Piofs,
    /// The classical path: a processor kill and a verified full restart.
    Full,
}

/// One campaign run's observables, all deterministic per plan.
struct Run {
    checksum: f64,
    summary: RunSummary,
    rec: Arc<TraceRecorder>,
    bb: Arc<Blackbox>,
    /// Rank 0's protocol report for the localized drills.
    report: Option<RecoverReport>,
}

/// Runs the iterative checkpointing job with the loss drill selected by
/// `mode`, a flight recorder riding the recorder fan-out throughout. The
/// localized modes retain sections at each commit and recover in place at
/// `RECOVER_AT`; the full mode loses a processor there and pays the
/// classical kill → detect → restore → recompute sequence instead.
fn run_campaign(plan: FaultPlan, mode: Mode) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    // Detection latency scaled to the workload, as in the blackbox bench:
    // the job spans a few simulated milliseconds.
    let bb = Arc::new(Blackbox::new(
        BlackboxConfig { detection_latency: 1e-4, ..BlackboxConfig::default() },
        NPROCS,
    ));
    let sinks: Vec<Arc<dyn Recorder>> = vec![rec.clone(), bb.clone()];
    let sink: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(sinks));
    let log = EventLog::with_recorder(sink.clone());
    let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), plan.seed);
    fs.set_recorder(sink);
    Drms::install_binary(&fs, &DrmsConfig::new(APP));
    let ctl = ChaosCtl::new(plan);
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log,
        CostModel::default(),
        JsaPolicy {
            localized_recovery: mode != Mode::Full,
            repair_when_starved: true,
            ..Default::default()
        },
    )
    .with_chaos(Arc::clone(&ctl))
    .with_blackbox(Arc::clone(&bb));

    let tier = Arc::new(MemTier::new(2));
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let rep_slot = Arc::new(Mutex::new(None));
    let rep_slot2 = Arc::clone(&rep_slot);
    let injected = Arc::new(AtomicUsize::new(0));
    let rc2 = Arc::clone(&rc);

    let job = JobSpec::new(APP, (1, NPROCS), move |ctx, env| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new(APP), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        // Localized drills run only in the first incarnation; an escalated
        // incarnation would be the full-restart fallback. Derived from the
        // restart state so the collective branch is rank-consistent.
        let mut may_recover = restart.is_none();
        match restart {
            None => u.fill_assigned(|p| (p[0] * 13 + p[1] * 3) as f64),
            Some(info) => {
                seg = info.segment;
                start_iter = seg.control("iter").unwrap() + 1;
            }
        }
        let mut membership = Membership::initial(ctx.ntasks());
        let mut retained = None;
        let mut iter = start_iter;
        while iter <= NITER {
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }
            if env.localized && iter == RECOVER_AT && may_recover {
                may_recover = false;
                if let Some((ret, sop)) = retained.take() {
                    if mode == Mode::Tier {
                        if ctx.rank() == 0 {
                            tier.fail_node(VICTIM);
                        }
                        ctx.barrier();
                    }
                    let src: Option<&MemTier> = if mode == Mode::Tier { Some(&tier) } else { None };
                    let got = recover(
                        ctx,
                        &env.fs,
                        src,
                        &ret,
                        &membership,
                        &[VICTIM],
                        &mut [&mut u],
                        ctx.ntasks(),
                    );
                    match got {
                        Ok((next, report)) => {
                            if ctx.rank() == 0 {
                                *rep_slot2.lock() = Some(report);
                            }
                            membership = next;
                            seg.set_control("iter", sop);
                            iter = sop + 1;
                            continue;
                        }
                        Err(e) => return JobOutcome::from_err(e),
                    }
                }
            }
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 1.5).unwrap();
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                let prefix = format!("ck/rb/{iter}");
                let failed = match mode {
                    // The memory-tier drill replicates into the tier; the
                    // durable modes commit to PIOFS.
                    Mode::Tier => store_checkpoint(ctx, &tier, &prefix, &mut drms, &seg, &[&u])
                        .err()
                        .map(JobOutcome::from_err),
                    Mode::Piofs | Mode::Full => drms
                        .reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u])
                        .err()
                        .map(JobOutcome::from_err),
                };
                if let Some(outcome) = failed {
                    return outcome;
                }
                if env.localized {
                    retained = Some((retain(ctx, &prefix, iter as u64, &[&u]), iter));
                }
            }
            if mode == Mode::Full
                && ctx.rank() == 0
                && iter >= RECOVER_AT
                && injected.swap(1, Ordering::SeqCst) == 0
                && rc2.state_of(VICTIM) != ProcessorState::Failed
            {
                rc2.fail_processor(VICTIM);
            }
            iter += 1;
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        out2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
        JobOutcome::Completed
    });

    let summary = jsa.run_job(&job);
    let checksum: f64 = out.lock().iter().sum();
    let report = rep_slot.lock().take();
    Run { checksum, summary, rec, bb, report }
}

/// Stitched timeline and recovery-cost attribution, as in the blackbox
/// bench: the archive's recovered events plus the JSA's incarnation fates.
fn attribution(run: &Run) -> (StitchedTimeline, RecoveryReport) {
    let inputs: Vec<IncarnationInput> = run
        .summary
        .incarnations
        .iter()
        .enumerate()
        .map(|(i, inc)| IncarnationInput {
            incarnation: i as u64,
            events: run.bb.events_for(i as u64),
            killed: inc.outcome == JobOutcome::Killed,
            restarted: inc.restart_from.is_some(),
        })
        .collect();
    let tl = stitch(&inputs, &StitchOptions { detection_latency: run.bb.cfg().detection_latency });
    let report = RecoveryReport::from_timeline(&tl);
    (tl, report)
}

/// Shared contract: the run finished bitwise-correct and its attribution
/// buckets tile the stitched wall clock.
fn assert_sound(run: &Run, report: &RecoveryReport, what: &str) {
    assert!(run.summary.completed, "{what}: job did not complete: {:?}", run.summary);
    assert_eq!(run.checksum, reference(), "{what}: final state diverged");
    let budget = 1e-9 * report.wall.max(1.0);
    assert!(
        report.tiling_error() <= budget,
        "{what}: buckets do not tile the wall clock (error {})",
        report.tiling_error()
    );
}

fn bucket_total(rep: &RecoveryReport, f: impl Fn(&drms_insight::IncarnationCost) -> f64) -> f64 {
    rep.rows.iter().map(f).sum()
}

fn main() {
    let opts = parse_args();
    let repro_line = drms_bench::seed::bin_repro("recover", opts.seed);
    run_gated("recover", &repro_line, || {
        println!(
            "Localized-recovery bench: survivor-driven section restore vs full \
             restart (seed {}, {} iterations, {} PEs, loss at iteration {})\n",
            opts.seed, NITER, NPROCS, RECOVER_AT
        );
        let mut result = BenchResult::new("recover");
        result.param("seed", opts.seed);
        result.param("niter", NITER);
        result.param("nprocs", NPROCS);
        result.param("recover_at", RECOVER_AT);
        result.stamp_header(opts.seed, NPROCS);
        let state_bytes =
            domain().extents().iter().product::<usize>() as u64 * std::mem::size_of::<f64>() as u64;

        // Campaign 1 — localized recovery off memory-tier replicas: one
        // incarnation, zero PIOFS restore bytes, only `localized` billed.
        let tier_run = run_campaign(FaultPlan::seeded(opts.seed), Mode::Tier);
        let (_, tier_rep) = attribution(&tier_run);
        assert_sound(&tier_run, &tier_rep, "localized-tier");
        assert_eq!(
            tier_run.summary.incarnations.len(),
            1,
            "localized-tier: a localized recovery must not cost an incarnation"
        );
        let trep = tier_run.report.as_ref().expect("localized-tier: protocol report missing");
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
        let piofs_run = run_campaign(FaultPlan::seeded(opts.seed), Mode::Piofs);
        let (_, piofs_rep) = attribution(&piofs_run);
        assert_sound(&piofs_run, &piofs_rep, "localized-piofs");
        assert_eq!(piofs_run.summary.incarnations.len(), 1, "localized-piofs: reincarnated");
        let prep = piofs_run.report.as_ref().expect("localized-piofs: protocol report missing");
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
        let full_run = run_campaign(FaultPlan::seeded(opts.seed), Mode::Full);
        let (full_tl, full_rep) = attribution(&full_run);
        assert_sound(&full_run, &full_rep, "full-restart");
        assert!(
            full_run.summary.incarnations.len() >= 2,
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
            full_run.summary.incarnations.len()
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
            let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
            let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            u.fill_assigned(|p| (p[0] * 13 + p[1] * 3) as f64);
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
        let tier_again = run_campaign(FaultPlan::seeded(opts.seed), Mode::Tier);
        let (_, tier_again_rep) = attribution(&tier_again);
        assert_eq!(
            tier_again.checksum.to_bits(),
            tier_run.checksum.to_bits(),
            "localized campaign is nondeterministic"
        );
        assert_eq!(
            tier_again_rep.render(),
            tier_rep.render(),
            "localized attribution is nondeterministic"
        );
        let full_again = run_campaign(FaultPlan::seeded(opts.seed), Mode::Full);
        let (_, full_again_rep) = attribution(&full_again);
        assert_eq!(
            full_again.checksum.to_bits(),
            full_run.checksum.to_bits(),
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
        result.metric("full.incarnations", full_run.summary.incarnations.len() as f64);
        result.metric("speedup.tier_vs_full", full_rep.recovery_cost() / tier_rep.recovery_cost());
        result
            .metric("speedup.piofs_vs_full", full_rep.recovery_cost() / piofs_rep.recovery_cost());
        result.metric("resize.count", resizes as f64);

        if let Some(path) = &opts.timeline_out {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).expect("create timeline-out dir");
            }
            let mut f = std::fs::File::create(path).expect("create timeline file");
            for (what, rep) in [
                ("localized recovery, memory-tier replicas", &tier_rep),
                ("localized recovery, PIOFS section reads", &piofs_rep),
                ("classical full restart", &full_rep),
            ] {
                writeln!(f, "== {what} ==").expect("write timeline header");
                f.write_all(rep.render().as_bytes()).expect("write attribution table");
                writeln!(f).expect("write timeline separator");
            }
            writeln!(f, "== stitched events, full-restart campaign ==")
                .expect("write timeline header");
            for e in &full_tl.events {
                writeln!(f, "{:.9}\t{}\t{:?}\t{:?}\t{}", e.t, e.rank, e.phase, e.kind, e.name)
                    .expect("write stitched trace line");
            }
            println!("wrote recovery timeline to {}", path.display());
        }
        if let Some(dir) = &opts.json {
            let path = result.write_to(dir).expect("write BENCH_recover.json");
            println!("wrote {}", path.display());
        }
        if let Some(baseline) = &opts.baseline {
            baseline_gate(&result, baseline, opts.tolerance, opts.bless, &repro_line);
        }
        println!(
            "\nAt the same FAULT_SEED, survivor-driven section restore beats the \
             full-application restart on attributed recovery cost through both \
             ladder rungs, resizes touch no storage, and every campaign replays \
             bit-identically."
        );
    });
}
