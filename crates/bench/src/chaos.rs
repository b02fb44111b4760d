//! Crash-consistency bench: the two-phase commit under the exhaustive
//! crash-point sweep, plus retry/backoff weather, as a regression gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- chaos [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! Three campaigns over the campaign job ([`crate::campaign`]):
//!
//! 1. **Clean** — no faults: the reference checksum and commit count.
//! 2. **Weather** — transient PIOFS errors, all retried under the backoff
//!    policy: the job must complete in one incarnation, bitwise-exact, and
//!    the retry counters land in the result. (There is no message weather:
//!    checkpoint traffic crosses the collectives, not point-to-point
//!    sends.)
//! 3. **Sweep** — every enumerated [`CrashPoint`], one armed crash each:
//!    the job must recover bitwise, never restart from a `.tmp` staging
//!    prefix, and the table below reports per point which checkpoint (and
//!    how many bytes of it) recovery replayed.
//!
//! The weather campaign runs twice and must be bit-identical (the
//! determinism contract of the stateless fault hashing). The weather check
//! ([`weather`]) and the sweep ([`crash_sweep`]) are also what
//! `tests/chaos_campaign.rs` runs, at its own seeds. With `--json DIR` the
//! headline numbers land in `BENCH_chaos.json`; `--baseline PATH`
//! compares against a committed baseline within `--tolerance` (relative);
//! `--bless` rewrites the baseline. The fault seed follows the repo-wide
//! `FAULT_SEED` convention (flag wins over environment).

use std::sync::Arc;

use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan, PiofsFaults};
use drms_obs::{names, TraceRecorder};
use drms_rtenv::JobOutcome;

use crate::campaign::{blocking_sweep, policy, Campaign, Fault, Launched, Rig, CKPT_EVERY, NPROCS};
use crate::gate::{no_gate_flags, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

const NITER: i64 = 12;
/// The job's application name (binary, manifests, checkpoint discovery).
pub const APP: &str = "chaosbench";

/// One campaign run: the job, its launch, the chaos controller and the
/// trace every counter is mirrored into. All deterministic per plan.
pub struct Run {
    /// The job.
    pub job: Campaign,
    /// Its launch.
    pub out: Launched,
    /// The chaos controller the JSA ran under.
    pub ctl: Arc<ChaosCtl>,
    /// The trace every counter is mirrored into.
    pub rec: Arc<TraceRecorder>,
}

/// Runs the campaign job under a fault plan through the JSA, with every
/// counter mirrored into a [`TraceRecorder`], optionally killing one
/// processor (`kill`). An injected crash surfaces as a kill from whichever
/// collective the region died inside, and the JSA reincarnates the job
/// from the newest *committed* checkpoint.
pub fn run_campaign(plan: FaultPlan, kill: Option<Fault>) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    let rig = Rig::new(APP, plan.seed, Some(rec.clone()));
    let ctl = ChaosCtl::new(plan);
    let jsa = rig.jsa(policy()).with_chaos(Arc::clone(&ctl));
    let job = Campaign { faults: kill.into_iter().collect(), ..Campaign::new(APP, "ck/cb", NITER) };
    Run { out: job.launch(&rig, &jsa), job, ctl, rec }
}

/// The weather check at `seed`: transient PIOFS errors, all retried under
/// the backoff policy. The run recovers bitwise ([`Launched::assert_recovered`])
/// with real retry traffic, and replaying the plan reproduces its
/// checksum, summary and retry count. Returns the first run.
pub fn weather(seed: u64, repro: &str) -> Run {
    let plan = FaultPlan {
        piofs: PiofsFaults { transient_prob: 0.25, torn: None },
        ..FaultPlan::seeded(seed)
    };
    let what = format!("weather seed {seed}");
    let run = run_campaign(plan.clone(), None);
    run.out.assert_recovered(&run.job, &what, repro);
    assert!(run.ctl.retries() > 0, "{what}: no retries recorded\nreproduce with: {repro}");
    let again = run_campaign(plan, None);
    let same = again.out.checksum == run.out.checksum
        && again.out.summary == run.out.summary
        && again.ctl.retries() == run.ctl.retries();
    assert!(same, "{what}: a replay of the plan drifted\nreproduce with: {repro}");
    run
}

/// What one crash point of [`crash_sweep`] recovered from.
pub struct SweepRow {
    /// The armed crash point.
    pub point: CrashPoint,
    /// Incarnations the run took.
    pub incarnations: usize,
    /// The prefix the incarnation after the first kill restarted from,
    /// `(fresh)` for a fresh start.
    pub source: String,
    /// Committed checkpoint bytes that restart read back (0 for a fresh
    /// start, which replays the whole computation instead).
    pub bytes: u64,
    /// The first iteration that restart computed.
    pub resumed: i64,
    /// Crashes the chaos controller injected.
    pub crashes: u64,
}

/// The exhaustive crash-point sweep at `seed`: every point of
/// [`blocking_sweep`], one armed crash each. Per point the crash fired, the
/// job reincarnated, recovered bitwise ([`Launched::assert_recovered`]) and
/// a killed incarnation exists.
pub fn crash_sweep(seed: u64, repro: &str) -> Vec<SweepRow> {
    let sweep = blocking_sweep().map(|(point, kill)| {
        let r =
            run_campaign(FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(seed) }, kill);
        let what = format!("sweep {point}");
        let incs = &r.out.summary.incarnations;
        assert!(r.ctl.crash_fired(), "{what}: armed crash never fired\nreproduce with: {repro}");
        assert!(incs.len() >= 2, "{what}: no reincarnation\nreproduce with: {repro}");
        r.out.assert_recovered(&r.job, &what, repro);
        let killed =
            incs.iter().position(|i| i.outcome == JobOutcome::Killed).unwrap_or_else(|| {
                panic!("{what}: crash killed no incarnation\nreproduce with: {repro}")
            });
        let from = incs[killed + 1].restart_from.as_deref();
        SweepRow {
            point,
            incarnations: incs.len(),
            source: from.unwrap_or("(fresh)").to_string(),
            bytes: from.map_or(0, |p| r.out.fs.total_bytes(&format!("{p}/"))),
            resumed: from
                .and_then(|p| p.rsplit('/').next())
                .and_then(|s| s.parse::<i64>().ok())
                .map_or(1, |it| it + 1),
            crashes: r.rec.metrics().counter_total(names::CRASHES_INJECTED),
        }
    });
    sweep.collect()
}

/// The `chaos` row of the gate table.
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    no_gate_flags("chaos", &args.rest);
    let seed = args.seed;
    let repro = crate::seed::bin_repro("chaos", seed);
    println!(
        "Crash-consistency bench: two-phase commit under the exhaustive \
             crash-point sweep (seed {}, {} iterations, {} PEs)\n",
        seed, NITER, NPROCS
    );
    let mut result = BenchResult::new("chaos");
    result.param("seed", seed);
    result.param("niter", NITER);
    result.param("nprocs", NPROCS);
    result.stamp_header(seed, NPROCS);

    // Campaign 1 — clean reference.
    let clean = run_campaign(FaultPlan::seeded(seed), None);
    clean.out.assert_recovered(&clean.job, "clean", &repro);
    assert_eq!(clean.out.summary.incarnations.len(), 1, "clean run reincarnated");
    let commits = clean.rec.metrics().counter_total(names::COMMITS);
    assert_eq!(commits as i64, NITER / CKPT_EVERY, "unexpected commit count");
    println!("clean: checksum {:.1}, {} commits", clean.out.checksum, commits);
    result.metric("clean.commits", commits as f64);

    // Campaign 2 — transient weather; must complete in one incarnation
    // with real retry traffic, twice identically.
    let weather = weather(seed, &repro);
    println!(
        "weather: {} retries, {} giveups, {} incarnation(s)",
        weather.ctl.retries(),
        weather.ctl.giveups(),
        weather.out.summary.incarnations.len()
    );
    result.metric("weather.retries", weather.ctl.retries() as f64);
    result.metric("weather.giveups", weather.ctl.giveups() as f64);
    result.metric(
        "weather.io_retries",
        weather.rec.metrics().counter_total(names::IO_RETRIES) as f64,
    );
    result.metric("weather.incarnations", weather.out.summary.incarnations.len() as f64);

    // Campaign 3 — the exhaustive crash-point sweep.
    println!("\ncrash-point sweep (every enumerated point, one armed crash each):");
    println!(
        "  {:<22} {:>6} {:>14} {:>16} {:>13}",
        "crash point", "incs", "recovered from", "bytes replayed", "resumed iter"
    );
    for row in crash_sweep(seed, &repro) {
        println!(
            "  {:<22} {:>6} {:>14} {:>16} {:>13}",
            row.point.as_str(),
            row.incarnations,
            row.source,
            row.bytes,
            row.resumed
        );
        let key = |m: &str| format!("sweep.{}.{m}", row.point);
        result.metric(&key("incarnations"), row.incarnations as f64);
        result.metric(&key("bytes_replayed"), row.bytes as f64);
        result.metric(&key("resumed_iter"), row.resumed as f64);
        result.metric(&key("crashes"), row.crashes as f64);
    }

    println!(
        "\nEvery crash point recovered bitwise from its last committed \
             checkpoint; no restart ever read a `.tmp` staging prefix."
    );
    GateOutput { result, artefacts: Vec::new() }
}
