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
//! 3. **Sweep** — every enumerated [`CrashPoint`](drms_chaos::CrashPoint), one armed crash each:
//!    the job must recover bitwise, never restart from a `.tmp` staging
//!    prefix, and the table below reports per point which checkpoint (and
//!    how many bytes of it) recovery replayed.
//!
//! Every campaign runs twice and must be bit-identical (the determinism
//! contract of the stateless fault hashing). With `--json DIR` the
//! headline numbers land in `BENCH_chaos.json`; `--baseline PATH`
//! compares against a committed baseline within `--tolerance` (relative);
//! `--bless` rewrites the baseline. The fault seed follows the repo-wide
//! `FAULT_SEED` convention (flag wins over environment).

use std::sync::Arc;

use drms_chaos::{ChaosCtl, FaultPlan, PiofsFaults};
use drms_obs::{names, TraceRecorder};
use drms_rtenv::JobOutcome;

use crate::campaign::{blocking_sweep, policy, Campaign, Fault, Launched, Rig, CKPT_EVERY, NPROCS};
use crate::gate::{no_gate_flags, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

const NITER: i64 = 12;
const APP: &str = "chaosbench";

/// One campaign run: the job, its launch, the chaos controller and the
/// trace every counter is mirrored into. All deterministic per plan.
struct Run {
    job: Campaign,
    out: Launched,
    ctl: Arc<ChaosCtl>,
    rec: Arc<TraceRecorder>,
}

/// Runs the campaign job under a fault plan through the JSA (the same
/// harness as `tests/chaos_campaign.rs`), with every counter mirrored into
/// a [`TraceRecorder`], optionally killing one processor (`kill`).
fn run_campaign(plan: FaultPlan, kill: Option<Fault>) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    let rig = Rig::new(APP, plan.seed, Some(rec.clone()));
    let ctl = ChaosCtl::new(plan);
    let jsa = rig.jsa(policy()).with_chaos(Arc::clone(&ctl));
    let job = Campaign { faults: kill.into_iter().collect(), ..Campaign::new(APP, "ck/cb", NITER) };
    Run { out: job.launch(&rig, &jsa), job, ctl, rec }
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
    let weather_plan = FaultPlan {
        piofs: PiofsFaults { transient_prob: 0.25, torn: None },
        ..FaultPlan::seeded(seed)
    };
    let weather = run_campaign(weather_plan.clone(), None);
    weather.out.assert_recovered(&weather.job, "weather", &repro);
    assert!(weather.ctl.retries() > 0, "weather plan injected no faults");
    let again = run_campaign(weather_plan, None);
    assert_eq!(again.out.checksum, weather.out.checksum, "weather run is nondeterministic");
    assert_eq!(again.ctl.retries(), weather.ctl.retries(), "retry traffic drifted");
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
    for (point, kill) in blocking_sweep() {
        let r =
            run_campaign(FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(seed) }, kill);
        let what = format!("sweep {point}");
        assert!(r.ctl.crash_fired(), "{what}: armed crash never fired");
        assert!(r.out.summary.incarnations.len() >= 2, "{what}: no reincarnation");
        r.out.assert_recovered(&r.job, &what, &repro);

        // Recovery source: what the incarnation after the first kill
        // restarted from. Bytes replayed = the committed checkpoint
        // bytes read back (0 for a fresh-start recovery, which replays
        // the whole computation instead).
        let killed = r
            .out
            .summary
            .incarnations
            .iter()
            .position(|i| i.outcome == JobOutcome::Killed)
            .unwrap_or_else(|| panic!("{what}: crash killed no incarnation"));
        let rec_inc = &r.out.summary.incarnations[killed + 1];
        let source = rec_inc.restart_from.as_deref().unwrap_or("(fresh)");
        let bytes = rec_inc
            .restart_from
            .as_deref()
            .map(|p| r.out.fs.total_bytes(&format!("{p}/")))
            .unwrap_or(0);
        let resumed = rec_inc
            .restart_from
            .as_deref()
            .and_then(|p| p.rsplit('/').next())
            .and_then(|s| s.parse::<i64>().ok())
            .map(|it| it + 1)
            .unwrap_or(1);
        println!(
            "  {:<22} {:>6} {:>14} {:>16} {:>13}",
            point.as_str(),
            r.out.summary.incarnations.len(),
            source,
            bytes,
            resumed
        );
        let key = |m: &str| format!("sweep.{point}.{m}");
        result.metric(&key("incarnations"), r.out.summary.incarnations.len() as f64);
        result.metric(&key("bytes_replayed"), bytes as f64);
        result.metric(&key("resumed_iter"), resumed as f64);
        result
            .metric(&key("crashes"), r.rec.metrics().counter_total(names::CRASHES_INJECTED) as f64);
    }

    println!(
        "\nEvery crash point recovered bitwise from its last committed \
             checkpoint; no restart ever read a `.tmp` staging prefix."
    );
    GateOutput { result, artefacts: Vec::new() }
}
