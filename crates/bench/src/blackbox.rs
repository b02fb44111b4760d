//! Flight-recorder bench: crash-surviving trace recovery and recovery-cost
//! attribution over a seeded kill campaign, as a coverage and determinism
//! gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- blackbox [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! Three campaigns over the campaign job ([`crate::campaign`]), each with a
//! [`Blackbox`] flight recorder riding the recorder fan-out:
//!
//! 1. **Clean** — no faults: one incarnation, recovered from its final
//!    seal, zero recovery cost.
//! 2. **Sweep** — every enumerated [`CrashPoint`], one armed crash each:
//!    the stitched timeline must cover *every* incarnation (each one's
//!    recovered event stream is non-empty — the kill salvage, the SOP
//!    seals riding committed checkpoints, or the final seal got it there),
//!    consecutive segments must abut bit-exactly (zero unattributed
//!    gaps), and the six attribution buckets must tile the stitched wall
//!    clock to floating-point association.
//! 3. **Deep dive** — fault weather, a mid-publish crash *and* a
//!    processor kill: at least three incarnations, a dropped-event audit
//!    from the token kill, a live `pulse.alert.recovery_budget` alert
//!    raised off the `blackbox.recovery_ratio` gauge, and the full
//!    recovery-cost table printed. Run twice: the rendered report and the
//!    recovery-cost total must be bit-identical (the per-`FAULT_SEED`
//!    determinism contract).
//!
//! In every campaign the last `blackbox.recovery_ratio` gauge the JSA
//! published must equal the report's recovery fraction bit for bit: both
//! come from one `RunSummary::attribution` call.
//!
//! With `--json DIR` the headline numbers land in `BENCH_blackbox.json`;
//! `--baseline PATH` compares against a committed baseline within
//! `--tolerance` (relative); `--bless` rewrites it. The recovery-cost
//! table and the stitched cross-incarnation event stream are the
//! `blackbox-recovery.txt` and `blackbox-stitched.tsv` artefacts (CI
//! uploads them).

use std::fmt::Write as _;
use std::sync::Arc;

use drms_blackbox::{Blackbox, BlackboxConfig};
use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan, PiofsFaults};
use drms_insight::{RecoveryReport, StitchedTimeline};
use drms_obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms_pulse::{builtin_rules, Pulse, PulseConfig, RuleThresholds};

use crate::campaign::{blocking_sweep, policy, Campaign, Fault, Launched, Rig, NPROCS};
use crate::gate::{no_gate_flags, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The recovery-report artefact (CI uploads both under these names).
pub const RECOVERY_FILE: &str = "blackbox-recovery.txt";
/// The stitched-timeline artefact.
pub const STITCHED_FILE: &str = "blackbox-stitched.tsv";
const NITER: i64 = 12;
const APP: &str = "bbbench";

/// One campaign run: the job, its launch, the trace, the flight recorder
/// and the chaos controller. All deterministic per plan.
struct Run {
    job: Campaign,
    out: Launched,
    rec: Arc<TraceRecorder>,
    bb: Arc<Blackbox>,
    ctl: Arc<ChaosCtl>,
}

/// A trace recorder and a flight recorder on one fan-out (plus `extra`,
/// when given), with the detection latency scaled to the workload: the job
/// spans a few simulated milliseconds, so the default 1 s gap would swamp
/// every other bucket of the attribution.
pub(crate) fn flight_sinks(
    extra: Option<Arc<dyn Recorder>>,
) -> (Arc<TraceRecorder>, Arc<Blackbox>, Arc<dyn Recorder>) {
    let rec = Arc::new(TraceRecorder::default());
    let bb = Arc::new(Blackbox::new(
        BlackboxConfig { detection_latency: 1e-4, ..BlackboxConfig::default() },
        NPROCS,
    ));
    let mut sinks: Vec<Arc<dyn Recorder>> = vec![rec.clone(), bb.clone()];
    sinks.extend(extra);
    (rec, bb, Arc::new(FanoutRecorder::new(sinks)))
}

/// Runs the campaign job under a fault plan with a flight recorder in the
/// fan-out. `kill` arms one processor failure once its iteration
/// is reached (the token-kill path, which — unlike a crash point — gets no
/// dying salvage). `extra` is fanned out next to the trace and the
/// blackbox when present (the pulse recorder).
fn run_campaign(plan: FaultPlan, kill: Option<Fault>, extra: Option<Arc<dyn Recorder>>) -> Run {
    let (rec, bb, sink) = flight_sinks(extra);
    let rig = Rig::new(APP, plan.seed, Some(sink));
    let ctl = ChaosCtl::new(plan);
    let jsa = rig.jsa(policy()).with_chaos(Arc::clone(&ctl)).with_blackbox(Arc::clone(&bb));
    let job = Campaign { faults: kill.into_iter().collect(), ..Campaign::new(APP, "ck/bb", NITER) };
    Run { out: job.launch(&rig, &jsa), job, rec, bb, ctl }
}

/// The gauge is the report: the `blackbox.recovery_ratio` gauge the JSA
/// last published equals the attribution's recovery fraction bit for bit.
pub(crate) fn check_gauge(
    gate: &mut Gate,
    rec: &TraceRecorder,
    report: &RecoveryReport,
    what: &str,
) {
    let gauge = rec.metrics().gauge(names::BLACKBOX_RECOVERY_RATIO, 0);
    let fraction = report.recovery_fraction();
    gate.check(
        gauge.map(f64::to_bits) == Some(fraction.to_bits()),
        format!("{what}: recovery-ratio gauge {gauge:?} is not the report's fraction {fraction}"),
    );
}

/// The coverage contract: the run recovered bitwise
/// ([`Launched::assert_recovered`]), the stitched timeline covers every
/// incarnation with a non-empty recovered event stream, consecutive
/// segments abut bit-exactly (zero unattributed gaps), and the attribution
/// buckets tile the stitched wall clock. Returns the timeline and the
/// attribution.
fn assert_covered(run: &Run, what: &str, repro: &str) -> (StitchedTimeline, RecoveryReport) {
    run.out.assert_recovered(&run.job, what, repro);
    let (tl, report) = run.out.summary.attribution(&run.bb);
    for (i, _) in run.out.summary.incarnations.iter().enumerate() {
        assert!(
            !run.bb.events_for(i as u64).is_empty(),
            "{what}: incarnation {i} left no recovered events"
        );
    }
    assert_eq!(tl.segments.len(), run.out.summary.incarnations.len(), "{what}: segment count");
    for k in 1..tl.segments.len() {
        assert_eq!(
            tl.segments[k].start,
            tl.segments[k - 1].end + tl.segments[k].detect,
            "{what}: unattributed gap before incarnation {k}"
        );
    }
    let budget = 1e-9 * report.wall.max(1.0);
    assert!(
        report.tiling_error() <= budget,
        "{what}: buckets do not tile the wall clock (error {})",
        report.tiling_error()
    );
    (tl, report)
}

/// Total recovered events across the archive.
fn recovered_events(run: &Run) -> usize {
    (0..run.out.summary.incarnations.len()).map(|i| run.bb.events_for(i as u64).len()).sum()
}

/// The deep-dive campaign: fault weather, a mid-publish crash, and a
/// processor token-kill, observed live by a pulse with a tight recovery
/// budget.
fn run_deep(seed: u64) -> (Run, drms_pulse::PulseReport) {
    let pulse = Pulse::new(PulseConfig {
        ntasks: NPROCS,
        window: 0.002,
        rules: builtin_rules(&RuleThresholds {
            // Any recovery spending at all breaches this budget — the
            // campaign is built to lose work, and the gauge-driven alert
            // proves the blackbox → pulse path works live.
            recovery_budget: 0.05,
            ..RuleThresholds::default()
        }),
    });
    let plan = FaultPlan {
        piofs: PiofsFaults { transient_prob: 0.25, torn: None },
        crash: Some((CrashPoint::CkptMidPublish, 1)),
        ..FaultPlan::seeded(seed)
    };
    let run = run_campaign(plan, Some(Fault::kill(7, 2)), Some(pulse.recorder()));
    pulse.set_sink(run.rec.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    (run, report)
}

/// One line per stitched event: time, rank, phase, kind, name.
pub(crate) fn render_events(tl: &StitchedTimeline) -> String {
    let mut out = String::new();
    for e in &tl.events {
        writeln!(out, "{:.9}\t{}\t{:?}\t{:?}\t{}", e.t, e.rank, e.phase, e.kind, e.name).unwrap();
    }
    out
}

/// The `blackbox` row of the gate table.
pub fn scenario(args: &GateArgs, gate: &mut Gate) -> GateOutput {
    no_gate_flags("blackbox", &args.rest);
    let seed = args.seed;
    let repro = crate::seed::bin_repro("blackbox", seed);
    println!(
        "Blackbox bench: flight-recorder recovery and cross-incarnation \
             attribution (seed {}, {} iterations, {} PEs)\n",
        seed, NITER, NPROCS
    );
    let mut result = BenchResult::new("blackbox");
    result.param("seed", seed);
    result.param("niter", NITER);
    result.param("nprocs", NPROCS);
    result.stamp_header(seed, NPROCS);

    // Campaign 1 — clean: one incarnation, recovered from its final
    // seal, zero recovery cost.
    let clean = run_campaign(FaultPlan::seeded(seed), None, None);
    let (_, clean_rep) = assert_covered(&clean, "clean", &repro);
    check_gauge(gate, &clean.rec, &clean_rep, "clean");
    assert_eq!(clean.out.summary.incarnations.len(), 1, "clean run reincarnated");
    assert_eq!(clean_rep.recovery_cost(), 0.0, "clean run billed recovery cost");
    let clean_events = recovered_events(&clean);
    println!(
        "clean: checksum {:.1}, {} recovered events, recovery fraction {:.3}",
        clean.out.checksum,
        clean_events,
        clean_rep.recovery_fraction()
    );
    result.metric("clean.recovered_events", clean_events as f64);
    result.metric("clean.commits", clean.rec.metrics().counter_total(names::COMMITS) as f64);

    // Campaign 2 — the crash-point sweep: full stitched coverage of
    // every incarnation at every enumerated kill site.
    println!("\ncrash-point sweep (stitched coverage at every kill site):");
    println!(
        "  {:<22} {:>6} {:>10} {:>10} {:>12} {:>10}",
        "crash point", "incs", "events", "salvages", "wall (sim s)", "recovery"
    );
    for (point, kill) in blocking_sweep() {
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(seed) };
        let r = run_campaign(plan, kill, None);
        let what = format!("sweep {point}");
        assert!(r.ctl.crash_fired(), "{what}: armed crash never fired");
        assert!(r.out.summary.incarnations.len() >= 2, "{what}: no reincarnation");
        let (_, rep) = assert_covered(&r, &what, &repro);
        check_gauge(gate, &r.rec, &rep, &what);
        let events = recovered_events(&r);
        let salvages = r.rec.metrics().counter_total(names::BLACKBOX_SALVAGES);
        assert!(salvages > 0, "{what}: dying region salvaged nothing");
        println!(
            "  {:<22} {:>6} {:>10} {:>10} {:>12.6} {:>9.1}%",
            point.as_str(),
            r.out.summary.incarnations.len(),
            events,
            salvages,
            rep.wall,
            rep.recovery_fraction() * 100.0
        );
        let key = |m: &str| format!("sweep.{point}.{m}");
        result.metric(&key("incarnations"), r.out.summary.incarnations.len() as f64);
        result.metric(&key("recovered_events"), events as f64);
        result.metric(&key("salvages"), salvages as f64);
    }

    // Campaign 3 — the deep dive: crash + token kill under weather,
    // live pulse on top, full attribution table out.
    println!("\ndeep dive (weather + mid-publish crash + processor kill):");
    let (deep, pulse_rep) = run_deep(seed);
    let (deep_tl, deep_rep) = assert_covered(&deep, "deep", &repro);
    check_gauge(gate, &deep.rec, &deep_rep, "deep");
    assert!(
        deep.out.summary.incarnations.len() >= 3,
        "deep: expected crash kill + token kill + completion, got {:?}",
        deep.out.summary.incarnations.len()
    );
    let dropped = deep.rec.metrics().counter_total(names::BLACKBOX_EVENTS_DROPPED);
    assert!(dropped > 0, "deep: token kill dropped no unsealed events");
    let budget_alerts =
        pulse_rep.alerts.iter().filter(|a| a.rule == names::ALERT_RECOVERY_BUDGET).count();
    assert!(budget_alerts > 0, "deep: recovery-budget alert never fired");
    print!("{}", deep_rep.render());

    // Determinism: the whole pipeline — capture, seal, salvage,
    // recovery, stitch, attribution — must be bit-reproducible.
    let (again, _) = run_deep(seed);
    let (_, again_rep) = again.out.summary.attribution(&again.bb);
    assert_eq!(again.out.checksum, deep.out.checksum, "deep campaign is nondeterministic");
    assert_eq!(again_rep.render(), deep_rep.render(), "recovery-cost report is nondeterministic");
    assert_eq!(
        again_rep.recovery_cost().to_bits(),
        deep_rep.recovery_cost().to_bits(),
        "recovery-cost total drifted between identical runs"
    );

    let total = |f: &dyn Fn(&drms_insight::IncarnationCost) -> f64| {
        deep_rep.rows.iter().map(f).sum::<f64>()
    };
    result.metric("deep.incarnations", deep.out.summary.incarnations.len() as f64);
    result.metric("deep.recovered_events", recovered_events(&deep) as f64);
    result.metric("deep.dropped_events", dropped as f64);
    result
        .metric("deep.salvages", deep.rec.metrics().counter_total(names::BLACKBOX_SALVAGES) as f64);
    result.metric(
        "deep.rings_recovered",
        deep.rec.metrics().counter_total(names::BLACKBOX_RINGS_RECOVERED) as f64,
    );
    result.metric("deep.commits", deep_rep.rows.iter().map(|r| r.commits).sum::<usize>() as f64);
    result.metric("deep.wall_sim_s", deep_rep.wall);
    result.metric("deep.detect_sim_s", total(&|r| r.detect));
    result.metric("deep.restore_sim_s", total(&|r| r.restore));
    result.metric("deep.recompute_sim_s", total(&|r| r.recompute));
    result.metric("deep.useful_sim_s", total(&|r| r.useful));
    result.metric("deep.lost_sim_s", total(&|r| r.lost));
    result.metric("deep.recovery_fraction", deep_rep.recovery_fraction());
    result.metric("deep.alert.recovery_budget", budget_alerts as f64);

    println!(
        "\nEvery incarnation of every kill campaign is covered by the \
             stitched timeline with zero unattributed gaps; the attribution \
             tiles the wall clock; the report is bit-reproducible per seed."
    );
    GateOutput {
        result,
        artefacts: vec![
            (RECOVERY_FILE.into(), deep_rep.render()),
            (STITCHED_FILE.into(), render_events(&deep_tl)),
        ],
    }
}
