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
//! come from one `RunSummary::attribution` call. The run, the sweep, the
//! deep dive and the coverage contract ([`assert_covered`]) are what
//! `tests/blackbox_campaign.rs` runs too, at its own seeds and with
//! 256-event rings (the row keeps the default capacity).
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
use drms_pulse::{builtin_rules, Pulse, PulseConfig, PulseReport, RuleThresholds};
use drms_rtenv::JsaPolicy;

use crate::campaign::{blocking_sweep, policy, Campaign, Fault, Launched, Rig, NPROCS};
use crate::gate::{no_gate_flags, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;
use crate::recover::assert_sound;

/// The recovery-report artefact (CI uploads both under these names).
pub const RECOVERY_FILE: &str = "blackbox-recovery.txt";
/// The stitched-timeline artefact.
pub const STITCHED_FILE: &str = "blackbox-stitched.tsv";
const NITER: i64 = 12;
const APP: &str = "bbbench";

/// One flight-recorded campaign run: the job, its launch, the trace, the
/// flight recorder and the chaos controller. All deterministic per plan.
pub struct Run {
    /// The job.
    pub job: Campaign,
    /// Its launch.
    pub out: Launched,
    /// The trace every counter and gauge is mirrored into.
    pub rec: Arc<TraceRecorder>,
    /// The flight recorder the JSA drove.
    pub bb: Arc<Blackbox>,
    /// The chaos controller the JSA ran under.
    pub ctl: Arc<ChaosCtl>,
}

/// Launches `job` under a fault plan and `policy`, with a trace and a
/// flight recorder of `capacity`-event rings on one fan-out (plus `extra`,
/// when given). The detection latency is scaled to the workload: the job
/// spans a few simulated milliseconds, so the default 1 s gap would swamp
/// every other bucket of the attribution.
pub(crate) fn launch(
    job: Campaign,
    plan: FaultPlan,
    policy: JsaPolicy,
    extra: Option<Arc<dyn Recorder>>,
    capacity: usize,
) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    let bb = Arc::new(Blackbox::new(BlackboxConfig { capacity, detection_latency: 1e-4 }, NPROCS));
    let mut sinks: Vec<Arc<dyn Recorder>> = vec![rec.clone(), bb.clone()];
    sinks.extend(extra);
    let rig = Rig::new(job.app, plan.seed, Some(Arc::new(FanoutRecorder::new(sinks))));
    let ctl = ChaosCtl::new(plan);
    let jsa = rig.jsa(policy).with_chaos(Arc::clone(&ctl)).with_blackbox(Arc::clone(&bb));
    Run { out: job.launch(&rig, &jsa), job, rec, bb, ctl }
}

/// Runs the campaign job under a fault plan with a flight recorder of
/// `capacity`-event rings in the fan-out. `kill` arms one processor
/// failure once its iteration is reached (the token-kill path, which —
/// unlike a crash point — gets no dying salvage). `extra` is fanned out
/// next to the trace and the blackbox when present (the pulse recorder).
pub fn run_campaign(
    plan: FaultPlan,
    kill: Option<Fault>,
    extra: Option<Arc<dyn Recorder>>,
    capacity: usize,
) -> Run {
    let job = Campaign { faults: kill.into_iter().collect(), ..Campaign::new(APP, "ck/bb", NITER) };
    launch(job, plan, policy(), extra, capacity)
}

/// The coverage contract of every flight-recorded campaign: the run
/// recovered bitwise and its attribution buckets tile the stitched wall
/// clock ([`assert_sound`]); the stitched timeline has one segment per
/// incarnation and a non-empty recovered event stream for each;
/// consecutive segments abut bit-exactly (zero unattributed gaps); and
/// the `blackbox.recovery_ratio` gauge the JSA last published is the
/// attribution's recovery fraction, bit for bit. Returns the timeline and
/// the attribution.
pub fn assert_covered(run: &Run, what: &str, repro: &str) -> (StitchedTimeline, RecoveryReport) {
    let (tl, report) = assert_sound(run, what, repro);
    let incarnations = run.out.summary.incarnations.len();
    assert_eq!(
        tl.segments.len(),
        incarnations,
        "{what}: stitched segment count diverged from the incarnation record\n\
         reproduce with: {repro}"
    );
    for i in 0..incarnations {
        assert!(
            !run.bb.events_for(i as u64).is_empty(),
            "{what}: incarnation {i} recovered no events — a silent gap in the flight \
             record\nreproduce with: {repro}"
        );
    }
    for k in 1..tl.segments.len() {
        assert_eq!(
            tl.segments[k].start.to_bits(),
            (tl.segments[k - 1].end + tl.segments[k].detect).to_bits(),
            "{what}: segments {} and {k} do not abut — unattributed gap\nreproduce with: {repro}",
            k - 1
        );
    }
    let gauge = run.rec.metrics().gauge(names::BLACKBOX_RECOVERY_RATIO, 0);
    let fraction = report.recovery_fraction();
    assert!(
        gauge.map(f64::to_bits) == Some(fraction.to_bits()),
        "{what}: recovery-ratio gauge {gauge:?} is not the report's fraction {fraction}\n\
         reproduce with: {repro}"
    );
    (tl, report)
}

/// Total recovered events across the archive.
fn recovered_events(run: &Run) -> usize {
    (0..run.out.summary.incarnations.len()).map(|i| run.bb.events_for(i as u64).len()).sum()
}

/// What one crash point of [`crash_sweep`] left in the flight record.
pub struct SweepRow {
    /// The armed crash point.
    pub point: CrashPoint,
    /// Incarnations the run took.
    pub incarnations: usize,
    /// Events recovered across the archive.
    pub events: usize,
    /// Rings salvaged by dying regions.
    pub salvages: u64,
    /// The attribution: wall clock and recovery fraction.
    pub report: RecoveryReport,
}

/// The crash-point sweep at `seed` with `capacity`-event rings: every
/// point of [`blocking_sweep`], one armed crash each. Per point the crash
/// fired, the job reincarnated, the run is covered ([`assert_covered`])
/// and the dying region salvaged its ring.
pub fn crash_sweep(seed: u64, capacity: usize, repro: &str) -> Vec<SweepRow> {
    let sweep = blocking_sweep().map(|(point, kill)| {
        let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(seed) };
        let r = run_campaign(plan, kill, None, capacity);
        let what = format!("sweep {point}");
        let incarnations = r.out.summary.incarnations.len();
        assert!(r.ctl.crash_fired(), "{what}: armed crash never fired\nreproduce with: {repro}");
        assert!(incarnations >= 2, "{what}: no reincarnation\nreproduce with: {repro}");
        let (_, report) = assert_covered(&r, &what, repro);
        let salvages = r.rec.metrics().counter_total(names::BLACKBOX_SALVAGES);
        assert!(salvages > 0, "{what}: dying region salvaged nothing\nreproduce with: {repro}");
        SweepRow { point, incarnations, events: recovered_events(&r), salvages, report }
    });
    sweep.collect()
}

/// What [`deep_dive`] leaves behind: the first of its two runs, the live
/// pulse's report, and the run's stitched timeline and attribution.
pub struct Deep {
    /// The run.
    pub run: Run,
    /// The live pulse's report.
    pub pulse: PulseReport,
    /// The stitched timeline.
    pub tl: StitchedTimeline,
    /// The attribution.
    pub report: RecoveryReport,
}

/// The deep-dive campaign: fault weather, a mid-publish crash, and a
/// processor token-kill, observed live by a pulse with a tight recovery
/// budget.
fn run_deep(seed: u64, capacity: usize) -> (Run, PulseReport) {
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
    let run = run_campaign(plan, Some(Fault::kill(7, 2)), Some(pulse.recorder()), capacity);
    pulse.set_sink(run.rec.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    (run, report)
}

/// The deep dive at `seed` with `capacity`-event rings, run twice. The
/// first run is covered ([`assert_covered`]), took at least three
/// incarnations (crash kill, token kill, completion), audited the token
/// kill's dropped tail and raised the live recovery-budget alert. The
/// second replays it bit for bit: checksum, run summary, stitched event
/// stream, rendered attribution and recovery-cost total.
pub fn deep_dive(seed: u64, capacity: usize, repro: &str) -> Deep {
    let (run, pulse) = run_deep(seed, capacity);
    let (tl, report) = assert_covered(&run, "deep", repro);
    let fail = |why: &str| panic!("deep: {why}\nreproduce with: {repro}");
    if run.out.summary.incarnations.len() < 3 {
        fail("expected crash kill + token kill + completion");
    }
    if run.rec.metrics().counter_total(names::BLACKBOX_EVENTS_DROPPED) == 0 {
        fail("token kill dropped no unsealed events");
    }
    if !pulse.alerts.iter().any(|a| a.rule == names::ALERT_RECOVERY_BUDGET) {
        fail("recovery-budget alert never fired");
    }
    // Determinism: the whole pipeline — capture, seal, salvage,
    // recovery, stitch, attribution — must be bit-reproducible.
    let (again, _) = run_deep(seed, capacity);
    let (again_tl, again_rep) = again.out.summary.attribution(&again.bb);
    if again.out.checksum != run.out.checksum || again.out.summary != run.out.summary {
        fail("the campaign is nondeterministic");
    }
    if render_events(&again_tl) != render_events(&tl) {
        fail("the stitched event stream is nondeterministic");
    }
    if again_rep.render() != report.render()
        || again_rep.recovery_cost().to_bits() != report.recovery_cost().to_bits()
    {
        fail("the recovery-cost report drifted between identical runs");
    }
    Deep { run, pulse, tl, report }
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
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
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

    let capacity = BlackboxConfig::default().capacity;

    // Campaign 1 — clean: one incarnation, recovered from its final
    // seal, zero recovery cost.
    let clean = run_campaign(FaultPlan::seeded(seed), None, None, capacity);
    let (_, clean_rep) = assert_covered(&clean, "clean", &repro);
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
    for row in crash_sweep(seed, capacity, &repro) {
        println!(
            "  {:<22} {:>6} {:>10} {:>10} {:>12.6} {:>9.1}%",
            row.point.as_str(),
            row.incarnations,
            row.events,
            row.salvages,
            row.report.wall,
            row.report.recovery_fraction() * 100.0
        );
        let key = |m: &str| format!("sweep.{}.{m}", row.point);
        result.metric(&key("incarnations"), row.incarnations as f64);
        result.metric(&key("recovered_events"), row.events as f64);
        result.metric(&key("salvages"), row.salvages as f64);
    }

    // Campaign 3 — the deep dive: crash + token kill under weather,
    // live pulse on top, full attribution table out.
    println!("\ndeep dive (weather + mid-publish crash + processor kill):");
    let Deep { run: deep, pulse: pulse_rep, tl: deep_tl, report: deep_rep } =
        deep_dive(seed, capacity, &repro);
    print!("{}", deep_rep.render());
    let dropped = deep.rec.metrics().counter_total(names::BLACKBOX_EVENTS_DROPPED);
    let budget_alerts =
        pulse_rep.alerts.iter().filter(|a| a.rule == names::ALERT_RECOVERY_BUDGET).count();

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
