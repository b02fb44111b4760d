//! Flight-recorder bench: crash-surviving trace recovery and recovery-cost
//! attribution over a seeded kill campaign, as a coverage and determinism
//! gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin blackbox -- [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless] \
//!     [--report-out PATH] [--trace-out PATH]
//! ```
//!
//! Three campaigns over the iterative checkpointing job, each with a
//! [`Blackbox`] flight recorder riding the recorder fan-out:
//!
//! 1. **Clean** — no faults: one incarnation, recovered from its final
//!    seal, zero recovery cost.
//! 2. **Sweep** — every enumerated [`CrashPoint`], one armed crash each:
//!    the stitched timeline must cover *every* incarnation (each one's
//!    recovered event stream is non-empty — the kill salvage, the SOP
//!    seals riding committed checkpoints, or the final seal got it there),
//!    consecutive segments must abut bit-exactly (zero unattributed
//!    gaps), and the five attribution buckets must tile the stitched wall
//!    clock to floating-point association.
//! 3. **Deep dive** — fault weather, a mid-publish crash *and* a
//!    processor kill: at least three incarnations, a dropped-event audit
//!    from the token kill, a live `pulse.alert.recovery_budget` alert
//!    raised off the `blackbox.recovery_ratio` gauge, and the full
//!    recovery-cost table printed. Run twice: the rendered report and the
//!    recovery-cost total must be bit-identical (the per-`FAULT_SEED`
//!    determinism contract).
//!
//! With `--json DIR` the headline numbers land in `BENCH_blackbox.json`;
//! `--baseline PATH` compares against a committed baseline within
//! `--tolerance` (relative); `--bless` rewrites it. `--report-out` and
//! `--trace-out` write the recovery-cost table and the stitched
//! cross-incarnation event stream (the artifacts CI uploads).

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms_bench::gate::{baseline_gate, run_gated};
use drms_bench::json::BenchResult;
use drms_blackbox::{Blackbox, BlackboxConfig};
use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan, MsgFaults, PiofsFaults};
use drms_core::segment::DataSegment;
use drms_core::{Drms, DrmsConfig};
use drms_darray::{DistArray, Distribution};
use drms_insight::{stitch, IncarnationInput, RecoveryReport, StitchOptions, StitchedTimeline};
use drms_msg::CostModel;
use drms_obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig};
use drms_pulse::{builtin_rules, Pulse, PulseConfig, RuleThresholds};
use drms_rtenv::{
    EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ProcessorState, ResourceCoordinator, RunSummary,
};
use drms_slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 12;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;
const APP: &str = "bbbench";
const DEFAULT_SEED: u64 = 42;

struct Opts {
    seed: u64,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    bless: bool,
    report_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: drms_bench::seed::fault_seed_or(DEFAULT_SEED),
        json: None,
        baseline: None,
        tolerance: 0.05,
        bless: false,
        report_out: None,
        trace_out: None,
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
            "--report-out" => opts.report_out = Some(PathBuf::from(value("--report-out"))),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out"))),
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
        "usage: blackbox [--fault-seed N] [--json DIR] [--baseline PATH]\n\
         \x20               [--tolerance REL] [--bless] [--report-out PATH]\n\
         \x20               [--trace-out PATH]"
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

/// One campaign run's observables, all deterministic per plan.
struct Run {
    checksum: f64,
    summary: RunSummary,
    rec: Arc<TraceRecorder>,
    bb: Arc<Blackbox>,
    ctl: Arc<ChaosCtl>,
}

/// Runs the iterative checkpointing job under a fault plan with a flight
/// recorder in the fan-out. `kill_at` arms one processor failure once the
/// given iteration is reached (the token-kill path, which — unlike a
/// crash point — gets no dying salvage). `extra` is fanned out next to
/// the trace and the blackbox when present (the pulse recorder).
fn run_campaign(plan: FaultPlan, kill_at: Option<i64>, extra: Option<Arc<dyn Recorder>>) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    // Detection latency scaled to the workload: the job spans a few
    // simulated milliseconds, so the default 1 s gap would swamp every
    // other bucket of the attribution.
    let bb = Arc::new(Blackbox::new(
        BlackboxConfig { detection_latency: 1e-4, ..BlackboxConfig::default() },
        NPROCS,
    ));
    let mut sinks: Vec<Arc<dyn Recorder>> = vec![rec.clone(), bb.clone()];
    if let Some(extra) = extra {
        sinks.push(extra);
    }
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
        JsaPolicy { repair_when_starved: true, ..Default::default() },
    )
    .with_chaos(Arc::clone(&ctl))
    .with_blackbox(Arc::clone(&bb));

    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
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
                let prefix = format!("ck/bb/{iter}");
                if let Err(e) = drms.reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u]) {
                    return JobOutcome::from_err(e);
                }
            }
            if let Some(at) = kill_at {
                if ctx.rank() == 0
                    && iter >= at
                    && injected.swap(1, Ordering::SeqCst) == 0
                    && rc2.state_of(2) != ProcessorState::Failed
                {
                    rc2.fail_processor(2);
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
    let checksum: f64 = out.lock().iter().sum();
    Run { checksum, summary, rec, bb, ctl }
}

/// Builds the stitched cross-incarnation timeline and its recovery-cost
/// attribution from the run's recovered archive plus what the JSA knows
/// about each incarnation's fate.
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

/// The coverage contract: the run recovered bitwise, the stitched
/// timeline covers every incarnation with a non-empty recovered event
/// stream, consecutive segments abut bit-exactly (zero unattributed
/// gaps), and the attribution buckets tile the stitched wall clock.
fn assert_covered(run: &Run, tl: &StitchedTimeline, report: &RecoveryReport, what: &str) {
    assert!(run.summary.completed, "{what}: job did not complete: {:?}", run.summary);
    assert_eq!(run.checksum, reference(), "{what}: recovered state diverged");
    for (i, _) in run.summary.incarnations.iter().enumerate() {
        assert!(
            !run.bb.events_for(i as u64).is_empty(),
            "{what}: incarnation {i} left no recovered events"
        );
    }
    assert_eq!(tl.segments.len(), run.summary.incarnations.len(), "{what}: segment count");
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
}

/// Total recovered events across the archive.
fn recovered_events(run: &Run) -> usize {
    (0..run.summary.incarnations.len()).map(|i| run.bb.events_for(i as u64).len()).sum()
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
        ..PulseConfig::default()
    });
    let plan = FaultPlan {
        msg: MsgFaults { drop_prob: 0.25, dup_prob: 0.1, max_extra_latency: 1e-4 },
        piofs: PiofsFaults { transient_prob: 0.25, torn: None },
        crash: Some((CrashPoint::CkptMidPublish, 1)),
        ..FaultPlan::seeded(seed)
    };
    let run = run_campaign(plan, Some(7), Some(pulse.recorder()));
    pulse.set_sink(run.rec.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    (run, report)
}

fn main() {
    let opts = parse_args();
    let repro_line = drms_bench::seed::bin_repro("blackbox", opts.seed);
    run_gated("blackbox", &repro_line, || {
        println!(
            "Blackbox bench: flight-recorder recovery and cross-incarnation \
             attribution (seed {}, {} iterations, {} PEs)\n",
            opts.seed, NITER, NPROCS
        );
        let mut result = BenchResult::new("blackbox");
        result.param("seed", opts.seed);
        result.param("niter", NITER);
        result.param("nprocs", NPROCS);
        result.stamp_header(opts.seed, NPROCS);

        // Campaign 1 — clean: one incarnation, recovered from its final
        // seal, zero recovery cost.
        let clean = run_campaign(FaultPlan::seeded(opts.seed), None, None);
        let (clean_tl, clean_rep) = attribution(&clean);
        assert_covered(&clean, &clean_tl, &clean_rep, "clean");
        assert_eq!(clean.summary.incarnations.len(), 1, "clean run reincarnated");
        assert_eq!(clean_rep.recovery_cost(), 0.0, "clean run billed recovery cost");
        let clean_events = recovered_events(&clean);
        println!(
            "clean: checksum {:.1}, {} recovered events, recovery fraction {:.3}",
            clean.checksum,
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
        for point in CrashPoint::ALL {
            // The `Flush*` family fires only inside the asynchronous
            // pipeline's background flush; a blocking checkpoint never
            // consults those points (they get their own sweep in
            // `tests/async_campaign.rs`).
            // The `Recover*` family likewise fires only inside a localized
            // recovery; it gets its own sweep in `tests/recover_campaign.rs`.
            if point.is_flush_side() || point.is_recover_side() {
                continue;
            }
            // Restart-side points only have a window once something
            // restarts organically; arm a processor kill for those.
            let restart_side = matches!(
                point,
                CrashPoint::RestartAfterInit
                    | CrashPoint::RestartAfterSegment
                    | CrashPoint::RestartAfterArrays
            );
            let plan = FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(opts.seed) };
            let r = run_campaign(plan, restart_side.then_some(4), None);
            let what = format!("sweep {point}");
            assert!(r.ctl.crash_fired(), "{what}: armed crash never fired");
            assert!(r.summary.incarnations.len() >= 2, "{what}: no reincarnation");
            let (tl, rep) = attribution(&r);
            assert_covered(&r, &tl, &rep, &what);
            let events = recovered_events(&r);
            let salvages = r.rec.metrics().counter_total(names::BLACKBOX_SALVAGES);
            assert!(salvages > 0, "{what}: dying region salvaged nothing");
            println!(
                "  {:<22} {:>6} {:>10} {:>10} {:>12.6} {:>9.1}%",
                point.as_str(),
                r.summary.incarnations.len(),
                events,
                salvages,
                rep.wall,
                rep.recovery_fraction() * 100.0
            );
            let key = |m: &str| format!("sweep.{point}.{m}");
            result.metric(&key("incarnations"), r.summary.incarnations.len() as f64);
            result.metric(&key("recovered_events"), events as f64);
            result.metric(&key("salvages"), salvages as f64);
        }

        // Campaign 3 — the deep dive: crash + token kill under weather,
        // live pulse on top, full attribution table out.
        println!("\ndeep dive (weather + mid-publish crash + processor kill):");
        let (deep, pulse_rep) = run_deep(opts.seed);
        let (deep_tl, deep_rep) = attribution(&deep);
        assert_covered(&deep, &deep_tl, &deep_rep, "deep");
        assert!(
            deep.summary.incarnations.len() >= 3,
            "deep: expected crash kill + token kill + completion, got {:?}",
            deep.summary.incarnations.len()
        );
        let dropped = deep.rec.metrics().counter_total(names::BLACKBOX_EVENTS_DROPPED);
        assert!(dropped > 0, "deep: token kill dropped no unsealed events");
        let budget_alerts =
            pulse_rep.alerts.iter().filter(|a| a.rule == names::ALERT_RECOVERY_BUDGET).count();
        assert!(budget_alerts > 0, "deep: recovery-budget alert never fired");
        print!("{}", deep_rep.render());

        // Determinism: the whole pipeline — capture, seal, salvage,
        // recovery, stitch, attribution — must be bit-reproducible.
        let (again, _) = run_deep(opts.seed);
        let (_, again_rep) = attribution(&again);
        assert_eq!(again.checksum, deep.checksum, "deep campaign is nondeterministic");
        assert_eq!(
            again_rep.render(),
            deep_rep.render(),
            "recovery-cost report is nondeterministic"
        );
        assert_eq!(
            again_rep.recovery_cost().to_bits(),
            deep_rep.recovery_cost().to_bits(),
            "recovery-cost total drifted between identical runs"
        );

        let total = |f: &dyn Fn(&drms_insight::IncarnationCost) -> f64| {
            deep_rep.rows.iter().map(f).sum::<f64>()
        };
        result.metric("deep.incarnations", deep.summary.incarnations.len() as f64);
        result.metric("deep.recovered_events", recovered_events(&deep) as f64);
        result.metric("deep.dropped_events", dropped as f64);
        result.metric(
            "deep.salvages",
            deep.rec.metrics().counter_total(names::BLACKBOX_SALVAGES) as f64,
        );
        result.metric(
            "deep.rings_recovered",
            deep.rec.metrics().counter_total(names::BLACKBOX_RINGS_RECOVERED) as f64,
        );
        result
            .metric("deep.commits", deep_rep.rows.iter().map(|r| r.commits).sum::<usize>() as f64);
        result.metric("deep.wall_sim_s", deep_rep.wall);
        result.metric("deep.detect_sim_s", total(&|r| r.detect));
        result.metric("deep.restore_sim_s", total(&|r| r.restore));
        result.metric("deep.recompute_sim_s", total(&|r| r.recompute));
        result.metric("deep.useful_sim_s", total(&|r| r.useful));
        result.metric("deep.lost_sim_s", total(&|r| r.lost));
        result.metric("deep.recovery_fraction", deep_rep.recovery_fraction());
        result.metric("deep.alert.recovery_budget", budget_alerts as f64);

        if let Some(path) = &opts.report_out {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).expect("create report-out dir");
            }
            std::fs::write(path, deep_rep.render()).expect("write recovery report");
            println!("wrote recovery-cost report to {}", path.display());
        }
        if let Some(path) = &opts.trace_out {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).expect("create trace-out dir");
            }
            let mut f = std::fs::File::create(path).expect("create stitched trace file");
            for e in &deep_tl.events {
                writeln!(f, "{:.9}\t{}\t{:?}\t{:?}\t{}", e.t, e.rank, e.phase, e.kind, e.name)
                    .expect("write stitched trace line");
            }
            println!("wrote {} stitched events to {}", deep_tl.events.len(), path.display());
        }
        if let Some(dir) = &opts.json {
            let path = result.write_to(dir).expect("write BENCH_blackbox.json");
            println!("wrote {}", path.display());
        }
        if let Some(baseline) = &opts.baseline {
            baseline_gate(&result, baseline, opts.tolerance, opts.bless, &repro_line);
        }
        println!(
            "\nEvery incarnation of every kill campaign is covered by the \
             stitched timeline with zero unattributed gaps; the attribution \
             tiles the wall clock; the report is bit-reproducible per seed."
        );
    });
}
