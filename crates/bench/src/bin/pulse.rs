//! Online-telemetry bench: the pulse pipeline riding a chaos campaign, as
//! an overhead and determinism gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin pulse -- [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless] \
//!     [--heartbeat-out PATH]
//! ```
//!
//! One workload — the iterative checkpointing job under message/IO fault
//! weather, a memory-tier store per checkpoint, and a mid-run processor
//! kill — runs three times:
//!
//! 1. **pulse-off** — trace recorder only: the reference checksum, commit
//!    count, and host wall time.
//! 2. **pulse-on** — the same trace fanned out with a live pulse pipeline
//!    drained from a background thread at an uncontrolled cadence.
//! 3. **pulse-on again** — the heartbeat stream and alert list must be
//!    byte-identical to run 2 (the drain-invariance contract).
//!
//! Gates: the simulated run must be bit-identical with pulse on and off
//! (observation must not perturb the run); pulse's accounted self-overhead
//! must stay under [`OVERHEAD_BUDGET`] of the pulse-off host wall time; and
//! the deterministic headline numbers (heartbeats, alerts, samples,
//! commits) land in `BENCH_pulse.json` for the ±tolerance baseline gate.
//! `--heartbeat-out` additionally writes the heartbeat JSONL stream (the
//! artifact CI uploads). The live status view prints at the end of run 2.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drms_bench::gate::{baseline_gate, run_gated};
use drms_bench::json::BenchResult;
use drms_chaos::{ChaosCtl, FaultPlan, MsgFaults, PiofsFaults};
use drms_core::segment::DataSegment;
use drms_core::{Drms, DrmsConfig};
use drms_darray::{DistArray, Distribution};
use drms_memtier::{spill_checkpoint, store_checkpoint, store_feasible, MemTier};
use drms_msg::CostModel;
use drms_obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig};
use drms_pulse::{builtin_rules, Pulse, PulseConfig, PulseReport, RuleThresholds};
use drms_rtenv::{
    EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ProcessorState, ResourceCoordinator, RunSummary,
};
use drms_slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 12;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;
const APP: &str = "pulsebench";
const DEFAULT_SEED: u64 = 42;

/// Accounted pulse self-overhead budget, as a fraction of the pulse-off
/// run's host wall time.
const OVERHEAD_BUDGET: f64 = 0.02;

struct Opts {
    seed: u64,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    bless: bool,
    heartbeat_out: Option<PathBuf>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        seed: drms_bench::seed::fault_seed_or(DEFAULT_SEED),
        json: None,
        baseline: None,
        tolerance: 0.05,
        bless: false,
        heartbeat_out: None,
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
            "--heartbeat-out" => opts.heartbeat_out = Some(PathBuf::from(value("--heartbeat-out"))),
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
        "usage: pulse [--fault-seed N] [--json DIR] [--baseline PATH]\n\
         \x20            [--tolerance REL] [--bless] [--heartbeat-out PATH]"
    );
    std::process::exit(2);
}

fn domain() -> Slice {
    Slice::boxed(&[(1, 18), (1, 14)])
}

/// One run's observables.
struct Run {
    checksum: f64,
    summary: RunSummary,
    rec: Arc<TraceRecorder>,
    wall: Duration,
}

/// Runs the campaign workload: fault weather over messages and I/O, a
/// memory-tier store+spill per checkpoint, and one processor kill at
/// iteration 7 (the replica-loss event). `extra` is fanned out next to the
/// trace when present (the pulse recorder).
fn run_campaign(seed: u64, extra: Option<Arc<dyn Recorder>>) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    let sink: Arc<dyn Recorder> = match extra {
        Some(extra) => Arc::new(FanoutRecorder::new(vec![rec.clone() as Arc<dyn Recorder>, extra])),
        None => rec.clone(),
    };
    let log = EventLog::with_recorder(sink.clone());
    let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), seed);
    fs.set_recorder(sink);
    Drms::install_binary(&fs, &DrmsConfig::new(APP));
    let ctl = ChaosCtl::new(FaultPlan {
        msg: MsgFaults { drop_prob: 0.25, dup_prob: 0.1, max_extra_latency: 1e-4 },
        piofs: PiofsFaults { transient_prob: 0.25, torn: None },
        ..FaultPlan::seeded(seed)
    });
    let tier = MemTier::new(1);
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log,
        CostModel::default(),
        JsaPolicy { repair_when_starved: true, ..Default::default() },
    )
    .with_chaos(ctl)
    .with_memtier(tier);

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
                let prefix = format!("ck/pulse/{iter}");
                let failed = match &env.memtier {
                    Some(tier) if store_feasible(ctx, tier) => {
                        store_checkpoint(ctx, tier, &prefix, &mut drms, &seg, &[&u])
                            .and_then(|_| spill_checkpoint(ctx, &env.fs, tier, &prefix))
                            .err()
                            .map(JobOutcome::from_err)
                    }
                    _ => drms
                        .reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u])
                        .err()
                        .map(JobOutcome::from_err),
                };
                if let Some(outcome) = failed {
                    return if env.sop_killed(ctx) { JobOutcome::Killed } else { outcome };
                }
            }
            if ctx.rank() == 0
                && iter >= 7
                && injected.swap(1, Ordering::SeqCst) == 0
                && rc2.state_of(2) != ProcessorState::Failed
            {
                rc2.fail_processor(2);
            }
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        out2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
        JobOutcome::Completed
    });

    let t0 = Instant::now();
    let summary = jsa.run_job(&job);
    let wall = t0.elapsed();
    let checksum: f64 = out.lock().iter().sum();
    Run { checksum, summary, rec, wall }
}

/// Runs the campaign with a live pulse attached, drained from a background
/// thread at an uncontrolled host cadence (the point: drain timing must
/// not matter).
fn run_with_pulse(seed: u64) -> (Run, PulseReport, String) {
    let pulse = Pulse::new(PulseConfig {
        ntasks: NPROCS,
        // Much finer than the ~0.02 simulated seconds one incarnation
        // spans, so windows settle live rather than only at finish.
        window: 0.002,
        rules: builtin_rules(&RuleThresholds {
            retry_rate: 50.0,
            ckpt_stall_slo: 0.01,
            // The campaign kills one memtier node out of a two-way
            // replicated tier; treat dropping below full replication as
            // the alertable condition.
            min_replicas: 2.0,
            ..RuleThresholds::default()
        }),
        ..PulseConfig::default()
    });
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let drainer = {
        let pulse = Arc::clone(&pulse);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                pulse.drain();
                // Host cadence: frequent enough to be a live view, sparse
                // enough that drain bookkeeping stays a rounding error.
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let run = run_campaign(seed, Some(pulse.recorder()));
    // The sink is attached only now, so alert/heartbeat meta-events land in
    // the trace in one deterministic batch after the simulated run — the
    // trace comparison against the pulse-off run stays exact.
    stop.store(true, Ordering::SeqCst);
    drainer.join().expect("drainer panicked");
    pulse.set_sink(run.rec.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    let view = pulse.status();
    (run, report, view)
}

fn main() {
    let opts = parse_args();
    let repro_line = drms_bench::seed::bin_repro("pulse", opts.seed);
    run_gated("pulse", &repro_line, || {
        println!(
            "Pulse bench: online telemetry riding a chaos campaign \
             (seed {}, {} iterations, {} PEs)\n",
            opts.seed, NITER, NPROCS
        );
        let mut result = BenchResult::new("pulse");
        result.param("seed", opts.seed);
        result.param("niter", NITER);
        result.param("nprocs", NPROCS);
        result.stamp_header(opts.seed, NPROCS);

        // Run 1 — pulse off.
        let off = run_campaign(opts.seed, None);
        assert!(off.summary.completed, "pulse-off run failed: {:?}", off.summary);
        println!(
            "pulse-off: checksum {:.1}, {} incarnation(s), host wall {:.1} ms",
            off.checksum,
            off.summary.incarnations.len(),
            off.wall.as_secs_f64() * 1e3
        );

        // Run 2 — pulse on, live-drained.
        let (on, report, view) = run_with_pulse(opts.seed);
        assert!(on.summary.completed, "pulse-on run failed: {:?}", on.summary);
        assert_eq!(on.checksum, off.checksum, "pulse observation perturbed the run");
        assert_eq!(
            on.summary.incarnations.len(),
            off.summary.incarnations.len(),
            "pulse observation changed the incarnation history"
        );
        for metric in [names::COMMITS, names::MSG_RETRIES, names::IO_RETRIES, names::MESSAGES_SENT]
        {
            assert_eq!(
                on.rec.metrics().counter_total(metric),
                off.rec.metrics().counter_total(metric),
                "pulse observation changed {metric}"
            );
        }
        println!("\n{view}");

        // Run 3 — pulse on again: drain-invariance across runs.
        let (_, again, _) = run_with_pulse(opts.seed);
        assert_eq!(again.heartbeats, report.heartbeats, "heartbeat stream is nondeterministic");
        assert_eq!(again.alerts, report.alerts, "alert stream is nondeterministic");

        // Overhead gate: everything pulse spent on itself, as a fraction
        // of the pulse-off wall time. Both pulse-on runs accounted the
        // same hook/drain work; the smaller figure is the intrinsic cost,
        // the difference is host scheduling noise (a preemption inside a
        // timed hook bills the whole descheduling to the meter).
        let accounted = report.overhead_seconds.min(again.overhead_seconds);
        let fraction = accounted / off.wall.as_secs_f64();
        println!(
            "pulse self-overhead: {:.3} ms accounted / {:.1} ms pulse-off wall = {:.3}%",
            accounted * 1e3,
            off.wall.as_secs_f64() * 1e3,
            fraction * 1e2
        );
        assert!(
            fraction < OVERHEAD_BUDGET,
            "pulse overhead {:.2}% breaches the {:.0}% budget",
            fraction * 1e2,
            OVERHEAD_BUDGET * 1e2
        );
        assert_eq!(report.dropped, 0, "bounded rings dropped samples");

        let commits = on.rec.metrics().counter_total(names::COMMITS);
        result.metric("heartbeats", report.heartbeats.len() as f64);
        result.metric("alerts", report.alerts.len() as f64);
        result.metric("samples", report.samples as f64);
        result.metric("commits", commits as f64);
        result.metric("incarnations", on.summary.incarnations.len() as f64);
        result.metric(
            "alert.replica_loss",
            report.alerts.iter().filter(|a| a.rule == names::ALERT_REPLICA_LOSS).count() as f64,
        );
        println!(
            "pulse-on: {} heartbeats, {} alerts, {} samples, {} commits",
            report.heartbeats.len(),
            report.alerts.len(),
            report.samples,
            commits
        );

        if let Some(path) = &opts.heartbeat_out {
            let mut f = std::fs::File::create(path).expect("create heartbeat file");
            for line in &report.heartbeats {
                writeln!(f, "{line}").expect("write heartbeat line");
            }
            println!("wrote {} heartbeat lines to {}", report.heartbeats.len(), path.display());
        }
        if let Some(dir) = &opts.json {
            let path = result.write_to(dir).expect("write BENCH_pulse.json");
            println!("wrote {}", path.display());
        }
        if let Some(baseline) = &opts.baseline {
            baseline_gate(&result, baseline, opts.tolerance, opts.bless, &repro_line);
        }
        println!(
            "\nObservation did not perturb the run; the heartbeat stream is \
             drain-invariant; self-overhead sits inside the {:.0}% budget.",
            OVERHEAD_BUDGET * 1e2
        );
    });
}
