//! Online-telemetry bench: the pulse pipeline riding a chaos campaign, as
//! an overhead and determinism gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- pulse [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! One workload — the campaign job ([`crate::campaign`]) under PIOFS fault
//! weather, a memory-tier store per checkpoint, and a mid-run processor
//! kill — runs in three ways:
//!
//! 1. **pulse-off** — trace recorder only: the reference checksum and
//!    commit count; run `OFF_RUNS` times for a median host wall time.
//! 2. **pulse-on** — the same trace fanned out with a live pulse pipeline
//!    drained from a background thread every millisecond of host time,
//!    whose interleaving with the run the host decides ([`run_with_pulse`],
//!    also what `tests/pulse_campaign.rs` runs).
//! 3. **pulse-on again** — the heartbeat stream, the alert list and the
//!    run summary must equal run 2's (the drain-invariance contract,
//!    [`assert_drain_invariant`], which the test runs too).
//!
//! Gates: the simulated run must be bit-identical with pulse on and off
//! (observation must not perturb the run); pulse's self-overhead must stay
//! under `OVERHEAD_BUDGET` (2%) of the pulse-off host wall time; and the
//! deterministic headline numbers (heartbeats, alerts, samples, commits)
//! land in `BENCH_pulse.json` for the ±tolerance baseline gate.
//!
//! The overhead is one product a 2-core host can resolve: the run's
//! deterministic sample count times the host cost of one sample, timed in a
//! tight loop through a fresh pipeline (the fastest of `COST_REPS`), over
//! the median pulse-off wall.
//!
//! The heartbeat JSONL stream is the `pulse-heartbeat.jsonl` artefact (CI
//! uploads it). The live status view prints at the end of run 2.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drms_chaos::{ChaosCtl, FaultPlan, PiofsFaults};
use drms_memtier::MemTier;
use drms_obs::{names, FanoutRecorder, Phase, Recorder, TraceRecorder};
use drms_pulse::{builtin_rules, Pulse, PulseConfig, PulseReport, RuleThresholds};
use parking_lot::Mutex;

use crate::campaign::{policy, Campaign, CkptMode, Fault, Launched, Rig, NPROCS};
use crate::gate::{no_gate_flags, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The heartbeat-stream artefact (CI uploads it under this name).
pub const HEARTBEAT_FILE: &str = "pulse-heartbeat.jsonl";
const NITER: i64 = 12;
const APP: &str = "pulsebench";

/// Pulse self-overhead budget, as a fraction of the pulse-off host wall
/// time.
const OVERHEAD_BUDGET: f64 = 0.02;

/// Pulse-off runs whose median host wall is the budget's denominator.
const OFF_RUNS: usize = 3;

/// Repetitions of the per-sample cost loop; a preemption only ever adds
/// time, so the fastest is the intrinsic cost.
const COST_REPS: usize = 5;

/// One run: the launch, plus its trace and its host wall.
pub struct Run {
    /// The launch.
    pub out: Launched,
    /// The trace every counter is mirrored into.
    pub rec: Arc<TraceRecorder>,
    /// Host wall time of the launch.
    wall: Duration,
}

/// Runs the campaign workload: transient PIOFS fault weather, a
/// memory-tier store+spill per checkpoint, and one processor kill at
/// iteration 7 (the replica-loss event). `extra` is fanned out next to the
/// trace when present (the pulse recorder).
fn run_campaign(seed: u64, extra: Option<Arc<dyn Recorder>>) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    let sink: Arc<dyn Recorder> = match extra {
        Some(extra) => Arc::new(FanoutRecorder::new(vec![rec.clone() as Arc<dyn Recorder>, extra])),
        None => rec.clone(),
    };
    let rig = Rig::new(APP, seed, Some(sink));
    let ctl = ChaosCtl::new(FaultPlan {
        piofs: PiofsFaults { transient_prob: 0.25, torn: None },
        ..FaultPlan::seeded(seed)
    });
    let jsa = rig.jsa(policy()).with_chaos(ctl).with_memtier(MemTier::new(1));
    let job = Campaign {
        mode: CkptMode::Tier,
        faults: vec![Fault::kill(7, 2)],
        ..Campaign::new(APP, "ck/pulse", NITER)
    };
    let t0 = Instant::now();
    Run { out: job.launch(&rig, &jsa), rec, wall: t0.elapsed() }
}

/// The pipeline every pulse-on run and the cost loop build.
fn pulse_config() -> PulseConfig {
    PulseConfig {
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
    }
}

/// Host seconds pulse spends on one sample: a fresh pipeline's recorder
/// hook plus its share of one `drain`, timed over `n` samples that span
/// every rank and `windows` windows (each rank a span pair and a counter
/// at a time), the fastest of [`COST_REPS`] repetitions.
fn sample_cost(n: u64, windows: usize) -> f64 {
    let config = pulse_config();
    let dt = config.window * windows as f64 / n.max(1) as f64;
    let rep = || {
        let pulse = Pulse::new(config.clone());
        let rec = pulse.recorder();
        let t0 = Instant::now();
        for i in 0..n {
            let (rank, t) = ((i / 3) as usize % NPROCS, i as f64 * dt);
            match i % 3 {
                0 => rec.span_start(t, rank, Phase::Arrays, "arrays"),
                1 => rec.span_end(t, rank, Phase::Arrays, "arrays"),
                _ => rec.counter_add_at(t, rank, names::COMMITS, None, 1),
            }
        }
        pulse.drain();
        t0.elapsed().as_secs_f64() / n.max(1) as f64
    };
    (0..COST_REPS).map(|_| rep()).fold(f64::INFINITY, f64::min)
}

/// What [`run_with_pulse`] leaves behind.
pub struct Observed {
    /// The run: launch, trace (alert and heartbeat meta-events included)
    /// and host wall.
    pub run: Run,
    /// The pulse's final report.
    pub report: PulseReport,
    /// The live status view at the end of the run.
    pub view: String,
    /// Alert rules that had settled while the job was still running, in
    /// the order the drainer first saw them.
    pub live_rules: Vec<&'static str>,
}

/// Runs the campaign with a live pulse of the row's `pulse_config()`
/// attached, drained from one thread every millisecond of host time (drain
/// timing must not matter), which notes the alert rules that settle while
/// the job is still running.
pub fn run_with_pulse(seed: u64) -> Observed {
    let pulse = Pulse::new(pulse_config());
    let done = AtomicBool::new(false);
    let live = Mutex::new(Vec::new());
    let run = std::thread::scope(|s| {
        s.spawn(|| loop {
            pulse.drain();
            if done.load(Ordering::SeqCst) {
                break;
            }
            let mut seen = live.lock();
            for alert in pulse.alerts() {
                if !seen.contains(&alert.rule) {
                    seen.push(alert.rule);
                }
            }
            drop(seen);
            std::thread::sleep(Duration::from_millis(1));
        });
        let run = run_campaign(seed, Some(pulse.recorder()));
        done.store(true, Ordering::SeqCst);
        run
    });
    // The sink is attached only now, so alert/heartbeat meta-events land in
    // the trace in one deterministic batch after the simulated run — the
    // trace comparison against the pulse-off run stays exact.
    pulse.set_sink(run.rec.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    Observed { run, report, view: pulse.status(), live_rules: live.into_inner() }
}

/// The drain-invariance contract at `seed`: two observed runs
/// ([`run_with_pulse`]) settle the same heartbeat stream, the same alerts
/// and the same run summary, whatever the drainer's interleaving. Returns
/// the first.
pub fn assert_drain_invariant(seed: u64, repro: &str) -> Observed {
    let (first, again) = (run_with_pulse(seed), run_with_pulse(seed));
    let (a, b) = (&first.report, &again.report);
    let why = if a.heartbeats != b.heartbeats {
        "heartbeat stream"
    } else if a.alerts != b.alerts {
        "alert stream"
    } else if first.run.out.summary != again.run.out.summary {
        "run summary"
    } else {
        return first;
    };
    panic!("{why} is nondeterministic\nreproduce with: {repro}")
}

/// The `pulse` row of the gate table.
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    no_gate_flags("pulse", &args.rest);
    let seed = args.seed;
    println!(
        "Pulse bench: online telemetry riding a chaos campaign \
             (seed {}, {} iterations, {} PEs)\n",
        seed, NITER, NPROCS
    );
    let mut result = BenchResult::new("pulse");
    result.param("seed", seed);
    result.param("niter", NITER);
    result.param("nprocs", NPROCS);
    result.stamp_header(seed, NPROCS);

    // Run 1 — pulse off, and again until the median host wall of
    // `OFF_RUNS` runs is known.
    let off = run_campaign(seed, None);
    let mut walls: Vec<f64> = std::iter::once(off.wall)
        .chain((1..OFF_RUNS).map(|_| run_campaign(seed, None).wall))
        .map(|w| w.as_secs_f64())
        .collect();
    walls.sort_by(f64::total_cmp);
    let wall = walls[OFF_RUNS / 2];
    assert!(off.out.summary.completed, "pulse-off run failed: {:?}", off.out.summary);
    println!(
        "pulse-off: checksum {:.1}, {} incarnation(s), host wall {:.1} ms",
        off.out.checksum,
        off.out.summary.incarnations.len(),
        off.wall.as_secs_f64() * 1e3
    );

    // Runs 2 and 3 — pulse on, live-drained, twice: drain invariance
    // across runs.
    let repro = crate::seed::bin_repro("pulse", seed);
    let Observed { run: on, report, view, .. } = assert_drain_invariant(seed, &repro);
    assert!(on.out.summary.completed, "pulse-on run failed: {:?}", on.out.summary);
    assert_eq!(on.out.checksum, off.out.checksum, "pulse observation perturbed the run");
    assert_eq!(
        on.out.summary.incarnations.len(),
        off.out.summary.incarnations.len(),
        "pulse observation changed the incarnation history"
    );
    for metric in [names::COMMITS, names::IO_RETRIES, names::MESSAGES_SENT] {
        assert_eq!(
            on.rec.metrics().counter_total(metric),
            off.rec.metrics().counter_total(metric),
            "pulse observation changed {metric}"
        );
    }
    println!("\n{view}");

    // Overhead gate: the run's samples at the intrinsic per-sample cost,
    // over the median pulse-off wall.
    let per_sample = sample_cost(report.samples, report.heartbeats.len());
    let fraction = report.samples as f64 * per_sample / wall;
    println!(
        "pulse self-overhead: {} samples x {:.0} ns / {:.1} ms pulse-off wall (median of {OFF_RUNS}) \
         = {:.3}%",
        report.samples,
        per_sample * 1e9,
        wall * 1e3,
        fraction * 1e2
    );
    assert!(
        fraction < OVERHEAD_BUDGET,
        "pulse overhead {:.2}% breaches the {:.0}% budget",
        fraction * 1e2,
        OVERHEAD_BUDGET * 1e2
    );

    let commits = on.rec.metrics().counter_total(names::COMMITS);
    result.metric("heartbeats", report.heartbeats.len() as f64);
    result.metric("alerts", report.alerts.len() as f64);
    result.metric("samples", report.samples as f64);
    result.metric("commits", commits as f64);
    result.metric("incarnations", on.out.summary.incarnations.len() as f64);
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

    println!(
        "\nObservation did not perturb the run; the heartbeat stream is \
             drain-invariant; self-overhead sits inside the {:.0}% budget.",
        OVERHEAD_BUDGET * 1e2
    );
    let heartbeats: String = report.heartbeats.iter().map(|line| format!("{line}\n")).collect();
    GateOutput { result, artefacts: vec![(HEARTBEAT_FILE.into(), heartbeats)] }
}
