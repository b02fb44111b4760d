//! Online-telemetry bench: the pulse pipeline riding a chaos campaign, as
//! an overhead and determinism gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- pulse [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! One workload — the campaign job ([`crate::campaign`]) under message/IO fault
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
//! must stay under `OVERHEAD_BUDGET` (2%) of the pulse-off host wall time; and
//! the deterministic headline numbers (heartbeats, alerts, samples,
//! commits) land in `BENCH_pulse.json` for the ±tolerance baseline gate.
//! The heartbeat JSONL stream is the `pulse-heartbeat.jsonl` artefact (CI
//! uploads it). The live status view prints at the end of run 2.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drms_chaos::{ChaosCtl, FaultPlan, MsgFaults, PiofsFaults};
use drms_memtier::MemTier;
use drms_obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms_pulse::{builtin_rules, Pulse, PulseConfig, PulseReport, RuleThresholds};
use drms_rtenv::RunSummary;

use crate::campaign::{policy, Campaign, CkptMode, Fault, Rig, NPROCS};
use crate::gate::{no_gate_flags, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The heartbeat-stream artefact (CI uploads it under this name).
pub const HEARTBEAT_FILE: &str = "pulse-heartbeat.jsonl";
const NITER: i64 = 12;
const APP: &str = "pulsebench";

/// Accounted pulse self-overhead budget, as a fraction of the pulse-off
/// run's host wall time.
const OVERHEAD_BUDGET: f64 = 0.02;

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
    let rig = Rig::new(APP, seed, Some(sink));
    let ctl = ChaosCtl::new(FaultPlan {
        msg: MsgFaults { drop_prob: 0.25, dup_prob: 0.1, max_extra_latency: 1e-4 },
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
    let (checksum, summary) = job.launch(&rig, &jsa);
    let wall = t0.elapsed();
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
    let stop = Arc::new(AtomicBool::new(false));
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

    // Run 1 — pulse off.
    let off = run_campaign(seed, None);
    assert!(off.summary.completed, "pulse-off run failed: {:?}", off.summary);
    println!(
        "pulse-off: checksum {:.1}, {} incarnation(s), host wall {:.1} ms",
        off.checksum,
        off.summary.incarnations.len(),
        off.wall.as_secs_f64() * 1e3
    );

    // Run 2 — pulse on, live-drained.
    let (on, report, view) = run_with_pulse(seed);
    assert!(on.summary.completed, "pulse-on run failed: {:?}", on.summary);
    assert_eq!(on.checksum, off.checksum, "pulse observation perturbed the run");
    assert_eq!(
        on.summary.incarnations.len(),
        off.summary.incarnations.len(),
        "pulse observation changed the incarnation history"
    );
    for metric in [names::COMMITS, names::MSG_RETRIES, names::IO_RETRIES, names::MESSAGES_SENT] {
        assert_eq!(
            on.rec.metrics().counter_total(metric),
            off.rec.metrics().counter_total(metric),
            "pulse observation changed {metric}"
        );
    }
    println!("\n{view}");

    // Run 3 — pulse on again: drain-invariance across runs.
    let (_, again, _) = run_with_pulse(seed);
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

    println!(
        "\nObservation did not perturb the run; the heartbeat stream is \
             drain-invariant; self-overhead sits inside the {:.0}% budget.",
        OVERHEAD_BUDGET * 1e2
    );
    let heartbeats: String = report.heartbeats.iter().map(|line| format!("{line}\n")).collect();
    GateOutput { result, artefacts: vec![(HEARTBEAT_FILE.into(), heartbeats)] }
}
