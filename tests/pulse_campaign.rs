//! Acceptance campaign for the pulse pipeline: during a chaos campaign
//! with seeded PIOFS faults and a memory-tier node kill, the live
//! heartbeat stream must contain a **retry-storm** alert and a
//! **replica-loss** alert *before the run ends* — and the whole stream
//! must be deterministic for a fixed `FAULT_SEED`.
//!
//! "Before the run ends" is asserted two ways:
//!
//! * on the **simulated** axis, both alerts' window bounds close strictly
//!   before the last simulated instant of the run (the alerts attribute
//!   trouble to its in-flight moment, not to a post-hoc summary);
//! * on the **host** axis, the retry storm is observed by the live drain
//!   thread while the job is still executing (the stream is usable as an
//!   online signal, not only as a final report).
//!
//! The campaign honors the repo-wide seed convention: `FAULT_SEED=N`
//! narrows the run to that seed, and every assertion prints the
//! one-command repro.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use drms::chaos::{ChaosCtl, FaultPlan, PiofsFaults};
use drms::memtier::MemTier;
use drms::obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms::pulse::{builtin_rules, Alert, Pulse, PulseConfig, RuleThresholds};
use drms::rtenv::RunSummary;
use drms_bench::campaign::{policy, Campaign, CkptMode, Fault, Rig, NPROCS};
use parking_lot::Mutex;

const NITER: i64 = 12;
const APP: &str = "pulsecamp";
const DEFAULT_SEED: u64 = 42;

fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("pulse_campaign", seed)
}

/// Everything one observed campaign leaves behind.
struct Observed {
    summary: RunSummary,
    heartbeats: Vec<String>,
    alerts: Vec<Alert>,
    /// Alert rules the drain thread saw while the job was still running.
    live_rules: Vec<&'static str>,
    /// Largest simulated timestamp in the trace (the run's last instant).
    end_t: f64,
}

/// Runs the chaos + memory-tier campaign with a live pulse: PIOFS fault
/// weather, a tier store + spill per checkpoint, and one processor kill at
/// iteration 7 (which costs the two-way replicated tier a node). A
/// background thread drains the pulse at an uncontrolled host cadence and
/// records which alerts it saw while the job was still in flight.
fn run_observed(seed: u64) -> Observed {
    let pulse = Pulse::new(PulseConfig {
        ntasks: NPROCS,
        // Much finer than the ~0.02 simulated seconds one incarnation
        // spans, so windows settle (and rules run) while the job is still
        // in flight.
        window: 0.002,
        rules: builtin_rules(&RuleThresholds {
            retry_rate: 50.0,
            // One dead node out of a two-way replicated tier is the
            // alertable condition.
            min_replicas: 2.0,
            ..RuleThresholds::default()
        }),
    });

    let trace = Arc::new(TraceRecorder::default());
    let fan: Arc<dyn Recorder> =
        Arc::new(FanoutRecorder::new(vec![trace.clone() as Arc<dyn Recorder>, pulse.recorder()]));
    let rig = Rig::new(APP, seed, Some(fan));
    let ctl = ChaosCtl::new(FaultPlan {
        piofs: PiofsFaults { transient_prob: 0.25, torn: None },
        ..FaultPlan::seeded(seed)
    });
    let jsa = rig.jsa(policy()).with_chaos(ctl).with_memtier(MemTier::new(1));

    // The live drain: every millisecond of host time, drain the rings and
    // note which alert rules have settled while the run is in flight.
    let run_done = Arc::new(AtomicBool::new(false));
    let live = Arc::new(Mutex::new(Vec::<&'static str>::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let pulse = Arc::clone(&pulse);
        let run_done = Arc::clone(&run_done);
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                pulse.drain();
                if !run_done.load(Ordering::SeqCst) {
                    let mut seen = live.lock();
                    for a in pulse.alerts() {
                        if !seen.contains(&a.rule) {
                            seen.push(a.rule);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let job = Campaign {
        mode: CkptMode::Tier,
        faults: vec![Fault::kill(7, 2)],
        ..Campaign::new(APP, "ck/pulsecamp", NITER)
    };
    let (_, summary) = job.launch(&rig, &jsa);
    run_done.store(true, Ordering::SeqCst);
    stop.store(true, Ordering::SeqCst);
    drainer.join().expect("drainer panicked");
    pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    let end_t = trace.events().iter().map(|e| e.t).fold(0.0f64, f64::max);
    let live_rules = live.lock().clone();
    Observed { summary, heartbeats: report.heartbeats, alerts: report.alerts, live_rules, end_t }
}

/// The acceptance criterion of the pulse PR, end to end.
#[test]
fn chaos_campaign_raises_retry_storm_and_replica_loss_before_the_run_ends() {
    let seed = drms_bench::seed::fault_seed_or(DEFAULT_SEED);
    let obs = run_observed(seed);
    assert!(
        obs.summary.completed,
        "campaign did not complete: {:?}\nreproduce with: {}",
        obs.summary,
        repro_cmd(seed)
    );
    // The processor kill forced at least one reincarnation (the campaign
    // actually lost a node — the replica-loss alert is not vacuous).
    assert!(
        obs.summary.incarnations.len() >= 2,
        "expected a reincarnation: {:?}\nreproduce with: {}",
        obs.summary,
        repro_cmd(seed)
    );

    // Both required alerts fired, and each one's window closed strictly
    // before the run's last simulated instant.
    for rule in [names::ALERT_RETRY_STORM, names::ALERT_REPLICA_LOSS] {
        let alert = obs.alerts.iter().find(|a| a.rule == rule).unwrap_or_else(|| {
            panic!(
                "{rule} never fired; fired: {:?}\nreproduce with: {}",
                obs.alerts,
                repro_cmd(seed)
            )
        });
        assert!(
            alert.t1 < obs.end_t,
            "{rule} window [{:.3},{:.3}) closed after the run's end {:.3}\nreproduce with: {}",
            alert.t0,
            alert.t1,
            obs.end_t,
            repro_cmd(seed)
        );
        // The alert is part of the heartbeat stream itself, not only the
        // side list.
        assert!(
            obs.heartbeats.iter().any(|line| line.contains(rule)),
            "{rule} missing from the heartbeat stream\nreproduce with: {}",
            repro_cmd(seed)
        );
    }

    // The retry storm was visible to the live drain while the job was
    // still executing (window 0 settles as soon as every task has clocked
    // past it — long before iteration 12 of a multi-incarnation run).
    assert!(
        obs.live_rules.contains(&names::ALERT_RETRY_STORM),
        "retry storm was not observed live while the run was in flight \
         (live rules: {:?})\nreproduce with: {}",
        obs.live_rules,
        repro_cmd(seed)
    );
}

/// The whole observed stream — heartbeats, alerts, run summary — replays
/// byte-identically for a fixed seed, so an alert seen once can always be
/// chased with the printed repro command.
#[test]
fn observed_campaign_is_deterministic_per_seed() {
    let seed = drms_bench::seed::fault_seed_or(DEFAULT_SEED);
    let a = run_observed(seed);
    let b = run_observed(seed);
    assert_eq!(
        a.heartbeats,
        b.heartbeats,
        "heartbeat stream is nondeterministic\nreproduce with: {}",
        repro_cmd(seed)
    );
    assert_eq!(
        a.alerts,
        b.alerts,
        "alert stream is nondeterministic\nreproduce with: {}",
        repro_cmd(seed)
    );
    assert_eq!(a.summary, b.summary);
}
