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
//! The observed run — job, pipeline, drain thread — and the determinism
//! contract are the `pulse` gate row's ([`drms_bench::pulse`]); this file
//! runs them at its own seed. The campaign honors the repo-wide seed convention:
//! `FAULT_SEED=N` narrows the run to that seed, and every assertion prints
//! the one-command repro.

use drms::obs::names;
use drms_bench::pulse::{assert_drain_invariant, run_with_pulse};

const DEFAULT_SEED: u64 = 42;

fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("pulse_campaign", seed)
}

/// The acceptance criterion of the pulse PR, end to end.
#[test]
fn chaos_campaign_raises_retry_storm_and_replica_loss_before_the_run_ends() {
    let seed = drms_bench::seed::fault_seed_or(DEFAULT_SEED);
    let obs = run_with_pulse(seed);
    let summary = &obs.run.out.summary;
    assert!(
        summary.completed,
        "campaign did not complete: {summary:?}\nreproduce with: {}",
        repro_cmd(seed)
    );
    // The processor kill forced at least one reincarnation (the campaign
    // actually lost a node — the replica-loss alert is not vacuous).
    assert!(
        summary.incarnations.len() >= 2,
        "expected a reincarnation: {summary:?}\nreproduce with: {}",
        repro_cmd(seed)
    );

    // Both required alerts fired, and each one's window closed strictly
    // before the run's last simulated instant.
    let end_t = obs.run.rec.events().iter().map(|e| e.t).fold(0.0f64, f64::max);
    for rule in [names::ALERT_RETRY_STORM, names::ALERT_REPLICA_LOSS] {
        let alert = obs.report.alerts.iter().find(|a| a.rule == rule).unwrap_or_else(|| {
            panic!(
                "{rule} never fired; fired: {:?}\nreproduce with: {}",
                obs.report.alerts,
                repro_cmd(seed)
            )
        });
        assert!(
            alert.t1 < end_t,
            "{rule} window [{:.3},{:.3}) closed after the run's end {end_t:.3}\nreproduce with: {}",
            alert.t0,
            alert.t1,
            repro_cmd(seed)
        );
        // The alert is part of the heartbeat stream itself, not only the
        // side list.
        assert!(
            obs.report.heartbeats.iter().any(|line| line.contains(rule)),
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
    assert_drain_invariant(seed, &repro_cmd(seed));
}
