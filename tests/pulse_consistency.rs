//! Cross-check: the pulse pipeline's *online* cumulative totals must agree
//! with the *post-hoc* truth for the same traced session.
//!
//! One fault-free memory-tier run is observed by a fan-out carrying both a
//! [`TraceRecorder`] and a live pulse. Afterwards:
//!
//! * every cumulative counter in the final pulse snapshot equals the trace
//!   registry's total for that metric, exactly — and the trace holds no
//!   non-pulse counter the snapshot missed (nothing leaks past the rings);
//! * per `(rank, phase)`, pulse's online closed-span seconds equal the sum
//!   of `drms-insight`'s reconstructed span durations (same pairs, summed
//!   in a different order, so equality is up to float re-association).
//!
//! This is the guarantee that makes heartbeat numbers trustworthy: a
//! dashboard fed by pulse and a post-mortem fed by the trace can never
//! disagree about what happened.

use std::collections::BTreeMap;
use std::sync::Arc;

use drms::memtier::MemTier;
use drms::obs::names;
use drms::obs::{FanoutRecorder, Phase, Recorder, TraceRecorder};
use drms::pulse::{builtin_rules, Pulse, PulseConfig, RuleThresholds};
use drms::rtenv::JsaPolicy;
use drms_bench::campaign::{Campaign, CkptMode, Rig, CKPT_EVERY, NPROCS};
use drms_insight::Analysis;

const NITER: i64 = 10;
const APP: &str = "pulsecheck";

#[test]
fn online_totals_match_the_post_hoc_trace_and_insight() {
    let trace = Arc::new(TraceRecorder::default());
    let pulse = Pulse::new(PulseConfig {
        ntasks: NPROCS,
        window: 0.002,
        rules: builtin_rules(&RuleThresholds::default()),
    });
    let fan: Arc<dyn Recorder> =
        Arc::new(FanoutRecorder::new(vec![trace.clone() as Arc<dyn Recorder>, pulse.recorder()]));
    let rig = Rig::new(APP, 3, Some(fan));
    let jsa = rig.jsa(JsaPolicy::default()).with_memtier(MemTier::new(1));
    let job = Campaign { mode: CkptMode::Tier, ..Campaign::new(APP, "ck/pulsecheck", NITER) };
    let (_, summary) = job.launch(&rig, &jsa);
    assert!(summary.completed, "fault-free run did not complete: {summary:?}");
    pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    assert_eq!(report.dropped, 0, "bounded rings dropped samples");
    assert!(!report.cum_counters.is_empty(), "no counters observed — vacuous cross-check");

    // Direction 1: every online cumulative counter equals the trace total.
    let metrics = trace.metrics();
    for (&name, &online) in &report.cum_counters {
        assert_eq!(
            online,
            metrics.counter_total(name),
            "online total for {name} diverged from the trace registry"
        );
    }
    // Direction 2: the trace holds no non-pulse counter the snapshot
    // missed. (The `pulse.*` series are emitted by the collector into the
    // trace sink after the run — they are pulse's output, not its input.)
    for (key, _) in metrics.counters() {
        assert!(
            key.name.starts_with("pulse.") || report.cum_counters.contains_key(key.name),
            "trace counter {} never reached the pulse snapshot",
            key.name
        );
    }

    // Per-(rank, phase) closed-span seconds: pulse online vs the insight
    // reconstruction of the same trace. Same span pairs, different
    // summation order, so compare within float re-association slack.
    let analysis = Analysis::from_recorder(&trace);
    let mut posthoc: BTreeMap<(usize, Phase), f64> = BTreeMap::new();
    for s in &analysis.spans {
        *posthoc.entry((s.rank, s.phase)).or_default() += s.duration();
    }
    assert!(!report.span_seconds.is_empty(), "no spans observed — vacuous cross-check");
    assert_eq!(
        report.span_seconds.keys().collect::<Vec<_>>(),
        posthoc.keys().collect::<Vec<_>>(),
        "online and post-hoc span keyspaces diverged"
    );
    for (key, &online) in &report.span_seconds {
        let reference = posthoc[key];
        assert!(
            (online - reference).abs() <= 1e-9,
            "span seconds for {key:?} diverged: online {online} vs insight {reference}"
        );
    }
}

/// Flush-lag accounting agrees across all three observability layers for
/// an asynchronous-pipeline run: the live pulse total, the post-hoc trace
/// registry (exactly), and the insight reconstruction of the
/// `Phase::Async` flush spans (up to per-flush microsecond rounding). A
/// one-microsecond lag budget makes the built-in `pulse.alert.flush_lag`
/// rule fire on the first settled window holding a flush.
#[test]
fn async_flush_lag_agrees_across_online_trace_and_insight() {
    let trace = Arc::new(TraceRecorder::default());
    let pulse = Pulse::new(PulseConfig {
        ntasks: NPROCS,
        window: 0.002,
        rules: builtin_rules(&RuleThresholds {
            flush_lag_budget_us: 1,
            ..RuleThresholds::default()
        }),
    });
    let fan: Arc<dyn Recorder> =
        Arc::new(FanoutRecorder::new(vec![trace.clone() as Arc<dyn Recorder>, pulse.recorder()]));
    let rig = Rig::new(APP, 3, Some(fan));
    let jsa = rig.jsa(JsaPolicy::default());
    let job = Campaign {
        mode: CkptMode::Overlapped { budget: 2 },
        ..Campaign::new(APP, "ck/pulsecheck", NITER)
    };
    let (_, summary) = job.launch(&rig, &jsa);
    assert!(summary.completed, "fault-free async run did not complete: {summary:?}");
    pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
    let report = pulse.finish();
    assert_eq!(report.dropped, 0, "bounded rings dropped samples");

    // Layer 1 vs layer 2: live pulse total equals the trace registry,
    // exactly (same u64 increments, different accumulators).
    let online = *report
        .cum_counters
        .get(names::ASYNC_FLUSH_LAG_US)
        .expect("async run emitted no flush lag");
    let metrics = trace.metrics();
    assert_eq!(online, metrics.counter_total(names::ASYNC_FLUSH_LAG_US));
    let flushes = metrics.counter_total(names::ASYNC_FLUSHES);
    assert_eq!(flushes, (NITER / CKPT_EVERY) as u64);

    // Layer 3: insight's reconstruction of the flush spans covers the same
    // lag windows. Each flush contributed `round(lag_us)` to the counter
    // and the raw float to its span, so the totals agree to half a
    // microsecond per flush.
    let analysis = Analysis::from_recorder(&trace);
    let span_lag_us: f64 = analysis
        .spans
        .iter()
        .filter(|s| s.phase == Phase::Async && s.name == "flush")
        .map(|s| s.duration())
        .sum::<f64>()
        * 1e6;
    assert!(span_lag_us > 0.0, "no flush spans reconstructed — vacuous cross-check");
    assert!(
        (online as f64 - span_lag_us).abs() <= 0.5 * flushes as f64 + 1.0,
        "flush lag diverged: counter {online}us vs insight spans {span_lag_us}us"
    );

    // The one-microsecond budget makes the built-in rule fire.
    assert!(
        report.alerts.iter().any(|a| a.rule == names::ALERT_FLUSH_LAG),
        "flush-lag alert never fired: {:?}",
        report.alerts
    );
}
