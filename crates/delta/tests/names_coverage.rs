//! Observability coverage: a traced delta scenario emits every `delta.*`
//! metric declared in `names::ALL`, and the built-in pulse rule fires when
//! the dirty-chunk ratio collapses (deltas no longer save anything).

use std::sync::Arc;

use drms_chaos::{ChaosCtl, FaultPlan};
use drms_core::segment::DataSegment;
use drms_core::{Drms, DrmsConfig, EnableFlag};
use drms_darray::{DistArray, Distribution};
use drms_delta::{delta_checkpoint, DeltaChain, DeltaConfig};
use drms_msg::{CostModel, Spmd};
use drms_obs::{names, Recorder, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig};
use drms_pulse::{Pulse, PulseConfig};
use drms_slices::{Order, Slice};

const N: i64 = 2048;

fn domain() -> Slice {
    Slice::boxed(&[(1, N)])
}

/// Two delta checkpoints under `recorder`: a full rewrite, then a delta in
/// which *every* chunk is dirty (the collapse case — carrying nothing
/// forward, dirty ratio 1.0).
fn collapse_scenario(recorder: Arc<dyn Recorder>) {
    let f = Piofs::new(PiofsConfig::test_tiny(4), 7);
    let ctl = ChaosCtl::new(FaultPlan::seeded(1));
    Spmd::new(2, CostModel::default())
        .recorder(recorder)
        .chaos(ctl)
        .run(|ctx| {
            let (mut drms, _) =
                Drms::initialize(ctx, &f, DrmsConfig::new("cov"), EnableFlag::new(), None).unwrap();
            let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
            let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            u.fill_assigned(|p| (p[0] * 11) as f64);
            let mut chain = DeltaChain::new();
            let dc = DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true };
            let seg = DataSegment::new();
            delta_checkpoint(&mut drms, &mut chain, &dc, ctx, &f, "ck/n1", &seg, &[&u]).unwrap();
            // Touch every element: every chunk of the next delta is dirty.
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 1.0).unwrap();
            });
            let r = delta_checkpoint(&mut drms, &mut chain, &dc, ctx, &f, "ck/n2", &seg, &[&u])
                .unwrap();
            if ctx.rank() == 0 {
                assert!(!r.full);
                assert_eq!(r.clean_chunks, 0);
                assert_eq!(r.dirty_ratio(), 1.0);
            }
        })
        .unwrap();
}

#[test]
fn traced_delta_scenario_covers_every_delta_metric() {
    let rec = Arc::new(TraceRecorder::default());
    collapse_scenario(rec.clone());
    let metrics = rec.metrics();
    let counters: std::collections::BTreeSet<&str> =
        metrics.counters().into_iter().map(|(k, _)| k.name).collect();
    let gauges: std::collections::BTreeSet<&str> =
        metrics.gauges().into_iter().map(|((name, _), _)| name).collect();
    let delta_names: Vec<&str> =
        names::ALL.iter().copied().filter(|n| n.starts_with("delta.")).collect();
    assert!(!delta_names.is_empty(), "no delta metrics declared");
    for name in delta_names {
        assert!(
            counters.contains(name) || gauges.contains(name),
            "declared metric {name:?} was not emitted by the traced delta scenario \
             (counters: {counters:?}, gauges: {gauges:?})"
        );
    }
    // Spot-check the load-bearing ones.
    assert!(metrics.counter_total(names::DELTA_FULL_REWRITES) >= 1);
    assert!(metrics.counter_total(names::DELTA_BYTES_WRITTEN) > 0);
    assert_eq!(metrics.gauge(names::DELTA_DIRTY_RATIO, 0), Some(1.0));
    assert_eq!(metrics.gauge(names::DELTA_CHAIN_DEPTH, 0), Some(1.0));
}

#[test]
fn builtin_pulse_rule_fires_on_delta_ratio_collapse() {
    // The default rule set watches `delta.dirty_ratio` with a 0.9 ceiling;
    // the collapse scenario drives it to 1.0 through the real pipeline.
    let pulse = Pulse::new(PulseConfig { ntasks: 2, window: 1e-4, ..PulseConfig::default() });
    collapse_scenario(pulse.recorder());
    let report = pulse.finish();
    assert!(
        report.alerts.iter().any(|a| a.rule == names::ALERT_DELTA_COLLAPSE),
        "delta-collapse alert did not fire: {:?}",
        report.alerts
    );
    // One continuous breach fires exactly once.
    let fired = report.alerts.iter().filter(|a| a.rule == names::ALERT_DELTA_COLLAPSE).count();
    assert_eq!(fired, 1, "collapse alert fired {fired} times for one breach");
}
