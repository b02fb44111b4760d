//! Drift test for `obs::names`: every well-known metric name must be
//! emitted by at least one instrumentation site during the canonical traced
//! scenarios below. A name declared in `names::ALL` that no code path ever
//! emits is dead weight — and worse, a dashboard or baseline keyed on it
//! would silently read zero forever. The scenarios are trimmed versions of
//! the storage-fault campaigns: a degraded restart through parity
//! reconstruction, a direct scrub pass, and a memory-tier chain whose
//! survivability threshold is crossed.

use std::collections::BTreeSet;
use std::sync::Arc;

use drms::async_ckpt::{AsyncCheckpointer, AsyncConfig};
use drms::blackbox::{Blackbox, BlackboxConfig};
use drms::chaos::{ChaosCtl, CrashPoint, FaultPlan, PiofsFaults, TornWrite};
use drms::core::segment::DataSegment;
use drms::core::{CoreError, Drms, DrmsConfig, EnableFlag};
use drms::darray::{DistArray, Distribution};
use drms::memtier::{store_checkpoint, MemTier};
use drms::msg::{CostModel, Spmd};
use drms::obs::{names, FanoutRecorder, Recorder, TraceRecorder};
use drms::piofs::{Piofs, PiofsConfig, WriteReq};
use drms::pulse::{builtin_rules, heartbeat, Pulse, PulseConfig, RuleThresholds};
use drms::recover::{grow, recover, retain, shrink, Membership, StreamSource};
use drms::resil::{scrub_checkpoint, CorruptionCampaign};
use drms::slices::{Order, Slice};
use drms_bench::campaign::{
    initial, policy, Campaign, CkptMode, Fault, Rig, StorageFault, FAULTS, NPROCS,
};

const NITER: i64 = 10;
const APP: &str = "drift";

struct World {
    rig: Rig,
    rec: Arc<TraceRecorder>,
}

fn piofs(seed: u64, parity: bool) -> Arc<Piofs> {
    let cfg = if parity {
        PiofsConfig::test_tiny(NPROCS).with_parity()
    } else {
        PiofsConfig::test_tiny(NPROCS)
    };
    Piofs::new(cfg, seed)
}

/// A world whose every layer (event log, incarnations, file system)
/// reports into a fresh trace recorder. Over a file system a previous run
/// used, it continues the checkpoint chain that run left.
fn build_world(fs: Arc<Piofs>) -> World {
    let rec = Arc::new(TraceRecorder::default());
    World { rig: Rig::on(APP, fs, Some(rec.clone())), rec }
}

/// Like [`build_world`], but every layer reports into `fan` — a fan-out
/// carrying both the trace and a pulse recorder — while `rec` stays the
/// trace half for coverage extraction.
fn build_pulse_world(
    seed: u64,
    parity: bool,
    rec: Arc<TraceRecorder>,
    fan: Arc<dyn Recorder>,
) -> World {
    World { rig: Rig::on(APP, piofs(seed, parity), Some(fan)), rec }
}

/// Runs the drift job under the JSA with an optional memory tier and a
/// fault schedule. The job checkpoints every third iteration — through the
/// tier when one is attached, or overlapped through the asynchronous
/// pipeline (COW snapshot at the SOP, background flush) when `mode` says
/// so; the mode is a parameter of the job, so overlapped runs register
/// their `async.*` names through the same scenario plumbing.
fn run_job(w: &World, tier: Option<Arc<MemTier>>, faults: Vec<Fault>, mode: CkptMode) {
    let mut jsa = w.rig.jsa(policy());
    if let Some(tier) = tier {
        jsa = jsa.with_memtier(tier);
    }
    let job = Campaign { mode, faults, ..Campaign::new(APP, "ck/drift", NITER) };
    let (_, summary) = job.launch(&w.rig, &jsa);
    assert!(summary.completed, "drift job did not complete: {summary:?}");
}

/// Runs the drift job under a chaos controller: fault-injection weather at
/// every layer plus an armed crash inside the commit window. The job
/// reports injected crashes as kills, so the JSA reincarnates it from the
/// newest committed checkpoint. An optional flight recorder rides along so
/// the JSA drives its seal/salvage/recovery lifecycle, and `kill_at` fires
/// a one-shot processor kill once that iteration is reached — a token kill
/// whose unsealed ring tail nothing salvages.
fn run_chaos_job(w: &World, ctl: Arc<ChaosCtl>, bb: Option<Arc<Blackbox>>, kill_at: Option<i64>) {
    let mut jsa = w.rig.jsa(policy()).with_chaos(ctl);
    if let Some(bb) = bb {
        jsa = jsa.with_blackbox(bb);
    }
    let job = Campaign {
        faults: kill_at.map(|at| Fault::kill(at, 2)).into_iter().collect(),
        ..Campaign::new(APP, "ck/drift", NITER)
    };
    let (_, summary) = job.launch(&w.rig, &jsa);
    assert!(summary.completed, "chaos drift job did not complete: {summary:?}");
}

/// Names emitted into `rec`: every counter series plus every gauge.
fn emitted(rec: &TraceRecorder) -> BTreeSet<&'static str> {
    let m = rec.metrics();
    let mut out: BTreeSet<&'static str> = m.counters().iter().map(|(k, _)| k.name).collect();
    out.extend(m.gauges().iter().map(|((n, _), _)| *n));
    out
}

/// Union of emitted names over every canonical scenario must cover
/// `names::ALL` exactly — a newly declared name that no instrumentation
/// site emits fails here, as does a scenario regression that silences an
/// existing site.
#[test]
fn every_metric_name_is_emitted_by_some_instrumentation_site() {
    let mut covered: BTreeSet<&'static str> = BTreeSet::new();

    // Scenario 1 — degraded restart: parity striping, a PIOFS server and a
    // processor die mid-run; the restart reads lost stripes through XOR
    // reconstruction and redistributes 8 -> 7 tasks. Covers the messaging,
    // streaming, PIOFS, core, parity/reconstruction and job-retry names.
    {
        let w = build_world(piofs(11, true));
        let fault = Fault { storage: Some(StorageFault::Server(2)), ..Fault::kill(4, 3) };
        run_job(&w, None, vec![fault], CkptMode::Blocking);
        covered.extend(emitted(&w.rec));
    }

    // Scenario 2 — scrub pass: seeded corruption against the newest
    // checkpoint of a clean parity run, then a direct scrub. Covers
    // detection and parity repair.
    {
        let w = build_world(piofs(7, true));
        run_job(&w, None, Vec::new(), CkptMode::Blocking);
        let hits = CorruptionCampaign::new(0xC0FFEE, 1).apply(&w.rig.fs, "ck/drift/9");
        assert!(!hits.is_empty(), "campaign applied no corruption");
        let report = scrub_checkpoint(&w.rig.fs, "ck/drift/9", &*w.rec, 0.0);
        assert!(report.detected > 0 && report.repaired > 0, "scrub found nothing: {report:?}");
        covered.extend(emitted(&w.rec));
    }

    // Scenario 3 — memory-tier chain: a clean tier-checkpointed run (r=1,
    // no parity) leaves resident entries plus spilled durable checkpoints;
    // the durable copy of the newest is then damaged and a second run first
    // restarts out of the tier (hit), then a mass node-kill crosses the
    // survivability threshold (invalidation), falling back to the durable
    // chain past the damaged checkpoint (quarantine + fallback depth).
    {
        let w = build_world(piofs(31, false));
        let tier = MemTier::new(1);
        run_job(&w, Some(Arc::clone(&tier)), Vec::new(), CkptMode::Tier);
        covered.extend(emitted(&w.rec));

        assert!(w.rig.fs.corrupt_range("ck/drift/9/array-u", 0, 16, 13) > 0);
        let w2 = build_world(Arc::clone(&w.rig.fs));
        let mass_kill = Fault { at: 10, storage: None, victims: (0..=6).collect() };
        run_job(&w2, Some(tier), vec![mass_kill], CkptMode::Tier);
        covered.extend(emitted(&w2.rec));
    }

    // Scenario 4 — chaos: deterministic fault injection against the
    // two-phase commit. Transient I/O errors retry under backoff; a staged
    // segment write is torn and the region crashes inside the commit window
    // (abort + reincarnation + eventual commit). Covers the retry, torn,
    // crash and commit names.
    {
        let w = build_world(piofs(5, false));
        let ctl = ChaosCtl::new(FaultPlan {
            piofs: PiofsFaults {
                transient_prob: 0.3,
                torn: Some(TornWrite {
                    path_contains: ".tmp/segment".to_string(),
                    occurrence: 1,
                    keep_fraction: 0.5,
                }),
            },
            crash: Some((CrashPoint::CkptAfterSegment, 1)),
            ..FaultPlan::seeded(5)
        });
        run_chaos_job(&w, ctl, None, None);
        covered.extend(emitted(&w.rec));
    }

    // Scenario 5 — retry exhaustion and the rename no-clobber guard. A
    // certain-to-fault plan makes a collective write burn its whole attempt
    // budget and escalate (giveup); a stray rename onto a committed
    // manifest bounces off the guard into the file system's own recorder.
    {
        let rec = Arc::new(TraceRecorder::default());
        let ctl = ChaosCtl::new(FaultPlan {
            piofs: PiofsFaults { transient_prob: 1.0, torn: None },
            ..FaultPlan::seeded(17)
        });
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 17);
        Spmd::new(2, CostModel::default())
            .recorder(rec.clone())
            .chaos(ctl)
            .run(|ctx| {
                let offset = ctx.rank() as u64 * 8;
                let req = WriteReq { path: "ck/giveup/f".into(), offset, data: vec![1; 8] };
                fs.collective_write(ctx, vec![req]);
            })
            .unwrap();
        assert_eq!(fs.peek("ck/giveup/f").unwrap(), vec![1; 16], "escalated writes land");

        fs.set_recorder(rec.clone() as Arc<dyn Recorder>);
        fs.preload("ck/guard/manifest", vec![1; 8]);
        fs.preload("ck/guard/stray", vec![2; 8]);
        assert!(!fs.rename("ck/guard/stray", "ck/guard/manifest"));
        covered.extend(emitted(&rec));
    }

    // Scenario 6 — pulse: the online pipeline rides a fan-out next to the
    // trace, with thresholds tightened so every built-in rule breaches.
    // 6a is the memory-tier/parity fault run of scenario 3 re-traced live:
    // a dead PIOFS server trips the parity-degraded rule, replication 1
    // sits below the replica floor, waves skew, and the commit gaps breach
    // a tiny stall SLO. 6b is the chaos run of scenario 4, whose retry
    // weather trips the storm rule. Covers the alert names and the pulse
    // self-metrics (samples, drops, heartbeats, alert count, overhead).
    {
        let thresholds = RuleThresholds {
            ckpt_stall_slo: 0.004,
            straggler_factor: 1.0,
            straggler_min_ranks: 2,
            min_replicas: 2.0,
            ..RuleThresholds::default()
        };
        let trace = Arc::new(TraceRecorder::default());
        let pulse = Pulse::new(PulseConfig {
            ntasks: NPROCS,
            window: 0.002,
            rules: builtin_rules(&thresholds),
        });
        pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
        let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![
            trace.clone() as Arc<dyn Recorder>,
            pulse.recorder(),
        ]));
        let w = build_pulse_world(31, true, trace.clone(), fan);
        let fault = Fault { storage: Some(StorageFault::Server(2)), ..Fault::kill(4, 3) };
        run_job(&w, Some(MemTier::new(1)), vec![fault], CkptMode::Tier);
        let report = pulse.finish();
        for alert in [
            names::ALERT_CKPT_STALL,
            names::ALERT_STRAGGLER,
            names::ALERT_PARITY_DEGRADED,
            names::ALERT_REPLICA_LOSS,
        ] {
            assert!(
                report.alerts.iter().any(|a| a.rule == alert),
                "pulse rule {alert} never fired; fired: {:?}",
                report.alerts
            );
        }
        // Every heartbeat line carries the full structural field set.
        assert!(!report.heartbeats.is_empty());
        for line in &report.heartbeats {
            for f in heartbeat::fields::ALL {
                assert!(line.contains(&format!("\"{f}\":")), "heartbeat missing {f}: {line}");
            }
        }
        covered.extend(emitted(&trace));
    }
    {
        let thresholds = RuleThresholds { retry_rate: 0.001, ..RuleThresholds::default() };
        let trace = Arc::new(TraceRecorder::default());
        let pulse = Pulse::new(PulseConfig {
            ntasks: NPROCS,
            window: 0.01,
            rules: builtin_rules(&thresholds),
        });
        pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
        let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![
            trace.clone() as Arc<dyn Recorder>,
            pulse.recorder(),
        ]));
        let w = build_pulse_world(5, false, trace.clone(), fan);
        let ctl = ChaosCtl::new(FaultPlan {
            piofs: PiofsFaults { transient_prob: 0.3, torn: None },
            ..FaultPlan::seeded(5)
        });
        run_chaos_job(&w, ctl, None, None);
        let report = pulse.finish();
        assert!(
            report.alerts.iter().any(|a| a.rule == names::ALERT_RETRY_STORM),
            "retry storm never fired; fired: {:?}",
            report.alerts
        );
        covered.extend(emitted(&trace));
    }

    // Scenario 7 — incremental checkpointing: the drift job's links taken
    // as a delta chain on the fault field, where every link after the
    // first dirties every chunk (the collapse case), traced live through a
    // pulse fan-out so the delta-ratio-collapse rule fires. Covers the
    // delta counters/gauges and the collapse alert name.
    {
        let trace = Arc::new(TraceRecorder::default());
        let pulse = Pulse::new(PulseConfig {
            ntasks: NPROCS,
            window: 0.002,
            rules: builtin_rules(&RuleThresholds::default()),
        });
        pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
        let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![
            trace.clone() as Arc<dyn Recorder>,
            pulse.recorder(),
        ]));
        let w = build_pulse_world(7, false, trace.clone(), fan);
        run_job(&w, None, Vec::new(), CkptMode::Delta);
        let report = pulse.finish();
        assert!(
            report.alerts.iter().any(|a| a.rule == names::ALERT_DELTA_COLLAPSE),
            "delta-collapse rule never fired; fired: {:?}",
            report.alerts
        );
        covered.extend(emitted(&trace));
    }

    // Scenario 8 — asynchronous pipeline: the fault-free drift run
    // overlapped through the async checkpointer under a one-microsecond
    // flush-lag budget, so the flush-lag rule fires on the first settled
    // window holding a commit. Covers the snapshot/flush counters, the
    // in-flight and overlap gauges, and the flush-lag alert; a budget-1
    // back-to-back pair plus a flush-side chaos crash then cover the
    // backpressure and abort names.
    {
        let thresholds = RuleThresholds { flush_lag_budget_us: 1, ..RuleThresholds::default() };
        let trace = Arc::new(TraceRecorder::default());
        let pulse = Pulse::new(PulseConfig {
            ntasks: NPROCS,
            window: 0.002,
            rules: builtin_rules(&thresholds),
        });
        pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
        let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![
            trace.clone() as Arc<dyn Recorder>,
            pulse.recorder(),
        ]));
        let w = build_pulse_world(23, false, trace.clone(), fan);
        run_job(&w, None, Vec::new(), CkptMode::Overlapped { budget: 1 });
        let report = pulse.finish();
        assert!(
            report.alerts.iter().any(|a| a.rule == names::ALERT_FLUSH_LAG),
            "flush-lag rule never fired; fired: {:?}",
            report.alerts
        );
        covered.extend(emitted(&trace));

        let rec = Arc::new(TraceRecorder::default());
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 23);
        fs.set_recorder(rec.clone() as Arc<dyn Recorder>);
        // The first flush consults FlushAfterSegment once and commits; the
        // second consult arms the crash, so checkpoint 2 stalls on the
        // budget-1 pipeline (backpressure names) and then aborts its flush
        // (abort name).
        let ctl = ChaosCtl::new(FaultPlan {
            crash: Some((CrashPoint::FlushAfterSegment, 2)),
            ..FaultPlan::seeded(23)
        });
        Spmd::new(2, CostModel::default())
            .recorder(rec.clone())
            .chaos(ctl)
            .run(|ctx| {
                let (mut drms, _) =
                    Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), None)
                        .unwrap();
                let dom = Slice::boxed(&[(1, 2048)]);
                let dist = Distribution::block_auto(&dom, ctx.ntasks(), 1).unwrap();
                let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
                u.fill_assigned(|p| (p[0] * 7) as f64);
                let seg = DataSegment::new();
                let mut ck = AsyncCheckpointer::new(AsyncConfig { budget: 1 });
                ck.checkpoint(ctx, &fs, &mut drms, "ck/a1", &seg, &[&u], None).unwrap();
                match ck.checkpoint(ctx, &fs, &mut drms, "ck/a2", &seg, &[&u], None) {
                    Err(e) if e.is_interrupted() => {}
                    other => panic!("armed flush crash never fired: {other:?}"),
                }
            })
            .unwrap();
        let names_seen = emitted(&rec);
        for name in
            [names::ASYNC_BACKPRESSURE_STALLS, names::ASYNC_STALL_US, names::ASYNC_FLUSH_ABORTS]
        {
            assert!(names_seen.contains(name), "budget-1 crash pair never emitted {name}");
        }
        covered.extend(names_seen);
    }

    // Scenario 9 — blackbox: the commit-window chaos crash of scenario 4
    // re-run with a tiny-capacity flight recorder on the fan-out and the
    // JSA driving its lifecycle. The 64-event rings overflow between SOPs
    // (captured + evicted), every SOP seal stages a ring file through the
    // two-phase commit (seals + seal bytes), the armed crash salvages the
    // live rings (salvages), the killed incarnation's unsealed tail is
    // audited (dropped), restart ingests the committed rings and salvages
    // (rings recovered), and the re-published recovery-ratio gauge trips
    // the recovery-budget rule on the pulse riding the same fan-out.
    {
        let thresholds = RuleThresholds { recovery_budget: 0.05, ..RuleThresholds::default() };
        let trace = Arc::new(TraceRecorder::default());
        let pulse = Pulse::new(PulseConfig {
            ntasks: NPROCS,
            window: 0.002,
            rules: builtin_rules(&thresholds),
        });
        pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
        let bb = Arc::new(Blackbox::new(
            BlackboxConfig { capacity: 64, detection_latency: 1e-4 },
            NPROCS,
        ));
        let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![
            trace.clone() as Arc<dyn Recorder>,
            bb.clone() as Arc<dyn Recorder>,
            pulse.recorder(),
        ]));
        let w = build_pulse_world(5, false, trace.clone(), fan);
        let ctl = ChaosCtl::new(FaultPlan {
            crash: Some((CrashPoint::CkptMidPublish, 1)),
            ..FaultPlan::seeded(5)
        });
        run_chaos_job(&w, ctl, Some(Arc::clone(&bb)), Some(7));
        let report = pulse.finish();
        assert!(
            report.alerts.iter().any(|a| a.rule == names::ALERT_RECOVERY_BUDGET),
            "recovery-budget rule never fired; fired: {:?}",
            report.alerts
        );
        assert!(bb.incarnations().len() >= 2, "chaos crash never reincarnated");
        covered.extend(emitted(&trace));
    }

    // Scenario 10 — localized recovery: the survivor-driven restore path
    // end to end on a pulse fan-out. A memtier-hit recovery (epoch gauge,
    // localized/section counters, replica + survivor + retained bytes), a
    // PIOFS section-read fallback (piofs bytes), an online shrink/grow
    // cycle (resizes), and finally an escalation to a verified full
    // restart, whose counter trips the recovery-degraded rule live.
    {
        let trace = Arc::new(TraceRecorder::default());
        let pulse = Pulse::new(PulseConfig {
            ntasks: NPROCS,
            window: 0.002,
            rules: builtin_rules(&RuleThresholds::default()),
        });
        pulse.set_sink(trace.clone() as Arc<dyn Recorder>);
        let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![
            trace.clone() as Arc<dyn Recorder>,
            pulse.recorder(),
        ]));
        let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), 41);
        fs.set_recorder(fan.clone());
        let tier = MemTier::new(2);
        let ctl = ChaosCtl::new(FaultPlan::seeded(41));
        Spmd::new(NPROCS, CostModel::default())
            .recorder(fan)
            .chaos(ctl)
            .run(|ctx| {
                let (mut drms, _) =
                    Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), None)
                        .unwrap();
                let dist = Distribution::block_auto(&FAULTS.domain(), ctx.ntasks(), 1).unwrap();
                let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
                u.fill_assigned(initial);
                let mut seg = DataSegment::new();

                // (a) Memtier-hit localized recovery: node 2's sections are
                // lost, the tier's replicas serve them, PIOFS is never read.
                seg.set_control("iter", 3);
                store_checkpoint(ctx, &tier, "ck/r3", &mut drms, &seg, &[&u]).unwrap();
                let retained = retain(ctx, "ck/r3", 3, &[&u]);
                u.fill_assigned(|p| initial(p) + 1.5);
                if ctx.rank() == 0 {
                    tier.fail_node(2);
                }
                ctx.barrier();
                let m0 = Membership::initial(ctx.ntasks());
                let (m1, rep) = recover(
                    ctx,
                    &fs,
                    Some(&tier),
                    &retained,
                    &m0,
                    &[2],
                    &mut [&mut u],
                    ctx.ntasks(),
                )
                .unwrap();
                assert_eq!(rep.source, StreamSource::Replica);
                assert_eq!(rep.piofs_bytes, 0);

                // (b) PIOFS fallback: a durable checkpoint serves the next
                // loss through manifest-ranged section reads.
                seg.set_control("iter", 6);
                drms.reconfig_checkpoint(ctx, &fs, "ck/r6", &seg, &[&u]).unwrap();
                let retained = retain(ctx, "ck/r6", 6, &[&u]);
                let (m2, rep) =
                    recover(ctx, &fs, None, &retained, &m1, &[4], &mut [&mut u], ctx.ntasks())
                        .unwrap();
                assert_eq!(rep.source, StreamSource::PiofsFull);
                assert!(rep.piofs_bytes > 0);

                // (c) Online shrink/grow at an SOP: zero storage I/O.
                let m3 = shrink(ctx, &m2, 5, &mut [&mut u]).unwrap();
                let m4 = grow(ctx, &m3, ctx.ntasks(), &mut [&mut u]).unwrap();

                // (d) Nothing can serve a never-written checkpoint: the
                // protocol escalates to a verified full restart.
                let retained = retain(ctx, "ck/never", 9, &[&u]);
                let err =
                    recover(ctx, &fs, None, &retained, &m4, &[1], &mut [&mut u], ctx.ntasks())
                        .unwrap_err();
                assert!(matches!(err, CoreError::Escalate(_)));
            })
            .unwrap();
        let report = pulse.finish();
        assert!(
            report.alerts.iter().any(|a| a.rule == names::ALERT_RECOVERY_DEGRADED),
            "recovery-degraded rule never fired; fired: {:?}",
            report.alerts
        );
        let names_seen = emitted(&trace);
        for name in [
            names::RECOVER_EPOCH,
            names::RECOVER_LOCALIZED,
            names::RECOVER_FULL_RESTARTS,
            names::RECOVER_SECTIONS,
            names::RECOVER_REPLICA_BYTES,
            names::RECOVER_PIOFS_BYTES,
            names::RECOVER_SURVIVOR_BYTES,
            names::RECOVER_RETAIN_BYTES,
            names::RECOVER_RESIZES,
        ] {
            assert!(names_seen.contains(name), "localized-recovery scenario never emitted {name}");
        }
        covered.extend(names_seen);
    }

    let missing: Vec<&str> = names::ALL.iter().copied().filter(|n| !covered.contains(n)).collect();
    assert!(
        missing.is_empty(),
        "metric names declared in obs::names but never emitted by any \
         instrumentation site across the canonical scenarios: {missing:?}"
    );

    // The inverse direction: the scenarios must not emit names that are
    // missing from the declared list (instrumentation drifting ahead of
    // `names::ALL`).
    let undeclared: Vec<&str> =
        covered.iter().copied().filter(|n| !names::ALL.contains(n)).collect();
    assert!(undeclared.is_empty(), "emitted metric names missing from names::ALL: {undeclared:?}");
}
