//! Randomized failure-injection campaign (the paper's "item 3" made
//! systematic): across many seeded scenarios, processors die at arbitrary
//! iterations — sometimes repeatedly — and the JSA must always drive the
//! job to completion from checkpoints, with the final state bitwise equal
//! to an uninterrupted run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms::core::segment::DataSegment;
use drms::core::{Drms, DrmsConfig};
use drms::darray::{DistArray, Distribution};
use drms::msg::CostModel;
use drms::piofs::{Piofs, PiofsConfig};
use drms::rtenv::{EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ResourceCoordinator};
use drms::slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 10;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;

/// Every campaign seed is pinned here, in the test body — no ambient,
/// time-based, or derived seeding anywhere in this file — so a failing
/// campaign always names its seed and reproduces with one command.
const CAMPAIGN_SEEDS: &[u64] = &[1, 2, 3, 4, 5, 6];

/// The one-command repro printed by every campaign assertion, in the
/// repo-wide `FAULT_SEED` convention shared with the chaos and
/// storage-fault campaigns: it narrows the suite to the failing seed.
fn repro_cmd(seed: u64) -> String {
    drms_bench::seed::test_repro("failure_campaign", seed)
}

/// The seed filter, when a repro command set one. The shared helper also
/// honors `FAILURE_CAMPAIGN_SEED` as a legacy spelling.
fn seed_filter() -> Option<u64> {
    drms_bench::seed::fault_seed_env()
}

fn domain() -> Slice {
    Slice::boxed(&[(1, 18), (1, 14)])
}

/// A tiny deterministic RNG for the campaign schedule.
fn schedule(seed: u64, nfails: usize) -> Vec<(i64, usize)> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    (0..nfails).map(|_| (1 + next(NITER as u64 - 1) as i64, next(NPROCS as u64) as usize)).collect()
}

/// Runs the job under a failure schedule; returns the global checksum.
fn run_campaign(seed: u64, fails: Vec<(i64, usize)>) -> f64 {
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), seed);
    let cfg = DrmsConfig::new("campaign");
    Drms::install_binary(&fs, &cfg);
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log,
        CostModel::default(),
        // Repair when starved so heavy schedules (many dead processors)
        // still finish — recovery first restarts on what's left, and only
        // repairs when nothing is left.
        JsaPolicy { repair_when_starved: true, ..Default::default() },
    );

    let injected = Arc::new(AtomicUsize::new(0));
    let out = Arc::new(Mutex::new(Vec::new()));
    let rc2 = Arc::clone(&rc);
    let injected2 = Arc::clone(&injected);
    let out2 = Arc::clone(&out);
    let fails = Arc::new(fails);

    let job = JobSpec::new("campaign", (1, NPROCS), move |ctx, env| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new("campaign"), &mut [&mut u])
        {
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
                drms.reconfig_checkpoint(ctx, &env.fs, &format!("ck/campaign/{iter}"), &seg, &[&u])
                    .unwrap();
            }
            // Injection: the next scheduled failure fires once its
            // iteration is reached (skipping already-dead processors).
            if ctx.rank() == 0 {
                let k = injected2.load(Ordering::SeqCst);
                if let Some(&(at, victim)) = fails.get(k) {
                    if iter >= at {
                        injected2.store(k + 1, Ordering::SeqCst);
                        if rc2.state_of(victim) != drms::rtenv::ProcessorState::Failed {
                            rc2.fail_processor(victim);
                        }
                    }
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
    assert!(
        summary.completed,
        "campaign seed {seed} did not complete: {summary:?}\nreproduce with: {}",
        repro_cmd(seed)
    );
    let total: f64 = out.lock().iter().sum();
    total
}

#[test]
fn campaigns_always_recover_exactly() {
    let reference = run_campaign(0, Vec::new());
    // Ground truth: integer-valued sums, so f64 addition is exact in any
    // order.
    let expect: f64 = {
        let mut s = 0.0;
        domain().points(Order::ColumnMajor).for_each(|p| {
            s += (p[0] * 13 + p[1] * 3) as f64 + NITER as f64 * 1.5;
        });
        s
    };
    assert_eq!(reference, expect);

    for &seed in CAMPAIGN_SEEDS {
        if seed_filter().is_some_and(|only| only != seed) {
            continue;
        }
        let nfails = 1 + (seed as usize % 3);
        let fails = schedule(seed, nfails);
        let got = run_campaign(seed, fails.clone());
        assert_eq!(
            got,
            reference,
            "campaign seed {seed} (schedule {fails:?}) diverged from the uninterrupted run\nreproduce with: {}",
            repro_cmd(seed)
        );
    }
}
