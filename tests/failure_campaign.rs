//! Randomized failure-injection campaign (the paper's "item 3" made
//! systematic): across many seeded scenarios, processors die at arbitrary
//! iterations — sometimes repeatedly — and the JSA must always drive the
//! job to completion from checkpoints, with the final state bitwise equal
//! to an uninterrupted run.

use drms_bench::campaign::{policy, Campaign, Fault, Rig, NPROCS};
use drms_bench::seed::fault_seed_env;

const NITER: i64 = 10;

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

/// A tiny deterministic RNG for the campaign schedule.
fn schedule(seed: u64, nfails: usize) -> Vec<Fault> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    (0..nfails)
        .map(|_| Fault::kill(1 + next(NITER as u64 - 1) as i64, next(NPROCS as u64) as usize))
        .collect()
}

/// Runs the job under a failure schedule and checks it recovered bitwise.
fn run_campaign(seed: u64, faults: Vec<Fault>) {
    let rig = Rig::new("campaign", seed, None);
    let job = Campaign { faults, ..Campaign::new("campaign", "ck/campaign", NITER) };
    let what = format!("campaign seed {seed} (schedule {:?})", job.faults);
    job.launch(&rig, &rig.jsa(policy())).assert_recovered(&job, &what, &repro_cmd(seed));
}

#[test]
fn campaigns_always_recover_exactly() {
    // Ground truth: the uninterrupted run ends on the closed form (sums of
    // multiples of 0.5, so f64 addition is exact in any order).
    run_campaign(0, Vec::new());

    for &seed in CAMPAIGN_SEEDS {
        if fault_seed_env().is_some_and(|only| only != seed) {
            continue;
        }
        let nfails = 1 + (seed as usize % 3);
        run_campaign(seed, schedule(seed, nfails));
    }
}
