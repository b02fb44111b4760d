//! Randomized failure-injection campaign (the paper's "item 3" made
//! systematic): across many seeded scenarios, processors die at arbitrary
//! iterations — sometimes repeatedly — and the JSA must always drive the
//! job to completion from checkpoints, with the final state bitwise equal
//! to an uninterrupted run.

use drms_bench::campaign::{self, policy, Campaign, Fault, Rig, NPROCS};

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

/// The seed filter, when a repro command set one.
fn seed_filter() -> Option<u64> {
    drms_bench::seed::fault_seed_env()
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

/// Runs the job under a failure schedule; returns the global checksum.
fn run_campaign(seed: u64, faults: Vec<Fault>) -> f64 {
    let rig = Rig::new("campaign", seed, None);
    let job = Campaign { faults, ..Campaign::new("campaign", "ck/campaign", NITER) };
    let (total, summary) = job.launch(&rig, &rig.jsa(policy()));
    assert!(
        summary.completed,
        "campaign seed {seed} did not complete: {summary:?}\nreproduce with: {}",
        repro_cmd(seed)
    );
    total
}

#[test]
fn campaigns_always_recover_exactly() {
    let reference = run_campaign(0, Vec::new());
    // Ground truth: sums of multiples of 0.5, so f64 addition is exact in
    // any order.
    assert_eq!(reference, campaign::FAULTS.reference(NITER));

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
