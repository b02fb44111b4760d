//! Golden-value regression tests for the solver numerics.
//!
//! The solvers are bitwise deterministic by construction; these constants
//! pin the numerics down so that any accidental change to the kernel, the
//! initial conditions, the shadow exchange, or the field inventory shows up
//! as a loud failure — the same role the NPB verification values play for
//! the real benchmarks.

use drms_apps::{bt, lu, sp, AppSpec, AppVariant, Class, MiniApp};
use drms_core::EnableFlag;
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};

/// Sum over all fields' assigned elements (in sorted global order) after
/// 3 iterations of class T, captured from the reference implementation.
const GOLDEN: &[(&str, f64)] =
    &[("bt", 76011.24000000159), ("lu", 31735.208000000064), ("sp", 44070.384000002836)];

/// FNV-1a over every assigned element — field index, point, value bits — in
/// sorted global order after 3 iterations of class T, captured from the
/// reference implementation. Unlike the sums above, a digest also sees a
/// value that moved to another point, or two errors that cancel.
const DIGESTS: &[(&str, u64)] =
    &[("bt", 0x8315_43e7_5033_a151), ("lu", 0xb872_9d8b_e33c_e027), ("sp", 0x56db_5893_ba69_5255)];

/// The same digest after 3 iterations of class S (16³) on 3 tasks, whose
/// blocks are uneven (the grid does not divide by 3), captured from the
/// point-by-point reference kernel.
const DIGESTS_S3: &[(&str, u64)] =
    &[("bt", 0x6722_1038_c573_9430), ("lu", 0xe55d_3e04_4828_8041), ("sp", 0x809d_0a63_56bb_c339)];

/// Every field's assigned elements after 3 iterations on `ntasks`, in
/// sorted global order.
fn snapshot(spec: &AppSpec, ntasks: usize) -> Vec<((usize, Vec<i64>), f64)> {
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 1);
    let spec = spec.clone();
    let out = run_spmd(ntasks, CostModel::default(), move |ctx| {
        let mut app =
            MiniApp::start(ctx, &fs, spec.clone(), AppVariant::Drms, EnableFlag::new(), None)
                .unwrap();
        for _ in 0..3 {
            app.step(ctx);
        }
        app.snapshot_assigned()
    })
    .unwrap();
    let mut all: Vec<_> = out.into_iter().flatten().collect();
    // Fixed global order so the floating-point sum is identical for every
    // task count.
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all
}

fn checksum(spec: &AppSpec, ntasks: usize) -> f64 {
    snapshot(spec, ntasks).iter().map(|(_, v)| v).sum()
}

fn digest(spec: &AppSpec, ntasks: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ((field, point), v) in snapshot(spec, ntasks) {
        let words = point.iter().map(|&x| x as u64).chain([field as u64, v.to_bits()]);
        for b in words.flat_map(u64::to_le_bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_element_matches_its_golden_digest_on_one_and_four_tasks() {
    for spec_fn in [bt as fn(Class) -> AppSpec, lu, sp] {
        let spec = spec_fn(Class::T);
        let golden = DIGESTS.iter().find(|(n, _)| *n == spec.name).unwrap().1;
        for p in [1usize, 4] {
            let got = digest(&spec, p);
            assert_eq!(got, golden, "{} on {p} tasks: digest {got:#x} vs {golden:#x}", spec.name);
        }
    }
}

#[test]
fn uneven_blocks_match_their_golden_digest() {
    for spec_fn in [bt as fn(Class) -> AppSpec, lu, sp] {
        let spec = spec_fn(Class::S);
        let golden = DIGESTS_S3.iter().find(|(n, _)| *n == spec.name).unwrap().1;
        let got = digest(&spec, 3);
        assert_eq!(got, golden, "{} class S on 3 tasks: digest {got:#x} vs {golden:#x}", spec.name);
    }
}

#[test]
fn solver_numerics_match_golden_values() {
    for spec_fn in [bt as fn(Class) -> AppSpec, lu, sp] {
        let spec = spec_fn(Class::T);
        let golden = GOLDEN.iter().find(|(n, _)| *n == spec.name).unwrap().1;
        let got = checksum(&spec, 2);
        assert!(got == golden, "{}: checksum {got:?} drifted from golden {golden:?}", spec.name);
    }
}

#[test]
fn golden_checksums_identical_for_any_task_count() {
    for spec_fn in [bt as fn(Class) -> AppSpec, lu, sp] {
        let spec = spec_fn(Class::T);
        let reference = checksum(&spec, 1);
        for p in [2usize, 3, 4, 6] {
            let got = checksum(&spec, p);
            assert!(
                got == reference,
                "{} on {p} tasks: {got:?} vs 1-task {reference:?}",
                spec.name
            );
        }
    }
}

#[test]
fn golden_values_distinguish_the_applications() {
    // A regression that collapsed the apps into the same field inventory
    // would make these collide.
    let vals: Vec<f64> = GOLDEN.iter().map(|(_, v)| *v).collect();
    assert!(vals[0] != vals[1] && vals[1] != vals[2] && vals[0] != vals[2]);
}
