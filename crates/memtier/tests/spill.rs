//! Checkpoint hygiene against the tier's spill path when a spill is
//! interrupted mid-flight.
//!
//! The spill protocol writes data pieces first and the manifest last, so
//! dying partway always leaves a prefix with data files but no manifest —
//! simulated here by completing a spill and then dropping the manifest
//! (and, for the partial-data variant, some of the data too). Such a
//! half-spilled prefix must be:
//!
//! * invisible to `find_checkpoints` and to every restart walk,
//! * never counted as the protected newest-verified checkpoint by
//!   `retain_checkpoints`,
//! * reclaimed by `sweep_orphans` without touching healthy checkpoints.

use std::sync::Arc;

use drms_core::manifest::manifest_path;
use drms_core::segment::DataSegment;
use drms_core::{
    find_checkpoints, retain_checkpoints, sweep_orphans, Drms, DrmsConfig, EnableFlag,
};
use drms_darray::{DistArray, Distribution};
use drms_memtier::{spill_checkpoint, store_captured, store_checkpoint, MemTier, Snapshot};
use drms_msg::{run_spmd, CostModel};
use drms_obs::NullRecorder;
use drms_piofs::{Piofs, PiofsConfig};
use drms_resil::{choose_restart, verify_checkpoint};
use drms_slices::{Order, Slice};

const APP: &str = "spillt";

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(8), 23)
}

/// Runs one SPMD incarnation that stores a checkpoint into the tier under
/// each prefix in turn (SOPs 1, 2, ...) and spills every one to PIOFS.
/// Every store is repeated into a scratch tier the way the asynchronous
/// pipeline stores, capture + `store_captured`, which must produce the same
/// entry and report as the blocking `store_checkpoint` of the same state.
fn store_and_spill_all(fs: &Arc<Piofs>, tier: &Arc<MemTier>, ntasks: usize, prefixes: &[&str]) {
    let prefixes: Vec<String> = prefixes.iter().map(|p| p.to_string()).collect();
    let scratch = MemTier::new(tier.replicas());
    run_spmd(ntasks, CostModel::default(), move |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, fs, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let dom = Slice::boxed(&[(1, 24), (1, 18)]);
        let dist = Distribution::block_auto(&dom, ctx.ntasks(), 0).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(|p| (p[0] * 31 + p[1] * 7) as f64);
        let mut seg = DataSegment::new();
        for (i, prefix) in prefixes.iter().enumerate() {
            seg.set_control("iter", i as i64 + 1);
            let stored = store_checkpoint(ctx, tier, prefix, &mut drms, &seg, &[&u]).unwrap();

            let snap = Snapshot::capture(ctx, &drms, &seg, &[&u]).unwrap();
            let (manifest, lens) = (snap.manifest(Vec::new()).encode(), snap.file_lens());
            let pieces = snap.tier_pieces(scratch.piece_bytes());
            let captured =
                store_captured(ctx, &scratch, prefix, APP, snap.sop, manifest, &lens, pieces)
                    .unwrap();
            assert_eq!(
                (stored.sop, stored.bytes, stored.replica_bytes, stored.pieces),
                (captured.sop, captured.bytes, captured.replica_bytes, captured.pieces)
            );
            assert_eq!(tier.files(prefix).unwrap(), scratch.files(prefix).unwrap());
            assert_eq!(tier.min_replicas(prefix), scratch.min_replicas(prefix));
            assert_eq!(tier.manifest(prefix).unwrap(), scratch.manifest(prefix).unwrap());

            spill_checkpoint(ctx, fs, tier, prefix).unwrap();
        }
    })
    .unwrap();
}

#[test]
fn half_spilled_prefix_is_invisible_and_reclaimed() {
    let fs = fs();
    let tier = MemTier::new(1);
    store_and_spill_all(&fs, &tier, 4, &["ck/a", "ck/b"]);
    assert!(verify_checkpoint(&fs, "ck/a", &NullRecorder, 0.0).is_valid());
    assert!(verify_checkpoint(&fs, "ck/b", &NullRecorder, 0.0).is_valid());

    // Interrupt ck/b's spill mid-flight: the manifest (written last) never
    // landed, and one data file only partially arrived.
    assert!(fs.delete(&manifest_path("ck/b")));
    assert!(fs.delete("ck/b/array-u"));
    assert!(!fs.list("ck/b/").is_empty(), "half-spilled data should still be on PIOFS");

    // Invisible to discovery and to the restart walk.
    let found = find_checkpoints(&fs, Some(APP));
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, "ck/a");
    let plan = choose_restart(&fs, Some(APP), &NullRecorder, 0.0);
    assert_eq!(plan.chosen.as_ref().map(|(p, _)| p.as_str()), Some("ck/a"));
    assert_eq!(plan.fallback_depth, 0, "half-spilled prefix must not count as a fallback step");

    // Reclaimed by the orphan sweep, healthy checkpoint untouched.
    let swept = sweep_orphans(&fs);
    assert_eq!(swept, vec!["ck/b".to_string()]);
    assert!(fs.list("ck/b/").is_empty(), "orphaned spill data should be reclaimed");
    assert!(verify_checkpoint(&fs, "ck/a", &NullRecorder, 0.0).is_valid());
}

#[test]
fn half_spilled_prefix_never_counts_as_protected_newest_verified() {
    let fs = fs();
    let tier = MemTier::new(1);
    store_and_spill_all(&fs, &tier, 4, &["ck/1", "ck/2", "ck/3"]);

    // ck/2: fully spilled but silently corrupted afterwards (no parity on
    // this fs, so it stays damaged). ck/3: spill interrupted before the
    // manifest landed.
    assert!(fs.corrupt_range("ck/2/array-u", 64, 16, 0xD5) > 0);
    assert!(!verify_checkpoint(&fs, "ck/2", &NullRecorder, 0.0).is_valid());
    assert!(fs.delete(&manifest_path("ck/3")));

    // The newest *verified* checkpoint — what a restart falls back to and
    // what retention must protect — is ck/1: the half-spilled ck/3 must not
    // be counted, even though its data files are newer.
    let found: Vec<String> = find_checkpoints(&fs, Some(APP)).into_iter().map(|(p, _)| p).collect();
    assert_eq!(found, vec!["ck/2".to_string(), "ck/1".to_string()]);

    // keep=1 keeps the newest manifest (ck/2) and protects the verified
    // fallback ck/1 instead of deleting it; ck/3 is not part of retention
    // at all.
    let deleted = retain_checkpoints(&fs, APP, 1);
    assert!(deleted.is_empty(), "verified fallback must survive retention: {deleted:?}");
    assert!(fs.exists(&manifest_path("ck/1")));

    // The restart walk quarantines ck/2 and settles on ck/1 at depth 1 —
    // the half-spilled ck/3 contributes nothing to the depth.
    let plan = choose_restart(&fs, Some(APP), &NullRecorder, 0.0);
    assert_eq!(plan.chosen.as_ref().map(|(p, _)| p.as_str()), Some("ck/1"));
    assert_eq!(plan.fallback_depth, 1);
    assert_eq!(plan.quarantined, vec!["ck/2".to_string()]);

    // And the sweep reclaims exactly the half-spilled prefix.
    let swept = sweep_orphans(&fs);
    assert_eq!(swept, vec!["ck/3".to_string()]);
    assert!(fs.list("ck/3/").is_empty());
}
