//! Checkpoint lifecycle management: multiple concurrent prefixes, deletion,
//! and keep-newest-k retention.

use std::sync::Arc;

use drms_core::segment::DataSegment;
use drms_core::{
    delete_checkpoint, find_checkpoints, retain_checkpoints, sweep_orphans, verify, Drms,
    DrmsConfig, EnableFlag,
};
use drms_darray::{DistArray, Distribution};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

fn take_checkpoints(fs: &Arc<Piofs>, prefixes: &[&str]) {
    let dom = Slice::boxed(&[(0, 15)]);
    run_spmd(2, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, fs, DrmsConfig::new("gc"), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&dom, 2, 0).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(|p| p[0] as f64);
        let mut seg = DataSegment::new();
        for (i, prefix) in prefixes.iter().enumerate() {
            seg.set_control("iter", i as i64);
            drms.reconfig_checkpoint(ctx, fs, prefix, &seg, &[&u]).unwrap();
        }
    })
    .unwrap();
}

#[test]
fn delete_removes_all_files() {
    let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
    take_checkpoints(&fs, &["ck/a", "ck/b"]);
    assert!(fs.exists("ck/a/manifest"));
    assert!(fs.exists("ck/a/segment"));
    assert!(fs.exists("ck/a/array-u"));

    assert!(delete_checkpoint(&fs, "ck/a"));
    assert!(fs.list("ck/a/").is_empty(), "all files under the prefix removed");
    // The sibling checkpoint is untouched.
    assert!(fs.exists("ck/b/manifest"));
    assert_eq!(find_checkpoints(&fs, Some("gc")).len(), 1);

    // Deleting again reports absence.
    assert!(!delete_checkpoint(&fs, "ck/a"));
}

#[test]
fn retention_keeps_newest() {
    let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
    take_checkpoints(&fs, &["ck/1", "ck/2", "ck/3", "ck/4"]);
    assert_eq!(find_checkpoints(&fs, Some("gc")).len(), 4);

    let deleted = retain_checkpoints(&fs, "gc", 2);
    assert_eq!(deleted.len(), 2);
    let remaining = find_checkpoints(&fs, Some("gc"));
    assert_eq!(remaining.len(), 2);
    // Newest two SOPs survive.
    let prefixes: Vec<&str> = remaining.iter().map(|(p, _)| p.as_str()).collect();
    assert!(prefixes.contains(&"ck/4"));
    assert!(prefixes.contains(&"ck/3"));
    assert!(deleted.contains(&"ck/1".to_string()));
    assert!(deleted.contains(&"ck/2".to_string()));
}

#[test]
fn interrupted_deletion_leaves_no_permanent_orphans() {
    let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
    take_checkpoints(&fs, &["ck/a", "ck/b"]);

    // Simulate a deletion that died right after removing the manifest: the
    // data files are stranded, but invisible to discovery.
    assert!(fs.delete("ck/a/manifest"));
    assert!(!fs.list("ck/a/").is_empty(), "data files stranded");
    assert_eq!(find_checkpoints(&fs, Some("gc")).len(), 1);

    // The orphan sweep reclaims exactly the stranded prefix.
    let swept = sweep_orphans(&fs);
    assert_eq!(swept, vec!["ck/a".to_string()]);
    assert!(fs.list("ck/a/").is_empty(), "orphaned data reclaimed");
    assert!(fs.exists("ck/b/manifest"), "live checkpoint untouched");
    assert!(fs.exists("ck/b/segment"));

    // A second sweep finds nothing.
    assert!(sweep_orphans(&fs).is_empty());
}

#[test]
fn quarantined_checkpoints_survive_the_orphan_sweep() {
    let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
    take_checkpoints(&fs, &["ck/q"]);
    // Quarantine: the manifest is renamed aside, so discovery skips the
    // checkpoint, but its data is deliberately preserved for diagnosis.
    assert!(fs.rename("ck/q/manifest", "ck/q/manifest.quarantined"));
    assert!(find_checkpoints(&fs, Some("gc")).is_empty());
    assert!(sweep_orphans(&fs).is_empty());
    assert!(fs.exists("ck/q/segment"), "quarantined data preserved");
    assert!(fs.exists("ck/q/array-u"));
}

#[test]
fn retention_never_collects_the_newest_verified_checkpoint() {
    let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
    take_checkpoints(&fs, &["ck/1", "ck/2", "ck/3"]);

    // Silently corrupt the newest checkpoint's segment: it still *looks*
    // complete (manifest + files present) but fails chunk verification.
    assert!(fs.corrupt_range("ck/3/segment", 0, 16, 7) > 0);
    assert!(!verify(&fs, "ck/3").is_valid());
    assert!(verify(&fs, "ck/2").is_valid());

    // keep=1 would classically retain only corrupt ck/3 — but ck/2 is what
    // a restart falls back to, so it must survive the collection.
    let deleted = retain_checkpoints(&fs, "gc", 1);
    assert_eq!(deleted, vec!["ck/1".to_string()]);
    let remaining: Vec<String> =
        find_checkpoints(&fs, Some("gc")).into_iter().map(|(p, _)| p).collect();
    assert!(remaining.contains(&"ck/2".to_string()), "fallback checkpoint protected");
    assert!(remaining.contains(&"ck/3".to_string()));
}

#[test]
fn retention_is_per_application() {
    let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
    take_checkpoints(&fs, &["ck/x"]);
    // A second app's checkpoint must not be collected by the first's policy.
    let dom = Slice::boxed(&[(0, 7)]);
    run_spmd(1, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs, DrmsConfig::new("other"), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&dom, 1, 0).unwrap();
        let u = DistArray::<f64>::new("v", Order::ColumnMajor, dist, 0);
        drms.reconfig_checkpoint(ctx, &fs, "ck/other", &DataSegment::new(), &[&u]).unwrap();
    })
    .unwrap();

    let deleted = retain_checkpoints(&fs, "gc", 0);
    assert_eq!(deleted, vec!["ck/x".to_string()]);
    assert_eq!(find_checkpoints(&fs, Some("other")).len(), 1);
}
