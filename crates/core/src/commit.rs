//! Crash-consistent two-phase checkpoint commit.
//!
//! A checkpoint interrupted mid-write must never be mistaken for a
//! restartable state. The commit protocol makes the manifest rename the
//! single atomic commit point:
//!
//! 1. **Stage.** All checkpoint data (segment, array streams) is written
//!    under the *staging prefix* `{prefix}.tmp`, and the manifest is staged
//!    as `{prefix}.tmp/manifest.tmp`. Nothing under a staging prefix is a
//!    committed checkpoint: discovery ([`crate::find_checkpoints`]) keys on
//!    `{prefix}/manifest` paths, and `manifest.tmp` never matches.
//! 2. **Publish data.** Any previously committed manifest at `prefix` is
//!    deleted first — an explicit *uncommit*, required because
//!    [`Piofs::rename`] refuses to clobber a committed manifest — then the
//!    staged data files are renamed into the final prefix. A crash in this
//!    window leaves data without a manifest: invisible to discovery,
//!    reclaimed by [`crate::sweep_orphans`].
//! 3. **Commit.** The staged manifest is renamed to `{prefix}/manifest`.
//!    Renames are atomic namespace operations, so the checkpoint flips from
//!    "does not exist" to "complete and verified-able" in one step.
//!
//! The free functions here are rank-0 control-plane operations (no clock):
//! the data movement was already priced while staging, and the paper's PIOFS
//! charges nothing for metadata renames.
//! [`Commit`] is the one collective driver of the protocol.

use drms_chaos::CommitPoints;
use drms_msg::Ctx;
use drms_obs::{markers, names, Phase};
use drms_piofs::{Piofs, PiofsError};

use crate::drms::{integrity_chunk, stage_flight_rings};
use crate::inject::crash_point;
use crate::manifest::{manifest_path, segment_path, FileIntegrity, Manifest};
use crate::Result;

/// The staging prefix for checkpoints being written to `prefix`. Chosen so
/// no staged file can collide with a committed checkpoint path and so
/// `{staging}/manifest` is never created (the staged manifest is
/// `manifest.tmp`).
pub fn staging_prefix(prefix: &str) -> String {
    format!("{prefix}.tmp")
}

/// Where a checkpoint to `prefix` stages its manifest. The `.tmp` name
/// keeps it invisible to checkpoint discovery and excluded from integrity
/// records (which skip `manifest.*`).
pub fn staged_manifest_path(prefix: &str) -> String {
    format!("{}/manifest.tmp", staging_prefix(prefix))
}

/// Computes integrity records for the checkpoint as it will exist *after*
/// publication: the union of data files staged under `{prefix}.tmp` and
/// files already committed under `prefix`, with staged files winning name
/// collisions. Every mode restages all of its own files, so the union only
/// matters when an overwritten prefix holds files the new checkpoint does
/// not write (flight rings, another array set); it is kept so such
/// overwrite-in-place manifests stay byte-identical.
pub fn compute_integrity_staged(fs: &Piofs, prefix: &str) -> Vec<FileIntegrity> {
    integrity_of(fs, &[format!("{prefix}/"), format!("{}/", staging_prefix(prefix))])
}

/// Integrity records for the data files under `dirs` (manifests and
/// quarantine markers, `manifest*`, excluded), named relative to their
/// directory; a later directory wins a name collision. In name order, so the
/// encoded manifest is deterministic.
///
/// A record is what [`FileIntegrity::compute`] gives over the file's logical
/// bytes, and a file those bytes cannot be served for is left out. Each one
/// comes from [`Piofs::take_integrity`]: folded from the CRCs the file's
/// writers computed when it was `create`d, read back otherwise. Debug builds
/// check every folded record against the read.
pub(crate) fn integrity_of(fs: &Piofs, dirs: &[String]) -> Vec<FileIntegrity> {
    let chunk = integrity_chunk(fs);
    let mut by_name = std::collections::BTreeMap::new();
    for dir in dirs {
        by_name.extend(fs.list(dir).into_iter().map(|i| (i.path[dir.len()..].to_string(), i.path)));
    }
    by_name
        .into_iter()
        .filter(|(name, _)| name != "manifest" && !name.starts_with("manifest."))
        .filter_map(|(name, path)| {
            let rec = fs.take_integrity(&path)?;
            let fi = FileIntegrity { name, len: rec.len, chunk, crcs: rec.crcs, whole: rec.whole };
            if cfg!(debug_assertions) && rec.folded {
                let read = fs.bytes(&path).map(|b| FileIntegrity::compute(&fi.name, &b, chunk));
                debug_assert_eq!(Some(&fi), read.as_ref(), "the slot fold of {path}");
            }
            Some(fi)
        })
        .collect()
}

/// Publishes the staged data files of a checkpoint into their final prefix.
/// Deletes any previously committed manifest at `prefix` first (the
/// explicit uncommit), so a crash between here and [`publish_manifest`]
/// leaves only manifest-less data for the orphan sweep. Returns the number
/// of files moved. Rank-0 control-plane operation.
pub fn publish_data(fs: &Piofs, prefix: &str) -> usize {
    fs.delete(&manifest_path(prefix));
    publish_staged_files(fs, prefix, "manifest.tmp")
}

/// Renames every file staged under `{prefix}.tmp/` into `{prefix}/`, except
/// the staged commit marker `marker`, whose own rename is the caller's
/// commit point. Returns the number of files moved.
pub fn publish_staged_files(fs: &Piofs, prefix: &str, marker: &str) -> usize {
    let staged_dir = format!("{}/", staging_prefix(prefix));
    let mut moved = 0;
    for info in fs.list(&staged_dir) {
        let name = &info.path[staged_dir.len()..];
        if name != marker && fs.rename(&info.path, &format!("{prefix}/{name}")) {
            moved += 1;
        }
    }
    moved
}

/// The commit point: renames the staged manifest to `{prefix}/manifest`,
/// atomically flipping the checkpoint to committed. Returns `false` when
/// there is no staged manifest or a committed manifest still occupies the
/// target (i.e. [`publish_data`] did not run). Rank-0 control-plane
/// operation.
pub fn publish_manifest(fs: &Piofs, prefix: &str) -> bool {
    fs.rename(&staged_manifest_path(prefix), &manifest_path(prefix))
}

/// Abandons a staged checkpoint: deletes everything under its staging
/// prefix. Crashed attempts that never get this courtesy are reclaimed by
/// [`crate::sweep_orphans`] instead. Returns the number of files removed.
pub fn abort_staged(fs: &Piofs, prefix: &str) -> usize {
    let staged_dir = format!("{}/", staging_prefix(prefix));
    let mut removed = 0;
    for info in fs.list(&staged_dir) {
        if fs.delete(&info.path) {
            removed += 1;
        }
    }
    removed
}

/// One two-phase commit to `prefix`, driven collectively by every task.
///
/// A checkpoint mode supplies three things and nothing else: the encoded
/// segment, the code that stages its array bytes under [`Commit::staging`]
/// (reporting each array with [`Commit::array_staged`]) followed by the
/// barrier that closes its data phase, and the manifest to wrap around the
/// integrity records. The driver owns the rest — segment write, flight-ring
/// staging, staged manifest, data publish, manifest rename, commit counter
/// and flight marker, and the consultation of every crash point of the
/// `points` family in between.
pub struct Commit<'a> {
    fs: &'a Piofs,
    prefix: &'a str,
    staging: String,
    points: &'static CommitPoints,
}

impl<'a> Commit<'a> {
    /// A commit to `prefix` consulting the `points` crash-point family.
    /// Touches nothing on storage.
    pub fn new(fs: &'a Piofs, prefix: &'a str, points: &'static CommitPoints) -> Commit<'a> {
        Commit { fs, prefix, staging: staging_prefix(prefix), points }
    }

    /// The staging prefix the mode writes its array bytes under.
    pub fn staging(&self) -> &str {
        &self.staging
    }

    /// Phase 1: the representative task stages the data segment (`segment`
    /// is read on rank 0 only, and rank 0 without one fails with
    /// [`PiofsError::NotFound`] for it), then all tasks synchronize. The
    /// encoded segment is handed over by value: it fills its reserved file
    /// whole, so the store adopts the buffer instead of copying it.
    pub fn stage_segment(&self, ctx: &mut Ctx, segment: Option<Vec<u8>>) -> Result<()> {
        if ctx.rank() == 0 {
            let path = segment_path(&self.staging);
            let Some(bytes) = segment else { return Err(PiofsError::NotFound(path).into()) };
            self.fs.create(&path, bytes.len() as u64);
            self.fs.write_at(ctx, &path, 0, bytes);
        }
        ctx.barrier();
        self.segment_staged(ctx)
    }

    /// Marks the segment as staged without writing it, for a mode whose
    /// segment reaches staging with its array bytes (the memory-tier spill).
    pub fn segment_staged(&self, ctx: &mut Ctx) -> Result<()> {
        let [after_segment, ..] = *self.points;
        crash_point(ctx, self.fs, after_segment, true)
    }

    /// Marks one array's bytes as staged.
    pub fn array_staged(&self, ctx: &mut Ctx) -> Result<()> {
        let [_, after_array, ..] = *self.points;
        crash_point(ctx, self.fs, after_array, true)
    }

    /// Phase 3, entered after the barrier that closes the mode's data phase:
    /// stages the flight rings and the manifest `manifest` builds from the
    /// staged integrity records (rank 0 only), publishes the data, and
    /// commits by the manifest rename. Returns the synchronized time at
    /// which every task has seen the commit.
    pub fn publish(
        self,
        ctx: &mut Ctx,
        manifest: impl FnOnce(Vec<FileIntegrity>) -> Manifest,
    ) -> Result<f64> {
        let (fs, prefix) = (self.fs, self.prefix);
        let [.., staged_manifest, mid_publish, committed] = *self.points;
        stage_flight_rings(ctx, fs, &self.staging);

        // Manifest, staged as `manifest.tmp`: decodable and complete, but
        // deliberately invisible to checkpoint discovery until published.
        if ctx.rank() == 0 {
            let bytes = manifest(compute_integrity_staged(fs, prefix)).encode();
            let smp = staged_manifest_path(prefix);
            fs.create(&smp, bytes.len() as u64);
            fs.write_at(ctx, &smp, 0, bytes);
        }
        // No barrier before the publish: only rank 0 acts in this window
        // (renames are control-plane), and the crash-point vote is itself
        // a synchronization when a controller is armed — so a chaos-free
        // checkpoint pays exactly the one barrier it always did.
        crash_point(ctx, fs, staged_manifest, true)?;

        // Publish: move data into place (uncommitting any previous
        // checkpoint at this prefix), then atomically rename the manifest.
        if ctx.rank() == 0 {
            publish_data(fs, prefix);
        }
        crash_point(ctx, fs, mid_publish, true)?;
        if ctx.rank() == 0 {
            let renamed = publish_manifest(fs, prefix);
            debug_assert!(renamed, "staged manifest must exist at the commit point");
            if ctx.recorder().enabled() {
                ctx.recorder().counter_add_at(ctx.now(), 0, names::COMMITS, None, 1);
            }
            if ctx.recorder().flight_enabled() {
                // Durable-progress marker for the flight recorder: the
                // stitched timeline attributes everything after the last
                // `commit:` of a killed incarnation as lost work.
                let marker = format!("{}{prefix}", markers::COMMIT_EVENT_PREFIX);
                ctx.recorder().event(ctx.now(), 0, Phase::Manifest, &marker);
            }
        }
        ctx.barrier();
        let t = ctx.now();
        crash_point(ctx, fs, committed, false)?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::CkptKind;
    use crate::{verify, CoreError};
    use drms_chaos::{ChaosCtl, FaultPlan, CKPT_COMMIT, FLUSH_COMMIT};
    use drms_msg::{CostModel, Spmd};
    use drms_piofs::PiofsConfig;

    /// The smallest checkpoint a mode can push through the driver: a
    /// segment, one array file, an array-less manifest.
    fn minimal_commit(ctx: &mut Ctx, fs: &Piofs, points: &'static CommitPoints) -> Result<f64> {
        let commit = Commit::new(fs, "ck/1", points);
        commit.stage_segment(ctx, Some(vec![7u8; 64]))?;
        if ctx.rank() == 0 {
            let path = format!("{}/array-u", commit.staging());
            fs.create(&path, 128);
            fs.write_at(ctx, &path, 0, &[9u8; 128]);
        }
        commit.array_staged(ctx)?;
        ctx.barrier();
        let manifest = Manifest {
            app: "toy".to_string(),
            kind: CkptKind::Drms,
            ntasks: ctx.ntasks(),
            sop: 1,
            arrays: Vec::new(),
            integrity: Vec::new(),
            deltas: Vec::new(),
        };
        commit.publish(ctx, |integrity| Manifest { integrity, ..manifest })
    }

    /// Pins the protocol order where it is defined: a crash at each point of
    /// each family leaves exactly the on-storage state class that point
    /// names, and a clean run drains staging.
    #[test]
    fn each_commit_point_leaves_its_storage_state_class() {
        // (array staged, staged manifest exists, data published, committed)
        // after a crash at each of the five points, then after a clean run.
        let classes = [
            (false, false, false, false),
            (true, false, false, false),
            (true, true, false, false),
            (false, true, true, false),
            (false, false, true, true),
            (false, false, true, true),
        ];
        for points in [&CKPT_COMMIT, &FLUSH_COMMIT] {
            let armed = points.map(Some).into_iter().chain([None]);
            for (point, (array, staged_manifest, published, committed)) in armed.zip(classes) {
                let at = point.map_or("clean", |p| p.as_str());
                let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
                let plan = FaultPlan { crash: point.map(|p| (p, 1)), ..FaultPlan::seeded(5) };
                let out = Spmd::new(2, CostModel::default())
                    .chaos(ChaosCtl::new(plan))
                    .run(|ctx| minimal_commit(ctx, &fs, points))
                    .unwrap();
                for r in out {
                    match (point, r) {
                        (None, r) => assert!(r.is_ok(), "clean run: {r:?}"),
                        (Some(_), Err(CoreError::Interrupted(name))) => assert_eq!(name, at),
                        (Some(_), r) => panic!("{at}: {r:?}"),
                    }
                }
                assert_eq!(fs.exists("ck/1.tmp/array-u"), array, "{at}");
                assert_eq!(fs.exists(&staged_manifest_path("ck/1")), staged_manifest, "{at}");
                assert_eq!(!fs.list("ck/1/").is_empty(), published, "{at}");
                assert_eq!(fs.exists("ck/1/array-u"), published, "{at}");
                assert_eq!(fs.exists(&manifest_path("ck/1")), committed, "{at}");
                assert_eq!(verify(&fs, "ck/1").is_valid(), committed, "{at}");
                assert_eq!(fs.list("ck/1.tmp/").is_empty(), committed, "{at}");
            }
        }
    }

    #[test]
    fn staging_paths_never_look_committed() {
        assert_eq!(staging_prefix("ck/1"), "ck/1.tmp");
        assert_eq!(staged_manifest_path("ck/1"), "ck/1.tmp/manifest.tmp");
        assert!(!staged_manifest_path("ck/1").ends_with("/manifest"));
    }

    #[test]
    fn publish_moves_data_then_commits_manifest() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1.tmp/segment", vec![1; 10]);
        fs.preload("ck/1.tmp/array-u", vec![2; 10]);
        fs.preload("ck/1.tmp/manifest.tmp", vec![3; 10]);
        assert_eq!(publish_data(&fs, "ck/1"), 2);
        assert!(fs.exists("ck/1/segment"));
        assert!(fs.exists("ck/1/array-u"));
        assert!(!fs.exists("ck/1/manifest"), "not committed yet");
        assert!(publish_manifest(&fs, "ck/1"));
        assert!(fs.exists("ck/1/manifest"));
        assert!(fs.list("ck/1.tmp/").is_empty(), "staging fully drained");
    }

    #[test]
    fn publish_data_uncommits_a_previous_checkpoint_in_place() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1/manifest", vec![9]);
        fs.preload("ck/1/segment", vec![9; 4]);
        fs.preload("ck/1.tmp/segment", vec![1; 4]);
        fs.preload("ck/1.tmp/manifest.tmp", vec![2]);
        publish_data(&fs, "ck/1");
        // The old manifest is gone (uncommitted) and the new data is in
        // place; only the manifest rename remains.
        assert!(!fs.exists("ck/1/manifest"));
        assert_eq!(fs.peek("ck/1/segment").unwrap(), vec![1; 4]);
        assert!(publish_manifest(&fs, "ck/1"));
        assert_eq!(fs.peek("ck/1/manifest").unwrap(), vec![2]);
    }

    #[test]
    fn staged_integrity_unions_committed_and_staged_files() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1/array-old", vec![1; 8]);
        fs.preload("ck/1/segment", vec![2; 8]);
        fs.preload("ck/1/manifest", vec![0]);
        fs.preload("ck/1.tmp/segment", vec![3; 8]); // staged wins
        fs.preload("ck/1.tmp/manifest.tmp", vec![0]);
        let fi = compute_integrity_staged(&fs, "ck/1");
        let names: Vec<&str> = fi.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["array-old", "segment"]);
        let seg = fi.iter().find(|f| f.name == "segment").unwrap();
        assert!(seg.matches(&[3; 8]), "staged copy must win the collision");
    }

    /// A pass that copies every listed file out whole with `peek` and leaves
    /// a file `peek` cannot serve out of the records.
    /// The fault campaigns pin that omission (a manifest over a degraded
    /// prefix lists what was readable, and verification reports the rest).
    #[test]
    fn staged_integrity_equals_a_peek_based_pass_and_omits_unreadable_files() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        let body = |salt: u8, len: usize| (0..len).map(|i| (i as u8).wrapping_mul(salt)).collect();
        fs.preload("ck/1/array-old", body(3, 700));
        fs.preload("ck/1/segment", body(5, 900));
        fs.preload("ck/1/manifest", vec![0]);
        fs.preload("ck/1.tmp/segment", body(7, 1000)); // staged wins
        fs.preload("ck/1.tmp/array-u", body(11, 5000)); // spans both servers
        fs.preload("ck/1.tmp/manifest.tmp", vec![0]);
        // No parity: everything striped onto server 1 is gone for good. Only
        // `array-u` reaches past the first stripe unit.
        assert!(fs.fail_server(1) > 0);
        assert!(fs.peek("ck/1.tmp/array-u").is_none());

        let chunk = integrity_chunk(&fs);
        let reference: Vec<FileIntegrity> = [
            ("array-old", "ck/1/array-old"),
            ("array-u", "ck/1.tmp/array-u"),
            ("segment", "ck/1.tmp/segment"),
        ]
        .into_iter()
        .filter_map(|(name, path)| {
            fs.peek(path).map(|bytes| FileIntegrity::compute(name, &bytes, chunk))
        })
        .collect();
        assert_eq!(reference.len(), 2, "array-u is unreadable and omitted");
        assert_eq!(compute_integrity_staged(&fs, "ck/1"), reference);
    }

    #[test]
    fn abort_staged_drains_staging_only() {
        let fs = Piofs::new(PiofsConfig::test_tiny(2), 1);
        fs.preload("ck/1/segment", vec![1]);
        fs.preload("ck/1.tmp/segment", vec![2]);
        fs.preload("ck/1.tmp/manifest.tmp", vec![3]);
        assert_eq!(abort_staged(&fs, "ck/1"), 2);
        assert!(fs.list("ck/1.tmp/").is_empty());
        assert!(fs.exists("ck/1/segment"));
    }
}
