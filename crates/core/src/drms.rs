use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drms_chaos::{CrashPoint, CKPT_COMMIT};
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, ReadAccess, ReadReq, WriteReq};

use crate::commit::{integrity_of, Commit};
use crate::handle::{encode_segment_with_locals, CheckpointArray};
use crate::inject::crash_point;
use crate::manifest::{
    array_path, manifest_path, segment_path, ArrayEntry, CkptKind, FileIntegrity, Manifest,
};
use crate::report::OpBreakdown;
use crate::restore::{self, PiofsFull, RestartInfo};
use crate::segment::DataSegment;
use crate::verify::verify;
use crate::{CoreError, Result};

/// Static configuration of a DRMS application.
#[derive(Debug, Clone)]
pub struct DrmsConfig {
    /// Application name (manifests are tagged with it).
    pub app: String,
    /// Size of the application text segment, reloaded at restart (the
    /// paper's restart totals include this initialization component).
    pub text_bytes: u64,
    /// Compile-time reservation for local array sections in each task's
    /// data segment. The paper's Fortran codes size this for the minimum
    /// task count, so it does not shrink as tasks are added.
    pub fixed_local_bytes: u64,
}

impl DrmsConfig {
    /// A configuration with typical defaults (8 MB text).
    pub fn new(app: &str) -> DrmsConfig {
        DrmsConfig { app: app.to_string(), text_bytes: 8 << 20, fixed_local_bytes: 0 }
    }
}

/// Shared enable signal for system-initiated checkpoints
/// (`drms_reconfig_chkenable`): the scheduler raises it; the application
/// takes a checkpoint at its next enabling SOP.
#[derive(Debug, Clone, Default)]
pub struct EnableFlag(Arc<AtomicBool>);

impl EnableFlag {
    /// A cleared flag.
    pub fn new() -> EnableFlag {
        EnableFlag::default()
    }

    /// Raises the flag (scheduler side).
    pub fn raise(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag is currently raised.
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    fn clear(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Result of `drms_initialize`: fresh start or restart from archived state.
#[derive(Debug)]
pub enum Start {
    /// No checkpoint: run from the beginning.
    Fresh,
    /// Restarted: resume from the saved SOP.
    Restarted(Box<RestartInfo>),
}

/// Per-task handle to the DRMS run-time (Table 2's API).
pub struct Drms {
    pub(crate) cfg: DrmsConfig,
    pub(crate) enable: EnableFlag,
    pub(crate) sop: u64,
}

impl Drms {
    /// Places the application binary on the file system (environment setup;
    /// not part of any checkpoint).
    pub fn install_binary(fs: &Piofs, cfg: &DrmsConfig) {
        fs.preload(&format!("bin/{}", cfg.app), vec![0u8; cfg.text_bytes as usize]);
    }

    /// `drms_initialize`: initializes the run-time and, when `restart_from`
    /// names an archived state, reloads it. Every task calls this first;
    /// each receives the full segment (all tasks read the single saved
    /// segment file, per Section 5). A restart is [`restore::open`] on the
    /// [`PiofsFull`] source.
    pub fn initialize(
        ctx: &mut Ctx,
        fs: &Piofs,
        cfg: DrmsConfig,
        enable: EnableFlag,
        restart_from: Option<&str>,
    ) -> Result<(Drms, Start)> {
        let Some(prefix) = restart_from else {
            return Ok((Drms { cfg, enable, sop: 0 }, Start::Fresh));
        };
        let (drms, info) = restore::open(ctx, fs, cfg, enable, &PiofsFull { fs, prefix })?;
        Ok((drms, Start::Restarted(Box::new(info))))
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &DrmsConfig {
        &self.cfg
    }

    /// Current SOP sequence number.
    pub fn sop(&self) -> u64 {
        self.sop
    }

    /// Advances the SOP sequence number and returns the new value. Every
    /// checkpoint is one schedulable-and-observable point no matter which
    /// tier it lands on; checkpoint paths outside this crate (the in-memory
    /// tier) use this so their SOP numbering stays in lockstep with
    /// [`Drms::reconfig_checkpoint`]. Each task must call it the same number
    /// of times.
    pub fn advance_sop(&mut self) -> u64 {
        self.sop += 1;
        self.sop
    }

    /// `drms_reconfig_checkpoint`: mandatory checkpoint, always taken.
    ///
    /// The representative task (rank 0) writes the shared data segment —
    /// `base_segment` plus the local-sections region assembled from the
    /// arrays — then all tasks cooperate to stream every distributed array.
    /// Returns the phase breakdown (Table 6's rows).
    ///
    /// Crash-consistent: everything is staged under `{prefix}.tmp` and
    /// published by the two-phase commit of [`crate::commit`], so an
    /// interrupted checkpoint is never discoverable and a restart always
    /// lands on the last *committed* state.
    pub fn reconfig_checkpoint(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<OpBreakdown> {
        self.sop += 1;
        ctx.barrier();
        crash_point(ctx, fs, CrashPoint::CkptEnter, false)?;
        let t0 = ctx.now();

        // Phase 1: one task's data segment, staged.
        let commit = Commit::new(fs, prefix, &CKPT_COMMIT);
        {
            let segment = (ctx.rank() == 0).then(|| {
                encode_segment_with_locals(base_segment, arrays, self.cfg.fixed_local_bytes)
            });
            commit.stage_segment(ctx, segment)?;
        }
        let t1 = ctx.now();

        // Phase 2: every distributed array, streamed in sequence, staged.
        for a in arrays {
            a.write_stream(ctx, fs, &array_path(commit.staging(), a.array_name()), ctx.ntasks())?;
            commit.array_staged(ctx)?;
        }
        ctx.barrier();
        let t2 = ctx.now();

        // Phase 3: manifest staged, data published, manifest renamed.
        let ntasks = ctx.ntasks();
        let t3 = commit.publish(ctx, |integrity| Manifest {
            app: self.cfg.app.clone(),
            kind: CkptKind::Drms,
            ntasks,
            sop: self.sop,
            arrays: arrays.iter().map(|&a| ArrayEntry::of(a)).collect(),
            integrity,
            deltas: Vec::new(),
        })?;

        let breakdown = OpBreakdown {
            init: 0.0,
            segment: t1 - t0,
            arrays: t2 - t1,
            segment_bytes: fs.size(&segment_path(prefix))?,
            array_bytes: arrays.iter().map(|a| a.stream_bytes()).sum(),
        };
        phase_span(ctx, Phase::Segment, "write_segment", t0, t1);
        phase_span(ctx, Phase::Arrays, "stream_arrays", t1, t2);
        phase_span(ctx, Phase::Manifest, "write_manifest", t2, t3);
        record_bytes(ctx, breakdown.segment_bytes, breakdown.array_bytes);
        Ok(breakdown)
    }

    /// `drms_reconfig_chkenable`: enabling checkpoint, taken only when the
    /// system has raised the enable signal. The decision is made
    /// collectively (rank 0 samples the flag) so all tasks agree.
    pub fn reconfig_chkenable(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<Option<OpBreakdown>> {
        let mine = ctx.rank() == 0 && self.enable.is_raised();
        let (votes, _) = ctx.exchange(mine);
        if !votes[0] {
            return Ok(None);
        }
        if ctx.rank() == 0 {
            self.enable.clear();
        }
        self.reconfig_checkpoint(ctx, fs, prefix, base_segment, arrays).map(Some)
    }

    /// Loads every array from the full checkpoint under `prefix`, after the
    /// application has (re-)created them under the current distributions
    /// (adjusted when `delta != 0`): [`restore::restore_arrays`] on the
    /// [`PiofsFull`] source. Returns the array-phase time.
    pub fn restore_arrays(
        &self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
        manifest: &Manifest,
        arrays: &mut [&mut dyn CheckpointArray],
    ) -> Result<f64> {
        restore::restore_arrays(ctx, &PiofsFull { fs, prefix }, manifest, arrays)
    }
}

/// Chunk size for integrity records: the file system's grid,
/// [`drms_piofs::PiofsConfig::integrity_chunk`].
pub fn integrity_chunk(fs: &Piofs) -> u64 {
    fs.cfg().integrity_chunk()
}

/// Computes integrity records for every data file currently under `prefix`
/// (manifest and quarantine markers excluded), in sorted-name order so the
/// encoded manifest is deterministic. Writer-side (rank 0) control-plane
/// operation. Public so out-of-crate checkpoint writers (the memory tier's
/// spill) can stamp their manifests the same way.
pub fn compute_integrity(fs: &Piofs, prefix: &str) -> Vec<FileIntegrity> {
    integrity_of(fs, &[format!("{prefix}/")])
}

/// Lists all complete checkpoints on the file system, newest SOP first,
/// optionally filtered by application. Control-plane operation (no clock).
pub fn find_checkpoints(fs: &Piofs, app: Option<&str>) -> Vec<(String, Manifest)> {
    let mut out = Vec::new();
    for info in fs.list("") {
        let Some(prefix) = info.path.strip_suffix("/manifest") else { continue };
        let Some(bytes) = fs.peek(&info.path) else { continue };
        let Ok(m) = Manifest::decode(&bytes) else { continue };
        if let Some(app) = app {
            if m.app != app {
                continue;
            }
        }
        out.push((prefix.to_string(), m));
    }
    out.sort_by(|a, b| b.1.sop.cmp(&a.1.sop).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Deletes every file of the checkpoint under `prefix` (manifest first, so
/// a concurrent observer never sees a manifest for missing data). Returns
/// whether a checkpoint existed. Control-plane operation (no clock).
///
/// Deletion is resumable rather than atomic: if it is interrupted after the
/// manifest is gone, the leftover data files are invisible to
/// [`find_checkpoints`] and are reclaimed by the next [`sweep_orphans`]
/// pass.
pub fn delete_checkpoint(fs: &Piofs, prefix: &str) -> bool {
    let manifest = manifest_path(prefix);
    let existed = fs.delete(&manifest);
    for info in fs.list(&format!("{prefix}/")) {
        fs.delete(&info.path);
    }
    // Any staging left by an interrupted checkpoint to this prefix goes
    // with it (it could only ever commit over the state just deleted).
    crate::commit::abort_staged(fs, prefix);
    existed
}

/// Reclaims data files stranded by an interrupted [`delete_checkpoint`] or
/// an interrupted two-phase commit: checkpoint-shaped files (`segment`,
/// `task-{rank}`, `array-{name}`, `delta-{name}`, and the staged
/// `manifest.tmp`) whose prefix has no manifest. A prefix with a
/// quarantined manifest (`manifest.quarantined`) is *not* an orphan — its
/// data is deliberately preserved for diagnosis. Staging prefixes
/// (`{prefix}.tmp`) never hold a file named exactly `manifest`, so crashed
/// checkpoint attempts are always reclaimed here.
///
/// Mark-and-sweep over the delta chunk graph: before deleting anything,
/// every committed (or quarantined) manifest on the file system is decoded
/// and the pack files its chunk tables reference are marked reachable.
/// A marked pack survives even when its own prefix has lost its manifest
/// (delta-aware retention uncommits old incarnations but leaves their
/// packs for the chains that still reference them). Must not run
/// concurrently with a checkpoint being written (data lands before the
/// manifest does). Returns the prefixes files were reclaimed under.
/// Control-plane operation (no clock).
pub fn sweep_orphans(fs: &Piofs) -> Vec<String> {
    let mut prefixes: std::collections::BTreeMap<String, (bool, Vec<String>)> = Default::default();
    let mut reachable: std::collections::BTreeSet<String> = Default::default();
    for info in fs.list("") {
        let Some((prefix, name)) = info.path.rsplit_once('/') else { continue };
        let entry = prefixes.entry(prefix.to_string()).or_default();
        if name == "manifest" || name == "manifest.quarantined" || name == "journal" {
            // A recovery journal is a commit marker for its directory,
            // exactly like a manifest is for a checkpoint.
            entry.0 = true;
            // Mark phase: packs referenced from any committed manifest
            // must survive the sweep, wherever they live.
            if let Some(bytes) = fs.peek(&info.path) {
                if let Ok(m) = Manifest::decode(&bytes) {
                    reachable.extend(m.referenced_packs());
                }
            }
        } else if name == "segment"
            || name == "manifest.tmp"
            || name == "journal.tmp"
            || name.starts_with("task-")
            || name.starts_with("array-")
            || name.starts_with("delta-")
            || name.starts_with("blackbox-")
        {
            entry.1.push(info.path.clone());
        }
    }
    let mut swept = Vec::new();
    for (prefix, (has_manifest, files)) in prefixes {
        if has_manifest || files.is_empty() {
            continue;
        }
        let mut reclaimed = false;
        for f in &files {
            if reachable.contains(f) {
                continue;
            }
            fs.delete(f);
            reclaimed = true;
        }
        if reclaimed {
            swept.push(prefix);
        }
    }
    swept
}

/// Retention policy: keeps the `keep` newest complete checkpoints of `app`
/// and retires the rest. Returns the retired prefixes. The paper notes that
/// applications maintain multiple checkpointed states concurrently via
/// prefixes; long-running jobs need exactly this kind of garbage collection.
///
/// Resilience-aware: when checkpoints newer than the newest *verified* one
/// ([`verify`]) exist but fail verification, that verified
/// checkpoint is what a restart would fall back to — so it is never deleted,
/// even when the corrupt newcomers push it past the retention window. When
/// the newest checkpoint verifies, retention behaves classically (and
/// `keep == 0` purges everything).
///
/// Delta-aware: a retired incarnation whose pack files are still referenced
/// by a surviving manifest's chunk table is *uncommitted* rather than
/// deleted — its manifest is removed (so it stops being a restart source
/// and stops counting against retention) but its data files stay, and the
/// next [`sweep_orphans`] pass reclaims exactly the files no surviving
/// chain reaches. This is what keeps retention safe under content-addressed
/// chunk sharing: nothing a retained manifest can reach is ever collected.
pub fn retain_checkpoints(fs: &Piofs, app: &str, keep: usize) -> Vec<String> {
    let all = find_checkpoints(fs, Some(app));
    let protected = match all.iter().position(|(p, _)| verify(fs, p).is_valid()) {
        // Everything newer than index i failed verification, so index i is
        // the restart fallback; protect it. i == 0 means the newest is
        // healthy and needs no special treatment.
        Some(i) if i > 0 => Some(all[i].0.clone()),
        _ => None,
    };
    let victims: Vec<String> = all
        .into_iter()
        .skip(keep)
        .map(|(prefix, _)| prefix)
        .filter(|prefix| Some(prefix) != protected.as_ref())
        .collect();
    // Mark phase over every *surviving* manifest (this app's and others'—
    // chains never cross apps, but playing safe costs nothing): packs under
    // a victim's prefix that are still referenced force the uncommit path.
    let mut referenced: std::collections::BTreeSet<String> = Default::default();
    for info in fs.list("") {
        let Some((prefix, name)) = info.path.rsplit_once('/') else { continue };
        if (name != "manifest" && name != "manifest.quarantined")
            || victims.iter().any(|v| v == prefix)
        {
            continue;
        }
        if let Some(bytes) = fs.peek(&info.path) {
            if let Ok(m) = Manifest::decode(&bytes) {
                referenced.extend(m.referenced_packs());
            }
        }
    }
    for prefix in &victims {
        let dir = format!("{prefix}/");
        if referenced.iter().any(|p| p.starts_with(&dir)) {
            // Uncommit: drop the manifest (and any staging), keep the data.
            fs.delete(&manifest_path(prefix));
            crate::commit::abort_staged(fs, prefix);
        } else {
            delete_checkpoint(fs, prefix);
        }
    }
    victims
}

/// Emits a closed rank-0 phase span over `[start, end]`. The phase totals in
/// the trace summary are built from exactly these spans, with the same
/// timestamps that build the returned [`OpBreakdown`] — so the two can never
/// disagree. Public so out-of-crate checkpoint writers (the delta and async
/// pipelines) report phases under the same convention.
pub fn phase_span(ctx: &Ctx, phase: Phase, name: &str, start: f64, end: f64) {
    if ctx.rank() != 0 || !ctx.recorder().enabled() {
        return;
    }
    let rec = ctx.recorder();
    rec.span_start(start, 0, phase, name);
    rec.span_end(end, 0, phase, name);
}

/// Records the byte totals of one checkpoint/restart operation (rank 0 only,
/// mirroring the synchronized-maximum convention of [`OpBreakdown`]).
pub fn record_bytes(ctx: &Ctx, segment_bytes: u64, array_bytes: u64) {
    if ctx.rank() != 0 || !ctx.recorder().enabled() {
        return;
    }
    let rec = ctx.recorder();
    rec.counter_add_at(ctx.now(), 0, names::SEGMENT_BYTES, None, segment_bytes);
    rec.counter_add_at(ctx.now(), 0, names::ARRAY_BYTES, None, array_bytes);
}

/// Stages a sealed snapshot of every rank's flight ring alongside the
/// checkpoint data, so the ring rides the same two-phase commit as the
/// arrays: staged under `{prefix}.tmp/blackbox-r{rank}`, covered by the
/// staged integrity records, and published (or abandoned) with the rest.
/// Each rank `create`s its own ring file before the write, so its record is
/// folded from the CRCs the rank computed.
///
/// Seals are snapshots, not drains — overlapping seals from consecutive
/// SOPs and crash salvages dedup exactly at recovery by per-event capture
/// sequence numbers, so only the *newest* recovered seal per rank matters
/// and retention deleting older checkpoints loses nothing.
///
/// The rings land through one *collective* write — every rank contributes
/// its own seal to a single deterministically-priced phase. Concurrent
/// single-client writes would be admitted to the simulated servers in
/// host lock-acquisition order, smearing per-rank completion times across
/// runs; the collective phase prices the whole request set at once, so
/// the flight recorder's own staging never perturbs the determinism it
/// exists to witness. The phase's descriptor exchange doubles as the
/// barrier rank 0 needs before computing staged integrity.
///
/// Strict no-op unless a flight recorder is attached
/// ([`Recorder::flight_enabled`](drms_obs::Recorder::flight_enabled)), so
/// runs without one stay bit-identical. `flight_enabled` is uniform across
/// ranks (it is a property of the shared recorder), so the conditional
/// collective is consistent. Public so the recovery journal stages rings
/// under the same convention as the commit driver.
pub fn stage_flight_rings(ctx: &mut Ctx, fs: &Piofs, staging: &str) {
    let rec = ctx.recorder();
    if !rec.flight_enabled() {
        return;
    }
    let (t, r) = (ctx.now(), ctx.rank());
    let mut reqs = Vec::new();
    if let Some(seal) = rec.flight_seal(t, r, "sop") {
        let path = format!("{staging}/{}", drms_obs::ring_file_name(r));
        let rec = ctx.recorder();
        rec.counter_add_at(t, r, names::BLACKBOX_SEALS, None, 1);
        rec.counter_add_at(t, r, names::BLACKBOX_SEAL_BYTES, None, seal.bytes.len() as u64);
        rec.counter_add_at(t, r, names::BLACKBOX_EVENTS_CAPTURED, None, seal.events);
        rec.counter_add_at(t, r, names::BLACKBOX_EVENTS_EVICTED, None, seal.evicted);
        fs.create(&path, seal.bytes.len() as u64);
        reqs.push(WriteReq { path, offset: 0, data: seal.bytes });
    }
    fs.collective_write(ctx, reqs);
}

/// Restart initialization, barrier to barrier: every task loads the
/// application text `bin/{app}` (one shared sequential read), when the
/// environment installed one. Returns the synchronized start time.
///
/// The read is priced in simulated time; tasks are threads of one address
/// space, so each drops its handle to the one stored text unread.
pub(crate) fn load_text(ctx: &mut Ctx, fs: &Piofs, app: &str) -> Result<f64> {
    ctx.barrier();
    let t0 = ctx.now();
    let text = format!("bin/{app}");
    if fs.exists(&text) {
        let len = fs.size(&text)?;
        fs.collective_read(
            ctx,
            vec![ReadReq { path: text, offset: 0, len, access: ReadAccess::Sequential }],
        )?;
    }
    ctx.barrier();
    Ok(t0)
}

/// Collective read + decode of a manifest: how every PIOFS restart source
/// and [`crate::spmd::restart`] read theirs.
pub fn read_manifest_collective(ctx: &mut Ctx, fs: &Piofs, prefix: &str) -> Result<Manifest> {
    let path = manifest_path(prefix);
    if !fs.exists(&path) {
        return Err(CoreError::NoCheckpoint(prefix.to_string()));
    }
    let len = fs.size(&path)?;
    let mut got = fs.collective_read(
        ctx,
        vec![ReadReq { path, offset: 0, len, access: ReadAccess::Sequential }],
    )?;
    let bytes = got.pop().ok_or_else(|| CoreError::NoCheckpoint(prefix.to_string()))?;
    Ok(Manifest::decode(&bytes)?)
}
