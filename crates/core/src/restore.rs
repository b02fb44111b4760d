//! The restore driver: one restart procedure, whatever holds the bytes.
//!
//! The paper's restart (Section 5) does not depend on the task count or on
//! where the saved state lives: every new task loads the single saved data
//! segment ([`open`], `drms_initialize` against an archived state — each task
//! is charged for the load; the tasks are threads of one address space, so
//! the host verifies and decodes the bytes once and shares the result), the
//! application re-creates its arrays under freshly adjusted distributions,
//! and each task loads *its* sections of every array's
//! distribution-independent stream ([`restore_arrays`]). What differs is the
//! [`RestartSource`]: [`PiofsFull`] here, the delta chain in `drms-delta`,
//! the memory tier in `drms-memtier`. Localized recovery (`drms-recover`)
//! fetches lost sections through the same three.

use drms_chaos::{RestartPoints, RESTART_FULL};
use drms_darray::stream::{self, StreamRange};
use drms_msg::Ctx;
use drms_obs::{markers, names, Phase};
use drms_piofs::{Piofs, ReadAccess, ReadReq, Stored};

use crate::drms::{
    load_text, phase_span, read_manifest_collective, record_bytes, Drms, DrmsConfig, EnableFlag,
};
use crate::handle::CheckpointArray;
use crate::inject::crash_point;
use crate::manifest::{array_path, segment_path, CkptKind, Manifest};
use crate::segment::DataSegment;
use crate::{CoreError, Result};

/// What a restarted application needs to resume from its SOP.
#[derive(Debug)]
pub struct RestartInfo {
    /// The checkpoint manifest.
    pub manifest: Manifest,
    /// The restored data segment (replicated + control variables).
    pub segment: DataSegment,
    /// Size of the encoded segment every task loaded.
    pub segment_bytes: u64,
    /// New task count minus checkpoint task count; non-zero means the
    /// application must adjust its distributions before loading arrays.
    pub delta: i64,
    /// Time spent loading the application text.
    pub init_time: f64,
    /// Time spent loading the data segment.
    pub segment_time: f64,
}

/// Where the bytes of one archived state live. Every method is collective
/// and prices its own data movement against the calling task's clock.
pub trait RestartSource {
    /// The checkpoint kind this source restores.
    const KIND: CkptKind = CkptKind::Drms;

    /// Whether the manifest must hold an integrity record for the segment:
    /// a restart refuses a segment without one. Only the memory tier, whose
    /// pieces carry their own CRCs, says no.
    const SEGMENT_RECORD: bool = true;

    /// The prefix the state was archived under.
    fn prefix(&self) -> &str;

    /// The crash points the driver consults for this source (a `RESTART_*`
    /// table of `drms_chaos`) and the file system a dying region salvages
    /// its flight rings to; `None` consults nothing.
    fn consults(&self) -> Option<(&'static RestartPoints, &Piofs)> {
        None
    }

    /// The manifest.
    fn manifest(&self, ctx: &mut Ctx) -> Result<Manifest>;

    /// Charges the calling task for loading the whole encoded data segment
    /// and hands it the bytes. Every rank is priced for them; a rank that is
    /// only there to be charged drops the handle, which costs the host
    /// nothing where the handle shares stored bytes.
    fn segment(&self, ctx: &mut Ctx) -> Result<Stored>;

    /// Leaves `range` of `array`'s canonical stream, verified, in `out`
    /// (handed over empty), under the [`stream::PieceFetch`] convention:
    /// every task calls once per wave, idle ones with `len == 0` for an
    /// empty answer.
    fn fetch_range(
        &self,
        ctx: &mut Ctx,
        manifest: &Manifest,
        array: &str,
        range: StreamRange,
        out: &mut Vec<u8>,
    ) -> Result<()>;

    /// Fills the whole of `a`: by default piece by piece through
    /// [`RestartSource::fetch_range`]. A task whose fetch failed still runs
    /// every wave and returns its error after the last one.
    fn read_array(
        &self,
        ctx: &mut Ctx,
        manifest: &Manifest,
        a: &mut dyn CheckpointArray,
        io_tasks: usize,
    ) -> Result<()> {
        let name = a.array_name().to_string();
        let mut fetch = range_fetch(self, manifest, &name);
        a.read_stream_via(ctx, io_tasks, &mut fetch)
    }

    /// The source's spans and counters for the array phase `[t0, t1]`,
    /// which moved `array_bytes` stream bytes.
    fn arrays_restored(&self, ctx: &Ctx, t0: f64, t1: f64, array_bytes: u64);
}

/// [`RestartSource::fetch_range`] of `array` as the [`stream::PieceFetch`]
/// callback the stream reader takes.
pub fn range_fetch<'a, S: RestartSource + ?Sized>(
    src: &'a S,
    manifest: &'a Manifest,
    array: &'a str,
) -> impl FnMut(&mut Ctx, StreamRange, &mut Vec<u8>) -> std::result::Result<(), String> + 'a {
    move |ctx, range, out| {
        src.fetch_range(ctx, manifest, array, range, out).map_err(|e| e.to_string())
    }
}

/// Consults stage `stage` of the source's restart-point table, if it has one.
fn consult<S: RestartSource>(ctx: &mut Ctx, src: &S, stage: usize) -> Result<()> {
    let Some((points, fs)) = src.consults() else { return Ok(()) };
    points[stage].map_or(Ok(()), |point| crash_point(ctx, fs, point, false))
}

/// `drms_initialize` against the archived state `src` holds: checks the
/// manifest against the source and the application, reloads the application
/// text from `fs` (a restart reloads the binary wherever the state lives),
/// and has every task load the single saved segment: each is charged for
/// the whole of it, rank 0 verifies and decodes it, and every task leaves
/// with a clone that shares the decoded regions.
pub fn open<S: RestartSource>(
    ctx: &mut Ctx,
    fs: &Piofs,
    cfg: DrmsConfig,
    enable: EnableFlag,
    src: &S,
) -> Result<(Drms, RestartInfo)> {
    let manifest = src.manifest(ctx)?;
    check_manifest(&manifest, S::KIND, src.prefix(), &cfg.app)?;

    let t0 = load_text(ctx, fs, &cfg.app)?;
    consult(ctx, src, 0)?;
    let t1 = ctx.now();

    // A source on PIOFS must carry the segment's record, as `verify`
    // demands; only the memory tier (`S::SEGMENT_RECORD` false), whose
    // pieces are CRC-checked as they are fetched, has none.
    let loaded = src.segment(ctx);
    let mine = match &loaded {
        Err(e) => Err(e.clone()),
        Ok(bytes) if ctx.rank() == 0 => {
            check_record(&manifest, "segment", src.prefix(), bytes, S::SEGMENT_RECORD)
                .and_then(|()| Ok(Some(DataSegment::decode(bytes)?)))
        }
        Ok(_) => Ok(None),
    };
    // Every task reaches this rendezvous, whatever its own load came to, and
    // all of them fail if any did: a task that left early, or alone, would
    // strand its siblings at the next collective. It carries no clock; the
    // barrier below is the phase's synchronization.
    let (all, _) = ctx.exchange(mine);
    let segment_bytes = loaded?.len() as u64;
    let mut segment = None;
    for deposit in all.iter() {
        segment = segment.or(deposit.clone()?);
    }
    // Rank 0 deposits the segment it decoded, so every task finds one.
    let segment = segment.ok_or_else(|| CoreError::NoCheckpoint(src.prefix().to_string()))?;
    ctx.barrier();
    consult(ctx, src, 1)?;

    // The restart record: phase spans over `[t0, t1, now]` and the segment
    // byte count. Every task reads the whole shared segment, so the bytes
    // moved in this phase are ntasks x its size: record per rank, matching
    // the aggregate the restart report uses.
    let t2 = ctx.now();
    phase_span(ctx, Phase::Init, markers::LOAD_TEXT, t0, t1);
    phase_span(ctx, Phase::Segment, markers::LOAD_SEGMENT, t1, t2);
    if ctx.recorder().enabled() {
        ctx.recorder().counter_add_at(t2, ctx.rank(), names::SEGMENT_BYTES, None, segment_bytes);
    }
    let drms = Drms { cfg, enable, sop: manifest.sop };
    let delta = ctx.ntasks() as i64 - manifest.ntasks as i64;
    let (init_time, segment_time) = (t1 - t0, t2 - t1);
    Ok((drms, RestartInfo { manifest, segment, segment_bytes, delta, init_time, segment_time }))
}

/// Loads every array from the archived state `src` holds, after the
/// application has (re-)created them under the current distributions
/// (adjusted when the task count changed). Returns the array-phase time.
/// A read that fails on one task fails the restore on every task, and no
/// task leaves before its siblings are done with the arrays.
pub fn restore_arrays<S: RestartSource>(
    ctx: &mut Ctx,
    src: &S,
    manifest: &Manifest,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<f64> {
    ctx.barrier();
    let t0 = ctx.now();
    // A failed read keeps this task in the remaining arrays' waves, so its
    // siblings are never left in a redistribution.
    let mut failed = None;
    for a in arrays.iter_mut() {
        check_array(manifest, &**a)?;
        if let Err(e) = src.read_array(ctx, manifest, &mut **a, ctx.ntasks()) {
            failed.get_or_insert(e);
        }
    }
    closing_vote(ctx, failed)?;
    consult(ctx, src, 2)?;
    let t1 = ctx.now();
    src.arrays_restored(ctx, t0, t1, arrays.iter().map(|a| a.stream_bytes()).sum());
    Ok(t1 - t0)
}

/// A restore phase's closing barrier as a vote: one clock-free exchange of
/// every task's failure, then the barrier's own clock advance, so every task
/// returns the same error (the lowest failing rank's) and every clock is
/// what a barrier leaves.
pub(crate) fn closing_vote(ctx: &mut Ctx, failed: Option<CoreError>) -> Result<()> {
    let (votes, t) = ctx.exchange(failed);
    ctx.advance_to(t);
    ctx.charge(ctx.cost().barrier_cost);
    votes.iter().find_map(Clone::clone).map_or(Ok(()), Err)
}

/// End-to-end verification of the stored file `name` of the checkpoint at
/// `prefix`: bytes that survived the storage may still be bytes that rotted
/// on it, so they must match the manifest's record of the file. A file
/// with no record is refused when `required`.
pub(crate) fn check_record(
    manifest: &Manifest,
    name: &str,
    prefix: &str,
    bytes: &[u8],
    required: bool,
) -> Result<()> {
    let why = match manifest.file_integrity(name) {
        Some(fi) if !fi.matches(bytes) => "fails checksum verification",
        None if required => "has no integrity record",
        _ => return Ok(()),
    };
    Err(CoreError::Integrity(format!("{name} of {prefix:?} {why}")))
}

/// The manifest-vs-source-and-application check every restart makes.
pub(crate) fn check_manifest(
    manifest: &Manifest,
    want: CkptKind,
    prefix: &str,
    app: &str,
) -> Result<()> {
    if manifest.kind != want {
        return Err(CoreError::ManifestMismatch(format!(
            "{prefix:?} is a {:?} checkpoint: Drms restarts through Drms::initialize, \
             DrmsDelta through the delta crate's resume, Spmd through spmd::restart",
            manifest.kind
        )));
    }
    if manifest.app != app {
        return Err(CoreError::ManifestMismatch(format!(
            "checkpoint belongs to app {:?}, not {app:?}",
            manifest.app
        )));
    }
    Ok(())
}

/// The manifest-vs-program check every restart makes for each array.
fn check_array(manifest: &Manifest, a: &dyn CheckpointArray) -> Result<()> {
    let name = a.array_name();
    let (code, domain) = (a.elem_code(), a.domain());
    Err(CoreError::ManifestMismatch(match manifest.array(name) {
        None => format!("checkpoint has no array {name:?}"),
        Some(e) if e.elem_code != code => {
            format!("array {name:?}: element code {} in checkpoint, {code} in program", e.elem_code)
        }
        Some(e) if &e.domain != domain => {
            format!("array {name:?}: domain {} in checkpoint, {domain} in program", e.domain)
        }
        Some(_) => return Ok(()),
    }))
}

/// A full checkpoint on PIOFS: `{prefix}/manifest`, `{prefix}/segment` and
/// one `{prefix}/array-{name}` stream per array.
#[derive(Clone, Copy)]
pub struct PiofsFull<'a> {
    /// The file system holding the checkpoint.
    pub fs: &'a Piofs,
    /// The checkpoint prefix.
    pub prefix: &'a str,
}

impl RestartSource for PiofsFull<'_> {
    fn prefix(&self) -> &str {
        self.prefix
    }

    fn consults(&self) -> Option<(&'static RestartPoints, &Piofs)> {
        Some((&RESTART_FULL, self.fs))
    }

    fn manifest(&self, ctx: &mut Ctx) -> Result<Manifest> {
        read_manifest_collective(ctx, self.fs, self.prefix)
    }

    /// Each task reads the single saved segment file, whole (a delta
    /// link's too), in one collective phase; the handle shares the stored
    /// bytes.
    fn segment(&self, ctx: &mut Ctx) -> Result<Stored> {
        let path = segment_path(self.prefix);
        let len = self.fs.size(&path)?;
        let req = ReadReq { path, offset: 0, len, access: ReadAccess::Sequential };
        let mut got = self.fs.collective_read(ctx, vec![req])?;
        got.pop().ok_or_else(|| CoreError::NoCheckpoint(self.prefix.to_string()))
    }

    /// One collective range read of the array's stream file, copied once
    /// out of the read's handle ([`stream::read_range`]).
    fn fetch_range(
        &self,
        ctx: &mut Ctx,
        _manifest: &Manifest,
        array: &str,
        range: StreamRange,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        Ok(stream::read_range(ctx, self.fs, &array_path(self.prefix, array), range, out)?)
    }

    fn arrays_restored(&self, ctx: &Ctx, t0: f64, t1: f64, array_bytes: u64) {
        phase_span(ctx, Phase::Arrays, markers::RESTORE_ARRAYS, t0, t1);
        record_bytes(ctx, 0, array_bytes);
    }
}
