//! The incremental checkpoint writer.

use drms_core::chaos::{CrashPoint, CKPT_COMMIT};
use drms_core::commit::Commit;
use drms_core::crash_point;
use drms_core::manifest::{delta_path, segment_path, ArrayEntry};
use drms_core::report::OpBreakdown;
use drms_core::segment::DataSegment;
use drms_core::{phase_span, record_bytes, CheckpointArray, Drms, Result};
use drms_msg::Ctx;
use drms_obs::Phase;
use drms_piofs::Piofs;

use crate::chain::{DeltaChain, DeltaConfig, StageStats};
use crate::stage::{record_commit, require_fresh_prefix, DeltaStage};

/// What one incremental checkpoint did. The byte/chunk statistics are
/// gathered on the representative task (rank 0, which owns the canonical
/// streams); other ranks see zeros there but agree on `full` and the
/// breakdown's synchronized timings.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Phase timings and byte totals (array bytes are *pack bytes
    /// written*, the quantity incremental checkpointing reduces).
    pub breakdown: OpBreakdown,
    /// Whether this checkpoint was a full rewrite (chain restart).
    pub full: bool,
    /// Chunks whose content changed and had to be re-stored.
    pub dirty_chunks: u64,
    /// Chunks carried forward by reference, unwritten.
    pub clean_chunks: u64,
    /// Dirty chunks satisfied by content-hash dedup instead of a write.
    pub dedup_hits: u64,
    /// Pack bytes written across all arrays.
    pub pack_bytes: u64,
    /// Bytes saved by per-chunk compression.
    pub compressed_saved: u64,
    /// Chain depth after this checkpoint committed.
    pub chain_depth: u64,
}

impl DeltaReport {
    /// Dirty-chunk ratio of this checkpoint (1.0 when nothing was carried
    /// forward — the signal the delta-collapse pulse rule watches).
    pub fn dirty_ratio(&self) -> f64 {
        let (dirty, clean) = (self.dirty_chunks, self.clean_chunks);
        StageStats { dirty, clean, ..StageStats::default() }.dirty_ratio()
    }
}

/// Takes an incremental checkpoint of the application state to a **fresh**
/// `prefix` (each incarnation gets its own prefix; chunk references name
/// prefixes, so delta checkpoints never overwrite one).
///
/// The representative task writes the shared data segment *without* the
/// local-sections region — arrays restore from their chunk streams, so
/// duplicating their bytes into the segment would defeat the reduction —
/// then every array's canonical stream is gathered to rank 0, chunked,
/// diffed against the last committed checkpoint, deduplicated by content
/// hash, optionally compressed per chunk, and only the surviving chunks are
/// written to the staged pack file. The manifest (v4, with per-chunk
/// records) publishes through the same two-phase commit as
/// [`Drms::reconfig_checkpoint`], with the same crash-point sequence; the
/// chain state itself is two-phase, committing only after the manifest
/// rename, so a crashed attempt never marks chunks clean.
#[allow(clippy::too_many_arguments)]
pub fn delta_checkpoint(
    drms: &mut Drms,
    chain: &mut DeltaChain,
    cfg: &DeltaConfig,
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
) -> Result<DeltaReport> {
    require_fresh_prefix(fs, prefix)?;
    drms.advance_sop();
    let stage = DeltaStage::begin(chain, cfg, fs);
    match run(drms, chain, stage, ctx, fs, prefix, base_segment, arrays) {
        Ok(mut report) => {
            chain.commit(prefix);
            report.chain_depth = chain.depth();
            record_commit(ctx, ctx.now(), report.chain_depth, report.dirty_ratio());
            Ok(report)
        }
        Err(e) => {
            chain.abort();
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    drms: &Drms,
    chain: &mut DeltaChain,
    mut stage: DeltaStage,
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
) -> Result<DeltaReport> {
    ctx.barrier();
    crash_point(ctx, fs, CrashPoint::CkptEnter, false)?;
    let t0 = ctx.now();

    // Phase 1: the shared data segment, staged, without the local-sections
    // region (arrays restore from their chunk streams, not segment locals).
    let commit = Commit::new(fs, prefix, &CKPT_COMMIT);
    {
        let segment = (ctx.rank() == 0).then(|| base_segment.encode_with_region(None));
        commit.stage_segment(ctx, segment)?;
    }
    let t1 = ctx.now();

    // Phase 2: stage each array against the chain and write its pack
    // before gathering the next one.
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        ctx.recorder().span_start(ctx.now(), 0, Phase::Delta, prefix);
    }
    for a in arrays {
        if let Some((pack, _)) = stage.array(ctx, fs, chain, prefix, *a)? {
            let pack_path = delta_path(commit.staging(), a.array_name());
            fs.create(&pack_path, pack.len() as u64);
            if !pack.is_empty() {
                fs.write_at(ctx, &pack_path, 0, pack);
            }
        }
        commit.array_staged(ctx)?;
    }
    stage.record(ctx, prefix, ctx.now());
    ctx.barrier();
    let t2 = ctx.now();

    // Phase 3: manifest v4 staged, then the two-phase publish.
    let (stats, full) = (stage.stats, stage.full);
    let (app, ntasks, sop) = (&drms.cfg().app, ctx.ntasks(), drms.sop());
    let entries = arrays.iter().map(|&a| ArrayEntry::of(a)).collect();
    let t3 =
        commit.publish(ctx, |integrity| stage.manifest(app, ntasks, sop, entries, integrity))?;

    let breakdown = OpBreakdown {
        init: 0.0,
        segment: t1 - t0,
        arrays: t2 - t1,
        segment_bytes: fs.size(&segment_path(prefix))?,
        array_bytes: stats.pack_bytes,
    };
    phase_span(ctx, Phase::Segment, "write_segment", t0, t1);
    phase_span(ctx, Phase::Arrays, "stage_deltas", t1, t2);
    phase_span(ctx, Phase::Manifest, "write_manifest", t2, t3);
    record_bytes(ctx, breakdown.segment_bytes, breakdown.array_bytes);
    Ok(DeltaReport {
        breakdown,
        full,
        dirty_chunks: stats.dirty,
        clean_chunks: stats.clean,
        dedup_hits: stats.dedup,
        pack_bytes: stats.pack_bytes,
        compressed_saved: stats.saved,
        chain_depth: 0, // filled in after commit
    })
}
