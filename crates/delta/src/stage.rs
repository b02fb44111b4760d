//! The delta stage both incremental writers share: the blocking
//! [`crate::delta_checkpoint`] and the asynchronous pipeline of
//! `drms-async` run the same fresh-prefix refusal, the same per-array diff,
//! the same observability and the same v4 manifest, and differ only in
//! when the pack bytes reach storage.

use drms_core::manifest::{
    manifest_path, ArrayDelta, ArrayEntry, CkptKind, FileIntegrity, Manifest,
};
use drms_core::{CheckpointArray, CoreError, Result};
use drms_darray::chunks::ChunkParams;
use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::Piofs;

use crate::chain::{DeltaChain, DeltaConfig, StageStats};

/// Refuses a `prefix` that already holds a committed checkpoint: chunk
/// references name prefixes, so committing over one would clobber a link
/// other links may reference. Each incarnation gets its own prefix.
pub fn require_fresh_prefix(fs: &Piofs, prefix: &str) -> Result<()> {
    if fs.exists(&manifest_path(prefix)) {
        return Err(CoreError::ManifestMismatch(format!(
            "delta checkpoints require a fresh prefix, but {prefix:?} already holds a \
             committed checkpoint"
        )));
    }
    Ok(())
}

/// One link being staged on a [`DeltaChain`]: the chunk geometry, whether
/// the link is a full rewrite, and what the arrays staged so far produced.
/// Chunk content lives on the representative task (rank 0), so `stats`
/// and `deltas` are rank 0's view; `full` agrees everywhere.
#[derive(Debug)]
pub struct DeltaStage {
    params: ChunkParams,
    compress: bool,
    /// Whether this link is a full rewrite (chain restart).
    pub full: bool,
    /// Chunk statistics of the arrays staged so far.
    pub stats: StageStats,
    /// One chunk table per staged array, in declaration order.
    deltas: Vec<ArrayDelta>,
}

impl DeltaStage {
    /// Begins a link on `chain` under `cfg` (every task, after the SOP
    /// advanced): decides full rewrite or delta and resolves the chunk
    /// geometry against `fs`.
    pub fn begin(chain: &mut DeltaChain, cfg: &DeltaConfig, fs: &Piofs) -> DeltaStage {
        DeltaStage {
            params: cfg.params(fs),
            compress: cfg.compress,
            full: chain.begin(cfg),
            stats: StageStats::default(),
            deltas: Vec::new(),
        }
    }

    /// Stages one array (collective): gathers its canonical stream to
    /// rank 0 in one buffer, then chunks, diffs, dedups and compresses it
    /// against the chain. Returns rank 0's pack bytes and stream length;
    /// `None` on every other rank.
    pub fn array(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        chain: &mut DeltaChain,
        prefix: &str,
        a: &dyn CheckpointArray,
    ) -> Result<Option<(Vec<u8>, u64)>> {
        let Some(stream) = a.gather_stream(ctx)? else {
            return Ok(None);
        };
        let (table, pack, s) = chain.stage_array(
            fs,
            prefix,
            a.array_name(),
            &stream,
            self.params,
            self.full,
            self.compress,
        );
        self.stats.add(s);
        self.deltas.push(table);
        Ok(Some((pack, stream.len() as u64)))
    }

    /// Publishes the link's chunk counters at `t` and closes the
    /// [`Phase::Delta`] span named `prefix` the caller opened when staging
    /// began (rank 0, traced runs only).
    pub fn record(&self, ctx: &Ctx, prefix: &str, t: f64) {
        if ctx.rank() != 0 || !ctx.recorder().enabled() {
            return;
        }
        let rec = ctx.recorder();
        rec.counter_add_at(t, 0, names::DELTA_DIRTY_CHUNKS, None, self.stats.dirty);
        rec.counter_add_at(t, 0, names::DELTA_CLEAN_CHUNKS, None, self.stats.clean);
        rec.counter_add_at(t, 0, names::DELTA_DEDUP_HITS, None, self.stats.dedup);
        rec.counter_add_at(t, 0, names::DELTA_BYTES_WRITTEN, None, self.stats.pack_bytes);
        rec.counter_add_at(t, 0, names::DELTA_COMPRESSED_BYTES, None, self.stats.saved);
        if self.full {
            rec.counter_add_at(t, 0, names::DELTA_FULL_REWRITES, None, 1);
        }
        rec.span_end(t, 0, Phase::Delta, prefix);
    }

    /// The link's v4 manifest around `integrity`, taking the staged chunk
    /// tables.
    pub fn manifest(
        self,
        app: &str,
        ntasks: usize,
        sop: u64,
        arrays: Vec<ArrayEntry>,
        integrity: Vec<FileIntegrity>,
    ) -> Manifest {
        Manifest {
            app: app.to_string(),
            kind: CkptKind::DrmsDelta,
            ntasks,
            sop,
            arrays,
            integrity,
            deltas: self.deltas,
        }
    }
}

/// Publishes the chain gauges once a link committed: the chain depth and
/// the link's [`StageStats::dirty_ratio`], at `t` (rank 0, traced runs
/// only).
pub fn record_commit(ctx: &Ctx, t: f64, chain_depth: u64, dirty_ratio: f64) {
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.gauge_set_at(t, 0, names::DELTA_CHAIN_DEPTH, 0, chain_depth as f64);
        rec.gauge_set_at(t, 0, names::DELTA_DIRTY_RATIO, 0, dirty_ratio);
    }
}
