//! Restart served out of the memory tier.
//!
//! `resume_from_tier` and `restore_arrays_from_tier` run the restore driver
//! `Drms::initialize` and `Drms::restore_arrays` run, on a source whose
//! segment and array bytes are resident tier pieces instead of PIOFS files.
//! Pricing is where the tier earns its keep: a piece held on the reading
//! task's own node moves at memory-copy bandwidth; a remote piece pays one
//! message latency plus wire time — both far ahead of PIOFS client read
//! bandwidth, which is the whole point of the tier.

use drms_core::manifest::Manifest;
use drms_core::restore::{self, RestartSource};
use drms_core::{
    phase_span, CheckpointArray, CoreError, Drms, DrmsConfig, EnableFlag, RestartInfo, Result,
};
use drms_darray::stream::StreamRange;
use drms_msg::Ctx;
use drms_obs::{markers, names, Phase};
use drms_piofs::{Piofs, Stored};

use crate::store::{array_file, SEGMENT_FILE};
use crate::tier::MemTier;

/// The sealed tier entry under `prefix` as a restart source: manifest,
/// segment and array streams all come out of resident pieces, and the
/// restart consults no crash point.
#[derive(Clone, Copy)]
pub struct TierSource<'a> {
    /// The tier holding the entry.
    pub tier: &'a MemTier,
    /// The checkpoint prefix.
    pub prefix: &'a str,
}

impl TierSource<'_> {
    /// Fetches `[off, off + len)` of a tier file, priced like any other
    /// tier read and counted against `memtier.restore_bytes`. A zero-length
    /// request returns an empty buffer without touching the tier — the
    /// collective fetch convention for ranks that have nothing to read this
    /// wave (tier reads price locally, so there is no phase to line up
    /// with).
    fn fetch(&self, ctx: &mut Ctx, file: &str, off: u64, len: u64) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let f = self.tier.fetch(self.prefix, file, off, len)?;
        // Local holders move at memory-copy bandwidth, remote holders pay
        // latency plus wire time.
        let (cost, my) = (*ctx.cost(), ctx.node());
        let mut dt = 0.0;
        for &(node, bytes) in &f.sources {
            dt += if node == my {
                bytes as f64 / cost.memcpy_bw
            } else {
                cost.latency + cost.wire_time(bytes as usize)
            };
        }
        ctx.charge(dt);
        if ctx.recorder().enabled() {
            ctx.recorder().counter_add(ctx.rank(), names::MEMTIER_RESTORE_BYTES, None, len);
        }
        Ok(f.data)
    }
}

impl RestartSource for TierSource<'_> {
    const SEGMENT_RECORD: bool = false;

    fn prefix(&self) -> &str {
        self.prefix
    }

    fn manifest(&self, _ctx: &mut Ctx) -> Result<Manifest> {
        self.tier.manifest(self.prefix)
    }

    /// Every task runs its own priced, per-piece-CRC-checked fetch (tier
    /// reads price locally from the holders of the pieces it touched) and
    /// is handed what it fetched.
    fn segment(&self, ctx: &mut Ctx) -> Result<Stored> {
        let len = self.tier.file_len(self.prefix, SEGMENT_FILE)?;
        Ok(self.fetch(ctx, SEGMENT_FILE, 0, len)?.into())
    }

    /// The section-granular read localized recovery uses: only the byte
    /// ranges of *lost* sections are pulled, never the whole stream.
    fn fetch_range(
        &self,
        ctx: &mut Ctx,
        _manifest: &Manifest,
        array: &str,
        range: StreamRange,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        *out = self.fetch(ctx, &array_file(array), range.offset, range.len)?;
        Ok(())
    }

    fn arrays_restored(&self, ctx: &Ctx, t0: f64, t1: f64, array_bytes: u64) {
        phase_span(ctx, Phase::Arrays, markers::RESTORE_ARRAYS, t0, t1);
        phase_span(ctx, Phase::MemTier, "restore", t0, t1);
        if ctx.rank() == 0 && ctx.recorder().enabled() {
            ctx.recorder().counter_add(0, names::ARRAY_BYTES, None, array_bytes);
        }
    }
}

/// `drms_initialize` against the memory tier (collective): checks the entry
/// is intact for the surviving node set, reloads the application text from
/// the file system, and serves the representative data segment out of
/// resident pieces. Returns the run-time handle and the restart info —
/// a tier resume is always a restart, never a fresh start.
pub fn resume_from_tier(
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: &MemTier,
    cfg: DrmsConfig,
    enable: EnableFlag,
    prefix: &str,
) -> Result<(Drms, Box<RestartInfo>)> {
    if !tier.is_intact(prefix) {
        return Err(CoreError::NotIntact(format!("{prefix:?} cannot serve a restart")));
    }
    let (drms, info) = restore::open(ctx, fs, cfg, enable, &TierSource { tier, prefix })?;
    Ok((drms, Box::new(info)))
}

/// Loads every array from the tier entry under `prefix` (collective), after
/// the application has re-created them under the current distributions.
/// Validates each array against the manifest exactly like
/// [`Drms::restore_arrays`] and returns the array-phase time. The `Drms`
/// handle is not consulted (every task streams); the parameter keeps the
/// signature of the other restore entry points.
pub fn restore_arrays_from_tier(
    ctx: &mut Ctx,
    tier: &MemTier,
    _drms: &Drms,
    prefix: &str,
    manifest: &Manifest,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<f64> {
    restore::restore_arrays(ctx, &TierSource { tier, prefix }, manifest, arrays)
}
