//! Scrub pass: detect checksum-failed chunks and repair them from parity.

use drms_core::manifest::Manifest;
use drms_core::ChunkFault;
use drms_obs::{names, Phase, Recorder};
use drms_piofs::Piofs;

use crate::verify::verify_checkpoint;

/// Outcome of one scrub pass over one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Checkpoint prefix scrubbed.
    pub prefix: String,
    /// Corrupt chunks found by the pre-scrub verification.
    pub detected: usize,
    /// Chunks whose repair re-verified clean.
    pub repaired: usize,
    /// Chunks that could not be repaired (parity off, parity block lost, or
    /// a second defect in the same parity group).
    pub unrepairable: Vec<ChunkFault>,
    /// Defects a scrub cannot address at all: missing or unreadable files,
    /// a manifest that fails its own CRC, or a bad chunk in another
    /// prefix's pack.
    pub beyond_repair: bool,
}

impl ScrubReport {
    /// Whether the checkpoint is clean after the pass.
    pub fn is_clean(&self) -> bool {
        !self.beyond_repair && self.unrepairable.is_empty()
    }
}

/// Verifies the checkpoint under `prefix` and repairs every checksum-failed
/// chunk it can from the file system's parity stripes, counting a chunk
/// repaired only when its CRC matches after the patch. Chunks are sized to
/// the stripe unit (see `drms_core::integrity_chunk`), so a single corrupt
/// chunk maps onto stripe units whose parity groups can reconstruct it.
/// Control-plane operation (no clock); `t` stamps the `scrub` span and the
/// per-chunk `reconstruct` events.
pub fn scrub_checkpoint(fs: &Piofs, prefix: &str, rec: &dyn Recorder, t: f64) -> ScrubReport {
    if rec.enabled() {
        rec.span_start(t, 0, Phase::Scrub, prefix);
    }
    let before = verify_checkpoint(fs, prefix, rec, t);
    let mut report = ScrubReport {
        prefix: prefix.to_string(),
        detected: before.corrupt.len(),
        repaired: 0,
        unrepairable: Vec::new(),
        beyond_repair: before.manifest.is_none()
            || !before.missing.is_empty()
            || !before.unrecorded.is_empty()
            || !before.unreadable.is_empty()
            || !before.bad_refs.is_empty(),
    };
    for fault in before.corrupt {
        let fixed = fs.repair_range(&fault.path, fault.offset, fault.len).is_ok()
            && before.manifest.as_ref().is_some_and(|m| chunk_now_clean(fs, prefix, m, &fault));
        if fixed {
            if rec.enabled() {
                rec.event(
                    t,
                    0,
                    Phase::Reconstruct,
                    &format!("{} chunk {} repaired from parity", fault.path, fault.chunk),
                );
            }
            report.repaired += 1;
        } else {
            report.unrepairable.push(fault);
        }
    }
    if rec.enabled() {
        if report.repaired > 0 {
            rec.counter_add(0, names::CORRUPTIONS_REPAIRED, None, report.repaired as u64);
        }
        rec.span_end(t, 0, Phase::Scrub, prefix);
    }
    report
}

/// Re-verifies one repaired chunk against its manifest record.
fn chunk_now_clean(fs: &Piofs, prefix: &str, m: &Manifest, fault: &ChunkFault) -> bool {
    let name = &fault.path[prefix.len() + 1..];
    let Some(fi) = m.file_integrity(name) else { return false };
    fs.bytes(&fault.path).is_some_and(|b| !fi.corrupt_chunks(&b).contains(&fault.chunk))
}
