//! Verified restart fallback: choose the newest checkpoint that can be
//! trusted, repairing or quarantining the damaged ones along the way.

use drms_core::find_checkpoints;
use drms_core::manifest::{manifest_path, Manifest};
use drms_obs::Recorder;
use drms_piofs::Piofs;

use crate::scrub::scrub_checkpoint;
use crate::verify::verify_checkpoint;

/// Outcome of a restart-time walk over the checkpoint chain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RestartPlan {
    /// Newest checkpoint that verified (possibly after scrub repair), with
    /// its manifest; `None` when no checkpoint survives.
    pub chosen: Option<(String, Manifest)>,
    /// Newer checkpoints skipped before `chosen` was accepted.
    pub fallback_depth: usize,
    /// Prefixes quarantined by this walk (manifest renamed to
    /// `manifest.quarantined`; data preserved for diagnosis, checkpoint
    /// invisible to future discovery).
    pub quarantined: Vec<String>,
    /// Corrupt chunks repaired from parity across the walk.
    pub repaired: usize,
}

/// Takes the checkpoint under `prefix` out of circulation by renaming its
/// manifest to `manifest.quarantined`: discovery ([`find_checkpoints`])
/// no longer sees it, the orphan sweep will not reclaim its data, and a
/// human (or test) can still inspect every byte. Returns whether a manifest
/// was there to quarantine.
pub fn quarantine_checkpoint(fs: &Piofs, prefix: &str) -> bool {
    let m = manifest_path(prefix);
    fs.rename(&m, &format!("{m}.quarantined"))
}

/// Walks the checkpoints of `app` newest-first and returns the first one
/// that verifies end-to-end, scrubbing repairable corruption in place and
/// quarantining checkpoints that stay damaged. The returned
/// [`RestartPlan::fallback_depth`] is the number of newer checkpoints the
/// walk had to skip — 0 means the newest checkpoint was healthy (the
/// paper's assumed case). Control-plane operation (no clock); `t` stamps
/// the emitted verify/scrub telemetry.
pub fn choose_restart(fs: &Piofs, app: Option<&str>, rec: &dyn Recorder, t: f64) -> RestartPlan {
    let mut plan = RestartPlan::default();
    for (depth, (prefix, _)) in find_checkpoints(fs, app).into_iter().enumerate() {
        let mut report = verify_checkpoint(fs, &prefix, rec, t);
        if !report.is_valid() {
            // Damaged: try to scrub it back to health before giving up on it.
            let scrub = scrub_checkpoint(fs, &prefix, rec, t);
            plan.repaired += scrub.repaired;
            if scrub.is_clean() {
                report = verify_checkpoint(fs, &prefix, rec, t);
            }
        }
        if report.is_valid() {
            plan.fallback_depth = depth;
            plan.chosen = report.manifest.map(|m| (prefix, m));
            return plan;
        }
        quarantine_checkpoint(fs, &prefix);
        plan.quarantined.push(prefix);
    }
    plan
}
