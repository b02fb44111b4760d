//! End-to-end checkpoint verification, with its telemetry.

use drms_core::manifest::manifest_path;
use drms_core::{verify, VerifyReport};
use drms_obs::{names, Phase, Recorder};
use drms_piofs::Piofs;

/// [`drms_core::verify`] with its telemetry: a `verify` span around the
/// check, one event per defect and the `resil.corruptions_detected` counter.
/// Control-plane operation (no clock); `t` stamps the span and the events.
pub fn verify_checkpoint(fs: &Piofs, prefix: &str, rec: &dyn Recorder, t: f64) -> VerifyReport {
    if !rec.enabled() {
        return verify(fs, prefix);
    }
    rec.span_start(t, 0, Phase::Verify, prefix);
    let report = verify(fs, prefix);
    // A manifest that reads but does not decode.
    if report.manifest.is_none() && fs.bytes(&manifest_path(prefix)).is_some() {
        rec.event(t, 0, Phase::Verify, &format!("manifest of {prefix} fails its CRC"));
    }
    for path in &report.unrecorded {
        rec.event(t, 0, Phase::Verify, &format!("{path} has no integrity record"));
    }
    for f in &report.corrupt {
        rec.event(t, 0, Phase::Verify, &format!("{} chunk {} corrupt", f.path, f.chunk));
    }
    for pack in &report.bad_refs {
        rec.event(t, 0, Phase::Verify, &format!("{pack} referenced chunk corrupt"));
    }
    if !report.corrupt.is_empty() {
        rec.counter_add(0, names::CORRUPTIONS_DETECTED, None, report.corrupt.len() as u64);
    }
    rec.span_end(t, 0, Phase::Verify, prefix);
    report
}
