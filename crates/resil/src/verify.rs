//! End-to-end checkpoint verification against the manifest.

use drms_core::manifest::{
    array_path, manifest_path, segment_path, task_segment_path, CkptKind, Manifest,
};
use drms_obs::{names, Phase, Recorder};
use drms_piofs::Piofs;

/// One chunk of one file that failed its CRC check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFault {
    /// Full path of the damaged file.
    pub path: String,
    /// Index of the failing chunk in the file's integrity record.
    pub chunk: usize,
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// Outcome of verifying one checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Checkpoint prefix verified.
    pub prefix: String,
    /// Whether the manifest decoded (including its trailing self-CRC).
    pub manifest_ok: bool,
    /// Files the checkpoint kind mandates that are missing.
    pub missing: Vec<String>,
    /// Files that could not be read logically (lost with a server and not
    /// reconstructible from parity).
    pub unreadable: Vec<String>,
    /// Chunks whose stored bytes fail their recorded CRC.
    pub corrupt: Vec<ChunkFault>,
}

impl VerifyReport {
    /// Whether the checkpoint verified clean: manifest intact, nothing
    /// missing, unreadable, or corrupt.
    pub fn is_valid(&self) -> bool {
        self.manifest_ok
            && self.missing.is_empty()
            && self.unreadable.is_empty()
            && self.corrupt.is_empty()
    }

    fn damaged(prefix: &str) -> VerifyReport {
        VerifyReport {
            prefix: prefix.to_string(),
            manifest_ok: false,
            missing: Vec::new(),
            unreadable: Vec::new(),
            corrupt: Vec::new(),
        }
    }
}

/// Files the checkpoint kind mandates beyond what integrity records cover
/// (a v1 manifest has no integrity records at all; a damaged writer could
/// also have died between data and manifest).
fn required_files(prefix: &str, m: &Manifest) -> Vec<String> {
    match m.kind {
        CkptKind::Drms => std::iter::once(segment_path(prefix))
            .chain(m.arrays.iter().map(|a| array_path(prefix, &a.name)))
            .collect(),
        CkptKind::Spmd => (0..m.ntasks).map(|r| task_segment_path(prefix, r)).collect(),
        // Incremental checkpoints mandate the segment plus every pack file
        // their chunk tables point into — including packs of prior
        // incarnations (a delta chain with missing history cannot restore).
        CkptKind::DrmsDelta => std::iter::once(segment_path(prefix))
            .chain(
                m.deltas.iter().flat_map(|d| d.chunks.iter().map(|c| c.pack_path(prefix, &d.name))),
            )
            .collect(),
    }
}

/// Verifies the checkpoint under `prefix` end-to-end and reports every
/// defect found: manifest decode failure, mandated-but-missing files,
/// unreadable (unreconstructible) files, and chunk-level CRC mismatches.
/// Control-plane operation (no clock); `t` stamps the emitted `verify`
/// span and the per-defect trace events.
pub fn verify_checkpoint(fs: &Piofs, prefix: &str, rec: &dyn Recorder, t: f64) -> VerifyReport {
    if rec.enabled() {
        rec.span_start(t, 0, Phase::Verify, prefix);
    }
    let report = run_verify(fs, prefix, rec, t);
    if rec.enabled() {
        let detected = report.corrupt.len() as u64;
        if detected > 0 {
            rec.counter_add(0, names::CORRUPTIONS_DETECTED, None, detected);
        }
        rec.span_end(t, 0, Phase::Verify, prefix);
    }
    report
}

fn run_verify(fs: &Piofs, prefix: &str, rec: &dyn Recorder, t: f64) -> VerifyReport {
    let Some(bytes) = fs.peek(&manifest_path(prefix)) else {
        return VerifyReport::damaged(prefix);
    };
    let Ok(m) = Manifest::decode(&bytes) else {
        if rec.enabled() {
            rec.event(t, 0, Phase::Verify, &format!("manifest of {prefix} fails its CRC"));
        }
        return VerifyReport::damaged(prefix);
    };

    let mut report = VerifyReport {
        prefix: prefix.to_string(),
        manifest_ok: true,
        missing: Vec::new(),
        unreadable: Vec::new(),
        corrupt: Vec::new(),
    };
    for path in required_files(prefix, &m) {
        if !fs.exists(&path) {
            report.missing.push(path);
        }
    }
    for fi in &m.integrity {
        let path = format!("{prefix}/{}", fi.name);
        let Some(corrupt) = fs.with_bytes(&path, |bytes| fi.corrupt_chunks(bytes)) else {
            if fs.exists(&path) {
                report.unreadable.push(path);
            } else if !report.missing.contains(&path) {
                report.missing.push(path);
            }
            continue;
        };
        for chunk in corrupt {
            let (offset, end) = fi.chunk_range(chunk);
            if rec.enabled() {
                rec.event(t, 0, Phase::Verify, &format!("{path} chunk {chunk} corrupt"));
            }
            report.corrupt.push(ChunkFault {
                path: path.clone(),
                chunk,
                offset,
                len: end - offset,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::NullRecorder;

    #[test]
    fn missing_manifest_is_invalid() {
        let fs = Piofs::new(drms_piofs::PiofsConfig::test_tiny(4), 1);
        let r = verify_checkpoint(&fs, "ck/none", &NullRecorder, 0.0);
        assert!(!r.manifest_ok);
        assert!(!r.is_valid());
    }
}
