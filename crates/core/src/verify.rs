//! The one verdict on a checkpoint: end-to-end verification against its
//! manifest. Retention, the restart walk, the recovery ladder, scrub and the
//! memory tier's spill all ask this module whether a prefix is a restart
//! source, so they cannot disagree.

use std::collections::{BTreeMap, BTreeSet};

use drms_darray::chunks;
use drms_piofs::{Piofs, Stored};

use crate::manifest::{
    array_path, manifest_path, segment_path, task_segment_path, ChunkRecord, ChunkSource, CkptKind,
    Manifest,
};

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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    /// Checkpoint prefix verified.
    pub prefix: String,
    /// The decoded manifest (its trailing self-CRC included); `None` when
    /// it is missing or fails to decode.
    pub manifest: Option<Manifest>,
    /// Files the checkpoint kind mandates that are missing.
    pub missing: Vec<String>,
    /// Files the checkpoint kind mandates under its own prefix that the
    /// manifest carries no integrity record for. Every PIOFS writer records
    /// each of them, so such a manifest cannot vouch for its data.
    pub unrecorded: Vec<String>,
    /// Files that could not be read logically (lost with a server and not
    /// reconstructible from parity).
    pub unreadable: Vec<String>,
    /// Chunks whose stored bytes fail their recorded CRC.
    pub corrupt: Vec<ChunkFault>,
    /// Packs of prior incarnations holding a chunk this delta checkpoint
    /// references that runs past the pack's end, fails to decode, or fails
    /// its content hash. The prefix's own integrity records do not cover
    /// them, and a scrub of this prefix cannot repair them.
    pub bad_refs: Vec<String>,
}

impl VerifyReport {
    /// Whether the checkpoint verified clean: manifest intact, nothing
    /// missing, unrecorded, unreadable, corrupt, or badly referenced.
    pub fn is_valid(&self) -> bool {
        self.manifest.is_some()
            && self.missing.is_empty()
            && self.unrecorded.is_empty()
            && self.unreadable.is_empty()
            && self.corrupt.is_empty()
            && self.bad_refs.is_empty()
    }
}

/// Files the checkpoint kind mandates, whatever the integrity records say
/// (a damaged writer could have died between data and manifest): each
/// once, in the order the manifest first names it.
fn required_files(prefix: &str, m: &Manifest) -> Vec<String> {
    let named: Vec<String> = match m.kind {
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
    };
    let mut seen = BTreeSet::new();
    named.into_iter().filter(|path| seen.insert(path.clone())).collect()
}

/// Verifies the checkpoint under `prefix` end-to-end and reports every
/// defect found: the manifest fails to decode, a mandated file is missing or
/// (under `prefix`) has no integrity record, a file is unreadable
/// (unreconstructible), a chunk fails its recorded CRC, or — for a delta
/// checkpoint — a chunk stored in a prior incarnation's pack no longer
/// decodes to its recorded content hash. Such packs are checked by content
/// hash alone, in one [`chunks::check_chunks`] batch per pack. Every file
/// is read through [`Piofs::bytes`], each referenced pack once.
/// Control-plane operation (no clock).
pub fn verify(fs: &Piofs, prefix: &str) -> VerifyReport {
    let mut report = VerifyReport { prefix: prefix.to_string(), ..VerifyReport::default() };
    let Some(Ok(m)) = fs.bytes(&manifest_path(prefix)).map(|b| Manifest::decode(&b)) else {
        return report;
    };
    let own = format!("{prefix}/");
    for path in required_files(prefix, &m) {
        let recorded = path.strip_prefix(&own).is_none_or(|name| m.file_integrity(name).is_some());
        if !recorded {
            report.unrecorded.push(path.clone());
        }
        if !fs.exists(&path) {
            report.missing.push(path);
        }
    }
    for fi in &m.integrity {
        let path = format!("{prefix}/{}", fi.name);
        let Some(corrupt) = fs.bytes(&path).map(|bytes| fi.corrupt_chunks(&bytes)) else {
            if fs.exists(&path) {
                report.unreadable.push(path);
            } else if !report.missing.contains(&path) {
                report.missing.push(path);
            }
            continue;
        };
        for chunk in corrupt {
            let (offset, end) = fi.chunk_range(chunk);
            report.corrupt.push(ChunkFault {
                path: path.clone(),
                chunk,
                offset,
                len: end - offset,
            });
        }
    }
    // Chunks stored in a prior incarnation's pack: the referenced manifest
    // may be long gone, so each is checked against its own record.
    let mut refs: BTreeMap<String, Vec<&ChunkRecord>> = BTreeMap::new();
    for d in &m.deltas {
        for c in d.chunks.iter().filter(|c| matches!(c.source, ChunkSource::Ref { .. })) {
            refs.entry(c.pack_path(prefix, &d.name)).or_default().push(c);
        }
    }
    for (pack, records) in refs {
        // Every chunk in range, then all of them checked in one batch.
        let intact = |bytes: Stored| {
            let stored: Option<Vec<_>> =
                records.iter().map(|c| c.stored(&bytes).map(|s| c.with_stored(s))).collect();
            stored.is_some_and(|stored| chunks::check_chunks(&stored).is_ok())
        };
        match fs.bytes(&pack).map(intact) {
            Some(true) => {}
            Some(false) => report.bad_refs.push(pack),
            // A missing pack is already a missing required file.
            None if fs.exists(&pack) => report.unreadable.push(pack),
            None => {}
        }
    }
    report.manifest = Some(m);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_manifest_is_invalid() {
        let fs = Piofs::new(drms_piofs::PiofsConfig::test_tiny(4), 1);
        let r = verify(&fs, "ck/none");
        assert!(r.manifest.is_none());
        assert!(!r.is_valid());
    }
}
