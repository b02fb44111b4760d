//! Checkpoint manifests and file-naming conventions.
//!
//! A checkpoint under prefix `P` consists of:
//! * `P/manifest` — this manifest;
//! * `P/segment` — the representative task's data segment (DRMS), or
//!   `P/task-{rank}` — one segment per task (conventional SPMD);
//! * `P/array-{name}` — one distribution-independent stream per distributed
//!   array (DRMS only).
//!
//! The manifest records everything a *reconfigured* restart needs that is
//! not derivable from the application source: the task count at checkpoint
//! time (for `delta`), and the identity (name, domain, element type, order)
//! of every array stream, so mismatched restarts fail loudly instead of
//! reading garbage.

use std::borrow::Cow;

use drms_darray::chunks::{self, ChunkParams, Codec, StoredChunk};
use drms_slices::{Order, Range, Slice};

use crate::handle::CheckpointArray;
use drms_piofs::integrity::{chunk_crcs, fold_whole};

use crate::wire::{crc32, split_trailing_crc, Reader, WireError, Writer};

const MAGIC: [u8; 4] = *b"DMFT";
/// Manifest version, the only one `decode` accepts: a flipped version bit
/// must not turn a manifest into an older layout with fewer sections, and
/// so less, to check. Version 4 changed what [`ChunkRecord::hash`] means
/// (version 3's was FNV-1a), not the layout.
const VERSION: u32 = 4;

/// Which checkpointing scheme produced the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptKind {
    /// Reconfigurable DRMS checkpoint (one segment + array streams).
    Drms,
    /// Conventional SPMD checkpoint (one segment per task).
    Spmd,
    /// Incremental DRMS checkpoint (one segment + per-array delta packs
    /// whose chunk tables may reference prior incarnations' committed
    /// packs by content hash).
    DrmsDelta,
}

/// Identity of one array stream within a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayEntry {
    /// Array name.
    pub name: String,
    /// Element type code (see [`drms_darray::Element::CODE`]).
    pub elem_code: u8,
    /// Global index domain.
    pub domain: Slice,
    /// Stream/storage order.
    pub order: Order,
}

impl ArrayEntry {
    /// The manifest identity of a live checkpointable array.
    pub fn of(a: &dyn CheckpointArray) -> ArrayEntry {
        ArrayEntry {
            name: a.array_name().to_string(),
            elem_code: a.elem_code(),
            domain: a.domain().clone(),
            order: a.order(),
        }
    }
}

/// Integrity record for one checkpoint file: per-chunk CRC-32s plus a
/// whole-file CRC. Chunk granularity is chosen by the writer (normally the
/// PIOFS stripe unit) so a failing chunk maps directly onto the stripe
/// units a parity repair must reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub struct FileIntegrity {
    /// File name relative to the checkpoint prefix (e.g. `segment`,
    /// `array-u`).
    pub name: String,
    /// File length in bytes.
    pub len: u64,
    /// Chunk size in bytes (last chunk may be short). Always > 0.
    pub chunk: u64,
    /// CRC-32 of each chunk, in order.
    pub crcs: Vec<u32>,
    /// CRC-32 of the whole file.
    pub whole: u32,
}

impl FileIntegrity {
    /// Computes the integrity record for `bytes` at `chunk` granularity.
    /// Chunk geometry is the shared [`ChunkParams`] definition, the same
    /// one delta checkpointing cuts its content-hash chunks with — so an
    /// integrity chunk and a delta chunk of the same size are the same
    /// byte range.
    ///
    /// The chunk CRCs, then `whole` folded from them
    /// ([`drms_piofs::integrity::fold_whole`], the same fold that turns the
    /// writers' CRCs into a staged file's record): each byte is read once.
    pub fn compute(name: &str, bytes: &[u8], chunk: u64) -> FileIntegrity {
        let (len, chunk) = (bytes.len() as u64, ChunkParams::new(chunk).chunk_bytes());
        let crcs = chunk_crcs(bytes, chunk);
        let whole = fold_whole(&crcs, len, chunk);
        FileIntegrity { name: name.to_string(), len, chunk, crcs, whole }
    }

    /// Byte range `[start, end)` of chunk `i` within the file.
    pub fn chunk_range(&self, i: usize) -> (u64, u64) {
        ChunkParams::new(self.chunk).range(self.len, i)
    }

    /// Indices of chunks whose CRC does not match `bytes`. A length
    /// mismatch marks every chunk corrupt (the file is not the one that
    /// was checksummed).
    pub fn corrupt_chunks(&self, bytes: &[u8]) -> Vec<usize> {
        if bytes.len() as u64 != self.len {
            return (0..self.crcs.len().max(1)).collect();
        }
        self.crcs
            .iter()
            .enumerate()
            .filter(|&(i, &want)| {
                let (s, e) = self.chunk_range(i);
                crc32(&bytes[s as usize..e as usize]) != want
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `bytes` matches this record exactly: its length and its
    /// whole-file CRC, computed on the calling thread (every task of an SPMD
    /// restart checks its own file at once).
    pub fn matches(&self, bytes: &[u8]) -> bool {
        bytes.len() as u64 == self.len && crc32(bytes) == self.whole
    }
}

/// Where a delta chunk's stored bytes live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkSource {
    /// In this checkpoint's own pack file for the array.
    Local,
    /// In the committed pack file `delta-{array}` of a prior incarnation
    /// under `prefix`. The record is self-contained — offset, stored
    /// length, and codec all describe the referenced pack — so restore and
    /// garbage collection never need the referenced manifest.
    Ref {
        /// Checkpoint prefix holding the pack.
        prefix: String,
        /// Array whose pack file stores the chunk.
        array: String,
    },
}

/// One chunk of an array's distribution-independent stream, as stored by
/// an incremental checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecord {
    /// [`chunks::content_hash`] of the raw chunk bytes.
    pub hash: u128,
    /// Raw (uncompressed) chunk length in bytes.
    pub len: u32,
    /// Stored length in the pack file (differs from `len` when
    /// compressed).
    pub stored_len: u32,
    /// Storage codec of the pack bytes.
    pub codec: Codec,
    /// Byte offset of the stored bytes within the pack file.
    pub offset: u64,
    /// Which pack file stores the bytes.
    pub source: ChunkSource,
}

impl ChunkRecord {
    /// Path of the pack file storing this chunk, given the checkpoint's
    /// own `prefix` and the array's `name`.
    pub fn pack_path(&self, prefix: &str, array: &str) -> String {
        match &self.source {
            ChunkSource::Local => delta_path(prefix, array),
            ChunkSource::Ref { prefix, array } => delta_path(prefix, array),
        }
    }

    /// This chunk's stored bytes within `pack`, the whole pack file holding
    /// it; `None` when the recorded range runs past the pack's end.
    pub fn stored<'a>(&self, pack: &'a [u8]) -> Option<&'a [u8]> {
        let start = usize::try_from(self.offset).ok()?;
        pack.get(start..start.checked_add(self.stored_len as usize)?)
    }

    /// This chunk's `stored` bytes paired with the identity this record
    /// promises for them, as [`chunks::check_chunks`] and
    /// [`StoredChunk::decode_into`] take them.
    pub fn with_stored<'a>(&self, stored: &'a [u8]) -> StoredChunk<'a> {
        StoredChunk { codec: self.codec, stored, len: self.len, hash: self.hash }
    }

    /// Decodes this chunk's `stored` bytes and checks them against the
    /// record: exactly `len` raw bytes whose [`chunks::content_hash`] is
    /// `hash`. A `Raw` chunk is hashed in place and lent back, and an `Rle`
    /// one is never expanded past `len`. The error names the check that
    /// failed (`"fails to decode"`, `"fails its content hash"`). One chunk
    /// at a time: the reference the batch check [`chunks::check_chunks`] is
    /// tested against.
    pub fn decode<'a>(&self, stored: &'a [u8]) -> Result<Cow<'a, [u8]>, &'static str> {
        let raw = match self.codec {
            Codec::Raw => Cow::Borrowed(stored),
            Codec::Rle => Cow::Owned(
                chunks::rle_decompress(stored, self.len as usize).ok_or("fails to decode")?,
            ),
        };
        if raw.len() != self.len as usize || chunks::content_hash(&raw) != self.hash {
            return Err("fails its content hash");
        }
        Ok(raw)
    }
}

/// The delta chunk table of one array stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDelta {
    /// Array name (matches an [`ArrayEntry`]).
    pub name: String,
    /// Chunk size in bytes (shared [`ChunkParams`] geometry).
    pub chunk_bytes: u64,
    /// Total stream length in bytes.
    pub stream_len: u64,
    /// Per-chunk records, in stream order, covering the stream exactly.
    pub chunks: Vec<ChunkRecord>,
}

impl ArrayDelta {
    /// The chunk geometry of this table.
    pub fn params(&self) -> ChunkParams {
        ChunkParams::new(self.chunk_bytes)
    }
}

/// The checkpoint manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Application name.
    pub app: String,
    /// Scheme that produced the checkpoint.
    pub kind: CkptKind,
    /// Number of tasks at checkpoint time.
    pub ntasks: usize,
    /// SOP sequence number (which observable point this state belongs to).
    pub sop: u64,
    /// Array streams present.
    pub arrays: Vec<ArrayEntry>,
    /// Integrity records for the checkpoint's data files (empty for a
    /// memory-tier entry, whose pieces carry their own CRCs).
    pub integrity: Vec<FileIntegrity>,
    /// Delta chunk tables, one per array, for [`CkptKind::DrmsDelta`]
    /// checkpoints (empty otherwise).
    pub deltas: Vec<ArrayDelta>,
}

/// Path of the manifest file under `prefix`.
pub fn manifest_path(prefix: &str) -> String {
    format!("{prefix}/manifest")
}

/// Path of the DRMS representative segment under `prefix`.
pub fn segment_path(prefix: &str) -> String {
    format!("{prefix}/segment")
}

/// Path of task `rank`'s segment in an SPMD checkpoint.
pub fn task_segment_path(prefix: &str, rank: usize) -> String {
    format!("{prefix}/task-{rank}")
}

/// Path of the stream for array `name` under `prefix`.
pub fn array_path(prefix: &str, name: &str) -> String {
    format!("{prefix}/array-{name}")
}

/// Path of the delta pack file for array `name` under `prefix`: the
/// concatenation of the chunks an incremental checkpoint stored locally.
pub fn delta_path(prefix: &str, name: &str) -> String {
    format!("{prefix}/delta-{name}")
}

/// Smallest encodings of the counted records, in bytes: what a count read
/// from the buffer is capped by before anything is allocated for it
/// ([`Reader::fits`]), so a hostile count is an error, not an
/// allocation.
const MIN_RANGE: usize = 1 + 8;
const MIN_ARRAY_ENTRY: usize = 4 + 1 + 1 + 4;
const MIN_INTEGRITY: usize = 4 + 8 + 8 + 4 + 4;
const MIN_DELTA: usize = 4 + 8 + 8 + 4;
const MIN_CHUNK_RECORD: usize = 16 + 4 + 4 + 1 + 8 + 1;

fn write_range(w: &mut Writer, r: &Range) {
    match r {
        Range::Contiguous { lo, hi } => {
            w.u8(0);
            w.i64(*lo);
            w.i64(*hi);
        }
        Range::Strided { lo, hi, step } => {
            w.u8(1);
            w.i64(*lo);
            w.i64(*hi);
            w.i64(*step);
        }
        Range::Explicit(v) => {
            w.u8(2);
            w.u64(v.len() as u64);
            for x in v.iter() {
                w.i64(*x);
            }
        }
    }
}

/// Decodes a range as [`write_range`] wrote it. The constructors normalise
/// (`lo > hi` is the empty index list, a uniform index list a strided or
/// contiguous range), so a range is refused unless it is already in the
/// form they make of it: only then does it re-encode to the bytes it was
/// read from.
fn read_range(r: &mut Reader<'_>) -> Result<Range, WireError> {
    let (written, range) = match r.u8()? {
        0 => {
            let (lo, hi) = (r.i64()?, r.i64()?);
            (Range::Contiguous { lo, hi }, Ok(Range::contiguous(lo, hi)))
        }
        1 => {
            let (lo, hi, step) = (r.i64()?, r.i64()?, r.i64()?);
            (Range::Strided { lo, hi, step }, Range::strided(lo, hi, step))
        }
        2 => {
            let n = r.u64()? as usize;
            let mut v = Vec::with_capacity(r.fits(n, 8));
            for _ in 0..n {
                v.push(r.i64()?);
            }
            let range = Range::from_indices(&v);
            (Range::Explicit(v.into()), range)
        }
        _ => return Err(WireError::Truncated { what: "range tag" }),
    };
    match range {
        Ok(range) if range == written => Ok(range),
        _ => Err(WireError::Truncated { what: "range" }),
    }
}

/// Encodes a slice (exposed for segment/region metadata reuse).
pub fn write_slice(w: &mut Writer, s: &Slice) {
    w.u32(s.rank() as u32);
    for r in s.ranges() {
        write_range(w, r);
    }
}

/// Decodes a slice.
pub fn read_slice(r: &mut Reader<'_>) -> Result<Slice, WireError> {
    let rank = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(r.fits(rank, MIN_RANGE));
    for _ in 0..rank {
        ranges.push(read_range(r)?);
    }
    Ok(Slice::new(ranges))
}

impl Manifest {
    /// Encodes the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.string(&self.app);
        w.u8(match self.kind {
            CkptKind::Drms => 0,
            CkptKind::Spmd => 1,
            CkptKind::DrmsDelta => 2,
        });
        w.u64(self.ntasks as u64);
        w.u64(self.sop);
        w.u32(self.arrays.len() as u32);
        for a in &self.arrays {
            w.string(&a.name);
            w.u8(a.elem_code);
            w.u8(match a.order {
                Order::ColumnMajor => 0,
                Order::RowMajor => 1,
            });
            write_slice(&mut w, &a.domain);
        }
        w.u32(self.integrity.len() as u32);
        for fi in &self.integrity {
            w.string(&fi.name);
            w.u64(fi.len);
            w.u64(fi.chunk);
            w.u32(fi.crcs.len() as u32);
            for &c in &fi.crcs {
                w.u32(c);
            }
            w.u32(fi.whole);
        }
        w.u32(self.deltas.len() as u32);
        for d in &self.deltas {
            w.string(&d.name);
            w.u64(d.chunk_bytes);
            w.u64(d.stream_len);
            w.u32(d.chunks.len() as u32);
            for c in &d.chunks {
                w.u64((c.hash >> 64) as u64);
                w.u64(c.hash as u64);
                w.u32(c.len);
                w.u32(c.stored_len);
                w.u8(c.codec.tag());
                w.u64(c.offset);
                match &c.source {
                    ChunkSource::Local => w.u8(0),
                    ChunkSource::Ref { prefix, array } => {
                        w.u8(1);
                        w.string(prefix);
                        w.string(array);
                    }
                }
            }
        }
        // The manifest is the root of trust for the whole checkpoint, so it
        // carries its own digest: a trailing CRC over everything above.
        w.finish_with_crc()
    }

    /// Decodes a manifest of the current version, refusing any other, a
    /// failed self-CRC, and bytes left over after the last table.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, WireError> {
        match Reader::with_header(bytes, MAGIC)? {
            (_, VERSION) => {}
            (_, v) => return Err(WireError::BadVersion(v)),
        }
        let (mut r, _) = Reader::with_header(split_trailing_crc(bytes, "manifest")?, MAGIC)?;
        let app = r.string()?;
        let kind = match r.u8()? {
            0 => CkptKind::Drms,
            1 => CkptKind::Spmd,
            2 => CkptKind::DrmsDelta,
            _ => return Err(WireError::Truncated { what: "checkpoint kind" }),
        };
        let ntasks = r.u64()? as usize;
        let sop = r.u64()?;
        let narrays = r.u32()? as usize;
        let mut arrays = Vec::with_capacity(r.fits(narrays, MIN_ARRAY_ENTRY));
        for _ in 0..narrays {
            let name = r.string()?;
            let elem_code = r.u8()?;
            let order = match r.u8()? {
                0 => Order::ColumnMajor,
                1 => Order::RowMajor,
                _ => return Err(WireError::Truncated { what: "order tag" }),
            };
            let domain = read_slice(&mut r)?;
            arrays.push(ArrayEntry { name, elem_code, domain, order });
        }
        let n = r.u32()? as usize;
        let mut integrity = Vec::with_capacity(r.fits(n, MIN_INTEGRITY));
        for _ in 0..n {
            let name = r.string()?;
            let len = r.u64()?;
            let chunk = r.u64()?;
            let ncrcs = r.u32()? as usize;
            // Every record `compute` ever wrote has one CRC per chunk of
            // its geometry; anything else would index out of step.
            if ncrcs != ChunkParams::new(chunk).count(len) {
                return Err(WireError::Truncated { what: "integrity chunk count" });
            }
            let mut crcs = Vec::with_capacity(r.fits(ncrcs, 4));
            for _ in 0..ncrcs {
                crcs.push(r.u32()?);
            }
            let whole = r.u32()?;
            integrity.push(FileIntegrity { name, len, chunk, crcs, whole });
        }
        let n = r.u32()? as usize;
        let mut deltas = Vec::with_capacity(r.fits(n, MIN_DELTA));
        for _ in 0..n {
            let name = r.string()?;
            let chunk_bytes = r.u64()?;
            let stream_len = r.u64()?;
            let nchunks = r.u32()? as usize;
            let mut chunks = Vec::with_capacity(r.fits(nchunks, MIN_CHUNK_RECORD));
            for _ in 0..nchunks {
                let hash = ((r.u64()? as u128) << 64) | r.u64()? as u128;
                let len = r.u32()?;
                let stored_len = r.u32()?;
                let codec = Codec::from_tag(r.u8()?)
                    .ok_or(WireError::Truncated { what: "chunk codec tag" })?;
                let offset = r.u64()?;
                let source = match r.u8()? {
                    0 => ChunkSource::Local,
                    1 => ChunkSource::Ref { prefix: r.string()?, array: r.string()? },
                    _ => return Err(WireError::Truncated { what: "chunk source tag" }),
                };
                chunks.push(ChunkRecord { hash, len, stored_len, codec, offset, source });
            }
            deltas.push(ArrayDelta { name, chunk_bytes, stream_len, chunks });
        }
        r.finish("manifest")?;
        Ok(Manifest { app, kind, ntasks, sop, arrays, integrity, deltas })
    }

    /// Looks up the integrity record for a file (name relative to the
    /// checkpoint prefix).
    pub fn file_integrity(&self, name: &str) -> Option<&FileIntegrity> {
        self.integrity.iter().find(|fi| fi.name == name)
    }

    /// Looks up an array entry by name.
    pub fn array(&self, name: &str) -> Option<&ArrayEntry> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Looks up the delta chunk table for an array.
    pub fn delta(&self, name: &str) -> Option<&ArrayDelta> {
        self.deltas.iter().find(|d| d.name == name)
    }

    /// Every pack file path this manifest's chunk tables reference in
    /// *other* checkpoints — the mark set of the garbage collector's
    /// mark-and-sweep over the chunk hash graph. Locally stored chunks are
    /// under this manifest's own prefix and need no marking.
    pub fn referenced_packs(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        for d in &self.deltas {
            for c in &d.chunks {
                if let ChunkSource::Ref { prefix, array } = &c.source {
                    out.insert(delta_path(prefix, array));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_piofs::integrity::crc32_reference;

    fn sample() -> Manifest {
        Manifest {
            app: "bt".into(),
            kind: CkptKind::Drms,
            ntasks: 8,
            sop: 100,
            arrays: vec![
                ArrayEntry {
                    name: "u".into(),
                    elem_code: 1,
                    domain: Slice::boxed(&[(1, 64), (1, 64), (1, 64)]),
                    order: Order::ColumnMajor,
                },
                ArrayEntry {
                    name: "mask".into(),
                    elem_code: 7,
                    domain: Slice::new(vec![
                        Range::strided(0, 100, 3).unwrap(),
                        Range::from_indices(&[1, 5, 9]).unwrap(),
                    ]),
                    order: Order::RowMajor,
                },
            ],
            integrity: vec![FileIntegrity::compute("segment", b"some segment bytes", 4)],
            deltas: Vec::new(),
        }
    }

    fn sample_delta() -> Manifest {
        let mut m = sample();
        m.kind = CkptKind::DrmsDelta;
        m.deltas = vec![ArrayDelta {
            name: "u".into(),
            chunk_bytes: 4096,
            stream_len: 6000,
            chunks: vec![
                ChunkRecord {
                    hash: 0xdead_beef_dead_beef_0123_4567_89ab_cdef,
                    len: 4096,
                    stored_len: 200,
                    codec: Codec::Rle,
                    offset: 0,
                    source: ChunkSource::Local,
                },
                ChunkRecord {
                    hash: 42,
                    len: 1904,
                    stored_len: 1904,
                    codec: Codec::Raw,
                    offset: 512,
                    source: ChunkSource::Ref { prefix: "ck/7".into(), array: "u".into() },
                },
            ],
        }];
        m
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let d = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.array("u").unwrap().elem_code, 1);
        assert!(d.array("nope").is_none());
    }

    #[test]
    fn spmd_kind_roundtrip() {
        let mut m = sample();
        m.kind = CkptKind::Spmd;
        m.arrays.clear();
        assert_eq!(Manifest::decode(&m.encode()).unwrap().kind, CkptKind::Spmd);
    }

    #[test]
    fn delta_roundtrip_and_marks() {
        let m = sample_delta();
        let d = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.kind, CkptKind::DrmsDelta);
        let table = d.delta("u").unwrap();
        assert_eq!(table.params().chunk_bytes(), 4096);
        assert_eq!(table.chunks[0].pack_path("ck/9", "u"), "ck/9/delta-u");
        assert_eq!(table.chunks[1].pack_path("ck/9", "u"), "ck/7/delta-u");
        assert_eq!(
            d.referenced_packs().into_iter().collect::<Vec<_>>(),
            vec!["ck/7/delta-u".to_string()]
        );
        assert!(d.delta("nope").is_none());
    }

    #[test]
    fn paths_are_disjoint_per_prefix() {
        assert_eq!(manifest_path("ck/1"), "ck/1/manifest");
        assert_eq!(segment_path("ck/1"), "ck/1/segment");
        assert_eq!(task_segment_path("ck/1", 3), "ck/1/task-3");
        assert_eq!(array_path("ck/1", "u"), "ck/1/array-u");
        assert_eq!(delta_path("ck/1", "u"), "ck/1/delta-u");
        assert_ne!(array_path("a", "u"), array_path("b", "u"));
        assert_ne!(delta_path("ck/1", "u"), array_path("ck/1", "u"));
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let m = sample();
        let mut bytes = m.encode();
        bytes.truncate(10);
        assert!(Manifest::decode(&bytes).is_err());

        // Any single flipped byte fails the trailing self-CRC.
        let bytes = m.encode();
        for i in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::decode(&bad).is_err(), "flip at {i} went undetected");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        // Versions 1 to 3 included: a flipped version bit must not turn a
        // manifest into one with fewer sections to check, and a version 3
        // manifest's chunk hashes are FNV-1a, which no reader checks.
        for v in [1, 2, 3, 5, 9] {
            let w = Writer::with_header(MAGIC, v);
            assert_eq!(Manifest::decode(&w.finish_with_crc()), Err(WireError::BadVersion(v)));
            let mut bytes = sample().encode();
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            assert_eq!(Manifest::decode(&bytes), Err(WireError::BadVersion(v)));
        }
    }

    /// A range is read back only in the form the constructors make: a
    /// range they would normalise re-encodes to other bytes.
    #[test]
    fn non_canonical_ranges_are_refused() {
        let range = |tag: u8, fields: &[i64]| {
            let mut w = Writer::new();
            w.u8(tag);
            if tag == 2 {
                w.u64(fields.len() as u64);
            }
            fields.iter().for_each(|&x| w.i64(x));
            w.finish()
        };
        // `lo > hi`, a stride that passes `hi`, one index, a uniform list.
        for bytes in [range(0, &[5, 4]), range(1, &[0, 5, 2]), range(2, &[3]), range(2, &[1, 4, 7])]
        {
            let refused = Err(WireError::Truncated { what: "range" });
            assert_eq!(read_range(&mut Reader::new(&bytes)), refused, "{bytes:?}");
        }
        for r in [
            Range::contiguous(4, 5),
            Range::strided(0, 4, 2).unwrap(),
            Range::from_indices(&[1, 2, 4]).unwrap(),
            Range::empty(),
        ] {
            let mut w = Writer::new();
            write_range(&mut w, &r);
            assert_eq!(read_range(&mut Reader::new(&w.finish())), Ok(r));
        }
    }

    #[test]
    fn leftover_bytes_rejected() {
        // A byte after the last table, behind a valid self-CRC.
        let mut w = preamble();
        for count in [0u32, 0, 0] {
            w.u32(count); // arrays, integrity records, delta tables
        }
        assert!(Manifest::decode(&w.finish_with_crc()).is_ok());
        let mut w = preamble();
        for count in [0u32, 0, 0] {
            w.u32(count);
        }
        w.u8(0);
        assert_eq!(
            Manifest::decode(&w.finish_with_crc()),
            Err(WireError::TrailingBytes { what: "manifest" })
        );
    }

    /// An integrity record by the definition its fields document, with the
    /// byte-serial reference CRC: one walk for the chunk CRCs, a second for
    /// `whole`. What every manifest written before the one-walk `compute`
    /// holds.
    fn two_walk_reference(name: &str, bytes: &[u8], chunk: u64) -> FileIntegrity {
        let params = ChunkParams::new(chunk);
        let len = bytes.len() as u64;
        FileIntegrity {
            name: name.to_string(),
            len,
            chunk: params.chunk_bytes(),
            crcs: (0..params.count(len))
                .map(|i| {
                    let (s, e) = params.range(len, i);
                    crc32_reference(&bytes[s as usize..e as usize])
                })
                .collect(),
            whole: crc32_reference(bytes),
        }
    }

    /// Every (chunk size, payload) pair the record tests run over: the two
    /// chunk sizes the problem classes produce, lengths on both sides of
    /// every chunk edge.
    fn record_cases() -> Vec<(u64, Vec<u8>)> {
        let mut cases = Vec::new();
        for chunk in [1024u64, 65536] {
            for len in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7] {
                let bytes = (0..len).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
                cases.push((chunk, bytes));
            }
        }
        cases
    }

    #[test]
    fn one_walk_records_equal_the_two_walk_definition() {
        for (chunk, bytes) in record_cases() {
            let fi = FileIntegrity::compute("array-u", &bytes, chunk);
            assert_eq!(
                fi,
                two_walk_reference("array-u", &bytes, chunk),
                "chunk {chunk}, len {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn records_are_interchangeable_with_the_reference_and_pin_a_flip_to_its_chunk() {
        for (chunk, bytes) in record_cases() {
            let at = format!("chunk {chunk}, len {}", bytes.len());
            // A record written by the old code is accepted by the new
            // verifiers...
            let old = two_walk_reference("segment", &bytes, chunk);
            assert!(old.matches(&bytes), "{at}");
            assert!(old.corrupt_chunks(&bytes).is_empty(), "{at}");
            // ...and a record written by the new code verifies under the old
            // definition, chunk by chunk and whole.
            let new = FileIntegrity::compute("segment", &bytes, chunk);
            assert_eq!(new.whole, crc32_reference(&bytes), "{at}");
            for (i, &crc) in new.crcs.iter().enumerate() {
                let (s, e) = new.chunk_range(i);
                assert_eq!(crc, crc32_reference(&bytes[s as usize..e as usize]), "{at}, chunk {i}");
            }
            // A flipped byte fails `matches` and names exactly its chunk,
            // whichever side wrote the record.
            for pos in [0, bytes.len() / 2, bytes.len().saturating_sub(1)] {
                if pos >= bytes.len() {
                    continue;
                }
                let mut bad = bytes.clone();
                bad[pos] ^= 0x20;
                for fi in [&old, &new] {
                    assert!(!fi.matches(&bad), "{at}, flip at {pos}");
                    assert_eq!(
                        fi.corrupt_chunks(&bad),
                        vec![pos / chunk as usize],
                        "{at}, flip at {pos}"
                    );
                }
            }
        }
    }

    /// The header and scalar fields of `sample()`, up to and excluding
    /// the array count.
    fn preamble() -> Writer {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.string("bt");
        w.u8(0);
        w.u64(8);
        w.u64(100);
        w
    }

    #[test]
    fn hostile_counts_are_errors_not_allocations() {
        // Behind a valid CRC, so only the count stands between the bytes
        // and `Vec::with_capacity`: an array count...
        let mut w = preamble();
        w.u32(u32::MAX);
        assert!(matches!(Manifest::decode(&w.finish_with_crc()), Err(WireError::Truncated { .. })));

        // ...a record whose geometry really does call for
        // u32::MAX CRCs, none of which follow.
        let mut w = preamble();
        w.u32(0); // arrays
        w.u32(1); // integrity records
        w.string("segment");
        w.u64(u32::MAX as u64 * 1024);
        w.u64(1024);
        w.u32(u32::MAX);
        assert!(matches!(Manifest::decode(&w.finish_with_crc()), Err(WireError::Truncated { .. })));

        // Likewise the record and chunk-table counts themselves.
        for (nintegrity, ndeltas) in [(u32::MAX, None), (0, Some(u32::MAX))] {
            let mut w = preamble();
            w.u32(0);
            w.u32(nintegrity);
            if let Some(n) = ndeltas {
                w.u32(n);
            }
            assert!(matches!(
                Manifest::decode(&w.finish_with_crc()),
                Err(WireError::Truncated { .. })
            ));
        }
        let mut w = preamble();
        w.u32(0);
        w.u32(0);
        w.u32(1); // delta tables
        w.string("u");
        w.u64(4096);
        w.u64(6000);
        w.u32(u32::MAX); // chunk records
        assert!(matches!(Manifest::decode(&w.finish_with_crc()), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn integrity_record_out_of_step_with_its_geometry_is_rejected() {
        let mut m = sample();
        assert!(Manifest::decode(&m.encode()).is_ok());
        m.integrity[0].crcs.push(0);
        assert_eq!(
            Manifest::decode(&m.encode()),
            Err(WireError::Truncated { what: "integrity chunk count" })
        );
        m.integrity[0].crcs.truncate(1);
        assert!(Manifest::decode(&m.encode()).is_err());
    }

    #[test]
    fn file_integrity_chunking_and_detection() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let fi = FileIntegrity::compute("array-u", &data, 256);
        assert_eq!(fi.crcs.len(), 4);
        assert_eq!(fi.chunk_range(3), (768, 1000));
        assert!(fi.matches(&data));
        assert!(fi.corrupt_chunks(&data).is_empty());

        // Every single-byte flip is pinned to exactly its chunk.
        for &pos in &[0usize, 255, 256, 700, 999] {
            let mut bad = data.clone();
            bad[pos] ^= 0x01;
            assert!(!fi.matches(&bad));
            assert_eq!(fi.corrupt_chunks(&bad), vec![pos / 256]);
        }

        // Length mismatch marks everything corrupt.
        assert_eq!(fi.corrupt_chunks(&data[..999]).len(), 4);
    }
}
