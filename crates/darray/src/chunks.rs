//! Fixed-size chunk geometry, content hashing, and dirty tracking for
//! incremental checkpointing.
//!
//! A distribution-independent array stream is divided into fixed-size
//! chunks. Each chunk's identity is its 128-bit FNV-1a content hash plus
//! its length; two chunks with equal identity are treated as bitwise equal
//! (dedup), and a chunk whose identity differs from the last *committed*
//! checkpoint is dirty and must be rewritten. The same [`ChunkParams`]
//! geometry also sizes the per-chunk CRC records of checkpoint integrity
//! metadata, so one chunking definition serves both subsystems and a
//! failing integrity chunk maps one-to-one onto a delta chunk.
//!
//! The [`DirtyTracker`] retains per-array digests across checkpoints with
//! two-phase semantics mirroring the checkpoint commit protocol: a diff
//! *stages* the new digests, and only an explicit [`DirtyTracker::commit`]
//! (called after the checkpoint's manifest rename) promotes them — so a
//! crashed checkpoint can never mark chunks clean.

use std::collections::HashMap;

/// Smallest allowed chunk size in bytes.
pub const MIN_CHUNK_BYTES: u64 = 1024;
/// Largest allowed chunk size in bytes.
pub const MAX_CHUNK_BYTES: u64 = 1 << 20;

/// Clamps a proposed chunk size into the supported range.
pub fn clamp_chunk(bytes: u64) -> u64 {
    bytes.clamp(MIN_CHUNK_BYTES, MAX_CHUNK_BYTES)
}

/// Shared chunk geometry: how a byte stream of any length is cut into
/// fixed-size chunks (the last chunk may be short).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    chunk_bytes: u64,
}

impl ChunkParams {
    /// Geometry with the given chunk size (forced to at least 1).
    pub fn new(chunk_bytes: u64) -> ChunkParams {
        ChunkParams { chunk_bytes: chunk_bytes.max(1) }
    }

    /// The chunk size in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Number of chunks covering a stream of `len` bytes (0 for an empty
    /// stream).
    pub fn count(&self, len: u64) -> usize {
        len.div_ceil(self.chunk_bytes) as usize
    }

    /// Byte range `[start, end)` of chunk `i` within a stream of `len`
    /// bytes.
    pub fn range(&self, len: u64, i: usize) -> (u64, u64) {
        let start = i as u64 * self.chunk_bytes;
        (start.min(len), (start + self.chunk_bytes).min(len))
    }

    /// Index of the chunk containing byte `offset`.
    pub fn index_of(&self, offset: u64) -> usize {
        (offset / self.chunk_bytes) as usize
    }
}

/// 128-bit FNV-1a hash — deterministic, dependency-free, and wide enough
/// that treating hash-equal chunks as bitwise equal is safe in practice.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Content identity of one chunk: hash plus raw length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkDigest {
    /// 128-bit FNV-1a hash of the raw (uncompressed) chunk bytes.
    pub hash: u128,
    /// Raw chunk length in bytes.
    pub len: u32,
}

/// The digests of one stream, together with the geometry that produced
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDigests {
    /// Geometry the stream was chunked with.
    pub params: ChunkParams,
    /// Total stream length in bytes.
    pub stream_len: u64,
    /// Per-chunk digests, in stream order.
    pub digests: Vec<ChunkDigest>,
}

/// Digests a whole stream under `params`.
pub fn digest_stream(bytes: &[u8], params: ChunkParams) -> ChunkDigests {
    let len = bytes.len() as u64;
    let digests = (0..params.count(len))
        .map(|i| {
            let (s, e) = params.range(len, i);
            let chunk = &bytes[s as usize..e as usize];
            ChunkDigest { hash: fnv128(chunk), len: chunk.len() as u32 }
        })
        .collect();
    ChunkDigests { params, stream_len: len, digests }
}

impl ChunkDigests {
    /// Indices of chunks that differ from `prev` (all of them when `prev`
    /// is absent, its geometry differs, or the stream length changed —
    /// chunk boundaries only line up under identical geometry).
    pub fn dirty_against(&self, prev: Option<&ChunkDigests>) -> Vec<usize> {
        let Some(prev) = prev else { return (0..self.digests.len()).collect() };
        if prev.params != self.params || prev.stream_len != self.stream_len {
            return (0..self.digests.len()).collect();
        }
        self.digests
            .iter()
            .enumerate()
            .filter(|&(i, d)| prev.digests.get(i) != Some(d))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-array chunk digests retained from the last *committed* checkpoint,
/// with staged updates that only land on [`DirtyTracker::commit`].
#[derive(Debug, Clone, Default)]
pub struct DirtyTracker {
    committed: HashMap<String, ChunkDigests>,
    staged: HashMap<String, ChunkDigests>,
}

impl DirtyTracker {
    /// An empty tracker (everything is dirty until a commit).
    pub fn new() -> DirtyTracker {
        DirtyTracker::default()
    }

    /// Diffs `digests` against the committed snapshot of `array`, stages
    /// the new digests, and returns the dirty chunk indices.
    pub fn stage(&mut self, array: &str, digests: ChunkDigests) -> Vec<usize> {
        let dirty = digests.dirty_against(self.committed.get(array));
        self.staged.insert(array.to_string(), digests);
        dirty
    }

    /// Promotes every staged digest set: the checkpoint they were computed
    /// for has committed.
    pub fn commit(&mut self) {
        for (k, v) in self.staged.drain() {
            self.committed.insert(k, v);
        }
    }

    /// Discards staged digests: the checkpoint they were computed for was
    /// aborted, so the committed snapshot still describes what is on disk.
    pub fn abort(&mut self) {
        self.staged.clear();
    }

    /// The committed digests of `array`, if any checkpoint has committed.
    pub fn committed(&self, array: &str) -> Option<&ChunkDigests> {
        self.committed.get(array)
    }

    /// Seeds the committed snapshot of `array` directly (restart recovery:
    /// the digests come from a committed manifest, not from a diff).
    pub fn seed_committed(&mut self, array: &str, digests: ChunkDigests) {
        self.committed.insert(array.to_string(), digests);
    }
}

/// Per-chunk storage codec. Compression is optional and chosen per chunk:
/// a chunk is stored compressed only when the codec output is strictly
/// smaller than the raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw bytes, stored as-is.
    Raw,
    /// Byte run-length encoding: a sequence of `(run_len - 1, byte)` pairs.
    Rle,
}

impl Codec {
    /// Stable wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Rle => 1,
        }
    }

    /// Decodes a wire tag.
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Rle),
            _ => None,
        }
    }
}

/// Byte run-length encoding: each output pair is `(run_len - 1, byte)`
/// with runs capped at 256. Deterministic, dependency-free, and effective
/// on the long constant (often zero) spans of solver state.
pub fn rle_compress(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let mut run = 1usize;
        while run < 256 && i + run < bytes.len() && bytes[i + run] == b {
            run += 1;
        }
        out.push((run - 1) as u8);
        out.push(b);
        i += run;
    }
    out
}

/// Inverse of [`rle_compress`], producing at most `len` bytes. Returns
/// `None` on a malformed stream (odd length) and as soon as the output
/// would pass `len`: a hostile stream expands up to 128x, so it is stopped
/// at the length its record promises, not after.
pub fn rle_decompress(bytes: &[u8], len: usize) -> Option<Vec<u8>> {
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::new();
    for pair in bytes.chunks_exact(2) {
        let run = pair[0] as usize + 1;
        if run > len - out.len() {
            return None;
        }
        out.resize(out.len() + run, pair[1]);
    }
    Some(out)
}

/// Encodes a chunk for storage: RLE when it strictly wins (and is
/// enabled), raw otherwise.
pub fn encode_chunk(bytes: &[u8], compress: bool) -> (Codec, Vec<u8>) {
    if compress {
        let c = rle_compress(bytes);
        if c.len() < bytes.len() {
            return (Codec::Rle, c);
        }
    }
    (Codec::Raw, bytes.to_vec())
}

/// Decodes a stored chunk back to its raw bytes, at most
/// [`MAX_CHUNK_BYTES`] of them (no writer cuts a longer chunk). Returns
/// `None` when the stored bytes are malformed for the codec. A reader that
/// holds the chunk's record bounds the output by the recorded length
/// instead (`drms_core::manifest::ChunkRecord::decode`).
pub fn decode_chunk(codec: Codec, stored: &[u8]) -> Option<Vec<u8>> {
    match codec {
        Codec::Raw => Some(stored.to_vec()),
        Codec::Rle => rle_decompress(stored, MAX_CHUNK_BYTES as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_covers_stream_exactly() {
        let p = ChunkParams::new(256);
        assert_eq!(p.count(0), 0);
        assert_eq!(p.count(1), 1);
        assert_eq!(p.count(256), 1);
        assert_eq!(p.count(257), 2);
        assert_eq!(p.range(1000, 3), (768, 1000));
        assert_eq!(p.index_of(0), 0);
        assert_eq!(p.index_of(255), 0);
        assert_eq!(p.index_of(256), 1);
        // Ranges tile the stream with no gaps or overlap.
        let mut covered = 0;
        for i in 0..p.count(1000) {
            let (s, e) = p.range(1000, i);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, 1000);
    }

    #[test]
    fn clamp_respects_bounds() {
        assert_eq!(clamp_chunk(1), MIN_CHUNK_BYTES);
        assert_eq!(clamp_chunk(4096), 4096);
        assert_eq!(clamp_chunk(u64::MAX), MAX_CHUNK_BYTES);
    }

    #[test]
    fn single_byte_flip_dirties_exactly_one_chunk() {
        let p = ChunkParams::new(64);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let base = digest_stream(&data, p);
        assert!(base.dirty_against(Some(&base)).is_empty());
        for &pos in &[0usize, 63, 64, 500, 999] {
            let mut mutated = data.clone();
            mutated[pos] ^= 0x40;
            let d = digest_stream(&mutated, p);
            assert_eq!(d.dirty_against(Some(&base)), vec![pos / 64]);
        }
    }

    #[test]
    fn geometry_or_length_change_dirties_everything() {
        let data = vec![7u8; 500];
        let a = digest_stream(&data, ChunkParams::new(64));
        let b = digest_stream(&data, ChunkParams::new(128));
        assert_eq!(b.dirty_against(Some(&a)).len(), b.digests.len());
        let longer = digest_stream(&vec![7u8; 600], ChunkParams::new(64));
        assert_eq!(longer.dirty_against(Some(&a)).len(), longer.digests.len());
        assert_eq!(a.dirty_against(None).len(), a.digests.len());
    }

    #[test]
    fn tracker_two_phase_semantics() {
        let p = ChunkParams::new(64);
        let v1 = digest_stream(&vec![1u8; 300], p);
        let mut v2bytes = vec![1u8; 300];
        v2bytes[100] = 9;
        let v2 = digest_stream(&v2bytes, p);

        let mut t = DirtyTracker::new();
        assert_eq!(t.stage("u", v1.clone()).len(), 5); // nothing committed yet
        t.commit();
        assert_eq!(t.committed("u"), Some(&v1));

        // Staged-then-aborted diff leaves the committed snapshot intact, so
        // the same chunks stay dirty next time.
        assert_eq!(t.stage("u", v2.clone()), vec![1]);
        t.abort();
        assert_eq!(t.committed("u"), Some(&v1));
        assert_eq!(t.stage("u", v2.clone()), vec![1]);
        t.commit();
        assert_eq!(t.committed("u"), Some(&v2));
        assert!(t.stage("u", v2).is_empty());
    }

    #[test]
    fn rle_roundtrip_and_win_condition() {
        for data in [
            vec![],
            vec![0u8; 1000],
            (0..255u8).collect::<Vec<u8>>(),
            vec![5u8; 300].into_iter().chain(0..100u8).collect::<Vec<u8>>(),
            vec![9u8; 256],
            vec![9u8; 257],
        ] {
            let c = rle_compress(&data);
            assert_eq!(rle_decompress(&c, data.len()).unwrap(), data, "roundtrip failed");
            let (codec, stored) = encode_chunk(&data, true);
            assert_eq!(decode_chunk(codec, &stored).unwrap(), data);
            if codec == Codec::Rle {
                assert!(stored.len() < data.len());
            }
            let (codec, stored) = encode_chunk(&data, false);
            assert_eq!(codec, Codec::Raw);
            assert_eq!(stored, data);
        }
        assert!(rle_decompress(&[1, 2, 3], 8).is_none());
    }

    #[test]
    fn codec_tags_roundtrip() {
        for c in [Codec::Raw, Codec::Rle] {
            assert_eq!(Codec::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Codec::from_tag(9), None);
    }

    #[test]
    fn fnv128_distinguishes_and_is_stable() {
        assert_eq!(fnv128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
        assert_ne!(fnv128(&[0u8; 8]), fnv128(&[0u8; 9]));
        assert_eq!(fnv128(b"delta"), fnv128(b"delta"));
    }
}
