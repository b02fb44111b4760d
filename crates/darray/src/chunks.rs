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

use drms_msg::spread;

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

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a hash — deterministic, dependency-free, and wide enough
/// that treating hash-equal chunks as bitwise equal is safe in practice.
///
/// This byte-serial loop is the definition: every batch kernel below
/// returns exactly its value for each input.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// [`fnv128`] of four inputs at once. One loop runs the four multiply
/// chains over the inputs' common length: the chains are independent, so
/// each lane's multiply overlaps the others' instead of waiting on its own
/// previous step. Each lane then finishes its own tail alone.
fn fnv128_x4(lanes: [&[u8]; 4]) -> [u128; 4] {
    let n = lanes.iter().map(|l| l.len()).min().unwrap_or(0);
    let [mut h0, mut h1, mut h2, mut h3] = [FNV128_OFFSET; 4];
    let abreast = lanes[0][..n].iter().zip(&lanes[1][..n]).zip(&lanes[2][..n]).zip(&lanes[3][..n]);
    for (((&b0, &b1), &b2), &b3) in abreast {
        h0 = (h0 ^ b0 as u128).wrapping_mul(FNV128_PRIME);
        h1 = (h1 ^ b1 as u128).wrapping_mul(FNV128_PRIME);
        h2 = (h2 ^ b2 as u128).wrapping_mul(FNV128_PRIME);
        h3 = (h3 ^ b3 as u128).wrapping_mul(FNV128_PRIME);
    }
    let mut out = [h0, h1, h2, h3];
    for (h, lane) in out.iter_mut().zip(lanes) {
        for &b in &lane[n..] {
            *h = (*h ^ b as u128).wrapping_mul(FNV128_PRIME);
        }
    }
    out
}

/// [`fnv128`] of every input, four abreast, on the calling thread:
/// `out[i] == fnv128(inputs[i])`.
pub fn fnv128_lanes(inputs: &[&[u8]]) -> Vec<u128> {
    let mut out = Vec::with_capacity(inputs.len());
    for group in inputs.chunks(4) {
        let mut lanes: [&[u8]; 4] = [&[]; 4];
        lanes[..group.len()].copy_from_slice(group);
        out.extend_from_slice(&fnv128_x4(lanes)[..group.len()]);
    }
    out
}

/// [`fnv128`] of every input, as [`fnv128_lanes`], with a batch of at
/// least a mebibyte split across the host's cores.
pub fn fnv128_batch(inputs: &[&[u8]]) -> Vec<u128> {
    spread(&mut inputs.to_vec(), |c| c.len(), |_, part| fnv128_lanes(part)).concat()
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

/// Digests a whole stream under `params`, through [`fnv128_batch`].
pub fn digest_stream(bytes: &[u8], params: ChunkParams) -> ChunkDigests {
    let len = bytes.len() as u64;
    let chunks: Vec<&[u8]> = (0..params.count(len))
        .map(|i| {
            let (s, e) = params.range(len, i);
            &bytes[s as usize..e as usize]
        })
        .collect();
    let digests = fnv128_batch(&chunks)
        .into_iter()
        .zip(&chunks)
        .map(|(hash, chunk)| ChunkDigest { hash, len: chunk.len() as u32 })
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
    rle_compress_below(bytes, usize::MAX, &mut out);
    out
}

/// Appends the [`rle_compress`] output of `bytes` to `out` and returns
/// whether it came out shorter than `limit` bytes. Gives up, with `out`
/// holding a prefix of the output, as soon as the next pair would reach
/// `limit`: the output only grows, so it could never get back under.
fn rle_compress_below(bytes: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
    let mut i = 0;
    while i < bytes.len() {
        if out.len() + 2 >= limit {
            return false;
        }
        let b = bytes[i];
        let mut run = 1usize;
        while run < 256 && i + run < bytes.len() && bytes[i + run] == b {
            run += 1;
        }
        out.push((run - 1) as u8);
        out.push(b);
        i += run;
    }
    out.len() < limit
}

/// Inverse of [`rle_compress`], producing at most `len` bytes. Returns
/// `None` on a malformed stream (odd length) and as soon as the output
/// would pass `len`: a hostile stream expands up to 128x, so it is stopped
/// at the length its record promises, not after.
pub fn rle_decompress(bytes: &[u8], len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    rle_decompress_into(bytes, len, &mut out).then_some(out)
}

/// [`rle_decompress`] appending to `out`: at most `len` bytes land there.
/// Returns `false` on the streams `rle_decompress` refuses, with `out`
/// holding whatever landed before the refusal.
fn rle_decompress_into(bytes: &[u8], len: usize, out: &mut Vec<u8>) -> bool {
    if !bytes.len().is_multiple_of(2) {
        return false;
    }
    let end = out.len() + len;
    for pair in bytes.chunks_exact(2) {
        let run = pair[0] as usize + 1;
        if run > end - out.len() {
            return false;
        }
        out.resize(out.len() + run, pair[1]);
    }
    true
}

/// Encodes a chunk for storage: RLE when it strictly wins (and is
/// enabled), raw otherwise. The RLE attempt stops as soon as its output
/// reaches the raw length, so incompressible bytes cost one pass of the
/// encoder over at most their own length, into one buffer that the raw
/// copy then reuses.
pub fn encode_chunk(bytes: &[u8], compress: bool) -> (Codec, Vec<u8>) {
    let mut out = Vec::with_capacity(bytes.len());
    if compress && rle_compress_below(bytes, bytes.len(), &mut out) {
        return (Codec::Rle, out);
    }
    out.clear();
    out.extend_from_slice(bytes);
    (Codec::Raw, out)
}

/// A stored chunk and the identity its record promises: what a reader
/// checks before trusting a byte of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredChunk<'a> {
    /// Codec of the stored bytes.
    pub codec: Codec,
    /// The stored (possibly compressed) bytes.
    pub stored: &'a [u8],
    /// Raw length the record promises.
    pub len: u32,
    /// [`fnv128`] of the raw bytes the record promises.
    pub hash: u128,
}

/// Why a stored chunk was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The stored bytes are not a well-formed stream of their codec: an
    /// odd-length RLE stream, or one whose runs pass the promised length.
    Decode,
    /// The raw bytes are not the promised length, or do not hash to the
    /// promised hash.
    Hash,
}

impl Refusal {
    /// The check that failed, as a reader reports it.
    pub fn why(self) -> &'static str {
        match self {
            Refusal::Decode => "fails to decode",
            Refusal::Hash => "fails its content hash",
        }
    }
}

impl<'a> StoredChunk<'a> {
    /// Appends this chunk's raw bytes to `out`: a `Raw` chunk's stored
    /// bytes, or an `Rle` chunk's runs, never more than `len` of them.
    /// Refuses a malformed RLE stream ([`Refusal::Decode`]) and a chunk
    /// whose raw bytes are not `len` long ([`Refusal::Hash`]); the hash is
    /// the caller's to check, with [`fnv128_lanes`].
    pub fn decode_into(&self, out: &mut Vec<u8>) -> Result<(), Refusal> {
        let start = out.len();
        match self.codec {
            Codec::Raw => out.extend_from_slice(self.stored),
            Codec::Rle => {
                if !rle_decompress_into(self.stored, self.len as usize, out) {
                    return Err(Refusal::Decode);
                }
            }
        }
        if out.len() - start != self.len as usize {
            return Err(Refusal::Hash);
        }
        Ok(())
    }

    /// This chunk's raw bytes, checked against its length but not its
    /// hash: a `Raw` chunk's stored bytes in place, an `Rle` one decoded
    /// into `buf` (cleared first).
    fn raw<'b>(&self, buf: &'b mut Vec<u8>) -> Result<&'b [u8], Refusal>
    where
        'a: 'b,
    {
        if self.codec == Codec::Raw {
            let whole = self.stored.len() == self.len as usize;
            return if whole { Ok(self.stored) } else { Err(Refusal::Hash) };
        }
        buf.clear();
        self.decode_into(buf)?;
        Ok(buf)
    }
}

/// Checks every stored chunk against its record, four abreast, with a
/// batch of at least a mebibyte of raw bytes split across the host's
/// cores. Returns the lowest index that fails and why: the refusals of
/// [`StoredChunk::decode_into`], and [`Refusal::Hash`] for raw bytes whose
/// [`fnv128`] is not the promised one. A `Raw` chunk is hashed where it
/// lies; an `Rle` chunk is decoded into one of four buffers each part
/// reuses, so the memory this takes is bounded by four chunks per core,
/// whatever the batch holds.
pub fn check_chunks(chunks: &[StoredChunk<'_>]) -> Result<(), (usize, Refusal)> {
    let parts = spread(
        &mut chunks.to_vec(),
        |c| c.len as usize,
        |base, part| check_part(part).map_err(|(i, why)| (base + i, why)),
    );
    parts.into_iter().collect()
}

/// [`check_chunks`] on the calling thread.
fn check_part(chunks: &[StoredChunk<'_>]) -> Result<(), (usize, Refusal)> {
    let mut bufs: [Vec<u8>; 4] = Default::default();
    for (g, group) in chunks.chunks(4).enumerate() {
        let mut lanes: [&[u8]; 4] = [&[]; 4];
        let mut refused = [None; 4];
        for (((c, buf), lane), refusal) in
            group.iter().zip(&mut bufs).zip(&mut lanes).zip(&mut refused)
        {
            match c.raw(buf) {
                Ok(raw) => *lane = raw,
                Err(why) => *refusal = Some(why),
            }
        }
        let hashes = fnv128_x4(lanes);
        for (k, c) in group.iter().enumerate() {
            let why = refused[k].or((hashes[k] != c.hash).then_some(Refusal::Hash));
            if let Some(why) = why {
                return Err((4 * g + k, why));
            }
        }
    }
    Ok(())
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
    use drms_msg::SPREAD_MIN;

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

    /// The early-stopping encoder decides exactly as compressing in full
    /// and then comparing lengths did, on both sides of the tie.
    #[test]
    fn encode_chunk_decides_as_compress_then_compare() {
        let noise: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        // Runs of three, one and two: three pairs, six bytes either way.
        let tie = vec![5, 5, 5, 6, 7, 7];
        assert_eq!(rle_compress(&tie).len(), tie.len());
        for data in
            [vec![], vec![7u8], vec![0u8; 256], vec![0u8; 257], noise, vec![0u8; 65536], tie]
        {
            let full = rle_compress(&data);
            let expected = if full.len() < data.len() {
                (Codec::Rle, full)
            } else {
                (Codec::Raw, data.clone())
            };
            assert_eq!(encode_chunk(&data, true), expected, "len {}", data.len());
        }
    }

    /// The batch kernels equal `fnv128` input by input, on ragged batches
    /// just under the size that spreads across cores and just over it.
    #[test]
    fn batch_kernels_equal_fnv128_on_both_sides_of_the_spread() {
        let bytes: Vec<u8> = (0..SPREAD_MIN as u32 + 4096).map(|i| (i % 251) as u8).collect();
        for total in [SPREAD_MIN - 1, SPREAD_MIN, SPREAD_MIN + 4096] {
            // Lengths 0, 1, 2, ... 16 KiB + 3 cycling, cut from `bytes`.
            let mut inputs: Vec<&[u8]> = Vec::new();
            let mut at = 0;
            for k in (0..).map(|k: usize| k % 7) {
                let len = (k * 2731 + k % 3).min(total - at);
                inputs.push(&bytes[at..at + len]);
                at += len;
                if at == total {
                    break;
                }
            }
            let expected: Vec<u128> = inputs.iter().map(|b| fnv128(b)).collect();
            assert_eq!(fnv128_batch(&inputs), expected, "total {total}");
            assert_eq!(fnv128_lanes(&inputs), expected, "total {total}");
            let stored: Vec<StoredChunk<'_>> = inputs
                .iter()
                .map(|b| StoredChunk {
                    codec: Codec::Raw,
                    stored: b,
                    len: b.len() as u32,
                    hash: fnv128(b),
                })
                .collect();
            assert_eq!(check_chunks(&stored), Ok(()));
            let last = stored.len() - 1;
            let mut bad = stored.clone();
            bad[last].hash ^= 1;
            assert_eq!(check_chunks(&bad), Err((last, Refusal::Hash)));
        }
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
