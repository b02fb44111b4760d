//! Fixed-size chunk geometry, content hashing, and dirty tracking for
//! incremental checkpointing.
//!
//! A distribution-independent array stream is divided into fixed-size
//! chunks. Each chunk's identity is its 128-bit [`content_hash`] plus
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

/// 128-bit FNV-1a hash, byte by byte. The chunk identity of manifest
/// versions up to 3; no product path calls it any more, and it stays
/// bit-identical because host-speed probes time it as a fixed reference.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Bytes [`content_hash`] reads per step: one `u64` into each of its
/// eight accumulators.
const STRIPE: usize = 64;
/// Accumulators, one per 8-byte word of a stripe.
const LANES: usize = STRIPE / 8;
/// Stripes between two scrambles of the accumulators (a kibibyte).
const BLOCK_STRIPES: usize = 16;

/// Key words of [`content_hash`], a splitmix64 sequence (Steele, Lea and
/// Flood, 2014): stripe `s` of a block reads `KEYS[s..s + 8]`, the
/// scramble `KEYS[24..32]` and the two halves of the fold `KEYS[32..40]`
/// and `KEYS[40..48]`.
const KEYS: [u64; 48] = {
    let mut keys = [0u64; 48];
    let mut x = 0u64;
    let mut i = 0;
    while i < keys.len() {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        keys[i] = z ^ (z >> 31);
        i += 1;
    }
    keys
};
const SCRAMBLE_KEY: usize = 24;
const FOLD_KEYS: [usize; 2] = [32, 40];
/// XXH3's odd multipliers: the scramble's, and the length's in each half
/// of the fold.
const PRIME32: u64 = 0x9e37_79b1;
const PRIME64: [u64; 2] = [0x9e37_79b1_85eb_ca87, 0xc2b2_ae3d_27d4_eb4f];
/// Starting accumulators: XXH3's.
const INIT: [u64; LANES] = [
    0xc2b2_ae3d,
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
    0x85eb_ca77,
    0x27d4_eb2f_1656_67c5,
    0x9e37_79b1,
];

/// The 128-bit content identity of a chunk: wide enough that treating
/// hash-equal chunks as bitwise equal is safe in practice, and a word-wide
/// kernel that keeps up with memory on one core.
///
/// The long-input loop of XXH3 (Collet, 2019), in portable safe Rust.
/// Each 64-byte stripe feeds one 8-byte word to each of eight `u64`
/// accumulators: the word is added to the neighbouring accumulator, and
/// the product of the two 32-bit halves of the word xor its key to its
/// own. The keys slide one word per stripe, so no two stripes of a block
/// are interchangeable; every 16 stripes the accumulators are scrambled; a
/// short tail is zero-padded to a stripe; and two multiply-folds of the
/// accumulators, each seeded with the length, give the two halves of the
/// result. Its values are its own: no XXH3 compatibility is claimed.
pub fn content_hash(bytes: &[u8]) -> u128 {
    let mut acc = INIT;
    let (stripes, tail) = bytes.as_chunks::<STRIPE>();
    for block in stripes.chunks(BLOCK_STRIPES) {
        for (s, stripe) in block.iter().enumerate() {
            accumulate(&mut acc, stripe, s);
        }
        if block.len() == BLOCK_STRIPES {
            scramble(&mut acc);
        }
    }
    if !tail.is_empty() {
        let mut padded = [0u8; STRIPE];
        padded[..tail.len()].copy_from_slice(tail);
        accumulate(&mut acc, &padded, stripes.len() % BLOCK_STRIPES);
    }
    let len = bytes.len() as u64;
    let [lo, hi] = [len.wrapping_mul(PRIME64[0]), !len.wrapping_mul(PRIME64[1])];
    (fold(&acc, FOLD_KEYS[1], hi) as u128) << 64 | fold(&acc, FOLD_KEYS[0], lo) as u128
}

/// Feeds stripe `s` of its block into the accumulators.
#[inline(always)]
fn accumulate(acc: &mut [u64; LANES], stripe: &[u8; STRIPE], s: usize) {
    let key = &KEYS[s..s + LANES];
    let words: [u64; LANES] =
        std::array::from_fn(|i| u64::from_le_bytes(std::array::from_fn(|j| stripe[8 * i + j])));
    let keyed: [u64; LANES] = std::array::from_fn(|i| words[i] ^ key[i]);
    for i in 0..LANES {
        let product = (keyed[i] & 0xffff_ffff) * (keyed[i] >> 32);
        acc[i] = acc[i].wrapping_add(words[i ^ 1]).wrapping_add(product);
    }
}

/// Mixes each accumulator's high bits into its low bits, which the
/// 32 × 32-bit products of the next block read.
fn scramble(acc: &mut [u64; LANES]) {
    for (a, k) in acc.iter_mut().zip(&KEYS[SCRAMBLE_KEY..]) {
        *a = ((*a ^ (*a >> 47)) ^ k).wrapping_mul(PRIME32);
    }
}

/// One 64-bit half of the result: the accumulators, keyed from
/// `KEYS[key..]`, multiplied in pairs into 128 bits and folded back to 64,
/// summed from `seed` and avalanched.
fn fold(acc: &[u64; LANES], key: usize, seed: u64) -> u64 {
    let keys = &KEYS[key..key + LANES];
    let mut h = seed;
    for i in (0..LANES).step_by(2) {
        let p = ((acc[i] ^ keys[i]) as u128) * ((acc[i + 1] ^ keys[i + 1]) as u128);
        h = h.wrapping_add(p as u64 ^ (p >> 64) as u64);
    }
    h ^= h >> 37;
    h = h.wrapping_mul(0x1656_6791_9e37_79f9);
    h ^ (h >> 32)
}

/// [`content_hash`] of every input, with a batch of at least a mebibyte
/// split across the host's cores: `out[i] == content_hash(inputs[i])`.
pub fn content_hash_batch(inputs: &[&[u8]]) -> Vec<u128> {
    let hash_all = |_, part: &mut [&[u8]]| part.iter().map(|b| content_hash(b)).collect::<Vec<_>>();
    spread(&mut inputs.to_vec(), |c| c.len(), hash_all).concat()
}

/// Content identity of one chunk: hash plus raw length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkDigest {
    /// [`content_hash`] of the raw (uncompressed) chunk bytes.
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

/// Digests a whole stream under `params`, through [`content_hash_batch`].
pub fn digest_stream(bytes: &[u8], params: ChunkParams) -> ChunkDigests {
    let len = bytes.len() as u64;
    let chunks: Vec<&[u8]> = (0..params.count(len))
        .map(|i| {
            let (s, e) = params.range(len, i);
            &bytes[s as usize..e as usize]
        })
        .collect();
    let digests = content_hash_batch(&chunks)
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
/// holding a prefix of the output after what it held, as soon as the next
/// pair would reach `limit`: the output only grows, so it could never get
/// back under.
fn rle_compress_below(bytes: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
    let start = out.len();
    let mut i = 0;
    while i < bytes.len() {
        if out.len() - start + 2 >= limit {
            return false;
        }
        let b = bytes[i];
        let run = run_len(&bytes[i..bytes.len().min(i + 256)], b);
        out.extend_from_slice(&[(run - 1) as u8, b]);
        i += run;
    }
    out.len() - start < limit
}

/// Length of the run of `b` that `window`, whose first byte is `b`, starts
/// with. A run of one, the run of incompressible bytes, ends at the second
/// byte; a longer one is read a word at a time: the first nonzero byte of a
/// word XOR eight copies of `b` ends it.
fn run_len(window: &[u8], b: u8) -> usize {
    if window.get(1) != Some(&b) {
        return 1;
    }
    let copies = u64::from_le_bytes([b; 8]);
    let (words, tail) = window.as_chunks::<8>();
    for (k, w) in words.iter().enumerate() {
        let diff = u64::from_le_bytes(*w) ^ copies;
        if diff != 0 {
            return 8 * k + (diff.trailing_zeros() / 8) as usize;
        }
    }
    8 * words.len() + tail.iter().take_while(|&&t| t == b).count()
}

/// Words of [`rle_may_win`]'s boundary count between two looks at the
/// count.
const COUNT_WORDS: usize = 8;

/// Whether the [`rle_compress`] output of `bytes` can come out shorter than
/// `bytes`. The output is two bytes per run, and there is at least one run
/// more than there are boundaries (positions whose byte differs from the
/// one before), so a chunk with `2 * (boundaries + 1) >= len` stays raw.
/// Counts the boundaries a word at a time — a word XOR the word one byte
/// back has one nonzero byte per boundary — and stops as soon as the count
/// rules the codec out. `true` promises no win: runs longer than 256 split.
fn rle_may_win(bytes: &[u8]) -> bool {
    let len = bytes.len();
    let ruled_out = |boundaries: usize| 2 * (boundaries + 1) >= len;
    if ruled_out(0) {
        return false;
    }
    let (words, tail) = bytes[1..].as_chunks::<8>();
    let (before, before_tail) = bytes[..len - 1].as_chunks::<8>();
    let mut boundaries = 0;
    for (block, before) in words.chunks(COUNT_WORDS).zip(before.chunks(COUNT_WORDS)) {
        for (w, b) in block.iter().zip(before) {
            boundaries += nonzero_bytes(u64::from_ne_bytes(*w) ^ u64::from_ne_bytes(*b));
        }
        if ruled_out(boundaries) {
            return false;
        }
    }
    boundaries += tail.iter().zip(before_tail).filter(|(w, b)| w != b).count();
    !ruled_out(boundaries)
}

/// How many of the eight bytes of `x` are nonzero: each byte's bits are
/// or-folded into its lowest bit, and those are counted.
fn nonzero_bytes(x: u64) -> usize {
    let x = x | x >> 4;
    let x = x | x >> 2;
    ((x | x >> 1) & 0x0101_0101_0101_0101).count_ones() as usize
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
/// enabled), raw otherwise.
pub fn encode_chunk(bytes: &[u8], compress: bool) -> (Codec, Vec<u8>) {
    let mut out = Vec::with_capacity(bytes.len());
    let codec = encode_chunk_into(bytes, compress, &mut out);
    (codec, out)
}

/// Appends the [`encode_chunk`] bytes of `bytes` to `out` and returns their
/// codec. A word-wide count of byte boundaries decides first whether RLE
/// can win at all, so an incompressible chunk costs at most a half pass of
/// that count and one copy; only a chunk that can win runs the encoder,
/// which stops as soon as its output reaches the raw length and then gives
/// way to the raw copy.
pub fn encode_chunk_into(bytes: &[u8], compress: bool, out: &mut Vec<u8>) -> Codec {
    let start = out.len();
    if compress && rle_may_win(bytes) {
        if rle_compress_below(bytes, bytes.len(), out) {
            return Codec::Rle;
        }
        out.truncate(start);
    }
    out.extend_from_slice(bytes);
    Codec::Raw
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
    /// [`content_hash`] of the raw bytes the record promises.
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

impl StoredChunk<'_> {
    /// Appends this chunk's raw bytes to `out`, a `Raw` chunk's stored
    /// bytes or an `Rle` chunk's runs, never more than `len` of them, and
    /// checks them while they are still in cache. Refuses a malformed RLE
    /// stream ([`Refusal::Decode`]) and raw bytes that are not `len` long
    /// or do not hash to `hash` ([`Refusal::Hash`]); a refused chunk may
    /// leave bytes in `out`.
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
        self.check(&out[start..])
    }

    /// Whether `raw` is what the record promises: `len` bytes whose
    /// [`content_hash`] is `hash`.
    fn check(&self, raw: &[u8]) -> Result<(), Refusal> {
        let promised = raw.len() == self.len as usize && content_hash(raw) == self.hash;
        if promised {
            Ok(())
        } else {
            Err(Refusal::Hash)
        }
    }
}

/// Checks every stored chunk against its record, with a batch of at least
/// a mebibyte of raw bytes split across the host's cores. Returns the
/// lowest index that fails and why, as [`StoredChunk::decode_into`]
/// refuses. A `Raw` chunk is hashed where it lies; an `Rle` chunk is
/// decoded into one buffer each part reuses, so the memory this takes is
/// bounded by one chunk per core, whatever the batch holds.
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
    let mut buf = Vec::new();
    for (i, c) in chunks.iter().enumerate() {
        let checked = match c.codec {
            Codec::Raw => c.check(c.stored),
            Codec::Rle => {
                buf.clear();
                c.decode_into(&mut buf)
            }
        };
        checked.map_err(|why| (i, why))?;
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

    /// The encoder `encode_chunk` had before it decided the codec first:
    /// RLE attempted on every chunk and stopped as soon as its output
    /// reached the raw length, then the raw copy. The oracle of
    /// `encode_chunk_is_the_reference_encoder`.
    fn reference_encode_chunk(bytes: &[u8], compress: bool) -> (Codec, Vec<u8>) {
        let mut out = Vec::with_capacity(bytes.len());
        if compress && reference_rle_below(bytes, bytes.len(), &mut out) {
            return (Codec::Rle, out);
        }
        out.clear();
        out.extend_from_slice(bytes);
        (Codec::Raw, out)
    }

    fn reference_rle_below(bytes: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
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

    /// Chunk lengths: the edges of a run and of a word, odd tails, and
    /// one drawn length.
    const EDGE_LENS: [usize; 14] = [0, 1, 2, 3, 7, 9, 15, 255, 256, 257, 511, 513, 1029, 4099];

    /// `len` bytes of input shape `shape`, from the xorshift stream `seed`
    /// picks: all equal, alternating, `f64` noise, runs that cross 256,
    /// runs of one to three of alternate bytes, and bytes from a two-letter
    /// alphabet. The last two have about half as many boundaries as bytes,
    /// where the decision flips.
    fn shaped(shape: usize, len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out = Vec::with_capacity(len + 600);
        let b = next() as u8;
        match shape {
            0 => out.resize(len, b),
            1 => out.extend((0..len).map(|i| if i % 2 == 0 { b } else { !b })),
            2 => {
                while out.len() < len {
                    let v = f64::from_bits(next() >> 12 | 0x3ff0_0000_0000_0000) * 1e3;
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            _ => {
                while out.len() < len {
                    let r = next();
                    let (run, byte) = match shape {
                        3 => (200 + (r % 400) as usize, (r >> 32) as u8),
                        4 => (1 + (r % 3) as usize, out.last().map_or(b, |&l| !l)),
                        _ => (1, (r >> 32) as u8 % 2),
                    };
                    out.resize(out.len() + run, byte);
                }
            }
        }
        out.truncate(len);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `encode_chunk` and `encode_chunk_into`, onto an empty or a
        /// partly filled buffer, give the reference encoder's codec and
        /// bytes, compressing or not.
        #[test]
        fn encode_chunk_is_the_reference_encoder(
            shape in 0usize..6,
            pick in 0usize..EDGE_LENS.len() + 1,
            drawn in 0usize..20_000,
            seed in 0u64..1 << 40,
            compress in proptest::bool::ANY,
            before in 0usize..3,
        ) {
            let len = EDGE_LENS.get(pick).copied().unwrap_or(drawn);
            let data = shaped(shape, len, seed);
            let expected = reference_encode_chunk(&data, compress);
            proptest::prop_assert_eq!(&encode_chunk(&data, compress), &expected);
            let mut out = vec![0xa5; before * 7];
            let codec = encode_chunk_into(&data, compress, &mut out);
            proptest::prop_assert_eq!(codec, expected.0);
            proptest::prop_assert_eq!(&out[before * 7..], &expected.1[..]);
        }
    }

    /// The batch kernels equal `content_hash` input by input, on ragged
    /// batches just under the size that spreads across cores and just over
    /// it.
    #[test]
    fn batch_kernels_equal_content_hash_on_both_sides_of_the_spread() {
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
            let expected: Vec<u128> = inputs.iter().map(|b| content_hash(b)).collect();
            assert_eq!(content_hash_batch(&inputs), expected, "total {total}");
            let stored: Vec<StoredChunk<'_>> = inputs
                .iter()
                .map(|b| StoredChunk {
                    codec: Codec::Raw,
                    stored: b,
                    len: b.len() as u32,
                    hash: content_hash(b),
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

    /// `len` bytes of a ramp whose period, 251 bytes, is prime to the
    /// stripe length.
    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Known answers on both sides of every stripe, block and tail edge.
    #[test]
    fn content_hash_known_answers() {
        let answers: [(usize, u128); 9] = [
            (0, 0x6330_5f90_9a30_0d80_eb9d_1cdd_6be5_05ab),
            (1, 0x7f5e_b972_0d5e_9b63_e411_9772_79a0_4160),
            (63, 0x051e_698a_a888_8260_453a_4aca_9de4_d56e),
            (64, 0x1eda_8610_695a_a17a_b281_fee8_61aa_8c8e),
            (65, 0x3f4c_c34e_8501_9bf8_f811_1faa_10fd_2d1d),
            (1023, 0xb77d_b19e_2db7_9ea6_930a_eb6c_f8e2_d42d),
            (1024, 0x345b_9ae3_11a8_e764_c7b6_f06a_53e7_19df),
            (1025, 0xdf00_30a4_1d6c_5026_ab1b_c350_a382_d144),
            (65536, 0x843f_126f_0078_6e65_4ba6_abdd_fdd6_ef74),
        ];
        for (len, want) in answers {
            assert_eq!(content_hash(&ramp(len)), want, "len {len}");
        }
    }

    /// Every single-bit flip of a 4 KiB chunk changes its hash, and no two
    /// flips of the same chunk collide: on zeros, on a ramp and on `f64`
    /// data.
    #[test]
    fn every_single_bit_flip_of_a_chunk_hashes_distinctly() {
        let floats: Vec<u8> =
            (0..512).flat_map(|i| (1.0 + f64::from(i) / 3.0).to_le_bytes()).collect();
        for (what, chunk) in [("zeros", vec![0u8; 4096]), ("ramp", ramp(4096)), ("f64", floats)] {
            let mut seen = std::collections::HashSet::from([content_hash(&chunk)]);
            let mut flipped = chunk.clone();
            for bit in 0..8 * chunk.len() {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(seen.insert(content_hash(&flipped)), "{what}: flip of bit {bit} collides");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// A zero run's length alone tells it apart: the zero-padded tail
    /// stripe reads the same for every length of a stripe, so only the
    /// length in the fold separates them.
    #[test]
    fn zero_runs_of_every_length_hash_distinctly() {
        let zeros = vec![0u8; 4096];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=zeros.len() {
            assert!(seen.insert(content_hash(&zeros[..len])), "zero run of {len} collides");
        }
    }
}
