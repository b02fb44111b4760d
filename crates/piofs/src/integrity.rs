//! CRC-32 integrity records, computed where the bytes land.
//!
//! A checkpoint's manifest carries one record per stored file: the CRC-32 of
//! every integrity chunk ([`PiofsConfig::integrity_chunk`], the stripe unit)
//! and of the whole file. The records are computed by the tasks that write
//! the bytes: each write CRCs its own data, cut at the chunk grid
//! (`fragments`), before the file-system lock is taken — on the writer's
//! thread, or spread over the idle cores when the writer writes alone
//! ([`piece_crcs`]). A file reserved with [`crate::Piofs::create`] keeps
//! those CRCs in a slot table, one slot per chunk, and
//! [`crate::Piofs::take_integrity`] folds the table into the records with
//! [`Crc32Shift`] instead of reading the file back. Only chunks the writers
//! did not cover whole, or whose bytes changed under them, are read.
//!
//! [`PiofsConfig::integrity_chunk`]: crate::PiofsConfig::integrity_chunk

use drms_msg::spread;

/// The CRC-32 generator (IEEE 802.3), reflected: bit 31 is the coefficient of
/// x^0, bit 0 that of x^31.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// CRC-32 lookup tables for slicing-by-8, computed at compile time. Row 0 is
/// the classic byte table; row `k` holds the register after byte `b` followed
/// by `k` zero bytes, so eight input bytes fold into the register with eight
/// independent lookups. CRC-32 guarantees detection of any single-bit or
/// single-byte error and any burst up to 32 bits — exactly the corruption
/// classes the storage-resilience layer must catch.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Inputs at least this long run as four interleaved lanes. Joining the
/// lanes builds two shift operators and applies three, about what a few
/// hundred bytes cost, so shorter inputs stay on one lane. On a 2-core x86
/// host the four lanes ran 1.7x one lane at 1 KiB (the integrity chunk of the
/// small problem classes), 3.3x at 64 KiB (class A's), and lost below 512
/// bytes.
const LANES_MIN: usize = 1024;

/// Eight input bytes folded into the register `c`: one slicing-by-8 step.
#[inline(always)]
fn step8(c: u32, w: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The register `c` after `bytes`, eight bytes per step.
fn update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        c = step8(c, w);
    }
    for &b in words.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `bytes`.
///
/// On an x86-64 host with the carry-less multiply (`PCLMULQDQ`), inputs of
/// at least 128 bytes run on a folding kernel; everything else runs on the
/// portable table kernel. Both give the same value for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(bytes) {
        return crc;
    }
    crc32_portable(bytes)
}

/// The portable CRC-32 kernel: what [`crc32`] runs on inputs under 128
/// bytes, and on every input on a host without the carry-less multiply.
///
/// From `LANES_MIN` (1 KiB) on, the input is cut into four lanes of equal
/// length (a multiple of eight bytes; the last lane also takes the few bytes
/// left over), and one loop runs slicing-by-8 on all four at once: the four
/// registers are independent, so their table lookups overlap instead of
/// each waiting on the previous step. The lane CRCs are joined with
/// [`Crc32Shift`].
fn crc32_portable(bytes: &[u8]) -> u32 {
    if bytes.len() < LANES_MIN {
        return !update(!0, bytes);
    }
    let lane = bytes.len() / 32 * 8;
    let (l0, rest) = bytes.split_at(lane);
    let (l1, rest) = rest.split_at(lane);
    let (l2, l3) = rest.split_at(lane);
    let (mut c0, mut c1, mut c2, mut c3) = (!0u32, !0u32, !0u32, !0u32);
    let words =
        l0.chunks_exact(8).zip(l1.chunks_exact(8)).zip(l2.chunks_exact(8)).zip(l3.chunks_exact(8));
    for (((w0, w1), w2), w3) in words {
        c0 = step8(c0, w0);
        c1 = step8(c1, w1);
        c2 = step8(c2, w2);
        c3 = step8(c3, w3);
    }
    let c3 = update(c3, &l3[lane..]);
    let join = Crc32Shift::new(lane as u64);
    let c = join.combine(join.combine(!c0, !c1), !c2);
    Crc32Shift::new(l3.len() as u64).combine(c, !c3)
}

/// The folding CRC-32 kernel on x86-64's carry-less multiply (`PCLMULQDQ`),
/// after Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009), in its bit-reflected form.
///
/// The register is a 128-bit polynomial. Multiplying one 64-bit half by
/// `x^k mod P` moves it `k` bits further down the message without reading
/// the bytes in between, so four registers fold 64 input bytes per step,
/// each by 512 bits, with two carry-less multiplies and no table. The four
/// then fold into one, which takes the remaining 16-byte words by 128 bits
/// each; the 128-bit remainder is cut to 64 bits and a Barrett reduction
/// leaves the 32-bit register. The last bytes (fewer than 16) go through
/// the portable `update`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: below it the setup and the final
    /// reduction cost more than the table kernel does.
    const MIN: usize = 128;

    // The fold constants: `x^n mod P` in the reflected representation,
    // one bit left of a 32-bit register's place, which absorbs the extra
    // factor of `x` a reflected carry-less product carries.
    /// `x^(4·128+32) mod P`: folds a register's low half 512 bits on.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    /// `x^(4·128-32) mod P`: folds its high half 512 bits on.
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P`: the low half, 128 bits on.
    pub(super) const K3: u64 = 0x1_7519_97D0;
    /// `x^(128-32) mod P`: the high half, 128 bits on.
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: the 96-bit remainder down to 64 bits.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// The generator `P`, all 33 coefficients, reflected.
    pub(super) const P: u64 = 0x1_DB71_0641;
    /// Barrett's `μ = ⌊x^64 / P⌋`, reflected.
    pub(super) const MU: u64 = 0x1_F701_1641;

    /// CRC-32 of `bytes` on this kernel, or `None` when the input is short
    /// or the host lacks the instructions.
    pub(super) fn crc32(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < MIN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: the only requirement of calling a `#[target_feature]`
        // function is that the host has those features: `fold` enables
        // PCLMULQDQ and SSE4.1 (over the SSE2 every x86-64 has), and the
        // host was just found to have both.
        Some(!unsafe { fold(!0, bytes) })
    }

    /// 16 bytes as a 128-bit little-endian lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(w: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*w);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `a` folded on by the distance the constant pair `k` encodes, added to
    /// `b`: the low half of `a` times `k`'s low constant, its high half
    /// times the high one.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold16(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    /// The register `c` after `bytes` (the table kernel's when there are
    /// fewer than 64 of them).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(c: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else { return super::update(c, bytes) };
        let first = first.as_chunks::<16>().0;
        let mut x = [0, 1, 2, 3].map(|i| load(&first[i]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        for block in blocks {
            for (lane, w) in x.iter_mut().zip(block.as_chunks::<16>().0) {
                *lane = fold16(*lane, load(w), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut r = fold16(fold16(fold16(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let (words, rest) = tail.as_chunks::<16>();
        for w in words {
            r = fold16(r, load(w), k3k4);
        }

        // 128 bits to 96: the low half times `x^(128-32)`, plus the high half.
        let r = _mm_xor_si128(_mm_clmulepi64_si128(r, k3k4, 0x10), _mm_srli_si128(r, 8));
        // 96 bits to 64: the low word times `x^64`, plus the upper three.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5 as i64);
        let r = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(r, low32), k5, 0x00),
            _mm_srli_si128(r, 4),
        );
        // Barrett: `t1 = (r mod x^32)·μ`, `t2 = (t1 mod x^32)·P`, and the
        // register is the upper word of `r + t2`.
        let pmu = _mm_set_epi64x(MU as i64, P as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(r, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(r, t2), 1) as u32;
        super::update(c, rest)
    }
}

/// The byte-at-a-time table CRC-32: the definition [`crc32`], the shift
/// operator and every record fold are tested against. Far slower than
/// [`crc32`]; for tests.
pub fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Product of two polynomials over GF(2) modulo the CRC-32 generator, both
/// in the reflected representation of [`CRC32_POLY`].
const fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut prod = 0;
    let mut bit = 32;
    while bit > 0 {
        bit -= 1;
        if (a >> bit) & 1 != 0 {
            prod ^= b;
        }
        b = (b >> 1) ^ (CRC32_POLY & 0u32.wrapping_sub(b & 1));
    }
    prod
}

/// `x^(2^k)` modulo the generator, for every `k` a byte count's bit
/// exponent `8 · 2^j` (`j < 64`) can reach.
const X_POW_2K: [u32; 67] = {
    let mut t = [0u32; 67];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 67 {
        t[k] = mul_mod_poly(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// The "append `len` bytes" operator of CRC-32. The checksum is linear over
/// GF(2): `crc(a‖b) = x^(8·|b|)·crc(a) ⊕ crc(b)` modulo the generator, so the
/// CRC of a concatenation follows from the CRCs of its parts without reading
/// a byte again. Building the operator is one 32-step multiply per set bit
/// of `len`; applying it is one more.
#[derive(Debug, Clone, Copy)]
pub struct Crc32Shift(u32);

impl Crc32Shift {
    /// The operator for a suffix of `len` bytes: `x^(8·len)` modulo the
    /// generator, the product of the tabulated `x^(2^k)` for the set bits
    /// of `8·len`.
    pub fn new(len: u64) -> Crc32Shift {
        let mut power = 1 << 31; // x^0
        let mut rest = len;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            power = mul_mod_poly(power, X_POW_2K[j + 3]);
            rest &= rest - 1;
        }
        Crc32Shift(power)
    }

    /// `crc32(a‖b)` from `crc32(a)` and `crc32(b)`, where `b` has the length
    /// this operator was built for.
    pub fn combine(self, crc_a: u32, crc_b: u32) -> u32 {
        mul_mod_poly(self.0, crc_a) ^ crc_b
    }
}

/// The CRC-32 of each of `pieces`, in order, [`spread`] over the host's
/// idle cores: for a task that CRCs alone while its siblings wait.
pub fn piece_crcs(pieces: &mut [&[u8]]) -> Vec<u32> {
    let crcs = |_, part: &mut [&[u8]]| part.iter().map(|p| crc32(p)).collect::<Vec<_>>();
    spread(pieces, |p| p.len(), crcs).concat()
}

/// The CRC-32 of each `chunk`-byte piece of `bytes` (the last may be
/// short; `chunk` is taken as at least 1).
pub fn chunk_crcs(bytes: &[u8], chunk: u64) -> Vec<u32> {
    bytes.chunks(chunk.max(1) as usize).map(crc32).collect()
}

/// The CRC-32 of a whole `len`-byte file from its chunk CRCs at `chunk`
/// granularity ([`chunk_crcs`]): each byte was read once, by the chunk CRC.
/// Every chunk but the last has the same length, so one operator is built
/// per file and applied per chunk — building one per chunk would cost more
/// than the chunk's own CRC at the 1 KiB chunk size of the small problem
/// classes.
pub fn fold_whole(crcs: &[u32], len: u64, chunk: u64) -> u32 {
    let chunk = chunk.max(1);
    let full = Crc32Shift::new(chunk);
    let mut whole = 0;
    for (i, &crc) in crcs.iter().enumerate() {
        let n = len.saturating_sub(i as u64 * chunk).min(chunk);
        let shift = if n == chunk { full } else { Crc32Shift::new(n) };
        whole = shift.combine(whole, crc);
    }
    whole
}

/// The integrity records of one stored file: its length, the CRC-32 of
/// each integrity chunk and of the whole file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkCrcs {
    /// File length in bytes.
    pub len: u64,
    /// CRC-32 of each integrity chunk, in order.
    pub crcs: Vec<u32>,
    /// CRC-32 of the whole file.
    pub whole: u32,
    /// Whether the records were folded from the writers' CRCs (`true`) or
    /// computed by reading the whole file (`false`).
    pub folded: bool,
}

impl ChunkCrcs {
    /// The records of `bytes`, read whole.
    pub(crate) fn read(bytes: &[u8], chunk: u64) -> ChunkCrcs {
        ChunkCrcs::from_crcs(chunk_crcs(bytes, chunk), bytes.len() as u64, chunk, false)
    }

    fn from_crcs(crcs: Vec<u32>, len: u64, chunk: u64, folded: bool) -> ChunkCrcs {
        let whole = fold_whole(&crcs, len, chunk);
        ChunkCrcs { len, crcs, whole, folded }
    }
}

/// The pieces of `data`, to land at `offset`, cut at the `chunk`-byte grid:
/// one per chunk `[offset, offset + data.len())` touches, in order. A
/// writer CRCs each before the write takes the file-system lock, and the
/// slot table records one CRC per piece.
pub(crate) fn fragments(offset: u64, data: &[u8], chunk: u64) -> Vec<&[u8]> {
    let mut out = Vec::with_capacity(data.len().div_ceil(chunk as usize) + 1);
    let mut rest = data;
    let mut at = offset;
    while !rest.is_empty() {
        let n = ((chunk - at % chunk) as usize).min(rest.len());
        let (piece, tail) = rest.split_at(n);
        out.push(piece);
        rest = tail;
        at += n as u64;
    }
    out
}

/// `head_len` of a chunk that must be read back: a write landed in it that
/// neither extended its head nor prepended to its tail, or its stored bytes
/// changed under the writers' CRCs. No chunk is this long (the grid is at
/// most 1 MiB).
const STALE: u32 = u32::MAX;

/// What the writers of one integrity chunk have CRC'd: the bytes written
/// from the chunk's start (`head`) and those written up to its end
/// (`tail`), each as its CRC and length. The two never overlap, so a chunk
/// whose head and tail lengths add up to its length is covered, however
/// its pieces arrived.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    head: u32,
    head_len: u32,
    tail: u32,
    tail_len: u32,
}

/// The slot table of a file reserved with [`crate::Piofs::create`]: one
/// [`Slot`] per integrity chunk of the length it was created with. Allocated
/// once, by `create`, and dropped when it is folded.
#[derive(Debug)]
pub(crate) struct Slots {
    len: u64,
    chunk: u64,
    slots: Box<[Slot]>,
}

impl Slots {
    /// An empty table for a file of `len` bytes at `chunk`-byte chunks.
    pub(crate) fn new(len: u64, chunk: u64) -> Slots {
        let n = len.div_ceil(chunk) as usize;
        Slots { len, chunk, slots: vec![Slot::default(); n].into_boxed_slice() }
    }

    /// Byte range `[start, end)` of chunk `k`.
    fn range(&self, k: usize) -> (u64, u64) {
        let s = k as u64 * self.chunk;
        (s, (s + self.chunk).min(self.len))
    }

    /// Records one write of `n` bytes at `offset` whose writer CRC'd them
    /// into `crcs`, one per piece of [`fragments`]. A fragment extends its
    /// chunk's head, or prepends to its tail, or marks the chunk stale.
    pub(crate) fn record(&mut self, offset: u64, n: u64, crcs: &[u32]) {
        let end = offset + n;
        let mut a = offset;
        for &crc in crcs {
            let k = (a / self.chunk) as usize;
            let b = ((k as u64 + 1) * self.chunk).min(end);
            self.apply(k, a, b, crc);
            a = b;
        }
    }

    fn apply(&mut self, k: usize, a: u64, b: u64, crc: u32) {
        let (cs, ce) = self.range(k);
        // Past the reserved length: the file grew, and the fold falls back
        // on its length anyway.
        let Some(slot) = self.slots.get_mut(k) else { return };
        if slot.head_len == STALE {
            return;
        }
        let head_end = cs + slot.head_len as u64;
        let tail_start = ce - slot.tail_len as u64;
        let n = (b - a) as u32;
        if b > ce {
            slot.head_len = STALE;
        } else if a == head_end && b <= tail_start {
            slot.head = match slot.head_len {
                0 => crc,
                _ => Crc32Shift::new(n as u64).combine(slot.head, crc),
            };
            slot.head_len += n;
        } else if b == tail_start && a >= head_end {
            slot.tail = match slot.tail_len {
                0 => crc,
                t => Crc32Shift::new(t as u64).combine(crc, slot.tail),
            };
            slot.tail_len += n;
        } else {
            slot.head_len = STALE;
        }
    }

    /// Marks every chunk overlapping `[offset, end)` for re-read: its
    /// stored bytes changed under the writers' CRCs.
    pub(crate) fn stale(&mut self, offset: u64, end: u64) {
        if offset >= end {
            return;
        }
        let first = (offset / self.chunk) as usize;
        let last = ((end - 1) / self.chunk) as usize;
        for slot in self.slots.iter_mut().take(last + 1).skip(first) {
            slot.head_len = STALE;
        }
    }

    /// Folds the table into the records of `bytes`, the file's stored bytes
    /// (`None` unless they are exactly the length the table was reserved
    /// for). A covered chunk's CRC joins its head and tail; only the other
    /// chunks are read.
    pub(crate) fn fold(&self, bytes: &[u8]) -> Option<ChunkCrcs> {
        if bytes.len() as u64 != self.len {
            return None;
        }
        let crcs = (0..self.slots.len())
            .map(|k| {
                let (s, e) = self.range(k);
                let slot = self.slots[k];
                let (h, t) = (slot.head_len as u64, slot.tail_len as u64);
                if slot.head_len == STALE || h + t != e - s {
                    crc32(&bytes[s as usize..e as usize])
                } else if t == 0 {
                    slot.head
                } else if h == 0 {
                    slot.tail
                } else {
                    Crc32Shift::new(t).combine(slot.head, slot.tail)
                }
            })
            .collect();
        Some(ChunkCrcs::from_crcs(crcs, self.len, self.chunk, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) >> 11) as u8)
            .collect()
    }

    /// The four-lane kernel at and around its threshold, at lengths whose
    /// lanes leave every remainder, and past a mebibyte.
    #[test]
    fn four_lane_crc32_equals_the_reference_at_its_edges() {
        let buf = pattern((1 << 20) + 3, 7);
        for len in
            [0, 1, 1023, 1024, 1025, 1031, 4095, 4096, 4097, 4103, 32771, 65536, (1 << 20) + 3]
        {
            assert_eq!(crc32_portable(&buf[..len]), crc32_reference(&buf[..len]), "len {len}");
            // Unaligned starts too: the lanes cut wherever the slice begins.
            if len > 3 {
                let s = &buf[3..len];
                assert_eq!(crc32_portable(s), crc32_reference(s), "start 3, len {}", len - 3);
            }
        }
    }

    /// Both kernels, and the dispatch between them, at every length up to
    /// 1 KiB from every start in a 16-byte lane: every count of whole
    /// 64-byte blocks, 16-byte words and tail bytes the folding kernel
    /// splits an input into, on both sides of its 128-byte threshold.
    #[test]
    fn both_kernels_equal_the_reference_at_every_length_and_start() {
        let buf = pattern(1024 + 16, 3);
        for start in 0..=15 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                let want = crc32_reference(s);
                assert_eq!(crc32_portable(s), want, "portable, start {start}, len {len}");
                assert_eq!(crc32(s), want, "dispatch, start {start}, len {len}");
            }
        }
    }

    /// The folding kernel's constants are the powers of `x` they are named
    /// for, recomputed from the generator: `x^n mod P` one multiply by `x`
    /// at a time, and `μ` by long division of `x^64` by `P`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_the_powers_of_x_they_name() {
        let x_pow = |n: u32| (0..n).fold(1u32 << 31, |p, _| mul_mod_poly(p, 1 << 30));
        let k = |n: u32| (x_pow(n) as u64) << 1;
        assert_eq!(clmul::K1, k(4 * 128 + 32));
        assert_eq!(clmul::K2, k(4 * 128 - 32));
        assert_eq!(clmul::K3, k(128 + 32));
        assert_eq!(clmul::K4, k(128 - 32));
        assert_eq!(clmul::K5, k(64));
        assert_eq!(clmul::P, (CRC32_POLY as u64) << 1 | 1);
        // μ = ⌊x^64 / P⌋ with bit i the coefficient of x^i, then reflected
        // over its 33 coefficients.
        let p = (CRC32_POLY.reverse_bits() as u128) | 1 << 32;
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if (rem >> (bit + 32)) & 1 != 0 {
                rem ^= p << bit;
                mu |= 1 << bit;
            }
        }
        assert_eq!(clmul::MU, mu.reverse_bits() >> 31);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Both kernels on inputs up to a mebibyte, from any start.
        #[test]
        fn both_kernels_equal_the_reference(
            len in 0usize..(1 << 20) + 1,
            start in 0usize..16,
            salt in 0u32..1000,
        ) {
            let buf = pattern(start + len, salt);
            let want = crc32_reference(&buf[start..]);
            proptest::prop_assert_eq!(crc32_portable(&buf[start..]), want);
            proptest::prop_assert_eq!(crc32(&buf[start..]), want);
        }
    }

    /// The tabulated powers agree with squaring per bit, the operator's
    /// definition, up to the largest lengths a `u64` holds.
    #[test]
    fn tabulated_shift_equals_square_and_multiply() {
        let by_squaring = |mut len: u64| {
            let (mut power, mut base) = (1u32 << 31, 1u32 << 23);
            while len != 0 {
                if len & 1 != 0 {
                    power = mul_mod_poly(power, base);
                }
                base = mul_mod_poly(base, base);
                len >>= 1;
            }
            power
        };
        for len in [0, 1, 7, 8, 1023, 1024, 65536, 65537, 1 << 40, u64::MAX / 3, u64::MAX] {
            assert_eq!(Crc32Shift::new(len).0, by_squaring(len), "len {len}");
        }
    }
}
