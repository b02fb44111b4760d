//! The checkpoint wire format: a small, versioned, little-endian binary
//! encoding used by every stored file: data segments, manifests and
//! flight-ring seals.
//!
//! A checkpointing system must own its on-disk format — it has to be stable
//! across versions and platforms, self-describing enough to fail loudly on
//! corruption, and byte-exact (restart correctness is bitwise). Hence no
//! serialization framework: the format is a few dozen lines and fully
//! specified here.
//!
//! Layout conventions: all integers little-endian; strings are
//! `u32 length + UTF-8 bytes`; blobs are `u64 length + bytes`; every file
//! starts with a 4-byte magic and a version, a `u32` (a seal's is a `u16`).
//! Decoding is total: bytes that are not a valid encoding are an `Err`,
//! never a panic.

use std::fmt;

/// Format errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The file does not start with the expected magic.
    BadMagic {
        /// Expected magic bytes.
        expected: [u8; 4],
        /// Found bytes.
        found: [u8; 4],
    },
    /// Unsupported format version.
    BadVersion(
        /// Found version.
        u32,
    ),
    /// The buffer ended before the encoded value did.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes were left over after the last field of a value whose
    /// encoding ends there.
    TrailingBytes {
        /// What was being decoded.
        what: &'static str,
    },
    /// A trailing CRC did not match the bytes it covers.
    ChecksumMismatch {
        /// What was being verified.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:?}, found {found:?}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::Truncated { what } => write!(f, "truncated while decoding {what}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::TrailingBytes { what } => write!(f, "bytes left over after {what}"),
            WireError::ChecksumMismatch { what } => {
                write!(f, "checksum mismatch verifying {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE), the checksum of every trailing CRC and integrity record.
/// It lives with the file system, whose writers CRC their own bytes.
pub use drms_piofs::integrity::crc32;

/// Splits `buf` into its payload and a verified trailing CRC-32; errors when
/// the buffer is too short or the CRC does not match the payload.
pub fn split_trailing_crc<'a>(buf: &'a [u8], what: &'static str) -> Result<&'a [u8], WireError> {
    let (payload, tail) = buf.split_last_chunk().ok_or(WireError::Truncated { what })?;
    if crc32(payload) != u32::from_le_bytes(*tail) {
        return Err(WireError::ChecksumMismatch { what });
    }
    Ok(payload)
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer starting with `magic`.
    pub fn with_magic(magic: [u8; 4]) -> Writer {
        Writer { buf: magic.to_vec() }
    }

    /// A writer starting with `magic` and `version`.
    pub fn with_header(magic: [u8; 4], version: u32) -> Writer {
        let mut w = Writer::with_magic(magic);
        w.u32(version);
        w
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finishes, appending a CRC-32 of everything written so far. Pair with
    /// [`split_trailing_crc`] on the read side.
    pub fn finish_with_crc(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential decoder.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// A reader past `magic`, which it validates.
    pub fn with_magic(buf: &'a [u8], magic: [u8; 4]) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::new(buf);
        let found = r.array("magic")?;
        if found != magic {
            return Err(WireError::BadMagic { expected: magic, found });
        }
        Ok(r)
    }

    /// A reader that validates `magic` and returns the version.
    pub fn with_header(buf: &'a [u8], magic: [u8; 4]) -> Result<(Reader<'a>, u32), WireError> {
        let mut r = Reader::with_magic(buf, magic)?;
        let version = r.u32()?;
        Ok((r, version))
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        // `n` may come straight from a length field of untrusted bytes, so
        // it is compared against what is left rather than added to `pos`.
        if n > self.remaining() {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes, as the array every fixed-width field is read
    /// from.
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array("u8")?))
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array("u16")?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array("u32")?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array("u64")?))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array("i64")?))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array("f64")?))
    }

    /// Reads a length-prefixed string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed blob.
    pub fn blob(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.blob_ref()?.to_vec())
    }

    /// Reads a length-prefixed blob, lent from the buffer.
    pub fn blob_ref(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u64()? as usize;
        self.take(n, "blob body")
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `count` capped by how many records of at least `min_bytes` each the
    /// rest of the buffer can still hold: the capacity to reserve for a
    /// count read from untrusted bytes. A larger count fails with
    /// [`WireError::Truncated`] when its records run out, not in the
    /// allocator.
    pub fn fits(&self, count: usize, min_bytes: usize) -> usize {
        count.min(self.remaining() / min_bytes)
    }

    /// Ends a value whose encoding must use up the buffer: refuses any
    /// byte left over.
    pub fn finish(self, what: &'static str) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(WireError::TrailingBytes { what }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_piofs::integrity::{crc32_reference, Crc32Shift};
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(3.25);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.25);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn string_and_blob_roundtrip() {
        let mut w = Writer::new();
        w.string("héllo");
        w.blob(&[1, 2, 3]);
        w.string("");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.blob().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.string().unwrap(), "");
    }

    /// A length field larger than what is left is `Truncated` whatever
    /// its value — in particular the values whose sum with the read
    /// position wraps `usize` (in debug that add used to panic; in release
    /// it wrapped, passed the bound check and panicked in the slice).
    #[test]
    fn length_inflated_blob_and_string_headers_are_truncated_not_a_panic() {
        let mut w = Writer::new();
        w.u32(9); // something before the field, so `pos` is not zero
        w.blob(&[1, 2, 3]);
        let good = w.finish();
        let (pos, left) = (4 + 8, 3u64);
        for len in [u64::MAX, (usize::MAX - pos + 1) as u64, u64::MAX / 2, left + 1] {
            let mut buf = good.clone();
            buf[4..12].copy_from_slice(&len.to_le_bytes());
            let mut r = Reader::new(&buf);
            assert_eq!(r.u32().unwrap(), 9);
            assert_eq!(r.blob(), Err(WireError::Truncated { what: "blob body" }), "len {len}");
            // The failed read consumed the header only; the reader is usable.
            assert_eq!(r.remaining(), left as usize);
        }

        let mut w = Writer::new();
        w.string("abc");
        let good = w.finish();
        for len in [u32::MAX, 4] {
            let mut buf = good.clone();
            buf[..4].copy_from_slice(&len.to_le_bytes());
            let got = Reader::new(&buf).string();
            assert_eq!(got, Err(WireError::Truncated { what: "string body" }), "len {len}");
        }
        assert_eq!(Reader::new(&good).string().unwrap(), "abc");
    }

    #[test]
    fn header_validation() {
        let w = Writer::with_header(*b"DRMS", 3);
        let buf = w.finish();
        let (_, v) = Reader::with_header(&buf, *b"DRMS").unwrap();
        assert_eq!(v, 3);
        assert!(matches!(Reader::with_header(&buf, *b"XXXX"), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(5);
        let mut buf = w.finish();
        buf.truncate(3);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));

        let mut w = Writer::new();
        w.blob(&[0; 100]);
        let mut buf = w.finish();
        buf.truncate(50);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.blob(), Err(WireError::Truncated { what: "blob body" })));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_equals_the_byte_serial_reference_at_every_head_and_tail() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(151) >> 3) as u8 ^ 0x5A).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start}, len {len}");
            }
        }
    }

    fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u16..256, 0..max_len + 1)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sliced_crc32_equals_the_byte_serial_reference(buf in bytes(100_000)) {
            prop_assert_eq!(crc32(&buf), crc32_reference(&buf));
        }

        #[test]
        fn shift_operator_combines_any_split(buf in bytes(20_000), cut in 0usize..20_001) {
            let (a, b) = buf.split_at(cut.min(buf.len()));
            let combined =
                Crc32Shift::new(b.len() as u64).combine(crc32_reference(a), crc32_reference(b));
            prop_assert_eq!(combined, crc32_reference(&buf));
        }
    }

    #[test]
    fn shift_operator_handles_empty_sides_and_odd_lengths() {
        let buf: Vec<u8> = (0..3000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        // |a| = 0, |b| = 0, and |b| not a multiple of 8.
        for cut in [0, buf.len(), buf.len() - 1, buf.len() - 13, 1, 1024, 1029] {
            let (a, b) = buf.split_at(cut);
            let shift = Crc32Shift::new(b.len() as u64);
            assert_eq!(shift.combine(crc32(a), crc32(b)), crc32_reference(&buf), "cut {cut}");
        }
        assert_eq!(Crc32Shift::new(0).combine(0xDEAD_BEEF, 0), 0xDEAD_BEEF);
    }

    #[test]
    fn trailing_crc_roundtrip_and_detection() {
        let mut w = Writer::new();
        w.string("payload");
        w.u64(99);
        let buf = w.finish_with_crc();
        let payload = split_trailing_crc(&buf, "test").unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(r.string().unwrap(), "payload");
        assert_eq!(r.u64().unwrap(), 99);

        // Any single corrupted byte — payload or CRC itself — is detected.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x41;
            assert!(
                matches!(split_trailing_crc(&bad, "test"), Err(WireError::ChecksumMismatch { .. })),
                "flip at {i} went undetected"
            );
        }
        assert!(matches!(split_trailing_crc(&[1, 2], "test"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut w = Writer::new();
        w.u32(2);
        let mut buf = w.finish();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.string(), Err(WireError::BadUtf8)));
    }
}
