//! Every stored format's decoder is total, under one harness: the
//! checkpoint manifest, the data segment, the MPMD umbrella manifest and
//! the flight-ring seal are each fed every truncation, every single-bit
//! flip, a saturated `u32` at every offset and every count or length field
//! inflated to each power of two, of a known-good encoding. For every
//! format:
//!
//! * a truncation is an `Err`;
//! * a flip or a saturated `u32` is an `Err`, or decodes to a value that
//!   re-encodes to exactly those bytes: every format is canonical;
//! * a count or length field inflated to 2^k, up to all bits set, is an
//!   `Err`;
//! * no decode allocates more than a small multiple of its input, so no
//!   allocation is ever sized by an unchecked length.
//!
//! A format with a trailing self-CRC (the manifest) is checked twice over:
//! as edited, which its CRC refuses, and resealed with a CRC of the edited
//! payload, which only its parser can refuse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drms_blackbox::{decode_seal, encode_seal, SealHeader};
use drms_core::manifest::{
    ArrayDelta, ArrayEntry, ChunkRecord, ChunkSource, CkptKind, FileIntegrity, Manifest,
};
use drms_core::mpmd::{MpmdComponent, MpmdManifest};
use drms_core::segment::{DataSegment, RegionKind};
use drms_core::wire::crc32;
use drms_darray::chunks::Codec;
use drms_obs::{EventKind, Phase, TraceEvent};
use drms_slices::{Order, Range, Slice};

// ---------------------------------------------------------------------------
// The allocation meter.
// ---------------------------------------------------------------------------

/// The system allocator, metering the largest single allocation each thread
/// makes.
struct Metered;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; metering only
// reads the requested size.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, and the caller's contract for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static METERED: Metered = Metered;

// ---------------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------------

/// A count or length field of a format's sample encoding.
struct Field {
    /// Byte offset of the field.
    at: usize,
    /// Its width in bytes, 4 or 8.
    width: usize,
    /// The value the sample holds there.
    holds: u64,
    /// The smallest exponent `k` for which the value 2^k claims more than
    /// the sample holds, so that it must fail.
    from: u32,
}

/// One stored format under test.
struct Format {
    name: &'static str,
    /// A known-good encoding.
    good: Vec<u8>,
    /// Decode, then re-encode; `None` when the decoder refuses the bytes.
    round_trip: fn(&[u8]) -> Option<Vec<u8>>,
    /// Rewrites the trailing self-CRC over the bytes before it, for a
    /// format that carries one.
    reseal: Option<fn(&mut [u8])>,
    /// The count and length fields of `good`.
    fields: Vec<Field>,
}

fn trailing_crc(bytes: &mut [u8]) {
    if let Some(end) = bytes.len().checked_sub(4) {
        let crc = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The largest allocation a decode may make: a small multiple of its
/// input, far below the sizes the inflated fields claim.
fn allocation_bound(len: usize) -> usize {
    8 * len + 1024
}

impl Format {
    /// Decodes `bytes` as edited and, for a self-CRC'd format, resealed,
    /// checking each decode's allocations; returns each input's outcome.
    fn decode(&self, bytes: &[u8]) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        let mut inputs = vec![bytes.to_vec()];
        if let Some(reseal) = self.reseal {
            inputs.push(bytes.to_vec());
            reseal(&mut inputs[1]);
        }
        inputs
            .into_iter()
            .map(|input| {
                LARGEST.with(|l| l.set(0));
                let out = (self.round_trip)(&input);
                let largest = LARGEST.with(Cell::get);
                assert!(
                    largest <= allocation_bound(input.len()),
                    "{}: a decode of {} bytes allocated {largest} bytes at once",
                    self.name,
                    input.len()
                );
                (input, out)
            })
            .collect()
    }

    fn refuses(&self, bytes: &[u8], what: &str) {
        for (input, out) in self.decode(bytes) {
            assert!(out.is_none(), "{}: {what} decoded: {input:?}", self.name);
        }
    }

    fn refuses_or_is_canonical(&self, bytes: &[u8], what: &str) {
        for (input, out) in self.decode(bytes) {
            if let Some(again) = out {
                assert_eq!(again, input, "{}: {what} re-encodes differently", self.name);
            }
        }
    }

    /// Every edit of the good bytes: each cut, each bit flipped, a `u32`
    /// saturated at each offset, and each field inflated to every power of
    /// two from its `from` on and to all bits set.
    fn check(&self) {
        let good = &self.good;
        assert_eq!((self.round_trip)(good).as_ref(), Some(good), "{}: sample", self.name);

        for cut in 0..good.len() {
            self.refuses(&good[..cut], &format!("a cut at {cut}"));
        }

        for at in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[at] ^= 1 << bit;
                self.refuses_or_is_canonical(&flipped, &format!("bit {bit} of byte {at}"));
            }
        }

        for at in 0..=good.len() - 4 {
            let mut saturated = good.clone();
            saturated[at..at + 4].fill(0xFF);
            self.refuses_or_is_canonical(&saturated, &format!("a saturated u32 at {at}"));
        }

        for f in &self.fields {
            let field = f.at..f.at + f.width;
            assert_eq!(good[field.clone()], f.holds.to_le_bytes()[..f.width], "{}", self.name);
            let max = u64::MAX >> (64 - 8 * f.width);
            let powers = (f.from..8 * f.width as u32).map(|k| 1u64 << k);
            for value in powers.chain([max]) {
                let mut inflated = good.clone();
                inflated[field.clone()].copy_from_slice(&value.to_le_bytes()[..f.width]);
                self.refuses(&inflated, &format!("{value} at {}", f.at));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The formats.
// ---------------------------------------------------------------------------

fn manifest() -> Format {
    let domain =
        Slice::new(vec![Range::contiguous(1, 8), Range::from_indices(&[1, 4, 9]).unwrap()]);
    let chunk = |hash: u128, stored_len, codec, source| ChunkRecord {
        hash,
        len: 8,
        stored_len,
        codec,
        offset: 0,
        source,
    };
    let ckpt_ref = ChunkSource::Ref { prefix: "ck/a".into(), array: "u".into() };
    let m = Manifest {
        app: "bt".into(),
        kind: CkptKind::DrmsDelta,
        ntasks: 4,
        sop: 7,
        arrays: vec![ArrayEntry { name: "u".into(), elem_code: 1, domain, order: Order::RowMajor }],
        integrity: vec![FileIntegrity::compute("segment", &[5; 10], 4)],
        deltas: vec![ArrayDelta {
            name: "u".into(),
            chunk_bytes: 8,
            stream_len: 16,
            chunks: vec![
                chunk(0x0123_4567_89AB_CDEF_0011_2233_4455_6677, 8, Codec::Raw, ChunkSource::Local),
                chunk(0xFEDC_BA98_7654_3210_8899_AABB_CCDD_EEFF, 4, Codec::Rle, ckpt_ref),
            ],
        }],
    };
    // Magic and version (8), the app name behind its length (8), kind (14),
    // ntasks and sop, then the tables: the array count (31), its entry's
    // name length (35), its domain's rank (42) and the explicit range's
    // index count (64); the integrity count (96), the record's name length
    // (100) and CRC count (127); the delta count (147), the table's chunk
    // count (172) and the second chunk's reference prefix length (244).
    let field = |at, width, holds| Field { at, width, holds, from: 9 };
    Format {
        name: "Manifest",
        good: m.encode(),
        round_trip: |b| Manifest::decode(b).ok().map(|m| m.encode()),
        reseal: Some(trailing_crc),
        fields: vec![
            field(8, 4, 2),
            field(31, 4, 1),
            field(35, 4, 1),
            field(42, 4, 2),
            field(64, 8, 3),
            field(96, 4, 1),
            field(100, 4, 7),
            field(127, 4, 3),
            field(147, 4, 1),
            field(172, 4, 2),
            field(244, 4, 4),
        ],
    }
}

fn segment() -> Format {
    let mut s = DataSegment::new();
    s.set_control("iter", 42);
    s.set_control("phase", -1);
    s.set_replicated_f64("dt", 0.25);
    s.set_replicated("params", vec![1, 2, 3]);
    s.set_region("local", RegionKind::LocalSections, vec![9; 100]);
    s.set_region("msgbuf", RegionKind::SystemBuffers, vec![0; 50]);
    s.set_region("work", RegionKind::PrivateData, vec![7; 30]);
    let good = s.encode();
    // The control count (8) and the blob length of region `local`, the
    // first: after its 100 bytes come `msgbuf` (name 6, 50 bytes) and
    // `work` (name 4, 30 bytes), each framed by a u32 name length, a kind
    // byte and a u64 blob length. A length up to the 216 bytes left reads
    // into the regions behind; from 2^8 on it runs out.
    let after_local = (4 + 6 + 1 + 8 + 50) + (4 + 4 + 1 + 8 + 30);
    let local_len = good.len() - after_local - 100 - 8;
    Format {
        name: "DataSegment",
        good,
        round_trip: |b| DataSegment::decode(b).ok().map(|s| s.encode()),
        reseal: None,
        fields: vec![
            Field { at: 8, width: 4, holds: 2, from: 9 },
            Field { at: local_len, width: 8, holds: 100, from: 8 },
        ],
    }
}

fn mpmd_manifest() -> Format {
    let component = |name: &str, id, ntasks| MpmdComponent {
        name: name.into(),
        prefix: format!("ck/m/comp{id}"),
        ntasks,
    };
    let m = MpmdManifest {
        app: "coupled".into(),
        components: vec![component("ocean", 0, 3), component("atmos", 1, 2)],
    };
    // The app name's length (8), the component count (19) and the first
    // component's name length (23).
    Format {
        name: "MpmdManifest",
        good: m.encode(),
        round_trip: |b| MpmdManifest::decode(b).ok().map(|m| m.encode()),
        reseal: None,
        fields: vec![
            Field { at: 8, width: 4, holds: 7, from: 9 },
            Field { at: 19, width: 4, holds: 2, from: 9 },
            Field { at: 23, width: 4, holds: 5, from: 9 },
        ],
    }
}

/// The fewest bytes one encoded seal event takes: capture sequence, time
/// and rank, kind and correlation flag, correlation id, and the two string
/// length prefixes with empty strings.
const MIN_EVENT_BYTES: usize = 8 + 8 + 8 + 1 + 1 + 8 + 4 + 4;

fn seal() -> Format {
    let header = SealHeader {
        incarnation: 2,
        rank: 1,
        seal_seq: 4,
        t: 3.5,
        reason: "sop".into(),
        evicted_total: 1,
    };
    let event = |t, phase, name: &str, kind, corr| TraceEvent {
        t,
        rank: 2,
        phase,
        name: name.into(),
        kind,
        corr,
    };
    let events = [
        (3, event(1.25, Phase::Segment, "write_segment", EventKind::Begin, None)),
        (4, event(2.5, Phase::Control, "crash:ckpt_mid_publish", EventKind::Instant, Some(7))),
        (9, event(-0.0, Phase::Recover, "é", EventKind::End, Some(u64::MAX))),
    ];
    // Magic, the u16 version and five u64 header fields, then the reason's
    // length (46), the event count (53) and the first event's phase-name
    // length (95). A count of 4 already claims an event more than the
    // three there are.
    Format {
        name: "seal",
        good: encode_seal(&header, events.iter(), events.len()),
        round_trip: |b| {
            let d = decode_seal(b).ok()?;
            // The event reservation is bounded by the bytes, not the count.
            assert!(d.events.capacity() <= b.len() / MIN_EVENT_BYTES, "seal reservation");
            Some(encode_seal(&d.header, d.events.iter(), d.events.len()))
        },
        reseal: None,
        fields: vec![
            Field { at: 46, width: 4, holds: 3, from: 9 },
            Field { at: 53, width: 8, holds: 3, from: 2 },
            Field { at: 95, width: 4, holds: 7, from: 9 },
        ],
    }
}

#[test]
fn every_stored_format_decodes_totally() {
    for format in [manifest(), segment(), mpmd_manifest(), seal()] {
        format.check();
    }
}
