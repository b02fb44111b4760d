//! Self-describing wire format for sealed flight rings.
//!
//! A seal must be decodable by a *later incarnation* that shares nothing
//! with the writer but this format, so everything is explicit: magic,
//! version, full header, and per-event records with the capture sequence
//! numbers that make overlapping snapshot seals deduplicate exactly.
//! The bytes are written and read by [`drms_core::wire`], the codec of
//! every stored file, so decoding is total: corrupt or torn bytes produce
//! an `Err`, never a panic, so recovery can skip damaged seals.

use std::error::Error;

use drms_core::wire::{Reader, Writer};
use drms_obs::{EventKind, Phase, TraceEvent};

/// Wire magic, leading every encoded seal.
pub const MAGIC: [u8; 4] = *b"DRBB";
/// Current wire version.
pub const VERSION: u16 = 1;

/// Metadata identifying one seal.
#[derive(Debug, Clone, PartialEq)]
pub struct SealHeader {
    /// JSA incarnation the sealing process belonged to.
    pub incarnation: u64,
    /// Sealing rank.
    pub rank: usize,
    /// Per-(incarnation, rank) seal sequence number.
    pub seal_seq: u64,
    /// Simulated time the seal was taken.
    pub t: f64,
    /// Why the seal was taken (`"sop"`, a crash-point name, `"final"`).
    pub reason: String,
    /// Cumulative events evicted from the ring before this seal.
    pub evicted_total: u64,
}

/// A decoded seal: header plus the snapshot of `(capture seq, event)`
/// pairs that were buffered when it was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedSeal {
    /// Seal identity and context.
    pub header: SealHeader,
    /// Buffered events, oldest first.
    pub events: Vec<(u64, TraceEvent)>,
}

/// The fewest bytes one encoded event takes: capture sequence, time and
/// rank (8 each), kind and correlation flag (1 each), correlation id (8),
/// and the two string length prefixes (4 each) with empty strings.
const MIN_EVENT_BYTES: usize = 8 + 8 + 8 + 1 + 1 + 8 + 4 + 4;

/// Encodes a seal from a header and the ring's buffered events.
pub fn encode_seal<'a>(
    header: &SealHeader,
    events: impl Iterator<Item = &'a (u64, TraceEvent)>,
    count: usize,
) -> Vec<u8> {
    let mut w = Writer::with_magic(MAGIC);
    w.u16(VERSION);
    w.u64(header.incarnation);
    w.u64(header.rank as u64);
    w.u64(header.seal_seq);
    w.f64(header.t);
    w.u64(header.evicted_total);
    w.string(&header.reason);
    w.u64(count as u64);
    for (seq, ev) in events {
        w.u64(*seq);
        w.f64(ev.t);
        w.u64(ev.rank as u64);
        w.u8(match ev.kind {
            EventKind::Begin => 0,
            EventKind::End => 1,
            EventKind::Instant => 2,
        });
        // An absent id is padded with zeros, so every event has one width.
        w.u8(u8::from(ev.corr.is_some()));
        w.u64(ev.corr.unwrap_or(0));
        w.string(ev.phase.as_str());
        w.string(&ev.name);
    }
    w.finish()
}

/// Decodes a seal; damaged bytes yield an `Err` describing the first
/// inconsistency, so recovery can skip the seal and keep going.
pub fn decode_seal(bytes: &[u8]) -> Result<DecodedSeal, String> {
    decode(bytes).map_err(|e| format!("damaged seal: {e}"))
}

fn decode(bytes: &[u8]) -> Result<DecodedSeal, Box<dyn Error>> {
    let mut r = Reader::with_magic(bytes, MAGIC)?;
    let version = r.u16()?;
    if version != VERSION {
        return Err(format!("unsupported seal version {version}").into());
    }
    let incarnation = r.u64()?;
    let rank = r.u64()? as usize;
    let seal_seq = r.u64()?;
    let t = r.f64()?;
    let evicted_total = r.u64()?;
    let reason = r.string()?;
    let count = r.u64()?;
    // The count is untrusted: reserve no more events than the bytes left
    // could hold. A larger count runs out of bytes.
    let mut events = Vec::with_capacity(r.fits(count as usize, MIN_EVENT_BYTES));
    for _ in 0..count {
        let seq = r.u64()?;
        let t = r.f64()?;
        let rank = r.u64()? as usize;
        let kind = match r.u8()? {
            0 => EventKind::Begin,
            1 => EventKind::End,
            2 => EventKind::Instant,
            k => return Err(format!("unknown event kind {k}").into()),
        };
        // Anything but zeros behind an absent id is damage, so every seal
        // that decodes has exactly one encoding.
        let corr = match (r.u8()?, r.u64()?) {
            (0, 0) => None,
            (1, c) => Some(c),
            (f, _) => return Err(format!("bad corr flag {f}").into()),
        };
        let phase = r.string()?;
        let phase = Phase::ALL
            .into_iter()
            .find(|p| p.as_str() == phase)
            .ok_or_else(|| format!("unknown phase {phase:?}"))?;
        let name = r.string()?;
        events.push((seq, TraceEvent { t, rank, phase, name, kind, corr }));
    }
    r.finish("seal")?;
    Ok(DecodedSeal {
        header: SealHeader { incarnation, rank, seal_seq, t, reason, evicted_total },
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_core::wire::crc32;
    use proptest::prelude::*;

    fn sample_events() -> Vec<(u64, TraceEvent)> {
        vec![
            (
                3,
                TraceEvent {
                    t: 1.25,
                    rank: 2,
                    phase: Phase::Segment,
                    name: "write_segment".into(),
                    kind: EventKind::Begin,
                    corr: None,
                },
            ),
            (
                4,
                TraceEvent {
                    t: 2.5,
                    rank: 2,
                    phase: Phase::Control,
                    name: "crash:ckpt_mid_publish".into(),
                    kind: EventKind::Instant,
                    corr: Some(7),
                },
            ),
        ]
    }

    #[test]
    fn round_trips_bitwise() {
        let header = SealHeader {
            incarnation: 3,
            rank: 2,
            seal_seq: 5,
            t: 17.75,
            reason: "sop".into(),
            evicted_total: 9,
        };
        let events = sample_events();
        let bytes = encode_seal(&header, events.iter(), events.len());
        let d = decode_seal(&bytes).unwrap();
        assert_eq!(d.header, header);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].0, 3);
        assert_eq!(d.events[0].1.name, "write_segment");
        assert_eq!(d.events[1].1.corr, Some(7));
        assert_eq!(d.events[1].1.phase, Phase::Control);
        // Re-encoding the decode is byte-identical.
        let again = encode_seal(&d.header, d.events.iter(), d.events.len());
        assert_eq!(again, bytes);
    }

    #[test]
    fn truncated_and_corrupt_bytes_error_cleanly() {
        let header = SealHeader {
            incarnation: 0,
            rank: 0,
            seal_seq: 0,
            t: 0.0,
            reason: "sop".into(),
            evicted_total: 0,
        };
        let events = sample_events();
        let bytes = encode_seal(&header, events.iter(), events.len());
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_seal(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff; // magic
        assert!(decode_seal(&bad).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_seal(&trailing).is_err());
    }

    /// A seal of [`sample_events`] plus one event with fields at their
    /// edges: a negative zero time, a multi-byte name, the largest id.
    fn pinned_seal() -> Vec<u8> {
        let header = SealHeader {
            incarnation: 2,
            rank: 1,
            seal_seq: 4,
            t: 3.5,
            reason: "sop".into(),
            evicted_total: 1,
        };
        let mut events = sample_events();
        events.push((
            9,
            TraceEvent {
                t: -0.0,
                rank: 7,
                phase: Phase::Recover,
                name: "é".into(),
                kind: EventKind::End,
                corr: Some(u64::MAX),
            },
        ));
        encode_seal(&header, events.iter(), events.len())
    }

    /// Where the event count sits in [`pinned_seal`]: magic, version, five
    /// u64 header fields, then the reason `"sop"` behind its u32 length.
    const COUNT_AT: usize = 4 + 2 + 5 * 8 + 4 + 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Truncated, bit-flipped and count-inflated seals decode to an
        /// `Err` or to exactly what they encode, never a panic, and no
        /// decode reserves more events than its bytes could hold.
        #[test]
        fn decode_is_total(cut in 0usize..400, flip in 0usize..400, bit in 0u8..8, huge in 2u32..64) {
            let good = pinned_seal();
            prop_assert!(good.len() < 400);
            prop_assert_eq!(&good[COUNT_AT..COUNT_AT + 8], &3u64.to_le_bytes());

            prop_assert!(decode_seal(&good[..cut.min(good.len() - 1)]).is_err());

            let mut flipped = good.clone();
            flipped[flip % good.len()] ^= 1 << bit;
            if let Ok(d) = decode_seal(&flipped) {
                prop_assert!(d.events.capacity() <= flipped.len() / MIN_EVENT_BYTES);
                prop_assert_eq!(encode_seal(&d.header, d.events.iter(), d.events.len()), flipped);
            }

            // A count of 2^huge (or every bit set) events behind three real
            // ones: the bytes run out long before the count does.
            for count in [1u64 << huge, u64::MAX] {
                let mut inflated = good.clone();
                inflated[COUNT_AT..COUNT_AT + 8].copy_from_slice(&count.to_le_bytes());
                prop_assert!(decode_seal(&inflated).is_err());
            }
        }
    }

    /// Version 1 of the seal layout, byte for byte: seals written by any
    /// earlier build must keep decoding, and this one must write theirs.
    #[test]
    fn the_v1_encoding_is_pinned() {
        let bytes = pinned_seal();
        assert_eq!(bytes.len(), 245);
        assert_eq!(crc32(&bytes), 0x683b_6bb0);
        assert_eq!(&bytes[..6], b"DRBB\x01\x00");
        let d = decode_seal(&bytes).unwrap();
        assert_eq!(d.events[2].1.t.to_bits(), (-0.0f64).to_bits());
        assert_eq!(encode_seal(&d.header, d.events.iter(), d.events.len()), bytes);
    }

    #[test]
    fn the_reservation_is_bounded_by_the_bytes() {
        let good = pinned_seal();
        let d = decode_seal(&good).unwrap();
        assert_eq!(d.events.len(), 3);
        assert!(d.events.capacity() <= good.len() / MIN_EVENT_BYTES);
        // The shortest event an encoder can write is the bound's unit.
        let empty = TraceEvent {
            t: 0.0,
            rank: 0,
            phase: Phase::ALL[0],
            name: String::new(),
            kind: EventKind::Instant,
            corr: None,
        };
        let one = encode_seal(&d.header, [(0, empty)].iter(), 1);
        let none = encode_seal(&d.header, [].iter(), 0);
        assert_eq!(one.len() - none.len(), MIN_EVENT_BYTES + Phase::ALL[0].as_str().len());
    }
}
