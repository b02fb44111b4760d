//! Self-describing wire format for sealed flight rings.
//!
//! A seal must be decodable by a *later incarnation* that shares nothing
//! with the writer but this format, so everything is explicit: magic,
//! version, full header, and per-event records with the capture sequence
//! numbers that make overlapping snapshot seals deduplicate exactly.
//! Little-endian throughout. Decoding is total: corrupt or torn bytes
//! produce an `Err`, never a panic, so recovery can skip damaged seals.

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

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a seal from a header and the ring's buffered events.
pub fn encode_seal<'a>(
    header: &SealHeader,
    events: impl Iterator<Item = &'a (u64, TraceEvent)>,
    count: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + count * 48);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&header.incarnation.to_le_bytes());
    out.extend_from_slice(&(header.rank as u64).to_le_bytes());
    out.extend_from_slice(&header.seal_seq.to_le_bytes());
    out.extend_from_slice(&header.t.to_bits().to_le_bytes());
    out.extend_from_slice(&header.evicted_total.to_le_bytes());
    put_str(&mut out, &header.reason);
    out.extend_from_slice(&(count as u64).to_le_bytes());
    for (seq, ev) in events {
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&ev.t.to_bits().to_le_bytes());
        out.extend_from_slice(&(ev.rank as u64).to_le_bytes());
        out.push(match ev.kind {
            EventKind::Begin => 0,
            EventKind::End => 1,
            EventKind::Instant => 2,
        });
        match ev.corr {
            Some(c) => {
                out.push(1);
                out.extend_from_slice(&c.to_le_bytes());
            }
            None => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        put_str(&mut out, ev.phase.as_str());
        put_str(&mut out, &ev.name);
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err(format!("truncated seal: need {n} bytes at offset {}", self.pos));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| "invalid utf-8 in seal".to_string())
    }
}

fn phase_from_str(s: &str) -> Result<Phase, String> {
    Phase::ALL
        .iter()
        .copied()
        .find(|p| p.as_str() == s)
        .ok_or_else(|| format!("unknown phase {s:?} in seal"))
}

/// Decodes a seal; damaged bytes yield an `Err` describing the first
/// inconsistency, so recovery can skip the seal and keep going.
pub fn decode_seal(bytes: &[u8]) -> Result<DecodedSeal, String> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err("bad magic: not a flight-recorder seal".to_string());
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(format!("unsupported seal version {version}"));
    }
    let incarnation = c.u64()?;
    let rank = c.u64()? as usize;
    let seal_seq = c.u64()?;
    let t = c.f64()?;
    let evicted_total = c.u64()?;
    let reason = c.str()?;
    let count = c.u64()? as usize;
    // The count is untrusted: reserve no more events than the bytes left
    // could hold. A larger count runs out of bytes and fails `take`.
    let mut events = Vec::with_capacity(count.min((bytes.len() - c.pos) / MIN_EVENT_BYTES));
    for _ in 0..count {
        let seq = c.u64()?;
        let t = c.f64()?;
        let rank = c.u64()? as usize;
        let kind = match c.u8()? {
            0 => EventKind::Begin,
            1 => EventKind::End,
            2 => EventKind::Instant,
            k => return Err(format!("unknown event kind {k} in seal")),
        };
        let has_corr = c.u8()?;
        let corr_raw = c.u64()?;
        // The encoder pads an absent id with zeros; anything else there is
        // damage, so every seal that decodes has exactly one encoding.
        let corr = match has_corr {
            0 if corr_raw == 0 => None,
            1 => Some(corr_raw),
            f => return Err(format!("bad corr flag {f} in seal")),
        };
        let phase = phase_from_str(&c.str()?)?;
        let name = c.str()?;
        events.push((seq, TraceEvent { t, rank, phase, name, kind, corr }));
    }
    if c.pos != bytes.len() {
        return Err(format!("{} trailing bytes after seal", bytes.len() - c.pos));
    }
    Ok(DecodedSeal {
        header: SealHeader { incarnation, rank, seal_seq, t, reason, evicted_total },
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn sample_seal() -> Vec<u8> {
        let header = SealHeader {
            incarnation: 2,
            rank: 1,
            seal_seq: 4,
            t: 3.5,
            reason: "sop".into(),
            evicted_total: 1,
        };
        let events = sample_events();
        encode_seal(&header, events.iter(), events.len())
    }

    /// Where the event count sits in [`sample_seal`]: magic, version, five
    /// u64 header fields, then the reason `"sop"` behind its u32 length.
    const COUNT_AT: usize = 4 + 2 + 5 * 8 + 4 + 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Truncated, bit-flipped and count-inflated seals decode to an
        /// `Err` or to exactly what they encode, never a panic, and no
        /// decode reserves more events than its bytes could hold.
        #[test]
        fn decode_is_total(cut in 0usize..400, flip in 0usize..400, bit in 0u8..8, huge in 2u32..64) {
            let good = sample_seal();
            prop_assert!(good.len() < 400);
            prop_assert_eq!(&good[COUNT_AT..COUNT_AT + 8], &2u64.to_le_bytes());

            prop_assert!(decode_seal(&good[..cut.min(good.len() - 1)]).is_err());

            let mut flipped = good.clone();
            flipped[flip % good.len()] ^= 1 << bit;
            if let Ok(d) = decode_seal(&flipped) {
                prop_assert!(d.events.capacity() <= flipped.len() / MIN_EVENT_BYTES);
                prop_assert_eq!(encode_seal(&d.header, d.events.iter(), d.events.len()), flipped);
            }

            // A count of 2^huge (or every bit set) events behind two real
            // ones: the bytes run out long before the count does.
            for count in [1u64 << huge, u64::MAX] {
                let mut inflated = good.clone();
                inflated[COUNT_AT..COUNT_AT + 8].copy_from_slice(&count.to_le_bytes());
                prop_assert!(decode_seal(&inflated).is_err());
            }
        }
    }

    #[test]
    fn the_reservation_is_bounded_by_the_bytes() {
        let good = sample_seal();
        let d = decode_seal(&good).unwrap();
        assert_eq!(d.events.len(), 2);
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
