//! The task data segment: what one task's memory contributes to a
//! checkpoint.
//!
//! Per Section 2.2 of the paper, at an SOP the data segment of a task
//! consists of the replicated variables and execution context (for DRMS
//! checkpointing, saving one representative task's segment captures them for
//! all tasks), plus bulk regions: the storage of local array sections
//! (fixed at compile time for the minimum task count, in the Fortran
//! applications measured), the system-related region (message-passing
//! buffers, ~33 MB on the paper's SP), and private/replicated application
//! data. Table 4 of the paper reports exactly this anatomy.

use std::collections::BTreeMap;
use std::sync::Arc;

use drms_msg::copy_spread;

use crate::wire::{Reader, WireError, Writer};

const MAGIC: [u8; 4] = *b"DSEG";
const VERSION: u32 = 1;

/// Classification of bulk regions, mirroring the columns of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Storage for the local sections of distributed arrays.
    LocalSections,
    /// System-library residency (message-passing buffers).
    SystemBuffers,
    /// Private and replicated application data (work arrays, tables).
    PrivateData,
}

impl RegionKind {
    fn code(self) -> u8 {
        match self {
            RegionKind::LocalSections => 1,
            RegionKind::SystemBuffers => 2,
            RegionKind::PrivateData => 3,
        }
    }

    fn from_code(c: u8) -> Result<RegionKind, WireError> {
        match c {
            1 => Ok(RegionKind::LocalSections),
            2 => Ok(RegionKind::SystemBuffers),
            3 => Ok(RegionKind::PrivateData),
            _ => Err(WireError::Truncated { what: "region kind" }),
        }
    }
}

/// A named bulk region of the data segment, with its actual bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name (e.g. `"work-arrays"`).
    pub name: String,
    /// Classification for the anatomy report.
    pub kind: RegionKind,
    /// The region's bytes — real data, checkpointed verbatim.
    pub bytes: Vec<u8>,
}

/// Byte anatomy of a segment, per Table 4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentAnatomy {
    /// Total encoded segment size.
    pub total: u64,
    /// Bytes in `LocalSections` regions.
    pub local_sections: u64,
    /// Bytes in `SystemBuffers` regions.
    pub system: u64,
    /// Bytes in `PrivateData` regions plus replicated/control variables.
    pub private_replicated: u64,
}

/// One task's data segment: control variables, replicated variables, and
/// bulk regions.
///
/// A clone shares the bulk regions' storage: a restart decodes the one saved
/// segment once and hands every task a clone. [`DataSegment::set_region`]
/// on a clone replaces that clone's region only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataSegment {
    /// Control variables steering the SOQ flow (loop indices, phase ids).
    pub control: BTreeMap<String, i64>,
    /// Replicated variables: identical in every task's address space.
    pub replicated: BTreeMap<String, Vec<u8>>,
    /// Bulk regions.
    pub regions: Vec<Arc<Region>>,
}

impl DataSegment {
    /// An empty segment.
    pub fn new() -> DataSegment {
        DataSegment::default()
    }

    /// Sets a control variable.
    pub fn set_control(&mut self, name: &str, v: i64) {
        self.control.insert(name.to_string(), v);
    }

    /// Reads a control variable.
    pub fn control(&self, name: &str) -> Option<i64> {
        self.control.get(name).copied()
    }

    /// Sets a replicated byte variable.
    pub fn set_replicated(&mut self, name: &str, bytes: Vec<u8>) {
        self.replicated.insert(name.to_string(), bytes);
    }

    /// Sets a replicated `f64`.
    pub fn set_replicated_f64(&mut self, name: &str, v: f64) {
        self.set_replicated(name, v.to_le_bytes().to_vec());
    }

    /// Reads a replicated `f64`.
    pub fn replicated_f64(&self, name: &str) -> Option<f64> {
        let b = self.replicated.get(name)?;
        Some(f64::from_le_bytes(b.as_slice().try_into().ok()?))
    }

    /// Reads a replicated byte variable.
    pub fn replicated(&self, name: &str) -> Option<&[u8]> {
        self.replicated.get(name).map(Vec::as_slice)
    }

    /// Adds (or replaces) a bulk region.
    pub fn set_region(&mut self, name: &str, kind: RegionKind, bytes: Vec<u8>) {
        let region = Arc::new(Region { name: name.to_string(), kind, bytes });
        match self.regions.iter_mut().find(|r| r.name == name) {
            Some(r) => *r = region,
            None => self.regions.push(region),
        }
    }

    /// Looks up a region by name.
    pub fn region(&self, name: &str) -> Option<&Region> {
        self.regions.iter().map(|r| &**r).find(|r| r.name == name)
    }

    /// Encodes the segment to its checkpoint representation.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_region(None)
    }

    /// Encodes the segment as if `extra` were one of its regions (replacing
    /// any same-named region). Avoids cloning the segment's bulk regions
    /// just to attach the per-checkpoint local-sections blob — at class A
    /// these are tens of megabytes per task.
    pub fn encode_with_region(&self, extra: Option<&Region>) -> Vec<u8> {
        let frame = extra.map(|e| (e.name.as_str(), e.kind, e.bytes.len()));
        self.encode_framed(frame, |slot| {
            copy_spread(extra.map(|e| e.bytes.as_slice()).zip(Some(slot)))
        })
    }

    /// The encoding of this segment with an extra last region `(name, kind,
    /// len)` in place of any same-named one, built in one allocation of its
    /// exact length: the framing is written in order, the kept regions'
    /// bodies are copied into their slots in pieces [`spread`] over the
    /// host's idle cores, and `fill_extra` writes the extra region's body
    /// into its zeroed slot (an empty one when there is no extra region).
    ///
    /// [`spread`]: drms_msg::spread
    pub(crate) fn encode_framed(
        &self,
        extra: Option<(&str, RegionKind, usize)>,
        fill_extra: impl FnOnce(&mut [u8]),
    ) -> Vec<u8> {
        let mut head = Writer::with_header(MAGIC, VERSION);
        head.u32(self.control.len() as u32);
        for (k, v) in &self.control {
            head.string(k);
            head.i64(*v);
        }
        head.u32(self.replicated.len() as u32);
        for (k, v) in &self.replicated {
            head.string(k);
            head.blob(v);
        }
        let kept: Vec<&Region> = (self.regions.iter().map(|r| &**r))
            .filter(|r| extra.is_none_or(|(name, ..)| name != r.name))
            .collect();
        head.u32((kept.len() + usize::from(extra.is_some())) as u32);
        let framing = |name: &str, kind: RegionKind, len: usize| {
            let mut w = Writer::new();
            w.string(name);
            w.u8(kind.code());
            w.u64(len as u64);
            (w.finish(), len)
        };
        let frames: Vec<(Vec<u8>, usize)> =
            (kept.iter().map(|r| framing(&r.name, r.kind, r.bytes.len())))
                .chain(extra.map(|(name, kind, len)| framing(name, kind, len)))
                .collect();
        let head = head.finish();
        let total = head.len() + frames.iter().map(|(f, len)| f.len() + len).sum::<usize>();

        let mut out = vec![0u8; total];
        let (at_head, mut rest) = out.split_at_mut(head.len());
        at_head.copy_from_slice(&head);
        let mut slots = Vec::with_capacity(frames.len());
        for (frame, len) in &frames {
            let (at_frame, tail) = std::mem::take(&mut rest).split_at_mut(frame.len());
            at_frame.copy_from_slice(frame);
            let (slot, tail) = tail.split_at_mut(*len);
            slots.push(slot);
            rest = tail;
        }
        let extra_slot = if extra.is_some() { slots.pop() } else { None };
        fill_extra(extra_slot.unwrap_or_default());
        copy_spread(kept.iter().map(|r| r.bytes.as_slice()).zip(slots));
        out
    }

    /// Decodes a segment from its checkpoint representation: the framing in
    /// order, then the region bodies copied out in pieces [`spread`] over
    /// the host's idle cores — the restart's one decode, made by the
    /// representative task while its siblings wait.
    ///
    /// [`spread`]: drms_msg::spread
    pub fn decode(bytes: &[u8]) -> Result<DataSegment, WireError> {
        let (mut r, mut seg) = DataSegment::decode_head(bytes)?;
        let nreg = r.u32()?;
        let mut framed = Vec::new();
        for _ in 0..nreg {
            let name = r.string()?;
            let kind = RegionKind::from_code(r.u8()?)?;
            framed.push((name, kind, r.blob_ref()?));
        }
        let mut bodies: Vec<Vec<u8>> = framed.iter().map(|(.., b)| vec![0; b.len()]).collect();
        let pairs = framed.iter().map(|(.., b)| *b).zip(bodies.iter_mut().map(Vec::as_mut_slice));
        copy_spread(pairs);
        seg.regions = (framed.into_iter().zip(bodies))
            .map(|((name, kind, _), bytes)| Arc::new(Region { name, kind, bytes }))
            .collect();
        r.finish("data segment")?;
        Ok(seg)
    }

    /// [`DataSegment::decode`] on the calling thread, each region body
    /// copied out by [`Reader::blob`]: for a task that decodes while every
    /// other task decodes too (the SPMD restart, one segment per task).
    /// There the cores are taken, and the spread decoder's zeroed buffers
    /// would cost a pass of their own when the allocator recycles memory.
    pub(crate) fn decode_serial(bytes: &[u8]) -> Result<DataSegment, WireError> {
        let (mut r, mut seg) = DataSegment::decode_head(bytes)?;
        let nreg = r.u32()?;
        for _ in 0..nreg {
            let name = r.string()?;
            let kind = RegionKind::from_code(r.u8()?)?;
            let bytes = r.blob()?;
            seg.regions.push(Arc::new(Region { name, kind, bytes }));
        }
        r.finish("data segment")?;
        Ok(seg)
    }

    /// The header, control and replicated variables of an encoded segment,
    /// and a reader positioned at its region count. Variables are encoded
    /// in name order, and a name out of order is refused, so a segment that
    /// decodes has exactly one encoding.
    fn decode_head(bytes: &[u8]) -> Result<(Reader<'_>, DataSegment), WireError> {
        fn in_order<V>(map: &BTreeMap<String, V>, k: &str) -> Result<(), WireError> {
            match map.last_key_value() {
                Some((last, _)) if last.as_str() >= k => {
                    Err(WireError::Truncated { what: "variable order" })
                }
                _ => Ok(()),
            }
        }
        let (mut r, version) = Reader::with_header(bytes, MAGIC)?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let mut seg = DataSegment::new();
        let ncontrol = r.u32()?;
        for _ in 0..ncontrol {
            let k = r.string()?;
            in_order(&seg.control, &k)?;
            seg.control.insert(k, r.i64()?);
        }
        let nrep = r.u32()?;
        for _ in 0..nrep {
            let k = r.string()?;
            in_order(&seg.replicated, &k)?;
            seg.replicated.insert(k, r.blob()?);
        }
        Ok((r, seg))
    }

    /// The Table 4 anatomy of this segment.
    pub fn anatomy(&self) -> SegmentAnatomy {
        let mut a = SegmentAnatomy::default();
        for r in &self.regions {
            let n = r.bytes.len() as u64;
            match r.kind {
                RegionKind::LocalSections => a.local_sections += n,
                RegionKind::SystemBuffers => a.system += n,
                RegionKind::PrivateData => a.private_replicated += n,
            }
        }
        let rep_bytes: u64 = self.replicated.values().map(|v| v.len() as u64).sum();
        a.private_replicated += rep_bytes + self.control.len() as u64 * 8;
        a.total = self.encode_len();
        a
    }

    /// Encoded size without materializing the encoding.
    pub fn encode_len(&self) -> u64 {
        let mut n = 4 + 4; // magic + version
        n += 4;
        for k in self.control.keys() {
            n += 4 + k.len() as u64 + 8;
        }
        n += 4;
        for (k, v) in &self.replicated {
            n += 4 + k.len() as u64 + 8 + v.len() as u64;
        }
        n += 4;
        for r in &self.regions {
            n += 4 + r.name.len() as u64 + 1 + 8 + r.bytes.len() as u64;
        }
        n
    }
}

/// The Writer-based encoder the spread one replaced, kept as the definition
/// the tests hold it to.
#[cfg(test)]
impl DataSegment {
    pub(crate) fn encode_with_region_reference(&self, extra: Option<&Region>) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.u32(self.control.len() as u32);
        for (k, v) in &self.control {
            w.string(k);
            w.i64(*v);
        }
        w.u32(self.replicated.len() as u32);
        for (k, v) in &self.replicated {
            w.string(k);
            w.blob(v);
        }
        let kept = || {
            let regions = self.regions.iter().map(|r| &**r);
            regions.filter(|r| extra.is_none_or(|e| e.name != r.name))
        };
        w.u32((kept().count() + usize::from(extra.is_some())) as u32);
        for r in kept().chain(extra) {
            w.string(&r.name);
            w.u8(r.kind.code());
            w.blob(&r.bytes);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> DataSegment {
        let mut s = DataSegment::new();
        s.set_control("iter", 42);
        s.set_control("phase", -1);
        s.set_replicated_f64("dt", 0.25);
        s.set_replicated("params", vec![1, 2, 3]);
        s.set_region("local", RegionKind::LocalSections, vec![9; 100]);
        s.set_region("msgbuf", RegionKind::SystemBuffers, vec![0; 50]);
        s.set_region("work", RegionKind::PrivateData, vec![7; 30]);
        s
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let bytes = s.encode();
        let d = DataSegment::decode(&bytes).unwrap();
        assert_eq!(d, s);
        assert_eq!(d.control("iter"), Some(42));
        assert_eq!(d.replicated_f64("dt"), Some(0.25));
        assert_eq!(d.region("local").unwrap().bytes.len(), 100);
    }

    #[test]
    fn encode_len_matches_encoding() {
        let s = sample();
        assert_eq!(s.encode_len(), s.encode().len() as u64);
        assert_eq!(DataSegment::new().encode_len(), DataSegment::new().encode().len() as u64);
    }

    #[test]
    fn anatomy_classifies_regions() {
        let s = sample();
        let a = s.anatomy();
        assert_eq!(a.local_sections, 100);
        assert_eq!(a.system, 50);
        // 30 (work) + 8 (dt) + 3 (params) + 2 control x 8
        assert_eq!(a.private_replicated, 30 + 8 + 3 + 16);
        assert_eq!(a.total, s.encode_len());
    }

    #[test]
    fn set_region_replaces() {
        let mut s = sample();
        s.set_region("local", RegionKind::LocalSections, vec![1; 7]);
        assert_eq!(s.region("local").unwrap().bytes.len(), 7);
        assert_eq!(s.regions.len(), 3);
    }

    #[test]
    fn a_clone_shares_region_storage_until_it_is_written() {
        let original = sample();
        let mut clone = original.clone();
        for (a, b) in original.regions.iter().zip(&clone.regions) {
            assert!(Arc::ptr_eq(a, b), "region {:?} was copied", a.name);
        }
        assert_eq!(clone.encode(), original.encode());

        clone.set_region("work", RegionKind::PrivateData, vec![8; 31]);
        clone.set_control("iter", 43);
        assert_eq!(original, sample(), "writes to the clone reached the original");
        assert_ne!(clone, original);
        assert_eq!(clone.region("work").unwrap().bytes, vec![8; 31]);
        // Only the written region parted ways.
        let shared =
            |name: &str| std::ptr::eq(original.region(name).unwrap(), clone.region(name).unwrap());
        assert!(shared("local") && shared("msgbuf") && !shared("work"));

        // Equality is by value, not by storage.
        let decoded = DataSegment::decode(&original.encode()).unwrap();
        assert!(!Arc::ptr_eq(&decoded.regions[0], &original.regions[0]));
        assert_eq!(decoded, original);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One decode stands for every rank of a restart: whatever the bytes,
        /// it answers, and an `Ok` re-encodes to exactly what it was given.
        #[test]
        fn decode_is_total(cut in 0usize..400, flip in 0usize..400, bit in 0u8..8, huge in 8u32..64) {
            let good = sample().encode();
            prop_assert!(good.len() < 400);

            let truncated = &good[..cut.min(good.len() - 1)];
            prop_assert!(DataSegment::decode(truncated).is_err());

            let mut flipped = good.clone();
            flipped[flip % good.len()] ^= 1 << bit;
            if let Ok(seg) = DataSegment::decode(&flipped) {
                prop_assert_eq!(seg.encode(), flipped);
            }

            // A length or count field claiming far more than the buffer
            // holds is refused before anything is sized by it: the blob
            // length of region `local` (the first) as any power of two up
            // to 2^63, and every u32 count or string length as 0xFFFF_FFFF.
            // After `local`'s 100 bytes come `msgbuf` (name 6, 50 bytes)
            // and `work` (name 4, 30 bytes), each framed by a u32 name
            // length, a kind byte and a u64 blob length.
            let after_local = (4 + 6 + 1 + 8 + 50) + (4 + 4 + 1 + 8 + 30);
            let blob_len = good.len() - after_local - 100 - 8;
            prop_assert_eq!(&good[blob_len..blob_len + 8], &100u64.to_le_bytes());
            let mut inflated = good.clone();
            inflated[blob_len..blob_len + 8].copy_from_slice(&(1u64 << huge).to_le_bytes());
            prop_assert!(DataSegment::decode(&inflated).is_err());
            for at in (8..good.len() - 4).step_by(1 + flip % 7) {
                let mut bad = good.clone();
                bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                if let Ok(seg) = DataSegment::decode(&bad) {
                    prop_assert_eq!(seg.encode(), bad);
                }
            }
        }
    }

    #[test]
    fn corrupted_segment_rejected() {
        let s = sample();
        let mut bytes = s.encode();
        bytes.truncate(bytes.len() - 10);
        assert!(DataSegment::decode(&bytes).is_err());
        bytes[0] = b'X';
        assert!(matches!(DataSegment::decode(&bytes), Err(WireError::BadMagic { .. })));

        // Only the one encoding of a segment decodes: no byte may follow
        // the last region, and variables must come in name order.
        let mut trailing = s.encode();
        trailing.push(0);
        let left_over = Err(WireError::TrailingBytes { what: "data segment" });
        assert_eq!(DataSegment::decode(&trailing), left_over);
        assert_eq!(DataSegment::decode_serial(&trailing), left_over);
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.u32(2);
        for name in ["phase", "iter"] {
            w.string(name);
            w.i64(1);
        }
        w.u32(0);
        w.u32(0);
        let unordered = Err(WireError::Truncated { what: "variable order" });
        assert_eq!(DataSegment::decode(&w.finish()), unordered);
    }
}
