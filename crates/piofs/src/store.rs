//! In-memory byte store for logical files, with optional XOR parity.
//!
//! The store is honest about failure: when a server is killed, the byte
//! ranges it held are *actually overwritten* with a poison pattern (and
//! tracked in [`FileData::lost`]), so any read that claims to return the
//! original data must genuinely reconstruct it from parity plus the
//! surviving stripe units — there is no hidden copy to cheat from.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::integrity::Slots;
use crate::parity::ParityGeom;
use crate::stripe::IntervalSet;

/// Pattern written over byte ranges lost with a failed server.
pub(crate) const POISON: u8 = 0xDB;

/// Contents and identity of one logical file.
#[derive(Debug)]
pub(crate) struct FileData {
    /// Interned identity, stable for the life of the namespace entry.
    pub id: u64,
    /// The file's bytes, contiguous. Striping is a property of the cost
    /// model, not of the storage representation. Ranges in `lost` hold
    /// poison, not data. Shared with the [`Stored`] handles reads hand out,
    /// and written copy-on-write: a write copies them only while a handle
    /// still holds them.
    pub bytes: Arc<Vec<u8>>,
    /// Parity blocks, group-major, one stripe unit per group (empty when
    /// parity is off). Invariant: an intact block is the byte-wise XOR of
    /// its group's *true* unit contents, zero-padded past end-of-file.
    pub parity: Vec<u8>,
    /// Logical byte ranges whose server is down (poisoned in `bytes`).
    pub lost: IntervalSet,
    /// Groups whose parity block is unavailable: its server is down, or
    /// the block could not be maintained through a degraded write.
    pub parity_lost: BTreeSet<u64>,
    /// The writers' integrity CRCs, for a file reserved by `create` whose
    /// table has not been folded yet.
    pub slots: Option<Slots>,
}

impl FileData {
    pub fn new(id: u64) -> FileData {
        FileData {
            id,
            bytes: Arc::default(),
            parity: Vec::new(),
            lost: IntervalSet::new(),
            parity_lost: BTreeSet::new(),
            slots: None,
        }
    }

    /// Marks the integrity chunks over `[offset, end)` for re-read: their
    /// stored bytes changed other than by a recorded write.
    pub fn stale(&mut self, offset: u64, end: u64) {
        if let Some(slots) = &mut self.slots {
            slots.stale(offset, end);
        }
    }

    /// Writes `data` at `offset`, zero-extending the file as needed. Raw:
    /// no parity maintenance (use [`FileData::write_parity_aware`] on the
    /// I/O path).
    ///
    /// An owned buffer written at offset 0 into an empty file, covering the
    /// whole of the file's reservation ([`crate::Piofs::create`]), is
    /// adopted: it becomes the stored bytes and no byte is copied. Its spare
    /// capacity is given back (a buffer grown by appending, such as a delta
    /// pack, would otherwise keep up to its length again for as long as the
    /// file lives). Any other write copies, overwriting in place what the
    /// file already holds and appending the rest.
    pub fn write_at(&mut self, offset: u64, data: Cow<'_, [u8]>) {
        let data = match data {
            Cow::Owned(mut v)
                if offset == 0 && self.bytes.is_empty() && v.len() >= self.bytes.capacity() =>
            {
                v.shrink_to_fit();
                self.bytes = Arc::new(v);
                return;
            }
            data => data,
        };
        let bytes = Arc::make_mut(&mut self.bytes);
        let offset = offset as usize;
        if offset > bytes.len() {
            bytes.resize(offset, 0);
        }
        let in_place = (bytes.len() - offset).min(data.len());
        bytes[offset..offset + in_place].copy_from_slice(&data[..in_place]);
        bytes.extend_from_slice(&data[in_place..]);
    }

    /// Reads `len` bytes at `offset`; `None` if out of bounds. Raw: lost
    /// ranges come back as poison.
    pub fn read_at(&self, offset: u64, len: u64) -> Option<Vec<u8>> {
        let offset = offset as usize;
        let len = len as usize;
        let end = offset.checked_add(len)?;
        if end > self.bytes.len() {
            return None;
        }
        Some(self.bytes[offset..end].to_vec())
    }

    /// The logical bytes of `[offset, offset + len)` and the number of them
    /// rebuilt from parity. Where nothing of the range is lost they are the
    /// stored bytes, shared, not copied; otherwise
    /// [`FileData::read_logical`]'s reconstruction.
    pub fn read(
        &self,
        offset: u64,
        len: u64,
        geom: Option<&ParityGeom>,
    ) -> Result<(Stored, u64), ReadFail> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len() && !self.lost.overlaps(offset, end) => {
                let (start, end) = (offset as usize, end as usize);
                Ok((Stored { bytes: Arc::clone(&self.bytes), start, end }, 0))
            }
            _ => self.read_logical(offset, len, geom).map(|(data, rebuilt)| (data.into(), rebuilt)),
        }
    }

    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    // ------------------------------------------------------------------
    // Parity maintenance
    // ------------------------------------------------------------------

    /// Stored byte at logical position `b`, zero past end-of-file (the
    /// padding convention parity is computed under).
    fn byte_or_zero(&self, b: u64) -> u8 {
        self.bytes.get(b as usize).copied().unwrap_or(0)
    }

    /// Stripe units of group `grp` that overlap a lost range.
    fn lost_units_in_group(&self, grp: u64, g: &ParityGeom) -> Vec<u64> {
        g.units_of_group(grp)
            .filter(|&u| {
                let (s, e) = g.unit_range(u, self.len());
                self.lost.overlaps(s, e)
            })
            .collect()
    }

    /// Whether the data content of group `grp` can be (or already is)
    /// bitwise-true in memory: nothing lost, or exactly one unit lost with
    /// its parity block intact.
    fn group_feasible(&self, grp: u64, g: &ParityGeom) -> bool {
        let lost = self.lost_units_in_group(grp, g);
        lost.is_empty() || (lost.len() == 1 && !self.parity_lost.contains(&grp))
    }

    /// Restores the true contents of group `grp` into `bytes` (overwriting
    /// poison with the XOR reconstruction). Returns `false` when the group
    /// is unrecoverable (two losses).
    fn heal_group(&mut self, grp: u64, g: &ParityGeom) -> bool {
        let lost = self.lost_units_in_group(grp, g);
        if lost.is_empty() {
            return true;
        }
        if lost.len() > 1 || self.parity_lost.contains(&grp) {
            return false;
        }
        let u = lost[0];
        let (s, e) = g.unit_range(u, self.len());
        for b in s..e {
            let o = b - u * g.stripe_unit;
            let mut v = self.parity[(grp * g.stripe_unit + o) as usize];
            for u2 in g.units_of_group(grp) {
                if u2 != u {
                    v ^= self.byte_or_zero(u2 * g.stripe_unit + o);
                }
            }
            Arc::make_mut(&mut self.bytes)[b as usize] = v;
        }
        true
    }

    /// Recomputes the parity block of group `grp` from the current `bytes`.
    fn recompute_parity_group(&mut self, grp: u64, g: &ParityGeom) {
        let su = g.stripe_unit;
        let base = (grp * su) as usize;
        if self.parity.len() < base + su as usize {
            self.parity.resize(base + su as usize, 0);
        }
        for o in 0..su {
            let mut v = 0u8;
            for u in g.units_of_group(grp) {
                v ^= self.byte_or_zero(u * su + o);
            }
            self.parity[base + o as usize] = v;
        }
    }

    /// Overwrites every lost range with poison (dead servers hold nothing,
    /// even right after a write addressed bytes to them).
    fn repoison(&mut self) {
        let ivs: Vec<(u64, u64)> = self.lost.intervals().to_vec();
        for (a, b) in ivs {
            let b = b.min(self.len());
            if a < b {
                Arc::make_mut(&mut self.bytes)[a as usize..b as usize].fill(POISON);
            }
        }
    }

    /// [`FileData::write_parity_aware`], recording the writer's integrity
    /// CRCs of `data` (`crcs`, cut at the integrity grid) in the slot table
    /// when the file has one.
    pub fn write_recorded(
        &mut self,
        offset: u64,
        data: Cow<'_, [u8]>,
        crcs: &[u32],
        geom: Option<&ParityGeom>,
        down: &[bool],
    ) -> u64 {
        let len = data.len() as u64;
        let parity_bytes = self.write_parity_aware(offset, data, geom, down);
        if let Some(slots) = &mut self.slots {
            slots.record(offset, len, crcs);
        }
        parity_bytes
    }

    /// Parity-aware write: the normal I/O path when parity is enabled
    /// (plain [`FileData::write_at`] when `geom` is `None`).
    ///
    /// Degraded-mode protocol per affected group: reconstruct any lost unit
    /// from old parity first (so memory briefly holds the group's true
    /// contents), apply the write, recompute the parity block — unless its
    /// server is down (`down[parity_server]`) or the group is unrecoverable,
    /// in which case the block is marked lost — and finally re-poison lost
    /// ranges. Net effect: parity always encodes the *new* true contents,
    /// so bytes written "to" a dead server remain reconstructible, exactly
    /// like a degraded RAID-5 write. Returns the number of parity bytes
    /// rewritten (the write-overhead the cost model charges for).
    pub fn write_parity_aware(
        &mut self,
        offset: u64,
        data: Cow<'_, [u8]>,
        geom: Option<&ParityGeom>,
        down: &[bool],
    ) -> u64 {
        let Some(g) = geom else {
            self.write_at(offset, data);
            self.repoison();
            return 0;
        };
        if data.is_empty() {
            return 0;
        }
        let end = offset + data.len() as u64;
        let groups = g.groups_overlapping(offset, end);
        let healed: Vec<(u64, bool)> = groups.map(|grp| (grp, self.heal_group(grp, g))).collect();
        self.write_at(offset, data);
        let mut parity_bytes = 0;
        for &(grp, ok) in &healed {
            if ok && !down[g.parity_server(grp)] {
                self.recompute_parity_group(grp, g);
                self.parity_lost.remove(&grp);
                parity_bytes += g.stripe_unit;
            } else {
                // Parity unavailable: either its server is down, or the
                // group's true contents are unknowable (double loss). Poison
                // the stale block so nothing reconstructs from it.
                self.poison_parity_group(grp, g);
            }
        }
        self.repoison();
        parity_bytes
    }

    fn poison_parity_group(&mut self, grp: u64, g: &ParityGeom) {
        let su = g.stripe_unit as usize;
        let base = grp as usize * su;
        if self.parity.len() >= base + su {
            self.parity[base..base + su].fill(POISON);
        }
        self.parity_lost.insert(grp);
    }

    /// XOR-reconstructs the true contents of `[s, e)` — a range inside one
    /// stripe unit — into `out`, from the parity block and the sibling
    /// units of its group. The stored bytes of the range's own unit never
    /// participate, so this works whether they are poisoned or silently
    /// corrupt. `false` when the group's parity is lost or a sibling is
    /// also lost. The per-group bookkeeping (interval checks, parity
    /// lookups) runs once per unit, not per byte — reconstruction of a
    /// multi-megabyte file has to stay cheap enough for restart reads.
    fn reconstruct_span(&self, s: u64, e: u64, g: &ParityGeom, out: &mut [u8]) -> bool {
        let u = s / g.stripe_unit;
        debug_assert_eq!((e - 1) / g.stripe_unit, u, "span crosses a stripe unit");
        let grp = g.group_of_byte(s);
        if self.parity_lost.contains(&grp) {
            return false;
        }
        let o0 = s % g.stripe_unit;
        let plen = (e - s) as usize;
        let pbase = (grp * g.stripe_unit + o0) as usize;
        if self.parity.len() < pbase + plen {
            return false; // parity block never materialized
        }
        out[..plen].copy_from_slice(&self.parity[pbase..pbase + plen]);
        for u2 in g.units_of_group(grp) {
            if u2 == u {
                continue;
            }
            let (s2, e2) = g.unit_range(u2, self.len());
            if self.lost.overlaps(s2, e2) {
                return false; // sibling also lost: double failure
            }
            let b2 = u2 * g.stripe_unit + o0;
            for (i, v) in out.iter_mut().take(plen).enumerate() {
                *v ^= self.byte_or_zero(b2 + i as u64);
            }
        }
        true
    }

    /// Logical read: raw bytes with any lost range transparently replaced
    /// by its XOR reconstruction. Returns the data and the number of
    /// reconstructed bytes, or the first unreconstructible lost range.
    pub fn read_logical(
        &self,
        offset: u64,
        len: u64,
        geom: Option<&ParityGeom>,
    ) -> Result<(Vec<u8>, u64), ReadFail> {
        let mut out = self.read_at(offset, len).ok_or(ReadFail::OutOfBounds)?;
        let end = offset + len;
        if !self.lost.overlaps(offset, end) {
            return Ok((out, 0));
        }
        let Some(g) = geom else {
            let (a, b) = self.lost.clipped(offset, end)[0];
            return Err(ReadFail::Lost { offset: a, len: b - a });
        };
        let mut reconstructed = 0;
        for (a, b) in self.lost.clipped(offset, end) {
            let mut s = a;
            while s < b {
                let e = b.min((s / g.stripe_unit + 1) * g.stripe_unit);
                let dst = (s - offset) as usize..(e - offset) as usize;
                if !self.reconstruct_span(s, e, g, &mut out[dst]) {
                    return Err(ReadFail::Lost { offset: a, len: b - a });
                }
                s = e;
            }
            reconstructed += b - a;
        }
        Ok((out, reconstructed))
    }

    /// Pure parity-based reconstruction of `[offset, offset + len)`,
    /// ignoring the stored bytes of that range — the repair source for a
    /// chunk whose checksum failed. `None` when any byte's group lacks
    /// intact parity or a surviving sibling set.
    pub fn reconstruct_range(&self, offset: u64, len: u64, g: &ParityGeom) -> Option<Vec<u8>> {
        let end = offset.checked_add(len)?;
        if end > self.len() {
            return None;
        }
        let mut out = vec![0u8; len as usize];
        let mut s = offset;
        while s < end {
            let e = end.min((s / g.stripe_unit + 1) * g.stripe_unit);
            let dst = (s - offset) as usize..(e - offset) as usize;
            if !self.reconstruct_span(s, e, g, &mut out[dst]) {
                return None;
            }
            s = e;
        }
        Some(out)
    }

    /// Marks server `k`'s stripe units as lost, overwriting them with
    /// poison; under parity mode (`parity_on`) the parity blocks hosted on
    /// `k` are poisoned too. The same striping applies either way — without
    /// parity the data is simply gone. Returns the data bytes lost in this
    /// file.
    pub fn fail_server(&mut self, k: usize, g: &ParityGeom, parity_on: bool) -> u64 {
        let mut lost = 0;
        let units = self.len().div_ceil(g.stripe_unit);
        for u in 0..units {
            if g.unit_server(u) == k {
                let (s, e) = g.unit_range(u, self.len());
                if s < e {
                    self.lost.insert(s, e);
                    lost += e - s;
                }
            }
        }
        if lost > 0 {
            // Bytes healed from parity later need not be the ones their
            // writers CRC'd (a sibling unit may have rotted since): from now
            // on the file's records are read.
            self.slots = None;
        }
        if parity_on {
            for grp in 0..g.group_count(self.len()) {
                if g.parity_server(grp) == k {
                    self.poison_parity_group(grp, g);
                }
            }
        }
        self.repoison();
        lost
    }

    /// Repairs this file after server `k` comes back: lost units on `k` are
    /// reconstructed from parity, lost parity blocks on `k` are recomputed
    /// from data. Returns the number of data bytes still lost afterwards
    /// (non-zero only under multi-server failures).
    pub fn repair_after_server(&mut self, k: usize, g: &ParityGeom) -> u64 {
        let units = self.len().div_ceil(g.stripe_unit);
        for u in 0..units {
            if g.unit_server(u) != k {
                continue;
            }
            let (s, e) = g.unit_range(u, self.len());
            if s >= e || !self.lost.overlaps(s, e) {
                continue;
            }
            let grp = g.group_of_byte(s);
            if self.group_feasible(grp, g) && self.heal_group(grp, g) {
                self.lost.remove(s, e);
            }
        }
        for grp in 0..g.group_count(self.len()) {
            if g.parity_server(grp) == k
                && self.parity_lost.contains(&grp)
                && self.lost_units_in_group(grp, g).is_empty()
            {
                self.recompute_parity_group(grp, g);
                self.parity_lost.remove(&grp);
            }
        }
        self.lost.total()
    }
}

/// Bytes read from a file: a range of its stored bytes, shared with the
/// file, or the parity rebuild of a range that had lost bytes. A read takes
/// the handle under the file-system lock and its caller uses it after the
/// lock is dropped. A later write to the file copies the stored bytes
/// rather than change the ones a handle holds, so a handle keeps the bytes
/// the file held when it was read.
#[derive(Clone)]
pub struct Stored {
    bytes: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl From<Vec<u8>> for Stored {
    /// A handle owning `bytes` (a read served from elsewhere than a file).
    fn from(bytes: Vec<u8>) -> Stored {
        let end = bytes.len();
        Stored { bytes: Arc::new(bytes), start: 0, end }
    }
}

impl Deref for Stored {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }
}

impl fmt::Debug for Stored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Why a logical read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadFail {
    /// The request reached past end-of-file.
    OutOfBounds,
    /// A lost range could not be reconstructed (no parity, or a second
    /// concurrent loss in the same group).
    Lost {
        /// Start of the unreconstructible range.
        offset: u64,
        /// Its length.
        len: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: ParityGeom = ParityGeom { stripe_unit: 4, n_servers: 3 };
    const UP: [bool; 3] = [false, false, false];

    fn filled(n: usize) -> FileData {
        let mut f = FileData::new(0);
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8 + 1).collect();
        f.write_parity_aware(0, Cow::Owned(data), Some(&G), &UP);
        f
    }

    #[test]
    fn write_extends_with_zeros() {
        let mut f = FileData::new(0);
        f.write_at(4, Cow::Borrowed(&[1, 2]));
        assert_eq!(f.len(), 6);
        assert_eq!(f.read_at(0, 6).unwrap(), vec![0, 0, 0, 0, 1, 2]);
    }

    #[test]
    fn overwrite_in_place() {
        let mut f = FileData::new(0);
        f.write_at(0, Cow::Borrowed(&[1, 2, 3, 4]));
        f.write_at(1, Cow::Borrowed(&[9, 9]));
        assert_eq!(f.read_at(0, 4).unwrap(), vec![1, 9, 9, 4]);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn read_out_of_bounds_is_none() {
        let mut f = FileData::new(0);
        f.write_at(0, Cow::Borrowed(&[1, 2, 3]));
        assert!(f.read_at(1, 3).is_none());
        assert!(f.read_at(3, 1).is_none());
        assert_eq!(f.read_at(3, 0).unwrap(), Vec::<u8>::new());
        assert!(f.read_at(u64::MAX, 2).is_none());
    }

    #[test]
    fn any_single_server_loss_reconstructs_exactly() {
        let want = filled(41).bytes.to_vec();
        for k in 0..3 {
            let mut f = filled(41);
            let lost = f.fail_server(k, &G, true);
            // Poison genuinely destroys the stored copy of lost units.
            if lost > 0 {
                assert_ne!(*f.bytes, want, "server {k}");
            }
            let (got, rec) = f.read_logical(0, 41, Some(&G)).unwrap();
            assert_eq!(got, want, "server {k}");
            assert_eq!(rec, lost);
        }
    }

    #[test]
    fn degraded_write_keeps_lost_bytes_reconstructible() {
        let mut f = filled(40);
        f.fail_server(1, &G, true);
        // Overwrite a range spanning lost and surviving units.
        let patch: Vec<u8> = (0..24).map(|i| 200 + i as u8).collect();
        f.write_parity_aware(8, Cow::Borrowed(&patch), Some(&G), &[false, true, false]);
        let mut want: Vec<u8> = (0..40).map(|i| (i % 251) as u8 + 1).collect();
        want[8..32].copy_from_slice(&patch);
        let (got, rec) = f.read_logical(0, 40, Some(&G)).unwrap();
        assert_eq!(got, want);
        assert!(rec > 0, "lost units were served by reconstruction");
    }

    #[test]
    fn double_failure_is_detected_not_fabricated() {
        let mut f = filled(40);
        f.fail_server(0, &G, true);
        f.fail_server(1, &G, true);
        assert!(matches!(f.read_logical(0, 40, Some(&G)), Err(ReadFail::Lost { .. })));
    }

    #[test]
    fn repair_restores_bitwise_and_clears_loss() {
        let want = filled(53).bytes.to_vec();
        let mut f = filled(53);
        f.fail_server(2, &G, true);
        assert_eq!(f.repair_after_server(2, &G), 0);
        assert_eq!(*f.bytes, want);
        assert!(f.parity_lost.is_empty());
        // Reads need no reconstruction afterwards.
        let (_, rec) = f.read_logical(0, 53, Some(&G)).unwrap();
        assert_eq!(rec, 0);
    }

    #[test]
    fn reconstruct_range_ignores_stored_corruption() {
        let mut f = filled(36);
        let want = f.bytes.to_vec();
        // Corrupt one stripe unit in place (parity untouched, like real bit
        // rot). Reconstruction of that unit comes from parity + siblings, so
        // the stored garbage never participates.
        let bytes = Arc::make_mut(&mut f.bytes);
        bytes[10] ^= 0xFF;
        bytes[11] ^= 0x0F;
        let fixed = f.reconstruct_range(8, 4, &G).unwrap();
        assert_eq!(fixed, want[8..12].to_vec());
    }

    #[test]
    fn parity_off_loss_is_permanent() {
        let mut f = FileData::new(0);
        f.write_parity_aware(0, Cow::Borrowed(&[7; 32]), None, &UP);
        assert!(f.parity.is_empty());
        f.fail_server(0, &G, false);
        // Without parity blocks the lost units cannot come back.
        assert!(f.read_logical(0, 32, None).is_err());
    }
}
