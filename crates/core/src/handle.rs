//! Type-erased handles over distributed arrays of any element type, so one
//! checkpoint call can cover a heterogeneous set of arrays.

use drms_darray::{assign, decode_into, encode_into, stream, DistArray, Distribution, Element};
use drms_msg::{spread, Ctx, SPREAD_PIECE};
use drms_piofs::Piofs;
use drms_slices::{Order, Slice};

use crate::segment::{DataSegment, RegionKind};
use crate::{CoreError, Result};

/// A distributed array as seen by the checkpoint machinery.
pub trait CheckpointArray: Send {
    /// Array name (keys the stream file).
    fn array_name(&self) -> &str;

    /// Element type code (see [`Element::CODE`]).
    fn elem_code(&self) -> u8;

    /// Global domain.
    fn domain(&self) -> &Slice;

    /// Storage/stream order.
    fn order(&self) -> Order;

    /// Size of the distribution-independent stream in bytes.
    fn stream_bytes(&self) -> u64;

    /// Bytes of this task's local storage (mapped section, storage order).
    fn local_encoded(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.local_encoded_len()];
        self.encode_local_into(&mut out);
        out
    }

    /// Writes [`Self::local_encoded`] into `out`, which is exactly
    /// [`Self::local_encoded_len`] bytes long.
    fn encode_local_into(&self, out: &mut [u8]);

    /// Restores this task's local storage from [`Self::local_encoded`]
    /// bytes (same distribution required — this is the SPMD baseline path).
    fn restore_local(&mut self, bytes: &[u8]) -> Result<()>;

    /// Size of [`Self::local_encoded`] without materializing it.
    fn local_encoded_len(&self) -> usize;

    /// Collective: writes the array's distribution-independent stream.
    fn write_stream(&self, ctx: &mut Ctx, fs: &Piofs, path: &str, io_tasks: usize) -> Result<()>;

    /// Collective: collects this task's pieces of the array's canonical
    /// stream without touching the file system (the diskless tier path).
    fn stream_pieces(&self, ctx: &mut Ctx, io_tasks: usize) -> Result<Vec<stream::StreamPiece>>;

    /// Collective: gathers the array's whole canonical stream to rank 0,
    /// each wave straight into its stretch of one buffer (`None` on every
    /// other rank): the incremental writer's input.
    fn gather_stream(&self, ctx: &mut Ctx) -> Result<Option<Vec<u8>>>;

    /// Collective: fills the array from its canonical stream (any writer
    /// distribution), fetching each piece's byte range through `fetch`.
    /// A task whose fetch failed still runs every wave and returns its
    /// error after the last one; the error is that task's alone.
    fn read_stream_via(
        &mut self,
        ctx: &mut Ctx,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<()>;

    /// Collective: adjusts the distribution to the current region's task
    /// count and redistributes in place (`drms_adjust` + `drms_distribute`).
    fn adjust_redistribute(&mut self, ctx: &mut Ctx) -> Result<()>;

    /// Collective: re-partitions the array across the `active` subset of
    /// the region's tasks (block decomposition over the active set, empty
    /// sections elsewhere) through the live redistribution path — no
    /// storage I/O. This is the online shrink/grow operation and the
    /// membership-transition step of localized recovery.
    fn repartition(&mut self, ctx: &mut Ctx, active: &[usize]) -> Result<()>;

    /// Collective: localized section restore. Rebuilds the array under a
    /// block distribution over the `active` task subset from two sources:
    /// survivors' retained checkpoint-state local bytes (`retained`,
    /// encoded under the *current* distribution; ranks with
    /// `survivors[rank] == false` pass `None`), redistributed live; and the
    /// lost ranks' sections — the current distribution's assigned sections
    /// of every non-survivor — fetched from the array's canonical
    /// full-domain stream through `fetch` (memory-tier replicas or PIOFS).
    /// Returns the bytes fetched for the lost sections, summed over the
    /// region; a failed fetch on any task fails it on every task.
    fn restore_sections(
        &mut self,
        ctx: &mut Ctx,
        active: &[usize],
        survivors: &[bool],
        retained: Option<&[u8]>,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<u64>;
}

impl<T: Element> CheckpointArray for DistArray<T> {
    fn array_name(&self) -> &str {
        self.name()
    }

    fn elem_code(&self) -> u8 {
        T::CODE
    }

    fn domain(&self) -> &Slice {
        DistArray::domain(self)
    }

    fn order(&self) -> Order {
        DistArray::order(self)
    }

    fn stream_bytes(&self) -> u64 {
        (DistArray::domain(self).size() * T::SIZE) as u64
    }

    /// Encodes in pieces [`spread`] over the host's idle cores.
    fn encode_local_into(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.local().len() * T::SIZE, "local storage vs its slot");
        let per = (SPREAD_PIECE / T::SIZE).max(1);
        let mut pieces: Vec<(&[T], &mut [u8])> =
            self.local().chunks(per).zip(out.chunks_mut(per * T::SIZE)).collect();
        spread(
            &mut pieces,
            |(_, slot)| slot.len(),
            |_, part| {
                for (vals, slot) in part {
                    encode_into(vals, slot);
                }
            },
        );
    }

    fn restore_local(&mut self, bytes: &[u8]) -> Result<()> {
        let expect = self.local().len() * T::SIZE;
        if bytes.len() != expect {
            return Err(CoreError::ManifestMismatch(format!(
                "array {:?}: local storage is {expect} bytes but checkpoint holds {}",
                self.name(),
                bytes.len()
            )));
        }
        decode_into(bytes, self.local_mut());
        Ok(())
    }

    fn local_encoded_len(&self) -> usize {
        self.local().len() * T::SIZE
    }

    fn write_stream(&self, ctx: &mut Ctx, fs: &Piofs, path: &str, io_tasks: usize) -> Result<()> {
        stream::write_array(ctx, fs, self, path, io_tasks)?;
        Ok(())
    }

    fn stream_pieces(&self, ctx: &mut Ctx, io_tasks: usize) -> Result<Vec<stream::StreamPiece>> {
        Ok(stream::collect_array_pieces(ctx, self, io_tasks)?)
    }

    fn gather_stream(&self, ctx: &mut Ctx) -> Result<Option<Vec<u8>>> {
        Ok(stream::gather_stream(ctx, self)?)
    }

    fn read_stream_via(
        &mut self,
        ctx: &mut Ctx,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<()> {
        stream::read_via(ctx, self, None, io_tasks, fetch)?;
        Ok(())
    }

    fn adjust_redistribute(&mut self, ctx: &mut Ctx) -> Result<()> {
        let new_dist = self.dist().adjust(ctx.ntasks())?;
        let replacement = assign::redistribute(ctx, self, new_dist)?;
        self.adopt(replacement)?;
        Ok(())
    }

    fn repartition(&mut self, ctx: &mut Ctx, active: &[usize]) -> Result<()> {
        let shadow = self.dist().shadow_widths().map(|s| s[0]).unwrap_or(0);
        let new_dist =
            Distribution::block_active(DistArray::domain(self), active, ctx.ntasks(), shadow)?;
        let replacement = assign::redistribute(ctx, self, new_dist)?;
        self.adopt(replacement)?;
        Ok(())
    }

    fn restore_sections(
        &mut self,
        ctx: &mut Ctx,
        active: &[usize],
        survivors: &[bool],
        retained: Option<&[u8]>,
        io_tasks: usize,
        fetch: &mut stream::PieceFetch<'_>,
    ) -> Result<u64> {
        // The lost sections are whatever the current distribution assigned
        // to the non-surviving ranks.
        let lost: Vec<Slice> = (0..ctx.ntasks())
            .filter(|&r| !survivors[r])
            .map(|r| self.dist().assigned(r).clone())
            .collect();
        let shadow = self.dist().shadow_widths().map(|s| s[0]).unwrap_or(0);
        let new_dist =
            Distribution::block_active(DistArray::domain(self), active, ctx.ntasks(), shadow)?;
        // Donor: the survivors' retained checkpoint bytes under the old
        // distribution, masked so the lost ranks contribute nothing.
        let donor_dist = self.dist().masked(survivors)?;
        let mut donor: DistArray<T> =
            DistArray::new(self.name(), DistArray::order(self), donor_dist, self.rank());
        if survivors[ctx.rank()] {
            let bytes = retained.ok_or_else(|| {
                CoreError::ManifestMismatch(format!(
                    "array {:?}: survivor rank {} has no retained state",
                    self.name(),
                    ctx.rank()
                ))
            })?;
            let expect = donor.local().len() * T::SIZE;
            if bytes.len() != expect {
                return Err(CoreError::ManifestMismatch(format!(
                    "array {:?}: retained state is {} bytes, local storage needs {expect}",
                    self.name(),
                    bytes.len()
                )));
            }
            decode_into(bytes, donor.local_mut());
        }
        // Rebuild under the new distribution: survivor data moves through
        // the live redistribution path, lost sections stay holes...
        let mut next: DistArray<T> =
            DistArray::new(self.name(), DistArray::order(self), new_dist, self.rank());
        assign::assign(ctx, &mut next, &donor)?;
        // ...which the canonical-stream fetch then fills. Every task ran
        // every wave; one clock-free exchange sums the fetched bytes and
        // hands any task's failure to all of them.
        let fetched = stream::read_via(ctx, &mut next, Some(&lost), io_tasks, fetch);
        let (all, _) = ctx.exchange(fetched);
        let fetched = all.iter().cloned().sum::<drms_darray::Result<u64>>()?;
        self.adopt(next)?;
        Ok(fetched)
    }
}

/// Concatenates the local storage of several arrays, padded with zeros up to
/// `fixed_bytes` — the compile-time-fixed local-section reservation of the
/// paper's Fortran codes (storage does not shrink as tasks are added).
pub fn encode_locals(arrays: &[&dyn CheckpointArray], fixed_bytes: u64) -> Vec<u8> {
    let mut out = vec![0u8; locals_len(arrays, fixed_bytes)];
    encode_locals_into(arrays, &mut out);
    out
}

/// Length of [`encode_locals`]' output.
fn locals_len(arrays: &[&dyn CheckpointArray], fixed_bytes: u64) -> usize {
    let actual: usize = arrays.iter().map(|a| a.local_encoded_len()).sum();
    (fixed_bytes as usize).max(actual)
}

/// Writes each array's local storage into its slot at the front of the
/// zeroed `out`; the padding after them stays as it is.
fn encode_locals_into(arrays: &[&dyn CheckpointArray], out: &mut [u8]) {
    let mut rest = out;
    for a in arrays {
        let (slot, tail) = std::mem::take(&mut rest).split_at_mut(a.local_encoded_len());
        a.encode_local_into(slot);
        rest = tail;
    }
}

/// Encodes `base` with the local-sections region assembled from `arrays`
/// ([`encode_locals`]): the data segment every full checkpoint saves. Each
/// array encodes its local storage straight into its slot of the one
/// exact-length buffer, and the padding is the buffer's own zeros.
pub fn encode_segment_with_locals(
    base: &DataSegment,
    arrays: &[&dyn CheckpointArray],
    fixed_bytes: u64,
) -> Vec<u8> {
    let len = locals_len(arrays, fixed_bytes);
    let frame = ("local-sections", RegionKind::LocalSections, len);
    base.encode_framed(Some(frame), |slot| encode_locals_into(arrays, slot))
}

/// Restores array local storage from an [`encode_locals`] blob (same arrays,
/// same order, same distributions).
pub fn decode_locals(arrays: &mut [&mut dyn CheckpointArray], blob: &[u8]) -> Result<()> {
    let mut pos = 0usize;
    for a in arrays.iter_mut() {
        let n = a.local_encoded_len();
        if pos + n > blob.len() {
            return Err(CoreError::ManifestMismatch(format!(
                "local-sections blob too short for array {:?}",
                a.array_name()
            )));
        }
        a.restore_local(&blob[pos..pos + n])?;
        pos += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Region;
    use drms_darray::Distribution;
    use drms_msg::SPREAD_MIN;
    use proptest::prelude::*;

    fn arr(rank: usize, p: usize) -> DistArray<f64> {
        let dom = Slice::boxed(&[(0, 7), (0, 7)]);
        let dist = Distribution::block_auto(&dom, p, 1).unwrap();
        DistArray::new("u", Order::ColumnMajor, dist, rank)
    }

    #[test]
    fn local_roundtrip() {
        let mut a = arr(0, 2);
        a.fill_mapped(|p| (p[0] * 8 + p[1]) as f64);
        let bytes = CheckpointArray::local_encoded(&a);
        assert_eq!(bytes.len(), CheckpointArray::local_encoded_len(&a));
        let mut b = arr(0, 2);
        b.restore_local(&bytes).unwrap();
        assert_eq!(a.local(), b.local());
    }

    #[test]
    fn restore_rejects_size_mismatch() {
        let mut a = arr(0, 2);
        assert!(a.restore_local(&[0u8; 3]).is_err());
    }

    #[test]
    fn encode_locals_pads_to_fixed() {
        let mut a = arr(0, 2);
        a.fill_mapped(|_| 1.0);
        let actual = CheckpointArray::local_encoded_len(&a);
        let blob = encode_locals(&[&a], (actual + 100) as u64);
        assert_eq!(blob.len(), actual + 100);
        assert!(blob[actual..].iter().all(|&b| b == 0));
        // Fixed smaller than actual: keeps actual.
        let blob = encode_locals(&[&a], 1);
        assert_eq!(blob.len(), actual);
    }

    #[test]
    fn decode_locals_restores_multiple_arrays() {
        let mut a = arr(0, 1);
        let mut b = arr(0, 1);
        a.fill_mapped(|p| p[0] as f64);
        b.fill_mapped(|p| p[1] as f64 * 3.0);
        let blob = encode_locals(&[&a, &b], 0);

        let mut a2 = arr(0, 1);
        let mut b2 = arr(0, 1);
        decode_locals(&mut [&mut a2, &mut b2], &blob).unwrap();
        assert_eq!(a2.local(), a.local());
        assert_eq!(b2.local(), b.local());

        // Truncated blob fails.
        assert!(decode_locals(&mut [&mut a2, &mut b2], &blob[..10]).is_err());
    }

    #[test]
    fn trait_metadata() {
        let a = arr(1, 2);
        let h: &dyn CheckpointArray = &a;
        assert_eq!(h.array_name(), "u");
        assert_eq!(h.elem_code(), 1);
        assert_eq!(h.stream_bytes(), 64 * 8);
        assert_eq!(h.order(), Order::ColumnMajor);
    }

    /// `len` bytes of a xorshift stream `seed` picks: every offset of a
    /// region tells where it came from, so a misplaced copy shows.
    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let step = |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        (0..len).map(step).collect()
    }

    /// A body length: as drawn, one byte either side of `SPREAD_MIN`, or
    /// a few bytes.
    fn body_len(drawn: usize, how: usize) -> usize {
        match how {
            0 | 1 => drawn,
            2 => SPREAD_MIN - 1 + drawn % 3,
            _ => drawn % 64,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The spread encoders and decoder are the Writer-based encoder they
        /// replaced and the `blob`-based decoder, byte for byte: over 0–4
        /// regions of up to 3 MiB, bodies either side of `SPREAD_MIN`, an
        /// array's local storage either side of it too, any padding, and no
        /// extra region, a new one or one replacing a region of the base.
        #[test]
        fn the_spread_codec_is_the_reference_codec(
            bodies in proptest::collection::vec((0usize..3 << 20, 0usize..4), 0..5),
            extra in 0usize..3,
            side in 1i64..400,
            pad in 0u64..1 << 20,
            seed in 0u64..1 << 32,
        ) {
            let mut base = DataSegment::new();
            base.set_control("iter", seed as i64);
            base.set_replicated("dt", pattern(8, seed));
            let kinds = [RegionKind::SystemBuffers, RegionKind::PrivateData, RegionKind::LocalSections];
            for (i, &(drawn, how)) in bodies.iter().enumerate() {
                // With `extra == 2` the last region is the one the
                // local-sections region replaces.
                let replaced = extra == 2 && i + 1 == bodies.len();
                let name = if replaced { "local-sections".to_string() } else { format!("r{i}") };
                base.set_region(&name, kinds[i % 3], pattern(body_len(drawn, how), seed + i as u64));
            }

            let dom = Slice::boxed(&[(0, side - 1), (0, side - 1)]);
            let dist = Distribution::block_auto(&dom, 1, 1).unwrap();
            let mut a: DistArray<f64> = DistArray::new("u", Order::ColumnMajor, dist, 0);
            a.fill_mapped(|p| (p[0] * 1000 + p[1]) as f64 + seed as f64);
            let arrays: [&dyn CheckpointArray; 1] = [&a];
            // The old `encode_locals`: the storage encoded whole, then
            // zero-padded to the fixed reservation.
            let actual = a.local().len() * 8;
            let fixed = actual as u64 + pad;
            let mut old_locals = vec![0u8; actual];
            encode_into(a.local(), &mut old_locals);
            old_locals.resize(fixed as usize, 0);
            prop_assert_eq!(&encode_locals(&arrays, fixed), &old_locals);

            let encoded = if extra == 0 {
                let encoded = base.encode_with_region(None);
                prop_assert_eq!(&encoded, &base.encode_with_region_reference(None));
                encoded
            } else {
                let local = Region {
                    name: "local-sections".to_string(),
                    kind: RegionKind::LocalSections,
                    bytes: old_locals,
                };
                let reference = base.encode_with_region_reference(Some(&local));
                prop_assert_eq!(&base.encode_with_region(Some(&local)), &reference);
                let encoded = encode_segment_with_locals(&base, &arrays, fixed);
                prop_assert_eq!(&encoded, &reference);
                encoded
            };

            let decoded = DataSegment::decode(&encoded);
            prop_assert!(decoded.is_ok());
            prop_assert_eq!(&decoded, &DataSegment::decode_serial(&encoded));
            let cut = &encoded[..(seed as usize) % encoded.len()];
            prop_assert_eq!(DataSegment::decode(cut), DataSegment::decode_serial(cut));
        }
    }
}
