//! Serial and parallel array streaming (paper, Section 3.2 and Figure 5b).
//!
//! An array's *distribution-independent* stream is produced in waves: the
//! domain is partitioned into `m = 2^k` stream-contiguous pieces of roughly
//! 1 MB (at least one per I/O task), each wave of pieces is redistributed to
//! a *canonical* distribution (piece `j0 + p` lands wholly in task `p`'s
//! address space), and every task then hands its piece to the wave's sink:
//! a PIOFS collective write at the piece's known stream offset
//! ([`write_array`]), a [`StreamPiece`] kept in memory
//! ([`collect_array_pieces`]), or its stretch of one stream buffer on rank 0
//! ([`gather_stream`]). Reading runs the mirror image, one
//! [`PieceFetch`] per wave ([`read_via`]); [`read_array`] fetches from a
//! PIOFS file. With `io_tasks == 1` the operations degrade to the serial
//! streaming of reference \[12\] — a pure append stream that needs no seek
//! capability; with `io_tasks == P` they exploit the full parallelism of the
//! file system.
//!
//! Because the stream depends only on (domain, element type, order) — never
//! on the distribution — an array written from 16 tasks reads back
//! correctly into 5, which is the property reconfigurable checkpointing is
//! built on.

use std::sync::Arc;

use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, PiofsError, ReadAccess, ReadReq, WriteReq};
use drms_slices::partition::{choose_piece_count, partition, stream_offsets};
use drms_slices::{Order, Slice};

use crate::array::{pack_runs, unpack_runs};
use crate::assign::{exchange, Local};
use crate::{DarrayError, DistArray, Distribution, Element, Result};

/// Target bytes per streamed piece (the paper chooses ~1 MB as the balance
/// between parallelism/buffer pressure and per-piece overhead).
pub const TARGET_PIECE_BYTES: usize = 1 << 20;

/// One locally produced piece of a canonical stream: the piece's index in
/// the stream partition, its byte offset within the stream, and its encoded
/// bytes. This is what [`collect_array_pieces`] hands to callers that keep
/// the stream somewhere other than a PIOFS file (the in-memory checkpoint
/// tier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPiece {
    /// Index of the piece within the stream partition.
    pub index: usize,
    /// Byte offset of the piece within the stream.
    pub offset: u64,
    /// The piece's encoded bytes, in stream order.
    pub data: Vec<u8>,
}

/// Collective: streams `array` into the file `path` (the checkpoint path).
///
/// `io_tasks` is the paper's `P`: how many tasks perform actual I/O
/// (1 = serial streaming; `ctx.ntasks()` = fully parallel). All tasks of the
/// region must call, regardless of `io_tasks` — they all hold pieces of the
/// array and must participate in the redistribution.
pub fn write_array<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &DistArray<T>,
    path: &str,
    io_tasks: usize,
) -> Result<()> {
    write_array_with(ctx, fs, array, path, io_tasks, TARGET_PIECE_BYTES)
}

/// As [`write_array`], with an explicit per-piece byte target — exposed
/// for the piece-size ablation study (the paper reasons about this choice:
/// larger pieces mean less overhead, smaller pieces mean more parallelism
/// and less intermediate buffer pressure). The stream bytes do not depend
/// on the target, so [`read_array`] reads them back with the default one.
pub fn write_array_with<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &DistArray<T>,
    path: &str,
    io_tasks: usize,
    target_piece_bytes: usize,
) -> Result<()> {
    if ctx.rank() == 0 {
        // Truncate: a stream fully defines the file, and its length is known.
        fs.create(path, stream_len(array));
    }
    ctx.barrier();
    write_waves(ctx, array, io_tasks, target_piece_bytes, fresh, |ctx, piece| {
        let reqs = piece.map(|(_, offset, data)| WriteReq { path: path.to_string(), offset, data });
        fs.collective_write(ctx, reqs.into_iter().collect());
    })
}

/// Collective: runs the waves of [`write_array`] but returns this task's
/// canonical stream pieces instead of writing them to a file (the diskless
/// checkpoint path). The concatenation of all tasks' pieces (by offset) is
/// bitwise identical to the file [`write_array`] would have produced.
///
/// All tasks of the region must call — they all hold parts of the array
/// and must participate in every wave's redistribution — but only the first
/// `io_tasks` ranks receive pieces.
pub fn collect_array_pieces<T: Element>(
    ctx: &mut Ctx,
    array: &DistArray<T>,
    io_tasks: usize,
) -> Result<Vec<StreamPiece>> {
    let mut out = Vec::new();
    write_waves(ctx, array, io_tasks, TARGET_PIECE_BYTES, fresh, |_, piece| {
        out.extend(piece.map(|(index, offset, data)| StreamPiece { index, offset, data }))
    })?;
    Ok(out)
}

/// Collective: gathers `array`'s whole canonical stream to rank 0 through
/// the waves of one I/O task, each wave unpacked straight into its stretch
/// of one stream buffer. Returns the stream on rank 0 and `None` on every
/// other rank; the bytes are those [`write_array`] would write.
///
/// All tasks of the region must call: they all hold parts of the array.
pub fn gather_stream<T: Element>(ctx: &mut Ctx, array: &DistArray<T>) -> Result<Option<Vec<u8>>> {
    let root = ctx.rank() == 0;
    let mut stream = vec![0u8; if root { stream_len(array) as usize } else { 0 }];
    let mut rest = stream.as_mut_slice();
    // With one I/O task, rank 0 holds piece `w` in wave `w` and no other
    // rank holds any, and the pieces tile the stream in order: each wave's
    // piece is the front of what the waves before it left.
    let next = |len| {
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        piece
    };
    write_waves(ctx, array, 1, TARGET_PIECE_BYTES, next, |_, _| {})?;
    Ok(root.then_some(stream))
}

/// A fresh zeroed buffer of `len` bytes: the slot of a piece its wave's
/// sink takes away.
fn fresh(len: usize) -> Vec<u8> {
    vec![0; len]
}

/// Collective: the one write-wave loop. Each wave gathers its pieces into
/// the canonical distribution, unpacking this task's piece into the buffer
/// `slot` hands out for the piece's byte length (zero on a task holding no
/// piece that wave), and hands `sink` the piece as `(index, stream offset,
/// bytes)` — `None` on a task holding no non-empty piece that wave. Every
/// task calls `slot` and `sink` once per wave, so a sink built on a
/// collective file-system phase lines its participants up.
fn write_waves<T: Element, B: AsRef<[u8]> + AsMut<[u8]>>(
    ctx: &mut Ctx,
    array: &DistArray<T>,
    io_tasks: usize,
    target_piece_bytes: usize,
    mut slot: impl FnMut(usize) -> B,
    mut sink: impl FnMut(&mut Ctx, Option<(usize, u64, B)>),
) -> Result<()> {
    let plan =
        Plan::new(ctx, array.domain(), io_tasks, T::SIZE, array.order(), target_piece_bytes)?;
    let traced = ctx.recorder().enabled();
    for wave in 0..plan.waves() {
        if traced {
            ctx.recorder().span_start(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
        let data = gather(ctx, plan.canonical(wave, array.domain())?, array, &mut slot)?;
        let piece = plan
            .piece_for(wave, ctx.rank())
            .filter(|&j| plan.pieces[j].size() > 0)
            .map(|j| (j, (plan.offsets[j] * T::SIZE) as u64, data));
        if let Some((_, _, data)) = piece.as_ref().filter(|_| traced) {
            let rec = ctx.recorder();
            let (t, rank, name) = (ctx.now(), ctx.rank(), Some(array.name()));
            rec.counter_add_at(t, rank, names::PIECES_WRITTEN, name, 1);
            rec.counter_add_at(t, rank, names::BYTES_STREAMED, name, data.as_ref().len() as u64);
        }
        sink(ctx, piece);
        if traced {
            ctx.recorder().span_end(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
    }
    Ok(())
}

/// What one wave asks of a [`PieceFetch`]: bytes `[offset, offset + len)`
/// of the canonical stream, and how a file system would see the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRange {
    /// Byte offset within the stream.
    pub offset: u64,
    /// Bytes wanted; zero on a task with nothing to read this wave.
    pub len: u64,
    /// `Sequential` exactly when one I/O task reads the whole stream front
    /// to back, else `Strided`.
    pub access: ReadAccess,
}

/// Byte-range fetch callback of [`read_via`]: called as
/// `fetch(ctx, range, buf)` with `buf` empty, and must leave exactly
/// `range.len` bytes of the stream starting at `range.offset` in `buf` —
/// copied in, or `buf` replaced by a buffer the fetch already owns —
/// pricing its own data movement against the calling task's clock. The
/// read driver reuses `buf` across waves. The callback is invoked
/// **collectively**: every rank of the region calls it exactly once per
/// wave, with `len == 0` on ranks that hold no piece that wave (they must
/// leave `buf` empty). That lets fetchers built on collective file-system
/// phases line their participants up, which keeps simulated pricing
/// deterministic.
pub type PieceFetch<'a> =
    dyn FnMut(&mut Ctx, StreamRange, &mut Vec<u8>) -> std::result::Result<(), String> + 'a;

/// Collective: fills `array` from its stream file `path` (written by
/// [`write_array`], possibly under a different distribution and task
/// count). Every task checks the file's size before the first wave, so a
/// short stream fails on all of them.
pub fn read_array<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &mut DistArray<T>,
    path: &str,
    io_tasks: usize,
) -> Result<()> {
    let need = stream_len(array);
    let have = fs.size(path).map_err(|e| DarrayError::Io(e.to_string()))?;
    if have < need {
        return Err(DarrayError::Io(format!("stream {path} holds {have} bytes but needs {need}")));
    }
    let mut fetch = |ctx: &mut Ctx, range, buf: &mut Vec<u8>| {
        read_range(ctx, fs, path, range, buf).map_err(|e| e.to_string())
    };
    read_via(ctx, array, None, io_tasks, &mut fetch)?;
    Ok(())
}

/// The [`PieceFetch`] of a stream kept in the PIOFS file `path`: one
/// collective read of `range`, copied once out of the read's handle into
/// `buf`. A task with nothing to read joins the phase with no request.
pub fn read_range(
    ctx: &mut Ctx,
    fs: &Piofs,
    path: &str,
    range: StreamRange,
    buf: &mut Vec<u8>,
) -> std::result::Result<(), PiofsError> {
    let StreamRange { offset, len, access } = range;
    let reqs = (len > 0).then(|| ReadReq { path: path.to_string(), offset, len, access });
    for bytes in fs.collective_read(ctx, reqs.into_iter().collect())? {
        buf.extend_from_slice(&bytes);
    }
    Ok(())
}

/// Collective: the one read-wave loop. Fills `array` from its canonical
/// full-domain stream, fetching each wave's pieces through `fetch` — which
/// need not share the writer's piece plan: it is given arbitrary
/// `(offset, len)` ranges and may assemble them from whatever storage
/// granularity it kept.
///
/// With `needed`, only the pieces that overlap one of those sections are
/// fetched, and each wave's redistribution is masked to them, so
/// everything else in `array` is left untouched; this is how a localized
/// recovery pulls just the lost ranks' sections out of a whole-array
/// stream. A fetched piece may extend past the needed sections (pieces are
/// stream-contiguous, sections are not); the extra elements are
/// overwritten with bytes from the same stream, which is harmless by
/// construction — everything restored is checkpoint state.
///
/// Returns the bytes this task fetched. A failed fetch does not end the
/// read: the task runs the remaining waves with zeros in place of its
/// piece, so its siblings are never left waiting in a wave's
/// redistribution, and returns its first error after the last wave. The
/// error is this task's alone; callers that must fail together vote on it.
pub fn read_via<T: Element>(
    ctx: &mut Ctx,
    array: &mut DistArray<T>,
    needed: Option<&[Slice]>,
    io_tasks: usize,
    fetch: &mut PieceFetch<'_>,
) -> Result<u64> {
    let domain = array.domain().clone();
    let plan = Plan::new(ctx, &domain, io_tasks, T::SIZE, array.order(), TARGET_PIECE_BYTES)?;
    let wanted: Vec<bool> = plan
        .pieces
        .iter()
        .map(|piece| {
            needed.is_none_or(|needed| {
                needed
                    .iter()
                    .any(|n| !n.is_empty() && piece.intersect(n).is_ok_and(|s| !s.is_empty()))
            })
        })
        .collect();
    let access = match (plan.io_tasks, needed) {
        (1, None) => ReadAccess::Sequential,
        _ => ReadAccess::Strided,
    };
    let traced = ctx.recorder().enabled();
    let (mut buf, mut fetched, mut failed) = (Vec::new(), 0u64, None);
    for wave in 0..plan.waves() {
        if traced {
            ctx.recorder().span_start(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
        let mut canonical = plan.canonical(wave, &domain)?;
        if needed.is_some() {
            let keep: Vec<bool> = (0..ctx.ntasks())
                .map(|r| plan.piece_for(wave, r).is_some_and(|j| wanted[j]))
                .collect();
            canonical = canonical.masked(&keep)?;
        }
        let (offset, len) = match plan.piece_for(wave, ctx.rank()) {
            Some(j) if wanted[j] && plan.pieces[j].size() > 0 => {
                ((plan.offsets[j] * T::SIZE) as u64, (plan.pieces[j].size() * T::SIZE) as u64)
            }
            _ => (0, 0),
        };
        buf.clear();
        let mut got = fetch(ctx, StreamRange { offset, len, access }, &mut buf);
        if got.is_ok() && buf.len() as u64 != len {
            got =
                Err(format!("stream fetch at {offset} returned {} bytes, wanted {len}", buf.len()));
        }
        if let Err(why) = got {
            failed.get_or_insert(DarrayError::Io(why));
            buf.clear();
            buf.resize(len as usize, 0);
        }
        if len > 0 && traced {
            let (t, rank) = (ctx.now(), ctx.rank());
            ctx.recorder().counter_add_at(t, rank, names::BYTES_STREAMED, Some(array.name()), len);
        }
        fetched += len;
        buf = scatter(ctx, canonical, array, buf)?;
        if traced {
            ctx.recorder().span_end(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
    }
    failed.map_or(Ok(fetched), Err)
}

/// Bytes of `array`'s stream.
fn stream_len<T: Element>(array: &DistArray<T>) -> u64 {
    (array.domain().size() * T::SIZE) as u64
}

/// Collective: the write half of a wave — every task's elements of the
/// wave's pieces move, through the one [`exchange`], into this task's
/// canonical piece, held in the buffer `slot` hands out for its byte length
/// and returned as its stream bytes (empty on a task holding no piece this
/// wave).
fn gather<T: Element, B: AsRef<[u8]> + AsMut<[u8]>>(
    ctx: &mut Ctx,
    canonical: Arc<Distribution>,
    array: &DistArray<T>,
    slot: impl FnOnce(usize) -> B,
) -> Result<B> {
    let bytes = slot(canonical.mapped(ctx.rank()).size() * T::SIZE);
    let (rank, order) = (ctx.rank(), array.order());
    let mut piece = Piece { dist: canonical, rank, order, elem: T::SIZE, bytes };
    exchange(ctx, array.name(), Some(array), &mut piece)?;
    Ok(piece.bytes)
}

/// Collective: the read half of a wave — this task's canonical piece,
/// given as its stream `bytes`, moves through the one [`exchange`] into
/// every task's mapped section of `array`. Hands `bytes` back for reuse.
fn scatter<T: Element>(
    ctx: &mut Ctx,
    canonical: Arc<Distribution>,
    array: &mut DistArray<T>,
    bytes: Vec<u8>,
) -> Result<Vec<u8>> {
    let expected = canonical.mapped(ctx.rank()).size() * T::SIZE;
    if bytes.len() != expected {
        return Err(DarrayError::PayloadLength { expected, got: bytes.len() });
    }
    let piece =
        Piece { dist: canonical, rank: ctx.rank(), order: array.order(), elem: T::SIZE, bytes };
    let name = array.name().to_string();
    exchange(ctx, &name, Some(&piece), array)?;
    Ok(piece.bytes)
}

/// A canonical piece held as its stream bytes. The piece is a
/// stream-contiguous slice and the canonical distribution maps it wholly to
/// one task, so the dense storage of that task's mapped section, in the
/// array's order, *is* the piece's stretch of the stream: packing and
/// unpacking it copies byte runs, with no typed copy in between.
struct Piece<B> {
    dist: Arc<Distribution>,
    rank: usize,
    order: Order,
    elem: usize,
    bytes: B,
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> Local for Piece<B> {
    fn dist(&self) -> &Arc<Distribution> {
        &self.dist
    }

    fn pack_region(&self, region: &Slice) -> Result<Vec<u8>> {
        let elem = self.elem;
        pack_runs(self.dist.mapped(self.rank), region, self.order, elem, |run, out| {
            out.copy_from_slice(&self.bytes.as_ref()[run.start * elem..run.end * elem])
        })
    }

    fn unpack_region(&mut self, region: &Slice, bytes: &[u8]) -> Result<()> {
        let elem = self.elem;
        let stored = self.bytes.as_mut();
        unpack_runs(self.dist.mapped(self.rank), region, self.order, elem, bytes, |run, b| {
            stored[run.start * elem..run.end * elem].copy_from_slice(b)
        })
    }
}

/// The streaming plan shared by write and read: pieces, offsets, waves.
struct Plan {
    pieces: Vec<Slice>,
    offsets: Vec<usize>,
    io_tasks: usize,
    ntasks: usize,
}

impl Plan {
    fn new(
        ctx: &Ctx,
        domain: &Slice,
        io_tasks: usize,
        elem_size: usize,
        order: Order,
        target_piece_bytes: usize,
    ) -> Result<Plan> {
        let io_tasks = io_tasks.clamp(1, ctx.ntasks());
        let bytes = domain.size() * elem_size;
        let m = choose_piece_count(bytes, io_tasks, target_piece_bytes);
        // The stream linearization is the array's storage order (the paper
        // supports both FORTRAN column-major and C row-major streams), so
        // the partition splits along that order's slowest axis and each
        // piece's local buffer is already stream-contiguous.
        let pieces = partition(domain, m, order)?;
        let offsets = stream_offsets(&pieces);
        Ok(Plan { pieces, offsets, io_tasks, ntasks: ctx.ntasks() })
    }

    fn waves(&self) -> usize {
        self.pieces.len().div_ceil(self.io_tasks)
    }

    /// The piece index task `rank` handles in `wave`, if any.
    fn piece_for(&self, wave: usize, rank: usize) -> Option<usize> {
        if rank >= self.io_tasks {
            return None;
        }
        let j = wave * self.io_tasks + rank;
        (j < self.pieces.len()).then_some(j)
    }

    /// Canonical distribution of this wave's pieces onto tasks.
    fn canonical(&self, wave: usize, domain: &Slice) -> Result<Arc<Distribution>> {
        let lo = wave * self.io_tasks;
        let hi = (lo + self.io_tasks).min(self.pieces.len());
        Distribution::pieces(domain, self.ntasks, &self.pieces[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_msg::{run_spmd, run_spmd_traced, CostModel};
    use drms_obs::{EventKind, TraceRecorder};
    use drms_piofs::PiofsConfig;
    use std::sync::Arc as StdArc;

    fn fs() -> StdArc<Piofs> {
        Piofs::new(PiofsConfig::test_tiny(4), 7)
    }

    fn value(p: &[i64]) -> f64 {
        p.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum::<f64>() * 0.5 + 1.0
    }

    #[test]
    fn write_read_roundtrip_same_distribution() {
        let fs = fs();
        let dom = Slice::boxed(&[(0, 15), (0, 7)]);
        run_spmd(4, CostModel::default(), |ctx| {
            let dist = Distribution::block(&dom, &[2, 2], &[1, 1]).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist.clone(), ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "ck/u", 4).unwrap();

            let mut b = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            read_array(ctx, &fs, &mut b, "ck/u", 4).unwrap();
            b.fold_assigned((), |_, p, v| assert_eq!(v, value(p), "point {p:?}"));
        })
        .unwrap();
        // File holds exactly the dense section.
        assert_eq!(fs.size("ck/u").unwrap(), (16 * 8 * 8) as u64);
    }

    #[test]
    fn stream_is_distribution_independent() {
        // Write under a 4-task block-block distribution, then byte-compare
        // with a serial write from a 1-task run: identical streams.
        let dom = Slice::boxed(&[(1, 12), (1, 10)]);
        let fs1 = fs();
        run_spmd(4, CostModel::default(), |ctx| {
            let dist = Distribution::block(&dom, &[4, 1], &[2, 0]).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs1, &a, "s", 4).unwrap();
        })
        .unwrap();

        let fs2 = fs();
        run_spmd(1, CostModel::default(), |ctx| {
            let dist = Distribution::block(&dom, &[1, 1], &[0, 0]).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs2, &a, "s", 1).unwrap();
        })
        .unwrap();

        assert_eq!(fs1.peek("s").unwrap(), fs2.peek("s").unwrap());
    }

    #[test]
    fn reconfigured_read_different_task_count() {
        let dom = Slice::boxed(&[(0, 19), (0, 11)]);
        let fs = fs();
        run_spmd(4, CostModel::default(), |ctx| {
            let dist = Distribution::block_auto(&dom, 4, 1).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "r", 4).unwrap();
        })
        .unwrap();

        // Restart with 3 tasks, different grid, different shadows.
        run_spmd(3, CostModel::default(), |ctx| {
            let dist = Distribution::block_auto(&dom, 3, 2).unwrap();
            let mut b = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            read_array(ctx, &fs, &mut b, "r", 3).unwrap();
            // Every mapped element (shadows included) restored.
            let mut checked = 0;
            b.mapped().clone().points(Order::ColumnMajor).for_each(|p| {
                assert_eq!(b.get(p).unwrap(), value(p), "point {p:?}");
                checked += 1;
            });
            assert!(checked > 0);
        })
        .unwrap();
    }

    #[test]
    fn serial_streaming_matches_parallel() {
        let dom = Slice::boxed(&[(0, 30)]);
        let fs = fs();
        run_spmd(4, CostModel::default(), |ctx| {
            let dist = Distribution::block(&dom, &[4], &[0]).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "par", 4).unwrap();
            write_array(ctx, &fs, &a, "ser", 1).unwrap();
        })
        .unwrap();
        assert_eq!(fs.peek("par").unwrap(), fs.peek("ser").unwrap());
    }

    #[test]
    fn read_missing_or_short_file_errors() {
        let dom = Slice::boxed(&[(0, 9)]);
        let fs = fs();
        run_spmd(1, CostModel::free(), |ctx| {
            let dist = Distribution::block(&dom, &[1], &[0]).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            assert!(matches!(read_array(ctx, &fs, &mut a, "nope", 1), Err(DarrayError::Io(_))));
            fs.write_at(ctx, "short", 0, &[0u8; 8]);
            assert!(matches!(read_array(ctx, &fs, &mut a, "short", 1), Err(DarrayError::Io(_))));
        })
        .unwrap();

        // On 4 tasks a stream one piece short (four 640-byte pieces, the
        // last cut off) is caught by every task's size check before the
        // first wave, so it fails everywhere, not just on the task whose
        // piece runs past the end.
        let dom = Slice::boxed(&[(0, 39), (0, 7)]);
        let results = run_spmd(4, CostModel::free(), |ctx| {
            let dist = Distribution::block_auto(&dom, 4, 1).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "whole", 4).unwrap();
            if ctx.rank() == 0 {
                let whole = fs.peek("whole").unwrap();
                fs.write_at(ctx, "cut", 0, &whole[..whole.len() * 3 / 4]);
            }
            ctx.barrier();
            read_array(ctx, &fs, &mut a, "cut", 4)
        })
        .unwrap();
        assert!(results.iter().all(|r| matches!(r, Err(DarrayError::Io(_)))), "{results:?}");
    }

    // Recorded from the dedicated file-stream reader that `read_array` used
    // before it shared the read loop, on the inputs of `read_footprint`.
    const GOLDEN_1_CLOCK: f64 = 0.0018429759999999999;
    const GOLDEN_1_BUSY: [(usize, f64); 4] =
        [(0, 0.000963776), (1, 0.000963776), (2, 0.000963776), (3, 0.000963776)];
    const GOLDEN_4_CLOCKS: [f64; 4] =
        [0.00867472857142857, 0.00868887142857143, 0.00868887142857143, 0.00867472857142857];
    const GOLDEN_4_BUSY: [(usize, f64); 4] = [
        (0, 0.0005464045714285714),
        (1, 0.0005464045714285714),
        (2, 0.0005464045714285714),
        (3, 0.0005464045714285714),
    ];

    /// Every rank's clock and every server's `piofs.server_busy` gauge
    /// after `read_array` of a 64 x 64 stream on `ntasks` tasks.
    fn read_footprint(ntasks: usize) -> (Vec<f64>, Vec<(usize, f64)>) {
        let dom = Slice::boxed(&[(0, 63), (0, 63)]);
        // Strided reads are priced slower than sequential ones, so the
        // access mode shows in the clocks and the busy times.
        let cfg = PiofsConfig { client_strided_read_bw: 1e6, ..PiofsConfig::test_tiny(4) };
        let fs = Piofs::new(cfg, 7);
        run_spmd(ntasks, CostModel::default(), |ctx| {
            let dist = Distribution::block_auto(&dom, ctx.ntasks(), 1).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "g", ctx.ntasks()).unwrap();
        })
        .unwrap();
        let rec = StdArc::new(TraceRecorder::new());
        let clocks = run_spmd_traced(ntasks, CostModel::default(), rec.clone(), |ctx| {
            let dist = Distribution::block_auto(&dom, ctx.ntasks(), 1).unwrap();
            let mut b = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            read_array(ctx, &fs, &mut b, "g", ctx.ntasks()).unwrap();
            ctx.now()
        })
        .unwrap();
        let busy = rec
            .metrics()
            .gauges()
            .into_iter()
            .filter(|((name, _), _)| *name == names::SERVER_BUSY)
            .map(|((_, server), v)| (server, v))
            .collect();
        (clocks, busy)
    }

    #[test]
    fn read_access_is_sequential_on_one_io_task_only() {
        // One I/O task reads its stream `Sequential`, four read theirs
        // `Strided`: both leave the clocks and server busy times the
        // dedicated file-stream reader left.
        let (clocks, busy) = read_footprint(1);
        assert_eq!(clocks, vec![GOLDEN_1_CLOCK]);
        assert_eq!(busy, GOLDEN_1_BUSY.to_vec());
        let (clocks, busy) = read_footprint(4);
        assert_eq!(clocks, GOLDEN_4_CLOCKS.to_vec());
        assert_eq!(busy, GOLDEN_4_BUSY.to_vec());
    }

    #[test]
    fn every_stream_wave_span_closes() {
        let dom = Slice::boxed(&[(0, 19), (0, 11)]);
        let fs = fs();
        let rec = StdArc::new(TraceRecorder::new());
        run_spmd_traced(4, CostModel::default(), rec.clone(), |ctx| {
            let dist = Distribution::block_auto(&dom, 4, 1).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "w", 4).unwrap();
            read_array(ctx, &fs, &mut a, "w", 4).unwrap();
        })
        .unwrap();
        let waves = rec.events().into_iter().filter(|e| e.phase == Phase::StreamWave);
        let (mut begins, mut ends) = (0, 0);
        for e in waves {
            match e.kind {
                EventKind::Begin => begins += 1,
                EventKind::End => ends += 1,
                EventKind::Instant => {}
            }
        }
        assert!(begins > 0);
        assert_eq!(begins, ends, "every StreamWave span a read or write opens must close");
    }

    #[test]
    fn collected_pieces_match_file_stream_bitwise() {
        // The diskless capture must produce the same bytes the file path
        // writes — that is what makes spilled checkpoints bitwise identical.
        let dom = Slice::boxed(&[(0, 19), (0, 11)]);
        let fs = fs();
        let pieces = std::sync::Mutex::new(Vec::new());
        run_spmd(4, CostModel::default(), |ctx| {
            let dist = Distribution::block_auto(&dom, 4, 1).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "file", 4).unwrap();
            let mine = collect_array_pieces(ctx, &a, 4).unwrap();
            pieces.lock().unwrap().extend(mine);
        })
        .unwrap();

        let file = fs.peek("file").unwrap();
        let mut all = pieces.into_inner().unwrap();
        all.sort_by_key(|p| p.offset);
        let stream: Vec<u8> = all.iter().flat_map(|p| p.data.iter().copied()).collect();
        assert_eq!(all.iter().map(|p| p.offset as usize).collect::<Vec<_>>(), {
            let mut off = 0;
            all.iter()
                .map(|p| {
                    let o = off;
                    off += p.data.len();
                    o
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(stream, file);
    }

    /// Gathering the stream into one buffer on rank 0 moves, prices,
    /// spans and counts every wave as collecting the pieces of one I/O
    /// task does, and yields their concatenation: here over two waves.
    #[test]
    fn a_gathered_stream_is_the_collected_pieces_of_one_io_task() {
        let dom = Slice::boxed(&[(0, 299), (0, 511)]);
        let run = |gathered: bool| {
            let rec = StdArc::new(TraceRecorder::new());
            let out = run_spmd_traced(3, CostModel::default(), rec.clone(), |ctx| {
                let dist = Distribution::block_auto(&dom, 3, 1).unwrap();
                let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
                a.fill_assigned(value);
                let stream = if gathered {
                    gather_stream(ctx, &a).unwrap()
                } else {
                    let pieces = collect_array_pieces(ctx, &a, 1).unwrap();
                    (ctx.rank() == 0).then(|| pieces.into_iter().flat_map(|p| p.data).collect())
                };
                (ctx.now(), stream)
            })
            .unwrap();
            let sorted = |mut v: Vec<String>| {
                v.sort();
                v
            };
            let events = sorted(rec.events().iter().map(|e| format!("{e:?}")).collect());
            let counters =
                sorted(rec.metrics().counters().iter().map(|c| format!("{c:?}")).collect());
            (out, events, counters)
        };
        let (gathered, collected) = (run(true), run(false));
        let waves = gathered.1.iter().filter(|e| e.contains("StreamWave")).count();
        assert_eq!(waves, 2 * 2 * 3, "two waves, each span opened and closed on three ranks");
        assert_eq!(gathered.0[0].1.as_ref().map(Vec::len), Some(300 * 512 * 8));
        assert_eq!(gathered, collected);
    }

    #[test]
    fn read_via_fetch_restores_under_different_task_count() {
        // Write the stream from 4 tasks into a plain byte buffer, then read
        // it back on 3 tasks through a fetch callback slicing that buffer.
        let dom = Slice::boxed(&[(0, 19), (0, 11)]);
        let fs = fs();
        run_spmd(4, CostModel::default(), |ctx| {
            let dist = Distribution::block_auto(&dom, 4, 1).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            write_array(ctx, &fs, &a, "buf", 4).unwrap();
        })
        .unwrap();
        let stream = StdArc::new(fs.peek("buf").unwrap());

        run_spmd(3, CostModel::default(), |ctx| {
            let dist = Distribution::block_auto(&dom, 3, 2).unwrap();
            let mut b = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            let bytes = stream.clone();
            let mut fetch = |_ctx: &mut Ctx, range: StreamRange, buf: &mut Vec<u8>| {
                let (off, len) = (range.offset as usize, range.len as usize);
                if off + len > bytes.len() {
                    return Err(format!("range {off}+{len} past {}", bytes.len()));
                }
                buf.extend_from_slice(&bytes[off..off + len]);
                Ok(())
            };
            read_via(ctx, &mut b, None, 3, &mut fetch).unwrap();
            let mut checked = 0;
            b.mapped().clone().points(Order::ColumnMajor).for_each(|p| {
                assert_eq!(b.get(p).unwrap(), value(p), "point {p:?}");
                checked += 1;
            });
            assert!(checked > 0);
        })
        .unwrap();
    }

    #[test]
    fn io_tasks_clamped() {
        let dom = Slice::boxed(&[(0, 9)]);
        let fs = fs();
        run_spmd(2, CostModel::default(), |ctx| {
            let dist = Distribution::block(&dom, &[2], &[0]).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            a.fill_assigned(value);
            // Requesting more I/O tasks than exist is fine.
            write_array(ctx, &fs, &a, "c", 64).unwrap();
        })
        .unwrap();
        assert_eq!(fs.size("c").unwrap(), 80);
    }
}
