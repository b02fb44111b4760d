//! Serial and parallel array-section streaming (paper, Section 3.2 and
//! Figure 5b).
//!
//! `write_section` produces the *distribution-independent* stream of an
//! array section: the section is partitioned into `m = 2^k` stream-contiguous
//! pieces of roughly 1 MB (at least one per I/O task), each wave of pieces is
//! redistributed to a *canonical* distribution (piece `j0 + p` lands wholly
//! in task `p`'s address space), and all I/O tasks then write their local
//! buffers at the piece's known stream offset, in parallel. `read_section`
//! runs the mirror image. With `io_tasks == 1` the operations degrade to the
//! serial streaming of reference \[12\] — a pure append stream that needs no seek
//! capability; with `io_tasks == P` they exploit the full parallelism of the
//! file system.
//!
//! Because the stream depends only on (section, element type, order) — never
//! on the distribution — a section written from 16 tasks reads back
//! correctly into 5, which is the property reconfigurable checkpointing is
//! built on.

use std::sync::Arc;

use drms_msg::Ctx;
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, ReadAccess, ReadReq, WriteReq};
use drms_slices::partition::{choose_piece_count, partition, stream_offsets};
use drms_slices::{Order, Slice};

use crate::array::{pack_runs, unpack_runs};
use crate::assign::{exchange, Local};
use crate::{DarrayError, DistArray, Distribution, Element, Result};

/// Target bytes per streamed piece (the paper chooses ~1 MB as the balance
/// between parallelism/buffer pressure and per-piece overhead).
pub const TARGET_PIECE_BYTES: usize = 1 << 20;

/// Collective: streams `section` of `array` into the file `path`.
///
/// `io_tasks` is the paper's `P`: how many tasks perform actual I/O
/// (1 = serial streaming; `ctx.ntasks()` = fully parallel). All tasks of the
/// region must call, regardless of `io_tasks` — they all hold pieces of the
/// section and must participate in the redistribution.
pub fn write_section<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &DistArray<T>,
    section: &Slice,
    path: &str,
    io_tasks: usize,
) -> Result<()> {
    write_section_with(ctx, fs, array, section, path, io_tasks, TARGET_PIECE_BYTES)
}

/// As [`write_section`], with an explicit per-piece byte target — exposed
/// for the piece-size ablation study (the paper reasons about this choice:
/// larger pieces mean less overhead, smaller pieces mean more parallelism
/// and less intermediate buffer pressure).
pub fn write_section_with<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &DistArray<T>,
    section: &Slice,
    path: &str,
    io_tasks: usize,
    target_piece_bytes: usize,
) -> Result<()> {
    let plan = Plan::new(
        ctx,
        array.domain(),
        section,
        io_tasks,
        T::SIZE,
        array.order(),
        target_piece_bytes,
    )?;
    if ctx.rank() == 0 {
        // Truncate: a stream fully defines the file, and its length is known.
        fs.create(path, (section.size() * T::SIZE) as u64);
    }
    ctx.barrier();

    let traced = ctx.recorder().enabled();
    for wave in 0..plan.waves() {
        if traced {
            ctx.recorder().span_start(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
        let data = gather(ctx, plan.canonical(wave, array.domain())?, array)?;

        let mut reqs = Vec::new();
        let my_piece = plan.piece_for(wave, ctx.rank());
        if let Some(j) = my_piece {
            if plan.pieces[j].size() > 0 {
                reqs.push(WriteReq {
                    path: path.to_string(),
                    offset: (plan.offsets[j] * T::SIZE) as u64,
                    data,
                });
            }
        }
        if traced {
            let bytes: usize = reqs.iter().map(|r| r.data.len()).sum();
            let rec = ctx.recorder();
            rec.counter_add_at(
                ctx.now(),
                ctx.rank(),
                names::PIECES_WRITTEN,
                Some(array.name()),
                reqs.len() as u64,
            );
            rec.counter_add_at(
                ctx.now(),
                ctx.rank(),
                names::BYTES_STREAMED,
                Some(array.name()),
                bytes as u64,
            );
        }
        fs.collective_write(ctx, reqs);
        if traced {
            ctx.recorder().span_end(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
    }
    Ok(())
}

/// Collective: fills `section` of `array` from the stream in `path`
/// (written by [`write_section`], possibly under a different distribution
/// and task count).
pub fn read_section<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &mut DistArray<T>,
    section: &Slice,
    path: &str,
    io_tasks: usize,
) -> Result<()> {
    // The stream bytes are piece-size independent, so a stream written
    // with any per-piece target reads back with the default one.
    let plan = Plan::new(
        ctx,
        array.domain(),
        section,
        io_tasks,
        T::SIZE,
        array.order(),
        TARGET_PIECE_BYTES,
    )?;
    let need = (section.size() * T::SIZE) as u64;
    let have = fs.size(path).map_err(|e| DarrayError::Io(e.to_string()))?;
    if have < need {
        return Err(DarrayError::Io(format!(
            "stream {path} holds {have} bytes but section needs {need}"
        )));
    }
    let access = if plan.io_tasks == 1 { ReadAccess::Sequential } else { ReadAccess::Strided };

    let traced = ctx.recorder().enabled();
    // This task's piece bytes, copied once out of the read's loan into one
    // buffer every wave of the array reuses.
    let mut bytes = Vec::new();
    for wave in 0..plan.waves() {
        if traced {
            ctx.recorder().span_start(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
        let mut reqs = Vec::new();
        let my_piece = plan.piece_for(wave, ctx.rank());
        if let Some(j) = my_piece {
            if plan.pieces[j].size() > 0 {
                reqs.push(ReadReq {
                    path: path.to_string(),
                    offset: (plan.offsets[j] * T::SIZE) as u64,
                    len: (plan.pieces[j].size() * T::SIZE) as u64,
                    access,
                });
            }
        }
        if traced {
            let bytes: u64 = reqs.iter().map(|r| r.len).sum();
            ctx.recorder().counter_add_at(
                ctx.now(),
                ctx.rank(),
                names::BYTES_STREAMED,
                Some(array.name()),
                bytes,
            );
        }
        bytes.clear();
        fs.collective_read_with(ctx, reqs, |_, lent| bytes.extend_from_slice(lent))
            .map_err(|e| DarrayError::Io(e.to_string()))?;
        bytes = scatter(ctx, plan.canonical(wave, array.domain())?, array, bytes)?;
    }
    Ok(())
}

/// One locally produced piece of a canonical stream: the piece's index in
/// the stream partition, its byte offset within the stream, and its encoded
/// bytes. This is what [`collect_section_pieces`] hands to callers that keep
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

/// Assembles a task's stream pieces into contiguous stream bytes: sorted
/// by offset and concatenated. When one task holds every piece of a stream
/// (serial gathering, `io_tasks == 1`) the result is bitwise identical to
/// the file [`write_section`] would have produced.
pub fn assemble_pieces(mut pieces: Vec<StreamPiece>) -> Vec<u8> {
    pieces.sort_by_key(|p| p.offset);
    let total: usize = pieces.iter().map(|p| p.data.len()).sum();
    let mut out = Vec::with_capacity(total);
    for p in &pieces {
        out.extend_from_slice(&p.data);
    }
    out
}

/// Byte-range fetch callback for [`read_section_via`]: called as
/// `fetch(ctx, offset, len)` and must return exactly `len` bytes of the
/// stream starting at byte `offset`, pricing its own data movement against
/// the calling task's clock. The callback is invoked **collectively**:
/// every rank of the region calls it exactly once per wave, with `len == 0`
/// on ranks that hold no piece that wave (they must return an empty
/// buffer). That lets fetchers built on collective file-system phases line
/// their participants up, which keeps simulated pricing deterministic.
pub type PieceFetch<'a> =
    dyn FnMut(&mut Ctx, u64, u64) -> std::result::Result<Vec<u8>, String> + 'a;

/// Collective: runs the same redistribution waves as [`write_section`] but
/// returns this task's canonical stream pieces instead of writing them to a
/// file. The concatenation of all tasks' pieces (by offset) is bitwise
/// identical to the file [`write_section`] would have produced.
///
/// All tasks of the region must call — they all hold parts of the section
/// and must participate in every wave's redistribution — but only the first
/// `io_tasks` ranks receive pieces.
pub fn collect_section_pieces<T: Element>(
    ctx: &mut Ctx,
    array: &DistArray<T>,
    section: &Slice,
    io_tasks: usize,
) -> Result<Vec<StreamPiece>> {
    let plan = Plan::new(
        ctx,
        array.domain(),
        section,
        io_tasks,
        T::SIZE,
        array.order(),
        TARGET_PIECE_BYTES,
    )?;
    let traced = ctx.recorder().enabled();
    let mut out = Vec::new();
    for wave in 0..plan.waves() {
        if traced {
            ctx.recorder().span_start(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
        let data = gather(ctx, plan.canonical(wave, array.domain())?, array)?;

        if let Some(j) = plan.piece_for(wave, ctx.rank()) {
            if plan.pieces[j].size() > 0 {
                if traced {
                    let rec = ctx.recorder();
                    rec.counter_add_at(
                        ctx.now(),
                        ctx.rank(),
                        names::PIECES_WRITTEN,
                        Some(array.name()),
                        1,
                    );
                    rec.counter_add_at(
                        ctx.now(),
                        ctx.rank(),
                        names::BYTES_STREAMED,
                        Some(array.name()),
                        data.len() as u64,
                    );
                }
                out.push(StreamPiece {
                    index: j,
                    offset: (plan.offsets[j] * T::SIZE) as u64,
                    data,
                });
            }
        }
        if traced {
            ctx.recorder().span_end(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
    }
    Ok(out)
}

/// Collective: fills `section` of `array` from its canonical stream,
/// fetching each piece's byte range through `fetch` instead of the file
/// system. The reader's piece plan need not match the writer's: `fetch` is
/// given arbitrary `(offset, len)` ranges of the stream and may assemble
/// them from whatever storage granularity it kept.
pub fn read_section_via<T: Element>(
    ctx: &mut Ctx,
    array: &mut DistArray<T>,
    section: &Slice,
    io_tasks: usize,
    fetch: &mut PieceFetch<'_>,
) -> Result<()> {
    let plan = Plan::new(
        ctx,
        array.domain(),
        section,
        io_tasks,
        T::SIZE,
        array.order(),
        TARGET_PIECE_BYTES,
    )?;
    let traced = ctx.recorder().enabled();
    for wave in 0..plan.waves() {
        if traced {
            ctx.recorder().span_start(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
        let (offset, len) = match plan.piece_for(wave, ctx.rank()) {
            Some(j) if plan.pieces[j].size() > 0 => {
                ((plan.offsets[j] * T::SIZE) as u64, (plan.pieces[j].size() * T::SIZE) as u64)
            }
            _ => (0, 0),
        };
        // Every rank fetches every wave (see [`PieceFetch`]) so collective
        // fetchers stay aligned; idle ranks ask for zero bytes.
        let bytes = fetch(ctx, offset, len).map_err(DarrayError::Io)?;
        if bytes.len() as u64 != len {
            return Err(DarrayError::Io(format!(
                "stream fetch at {offset} returned {} bytes, wanted {len}",
                bytes.len()
            )));
        }
        if len > 0 && traced {
            ctx.recorder().counter_add_at(
                ctx.now(),
                ctx.rank(),
                names::BYTES_STREAMED,
                Some(array.name()),
                len,
            );
        }
        scatter(ctx, plan.canonical(wave, array.domain())?, array, bytes)?;
        if traced {
            ctx.recorder().span_end(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
    }
    Ok(())
}

/// Collective: collects the entire array's canonical stream pieces (the
/// diskless checkpoint path).
pub fn collect_array_pieces<T: Element>(
    ctx: &mut Ctx,
    array: &DistArray<T>,
    io_tasks: usize,
) -> Result<Vec<StreamPiece>> {
    let section = array.domain().clone();
    collect_section_pieces(ctx, array, &section, io_tasks)
}

/// Collective: fills the entire array from its canonical stream through a
/// byte-range fetch callback.
pub fn read_array_via<T: Element>(
    ctx: &mut Ctx,
    array: &mut DistArray<T>,
    io_tasks: usize,
    fetch: &mut PieceFetch<'_>,
) -> Result<()> {
    let section = array.domain().clone();
    read_section_via(ctx, array, &section, io_tasks, fetch)
}

/// Collective: fills only the parts of `array` that overlap one of the
/// `needed` sections from the array's *full-domain* canonical stream,
/// leaving everything else untouched. Fetch offsets are full-stream byte
/// offsets — exactly the layout of a checkpoint's `array-{name}` file or
/// its memory-tier replica — so a localized recovery can pull just the
/// lost ranks' section ranges out of an existing whole-array stream.
///
/// The piece plan is the same as [`read_array_via`]'s; a piece is fetched
/// iff its slice intersects some needed section, and the per-wave
/// redistribution is masked to the fetched pieces so unfetched pieces
/// never clobber live data. A fetched piece may extend past the needed
/// sections (pieces are stream-contiguous, sections are not); the extra
/// elements are overwritten with bytes from the same stream, which is
/// harmless by construction — everything restored is checkpoint state.
///
/// Every rank calls `fetch` once per wave (`len == 0` when it has nothing
/// to fetch), preserving the collective-fetcher convention of
/// [`PieceFetch`]. Returns the total bytes fetched.
pub fn read_overlapping_via<T: Element>(
    ctx: &mut Ctx,
    array: &mut DistArray<T>,
    needed: &[Slice],
    io_tasks: usize,
    fetch: &mut PieceFetch<'_>,
) -> Result<u64> {
    let domain = array.domain().clone();
    let plan =
        Plan::new(ctx, &domain, &domain, io_tasks, T::SIZE, array.order(), TARGET_PIECE_BYTES)?;
    let wanted: Vec<bool> = plan
        .pieces
        .iter()
        .map(|piece| {
            needed.iter().any(|n| {
                !n.is_empty() && piece.intersect(n).map(|s| !s.is_empty()).unwrap_or(false)
            })
        })
        .collect();
    let traced = ctx.recorder().enabled();
    let mut fetched_total = 0u64;
    for wave in 0..plan.waves() {
        if traced {
            ctx.recorder().span_start(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
        // Mask the canonical wave distribution to the wanted pieces, so the
        // exchange moves only fetched data into the array.
        let keep: Vec<bool> = (0..ctx.ntasks())
            .map(|r| plan.piece_for(wave, r).map(|j| wanted[j]).unwrap_or(false))
            .collect();
        let masked = plan.canonical(wave, &domain)?.masked(&keep)?;

        let (offset, len) = match plan.piece_for(wave, ctx.rank()) {
            Some(j) if wanted[j] && plan.pieces[j].size() > 0 => {
                ((plan.offsets[j] * T::SIZE) as u64, (plan.pieces[j].size() * T::SIZE) as u64)
            }
            _ => (0, 0),
        };
        let bytes = fetch(ctx, offset, len).map_err(DarrayError::Io)?;
        if bytes.len() as u64 != len {
            return Err(DarrayError::Io(format!(
                "stream fetch at {offset} returned {} bytes, wanted {len}",
                bytes.len()
            )));
        }
        if len > 0 {
            fetched_total += len;
            if traced {
                ctx.recorder().counter_add_at(
                    ctx.now(),
                    ctx.rank(),
                    names::BYTES_STREAMED,
                    Some(array.name()),
                    len,
                );
            }
        }
        scatter(ctx, masked, array, bytes)?;
        if traced {
            ctx.recorder().span_end(ctx.now(), ctx.rank(), Phase::StreamWave, array.name());
        }
    }
    // Every rank fetched the same piece set, but only the fetching rank
    // counted its bytes; make the return value the collective total.
    let (per_rank, _) = ctx.exchange(fetched_total);
    Ok(per_rank.iter().sum())
}

/// Collective: streams the entire array (the checkpoint path).
pub fn write_array<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &DistArray<T>,
    path: &str,
    io_tasks: usize,
) -> Result<()> {
    let section = array.domain().clone();
    write_section(ctx, fs, array, &section, path, io_tasks)
}

/// Collective: fills the entire array from its stream file.
pub fn read_array<T: Element>(
    ctx: &mut Ctx,
    fs: &Piofs,
    array: &mut DistArray<T>,
    path: &str,
    io_tasks: usize,
) -> Result<()> {
    let section = array.domain().clone();
    read_section(ctx, fs, array, &section, path, io_tasks)
}

/// Collective: the write half of a wave — every task's elements of the
/// wave's pieces move, through the one [`exchange`], into this task's
/// canonical piece, which is returned as its stream bytes (empty on a task
/// holding no piece this wave).
fn gather<T: Element>(
    ctx: &mut Ctx,
    canonical: Arc<Distribution>,
    array: &DistArray<T>,
) -> Result<Vec<u8>> {
    let len = canonical.mapped(ctx.rank()).size() * T::SIZE;
    let (rank, order) = (ctx.rank(), array.order());
    let mut piece = Piece { dist: canonical, rank, order, elem: T::SIZE, bytes: vec![0; len] };
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
struct Piece {
    dist: Arc<Distribution>,
    rank: usize,
    order: Order,
    elem: usize,
    bytes: Vec<u8>,
}

impl Local for Piece {
    fn dist(&self) -> &Arc<Distribution> {
        &self.dist
    }

    fn pack_region(&self, region: &Slice) -> Result<Vec<u8>> {
        let elem = self.elem;
        pack_runs(self.dist.mapped(self.rank), region, self.order, elem, |run, out| {
            out.copy_from_slice(&self.bytes[run.start * elem..run.end * elem])
        })
    }

    fn unpack_region(&mut self, region: &Slice, bytes: &[u8]) -> Result<()> {
        let elem = self.elem;
        let stored = &mut self.bytes;
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
        section: &Slice,
        io_tasks: usize,
        elem_size: usize,
        order: drms_slices::Order,
        target_piece_bytes: usize,
    ) -> Result<Plan> {
        if !section.is_subset_of(domain) {
            return Err(DarrayError::DomainMismatch {
                left: section.clone(),
                right: domain.clone(),
            });
        }
        let io_tasks = io_tasks.clamp(1, ctx.ntasks());
        let bytes = section.size() * elem_size;
        let m = choose_piece_count(bytes, io_tasks, target_piece_bytes);
        // The stream linearization is the array's storage order (the paper
        // supports both FORTRAN column-major and C row-major streams), so
        // the partition splits along that order's slowest axis and each
        // piece's local buffer is already stream-contiguous.
        let pieces = partition(section, m, order)?;
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
    fn canonical(&self, wave: usize, domain: &Slice) -> Result<std::sync::Arc<Distribution>> {
        let lo = wave * self.io_tasks;
        let hi = (lo + self.io_tasks).min(self.pieces.len());
        Distribution::pieces(domain, self.ntasks, &self.pieces[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_msg::{run_spmd, CostModel};
    use drms_piofs::PiofsConfig;
    use drms_slices::Order;
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
    fn section_streaming_subset() {
        let dom = Slice::boxed(&[(0, 9), (0, 9)]);
        let section = Slice::boxed(&[(2, 5), (3, 8)]);
        let fs = fs();
        run_spmd(2, CostModel::default(), |ctx| {
            let dist = Distribution::block(&dom, &[2, 1], &[0, 0]).unwrap();
            let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist.clone(), ctx.rank());
            a.fill_assigned(value);
            write_section(ctx, &fs, &a, &section, "sec", 2).unwrap();

            let mut b = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            read_section(ctx, &fs, &mut b, &section, "sec", 2).unwrap();
            // Elements inside the section restored; outside untouched.
            b.mapped().clone().points(Order::ColumnMajor).for_each(|p| {
                let expect = if section.contains(p).unwrap() { value(p) } else { 0.0 };
                // Only assigned values were written by fill_assigned, and the
                // section restore only defines in-section elements.
                if section.contains(p).unwrap() {
                    assert_eq!(b.get(p).unwrap(), expect, "point {p:?}");
                }
            });
        })
        .unwrap();
        assert_eq!(fs.size("sec").unwrap(), (section.size() * 8) as u64);
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
            let mut fetch = |_ctx: &mut Ctx, off: u64, len: u64| {
                let (off, len) = (off as usize, len as usize);
                if off + len > bytes.len() {
                    return Err(format!("range {off}+{len} past {}", bytes.len()));
                }
                Ok(bytes[off..off + len].to_vec())
            };
            read_array_via(ctx, &mut b, 3, &mut fetch).unwrap();
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
