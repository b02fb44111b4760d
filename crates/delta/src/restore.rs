//! Restart from a committed delta chain: bitwise materialization of each
//! array's canonical stream out of the chunk graph.

use std::collections::hash_map::Entry;

use drms_core::chaos::{RestartPoints, RESTART_DELTA};
use drms_core::manifest::{ArrayDelta, CkptKind, Manifest};
use drms_core::restore::{self, PiofsFull, RestartSource};
use drms_core::{
    phase_span, CheckpointArray, CoreError, Drms, DrmsConfig, EnableFlag, Result, Start,
};
use drms_darray::stream::StreamRange;
use drms_msg::Ctx;
use drms_obs::{markers, names, Phase};
use drms_piofs::{Piofs, ReadAccess, ReadReq, Stored};

/// A committed delta chain on PIOFS as a restart source: manifest and
/// segment are read exactly like a full checkpoint's (the wrapped
/// [`PiofsFull`]); array bytes are assembled chunk by chunk out of the
/// pack files the manifest's chunk tables name.
#[derive(Clone, Copy)]
pub struct DeltaSource<'a>(pub PiofsFull<'a>);

fn chunk_table<'m>(manifest: &'m Manifest, array: &str) -> Result<&'m ArrayDelta> {
    manifest.delta(array).ok_or_else(|| {
        CoreError::ManifestMismatch(format!(
            "delta checkpoint has no chunk table for array {array:?}"
        ))
    })
}

impl RestartSource for DeltaSource<'_> {
    const KIND: CkptKind = CkptKind::DrmsDelta;

    fn prefix(&self) -> &str {
        self.0.prefix
    }

    fn consults(&self) -> Option<(&'static RestartPoints, &Piofs)> {
        Some((&RESTART_DELTA, self.0.fs))
    }

    fn manifest(&self, ctx: &mut Ctx) -> Result<Manifest> {
        self.0.manifest(ctx)
    }

    fn segment(&self, ctx: &mut Ctx) -> Result<Stored> {
        self.0.segment(ctx)
    }

    /// The range-limited materialization localized recovery uses as its
    /// PIOFS fallback for incremental checkpoints: only the chunks covering
    /// the asked range are read and verified, never the whole chain.
    fn fetch_range(
        &self,
        ctx: &mut Ctx,
        manifest: &Manifest,
        array: &str,
        range: StreamRange,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        fetch_stream_range(ctx, self.0, chunk_table(manifest, array)?, range, out)
    }

    fn read_array(
        &self,
        ctx: &mut Ctx,
        manifest: &Manifest,
        a: &mut dyn CheckpointArray,
        io_tasks: usize,
    ) -> Result<()> {
        let d = chunk_table(manifest, a.array_name())?;
        if d.stream_len != a.stream_bytes() {
            return Err(CoreError::ManifestMismatch(format!(
                "array {:?}: stream is {} bytes in checkpoint, {} in program",
                a.array_name(),
                d.stream_len,
                a.stream_bytes()
            )));
        }
        let mut fetch = |ctx: &mut Ctx, range, out: &mut Vec<u8>| {
            fetch_stream_range(ctx, self.0, d, range, out).map_err(|e| e.to_string())
        };
        a.read_stream_via(ctx, io_tasks, &mut fetch)
    }

    fn arrays_restored(&self, ctx: &Ctx, t0: f64, t1: f64, array_bytes: u64) {
        phase_span(ctx, Phase::Arrays, markers::RESTORE_ARRAYS_DELTA, t0, t1);
        if ctx.rank() == 0 && ctx.recorder().enabled() {
            ctx.recorder().counter_add_at(t1, 0, names::ARRAY_BYTES, None, array_bytes);
        }
    }
}

/// `drms_initialize` for a delta chain: reads the committed v4 manifest at
/// `prefix`, verifies and loads the shared data segment, and returns the
/// run-time handle plus the restart info — exactly like
/// [`Drms::initialize`], which refuses delta manifests and points here.
/// Restoring the arrays themselves is [`restore_arrays_delta`].
pub fn resume(
    ctx: &mut Ctx,
    fs: &Piofs,
    cfg: DrmsConfig,
    enable: EnableFlag,
    prefix: &str,
) -> Result<(Drms, Start)> {
    let (drms, info) = restore::open(ctx, fs, cfg, enable, &DeltaSource(PiofsFull { fs, prefix }))?;
    Ok((drms, Start::Restarted(Box::new(info))))
}

/// Loads every array from a committed delta chain, after the application
/// has (re-)created them under the current distributions (any task count —
/// the chunked stream is the same distribution-independent representation
/// full checkpoints use, so restore is reconfigurable). Each fetched range
/// is assembled chunk by chunk: the covering pack reads run as collective
/// phases (priced deterministically across the region), each chunk is
/// decompressed, and its content hash is verified before a single byte
/// reaches the array. Returns the array-phase time. The `Drms` handle is
/// not consulted (every task streams); the parameter keeps the signature
/// of the other restore entry points.
pub fn restore_arrays_delta(
    _drms: &Drms,
    ctx: &mut Ctx,
    fs: &Piofs,
    prefix: &str,
    manifest: &Manifest,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<f64> {
    restore::restore_arrays(ctx, &DeltaSource(PiofsFull { fs, prefix }), manifest, arrays)
}

/// Assembles `[off, off + len)` of an array's canonical stream from its
/// chunk table. All covering chunks are read in **one collective phase**
/// ([`Piofs::collective_read`]): the fetch callback is invoked on every
/// rank of every wave (see [`drms_darray::stream::PieceFetch`]), so the
/// phase's pricing orders the whole region's requests deterministically —
/// per-rank independent reads would price in thread arrival order and make
/// restore times nondeterministic. Each chunk is then decoded and
/// hash-verified before a byte reaches `out` (handed over empty).
fn fetch_stream_range(
    ctx: &mut Ctx,
    PiofsFull { fs, prefix }: PiofsFull<'_>,
    d: &ArrayDelta,
    StreamRange { offset: off, len, .. }: StreamRange,
    out: &mut Vec<u8>,
) -> Result<()> {
    let params = d.params();
    let first = params.index_of(off);
    let reqs = if off + len > d.stream_len {
        Err(CoreError::Integrity(format!(
            "array {:?}: fetch {off}+{len} past stream length {}",
            d.name, d.stream_len
        )))
    } else {
        let end = if len == 0 { first } else { params.index_of(off + len - 1) + 1 };
        (first..end)
            .map(|i| {
                let c = d.chunks.get(i).ok_or_else(|| {
                    CoreError::Integrity(format!(
                        "array {:?}: chunk table is missing chunk {i}",
                        d.name
                    ))
                })?;
                Ok(ReadReq {
                    path: c.pack_path(prefix, &d.name),
                    offset: c.offset,
                    len: c.stored_len as u64,
                    access: ReadAccess::Strided,
                })
            })
            .collect::<Result<Vec<_>>>()
    };
    // Idle ranks, and a range the table cannot serve, join the phase with
    // an empty request list, so no sibling is left waiting in it.
    let (reqs, refused) = match reqs {
        Ok(reqs) => (reqs, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    let got = fs.collective_read(ctx, reqs)?;
    if let Some(e) = refused {
        return Err(e);
    }
    let stored: Vec<&[u8]> = got.iter().map(|bytes| &**bytes).collect();
    assemble(d, first, &stored, off, len, out)
}

/// Decodes and checks chunks `first..` of `d`, whose stored bytes are
/// `stored`, and leaves bytes `[off, off + len)` of the stream they cover in
/// `out` (handed over empty).
/// A chunk inside the range decodes straight into the output; only the
/// first and the last can stick out of it, and they decode into scratch.
/// Each chunk is hashed as it lands, on the calling thread
/// ([`drms_darray::chunks::StoredChunk::decode_into`]): restore already
/// runs a task per core. A failure names the lowest chunk
/// that fails.
fn assemble(
    d: &ArrayDelta,
    first: usize,
    stored: &[&[u8]],
    off: u64,
    len: u64,
    out: &mut Vec<u8>,
) -> Result<()> {
    let params = d.params();
    out.reserve(len as usize);
    let mut scratch = Vec::new();
    for (j, &bytes) in stored.iter().enumerate() {
        let i = first + j;
        let chunk = d.chunks[i].with_stored(bytes);
        let (s, e) = params.range(d.stream_len, i);
        let checked = if off <= s && e <= off + len {
            chunk.decode_into(out)
        } else {
            scratch.clear();
            chunk.decode_into(&mut scratch).map(|()| {
                let lo = (off.max(s) - s) as usize;
                let hi = ((off + len).min(s + chunk.len as u64) - s) as usize;
                out.extend_from_slice(&scratch[lo..hi]);
            })
        };
        checked.map_err(|why| {
            CoreError::Integrity(format!("chunk {i} of array {:?} {}", d.name, why.why()))
        })?;
    }
    if out.len() as u64 != len {
        return Err(CoreError::Integrity(format!(
            "array {:?}: assembled {} bytes for a {len}-byte fetch",
            d.name,
            out.len()
        )));
    }
    Ok(())
}

/// Materializes an array's full canonical stream out of a committed delta
/// chain, bitwise. Control-plane operation (unpriced `peek`s, no clock) —
/// this is the tooling/verification path; restarts go through
/// [`restore_arrays_delta`], which prices its reads.
pub fn materialize_stream(
    fs: &Piofs,
    prefix: &str,
    manifest: &Manifest,
    array: &str,
) -> Result<Vec<u8>> {
    let d = chunk_table(manifest, array)?;
    let mut packs: std::collections::HashMap<String, Vec<u8>> = Default::default();
    for c in &d.chunks {
        if let Entry::Vacant(e) = packs.entry(c.pack_path(prefix, &d.name)) {
            let bytes = fs.peek(e.key()).ok_or_else(|| {
                CoreError::Integrity(format!("pack {} of array {array:?} is unreadable", e.key()))
            })?;
            e.insert(bytes);
        }
    }
    let stored = d
        .chunks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let path = c.pack_path(prefix, &d.name);
            c.stored(&packs[&path]).ok_or_else(|| {
                CoreError::Integrity(format!(
                    "chunk {i} of array {array:?} is out of bounds in pack {path}"
                ))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let mut out = Vec::new();
    assemble(d, 0, &stored, 0, d.stream_len, &mut out)?;
    Ok(out)
}
