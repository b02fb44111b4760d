//! Per-layer probes: one layer's public functions, alone, on the shapes
//! the workload just ran (its domain, distribution, task count, piece and
//! chunk sizes). They run only in a traced run, after the measured loop.
//!
//! Each number is the median of [`REPS`] calls, or of fewer when a single
//! call takes long (a class-A restart is a second); the count rides along.
//! Rates are logical bytes per second, counting each byte once.

use std::sync::Arc;
use std::time::Instant;

use drms_apps::AppVariant;
use drms_blackbox::{Blackbox, BlackboxConfig};
use drms_core::commit::{compute_integrity_staged, publish_data, publish_manifest};
use drms_core::manifest::{ArrayEntry, CkptKind, Manifest};
use drms_core::segment::{DataSegment, Region, RegionKind};
use drms_core::{find_checkpoints, integrity_chunk, spmd, wire, Drms, EnableFlag, Start};
use drms_darray::chunks::{self, ChunkParams};
use drms_darray::stream::{self, TARGET_PIECE_BYTES};
use drms_darray::{assign, DistArray, Distribution, Element};
use drms_delta::materialize_stream;
use drms_insight::Analysis;
use drms_memtier::{array_file, restore_arrays_from_tier, resume_from_tier};
use drms_msg::{run_spmd, run_spmd_traced, CostModel, Ctx};
use drms_obs::{names, NullRecorder, Phase, Recorder, TraceRecorder};
use drms_piofs::{Piofs, ReadAccess, ReadReq, WriteReq};
use drms_pulse::{Pulse, PulseConfig};
use drms_resil::verify_checkpoint;
use drms_slices::partition::{choose_piece_count, partition};
use drms_slices::Order;

use crate::host;
use crate::run::Sampled;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{
    base_segment, handles_mut, new_fs, noise, splitmix, tiered, Artifacts, Outcome, Plan, Shape,
    Workload,
};

const REPS: usize = 9;
/// Calls that take a large fraction of a second get this many.
const SLOW_REPS: usize = 3;
/// Byte-serial kernels are probed on at most this much of the stream.
const KERNEL_BYTES: usize = 4 << 20;
/// `write_at`/`read_at`/`peek` are probed on at most this much segment.
const SEGMENT_PROBE_BYTES: usize = 16 << 20;

type Found = Vec<(&'static str, Sampled)>;

/// Median seconds per call: `reps` samples of `batch` back-to-back calls.
fn per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

/// Collective: seconds of each of `reps` calls of `f`, barrier to barrier;
/// `input` builds what the call consumes, outside the timed part. Every
/// rank times; callers read rank 0's.
fn collective<A>(
    ctx: &mut Ctx,
    reps: usize,
    mut input: impl FnMut() -> A,
    mut f: impl FnMut(&mut Ctx, A),
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let a = input();
            ctx.barrier();
            let t = Instant::now();
            f(ctx, a);
            ctx.barrier();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Remembers the first error among a run of probe calls.
fn keep<T, E: ToString>(fail: &mut Option<String>, result: Result<T, E>) {
    if let Err(e) = result {
        fail.get_or_insert_with(|| e.to_string());
    }
}

fn rate(bytes: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / 1e6 / secs
    } else {
        0.0
    }
}

fn mbps(bytes: usize, samples: &[f64]) -> Sampled {
    (rate(bytes, median(samples)), samples.len())
}

fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut s = seed;
    while out.len() < len {
        s = splitmix(s);
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The workload's primary field on `ctx`'s region, filled.
fn primary(shape: &Shape, ctx: &Ctx, seed: u64) -> DistArray<f64> {
    let f = &shape.spec.fields[0];
    let dist = shape.spec.dist(f, ctx.ntasks());
    let mut u = DistArray::<f64>::new(&f.name, Order::ColumnMajor, dist, ctx.rank());
    u.fill_mapped(|p| noise(seed, 0, p));
    u
}

fn primary_bytes(shape: &Shape) -> usize {
    shape.spec.domain(shape.spec.fields[0].components).size() * f64::SIZE
}

pub fn run(
    w: Workload,
    shape: &Shape,
    plan: &Plan,
    out: &Outcome,
    tracer: &Tracer,
    errors: &mut Vec<String>,
) -> Found {
    let mut found = Found::new();
    let mut group = |name: &'static str, probe: &mut dyn FnMut() -> Result<Found, String>| {
        let span = tracer.begin(name);
        match probe() {
            Ok(f) => found.extend(f),
            Err(e) => errors.push(format!("{name}: {e}")),
        }
        tracer.end(span);
    };
    group("probe.host", &mut || Ok(vec![("host.memcpy_mbps", (host::memcpy_mbps(), REPS))]));
    group("probe.slices", &mut || slices(shape));
    group("probe.msg", &mut || msg(shape));
    let fs = new_fs(shape.spec.class, plan.seed);
    group("probe.darray", &mut || darray_and_piofs(shape, plan.seed, &fs));
    group("probe.chunks", &mut || kernels(&fs));
    group("probe.core", &mut || core_commit(shape, &fs));
    group("probe.observers", &mut || observers(shape, plan.seed));
    if let Some(art) = &out.artifacts {
        group("probe.replay", &mut || replay(w, shape, art));
    }
    if w == Workload::TieredSpW {
        group("probe.obs_overhead", &mut || observer_overhead(shape, plan, out));
    }
    found
}

/// `slices`: planning cost of one array stream — the partition into
/// pieces, and the intersections one redistribution computes.
fn slices(shape: &Shape) -> Result<Found, String> {
    let f = &shape.spec.fields[0];
    let domain = shape.spec.domain(f.components);
    let p = shape.writer_tasks;
    let m = choose_piece_count(primary_bytes(shape), p, TARGET_PIECE_BYTES);
    let part = per_call(REPS, 20, || {
        std::hint::black_box(partition(&domain, m, Order::ColumnMajor).expect("power of two"));
    });
    let dist = shape.spec.dist(f, p);
    let pieces = partition(&domain, m, Order::ColumnMajor).map_err(|e| e.to_string())?;
    let pairs = p * pieces.len();
    let isect = per_call(REPS, 5, || {
        for t in 0..p {
            for piece in &pieces {
                std::hint::black_box(dist.assigned(t).intersect(piece).expect("same rank"));
            }
        }
    });
    Ok(vec![
        ("slices.partition_us", (part * 1e6, REPS)),
        ("slices.intersect_ns", (isect / pairs as f64 * 1e9, REPS)),
    ])
}

/// `msg`: the collectives the checkpoint path is built from, at the
/// workload's task count and with its primary field as the payload.
fn msg(shape: &Shape) -> Result<Found, String> {
    let p = shape.writer_tasks;
    let field = primary_bytes(shape);
    let spawn: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            run_spmd(p, CostModel::default(), |ctx| ctx.barrier()).expect("barrier-only body");
            t.elapsed().as_secs_f64()
        })
        .collect();

    const BARRIERS: usize = 200;
    const MIB: usize = 1 << 20;
    let ranks = run_spmd(p, CostModel::default(), |ctx| {
        let barrier =
            collective(ctx, REPS, || (), |ctx, ()| (0..BARRIERS).for_each(|_| ctx.barrier()));
        let pair = (field / (p * p)).max(8);
        let alltoallv = collective(
            ctx,
            REPS,
            || vec![vec![0x11u8; pair]; p],
            |ctx, out| drop(std::hint::black_box(ctx.alltoallv(out))),
        );
        let (next, prev) = ((ctx.rank() + 1) % p, (ctx.rank() + p - 1) % p);
        let sendrecv = collective(
            ctx,
            REPS,
            || vec![0x22u8; MIB],
            |ctx, payload| {
                ctx.send(next, 7, payload);
                std::hint::black_box(ctx.recv(prev, 7));
            },
        );
        let share = (field / p).max(8);
        let allgather = collective(
            ctx,
            REPS,
            || vec![0x33u8; share],
            |ctx, mine| drop(std::hint::black_box(ctx.allgather_bytes(mine))),
        );
        (barrier, alltoallv, sendrecv, allgather, pair, share)
    })
    .map_err(|e| e.to_string())?;
    let (barrier, alltoallv, sendrecv, allgather, pair, share) = &ranks[0];
    Ok(vec![
        ("msg.spawn_join_ms", (median(&spawn) * 1e3, REPS)),
        ("msg.barrier_us", (median(barrier) / BARRIERS as f64 * 1e6, REPS)),
        ("msg.alltoallv_mbps", mbps(pair * p * p, alltoallv)),
        ("msg.sendrecv_mbps", mbps(MIB * p, sendrecv)),
        ("msg.allgather_mbps", mbps(share * p, allgather)),
    ])
}

const STREAM: &str = "probe/array-u";
const SEGMENT: &str = "probe/segment";

/// `darray` and `piofs`: the primary field redistributed, streamed out and
/// back in, then the same bytes through the file system's own calls with
/// the request sizes the stream used. Leaves the stream in [`STREAM`].
fn darray_and_piofs(shape: &Shape, seed: u64, fs: &Piofs) -> Result<Found, String> {
    let p = shape.writer_tasks;
    let field = primary_bytes(shape);
    let domain = shape.spec.domain(shape.spec.fields[0].components);
    // A canonical distribution over the whole array: stream-contiguous
    // pieces, one per task, as many as a power of two allows.
    let parts = if p.is_power_of_two() { p } else { p.next_power_of_two() / 2 };
    let pieces = partition(&domain, parts, Order::ColumnMajor).map_err(|e| e.to_string())?;
    let canonical = Distribution::pieces(&domain, p, &pieces).map_err(|e| e.to_string())?;
    let m = choose_piece_count(field, p, TARGET_PIECE_BYTES);
    let piece = (field / m).max(8);
    let seg_len = (shape.spec.expected_segment_bytes() as usize).min(SEGMENT_PROBE_BYTES);

    let ranks = run_spmd(p, CostModel::default(), |ctx| -> Result<_, String> {
        let u = primary(shape, ctx, seed);
        let mut fail = None;
        let assign = collective(
            ctx,
            REPS,
            || canonical.clone(),
            |ctx, to| keep(&mut fail, assign::redistribute(ctx, &u, to)),
        );
        let write = collective(
            ctx,
            REPS,
            || (),
            |ctx, ()| keep(&mut fail, stream::write_array(ctx, fs, &u, STREAM, p)),
        );
        let mut back = DistArray::<f64>::new(u.name(), u.order(), u.dist().clone(), ctx.rank());
        let read = collective(
            ctx,
            REPS,
            || (),
            |ctx, ()| keep(&mut fail, stream::read_array(ctx, fs, &mut back, STREAM, p)),
        );
        if back.local() != u.local() {
            keep(&mut fail, Err::<(), _>("the stream read back differs from what was written"));
        }
        let collect = collective(
            ctx,
            REPS,
            || (),
            |ctx, ()| keep(&mut fail, stream::collect_array_pieces(ctx, &u, p)),
        );

        let offset = (ctx.rank() * piece) as u64;
        let path = "probe/pieces";
        let cwrite = collective(
            ctx,
            REPS,
            || WriteReq { path: path.to_string(), offset, data: vec![0x44u8; piece] },
            |ctx, req| fs.collective_write(ctx, vec![req]),
        );
        let cread = collective(
            ctx,
            REPS,
            || ReadReq {
                path: path.to_string(),
                offset,
                len: piece as u64,
                access: ReadAccess::Strided,
            },
            |ctx, req| keep(&mut fail, fs.collective_read(ctx, vec![req])),
        );
        // Rank 0 alone, as the representative task writes the one segment.
        let segment = vec![0x55u8; seg_len];
        let write_at = collective(
            ctx,
            REPS,
            || (),
            |ctx, ()| {
                if ctx.rank() == 0 {
                    fs.write_at(ctx, SEGMENT, 0, &segment);
                }
            },
        );
        let read_at = collective(
            ctx,
            REPS,
            || (),
            |ctx, ()| {
                if ctx.rank() == 0 {
                    let got = fs.read_at(ctx, SEGMENT, 0, seg_len as u64, ReadAccess::Sequential);
                    keep(&mut fail, got);
                }
            },
        );
        match fail {
            Some(e) => Err(e),
            None => Ok((assign, write, read, collect, cwrite, cread, write_at, read_at)),
        }
    })
    .map_err(|e| e.to_string())?;
    let (assign, write, read, collect, cwrite, cread, write_at, read_at) =
        ranks.into_iter().next().expect("rank 0 exists")?;

    let peek: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fs.peek(SEGMENT));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut flip = false;
    let rename = per_call(REPS, 50, || {
        let (from, to) = if flip { ("probe/r1", "probe/r0") } else { ("probe/r0", "probe/r1") };
        if !fs.exists(from) {
            fs.preload(from, vec![0; 64]);
        }
        fs.rename(from, to);
        flip = !flip;
    });
    Ok(vec![
        ("darray.assign_mbps", mbps(field, &assign)),
        ("darray.stream_write_mbps", mbps(field, &write)),
        ("darray.stream_read_mbps", mbps(field, &read)),
        ("darray.collect_pieces_mbps", mbps(field, &collect)),
        ("piofs.cwrite_mbps", mbps(piece * p, &cwrite)),
        ("piofs.cread_mbps", mbps(piece * p, &cread)),
        ("piofs.write_at_mbps", mbps(seg_len, &write_at)),
        ("piofs.read_at_mbps", mbps(seg_len, &read_at)),
        ("piofs.peek_mbps", mbps(seg_len, &peek)),
        ("piofs.rename_us", (rename * 1e6, REPS)),
    ])
}

/// `darray.chunks` and `core`'s checksum: the byte-serial kernels, on the
/// head of the stream the darray probe wrote.
fn kernels(fs: &Piofs) -> Result<Found, String> {
    let mut real = fs.peek(STREAM).ok_or("the darray probe left no stream")?;
    real.truncate(KERNEL_BYTES);
    let len = real.len();
    let params = ChunkParams::new(integrity_chunk(fs));
    let noise = pseudo_random(len, 1);
    let zeros = vec![0u8; len];
    // Half the chunks compressible, as a stream with a constant region is.
    let mut mixed = real.clone();
    mixed[len / 2..].fill(0);
    let ranges: Vec<(usize, usize)> = (0..params.count(len as u64))
        .map(|i| params.range(len as u64, i))
        .map(|(a, b)| (a as usize, b as usize))
        .collect();
    let encoded: Vec<_> =
        ranges.iter().map(|&(a, b)| chunks::encode_chunk(&mixed[a..b], true)).collect();

    let rate = |f: &mut dyn FnMut()| rate(len, per_call(REPS, 1, f));
    let found: Vec<(&'static str, f64)> = vec![
        (
            "darray.chunks.fnv128_mbps",
            rate(&mut || {
                std::hint::black_box(chunks::fnv128(&real));
            }),
        ),
        (
            "darray.chunks.digest_mbps",
            rate(&mut || drop(std::hint::black_box(chunks::digest_stream(&real, params)))),
        ),
        (
            "darray.chunks.rle_raw_mbps",
            rate(&mut || drop(std::hint::black_box(chunks::rle_compress(&noise)))),
        ),
        (
            "darray.chunks.rle_zero_mbps",
            rate(&mut || drop(std::hint::black_box(chunks::rle_compress(&zeros)))),
        ),
        (
            "darray.chunks.encode_mbps",
            rate(&mut || {
                for &(a, b) in &ranges {
                    std::hint::black_box(chunks::encode_chunk(&mixed[a..b], true));
                }
            }),
        ),
        (
            "darray.chunks.decode_mbps",
            rate(&mut || {
                for (codec, stored) in &encoded {
                    std::hint::black_box(chunks::decode_chunk(*codec, stored));
                }
            }),
        ),
        (
            "core.crc32_mbps",
            rate(&mut || {
                std::hint::black_box(wire::crc32(&real));
            }),
        ),
    ];
    Ok(found.into_iter().map(|(name, v)| (name, (v, REPS))).collect())
}

/// `core`: segment codec, the integrity pass over a staged checkpoint,
/// manifest codec and the publish renames — on a staged checkpoint of the
/// primary field.
fn core_commit(shape: &Shape, fs: &Piofs) -> Result<Found, String> {
    let spec = &shape.spec;
    let stream = fs.peek(STREAM).ok_or("the darray probe left no stream")?;

    // The segment a mini-application checkpoints: system buffers, private
    // data and the fixed local-sections reservation.
    let mut seg = base_segment(spec);
    seg.set_control("iter", 1);
    let local = Region {
        name: "local-sections".to_string(),
        kind: RegionKind::LocalSections,
        bytes: vec![0x3C; spec.fixed_local_bytes() as usize],
    };
    let encoded = seg.encode_with_region(Some(&local));
    let reps = if encoded.len() > (32 << 20) { SLOW_REPS } else { REPS };
    let enc =
        per_call(reps, 1, || drop(std::hint::black_box(seg.encode_with_region(Some(&local)))));
    let dec = per_call(reps, 1, || drop(std::hint::black_box(DataSegment::decode(&encoded))));

    let prefix = "probe/ck";
    let stage = |with_manifest: Option<&[u8]>| {
        fs.preload(&format!("{prefix}.tmp/array-u"), stream.clone());
        fs.preload(&format!("{prefix}.tmp/segment"), vec![0xA5; 4096]);
        if let Some(m) = with_manifest {
            fs.preload(&format!("{prefix}.tmp/manifest.tmp"), m.to_vec());
        }
    };
    stage(None);
    let integrity =
        per_call(REPS, 1, || drop(std::hint::black_box(compute_integrity_staged(fs, prefix))));

    let manifest = Manifest {
        app: spec.name.to_string(),
        kind: CkptKind::Drms,
        ntasks: shape.writer_tasks,
        sop: 1,
        arrays: spec
            .fields
            .iter()
            .map(|f| ArrayEntry {
                name: f.name.clone(),
                elem_code: f64::CODE,
                domain: spec.domain(f.components),
                order: Order::ColumnMajor,
            })
            .collect(),
        integrity: compute_integrity_staged(fs, prefix),
        deltas: Vec::new(),
    };
    let bytes = manifest.encode();
    let menc = per_call(REPS, 20, || drop(std::hint::black_box(manifest.encode())));
    let mdec = per_call(REPS, 20, || drop(std::hint::black_box(Manifest::decode(&bytes))));

    // Every publish after the first overwrites a committed checkpoint.
    let publish: Vec<f64> = (0..REPS)
        .map(|_| {
            stage(Some(&bytes));
            let t = Instant::now();
            publish_data(fs, prefix);
            publish_manifest(fs, prefix);
            t.elapsed().as_secs_f64()
        })
        .collect();
    Ok(vec![
        ("core.segment_encode_mbps", (rate(encoded.len(), enc), reps)),
        ("core.segment_decode_mbps", (rate(encoded.len(), dec), reps)),
        ("core.integrity_mbps", (rate(stream.len() + 4096, integrity), REPS)),
        ("core.manifest_encode_us", (menc * 1e6, REPS)),
        ("core.manifest_decode_us", (mdec * 1e6, REPS)),
        ("core.publish_ms", (median(&publish) * 1e3, REPS)),
    ])
}

/// Observers: nanoseconds per recorder hook call, for each sink the
/// tiered workload fans out to, and the trace analysis over a small real
/// trace (one stream written and read back under a trace recorder).
fn observers(shape: &Shape, seed: u64) -> Result<Found, String> {
    const CALLS: usize = 20_000;
    let p = shape.writer_tasks;
    // The mix a checkpoint produces: a span, a counter and an event.
    let hooks = |rec: &dyn Recorder| {
        for i in 0..CALLS / 4 {
            let (t, rank) = (i as f64 * 1e-6, i % p);
            rec.span_start(t, rank, Phase::Arrays, "probe");
            rec.counter_add_at(t, rank, names::COMMITS, None, 1);
            rec.event(t, rank, Phase::Manifest, "probe");
            rec.span_end(t, rank, Phase::Arrays, "probe");
        }
    };
    let obs = per_call(REPS, 1, || hooks(&TraceRecorder::default())) / CALLS as f64;
    let pulse = Pulse::new(PulseConfig { ntasks: p, ..PulseConfig::default() });
    let sampler = pulse.recorder();
    let sample = {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                hooks(sampler.as_ref());
                let dt = t.elapsed().as_secs_f64();
                pulse.drain();
                dt
            })
            .collect();
        median(&samples) / CALLS as f64
    };
    let flight = Blackbox::new(BlackboxConfig::default(), p);
    let push = per_call(REPS, 1, || hooks(&flight)) / CALLS as f64;

    let trace = Arc::new(TraceRecorder::default());
    let fs = new_fs(shape.spec.class, seed);
    fs.set_recorder(trace.clone());
    run_spmd_traced(p, CostModel::default(), trace.clone(), |ctx| -> Result<(), String> {
        let mut u = primary(shape, ctx, seed);
        stream::write_array(ctx, &fs, &u, STREAM, p).map_err(|e| e.to_string())?;
        stream::read_array(ctx, &fs, &mut u, STREAM, p).map_err(|e| e.to_string())
    })
    .map_err(|e| e.to_string())?
    .into_iter()
    .collect::<Result<Vec<()>, String>>()?;
    let analyze = per_call(REPS, 1, || drop(std::hint::black_box(Analysis::from_recorder(&trace))));
    Ok(vec![
        ("obs.record_ns", (obs * 1e9, REPS)),
        ("pulse.sample_ns", (sample * 1e9, REPS)),
        ("blackbox.push_ns", (push * 1e9, REPS)),
        ("insight.analyze_ms", (analyze * 1e3, REPS)),
    ])
}

/// Replays against what the workload left behind: the restart taken apart
/// into its calls, checkpoint verification, and the tier and chain reads.
fn replay(w: Workload, shape: &Shape, art: &Artifacts) -> Result<Found, String> {
    let (fs, prefix) = (&*art.fs, art.last_prefix.as_str());
    let mut found = Found::new();

    let verify: Vec<f64> = (0..SLOW_REPS)
        .map(|_| {
            let t = Instant::now();
            let report = verify_checkpoint(fs, prefix, &NullRecorder, 0.0);
            let dt = t.elapsed().as_secs_f64();
            if report.is_valid() {
                Ok(dt)
            } else {
                Err(format!("{prefix} does not verify"))
            }
        })
        .collect::<Result<_, String>>()?;
    found.push(("resil.verify_ms_p50", (median(&verify) * 1e3, SLOW_REPS)));

    match w {
        Workload::FullBtA | Workload::StormSpS | Workload::SpmdLuW => {
            found.extend(restart_apart(shape, fs, prefix)?);
        }
        Workload::DeltaBtA => {
            let (_, manifest) = find_checkpoints(fs, None)
                .into_iter()
                .find(|(p, _)| p == prefix)
                .ok_or(format!("{prefix} is not committed"))?;
            let mut len = 0;
            let secs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    let stream = materialize_stream(fs, prefix, &manifest, "u");
                    let dt = t.elapsed().as_secs_f64();
                    stream.map(|s| {
                        len = s.len();
                        dt
                    })
                })
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            found.push(("delta.materialize_mbps", mbps(len, &secs)));
        }
        Workload::TieredSpW => {
            let tier = art.tier.as_deref().ok_or("the tiered run left no tier")?;
            let file = array_file(&shape.spec.fields[0].name);
            let len = tier.file_len(prefix, &file).map_err(|e| e.to_string())?;
            let secs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    let got = tier.fetch(prefix, &file, 0, len);
                    let dt = t.elapsed().as_secs_f64();
                    got.map(|_| dt)
                })
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            found.push(("memtier.fetch_mbps", mbps(len as usize, &secs)));

            let restarts: Vec<f64> = (0..REPS)
                .map(|_| {
                    fs.clear_residency();
                    fs.reset_time();
                    let ranks = run_spmd(6, CostModel::default(), |ctx| -> Result<f64, String> {
                        ctx.barrier();
                        let t = Instant::now();
                        let cfg = shape.spec.drms_config();
                        let (drms, info) =
                            resume_from_tier(ctx, fs, tier, cfg, EnableFlag::new(), prefix)
                                .map_err(|e| e.to_string())?;
                        let mut arrays = fields(shape, ctx);
                        restore_arrays_from_tier(
                            ctx,
                            tier,
                            &drms,
                            prefix,
                            &info.manifest,
                            &mut handles_mut(&mut arrays),
                        )
                        .map_err(|e| e.to_string())?;
                        ctx.barrier();
                        Ok(t.elapsed().as_secs_f64())
                    })
                    .map_err(|e| e.to_string())?;
                    ranks.into_iter().next().expect("rank 0 exists")
                })
                .collect::<Result<_, String>>()?;
            found.push(("memtier.restart_ms_p50", (median(&restarts) * 1e3, REPS)));
        }
    }
    Ok(found)
}

/// Every field of the application, empty, on `ctx`'s region.
fn fields(shape: &Shape, ctx: &Ctx) -> Vec<DistArray<f64>> {
    let spec = &shape.spec;
    spec.fields
        .iter()
        .map(|f| {
            DistArray::new(&f.name, Order::ColumnMajor, spec.dist(f, ctx.ntasks()), ctx.rank())
        })
        .collect()
}

/// What `MiniApp::start` does on a restart, call by call, so each call gets
/// its own time. Big states get [`SLOW_REPS`] incarnations.
fn restart_apart(shape: &Shape, fs: &Piofs, prefix: &str) -> Result<Found, String> {
    let cfg = shape.spec.drms_config();
    let reps = if shape.spec.expected_segment_bytes() > (32 << 20) { SLOW_REPS } else { REPS };
    let mut first = Vec::new();
    let mut second = Vec::new();
    for _ in 0..reps {
        fs.clear_residency();
        fs.reset_time();
        let ranks =
            run_spmd(shape.restore_tasks, CostModel::default(), |ctx| -> Result<_, String> {
                let e = |e: drms_core::CoreError| e.to_string();
                fs.set_residency(ctx.node(), shape.spec.expected_segment_bytes());
                ctx.barrier();
                let t = Instant::now();
                if shape.variant == AppVariant::Spmd {
                    spmd::restart(ctx, fs, &cfg, prefix).map_err(e)?;
                    ctx.barrier();
                    return Ok((t.elapsed().as_secs_f64(), 0.0));
                }
                let (drms, start) =
                    Drms::initialize(ctx, fs, cfg.clone(), EnableFlag::new(), Some(prefix))
                        .map_err(e)?;
                ctx.barrier();
                let init = t.elapsed().as_secs_f64();
                let Start::Restarted(info) = start else { return Err("fresh start".into()) };
                let mut arrays = fields(shape, ctx);
                ctx.barrier();
                let t = Instant::now();
                drms.restore_arrays(ctx, fs, prefix, &info.manifest, &mut handles_mut(&mut arrays))
                    .map_err(e)?;
                ctx.barrier();
                Ok((init, t.elapsed().as_secs_f64()))
            })
            .map_err(|e| e.to_string())?;
        let (a, b) = ranks.into_iter().next().expect("rank 0 exists")?;
        first.push(a);
        second.push(b);
    }
    Ok(if shape.variant == AppVariant::Spmd {
        vec![("core.spmd_restart_ms_p50", (median(&first) * 1e3, reps))]
    } else {
        vec![
            ("core.init_restart_ms_p50", (median(&first) * 1e3, reps)),
            ("core.restore_arrays_ms_p50", (median(&second) * 1e3, reps)),
        ]
    })
}

/// What the fan-out costs the tiered checkpoint: its median here, with the
/// observers on, against a short run of the same cycles with none.
fn observer_overhead(shape: &Shape, plan: &Plan, out: &Outcome) -> Result<Found, String> {
    let short = Plan { ckpt_ops: 9, restore_ops: 9, ..*plan };
    let bare = tiered::run(shape, &short, &Tracer::new(false), &tiered::Observers::none());
    if let Some(e) = bare.errors.first() {
        return Err(e.clone());
    }
    let (with, without) = (median(&out.ckpt.host), median(&bare.ckpt.host));
    Ok(vec![("obs.overhead_pct", (100.0 * (with - without) / without, bare.ckpt.host.len()))])
}
