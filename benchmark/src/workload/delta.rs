//! `delta_bt_A`: an incremental-checkpoint chain with retention and the
//! orphan sweep inside every op, restored on another task count.
//!
//! The state is BT's primary field `u`, a quarter of which is rewritten
//! between checkpoints (a z-window that moves one zone per link), and its
//! `forcing` term, constant after set-up — the case Section 6 of the paper
//! argues incremental checkpointing is for.

use std::time::Instant;

use drms_core::segment::DataSegment;
use drms_core::{retain_checkpoints, sweep_orphans, Drms, EnableFlag, Start};
use drms_darray::DistArray;
use drms_delta::{delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms_msg::Ctx;
use drms_piofs::Piofs;
use drms_slices::Order;

use super::{
    advance_window, any_rank, noise, op_is_traced, write_then_restart, Ops, Outcome, Plan, Shape,
    Written,
};
use crate::digest;
use crate::host::Meter;
use crate::trace::{SpanId, Tracer};

/// Committed links retention keeps; restores cycle over exactly these.
pub const KEEP: usize = 8;

pub const CONFIG: DeltaConfig = DeltaConfig { chunk_bytes: 0, full_every: 8, compress: true };

fn forcing0(p: &[i64]) -> f64 {
    (p[0] % 2) as f64 * 0.125
}

/// `u` and `forcing` on this region's task count; `fill` is false for a
/// restart, which loads them instead.
fn fields(shape: &Shape, ctx: &Ctx, seed: u64, fill: bool) -> [DistArray<f64>; 2] {
    let f = &shape.spec.fields[0];
    let make = |name| {
        DistArray::<f64>::new(
            name,
            Order::ColumnMajor,
            shape.spec.dist(f, ctx.ntasks()),
            ctx.rank(),
        )
    };
    let (mut u, mut forcing) = (make("u"), make("forcing"));
    if fill {
        u.fill_assigned(|p| noise(seed, 0, p));
        forcing.fill_assigned(forcing0);
    }
    [u, forcing]
}

pub fn run(shape: &Shape, plan: &Plan, tracer: &Tracer) -> Outcome {
    write_then_restart(
        shape,
        plan,
        tracer,
        |ctx, fs, setup| writer(ctx, fs, shape, plan, tracer, setup),
        |ctx, fs, prefix| restore(ctx, fs, shape, prefix, tracer),
        |ctx, arrays| digest::global(ctx, arrays),
    )
}

fn writer(
    ctx: &mut Ctx,
    fs: &Piofs,
    shape: &Shape,
    plan: &Plan,
    tracer: &Tracer,
    setup: SpanId,
) -> Result<Written, String> {
    let r0 = ctx.rank() == 0;
    let cfg = shape.spec.drms_config();
    let (mut drms, _) = Drms::initialize(ctx, fs, cfg.clone(), EnableFlag::new(), None)
        .map_err(|e| e.to_string())?;
    let [mut u, forcing] = tracer.scope(r0, "apps.start", || fields(shape, ctx, plan.seed, true));
    let mut seg = DataSegment::new();
    let mut chain = DeltaChain::new();
    let mut links: Vec<(String, u64)> = Vec::new();
    let mut ops = Ops::default();
    let mut counts = [0.0f64; 3]; // Σ dirty ratio, dedup hits, pack bytes
    let mut state_bytes = 0;
    let mut error = None;
    let mut first_timed = None;

    // Link 0 is the untimed warm-up (and the chain's first full rewrite).
    for link in 0..=plan.ckpt_ops {
        let timed = link > 0;
        if r0 && timed {
            tracer.set_paused(!op_is_traced(link - 1));
        }
        tracer.scope(r0, "apps.step", || advance_window(shape, &mut u, plan.seed, link as u64));
        seg.set_control("iter", link as i64);
        let prefix = format!("ck/d{link}");
        // Retention keeps the newest KEEP links; so does this list.
        links.push((prefix.clone(), digest::global(ctx, [&u, &forcing])));
        if links.len() > KEEP {
            links.remove(0);
        }
        if link == 1 {
            if r0 {
                tracer.end(setup);
            }
            first_timed = Some((Instant::now(), Meter::start()));
        }

        let full = chain.last_committed().is_none() || chain.depth() + 1 >= CONFIG.full_every;
        ctx.barrier();
        let (t0, s0) = (Instant::now(), ctx.now());
        let op = if r0 && timed { tracer.begin_op("ckpt") } else { None };
        let name = if full { "delta.full" } else { "delta.ckpt" };
        let done = tracer.scope(r0 && timed, name, || {
            delta_checkpoint(
                &mut drms,
                &mut chain,
                &CONFIG,
                ctx,
                fs,
                &prefix,
                &seg,
                &[&u, &forcing],
            )
        });
        if r0 {
            tracer.scope(timed, "core.retain", || retain_checkpoints(fs, &cfg.app, KEEP));
            tracer.scope(timed, "core.sweep", || sweep_orphans(fs));
        }
        ctx.barrier();
        let (host, sim) = (t0.elapsed().as_secs_f64(), ctx.now() - s0);
        tracer.end(op);

        if any_rank(ctx, done.is_err()) {
            let why = done.err().map_or("failed on another rank".to_string(), |e| e.to_string());
            if !timed {
                return Err(format!("warm-up link: {why}"));
            }
            ops.push(host, sim);
            error = Some(format!("ckpt op {}: {why}", link - 1));
            break;
        }
        let report = done.expect("agreed above that no rank failed");
        if timed {
            ops.push(host, sim);
            counts[0] += report.dirty_ratio();
            counts[1] += report.dedup_hits as f64;
            counts[2] += report.pack_bytes as f64;
            // A slow host may cut the loop short only where the chain's
            // period ends: whole periods leave the same bytes stored.
            let began = first_timed.as_ref().expect("set before the first timed link").0;
            if (link as u64).is_multiple_of(CONFIG.full_every)
                && plan.agree_out_of_time(ctx, ops.host.len(), began)
            {
                break;
            }
        } else {
            state_bytes = report.breakdown.segment_bytes + 2 * u.domain().size() as u64 * 8;
        }
    }
    if r0 {
        tracer.set_paused(false);
    }
    let (setup_done, meter) = first_timed.unwrap_or_else(|| (Instant::now(), Meter::start()));
    let n = ops.host.len().max(1) as f64;
    Ok(Written {
        setup_done,
        state_bytes,
        segment_bytes: 0,
        targets: links,
        ops,
        usage: meter.stop(),
        counts: vec![
            ("delta.dirty_ratio", counts[0] / n),
            ("delta.dedup_hits", counts[1]),
            ("delta.pack_bytes", counts[2]),
        ],
        error,
    })
}

/// The restart itself, on a fresh incarnation: resume from chain link
/// `prefix`, then materialize both arrays from its chunk tables.
fn restore(
    ctx: &mut Ctx,
    fs: &Piofs,
    shape: &Shape,
    prefix: &str,
    tracer: &Tracer,
) -> Result<[DistArray<f64>; 2], String> {
    let r0 = ctx.rank() == 0;
    let resumed = tracer.scope(r0, "core.init", || {
        resume(ctx, fs, shape.spec.drms_config(), EnableFlag::new(), prefix)
    });
    let (drms, info) = match resumed.map_err(|e| e.to_string())? {
        (drms, Start::Restarted(info)) => (drms, info),
        (_, Start::Fresh) => return Err(format!("{prefix} did not restart")),
    };
    let mut arrays = fields(shape, ctx, 0, false);
    tracer.scope(r0, "delta.restore", || {
        let [u, forcing] = &mut arrays;
        restore_arrays_delta(&drms, ctx, fs, prefix, &info.manifest, &mut [u, forcing])
            .map_err(|e| e.to_string())
    })?;
    Ok(arrays)
}
