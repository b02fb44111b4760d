//! `full_bt_A`, `storm_sp_S`, `spmd_lu_W`: a mini-application checkpoints
//! itself over and over, then fresh incarnations restart from the last
//! checkpoint, each verified bitwise.

use std::time::Instant;

use drms_apps::MiniApp;
use drms_core::EnableFlag;
use drms_msg::Ctx;
use drms_piofs::Piofs;

use super::{any_rank, op_is_traced, write_then_restart, Ops, Outcome, Plan, Shape, Written};
use crate::digest;
use crate::host::Meter;
use crate::trace::{SpanId, Tracer};

/// Timed checkpoints alternate between two prefixes, so from the third on
/// each one overwrites a committed checkpoint (uncommit, then publish).
const PREFIXES: [&str; 2] = ["ck/a", "ck/b"];

pub fn run(shape: &Shape, plan: &Plan, tracer: &Tracer) -> Outcome {
    let start = |ctx: &mut Ctx, fs: &Piofs, from: Option<&str>| {
        MiniApp::start(ctx, fs, shape.spec.clone(), shape.variant, EnableFlag::new(), from)
            .map_err(|e| e.to_string())
    };
    write_then_restart(
        shape,
        plan,
        tracer,
        |ctx, fs, setup| {
            let r0 = ctx.rank() == 0;
            let app = tracer.scope(r0, "apps.start", || start(ctx, fs, None))?;
            writer(ctx, fs, app, plan, tracer, setup)
        },
        |ctx, fs, prefix| {
            let r0 = ctx.rank() == 0;
            tracer.scope(r0, "apps.restart", || start(ctx, fs, Some(prefix)))
        },
        |ctx, app| digest::global(ctx, app.fields()),
    )
}

fn writer(
    ctx: &mut Ctx,
    fs: &Piofs,
    mut app: MiniApp,
    plan: &Plan,
    tracer: &Tracer,
    setup: SpanId,
) -> Result<Written, String> {
    let r0 = ctx.rank() == 0;
    tracer.scope(r0, "apps.step", || app.step(ctx));
    // No step runs between checkpoints, so this one digest is what every
    // restart must reproduce.
    let digest = digest::global(ctx, app.fields());
    let warm = app.checkpoint(ctx, fs, PREFIXES[1]).map_err(|e| e.to_string())?;
    ctx.barrier();
    if r0 {
        tracer.end(setup);
    }

    let setup_done = Instant::now();
    let meter = Meter::start();
    let mut ops = Ops::default();
    let mut error = None;
    for i in 0..plan.ckpt_ops {
        if r0 {
            tracer.set_paused(!op_is_traced(i));
        }
        ctx.barrier();
        let (t0, s0) = (Instant::now(), ctx.now());
        let op = if r0 { tracer.begin_op("ckpt") } else { None };
        let done = app.checkpoint(ctx, fs, PREFIXES[i % 2]);
        ctx.barrier();
        ops.push(t0.elapsed().as_secs_f64(), ctx.now() - s0);
        tracer.end(op);
        if any_rank(ctx, done.is_err()) {
            error = Some(format!(
                "ckpt op {i}: {}",
                done.err().map_or("failed on another rank".to_string(), |e| e.to_string())
            ));
            break;
        }
        if plan.agree_out_of_time(ctx, i + 1, setup_done) {
            break;
        }
    }
    if r0 {
        tracer.set_paused(false);
    }
    // Restarts read the last timed checkpoint, or the warm-up one when
    // none was timed.
    let last = PREFIXES[(ops.host.len() + 1) % 2];
    Ok(Written {
        setup_done,
        state_bytes: warm.total_bytes(),
        segment_bytes: warm.segment_bytes,
        ops,
        usage: meter.stop(),
        counts: Vec::new(),
        error,
        targets: vec![(last.to_string(), digest)],
    })
}
