//! `tiered_sp_W`: the post-paper modes in one loop, with the observers on.
//!
//! One incarnation cycles: dirty a quarter of `u`; checkpoint through the
//! asynchronous pipeline into the replicated memory tier and retain the
//! local sections; lose more work; lose a node; recover its sections from
//! replicas and grow back — verified against the digest taken at the
//! checkpoint. A trace recorder, pulse and the flight recorder ride every
//! hook of the world and the file system.

use std::sync::Arc;
use std::time::Instant;

use drms_async::{AsyncCheckpointer, AsyncConfig};
use drms_blackbox::{Blackbox, BlackboxConfig};
use drms_core::manifest::segment_path;
use drms_core::{CheckpointArray, Drms, EnableFlag};
use drms_darray::DistArray;
use drms_memtier::{store_checkpoint, MemTier};
use drms_msg::{run_spmd_traced, CostModel, Ctx};
use drms_obs::{FanoutRecorder, NullRecorder, Recorder, TraceRecorder};
use drms_piofs::Piofs;
use drms_pulse::{Pulse, PulseConfig};
use drms_recover::{grow, recover, retain, Membership};
use drms_slices::Order;

use super::{
    advance_window, any_rank, base_segment, handles_mut, new_fs, noise, op_is_traced, stored,
    Artifacts, Ops, Outcome, Plan, Shape,
};
use crate::digest;
use crate::host::{Meter, Usage};
use crate::trace::{SpanId, Tracer};

const PREFIXES: [&str; 2] = ["ck/a", "ck/b"];
/// The node (and, one task per node, the rank) every cycle loses.
const VICTIM: usize = 2;
const REPLICAS: usize = 2;

/// The recorders the product reports to while the workload runs.
pub struct Observers {
    pub sink: Arc<dyn Recorder>,
    pub pulse: Option<Arc<Pulse>>,
}

impl Observers {
    /// The fan-out the recovery bench uses: trace, pulse, flight recorder.
    pub fn fanout(ntasks: usize) -> Observers {
        let trace = Arc::new(TraceRecorder::default());
        let pulse = Pulse::new(PulseConfig { ntasks, ..PulseConfig::default() });
        pulse.set_sink(trace.clone());
        let flight = Arc::new(Blackbox::new(BlackboxConfig::default(), ntasks));
        let sinks: Vec<Arc<dyn Recorder>> = vec![trace, pulse.recorder(), flight];
        Observers { sink: Arc::new(FanoutRecorder::new(sinks)), pulse: Some(pulse) }
    }

    pub fn none() -> Observers {
        Observers { sink: Arc::new(NullRecorder), pulse: None }
    }
}

fn handles(arrays: &[DistArray<f64>]) -> Vec<&dyn CheckpointArray> {
    arrays.iter().map(|a| a as &dyn CheckpointArray).collect()
}

struct Written {
    setup_done: Instant,
    state_bytes: u64,
    ckpt: Ops,
    restore: Ops,
    succeeded: u64,
    usage: Usage,
    errors: Vec<String>,
}

/// Runs the workload reporting to `observers`.
pub fn run(shape: &Shape, plan: &Plan, tracer: &Tracer, observers: &Observers) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    let setup = tracer.begin("setup");
    let fs = new_fs(shape.spec.class, plan.seed);
    fs.set_recorder(observers.sink.clone());
    Drms::install_binary(&fs, &shape.spec.drms_config());
    let tier = MemTier::new(REPLICAS);
    // A second tier, for the store probe a traced run ends with.
    let scratch = MemTier::new(REPLICAS);

    let written =
        run_spmd_traced(shape.writer_tasks, CostModel::default(), observers.sink.clone(), |ctx| {
            cycles(ctx, &fs, [&tier, &scratch], shape, plan, tracer, observers, setup)
        });
    tracer.end(setup);
    if let Some(pulse) = &observers.pulse {
        pulse.finish();
    }
    let w = match written.map_err(|e| e.to_string()).and_then(|mut ranks| ranks.swap_remove(0)) {
        Ok(w) => w,
        Err(e) => {
            out.errors.push(format!("the incarnation: {e}"));
            return out;
        }
    };
    out.setup_s = (w.setup_done - started).as_secs_f64();
    out.state_bytes = w.state_bytes;
    out.ckpt = w.ckpt;
    out.restore = w.restore;
    out.attempted = (out.ckpt.host.len() + out.restore.host.len()) as u64;
    out.succeeded = w.succeeded;
    out.usage = w.usage;
    out.errors = w.errors;
    (out.stored_bytes, out.retained) = stored(&fs);
    let last_prefix = PREFIXES[out.ckpt.host.len() % 2].to_string();
    out.artifacts = Some(Artifacts { fs, last_prefix, tier: Some(tier) });
    out
}

#[allow(clippy::too_many_arguments)]
fn cycles(
    ctx: &mut Ctx,
    fs: &Piofs,
    [tier, scratch]: [&MemTier; 2],
    shape: &Shape,
    plan: &Plan,
    tracer: &Tracer,
    observers: &Observers,
    setup: SpanId,
) -> Result<Written, String> {
    let r0 = ctx.rank() == 0;
    let spec = &shape.spec;
    let (mut drms, _) = Drms::initialize(ctx, fs, spec.drms_config(), EnableFlag::new(), None)
        .map_err(|e| e.to_string())?;
    // The same resident set and base segment a mini-application declares.
    fs.set_residency(ctx.node(), spec.expected_segment_bytes());
    let mut seg = base_segment(spec);
    let mut arrays: Vec<DistArray<f64>> = tracer.scope(r0, "apps.start", || {
        spec.fields
            .iter()
            .enumerate()
            .map(|(fi, f)| {
                let dist = spec.dist(f, ctx.ntasks());
                let mut a = DistArray::new(&f.name, Order::ColumnMajor, dist, ctx.rank());
                a.fill_assigned(|p| noise(plan.seed, (fi as u64) << 16, p));
                a
            })
            .collect()
    });
    let mut pipeline = AsyncCheckpointer::new(AsyncConfig::default());
    let mut membership = Membership::initial(ctx.ntasks());
    let mut w = Written {
        setup_done: Instant::now(),
        state_bytes: 0,
        ckpt: Ops::default(),
        restore: Ops::default(),
        succeeded: 0,
        usage: Usage::default(),
        errors: Vec::new(),
    };
    let mut meter = Meter::start();

    // Cycle 0 is the untimed warm-up of both ops.
    for cycle in 0..=plan.ckpt_ops {
        let timed = cycle > 0;
        if cycle == 1 {
            if r0 {
                tracer.end(setup);
            }
            w.setup_done = Instant::now();
            meter = Meter::start();
        }
        if r0 && timed {
            tracer.set_paused(!op_is_traced(cycle - 1));
        }
        tracer.scope(r0, "apps.step", || {
            advance_window(shape, &mut arrays[0], plan.seed, 2 * cycle as u64)
        });
        seg.set_control("iter", cycle as i64);
        let expected = digest::global(ctx, &arrays);
        let prefix = PREFIXES[cycle % 2];

        // Checkpoint op: asynchronous pipeline through the tier, then retain.
        ctx.barrier();
        let (t0, s0) = (Instant::now(), ctx.now());
        let op = if r0 && timed { tracer.begin_op("ckpt") } else { None };
        let armed = tracer.scope(r0 && timed, "async.ckpt", || {
            pipeline.checkpoint(ctx, fs, &mut drms, prefix, &seg, &handles(&arrays), Some(tier))
        });
        let retained = tracer.scope(r0 && timed, "recover.retain", || {
            retain(ctx, prefix, drms.sop(), &handles(&arrays))
        });
        ctx.barrier();
        // Virtual time runs on to the commit: the foreground part alone is
        // a memory copy, priced the same whatever the file system does.
        let lag = armed.as_ref().map_or(0.0, |report| report.lag);
        let (host, sim) = (t0.elapsed().as_secs_f64(), ctx.now() - s0 + lag);
        tracer.end(op);
        if timed {
            w.ckpt.push(host, sim);
        }
        if any_rank(ctx, armed.is_err()) {
            let why = armed.err().map_or("failed on another rank".to_string(), |e| e.to_string());
            w.errors.push(format!("ckpt op of cycle {cycle}: {why}"));
            break;
        }
        w.succeeded += u64::from(timed);
        if !timed {
            w.state_bytes = fs.size(&segment_path(prefix)).map_err(|e| e.to_string())?
                + arrays.iter().map(|a| a.stream_bytes()).sum::<u64>();
        }

        // Work the failure will cost: recovery must roll it back.
        advance_window(shape, &mut arrays[0], plan.seed, 2 * cycle as u64 + 1);

        // Restore op: lose a node, recover its sections, grow back.
        ctx.barrier();
        let (t0, s0) = (Instant::now(), ctx.now());
        let op = if r0 && timed { tracer.begin_op("restore") } else { None };
        if r0 {
            tier.fail_node(VICTIM);
        }
        ctx.barrier();
        let recovered = tracer.scope(r0 && timed, "recover.localized", || {
            let ntasks = ctx.ntasks();
            recover(
                ctx,
                fs,
                Some(tier),
                &retained,
                &membership,
                &[VICTIM],
                &mut handles_mut(&mut arrays),
                ntasks,
            )
        });
        let regrown = match recovered {
            Ok((shrunk, _)) => tracer.scope(r0 && timed, "recover.resize", || {
                let ntasks = ctx.ntasks();
                grow(ctx, &shrunk, ntasks, &mut handles_mut(&mut arrays))
            }),
            Err(e) => Err(e),
        };
        ctx.barrier();
        let (host, sim) = (t0.elapsed().as_secs_f64(), ctx.now() - s0);
        tracer.end(op);
        if timed {
            w.restore.push(host, sim);
        }
        if any_rank(ctx, regrown.is_err()) {
            let why = regrown.err().map_or("failed on another rank".to_string(), |e| e.to_string());
            w.errors.push(format!("restore op of cycle {cycle}: {why}"));
            break;
        }
        membership = regrown.expect("agreed above that no rank failed");
        let verified =
            tracer.scope(r0 && timed, "verify", || digest::global(ctx, &arrays) == expected);
        if verified {
            w.succeeded += u64::from(timed);
        } else {
            w.errors.push(format!("restore op of cycle {cycle}: recovered state differs bitwise"));
        }
        if let (true, Some(pulse)) = (r0, &observers.pulse) {
            pulse.drain();
        }
        if timed && plan.agree_out_of_time(ctx, cycle, w.setup_done) {
            break;
        }
    }
    if r0 {
        tracer.set_paused(false);
    }
    tracer.scope(r0, "async.drain", || pipeline.drain(ctx));
    w.usage = meter.stop();
    if plan.ckpt_ops == 0 {
        w.setup_done = Instant::now();
    }

    // In a traced run the incarnation stays up for one more probe: the
    // blocking tier store the pipeline hides inside its flush.
    if tracer.on() {
        for _ in 0..5 {
            ctx.barrier();
            let stored = tracer.scope(r0, "memtier.store", || {
                let done =
                    store_checkpoint(ctx, scratch, "probe/t", &mut drms, &seg, &handles(&arrays));
                ctx.barrier();
                done
            });
            if any_rank(ctx, stored.is_err()) {
                w.errors.extend(stored.err().map(|e| format!("memtier.store probe: {e}")));
                break;
            }
        }
    }
    Ok(w)
}
