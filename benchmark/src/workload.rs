//! The five workloads: what each runs, how many ops a run of a given
//! length makes, and the result every one of them reports.

use std::sync::Arc;
use std::time::Instant;

use drms_apps::{bt, lu, sp, AppSpec, AppVariant, Class};
use drms_core::segment::{DataSegment, RegionKind};
use drms_core::{CheckpointArray, Drms};
use drms_darray::DistArray;
use drms_memtier::MemTier;
use drms_msg::{run_spmd, CostModel, Ctx, ReduceOp};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Range};

use crate::host::{Meter, Usage};
use crate::trace::{SpanId, Tracer};

pub mod delta;
pub mod mini;
pub mod tiered;

/// All checkpoint prefixes live under this directory, so the bytes PIOFS
/// holds for checkpoints are one `total_bytes` call.
pub const CKPT_DIR: &str = "ck/";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullBtA,
    DeltaBtA,
    StormSpS,
    SpmdLuW,
    TieredSpW,
}

/// The application geometry and task counts a workload runs on.
#[derive(Debug, Clone)]
pub struct Shape {
    pub spec: AppSpec,
    pub variant: AppVariant,
    pub writer_tasks: usize,
    pub restore_tasks: usize,
}

/// One run's inputs. Op counts follow from `--seconds` alone, never from
/// how fast the host is, so two runs of one seed do identical work — unless
/// the host is so slow that a loop hits `loop_limit_s`, which cuts it short
/// to keep a whole set of runs inside its time budget.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub ckpt_ops: usize,
    pub restore_ops: usize,
    /// Wall-clock seconds after which a timed loop stops early, once it has
    /// [`MIN_OPS`] samples. Sized at 1.6 times what the loop takes on the
    /// reference box.
    pub loop_limit_s: f64,
}

/// Samples a median needs before a loop may be cut short.
pub const MIN_OPS: usize = 3;

impl Plan {
    /// Whether a loop that began at `since` and has made `done` ops is out
    /// of time.
    pub fn out_of_time(&self, done: usize, since: Instant) -> bool {
        done >= MIN_OPS && since.elapsed().as_secs_f64() > self.loop_limit_s
    }

    /// Collective form, for loops inside an SPMD region: rank 0's clock
    /// decides for everyone.
    pub fn agree_out_of_time(&self, ctx: &mut Ctx, done: usize, since: Instant) -> bool {
        any_rank(ctx, ctx.rank() == 0 && self.out_of_time(done, since))
    }
}

/// Host and virtual seconds of each op of one kind, in op order.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    pub host: Vec<f64>,
    pub sim: Vec<f64>,
}

impl Ops {
    pub fn push(&mut self, host: f64, sim: f64) {
        self.host.push(host);
        self.sim.push(sim);
    }
}

/// In a traced run every third op runs with recording paused; the two
/// groups give the tracing overhead from one process. (Three, because the
/// delta chain rewrites in full every eighth link, and a period that
/// divides eight would hide every rewrite from the trace.)
pub fn op_is_traced(i: usize) -> bool {
    i % 3 != 2
}

/// What a finished run leaves for the replay probes to work on.
pub struct Artifacts {
    pub fs: Arc<Piofs>,
    /// The committed checkpoint the timed restores read.
    pub last_prefix: String,
    pub tier: Option<Arc<MemTier>>,
}

#[derive(Default)]
pub struct Outcome {
    /// Everything before the first timed op, plus the untimed warm-up ops.
    pub setup_s: f64,
    /// Logical state one checkpoint op persists and one restore op makes
    /// usable (segment plus canonical array streams; for the SPMD variant
    /// every task's segment).
    pub state_bytes: u64,
    /// The data-segment part of `state_bytes`, where the workload knows it.
    pub segment_bytes: u64,
    /// Bytes PIOFS holds under [`CKPT_DIR`] when the run ends.
    pub stored_bytes: u64,
    /// Committed checkpoints those bytes serve.
    pub retained: u64,
    pub ckpt: Ops,
    pub restore: Ops,
    /// Ops begun, and those of them that returned `Ok` and (restores)
    /// verified bitwise.
    pub attempted: u64,
    pub succeeded: u64,
    /// CPU, faults and wall clock of the two timed loops.
    pub usage: Usage,
    /// Exact counts the product reports about the timed ckpt ops.
    pub counts: Vec<(&'static str, f64)>,
    pub errors: Vec<String>,
    /// Absent when the writer incarnation itself failed.
    pub artifacts: Option<Artifacts>,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FullBtA,
        Workload::DeltaBtA,
        Workload::StormSpS,
        Workload::SpmdLuW,
        Workload::TieredSpW,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullBtA => "full_bt_A",
            Workload::DeltaBtA => "delta_bt_A",
            Workload::StormSpS => "storm_sp_S",
            Workload::SpmdLuW => "spmd_lu_W",
            Workload::TieredSpW => "tiered_sp_W",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `quick` swaps every class for T (a smoke run; the names then only
    /// say which code path runs, not which size).
    pub fn shape(self, quick: bool) -> Shape {
        let class = |c| if quick { Class::T } else { c };
        let (spec, variant, writer_tasks, restore_tasks) = match self {
            Workload::FullBtA => (bt(class(Class::A)), AppVariant::Drms, 8, 6),
            Workload::DeltaBtA => (bt(class(Class::A)), AppVariant::Drms, 4, 6),
            Workload::StormSpS => (sp(class(Class::S)), AppVariant::Drms, 16, 12),
            Workload::SpmdLuW => (lu(class(Class::W)), AppVariant::Spmd, 8, 8),
            Workload::TieredSpW => (sp(class(Class::W)), AppVariant::Drms, 8, 8),
        };
        Shape { spec, variant, writer_tasks, restore_tasks }
    }

    /// Timed (checkpoint, restore) ops per ten seconds of `--seconds`,
    /// sized on the 2-core reference box so each kind, with the untimed
    /// work between its ops, gets about half the time. Sizes never scale,
    /// only counts.
    fn ops_per_10s(self) -> (f64, f64) {
        match self {
            Workload::FullBtA => (4.0, 4.0),
            Workload::DeltaBtA => (24.0, 32.0),
            Workload::StormSpS => (200.0, 120.0),
            Workload::SpmdLuW => (8.0, 150.0),
            Workload::TieredSpW => (40.0, 40.0),
        }
    }

    pub fn plan(self, seed: u64, seconds: u64, quick: bool) -> Plan {
        if quick {
            return Plan { seed, ckpt_ops: 3, restore_ops: 3, loop_limit_s: f64::INFINITY };
        }
        let (c, r) = self.ops_per_10s();
        let scale =
            |per_10s: f64| ((per_10s * seconds as f64 / 10.0).round() as usize).max(MIN_OPS);
        let (ckpt_ops, restore_ops) = (scale(c), scale(r));
        // One tiered cycle is a checkpoint and the recovery from it: one
        // loop, taking the time of two.
        let (restore_ops, loops) =
            if self == Workload::TieredSpW { (ckpt_ops, 1.0) } else { (restore_ops, 2.0) };
        Plan { seed, ckpt_ops, restore_ops, loop_limit_s: 1.6 * seconds as f64 / loops }
    }

    pub fn run(self, shape: &Shape, plan: &Plan, tracer: &Tracer) -> Outcome {
        match self {
            Workload::FullBtA | Workload::StormSpS | Workload::SpmdLuW => {
                mini::run(shape, plan, tracer)
            }
            Workload::DeltaBtA => delta::run(shape, plan, tracer),
            Workload::TieredSpW => {
                tiered::run(shape, plan, tracer, &tiered::Observers::fanout(shape.writer_tasks))
            }
        }
    }
}

/// The paper's PIOFS, memory scaled to the class so buffer thresholds sit
/// where they do at class A. `seed` drives its service-time jitter.
pub fn new_fs(class: Class, seed: u64) -> Arc<Piofs> {
    Piofs::new(PiofsConfig::sp_1997().scale_memory(class.memory_scale()), seed)
}

/// Bytes held under [`CKPT_DIR`] and the committed checkpoints among them.
pub fn stored(fs: &Piofs) -> (u64, u64) {
    (fs.total_bytes(CKPT_DIR), drms_core::find_checkpoints(fs, None).len() as u64)
}

/// Collective: whether any rank raises `flag` (an op failed, time is up).
/// Agreeing before the next collective keeps a rank from entering one the
/// others already left.
pub fn any_rank(ctx: &mut Ctx, flag: bool) -> bool {
    ctx.allreduce(f64::from(u8::from(flag)), ReduceOp::Max) > 0.0
}

/// What a writer incarnation hands back: rank 0's view of the timed
/// checkpoint loop, and what the restarts after it must reproduce.
pub struct Written {
    /// When the first timed op began.
    pub setup_done: Instant,
    pub state_bytes: u64,
    pub segment_bytes: u64,
    pub ops: Ops,
    pub usage: Usage,
    pub counts: Vec<(&'static str, f64)>,
    /// The op that failed and ended the loop, if one did.
    pub error: Option<String>,
    /// (prefix, digest) of every committed checkpoint a restart may read,
    /// oldest first. Timed restarts cycle over them.
    pub targets: Vec<(String, u64)>,
}

/// The run `mini` and `delta` share: a writer incarnation that times its
/// own checkpoint loop, then one fresh incarnation per restore op, each
/// verified bitwise. `restore` restarts from a prefix on the region it is
/// given; `digest_of` digests what it restored.
///
/// A restore op's host time is thread spawn to join with the verification
/// pass taken out; its virtual time is rank 0's clock, from the 0 a fresh
/// incarnation starts at to the barrier after the restart.
pub fn write_then_restart<T>(
    shape: &Shape,
    plan: &Plan,
    tracer: &Tracer,
    writer: impl Fn(&mut Ctx, &Piofs, SpanId) -> Result<Written, String> + Sync,
    restore: impl Fn(&mut Ctx, &Piofs, &str) -> Result<T, String> + Sync,
    digest_of: impl Fn(&mut Ctx, &T) -> u64 + Sync,
) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    let setup = tracer.begin("setup");
    let fs = new_fs(shape.spec.class, plan.seed);
    Drms::install_binary(&fs, &shape.spec.drms_config());
    let written = run_spmd(shape.writer_tasks, CostModel::default(), |ctx| writer(ctx, &fs, setup));
    tracer.end(setup);
    let w = match written.map_err(|e| e.to_string()).and_then(|mut ranks| ranks.swap_remove(0)) {
        Ok(w) => w,
        Err(e) => {
            out.errors.push(format!("writer incarnation: {e}"));
            return out;
        }
    };
    out.attempted = w.ops.host.len() as u64;
    out.succeeded = out.attempted - u64::from(w.error.is_some());
    out.errors.extend(w.error);
    out.state_bytes = w.state_bytes;
    out.segment_bytes = w.segment_bytes;
    out.ckpt = w.ops;
    out.usage = w.usage;
    out.counts = w.counts;
    (out.stored_bytes, out.retained) = stored(&fs);

    let restart = |prefix: &str, expected: u64| -> Result<(f64, f64), String> {
        // As between any two incarnations: the dead one's residency and the
        // servers' busy horizons must not leak into this one's virtual time.
        fs.clear_residency();
        fs.reset_time();
        let t0 = Instant::now();
        let spawn = tracer.begin("msg.spawn");
        let ranks = run_spmd(shape.restore_tasks, CostModel::default(), |ctx| {
            let r0 = ctx.rank() == 0;
            if r0 {
                tracer.end(spawn);
            }
            let restored = restore(ctx, &fs, prefix);
            ctx.barrier();
            let sim = ctx.now();
            let verify = Instant::now();
            let outcome = tracer.scope(r0, "verify", || {
                let outcome = match &restored {
                    Ok(state) if digest_of(ctx, state) == expected => Ok(()),
                    Ok(_) => Err("restored state differs bitwise from the checkpointed one".into()),
                    Err(e) => Err(e.clone()),
                };
                ctx.barrier();
                outcome
            });
            outcome.map(|()| (sim, verify.elapsed().as_secs_f64()))
        })
        .map_err(|e| e.to_string())?;
        let total = t0.elapsed().as_secs_f64();
        let (sim, verify) = ranks.into_iter().next().expect("rank 0 exists")?;
        Ok((total - verify, sim))
    };

    // The untimed warm-up restart still belongs to set-up.
    let (newest, expected) = w.targets.last().expect("the warm-up checkpoint committed");
    let warm = Instant::now();
    let warm_span = tracer.begin("setup");
    if let Err(e) = restart(newest, *expected) {
        out.errors.push(format!("warm-up restart: {e}"));
    }
    tracer.end(warm_span);
    out.setup_s = (w.setup_done - started).as_secs_f64() + warm.elapsed().as_secs_f64();

    let (meter, began) = (Meter::start(), Instant::now());
    for i in 0..plan.restore_ops {
        if plan.out_of_time(i, began) {
            break;
        }
        tracer.set_paused(!op_is_traced(i));
        let (prefix, expected) = &w.targets[i % w.targets.len()];
        let op = tracer.begin_op("restore");
        let done = restart(prefix, *expected);
        tracer.end(op);
        out.attempted += 1;
        match done {
            Ok((host, sim)) => {
                out.restore.push(host, sim);
                out.succeeded += 1;
            }
            Err(e) => out.errors.push(format!("restore op {i} from {prefix}: {e}")),
        }
    }
    tracer.set_paused(false);
    out.usage += meter.stop();
    out.artifacts = Some(Artifacts { fs, last_prefix: newest.clone(), tier: None });
    out
}

/// The base segment a mini-application declares: system buffers and
/// private data at the class's size.
pub fn base_segment(spec: &AppSpec) -> DataSegment {
    let mut seg = DataSegment::new();
    seg.set_region("msgbuf", RegionKind::SystemBuffers, vec![0xA5; spec.system_bytes() as usize]);
    seg.set_region(
        "work-arrays",
        RegionKind::PrivateData,
        vec![0x5C; spec.private_bytes() as usize],
    );
    seg
}

pub fn handles_mut(arrays: &mut [DistArray<f64>]) -> Vec<&mut dyn CheckpointArray> {
    arrays.iter_mut().map(|a| a as &mut dyn CheckpointArray).collect()
}

/// A value with a pseudo-random mantissa in [1, 2), a pure function of
/// (seed, salt, point). Byte-level RLE never wins on such values, so pack
/// and stream sizes — and with them `stored_ratio` — do not depend on the
/// seed.
pub fn noise(seed: u64, salt: u64, p: &[i64]) -> f64 {
    let h = p.iter().fold(seed ^ salt.rotate_left(32), |h, &c| splitmix(h ^ c as u64));
    f64::from_bits(0x3FF0_0000_0000_0000 | (h >> 12))
}

/// Rewrites the quarter of `u` that step `iter` dirties: a z-window, one
/// contiguous quarter of the canonical stream (z is its slowest axis),
/// that moves one zone per step. The seed picks where it starts.
pub fn advance_window(shape: &Shape, u: &mut DistArray<f64>, seed: u64, iter: u64) {
    const ZONES: u64 = 4;
    let width = (shape.spec.grid() as u64 / ZONES) as i64;
    let zone = ((iter + seed) % ZONES) as i64;
    let window = u.domain().with_range(3, Range::contiguous(zone * width + 1, (zone + 1) * width));
    let mine = u.assigned().intersect(&window).expect("same rank");
    mine.points(Order::ColumnMajor).for_each(|p| {
        u.set(p, noise(seed, iter + 1, p)).expect("assigned point");
    });
}

/// A small deterministic generator for seeded field contents (SplitMix64).
pub fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
