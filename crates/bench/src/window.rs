//! The moving-window job behind the `delta` and `async` gates
//! ([`delta_scenario`], [`async_scenario`]) and its unit tests.
//!
//! The job is the primary field `u` of each solver-suite application, plus
//! a constant `forcing` term in the `delta` row. Every iteration touches a
//! moving window over a quarter of the z-extent, then charges the row's
//! priced compute. One run loop drives each checkpoint-side run through one
//! of four arms: no checkpoint (the compute floor), a blocking
//! [`Drms::reconfig_checkpoint`], a delta-chain link, or an overlapped
//! checkpoint through the [`AsyncCheckpointer`]. One restore leg restarts
//! the last checkpoint on a *different* task count through
//! [`restore::open`], whichever the source.
//!
//! - `delta` checkpoints the job as full checkpoints and as a delta chain.
//!   About a quarter of each link is dirty and `forcing` never changes: the
//!   Section 6 case incremental checkpointing exists for.
//! - `async` runs it with no, blocking and overlapped checkpoints at the
//!   same interval, so each strategy's stall is its wall time over the
//!   floor. One blocking checkpoint is timed first, and every interval then
//!   charges `compute_factor x` that much compute: one snapshot's flush fits
//!   under the next interval, and the async stall collapses to the captures
//!   (plus the tail drain's residual).

use std::error::Error;
use std::fmt::Debug;
use std::sync::Arc;

use drms_apps::{bt, lu, sp, AppSpec, Class};
use drms_async::{AsyncCheckpointer, AsyncConfig};
use drms_core::manifest::{array_path, Manifest};
use drms_core::restore::{self, PiofsFull, RestartSource};
use drms_core::segment::DataSegment;
use drms_core::{find_checkpoints, sweep_orphans, verify, CheckpointArray, Drms, EnableFlag};
use drms_darray::{for_each_region_index, DistArray};
use drms_delta::{
    delta_checkpoint, materialize_stream, DeltaChain, DeltaConfig, DeltaReport, DeltaSource,
};
use drms_msg::{run_spmd, CostModel, Ctx};
use drms_piofs::Piofs;
use drms_slices::Order;

use crate::args::Options;
use crate::experiment::experiment_fs;
use crate::gate::{Gate, GateArgs, GateOutput};
use crate::json::BenchResult;
use crate::table::{mb, render};

/// What a campaign fails with: a region that died, or a checkpoint or
/// restart that refused.
type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Tasks taking the checkpoints.
pub const CKPT_TASKS: usize = 4;

/// Tasks restoring them — deliberately different, and not a divisor
/// relationship, so the restore leg also proves task-count independence.
pub const RESTORE_TASKS: usize = 6;

/// Links per `delta` campaign (the window cycles through four zones, so
/// every link after the first sees exactly one zone dirty).
pub const NLINKS: i64 = 4;

/// Checkpoints per `async` run (one per iteration).
pub const NCKPTS: i64 = 6;

/// The `async` row's flusher-timeline artefact (CI uploads it under this
/// name).
pub const TIMELINE_FILE: &str = "TIMELINE_async.txt";

/// The job's arrays on this task: `u`, a deterministic non-constant field,
/// then (with `forcing`) the constant forcing term.
fn fields(spec: &AppSpec, ctx: &Ctx, forcing: bool) -> Vec<DistArray<f64>> {
    let array = |name: &str, init: fn(&[i64]) -> f64| {
        let dist = spec.dist(&spec.fields[0], ctx.ntasks());
        let mut a = DistArray::<f64>::new(name, Order::ColumnMajor, dist, ctx.rank());
        a.fill_assigned(init);
        a
    };
    let mut out = vec![array("u", |p| (p[0] * 31 + p[1] * 7 + p[2] * 3 + p[3]) as f64 * 0.5)];
    if forcing {
        out.push(array("forcing", |p| (p[0] % 2) as f64 * 0.125));
    }
    out
}

/// One iteration on this task. It touches the moving window, the points
/// whose z-coordinate falls in zone `(iter - 1) % 4` of four equal zones.
/// z is the slowest axis of the canonical `ColumnMajor` stream, so each
/// window is one contiguous quarter of the stream. Then it charges
/// `compute_s` of solver work.
fn advance(ctx: &mut Ctx, grid: i64, u: &mut DistArray<f64>, iter: i64, compute_s: f64) {
    let dist = Arc::clone(u.dist());
    let (rank, order) = (u.rank(), u.order());
    let local = u.local_mut();
    for_each_region_index(dist.mapped(rank), dist.assigned(rank), order, |at, p| {
        if (p[3] - 1) / (grid / 4) == (iter - 1) % 4 {
            local[at] += 0.25;
        }
    });
    ctx.charge(compute_s);
}

/// What a run does at each SOP.
enum Arm {
    /// Nothing: the compute floor.
    Floor,
    /// A blocking [`Drms::reconfig_checkpoint`].
    Blocking,
    /// One link of a delta chain.
    Delta(DeltaConfig),
    /// A snapshot whose flush overlaps the next intervals.
    Overlapped { budget: usize },
}

/// One checkpoint-side run on [`CKPT_TASKS`] tasks. Every field is priced:
/// a run that differs in any of them stores or times something else.
struct Run {
    arm: Arm,
    /// SOP `i` checkpoints to `{stem}{i}`.
    stem: &'static str,
    sops: i64,
    /// Whether each SOP first advances the window and stamps `iter` into
    /// the segment. The calibration run does neither: it checkpoints the
    /// initial field under an empty segment.
    window: bool,
    /// Whether `forcing` rides along with `u`.
    forcing: bool,
    /// Compute charged per interval.
    compute_s: f64,
    /// Whether the run ends on one more interval, the pipeline's drain and
    /// a barrier.
    tail: bool,
}

/// What a run measured, as rank 0 saw it: virtual times when the first
/// interval began and when the run ended, then per arm the blocking
/// checkpoints' array bytes, the chain's links, or the pipeline's flights.
#[derive(Default)]
struct Outcome {
    t0: f64,
    wall: f64,
    bytes: u64,
    links: Vec<DeltaReport>,
    flights: Vec<FlightRow>,
}

impl Run {
    /// `sops` SOPs of `arm`, window moving, `u` alone, no compute, ending
    /// on the tail.
    fn new(arm: Arm, stem: &'static str, sops: i64) -> Run {
        Run { arm, stem, sops, window: true, forcing: false, compute_s: 0.0, tail: true }
    }

    /// The run loop. Deterministic per (`spec`, `fs`'s seed).
    fn run(&self, spec: &AppSpec, fs: &Piofs) -> Result<Outcome> {
        let grid = spec.grid() as i64;
        assert!(grid % 4 == 0, "window needs four z-zones");
        let cfg = spec.drms_config();
        let outcome = run_spmd(CKPT_TASKS, CostModel::default(), |ctx| {
            let (mut drms, _) = Drms::initialize(ctx, fs, cfg.clone(), EnableFlag::new(), None)?;
            let mut state = fields(spec, ctx, self.forcing);
            let mut seg = DataSegment::new();
            let mut chain = DeltaChain::new();
            let mut pipeline = None;
            let mut out = Outcome { t0: ctx.now(), ..Outcome::default() };
            for iter in 1..=self.sops {
                if self.window {
                    advance(ctx, grid, &mut state[0], iter, self.compute_s);
                    seg.set_control("iter", iter);
                }
                let prefix = format!("{}{iter}", self.stem);
                let arrays: Vec<&dyn CheckpointArray> =
                    state.iter().map(|a| a as &dyn CheckpointArray).collect();
                match self.arm {
                    Arm::Floor => {}
                    Arm::Blocking => {
                        let b = drms.reconfig_checkpoint(ctx, fs, &prefix, &seg, &arrays)?;
                        out.bytes += b.array_bytes;
                    }
                    Arm::Delta(ref dcfg) => out.links.push(delta_checkpoint(
                        &mut drms, &mut chain, dcfg, ctx, fs, &prefix, &seg, &arrays,
                    )?),
                    Arm::Overlapped { budget } => {
                        let ck = pipeline
                            .get_or_insert_with(|| AsyncCheckpointer::new(AsyncConfig { budget }));
                        let r = ck.checkpoint(ctx, fs, &mut drms, &prefix, &seg, &arrays, None)?;
                        out.flights.push(FlightRow {
                            prefix,
                            sop: r.sop,
                            t_snap: r.finish - r.lag,
                            start: r.finish - r.flush_seconds,
                            finish: r.finish,
                            bytes: r.bytes,
                        });
                    }
                }
            }
            if self.tail {
                ctx.charge(self.compute_s);
                if let Some(ck) = &mut pipeline {
                    ck.drain(ctx);
                }
                ctx.barrier();
            }
            out.wall = ctx.now();
            Ok::<_, drms_core::CoreError>(out)
        })?
        .swap_remove(0)?;
        Ok(outcome)
    }
}

/// A fresh seeded file system with the application's binary installed.
fn fresh_fs(spec: &AppSpec, seed: u64) -> Arc<Piofs> {
    let fs = experiment_fs(spec.class, seed);
    Drms::install_binary(&fs, &spec.drms_config());
    fs
}

/// What the restore leg restored, as rank 0 saw it.
struct Restored {
    /// Simulated array-restore time.
    secs: f64,
    /// Sum over every restored array.
    checksum: f64,
    /// The segment's `iter` control.
    iter: Option<i64>,
    manifest: Manifest,
}

/// The restore leg: restarts the checkpoint `src` names on
/// [`RESTORE_TASKS`] tasks.
fn restore<S: RestartSource + Sync>(
    spec: &AppSpec,
    forcing: bool,
    fs: &Piofs,
    src: S,
) -> Result<Restored> {
    fs.clear_residency();
    fs.reset_time();
    let cfg = spec.drms_config();
    let restored = run_spmd(RESTORE_TASKS, CostModel::default(), |ctx| {
        let (_, info) = restore::open(ctx, fs, cfg.clone(), EnableFlag::new(), &src)?;
        let mut state = fields(spec, ctx, forcing);
        let mut arrays: Vec<&mut dyn CheckpointArray> =
            state.iter_mut().map(|a| a as &mut dyn CheckpointArray).collect();
        let secs = restore::restore_arrays(ctx, &src, &info.manifest, &mut arrays)?;
        let checksum = state.iter().map(|a| a.fold_assigned(0.0, |acc, _, v| acc + v)).sum();
        let iter = info.segment.control("iter");
        Ok::<_, drms_core::CoreError>(Restored { secs, checksum, iter, manifest: info.manifest })
    })?
    .swap_remove(0)?;
    Ok(restored)
}

/// The checkpoint's canonical `u` stream file.
fn stream(fs: &Piofs, prefix: &str) -> Result<Vec<u8>> {
    Ok(fs.peek(&array_path(prefix, "u")).ok_or("no `u` stream file")?)
}

/// The solver suite at `class`: each app's campaign runs twice (it must
/// be deterministic), then `row` gates it and hands back its table cells,
/// each under its column's header. Returns the rendered table.
fn each_app<P, C: PartialEq + Debug>(
    class: Class,
    gate: &mut Gate,
    params: &P,
    campaign: fn(&AppSpec, &P) -> Result<C>,
    mut row: impl FnMut(&mut Gate, &AppSpec, &C) -> Vec<(&'static str, String)>,
) -> String {
    let (mut header, mut rows) = (Vec::new(), Vec::new());
    for spec in [bt(class), lu(class), sp(class)] {
        let c = campaign(&spec, params).expect("campaign run");
        let c2 = campaign(&spec, params).expect("campaign rerun");
        gate.check(
            c == c2,
            format!("{}: campaign is nondeterministic ({c:?} vs {c2:?})", spec.name),
        );
        let (heads, cells): (Vec<_>, Vec<_>) = row(gate, &spec, &c).into_iter().unzip();
        header = [&["app"][..], &heads].concat();
        rows.push([vec![spec.name.to_string()], cells].concat());
    }
    render(&header, &rows)
}

/// Inputs of one `delta` campaign.
#[derive(Debug, Clone)]
pub struct DeltaParams {
    /// Chunk size in bytes; `0` follows the file system's integrity chunk.
    pub chunk_bytes: u64,
    /// Full-rewrite epoch.
    pub full_every: u64,
    /// Seed for the file systems (jitters simulated times, never data).
    pub seed: u64,
}

/// Measurements from one app's full-vs-delta campaign. All byte totals are
/// exact (data movement is real); times are simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCampaign {
    /// Array-stream bytes written by the full-checkpoint campaign.
    pub full_bytes: u64,
    /// Pack bytes written by the delta campaign for the same state.
    pub delta_bytes: u64,
    /// Everything under the full campaign's checkpoint prefixes.
    pub full_state_bytes: u64,
    /// Everything under the delta campaign's checkpoint prefixes.
    pub delta_state_bytes: u64,
    /// Dirty chunks satisfied by content-hash dedup.
    pub dedup_hits: u64,
    /// Bytes saved by per-chunk compression.
    pub compressed_saved: u64,
    /// Chain depth at the final link.
    pub chain_depth: u64,
    /// Simulated array-restore time from the last full checkpoint.
    pub full_restore_s: f64,
    /// Simulated array-restore time from the last delta link.
    pub delta_restore_s: f64,
    /// Checksum of the state restored through the full path.
    pub full_checksum: f64,
    /// Checksum of the state restored through the delta path.
    pub delta_checksum: f64,
    /// Whether the last delta link's materialized `u` stream is bitwise
    /// identical to the last full checkpoint's stream file.
    pub streams_bitwise_equal: bool,
    /// The `iter` control each restore found (full, delta).
    pub restored_iters: [Option<i64>; 2],
}

impl DeltaCampaign {
    /// Bytes-written reduction factor of the delta campaign.
    pub fn reduction(&self) -> f64 {
        self.full_bytes as f64 / self.delta_bytes.max(1) as f64
    }

    /// Delta-restore time relative to full-restore time.
    pub fn restore_overhead(&self) -> f64 {
        self.delta_restore_s / self.full_restore_s
    }
}

/// Runs the full-vs-delta campaign for one application. Deterministic per
/// (`spec`, `params`): byte totals are exact and simulated times depend
/// only on the seed.
pub fn run_delta(spec: &AppSpec, params: &DeltaParams) -> Result<DeltaCampaign> {
    let dcfg = DeltaConfig {
        chunk_bytes: params.chunk_bytes,
        full_every: params.full_every,
        compress: true,
    };
    let job = |arm, stem| Run { forcing: true, tail: false, ..Run::new(arm, stem, NLINKS) };

    let fs_full = fresh_fs(spec, params.seed);
    let full_bytes = job(Arm::Blocking, "full/f").run(spec, &fs_full)?.bytes;
    let full_state_bytes = fs_full.total_bytes("full/");
    let fs_delta = fresh_fs(spec, params.seed);
    let links = job(Arm::Delta(dcfg), "delta/d").run(spec, &fs_delta)?.links;
    let delta_state_bytes = fs_delta.total_bytes("delta/");

    // The retention/orphan machinery must leave the chain restorable: the
    // sweep reclaims nothing reachable from a committed manifest.
    sweep_orphans(&fs_delta);
    for (prefix, _) in find_checkpoints(&fs_delta, Some(&spec.drms_config().app)) {
        assert!(verify(&fs_delta, &prefix).is_valid(), "sweep broke {prefix:?}");
    }

    let (last_full, last_delta) = (format!("full/f{NLINKS}"), format!("delta/d{NLINKS}"));
    let full = restore(spec, true, &fs_full, PiofsFull { fs: &fs_full, prefix: &last_full })?;
    let delta_src = DeltaSource(PiofsFull { fs: &fs_delta, prefix: &last_delta });
    let delta = restore(spec, true, &fs_delta, delta_src)?;
    // Bitwise check of the canonical `u` stream: materializing the last
    // delta link must reproduce the last full checkpoint's stream file.
    let materialized = materialize_stream(&fs_delta, &last_delta, &delta.manifest, "u")?;
    let total = |f: fn(&DeltaReport) -> u64| links.iter().map(f).sum();
    Ok(DeltaCampaign {
        full_bytes,
        delta_bytes: total(|r| r.pack_bytes),
        full_state_bytes,
        delta_state_bytes,
        dedup_hits: total(|r| r.dedup_hits),
        compressed_saved: total(|r| r.compressed_saved),
        chain_depth: links.last().map(|r| r.chain_depth).unwrap_or(0),
        full_restore_s: full.secs,
        delta_restore_s: delta.secs,
        full_checksum: full.checksum,
        delta_checksum: delta.checksum,
        streams_bitwise_equal: materialized == stream(&fs_full, &last_full)?,
        restored_iters: [full.iter, delta.iter],
    })
}

/// The `delta` row of the gate table: for each application of the solver
/// suite the campaign runs twice (it must be deterministic), the per-app
/// hard gates of `delta_checks` are collected on `gate`, and the headline
/// numbers are tabulated. Takes `--class` (default A), `--chunk-bytes` and
/// `--full-every`.
pub fn delta_scenario(args: &GateArgs, gate: &mut Gate) -> GateOutput {
    let opts = Options::default().parse(
        "delta",
        &["--class", "--chunk-bytes", "--full-every"],
        &args.rest,
    );
    let class = opts.class;
    // Small classes shrink the streams below the default 64 KiB integrity
    // chunk, so they get a proportionally smaller default; an explicit
    // `--chunk-bytes` always wins.
    let chunk_bytes = match (opts.chunk_bytes, class) {
        (0, Class::T | Class::S) => 1024,
        (b, _) => b, // 0: the integrity chunk (stripe unit)
    };
    let params = DeltaParams { chunk_bytes, full_every: opts.full_every, seed: args.seed };
    let chunk = match params.chunk_bytes {
        0 => "integrity (stripe unit)".to_string(),
        b => format!("{b} B"),
    };
    println!("Delta bench — incremental vs full checkpointing, class {class}");
    println!(
        "checkpoint on {CKPT_TASKS} tasks, restore on {RESTORE_TASKS}; chunk {chunk}, full every {}\n",
        params.full_every
    );

    let mut result = BenchResult::new("delta");
    result.param("class", class);
    result.param("chunk_bytes", params.chunk_bytes);
    result.param("full_every", params.full_every);
    result.param("seed", params.seed);
    result.stamp_header(params.seed, CKPT_TASKS);

    let table = each_app(class, gate, &params, run_delta, |gate, spec, c| {
        delta_checks(gate, spec, c);
        let n = spec.name;
        result.metric(&format!("{n}_full_mb"), mb(c.full_bytes));
        result.metric(&format!("{n}_delta_mb"), mb(c.delta_bytes));
        result.metric(&format!("{n}_reduction"), c.reduction());
        result.metric(&format!("{n}_dedup_hits"), c.dedup_hits as f64);
        result.metric(&format!("{n}_restore_full_s"), c.full_restore_s);
        result.metric(&format!("{n}_restore_delta_s"), c.delta_restore_s);
        result.metric(&format!("{n}_restore_overhead"), c.restore_overhead());
        vec![
            ("full MB", format!("{:.2}", mb(c.full_bytes))),
            ("delta MB", format!("{:.2}", mb(c.delta_bytes))),
            ("reduction", format!("{:.2}x", c.reduction())),
            ("dedup", format!("{}", c.dedup_hits)),
            ("saved MB", format!("{:.2}", mb(c.compressed_saved))),
            ("restore full s", format!("{:.3}", c.full_restore_s)),
            ("restore delta s", format!("{:.3}", c.delta_restore_s)),
            ("overhead", format!("{:.2}x", c.restore_overhead())),
        ]
    });
    println!("{table}");

    GateOutput { result, artefacts: Vec::new() }
}

/// Per-app hard gates of the `delta` row (beyond determinism and the
/// baseline comparison).
fn delta_checks(gate: &mut Gate, spec: &AppSpec, c: &DeltaCampaign) {
    let n = spec.name;
    gate.check(
        c.reduction() >= 2.0,
        format!("{n}: bytes-written reduction {:.2}x < 2x", c.reduction()),
    );
    gate.check(
        c.delta_state_bytes < c.full_state_bytes,
        format!(
            "{n}: delta state {} B not smaller than full state {} B",
            c.delta_state_bytes, c.full_state_bytes
        ),
    );
    gate.check(
        c.streams_bitwise_equal,
        format!("{n}: materialized delta stream differs from the full checkpoint stream"),
    );
    gate.check(
        c.full_checksum == c.delta_checksum,
        format!(
            "{n}: restore checksums diverge (full {} vs delta {})",
            c.full_checksum, c.delta_checksum
        ),
    );
    gate.check(
        c.restored_iters == [Some(NLINKS); 2],
        format!("{n}: segments lost the control state: {:?}", c.restored_iters),
    );
    gate.check(c.dedup_hits > 0, format!("{n}: constant forcing term produced no dedup hits"));
    gate.check(
        c.compressed_saved > 0,
        format!("{n}: constant forcing term saved no compressed bytes"),
    );
    gate.check(
        c.full_restore_s > 0.0 && c.delta_restore_s > 0.0,
        format!("{n}: restore timings missing"),
    );
}

/// Inputs of one `async` campaign.
#[derive(Debug, Clone)]
pub struct AsyncParams {
    /// Seed for the file systems (jitters simulated times, never data).
    pub seed: u64,
    /// In-flight snapshot budget of the async pipeline.
    pub budget: usize,
    /// Compute charged per interval, as a multiple of the calibrated
    /// blocking-checkpoint time (> 1 keeps the flusher ahead of the SOPs).
    pub compute_factor: f64,
}

impl Default for AsyncParams {
    fn default() -> Self {
        AsyncParams { seed: 11, budget: 2, compute_factor: 1.2 }
    }
}

/// One armed flight of the async run, for the flush-timeline artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRow {
    /// Checkpoint prefix.
    pub prefix: String,
    /// SOP number.
    pub sop: u64,
    /// Virtual time the snapshot finished capturing.
    pub t_snap: f64,
    /// Virtual time the flusher started on it.
    pub start: f64,
    /// Virtual time the commit became visible.
    pub finish: f64,
    /// Stream bytes flushed.
    pub bytes: u64,
}

/// Measurements from one app's blocking-vs-async campaign. Byte totals
/// are exact; times are simulated seconds, deterministic per seed.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncCampaign {
    /// Calibrated time of one blocking checkpoint.
    pub t_io: f64,
    /// Compute charged per interval.
    pub compute_s: f64,
    /// Wall time of the run with no checkpoints (the compute floor).
    pub wall_none: f64,
    /// Wall time with blocking checkpoints at every interval.
    pub wall_blocking: f64,
    /// Wall time with async checkpoints at the same interval (drained).
    pub wall_async: f64,
    /// The async run's flusher timeline.
    pub flights: Vec<FlightRow>,
    /// Checksum of the state restored from the last blocking checkpoint.
    pub blocking_checksum: f64,
    /// Checksum of the state restored from the last async checkpoint.
    pub async_checksum: f64,
    /// Whether the last async commit's `u` stream file is bitwise
    /// identical to the last blocking checkpoint's.
    pub streams_bitwise_equal: bool,
    /// The `iter` control each restore found (blocking, async).
    pub restored_iters: [Option<i64>; 2],
}

impl AsyncCampaign {
    /// Checkpoint stall of the blocking strategy (wall over the floor).
    pub fn stall_blocking(&self) -> f64 {
        self.wall_blocking - self.wall_none
    }

    /// Checkpoint stall of the async strategy (wall over the floor).
    pub fn stall_async(&self) -> f64 {
        self.wall_async - self.wall_none
    }

    /// Stall-reduction factor of overlapping the flush.
    pub fn stall_reduction(&self) -> f64 {
        self.stall_blocking() / self.stall_async().max(1e-12)
    }

    /// Fraction of the flush windows hidden off the critical path.
    pub fn overlap_fraction(&self) -> f64 {
        let flushed: f64 = self.flights.iter().map(|f| f.finish - f.t_snap).sum();
        if flushed <= 0.0 {
            return 0.0;
        }
        (1.0 - self.stall_async() / flushed).clamp(0.0, 1.0)
    }
}

/// Runs the blocking-vs-async campaign for one application. Deterministic
/// per (`spec`, `params`). An async commit restores through the unmodified
/// blocking restore path.
pub fn run_async(spec: &AppSpec, params: &AsyncParams) -> Result<AsyncCampaign> {
    let calibration = Run { window: false, ..Run::new(Arm::Blocking, "cal/c", 1) };
    let cal = calibration.run(spec, &fresh_fs(spec, params.seed))?;
    let t_io = cal.wall - cal.t0;
    let compute_s = params.compute_factor * t_io;
    let job = |arm, stem| Run { compute_s, ..Run::new(arm, stem, NCKPTS) };

    let wall_none = job(Arm::Floor, "").run(spec, &fresh_fs(spec, params.seed))?.wall;
    let fs_blk = fresh_fs(spec, params.seed);
    let wall_blocking = job(Arm::Blocking, "blk/b").run(spec, &fs_blk)?.wall;
    let fs_async = fresh_fs(spec, params.seed);
    let overlapped = job(Arm::Overlapped { budget: params.budget }, "as/a").run(spec, &fs_async)?;

    let (last_blk, last_async) = (format!("blk/b{NCKPTS}"), format!("as/a{NCKPTS}"));
    let blocking = restore(spec, false, &fs_blk, PiofsFull { fs: &fs_blk, prefix: &last_blk })?;
    let async_ = restore(spec, false, &fs_async, PiofsFull { fs: &fs_async, prefix: &last_async })?;
    Ok(AsyncCampaign {
        t_io,
        compute_s,
        wall_none,
        wall_blocking,
        wall_async: overlapped.wall,
        flights: overlapped.flights,
        blocking_checksum: blocking.checksum,
        async_checksum: async_.checksum,
        streams_bitwise_equal: stream(&fs_blk, &last_blk)? == stream(&fs_async, &last_async)?,
        restored_iters: [blocking.iter, async_.iter],
    })
}

/// The `async` row of the gate table: for each application of the solver
/// suite the campaign runs twice (it must be deterministic), the per-app
/// hard gates of `async_checks` are collected on `gate`, the headline
/// numbers are tabulated and the per-flight flusher timeline is rendered
/// as the [`TIMELINE_FILE`] artefact. Takes `--class` (default A).
pub fn async_scenario(args: &GateArgs, gate: &mut Gate) -> GateOutput {
    let class = Options::default().parse("async", &["--class"], &args.rest).class;
    let params = AsyncParams { seed: args.seed, ..AsyncParams::default() };
    println!("Async bench — overlapped vs blocking checkpointing, class {class}");
    println!(
        "checkpoint on {CKPT_TASKS} tasks, restore on {RESTORE_TASKS}; budget {}, \
         compute/interval {:.1}x the blocking checkpoint\n",
        params.budget, params.compute_factor
    );

    let mut result = BenchResult::new("async");
    result.param("class", class);
    result.param("budget", params.budget);
    result.param("compute_factor", params.compute_factor);
    result.param("seed", params.seed);
    result.stamp_header(params.seed, CKPT_TASKS);

    let mut timeline = String::new();
    let table = each_app(class, gate, &params, run_async, |gate, spec, c| {
        async_checks(gate, spec, c);
        let n = spec.name;
        result.metric(&format!("{n}_t_io_s"), c.t_io);
        result.metric(&format!("{n}_wall_none_s"), c.wall_none);
        result.metric(&format!("{n}_wall_blocking_s"), c.wall_blocking);
        result.metric(&format!("{n}_wall_async_s"), c.wall_async);
        result.metric(&format!("{n}_stall_blocking_s"), c.stall_blocking());
        result.metric(&format!("{n}_stall_async_s"), c.stall_async());
        result.metric(&format!("{n}_stall_reduction"), c.stall_reduction());
        result.metric(&format!("{n}_overlap_fraction"), c.overlap_fraction());
        // One timeline block per app: the prefix, SOP, and arm/start/finish
        // virtual timestamps of every flight, in arming order.
        timeline += &format!("# {n} — flusher timeline (virtual seconds)\n");
        timeline += "# prefix sop t_snap start finish bytes\n";
        for f in &c.flights {
            let (p, sop, bytes) = (&f.prefix, f.sop, f.bytes);
            timeline +=
                &format!("{p} {sop} {:.6} {:.6} {:.6} {bytes}\n", f.t_snap, f.start, f.finish);
        }
        timeline.push('\n');
        vec![
            ("t_io s", format!("{:.4}", c.t_io)),
            ("floor s", format!("{:.3}", c.wall_none)),
            ("blocking s", format!("{:.3}", c.wall_blocking)),
            ("async s", format!("{:.3}", c.wall_async)),
            ("stall blk s", format!("{:.4}", c.stall_blocking())),
            ("stall async s", format!("{:.4}", c.stall_async())),
            ("reduction", format!("{:.1}x", c.stall_reduction())),
            ("overlap", format!("{:.1}%", 100.0 * c.overlap_fraction())),
        ]
    });
    println!("{table}");

    GateOutput { result, artefacts: vec![(TIMELINE_FILE.into(), timeline)] }
}

/// Per-app hard gates of the `async` row (beyond determinism and the
/// baseline comparison).
fn async_checks(gate: &mut Gate, spec: &AppSpec, c: &AsyncCampaign) {
    let n = spec.name;
    gate.check(
        c.stall_reduction() >= 3.0,
        format!(
            "{n}: stall reduction {:.2}x < 3x (blocking {:.4}s vs async {:.4}s)",
            c.stall_reduction(),
            c.stall_blocking(),
            c.stall_async()
        ),
    );
    gate.check(
        c.streams_bitwise_equal,
        format!("{n}: async commit's stream differs from the blocking checkpoint"),
    );
    gate.check(
        c.blocking_checksum == c.async_checksum,
        format!(
            "{n}: restore checksums diverge (blocking {} vs async {})",
            c.blocking_checksum, c.async_checksum
        ),
    );
    gate.check(
        c.restored_iters == [Some(NCKPTS); 2],
        format!("{n}: segments lost the control state: {:?}", c.restored_iters),
    );
    gate.check(
        c.stall_blocking() > 0.0 && c.stall_async() > 0.0,
        format!("{n}: stall measurements missing"),
    );
    let fifo = c.flights.windows(2).all(|w| w[1].start >= w[0].finish)
        && c.flights.iter().all(|f| f.start >= f.t_snap && f.finish > f.start);
    gate.check(fifo, format!("{n}: flusher timeline malformed: {:?}", c.flights));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_reduces_bytes_and_restores_bitwise() {
        // Class T streams are tiny, so pick a chunk well under the window
        // size; the defaults only make sense from class W up.
        let params = DeltaParams { chunk_bytes: 1024, full_every: 8, seed: 5 };
        let c = run_delta(&sp(Class::T), &params).unwrap();
        assert!(c.reduction() >= 2.0, "reduction {:.2} < 2x", c.reduction());
        assert!(c.delta_state_bytes < c.full_state_bytes);
        assert!(c.streams_bitwise_equal);
        assert_eq!(c.full_checksum, c.delta_checksum);
        assert_eq!(c.chain_depth, NLINKS as u64 - 1);
        assert!(c.dedup_hits > 0, "constant forcing term produced no dedup");
        assert!(c.compressed_saved > 0, "constant forcing term never compressed");
        assert!(c.full_restore_s > 0.0 && c.delta_restore_s > 0.0);

        // Determinism: the campaign is a pure function of spec and params.
        let c2 = run_delta(&sp(Class::T), &params).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn campaign_hides_the_flush_and_restores_bitwise() {
        let params = AsyncParams::default();
        let c = run_async(&sp(Class::T), &params).unwrap();
        assert!(
            c.stall_reduction() >= 3.0,
            "stall reduction {:.2}x < 3x (blocking {:.4}s vs async {:.4}s)",
            c.stall_reduction(),
            c.stall_blocking(),
            c.stall_async()
        );
        assert!(c.streams_bitwise_equal);
        assert_eq!(c.blocking_checksum, c.async_checksum);
        assert_eq!(c.flights.len(), NCKPTS as usize);
        // Flusher timeline is well-formed: starts never precede arming,
        // finishes never precede starts, and flights are FIFO.
        for w in c.flights.windows(2) {
            assert!(w[1].start >= w[0].finish, "flusher overlapped two flights");
        }
        for f in &c.flights {
            assert!(f.start >= f.t_snap && f.finish > f.start, "malformed flight {f:?}");
        }

        // Determinism: the campaign is a pure function of spec and params.
        let c2 = run_async(&sp(Class::T), &params).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn blocking_delta_and_overlapped_arms_leave_the_same_state() {
        let spec = sp(Class::T);
        let dcfg = DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true };
        let arms = [
            (Arm::Blocking, "blk/b"),
            (Arm::Delta(dcfg), "delta/d"),
            (Arm::Overlapped { budget: 2 }, "as/a"),
        ];
        let mut last = Vec::new();
        for (arm, stem) in arms {
            let delta = matches!(arm, Arm::Delta(_));
            let (fs, prefix) = (fresh_fs(&spec, 5), format!("{stem}{NLINKS}"));
            Run { forcing: true, ..Run::new(arm, stem, NLINKS) }.run(&spec, &fs).unwrap();
            let full = PiofsFull { fs: &fs, prefix: &prefix };
            let (r, u) = if delta {
                let r = restore(&spec, true, &fs, DeltaSource(full)).unwrap();
                let u = materialize_stream(&fs, &prefix, &r.manifest, "u").unwrap();
                (r, u)
            } else {
                (restore(&spec, true, &fs, full).unwrap(), stream(&fs, &prefix).unwrap())
            };
            assert_eq!(r.iter, Some(NLINKS), "{stem}: segment lost the control state");
            last.push((stem, u, r.checksum));
        }
        let (stem0, u0, sum0) = &last[0];
        for (stem, u, sum) in &last[1..] {
            assert!(u == u0, "{stem}'s last `u` stream differs from {stem0}'s");
            assert_eq!(sum, sum0, "{stem} restores another state than {stem0}");
        }
    }
}
