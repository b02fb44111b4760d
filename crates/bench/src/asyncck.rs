//! The asynchronous-pipeline campaign behind the `async` gate
//! ([`scenario`]) and its unit tests: the same solver-suite workload run three ways —
//! no checkpoints (the compute floor), blocking
//! [`Drms::reconfig_checkpoint`]s, and overlapped checkpoints through the
//! [`AsyncCheckpointer`] — at the same interval, so the checkpoint stall
//! of each strategy is exactly its wall time over the floor.
//!
//! The interval is calibrated: one blocking checkpoint is timed first and
//! every iteration then charges `compute_factor x` that much compute, so
//! the flush of one snapshot always fits under the next interval's
//! compute and the async stall collapses to the snapshot captures (plus
//! the tail drain's residual). Blocking pays the full I/O time per
//! checkpoint at the same cadence — the gap the gate measures.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use drms_apps::{bt, lu, sp, AppSpec};
use drms_async::{AsyncCheckpointer, AsyncConfig, AsyncReport};
use drms_core::manifest::array_path;
use drms_core::{Drms, EnableFlag, Start};
use drms_darray::{for_each_region_index, DistArray};
use drms_msg::{run_spmd, CostModel, Ctx, SpmdError};
use drms_slices::Order;

use crate::args::Options;
use crate::experiment::experiment_fs;
use crate::gate::{Gate, GateArgs, GateOutput};
use crate::json::BenchResult;
use crate::table::render;

/// Checkpoints per run (one per iteration).
pub const NCKPTS: i64 = 6;

/// The flusher-timeline artefact (CI uploads it under this name).
pub const TIMELINE_FILE: &str = "TIMELINE_async.txt";

/// Tasks taking the checkpoints.
pub const CKPT_TASKS: usize = 4;

/// Tasks restoring the committed state — different on purpose, so the
/// restore leg also proves task-count independence of the async commit.
pub const RESTORE_TASKS: usize = 6;

/// Inputs of one campaign.
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

impl FlightRow {
    fn from_report(prefix: &str, r: &AsyncReport) -> FlightRow {
        FlightRow {
            prefix: prefix.to_string(),
            sop: r.sop,
            t_snap: r.finish - r.lag,
            start: r.finish - r.flush_seconds,
            finish: r.finish,
            bytes: r.bytes,
        }
    }
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
    /// Critical-path seconds the async runs spent capturing snapshots.
    pub snapshot_s: f64,
    /// Backpressure engagements of the async run.
    pub backpressure_stalls: u64,
    /// The async run's flusher timeline.
    pub flights: Vec<FlightRow>,
    /// Checksum of the state restored from the last blocking checkpoint.
    pub blocking_checksum: f64,
    /// Checksum of the state restored from the last async checkpoint.
    pub async_checksum: f64,
    /// Whether the last async commit's `u` stream file is bitwise
    /// identical to the last blocking checkpoint's.
    pub streams_bitwise_equal: bool,
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

/// Initial value of `u` at `p` (any deterministic non-constant field).
fn u0(p: &[i64]) -> f64 {
    (p[0] * 31 + p[1] * 7 + p[2] * 3 + p[3]) as f64 * 0.5
}

fn field(spec: &AppSpec, ctx: &Ctx) -> DistArray<f64> {
    let fu = spec.fields[0].clone();
    let mut u =
        DistArray::<f64>::new("u", Order::ColumnMajor, spec.dist(&fu, ctx.ntasks()), ctx.rank());
    u.fill_assigned(u0);
    u
}

/// One iteration of "solver" work: touch a moving quarter-window of the
/// z-extent, then charge the calibrated compute time.
fn advance(grid: i64, u: &mut DistArray<f64>, iter: i64, ctx: &mut Ctx, compute_s: f64) {
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

/// Runs the blocking-vs-async campaign for one application. Deterministic
/// per (`spec`, `params`).
pub fn run_campaign(spec: &AppSpec, params: &AsyncParams) -> Result<AsyncCampaign, SpmdError> {
    let grid = spec.grid() as i64;
    assert!(grid % 4 == 0, "window needs four z-zones");
    let cfg = spec.drms_config();

    // --- calibration: one blocking checkpoint, timed --------------------
    let fs_cal = experiment_fs(spec.class, params.seed);
    Drms::install_binary(&fs_cal, &cfg);
    let (spec_c, cfg_c, fs_c) = (spec.clone(), cfg.clone(), Arc::clone(&fs_cal));
    let t_io = run_spmd(CKPT_TASKS, CostModel::default(), move |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs_c, cfg_c.clone(), EnableFlag::new(), None).unwrap();
        let u = field(&spec_c, ctx);
        let seg = drms_core::segment::DataSegment::new();
        let before = ctx.now();
        drms.reconfig_checkpoint(ctx, &fs_c, "cal/c1", &seg, &[&u]).unwrap();
        ctx.barrier();
        ctx.now() - before
    })?[0];
    let compute_s = params.compute_factor * t_io;

    // --- floor: same workload, no checkpoints ---------------------------
    let fs_none = experiment_fs(spec.class, params.seed);
    Drms::install_binary(&fs_none, &cfg);
    let (spec_c, cfg_c, fs_c) = (spec.clone(), cfg.clone(), Arc::clone(&fs_none));
    let wall_none = run_spmd(CKPT_TASKS, CostModel::default(), move |ctx| {
        let (_drms, _) =
            Drms::initialize(ctx, &fs_c, cfg_c.clone(), EnableFlag::new(), None).unwrap();
        let mut u = field(&spec_c, ctx);
        for iter in 1..=NCKPTS {
            advance(grid, &mut u, iter, ctx, compute_s);
        }
        ctx.charge(compute_s); // tail interval, shared by all three runs
        ctx.barrier();
        ctx.now()
    })?[0];

    // --- blocking: one reconfig_checkpoint per interval -----------------
    let fs_blk = experiment_fs(spec.class, params.seed);
    Drms::install_binary(&fs_blk, &cfg);
    let (spec_c, cfg_c, fs_c) = (spec.clone(), cfg.clone(), Arc::clone(&fs_blk));
    let wall_blocking = run_spmd(CKPT_TASKS, CostModel::default(), move |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs_c, cfg_c.clone(), EnableFlag::new(), None).unwrap();
        let mut u = field(&spec_c, ctx);
        let mut seg = drms_core::segment::DataSegment::new();
        for iter in 1..=NCKPTS {
            advance(grid, &mut u, iter, ctx, compute_s);
            seg.set_control("iter", iter);
            drms.reconfig_checkpoint(ctx, &fs_c, &format!("blk/b{iter}"), &seg, &[&u]).unwrap();
        }
        ctx.charge(compute_s);
        ctx.barrier();
        ctx.now()
    })?[0];

    // --- async: same interval, overlapped flush, drained tail -----------
    let fs_async = experiment_fs(spec.class, params.seed);
    Drms::install_binary(&fs_async, &cfg);
    let (spec_c, cfg_c, fs_c) = (spec.clone(), cfg.clone(), Arc::clone(&fs_async));
    let budget = params.budget;
    let collected: Arc<Mutex<(Vec<FlightRow>, f64, u64)>> = Arc::default();
    let collected_c = Arc::clone(&collected);
    let wall_async = run_spmd(CKPT_TASKS, CostModel::default(), move |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs_c, cfg_c.clone(), EnableFlag::new(), None).unwrap();
        let mut u = field(&spec_c, ctx);
        let mut seg = drms_core::segment::DataSegment::new();
        let mut ck = AsyncCheckpointer::new(AsyncConfig { budget });
        let mut rows = Vec::new();
        let mut snapshot_s = 0.0;
        for iter in 1..=NCKPTS {
            advance(grid, &mut u, iter, ctx, compute_s);
            seg.set_control("iter", iter);
            let prefix = format!("as/a{iter}");
            let r = ck.checkpoint(ctx, &fs_c, &mut drms, &prefix, &seg, &[&u], None).unwrap();
            snapshot_s += r.snapshot_seconds;
            rows.push(FlightRow::from_report(&prefix, &r));
        }
        ctx.charge(compute_s);
        ck.drain(ctx);
        ctx.barrier();
        if ctx.rank() == 0 {
            *collected_c.lock().unwrap() = (rows, snapshot_s, ck.stalls());
        }
        ctx.now()
    })?[0];
    let (flights, snapshot_s, backpressure_stalls) =
        Arc::try_unwrap(collected).expect("run finished").into_inner().unwrap();

    // --- restore leg: both strategies, on a different task count --------
    let last_blk = format!("blk/b{NCKPTS}");
    let last_async = format!("as/a{NCKPTS}");
    let blocking_checksum = restore_checksum(spec, &fs_blk, &last_blk)?;
    let async_checksum = restore_checksum(spec, &fs_async, &last_async)?;

    // Bitwise check of the canonical `u` stream file.
    let blk_stream = fs_blk.peek(&array_path(&last_blk, "u")).expect("blocking stream file");
    let async_stream = fs_async.peek(&array_path(&last_async, "u")).expect("async stream file");
    let streams_bitwise_equal = blk_stream == async_stream;

    Ok(AsyncCampaign {
        t_io,
        compute_s,
        wall_none,
        wall_blocking,
        wall_async,
        snapshot_s,
        backpressure_stalls,
        flights,
        blocking_checksum,
        async_checksum,
        streams_bitwise_equal,
    })
}

/// Restores `prefix` on [`RESTORE_TASKS`] tasks through the unmodified
/// blocking restore path and returns the state checksum — an async commit
/// is indistinguishable from a blocking one at restart.
fn restore_checksum(
    spec: &AppSpec,
    fs: &Arc<drms_piofs::Piofs>,
    prefix: &str,
) -> Result<f64, SpmdError> {
    fs.clear_residency();
    fs.reset_time();
    let (spec_c, cfg_c, fs_c, pfx) =
        (spec.clone(), spec.drms_config(), Arc::clone(fs), prefix.to_string());
    Ok(run_spmd(RESTORE_TASKS, CostModel::default(), move |ctx| {
        let (drms, start) =
            Drms::initialize(ctx, &fs_c, cfg_c.clone(), EnableFlag::new(), Some(&pfx)).unwrap();
        let Start::Restarted(info) = start else { panic!("expected restart") };
        let mut u = field(&spec_c, ctx);
        drms.restore_arrays(ctx, &fs_c, &pfx, &info.manifest, &mut [&mut u]).unwrap();
        assert_eq!(info.segment.control("iter"), Some(NCKPTS), "segment lost the control state");
        u.fold_assigned(0.0, |acc, _, v| acc + v)
    })?[0])
}

/// The `async` row of the gate table: for each application of the solver
/// suite the campaign runs twice (it must be deterministic), the per-app
/// hard gates of `checks` are collected on `gate`, the headline numbers
/// are tabulated and the per-flight flusher timeline is rendered as the
/// `TIMELINE_async.txt` artefact. Takes `--class` (default A).
pub fn scenario(args: &GateArgs, gate: &mut Gate) -> GateOutput {
    let class = Options::default().parse("async", &["--class"], &args.rest).class;
    let params = AsyncParams { seed: args.seed, ..AsyncParams::default() };
    println!("Async bench — overlapped vs blocking checkpointing, class {class}");
    println!(
        "checkpoint on {CKPT_TASKS} tasks, restore on {RESTORE_TASKS}; budget {}, \
         compute/interval {:.1}x the blocking checkpoint\n",
        params.budget, params.compute_factor
    );

    let specs: Vec<AppSpec> = vec![bt(class), lu(class), sp(class)];
    let mut result = BenchResult::new("async");
    result.param("class", class);
    result.param("budget", params.budget);
    result.param("compute_factor", params.compute_factor);
    result.param("seed", params.seed);
    result.stamp_header(params.seed, CKPT_TASKS);

    let mut rows = Vec::new();
    let mut timeline = String::new();
    for spec in &specs {
        let c = run_campaign(spec, &params).expect("campaign run");
        let c2 = run_campaign(spec, &params).expect("campaign rerun");
        gate.check(
            c == c2,
            format!("{}: campaign is nondeterministic ({c:?} vs {c2:?})", spec.name),
        );
        checks(gate, spec, &c);
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.4}", c.t_io),
            format!("{:.3}", c.wall_none),
            format!("{:.3}", c.wall_blocking),
            format!("{:.3}", c.wall_async),
            format!("{:.4}", c.stall_blocking()),
            format!("{:.4}", c.stall_async()),
            format!("{:.1}x", c.stall_reduction()),
            format!("{:.1}%", 100.0 * c.overlap_fraction()),
        ]);
        let n = spec.name;
        result.metric(&format!("{n}_t_io_s"), c.t_io);
        result.metric(&format!("{n}_wall_none_s"), c.wall_none);
        result.metric(&format!("{n}_wall_blocking_s"), c.wall_blocking);
        result.metric(&format!("{n}_wall_async_s"), c.wall_async);
        result.metric(&format!("{n}_stall_blocking_s"), c.stall_blocking());
        result.metric(&format!("{n}_stall_async_s"), c.stall_async());
        result.metric(&format!("{n}_stall_reduction"), c.stall_reduction());
        result.metric(&format!("{n}_overlap_fraction"), c.overlap_fraction());
        append_timeline(&mut timeline, spec, &c);
    }

    let header = vec![
        "app",
        "t_io s",
        "floor s",
        "blocking s",
        "async s",
        "stall blk s",
        "stall async s",
        "reduction",
        "overlap",
    ];
    println!("{}", render(&header, &rows));

    GateOutput { result, artefacts: vec![(TIMELINE_FILE.into(), timeline)] }
}

/// One flush-timeline block per app: prefix, SOP, and the arm/start/
/// finish virtual timestamps of every flight, in arming order.
fn append_timeline(out: &mut String, spec: &AppSpec, c: &AsyncCampaign) {
    writeln!(out, "# {} — flusher timeline (virtual seconds)", spec.name).unwrap();
    writeln!(out, "# prefix sop t_snap start finish bytes").unwrap();
    for f in &c.flights {
        writeln!(
            out,
            "{} {} {:.6} {:.6} {:.6} {}",
            f.prefix, f.sop, f.t_snap, f.start, f.finish, f.bytes
        )
        .unwrap();
    }
    out.push('\n');
}

/// Per-app hard gates (beyond determinism and the baseline comparison).
fn checks(gate: &mut Gate, spec: &AppSpec, c: &AsyncCampaign) {
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
    use drms_apps::{sp, Class};

    #[test]
    fn campaign_hides_the_flush_and_restores_bitwise() {
        let params = AsyncParams::default();
        let c = run_campaign(&sp(Class::T), &params).unwrap();
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
        let c2 = run_campaign(&sp(Class::T), &params).unwrap();
        assert_eq!(c, c2);
    }
}
