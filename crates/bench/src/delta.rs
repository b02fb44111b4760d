//! The incremental-checkpointing campaign behind the `delta` gate
//! ([`scenario`]) and its unit tests: the same solver-suite workload checkpointed
//! twice — once with full [`Drms::reconfig_checkpoint`]s, once as a delta
//! chain — then restored on a *different* task count through both paths.
//!
//! The workload is the primary field `u` of each application plus its
//! `forcing` term. `u` receives a moving window of updates covering a
//! quarter of the z-extent per iteration (so roughly a quarter of each
//! delta is dirty), while `forcing` is constant after setup — the
//! Section 6 case incremental checkpointing exists for.

use std::sync::Arc;

use drms_apps::{bt, lu, sp, AppSpec, Class};
use drms_core::manifest::array_path;
use drms_core::restore::{self, PiofsFull, RestartSource};
use drms_core::{
    find_checkpoints, read_manifest_collective, sweep_orphans, verify, CheckpointArray, CoreError,
    Drms, EnableFlag,
};
use drms_darray::DistArray;
use drms_delta::{delta_checkpoint, materialize_stream, DeltaChain, DeltaConfig, DeltaSource};
use drms_msg::{run_spmd, CostModel, Ctx, SpmdError};
use drms_piofs::Piofs;
use drms_slices::{Order, Slice};

use crate::args::Options;
use crate::experiment::experiment_fs;
use crate::gate::{Gate, GateArgs, GateOutput};
use crate::json::BenchResult;
use crate::table::{mb, render};

/// Checkpoint links per campaign (the moving window cycles through four
/// zones, so every link after the first sees exactly one zone dirty).
pub const NLINKS: i64 = 4;

/// Tasks taking the checkpoints.
pub const CKPT_TASKS: usize = 4;

/// Tasks restoring them — deliberately different, and not a divisor
/// relationship, so the restore leg also proves task-count independence.
pub const RESTORE_TASKS: usize = 6;

/// Inputs of one campaign.
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
    /// Dirty chunks re-stored across the chain.
    pub dirty_chunks: u64,
    /// Chunks carried forward by reference.
    pub clean_chunks: u64,
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

/// The moving update window: iteration `iter` touches the points whose
/// z-coordinate falls in zone `(iter - 1) % 4` of four equal zones. The
/// z axis is the slowest in the canonical `ColumnMajor` stream, so each
/// window is one contiguous quarter of the stream.
fn touched(grid: i64, p: &[i64], iter: i64) -> bool {
    (p[3] - 1) / (grid / 4) == (iter - 1) % 4
}

/// Initial value of `u` at `p` (any deterministic non-constant field).
fn u0(p: &[i64]) -> f64 {
    (p[0] * 31 + p[1] * 7 + p[2] * 3 + p[3]) as f64 * 0.5
}

/// The constant forcing term.
fn forcing0(p: &[i64]) -> f64 {
    (p[0] % 2) as f64 * 0.125
}

fn fields(spec: &AppSpec, ctx: &Ctx) -> (DistArray<f64>, DistArray<f64>) {
    let fu = spec.fields[0].clone();
    let mut u =
        DistArray::<f64>::new("u", Order::ColumnMajor, spec.dist(&fu, ctx.ntasks()), ctx.rank());
    u.fill_assigned(u0);
    let mut forcing = DistArray::<f64>::new(
        "forcing",
        Order::ColumnMajor,
        spec.dist(&fu, ctx.ntasks()),
        ctx.rank(),
    );
    forcing.fill_assigned(forcing0);
    (u, forcing)
}

fn advance(grid: i64, u: &mut DistArray<f64>, iter: i64) {
    let region: Slice = u.assigned().clone();
    region.points(Order::ColumnMajor).for_each(|p| {
        if touched(grid, p, iter) {
            let v = u.get(p).unwrap();
            u.set(p, v + 0.25).unwrap();
        }
    });
}

/// One restart procedure, whichever source: restore time, state checksum
/// and the control variable, as rank 0 saw them.
fn restore_leg<S: RestartSource<Error = CoreError> + Sync>(
    spec: &AppSpec,
    fs: &Piofs,
    src: S,
) -> Result<(f64, f64, Option<i64>), SpmdError> {
    fs.clear_residency();
    fs.reset_time();
    let restores = run_spmd(RESTORE_TASKS, CostModel::default(), |ctx| {
        let (drms, info) =
            restore::open(ctx, fs, spec.drms_config(), EnableFlag::new(), &src).unwrap();
        let (mut u, mut forcing) = fields(spec, ctx);
        let arrays: &mut [&mut dyn CheckpointArray] = &mut [&mut u, &mut forcing];
        let t = restore::restore_arrays(&drms, ctx, &src, &info.manifest, arrays).unwrap();
        let sum = u.fold_assigned(0.0, |acc, _, v| acc + v)
            + forcing.fold_assigned(0.0, |acc, _, v| acc + v);
        (t, sum, info.segment.control("iter"))
    })?;
    Ok(restores[0])
}

/// Runs the full-vs-delta campaign for one application. Deterministic per
/// (`spec`, `params`): byte totals are exact and simulated times depend
/// only on the seed.
pub fn run_campaign(spec: &AppSpec, params: &DeltaParams) -> Result<DeltaCampaign, SpmdError> {
    let grid = spec.grid() as i64;
    assert!(grid % 4 == 0, "window needs four z-zones");
    let cfg = spec.drms_config();
    let dcfg = DeltaConfig {
        chunk_bytes: params.chunk_bytes,
        full_every: params.full_every,
        compress: true,
    };

    // --- full campaign: one mandatory checkpoint per link ---------------
    let fs_full = experiment_fs(spec.class, params.seed);
    Drms::install_binary(&fs_full, &cfg);
    let (spec_c, cfg_c, fs_c) = (spec.clone(), cfg.clone(), Arc::clone(&fs_full));
    let full = run_spmd(CKPT_TASKS, CostModel::default(), move |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs_c, cfg_c.clone(), EnableFlag::new(), None).unwrap();
        let (mut u, forcing) = fields(&spec_c, ctx);
        let mut seg = drms_core::segment::DataSegment::new();
        let mut bytes = 0u64;
        for iter in 1..=NLINKS {
            advance(grid, &mut u, iter);
            seg.set_control("iter", iter);
            let b = drms
                .reconfig_checkpoint(ctx, &fs_c, &format!("full/f{iter}"), &seg, &[&u, &forcing])
                .unwrap();
            bytes += b.array_bytes;
        }
        bytes
    })?;
    let full_bytes = full[0];
    let full_state_bytes = fs_full.total_bytes("full/");

    // --- delta campaign: same state, one chain link per checkpoint ------
    let fs_delta = experiment_fs(spec.class, params.seed);
    Drms::install_binary(&fs_delta, &cfg);
    let (spec_c, cfg_c, fs_c) = (spec.clone(), cfg.clone(), Arc::clone(&fs_delta));
    let reports = run_spmd(CKPT_TASKS, CostModel::default(), move |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs_c, cfg_c.clone(), EnableFlag::new(), None).unwrap();
        let (mut u, forcing) = fields(&spec_c, ctx);
        let mut seg = drms_core::segment::DataSegment::new();
        let mut chain = DeltaChain::new();
        let mut out = Vec::new();
        for iter in 1..=NLINKS {
            advance(grid, &mut u, iter);
            seg.set_control("iter", iter);
            let r = delta_checkpoint(
                &mut drms,
                &mut chain,
                &dcfg,
                ctx,
                &fs_c,
                &format!("delta/d{iter}"),
                &seg,
                &[&u, &forcing],
            )
            .unwrap();
            out.push(r);
        }
        out
    })?;
    // Chunk statistics live on the representative task (rank 0).
    let reports = &reports[0];
    let delta_bytes: u64 = reports.iter().map(|r| r.pack_bytes).sum();
    let delta_state_bytes = fs_delta.total_bytes("delta/");

    // The retention/orphan machinery must leave the chain restorable: the
    // sweep reclaims nothing reachable from a committed manifest.
    sweep_orphans(&fs_delta);
    for (prefix, _) in find_checkpoints(&fs_delta, Some(&cfg.app)) {
        assert!(verify(&fs_delta, &prefix).is_valid(), "sweep broke {prefix:?}");
    }

    // --- restore leg: both paths, on a different task count -------------
    let last_full = format!("full/f{NLINKS}");
    let last_delta = format!("delta/d{NLINKS}");

    let (full_restore_s, full_checksum, full_iter) =
        restore_leg(spec, &fs_full, PiofsFull { fs: &fs_full, prefix: &last_full })?;
    let (delta_restore_s, delta_checksum, delta_iter) = restore_leg(
        spec,
        &fs_delta,
        DeltaSource(PiofsFull { fs: &fs_delta, prefix: &last_delta }),
    )?;
    assert_eq!(full_iter, Some(NLINKS), "full segment lost the control state");
    assert_eq!(delta_iter, Some(NLINKS), "delta segment lost the control state");

    // Bitwise check of the canonical `u` stream: materializing the last
    // delta link must reproduce the last full checkpoint's stream file.
    let manifest = {
        let fs_c = Arc::clone(&fs_delta);
        let pfx = last_delta.clone();
        run_spmd(1, CostModel::default(), move |ctx| {
            read_manifest_collective(ctx, &fs_c, &pfx).unwrap()
        })?
        .remove(0)
    };
    let materialized = materialize_stream(&fs_delta, &last_delta, &manifest, "u").unwrap();
    let full_stream = fs_full.peek(&array_path(&last_full, "u")).expect("full stream file");
    let streams_bitwise_equal = materialized == full_stream;

    Ok(DeltaCampaign {
        full_bytes,
        delta_bytes,
        full_state_bytes,
        delta_state_bytes,
        dirty_chunks: reports.iter().map(|r| r.dirty_chunks).sum(),
        clean_chunks: reports.iter().map(|r| r.clean_chunks).sum(),
        dedup_hits: reports.iter().map(|r| r.dedup_hits).sum(),
        compressed_saved: reports.iter().map(|r| r.compressed_saved).sum(),
        chain_depth: reports.last().map(|r| r.chain_depth).unwrap_or(0),
        full_restore_s,
        delta_restore_s,
        full_checksum,
        delta_checksum,
        streams_bitwise_equal,
    })
}

/// Chunk size actually used: small classes shrink the streams below the
/// default 64 KiB integrity chunk, so they get a proportionally smaller
/// default; an explicit `--chunk-bytes` always wins.
fn effective_chunk(opts: &Options) -> u64 {
    if opts.chunk_bytes != 0 {
        return opts.chunk_bytes;
    }
    match opts.class {
        Class::T | Class::S => 1024,
        Class::W | Class::A => 0, // integrity chunk (stripe unit)
    }
}

/// The `delta` row of the gate table: for each application of the solver
/// suite the campaign runs twice (it must be deterministic), the per-app
/// hard gates of `checks` are collected on `gate`, and the headline
/// numbers are tabulated. Takes `--class` (default A), `--chunk-bytes` and
/// `--full-every`.
pub fn scenario(args: &GateArgs, gate: &mut Gate) -> GateOutput {
    let opts = Options::default().parse(
        "delta",
        &["--class", "--chunk-bytes", "--full-every"],
        &args.rest,
    );
    let class = opts.class;
    let params = DeltaParams {
        chunk_bytes: effective_chunk(&opts),
        full_every: opts.full_every,
        seed: args.seed,
    };
    let chunk = match params.chunk_bytes {
        0 => "integrity (stripe unit)".to_string(),
        b => format!("{b} B"),
    };
    println!("Delta bench — incremental vs full checkpointing, class {class}");
    println!(
        "checkpoint on {CKPT_TASKS} tasks, restore on {RESTORE_TASKS}; chunk {chunk}, full every {}\n",
        params.full_every
    );

    let specs: Vec<AppSpec> = vec![bt(class), lu(class), sp(class)];
    let mut result = BenchResult::new("delta");
    result.param("class", class);
    result.param("chunk_bytes", params.chunk_bytes);
    result.param("full_every", params.full_every);
    result.param("seed", params.seed);
    result.stamp_header(params.seed, CKPT_TASKS);

    let mut rows = Vec::new();
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
            format!("{:.2}", mb(c.full_bytes)),
            format!("{:.2}", mb(c.delta_bytes)),
            format!("{:.2}x", c.reduction()),
            format!("{}", c.dedup_hits),
            format!("{:.2}", mb(c.compressed_saved)),
            format!("{:.3}", c.full_restore_s),
            format!("{:.3}", c.delta_restore_s),
            format!("{:.2}x", c.restore_overhead()),
        ]);
        let n = spec.name;
        result.metric(&format!("{n}_full_mb"), mb(c.full_bytes));
        result.metric(&format!("{n}_delta_mb"), mb(c.delta_bytes));
        result.metric(&format!("{n}_reduction"), c.reduction());
        result.metric(&format!("{n}_dedup_hits"), c.dedup_hits as f64);
        result.metric(&format!("{n}_restore_full_s"), c.full_restore_s);
        result.metric(&format!("{n}_restore_delta_s"), c.delta_restore_s);
        result.metric(&format!("{n}_restore_overhead"), c.restore_overhead());
    }

    let header = vec![
        "app",
        "full MB",
        "delta MB",
        "reduction",
        "dedup",
        "saved MB",
        "restore full s",
        "restore delta s",
        "overhead",
    ];
    println!("{}", render(&header, &rows));

    GateOutput { result, artefacts: Vec::new() }
}

/// Per-app hard gates (beyond determinism and the baseline comparison).
fn checks(gate: &mut Gate, spec: &AppSpec, c: &DeltaCampaign) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use drms_apps::{sp, Class};

    #[test]
    fn campaign_reduces_bytes_and_restores_bitwise() {
        // Class T streams are tiny, so pick a chunk well under the window
        // size; the defaults only make sense from class W up.
        let params = DeltaParams { chunk_bytes: 1024, full_every: 8, seed: 5 };
        let c = run_campaign(&sp(Class::T), &params).unwrap();
        assert!(c.reduction() >= 2.0, "reduction {:.2} < 2x", c.reduction());
        assert!(c.delta_state_bytes < c.full_state_bytes);
        assert!(c.streams_bitwise_equal);
        assert_eq!(c.full_checksum, c.delta_checksum);
        assert_eq!(c.chain_depth, NLINKS as u64 - 1);
        assert!(c.dedup_hits > 0, "constant forcing term produced no dedup");
        assert!(c.compressed_saved > 0, "constant forcing term never compressed");
        assert!(c.full_restore_s > 0.0 && c.delta_restore_s > 0.0);

        // Determinism: the campaign is a pure function of spec and params.
        let c2 = run_campaign(&sp(Class::T), &params).unwrap();
        assert_eq!(c, c2);
    }
}
