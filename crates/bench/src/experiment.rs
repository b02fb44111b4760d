//! The shared checkpoint/restart experiment: run an application to its
//! mid-point on `P` of the 16 processors, checkpoint, then restart.
//!
//! Every row that runs a mini-application goes through the two
//! incarnations of one [`Experiment`]: the fresh start → warm-up
//! iterations → checkpoint of [`Experiment::checkpoint`] (or
//! [`Experiment::checkpoint_tier`]) and the cold restart of
//! [`Experiment::restart`]. They vary only in what the rows vary: a parity
//! file system, a recorder per incarnation, a PIOFS or memory-tier + spill
//! checkpoint, and a PIOFS or memory-tier restart [`Source`].

use std::sync::Arc;

use drms_apps::{AppSpec, AppVariant, Class, MiniApp};
use drms_core::report::OpBreakdown;
use drms_core::segment::SegmentAnatomy;
use drms_core::{Drms, EnableFlag, VerifyReport};
use drms_memtier::MemTier;
use drms_msg::{run_spmd_traced, CostModel, Ctx, SpmdError};
use drms_obs::{NullRecorder, Recorder, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig};
use drms_resil::verify_checkpoint;

/// Number of nodes in the simulated system (fixed, like the paper's SP).
pub const SYSTEM_NODES: usize = 16;

/// The prefix every experiment checkpoints to and restarts from.
const MID: &str = "ck/mid";

/// The configuration of [`experiment_fs`].
fn config(class: Class) -> PiofsConfig {
    let cfg = PiofsConfig::sp_1997().scale_memory(class.memory_scale());
    debug_assert_eq!(cfg.n_servers, SYSTEM_NODES);
    cfg
}

/// A file system configured like the paper's PIOFS, with memory parameters
/// scaled to the class so thresholds are preserved at reduced scale.
pub fn experiment_fs(class: Class, seed: u64) -> Arc<Piofs> {
    Piofs::new(config(class), seed)
}

/// Where a restart incarnation loads the mid-point checkpoint from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// The PIOFS files: the paper's restart.
    Piofs,
    /// The resident pieces of a memory tier the checkpoint was stored in.
    Tier(&'a MemTier),
}

/// One application's checkpoint/restart experiment on a seeded file system
/// of its own, the application binary installed.
pub struct Experiment {
    spec: AppSpec,
    variant: AppVariant,
    fs: Arc<Piofs>,
}

impl Experiment {
    /// `spec` run as `variant` on a fresh paper-configured PIOFS seeded
    /// `seed`, with RAID-5-style rotating parity when `parity` is set.
    pub fn new(spec: &AppSpec, variant: AppVariant, seed: u64, parity: bool) -> Experiment {
        let cfg = config(spec.class);
        let fs = Piofs::new(if parity { cfg.with_parity() } else { cfg }, seed);
        Drms::install_binary(&fs, &spec.drms_config());
        Experiment { spec: spec.clone(), variant, fs }
    }

    /// The first incarnation: a fresh start on `pes` tasks, `warm_iters`
    /// solver iterations (the run to the mid-point), then `save` on every
    /// task, the tasks reporting to `rec`. Results come in rank order.
    fn fresh<T: Send>(
        &self,
        pes: usize,
        rec: Option<&Arc<TraceRecorder>>,
        warm_iters: i64,
        save: impl Fn(&mut Ctx, &mut MiniApp) -> T + Sync,
    ) -> Result<Vec<T>, SpmdError> {
        run_spmd_traced(pes, CostModel::default(), recorder(rec), |ctx| {
            let mut app = MiniApp::start(
                ctx,
                &self.fs,
                self.spec.clone(),
                self.variant,
                EnableFlag::new(),
                None,
            )
            .expect("fresh start");
            for _ in 0..warm_iters {
                app.step(ctx);
            }
            save(ctx, &mut app)
        })
    }

    /// The first incarnation checkpointing to PIOFS with the variant's
    /// scheme: rank 0's phase breakdown.
    pub fn checkpoint(
        &self,
        pes: usize,
        rec: Option<&Arc<TraceRecorder>>,
        warm_iters: i64,
    ) -> Result<OpBreakdown, SpmdError> {
        let reports = self.fresh(pes, rec, warm_iters, |ctx, app| {
            app.checkpoint(ctx, &self.fs, MID).expect("checkpoint")
        })?;
        Ok(reports[0])
    }

    /// The first incarnation checkpointing, after one iteration, into
    /// `tier` with a verified spill to PIOFS: rank 0's store and spill
    /// seconds.
    pub fn checkpoint_tier(
        &self,
        pes: usize,
        rec: Option<&Arc<TraceRecorder>>,
        tier: &MemTier,
    ) -> Result<(f64, f64), SpmdError> {
        let reports = self.fresh(pes, rec, 1, |ctx, app| {
            let (store, spill) =
                app.checkpoint_memtier(ctx, &self.fs, tier, MID).expect("tier checkpoint");
            (store.seconds, spill.seconds)
        })?;
        Ok(reports[0])
    }

    /// Rank 0's data-segment anatomy right after a fresh start on `pes`
    /// tasks (Table 4).
    pub fn anatomy(&self, pes: usize) -> Result<SegmentAnatomy, SpmdError> {
        Ok(self.fresh(pes, None, 0, |_, app| app.segment_anatomy())?[0])
    }

    /// The second incarnation: the file system forgets the first (memory
    /// residency and busy horizons), then `pes` tasks restart from the
    /// mid-point out of `source`, reporting to `rec`. Rank 0's breakdown.
    pub fn restart(
        &self,
        pes: usize,
        rec: Option<&Arc<TraceRecorder>>,
        source: Source,
    ) -> Result<OpBreakdown, SpmdError> {
        self.fs.clear_residency();
        self.fs.reset_time();
        let reports = run_spmd_traced(pes, CostModel::default(), recorder(rec), |ctx| {
            let spec = self.spec.clone();
            let enable = EnableFlag::new();
            let app = match source {
                Source::Piofs => {
                    MiniApp::start(ctx, &self.fs, spec, self.variant, enable, Some(MID))
                        .expect("restart")
                }
                Source::Tier(tier) => {
                    MiniApp::start_memtier(ctx, &self.fs, tier, spec, enable, MID)
                        .expect("tier restart")
                }
            };
            app.restart_report.expect("restarted")
        })?;
        Ok(reports[0])
    }

    /// Kills PIOFS server `server` and re-verifies the checkpoint
    /// end-to-end against its manifest checksums.
    pub fn kill_server(&self, server: usize) -> VerifyReport {
        self.fs.fail_server(server);
        verify_checkpoint(&self.fs, MID, &NullRecorder, 0.0)
    }

    /// All bytes the checkpoint left on PIOFS.
    fn state_bytes(&self) -> u64 {
        self.fs.total_bytes(&format!("{MID}/"))
    }
}

fn recorder(rec: Option<&Arc<TraceRecorder>>) -> Arc<dyn Recorder> {
    match rec {
        Some(rec) => Arc::clone(rec) as Arc<dyn Recorder>,
        None => Arc::new(NullRecorder),
    }
}

/// Measurements from one checkpoint + restart cycle.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Checkpoint phase breakdown.
    pub ckpt: OpBreakdown,
    /// Restart phase breakdown.
    pub restart: OpBreakdown,
    /// Total size of the saved state on the file system.
    pub state_bytes: u64,
}

/// Runs one seeded checkpoint/restart experiment: `spec` on `pes`
/// processors, `warm_iters` solver iterations (the "mid-point"),
/// checkpoint, then a fresh incarnation restarting from it on the same
/// processor count (the Table 5 protocol).
pub fn run_pair(
    spec: &AppSpec,
    variant: AppVariant,
    pes: usize,
    seed: u64,
    warm_iters: i64,
) -> Result<PairResult, SpmdError> {
    let exp = Experiment::new(spec, variant, seed, false);
    let ckpt = exp.checkpoint(pes, None, warm_iters)?;
    let state_bytes = exp.state_bytes();
    let restart = exp.restart(pes, None, Source::Piofs)?;
    Ok(PairResult { ckpt, restart, state_bytes })
}

/// One operation of a [`traced_cycle`].
pub struct TracedOp {
    /// `"checkpoint"` or `"restart"`.
    pub op: &'static str,
    /// The recorder that saw this operation's incarnation and nothing else.
    pub rec: Arc<TraceRecorder>,
    /// The breakdown the operation reported (rank 0).
    pub report: OpBreakdown,
}

/// One DRMS checkpoint (after one iteration) and restart of `spec` on
/// `pes` tasks, on a PIOFS seeded `seed`, each incarnation under a fresh
/// [`TraceRecorder`] so each trace covers exactly one operation.
pub fn traced_cycle(spec: &AppSpec, pes: usize, seed: u64) -> Result<[TracedOp; 2], SpmdError> {
    let exp = Experiment::new(spec, AppVariant::Drms, seed, false);
    let rec = Arc::new(TraceRecorder::new());
    let report = exp.checkpoint(pes, Some(&rec), 1)?;
    let checkpoint = TracedOp { op: "checkpoint", rec, report };
    let rec = Arc::new(TraceRecorder::new());
    let report = exp.restart(pes, Some(&rec), Source::Piofs)?;
    Ok([checkpoint, TracedOp { op: "restart", rec, report }])
}

/// Saved-state sizes only (Table 3): cheaper than a timed pair because no
/// restart is needed.
pub fn run_state_size(
    spec: &AppSpec,
    variant: AppVariant,
    pes: usize,
) -> Result<SavedState, SpmdError> {
    let exp = Experiment::new(spec, variant, 1, false);
    let report = exp.checkpoint(pes, None, 0)?;
    let segment_file = match variant {
        AppVariant::Drms => "segment",
        AppVariant::Spmd => "task-0",
    };
    Ok(SavedState {
        total: exp.state_bytes(),
        segment_component: report.segment_bytes,
        array_component: report.array_bytes,
        per_task_file: exp.fs.size(&format!("{MID}/{segment_file}")).unwrap_or(0),
    })
}

/// Size decomposition of one saved state.
#[derive(Debug, Clone, Copy)]
pub struct SavedState {
    /// All bytes under the checkpoint prefix.
    pub total: u64,
    /// The data-segment component (one file for DRMS, sum for SPMD).
    pub segment_component: u64,
    /// The distributed-array component (zero for SPMD).
    pub array_component: u64,
    /// Size of one segment file.
    pub per_task_file: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_apps::{bt, sp};

    #[test]
    fn pair_produces_positive_times() {
        let spec = sp(Class::T);
        let r = run_pair(&spec, AppVariant::Drms, 4, 42, 1).unwrap();
        assert!(r.ckpt.total() > 0.0);
        assert!(r.restart.total() > 0.0);
        assert!(r.restart.init > 0.0, "restart includes text load");
        assert!(r.state_bytes > 0);
        assert_eq!(r.ckpt.array_bytes, spec.stream_bytes());
    }

    #[test]
    fn seeds_jitter_times_but_not_sizes() {
        let spec = bt(Class::T);
        let a = run_pair(&spec, AppVariant::Drms, 4, 1, 0).unwrap();
        let b = run_pair(&spec, AppVariant::Drms, 4, 2, 0).unwrap();
        assert_ne!(a.ckpt.total(), b.ckpt.total());
        assert_eq!(a.state_bytes, b.state_bytes);
        let a2 = run_pair(&spec, AppVariant::Drms, 4, 1, 0).unwrap();
        assert_eq!(a.ckpt.total(), a2.ckpt.total(), "same seed, same times");
    }

    #[test]
    fn state_size_drms_vs_spmd() {
        let spec = bt(Class::T);
        let d = run_state_size(&spec, AppVariant::Drms, 4).unwrap();
        let s = run_state_size(&spec, AppVariant::Spmd, 4).unwrap();
        assert!(d.array_component > 0);
        assert_eq!(s.array_component, 0);
        // SPMD state at 4 tasks is roughly 4 x one segment; DRMS is one
        // segment + arrays.
        assert!(s.total > d.total);
        assert!((s.total as f64 / s.per_task_file as f64 - 4.0).abs() < 0.1);
    }
}
