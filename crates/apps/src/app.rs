//! The runnable mini-application: solver + checkpoint plumbing.

use drms_core::report::OpBreakdown;
use drms_core::segment::{DataSegment, RegionKind, SegmentAnatomy};
use drms_core::{spmd, CheckpointArray, CoreError, Drms, EnableFlag, RestartInfo, Start};
use drms_darray::DistArray;
use drms_memtier::{MemTier, SpillReport, StoreReport};
use drms_msg::Ctx;
use drms_piofs::Piofs;
use drms_slices::Order;

use crate::solver;
use crate::spec::AppSpec;

/// Which checkpointing scheme the application instance uses — the two
/// columns of Tables 3 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppVariant {
    /// Reconfigurable DRMS checkpointing (one segment + array streams).
    Drms,
    /// Conventional SPMD checkpointing (every task dumps its segment).
    Spmd,
}

/// One task's instance of a running mini-application.
pub struct MiniApp {
    spec: AppSpec,
    variant: AppVariant,
    drms: Drms,
    seg: DataSegment,
    fields: Vec<DistArray<f64>>,
    iter: i64,
    spmd_sop: u64,
    /// Breakdown of the restart that produced this instance, if any.
    pub restart_report: Option<OpBreakdown>,
}

impl MiniApp {
    /// Starts (or restarts) the application on the current SPMD region.
    ///
    /// This is the Figure 1 skeleton: `drms_initialize`, distributed-array
    /// declaration/distribution, and — on restart — state reload with
    /// `drms_adjust`-style redistribution when the task count changed.
    pub fn start(
        ctx: &mut Ctx,
        fs: &Piofs,
        spec: AppSpec,
        variant: AppVariant,
        enable: EnableFlag,
        restart_from: Option<&str>,
    ) -> Result<MiniApp, CoreError> {
        let cfg = spec.drms_config();

        // The task's resident set: what the node's memory ledger sees.
        fs.set_residency(ctx.node(), spec.expected_segment_bytes());

        let (drms, seg, fields, restart_report) = match variant {
            AppVariant::Drms => {
                let (drms, start) = Drms::initialize(ctx, fs, cfg, enable, restart_from)?;
                let mut fields = make_fields(&spec, ctx);
                match (start, restart_from) {
                    (Start::Restarted(info), Some(prefix)) => {
                        let arrays_time = drms.restore_arrays(
                            ctx,
                            fs,
                            prefix,
                            &info.manifest,
                            &mut handles_mut(&mut fields),
                        )?;
                        return Ok(MiniApp::restarted(ctx, spec, drms, *info, fields, arrays_time));
                    }
                    _ => {
                        fill_fresh(&mut fields);
                        (drms, shared_base_segment(ctx, &spec), fields, None)
                    }
                }
            }
            AppVariant::Spmd => {
                let (drms, _) = Drms::initialize(ctx, fs, cfg.clone(), enable, None)?;
                let mut fields = make_fields(&spec, ctx);
                match restart_from {
                    None => {
                        fill_fresh(&mut fields);
                        (drms, shared_base_segment(ctx, &spec), fields, None)
                    }
                    Some(prefix) => {
                        let (restored, report) = spmd::restart(ctx, fs, &cfg, prefix)?;
                        let locals = restored.region("local-sections").ok_or_else(|| {
                            CoreError::ManifestMismatch("SPMD segment lacks local sections".into())
                        })?;
                        drms_core::decode_locals(&mut handles_mut(&mut fields), &locals.bytes)?;
                        (drms, restored, fields, Some(report))
                    }
                }
            }
        };
        Ok(MiniApp::resuming(spec, variant, drms, seg, fields, restart_report))
    }

    /// The instance that resumes from the iteration `seg` records.
    fn resuming(
        spec: AppSpec,
        variant: AppVariant,
        drms: Drms,
        mut seg: DataSegment,
        fields: Vec<DistArray<f64>>,
        restart_report: Option<OpBreakdown>,
    ) -> MiniApp {
        let iter = seg.control("iter").unwrap_or(0);
        seg.set_control("iter", iter);
        MiniApp { spec, variant, drms, seg, fields, iter, spmd_sop: 0, restart_report }
    }

    /// The application spec.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// The running variant.
    pub fn variant(&self) -> AppVariant {
        self.variant
    }

    /// Completed iterations.
    pub fn iter(&self) -> i64 {
        self.iter
    }

    /// The distributed fields (primary solution first).
    pub fn fields(&self) -> &[DistArray<f64>] {
        &self.fields
    }

    /// This task's data segment, as the next checkpoint saves it (less the
    /// local-sections region the checkpoint assembles from the fields).
    pub fn segment(&self) -> &DataSegment {
        &self.seg
    }

    /// One solver iteration (collective).
    pub fn step(&mut self, ctx: &mut Ctx) {
        self.iter += 1;
        solver::step(ctx, &mut self.fields, self.iter);
        self.seg.set_control("iter", self.iter);
    }

    /// Takes a checkpoint under `prefix` using the variant's scheme
    /// (collective). Returns the phase breakdown.
    pub fn checkpoint(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        prefix: &str,
    ) -> Result<OpBreakdown, CoreError> {
        let handles: Vec<&dyn CheckpointArray> =
            self.fields.iter().map(|f| f as &dyn CheckpointArray).collect();
        match self.variant {
            AppVariant::Drms => self.drms.reconfig_checkpoint(ctx, fs, prefix, &self.seg, &handles),
            AppVariant::Spmd => {
                self.spmd_sop += 1;
                spmd::checkpoint(
                    ctx,
                    fs,
                    self.drms.cfg(),
                    prefix,
                    &self.seg,
                    &handles,
                    self.spmd_sop,
                )
            }
        }
    }

    /// Takes a diskless checkpoint into the memory tier (collective): the
    /// same canonical streams `checkpoint` would write to PIOFS are kept
    /// resident and replicated across nodes, then persisted to the exact
    /// PIOFS files the direct path would have produced, verified end-to-end.
    /// DRMS variant only (the tier stores distribution-independent streams,
    /// which the SPMD scheme lacks).
    pub fn checkpoint_memtier(
        &mut self,
        ctx: &mut Ctx,
        fs: &Piofs,
        tier: &MemTier,
        prefix: &str,
    ) -> Result<(StoreReport, SpillReport), CoreError> {
        if self.variant != AppVariant::Drms {
            return Err(CoreError::ManifestMismatch(
                "memory-tier checkpoints require the DRMS variant".to_string(),
            ));
        }
        let handles: Vec<&dyn CheckpointArray> =
            self.fields.iter().map(|f| f as &dyn CheckpointArray).collect();
        let store =
            drms_memtier::store_checkpoint(ctx, tier, prefix, &mut self.drms, &self.seg, &handles)?;
        let spill = drms_memtier::spill_checkpoint(ctx, fs, tier, prefix)?;
        Ok((store, spill))
    }

    /// Restarts the application out of the memory tier (collective): the
    /// diskless counterpart of [`MiniApp::start`] with a restart prefix.
    /// The tier entry under `prefix` must be intact for the surviving node
    /// set; segment and array bytes are served from resident pieces at
    /// memory/interconnect speed instead of PIOFS. Always a restart — the
    /// returned instance carries a `restart_report`.
    pub fn start_memtier(
        ctx: &mut Ctx,
        fs: &Piofs,
        tier: &MemTier,
        spec: AppSpec,
        enable: EnableFlag,
        prefix: &str,
    ) -> Result<MiniApp, CoreError> {
        let cfg = spec.drms_config();
        fs.set_residency(ctx.node(), spec.expected_segment_bytes());

        let (drms, info) = drms_memtier::resume_from_tier(ctx, fs, tier, cfg, enable, prefix)?;
        let mut fields = make_fields(&spec, ctx);
        let arrays_time = drms_memtier::restore_arrays_from_tier(
            ctx,
            tier,
            &drms,
            prefix,
            &info.manifest,
            &mut handles_mut(&mut fields),
        )?;
        Ok(MiniApp::restarted(ctx, spec, drms, *info, fields, arrays_time))
    }

    /// The instance a DRMS restart produced, whichever source served it.
    fn restarted(
        ctx: &Ctx,
        spec: AppSpec,
        drms: Drms,
        info: RestartInfo,
        fields: Vec<DistArray<f64>>,
        arrays_time: f64,
    ) -> MiniApp {
        // Every task loads the whole shared segment, so the bytes *moved*
        // in the segment phase are ntasks x its size — the quantity behind
        // the paper's aggregate restore rates (29 -> 55 MB/s).
        let report = OpBreakdown {
            init: info.init_time,
            segment: info.segment_time,
            arrays: arrays_time,
            segment_bytes: info.segment_bytes * ctx.ntasks() as u64,
            array_bytes: spec.stream_bytes(),
        };
        MiniApp::resuming(spec, AppVariant::Drms, drms, info.segment, fields, Some(report))
    }

    /// Global residual diagnostic (collective).
    pub fn residual(&self, ctx: &mut Ctx) -> f64 {
        solver::residual(ctx, &self.fields)
    }

    /// Collects every assigned element of every field, tagged by field
    /// index and point — the ground truth for bitwise comparisons.
    pub fn snapshot_assigned(&self) -> Vec<((usize, Vec<i64>), f64)> {
        let mut out = Vec::new();
        for (fi, f) in self.fields.iter().enumerate() {
            f.fold_assigned((), |_, p, v| out.push(((fi, p.to_vec()), v)));
        }
        out
    }

    /// The Table 4 anatomy of this task's data segment, including the
    /// (fixed-size) local-sections region as it would be checkpointed.
    pub fn segment_anatomy(&self) -> SegmentAnatomy {
        let mut a = self.seg.anatomy();
        let actual: u64 = self.fields.iter().map(|f| f.local_bytes() as u64).sum();
        let local = actual.max(self.spec.fixed_local_bytes());
        a.local_sections += local;
        // name + kind + blob framing for the extra region
        a.total += 4 + "local-sections".len() as u64 + 1 + 8 + local;
        a
    }
}

/// The segment a fresh start declares: system buffers, private/replicated
/// data, parameters. A restart gets all of it from the saved segment.
fn base_segment(spec: &AppSpec) -> DataSegment {
    let mut seg = DataSegment::new();
    seg.set_region("msgbuf", RegionKind::SystemBuffers, vec![0xA5; spec.system_bytes() as usize]);
    seg.set_region(
        "work-arrays",
        RegionKind::PrivateData,
        vec![0x5C; spec.private_bytes() as usize],
    );
    seg.set_replicated_f64("grid", spec.grid() as f64);
    seg.set_control("iter", 0);
    seg
}

/// [`base_segment`], declared once for the whole region (collective): the
/// tasks are threads of one address space, so rank 0 builds it and every
/// task leaves with a clone sharing its regions, as a restart's tasks share
/// the one decoded segment. Control and replicated variables stay each
/// task's own. The exchange carries no clock.
fn shared_base_segment(ctx: &mut Ctx, spec: &AppSpec) -> DataSegment {
    let (all, _) = ctx.exchange((ctx.rank() == 0).then(|| base_segment(spec)));
    all[0].clone().expect("rank 0 declares the segment")
}

fn make_fields(spec: &AppSpec, ctx: &Ctx) -> Vec<DistArray<f64>> {
    spec.fields
        .iter()
        .map(|f| {
            DistArray::new(&f.name, Order::ColumnMajor, spec.dist(f, ctx.ntasks()), ctx.rank())
        })
        .collect()
}

fn handles_mut(fields: &mut [DistArray<f64>]) -> Vec<&mut dyn CheckpointArray> {
    fields.iter_mut().map(|f| f as &mut dyn CheckpointArray).collect()
}

fn fill_fresh(fields: &mut [DistArray<f64>]) {
    for (fi, f) in fields.iter_mut().enumerate() {
        f.fill_mapped(|p| solver::initial_value(fi, p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bt, lu, sp, Class};
    use drms_msg::{run_spmd, CostModel};
    use drms_piofs::PiofsConfig;
    use std::sync::Arc;

    fn fs() -> Arc<Piofs> {
        Piofs::new(PiofsConfig::test_tiny(8), 17)
    }

    fn run_app(
        fs: &Arc<Piofs>,
        spec: AppSpec,
        variant: AppVariant,
        ntasks: usize,
        restart_from: Option<&str>,
        ckpt_at: Option<(i64, &str)>,
        end_iter: i64,
    ) -> Vec<((usize, Vec<i64>), f64)> {
        let out = run_spmd(ntasks, CostModel::default(), |ctx| {
            let mut app =
                MiniApp::start(ctx, fs, spec.clone(), variant, EnableFlag::new(), restart_from)
                    .unwrap();
            while app.iter() < end_iter {
                app.step(ctx);
                if let Some((at, prefix)) = ckpt_at {
                    if app.iter() == at {
                        app.checkpoint(ctx, fs, prefix).unwrap();
                    }
                }
            }
            app.snapshot_assigned()
        })
        .unwrap();
        let mut all: Vec<((usize, Vec<i64>), f64)> = out.into_iter().flatten().collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    #[test]
    fn drms_reconfigured_restart_bitwise_exact_all_apps() {
        for spec_fn in [bt as fn(Class) -> AppSpec, lu, sp] {
            let spec = spec_fn(Class::T);
            let name = spec.name;
            let reference = run_app(&fs(), spec.clone(), AppVariant::Drms, 4, None, None, 6);

            let f = fs();
            Drms::install_binary(&f, &spec.drms_config());
            run_app(&f, spec.clone(), AppVariant::Drms, 4, None, Some((3, "ck/x")), 3);
            let resumed = run_app(&f, spec.clone(), AppVariant::Drms, 3, Some("ck/x"), None, 6);
            assert_eq!(reference.len(), resumed.len(), "{name}");
            for (a, b) in reference.iter().zip(&resumed) {
                assert_eq!(a.0, b.0, "{name}");
                assert!(a.1 == b.1, "{name} point {:?}: {} vs {}", a.0, a.1, b.1);
            }
        }
    }

    #[test]
    fn memtier_restart_bitwise_exact_and_spill_matches_direct_path() {
        let spec = bt(Class::T);
        let reference = run_app(&fs(), spec.clone(), AppVariant::Drms, 4, None, None, 6);

        // Direct PIOFS checkpoint at the same point, for the bitwise
        // spill comparison.
        let fd = fs();
        Drms::install_binary(&fd, &spec.drms_config());
        run_app(&fd, spec.clone(), AppVariant::Drms, 4, None, Some((3, "ck/x")), 3);

        // Same run, but the checkpoint goes through the memory tier and
        // spills to PIOFS.
        let f = fs();
        Drms::install_binary(&f, &spec.drms_config());
        let tier = MemTier::new(1);
        run_spmd(4, CostModel::default(), |ctx| {
            let mut app =
                MiniApp::start(ctx, &f, spec.clone(), AppVariant::Drms, EnableFlag::new(), None)
                    .unwrap();
            while app.iter() < 3 {
                app.step(ctx);
            }
            let (store, spill) = app.checkpoint_memtier(ctx, &f, &tier, "ck/x").unwrap();
            assert!(store.bytes > 0 && store.replica_bytes > 0);
            assert!(spill.bytes > 0);
        })
        .unwrap();

        // The spill produced the exact files the direct path writes.
        let direct: Vec<String> = fd.list("ck/x/").into_iter().map(|i| i.path).collect();
        let tiered: Vec<String> = f.list("ck/x/").into_iter().map(|i| i.path).collect();
        assert_eq!(direct, tiered);
        for path in &direct {
            assert_eq!(fd.peek(path), f.peek(path), "{path} differs from direct checkpoint");
        }

        // Restart out of the tier on a smaller region; bitwise-exact.
        let out = run_spmd(3, CostModel::default(), |ctx| {
            let mut app =
                MiniApp::start_memtier(ctx, &f, &tier, spec.clone(), EnableFlag::new(), "ck/x")
                    .unwrap();
            assert_eq!(app.iter(), 3);
            assert!(app.restart_report.as_ref().unwrap().arrays > 0.0);
            while app.iter() < 6 {
                app.step(ctx);
            }
            app.snapshot_assigned()
        })
        .unwrap();
        let mut resumed: Vec<((usize, Vec<i64>), f64)> = out.into_iter().flatten().collect();
        resumed.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(reference.len(), resumed.len());
        for (a, b) in reference.iter().zip(&resumed) {
            assert_eq!(a.0, b.0);
            assert!(a.1 == b.1, "point {:?}: {} vs {}", a.0, a.1, b.1);
        }
    }

    #[test]
    fn spmd_restart_same_tasks_bitwise_exact() {
        let spec = bt(Class::T);
        let reference = run_app(&fs(), spec.clone(), AppVariant::Spmd, 4, None, None, 6);
        let f = fs();
        Drms::install_binary(&f, &spec.drms_config());
        run_app(&f, spec.clone(), AppVariant::Spmd, 4, None, Some((3, "ck/s")), 3);
        let resumed = run_app(&f, spec.clone(), AppVariant::Spmd, 4, Some("ck/s"), None, 6);
        assert_eq!(reference, resumed);
    }

    #[test]
    fn spmd_restart_other_task_count_fails() {
        let spec = sp(Class::T);
        let f = fs();
        run_app(&f, spec.clone(), AppVariant::Spmd, 4, None, Some((2, "ck/s")), 2);
        let errs = run_spmd(2, CostModel::default(), |ctx| {
            MiniApp::start(ctx, &f, spec.clone(), AppVariant::Spmd, EnableFlag::new(), Some("ck/s"))
                .err()
                .map(|e| e.to_string())
        })
        .unwrap();
        assert!(errs[0].as_ref().unwrap().contains("cannot restart with 2"));
    }

    #[test]
    fn memtier_checkpoint_of_the_spmd_variant_is_an_error() {
        let (f, tier) = (fs(), MemTier::new(1));
        let errs = run_spmd(2, CostModel::default(), |ctx| {
            let (spec, enable) = (sp(Class::T), EnableFlag::new());
            let mut app = MiniApp::start(ctx, &f, spec, AppVariant::Spmd, enable, None).unwrap();
            app.checkpoint_memtier(ctx, &f, &tier, "ck/s").unwrap_err()
        })
        .unwrap();
        assert!(matches!(&errs[0], CoreError::ManifestMismatch(_)));
    }

    #[test]
    fn anatomy_reflects_spec() {
        let spec = lu(Class::S);
        let f = fs();
        let anatomies = run_spmd(4, CostModel::default(), |ctx| {
            let app =
                MiniApp::start(ctx, &f, spec.clone(), AppVariant::Drms, EnableFlag::new(), None)
                    .unwrap();
            app.segment_anatomy()
        })
        .unwrap();
        let a = anatomies[0];
        assert_eq!(a.system, spec.system_bytes());
        assert!(a.private_replicated >= spec.private_bytes());
        assert!(a.local_sections >= spec.fixed_local_bytes());
        assert!(a.total > a.system + a.private_replicated);
    }

    #[test]
    fn drms_saved_state_independent_of_tasks_spmd_grows() {
        let spec = sp(Class::T);
        let mut drms_sizes = Vec::new();
        let mut spmd_sizes = Vec::new();
        // Task counts at or above the compiled minimum (4), like the paper.
        for p in [4usize, 8] {
            let f = fs();
            run_app(&f, spec.clone(), AppVariant::Drms, p, None, Some((1, "ck/d")), 1);
            drms_sizes.push(f.total_bytes("ck/d/"));
            let f = fs();
            run_app(&f, spec.clone(), AppVariant::Spmd, p, None, Some((1, "ck/s")), 1);
            spmd_sizes.push(f.total_bytes("ck/s/"));
        }
        // DRMS: constant (manifest bytes differ by a few bytes at most).
        let drift = (drms_sizes[0] as f64 - drms_sizes[1] as f64).abs() / drms_sizes[0] as f64;
        assert!(drift < 0.001, "DRMS sizes {drms_sizes:?}");
        // SPMD: linear in tasks.
        let ratio = spmd_sizes[1] as f64 / spmd_sizes[0] as f64;
        assert!(ratio > 1.9 && ratio < 2.1, "SPMD sizes {spmd_sizes:?}");
    }
}
