//! The campaign job, once.
//!
//! Every fault campaign and every fault-driven gate proves the same claim
//! — a restart on any task count is bitwise identical to an uninterrupted
//! run — on the same toy: a block-distributed `u`, filled `13·i + 3·j`,
//! `+1.5` per iteration on the points its [`Shape`]'s band covers,
//! checkpointed every third iteration under the JSA and killed mid-run.
//! This module holds that job as a value. What callers vary is data on
//! [`Campaign`]: the application name and checkpoint prefix stem (both end
//! up inside manifests, so blessed byte counts depend on them and each
//! caller keeps its own strings), the iteration count, the [`Shape`], the
//! [`CkptMode`], the [`Fault`] schedule and the [`LossDrill`]. What they
//! share is code here: the toy's steps (resume-or-fill, advance,
//! checkpoint, checksum), the one loop that owns the SOP kill checks, the
//! rank-0 injection and the drill's rewind ([`Campaign::launch`]), the
//! bitwise-recovery check ([`Launched::assert_recovered`]) and the [`Rig`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms_async::{AsyncCheckpointer, AsyncConfig};
use drms_chaos::{CrashPoint, RESTART_FULL};
use drms_core::manifest::CkptKind;
use drms_core::segment::DataSegment;
use drms_core::{find_checkpoints, sweep_orphans, CheckpointArray, Drms, DrmsConfig};
use drms_darray::{for_each_region_index, DistArray, Distribution};
use drms_delta::{delta_checkpoint, DeltaChain, DeltaConfig};
use drms_memtier::{spill_checkpoint, store_checkpoint, store_feasible, MemTier};
use drms_msg::{CostModel, Ctx};
use drms_obs::Recorder;
use drms_piofs::{Piofs, PiofsConfig};
use drms_recover::{recover, retain, Membership, RecoverReport};
use drms_resil::CorruptionCampaign;
use drms_rtenv::{
    EventLog, JobEnv, JobOutcome, JobSpec, Jsa, JsaPolicy, ProcessorState, ResourceCoordinator,
    RunSummary,
};
use drms_slices::{Order, Slice};
use parking_lot::Mutex;

/// Checkpoint cadence: every third iteration.
pub const CKPT_EVERY: i64 = 3;
/// Processors of the rig (and the job's maximum task count).
pub const NPROCS: usize = 8;

/// Chunk settings of the delta arms: 1 KiB chunks, a full rewrite every
/// eighth link, compression on.
const DELTA: DeltaConfig = DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true };

/// The toy's field: a column-major `rows × cols` domain whose iteration
/// `i` adds 1.5 to the `band` columns of band `i mod (cols / band)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    rows: i64,
    cols: i64,
    band: i64,
}

/// The fault campaigns' 18×14 field, one band wide: every iteration moves
/// every point, so every link of a delta chain dirties every chunk.
pub const FAULTS: Shape = Shape { rows: 18, cols: 14, band: 14 };

/// A 64×32 field whose 4-column band (2 KiB, 2 of 16 one-KiB chunks)
/// moves on each iteration: a link every third iteration stores 6 chunks
/// and carries 10 forward by reference.
pub const BANDED: Shape = Shape { rows: 64, cols: 32, band: 4 };

impl Shape {
    /// The toy's global index space.
    pub fn domain(&self) -> Slice {
        Slice::boxed(&[(1, self.rows), (1, self.cols)])
    }

    /// Whether iteration `iter`'s band covers point `p`.
    fn touched(&self, p: &[i64], iter: i64) -> bool {
        (p[1] - 1) / self.band == iter % (self.cols / self.band)
    }

    /// Checksum of the final state of an uninterrupted `niter`-iteration
    /// run, in closed form. Every term is a multiple of 0.5 far below
    /// 2^53, so the f64 sum is exact in any order — which is what lets a
    /// checksum gathered from any task count be compared with `==`.
    pub fn reference(&self, niter: i64) -> f64 {
        let mut s = 0.0;
        self.domain().points(Order::ColumnMajor).for_each(|p| {
            s += initial(p) + (1..=niter).filter(|&i| self.touched(p, i)).count() as f64 * 1.5;
        });
        s
    }
}

/// The toy's initial value at point `p`.
pub fn initial(p: &[i64]) -> f64 {
    (p[0] * 13 + p[1] * 3) as f64
}

/// How the job takes its checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// Blocking `Drms::reconfig_checkpoint`.
    Blocking,
    /// Through the JSA's memory tier with a verified spill when the region
    /// can hold the replication factor, blocking otherwise (also when no
    /// tier is attached). Under a chaos plan a store can fail because a
    /// replica's node just died, so there the kill token decides the
    /// outcome of a failed checkpoint.
    Tier,
    /// Overlapped through an [`AsyncCheckpointer`] with this snapshot
    /// budget (through the JSA's memory tier when one is attached),
    /// drained before completion.
    Overlapped {
        /// Maximum snapshots in flight.
        budget: usize,
    },
    /// A blocking link of the job's delta chain ([`delta_checkpoint`]).
    Delta,
    /// A link of the job's delta chain overlapped through an
    /// [`AsyncCheckpointer`] with this snapshot budget
    /// ([`AsyncCheckpointer::checkpoint_delta`]), drained before
    /// completion.
    OverlappedDelta {
        /// Maximum snapshots in flight.
        budget: usize,
    },
}

/// What a [`Fault`] does to storage before it kills its victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Kill this PIOFS server.
    Server(usize),
    /// Run a corruption campaign with this seed against the newest
    /// checkpoint.
    Corrupt(u64),
}

/// One scheduled fault: once iteration `at` is reached, rank 0 applies the
/// storage fault (if any) and then fails every victim processor not
/// already dead. Faults fire in schedule order, at most one per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Iteration from which the fault may fire.
    pub at: i64,
    /// Storage damage applied first.
    pub storage: Option<StorageFault>,
    /// Processors to fail.
    pub victims: Vec<usize>,
}

impl Fault {
    /// Fails one processor.
    pub fn kill(at: i64, victim: usize) -> Fault {
        Fault { at, storage: None, victims: vec![victim] }
    }
}

/// The toy's per-task state between steps.
struct Toy {
    u: DistArray<f64>,
    /// Carries the `iter` control variable.
    seg: DataSegment,
    drms: Drms,
    /// First iteration this incarnation has to compute.
    next: i64,
    /// Whether this incarnation is a fresh start (not a restart).
    fresh: bool,
    shape: Shape,
    mode: CkptMode,
    /// The pipeline of the overlapped modes.
    flusher: Option<AsyncCheckpointer>,
    /// The chain the delta modes link onto.
    chain: DeltaChain,
}

impl Toy {
    /// Creates `u` under the region's distribution, then fills it (fresh
    /// start) or reloads it and the segment from whatever the JSA resolved
    /// for this incarnation; a restart from a delta link recovers the
    /// chain from its manifest.
    fn resume(ctx: &mut Ctx, env: &JobEnv, job: &Campaign) -> Result<Toy, JobOutcome> {
        let dist = Distribution::block_auto(&job.shape.domain(), ctx.ntasks(), 1)
            .expect("toy distribution");
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (drms, restart) = env.resume(ctx, DrmsConfig::new(job.app), &mut [&mut u])?;
        let fresh = restart.is_none();
        let chain = match (&restart, env.restart_from.as_deref()) {
            (Some(info), Some(prefix)) if info.manifest.kind == CkptKind::DrmsDelta => {
                DeltaChain::recover(prefix, &info.manifest).map_err(JobOutcome::from_err)?
            }
            _ => DeltaChain::new(),
        };
        let (seg, next) = match restart {
            None => {
                u.fill_assigned(initial);
                (DataSegment::new(), 1)
            }
            Some(info) => {
                let next = info.segment.control("iter").expect("checkpointed iter") + 1;
                (info.segment, next)
            }
        };
        let flusher = match job.mode {
            CkptMode::Overlapped { budget } | CkptMode::OverlappedDelta { budget } => {
                Some(AsyncCheckpointer::new(AsyncConfig { budget }))
            }
            CkptMode::Blocking | CkptMode::Tier | CkptMode::Delta => None,
        };
        Ok(Toy { u, seg, drms, next, fresh, shape: job.shape, mode: job.mode, flusher, chain })
    }

    /// Computes iteration `iter` and records it in the segment.
    fn advance(&mut self, iter: i64) {
        let dist = Arc::clone(self.u.dist());
        let (rank, order, shape) = (self.u.rank(), self.u.order(), self.shape);
        let local = self.u.local_mut();
        for_each_region_index(dist.mapped(rank), dist.assigned(rank), order, |at, p| {
            if shape.touched(p, iter) {
                local[at] += 1.5;
            }
        });
        self.seg.set_control("iter", iter);
    }

    /// Takes one checkpoint at `prefix` in this toy's [`CkptMode`]. An
    /// error is the [`JobOutcome`] the body returns.
    fn checkpoint(&mut self, ctx: &mut Ctx, env: &JobEnv, prefix: &str) -> Result<(), JobOutcome> {
        let Toy { u, seg, drms, flusher, chain, mode, .. } = self;
        let (fs, arrays) = (&*env.fs, [&*u as &dyn CheckpointArray]);
        let done = match (*mode, flusher.as_mut(), env.memtier.as_deref()) {
            (CkptMode::Delta, ..) => {
                delta_checkpoint(drms, chain, &DELTA, ctx, fs, prefix, seg, &arrays).map(drop)
            }
            (CkptMode::OverlappedDelta { .. }, Some(flusher), _) => flusher
                .checkpoint_delta(ctx, fs, drms, chain, &DELTA, prefix, seg, &arrays)
                .map(drop),
            (_, Some(flusher), tier) => {
                flusher.checkpoint(ctx, fs, drms, prefix, seg, &arrays, tier).map(drop)
            }
            (CkptMode::Tier, None, Some(tier)) if store_feasible(ctx, tier) => {
                store_checkpoint(ctx, tier, prefix, drms, seg, &arrays)
                    .and_then(|_| spill_checkpoint(ctx, fs, tier, prefix))
                    .map(drop)
            }
            _ => drms.reconfig_checkpoint(ctx, fs, prefix, seg, &arrays).map(drop),
        };
        done.map_err(JobOutcome::from_err)
    }

    /// Ends the incarnation: drains an overlapped pipeline, takes the last
    /// SOP kill check and returns this task's share of the checksum.
    fn finish(mut self, ctx: &mut Ctx, env: &JobEnv) -> Result<f64, JobOutcome> {
        if let Some(flusher) = &mut self.flusher {
            flusher.drain(ctx);
        }
        if env.sop_killed(ctx) {
            return Err(JobOutcome::Killed);
        }
        Ok(self.u.fold_assigned(0.0, |acc, _, v| acc + v))
    }
}

/// The JSA world a campaign runs in: event log, resource coordinator over
/// [`NPROCS`] processors and a PIOFS with the application binary installed.
pub struct Rig {
    /// The resource coordinator.
    pub rc: Arc<ResourceCoordinator>,
    /// The file system.
    pub fs: Arc<Piofs>,
    /// The event log (it owns the recorder every incarnation reports into).
    pub log: EventLog,
}

impl Rig {
    /// A fresh world over a `test_tiny` PIOFS seeded `seed`. `sink`, when
    /// given, receives the event log's, every incarnation's and the file
    /// system's events.
    pub fn new(app: &str, seed: u64, sink: Option<Arc<dyn Recorder>>) -> Rig {
        Rig::on(app, Piofs::new(PiofsConfig::test_tiny(NPROCS), seed), sink)
    }

    /// A world over an existing file system — one built with other than
    /// the default configuration, or one a previous run left its
    /// checkpoint chain on — with a fresh coordinator and log.
    pub fn on(app: &str, fs: Arc<Piofs>, sink: Option<Arc<dyn Recorder>>) -> Rig {
        let log = match sink {
            Some(sink) => {
                fs.set_recorder(sink.clone());
                EventLog::with_recorder(sink)
            }
            None => EventLog::new(),
        };
        let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
        Drms::install_binary(&fs, &DrmsConfig::new(app));
        Rig { rc, fs, log }
    }

    /// A scheduler over this world. Chaos, memory tier and flight recorder
    /// attach through the `Jsa::with_*` builders.
    pub fn jsa(&self, policy: JsaPolicy) -> Jsa {
        Jsa::new(
            Arc::clone(&self.rc),
            Arc::clone(&self.fs),
            self.log.clone(),
            CostModel::default(),
            policy,
        )
    }
}

/// The crash points a blocking checkpoint or restart consults, in sweep
/// order, each with the kill (processor 2 at iteration 4) that gives a
/// restart-side point an organic restart to fire inside. The `Flush*`
/// family fires only inside an overlapped checkpoint's background flush
/// and the `Recover*` family only inside a localized recovery; each has
/// its own sweep (`tests/async_campaign.rs`, `tests/recover_campaign.rs`).
pub fn blocking_sweep() -> impl Iterator<Item = (CrashPoint, Option<Fault>)> {
    CrashPoint::ALL
        .into_iter()
        .filter(|p| !p.is_flush_side() && !p.is_recover_side())
        .map(|p| (p, RESTART_FULL.contains(&Some(p)).then(|| Fault::kill(4, 2))))
}

/// The campaigns' scheduling policy: repair when starved, so a heavy
/// schedule first restarts on what is left and repairs only when nothing
/// is.
pub fn policy() -> JsaPolicy {
    JsaPolicy { repair_when_starved: true, ..Default::default() }
}

/// A node loss survived in place: at the top of iteration `at`, node
/// `victim`'s sections are lost and the region runs a localized recovery
/// from the sections retained at its newest commit, then rolls back to
/// that SOP. One attempt per job: an incarnation that restarted is the
/// full-restart escalation and runs recovery-free.
#[derive(Debug, Clone)]
pub struct LossDrill {
    /// The iteration whose top-of-loop suffers the loss.
    pub at: i64,
    /// The node (== rank under identity placement) whose sections go.
    pub victim: usize,
    /// Checkpoint into, and recover from, this replica tier instead of
    /// PIOFS.
    pub replicas: Option<Arc<MemTier>>,
}

/// The campaign job as a value.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Application name (binary, manifests, checkpoint discovery).
    pub app: &'static str,
    /// Checkpoint prefix stem: iteration `i` commits to `{stem}/{i}`.
    pub stem: &'static str,
    /// Iterations of an uninterrupted run.
    pub niter: i64,
    /// How checkpoints are taken.
    pub mode: CkptMode,
    /// The field the job computes on.
    pub shape: Shape,
    /// The fault schedule.
    pub faults: Vec<Fault>,
    /// The loss drill, run when the JSA permits localized recovery.
    pub drill: Option<LossDrill>,
}

/// What one [`Campaign::launch`] leaves behind.
pub struct Launched {
    /// Global checksum of the completing incarnation (0 if none).
    pub checksum: f64,
    /// The JSA's summary.
    pub summary: RunSummary,
    /// The file system the job ran on.
    pub fs: Arc<Piofs>,
    /// Rank 0's protocol report, when the loss drill recovered.
    pub report: Option<RecoverReport>,
}

impl Launched {
    /// The bitwise-recovery check of every fault campaign: `job` completed
    /// on its closed-form checksum, no staging (`.tmp`) prefix was restarted
    /// from or is discoverable, and [`sweep_orphans`] leaves no `.tmp` file.
    /// A failure names `what` and ends with `reproduce with: {repro}`.
    pub fn assert_recovered(&self, job: &Campaign, what: &str, repro: &str) {
        let fail = |why: String| panic!("{what}: {why}\nreproduce with: {repro}");
        let (summary, reference) = (&self.summary, job.shape.reference(job.niter));
        if !summary.completed {
            fail(format!("job did not complete: {summary:?}"));
        }
        if self.checksum != reference {
            fail(format!(
                "recovered state diverged from the uninterrupted run: {} != {reference}",
                self.checksum
            ));
        }
        let staged = |path: &str| path.contains(".tmp");
        let mut restarts = summary.incarnations.iter().filter_map(|i| i.restart_from.as_deref());
        if let Some(from) = restarts.find(|from| staged(from)) {
            fail(format!("incarnation restarted from staging prefix {from:?}"));
        }
        if let Some((prefix, _)) =
            find_checkpoints(&self.fs, Some(job.app)).into_iter().find(|(p, _)| staged(p))
        {
            fail(format!("staged prefix {prefix:?} discoverable as a checkpoint"));
        }
        sweep_orphans(&self.fs);
        if let Some(info) = self.fs.list("").into_iter().find(|info| staged(&info.path)) {
            fail(format!("staging debris {:?} survived sweep_orphans", info.path));
        }
    }
}

/// Rank 0's fault injection. The cursor outlives incarnations: a fault
/// fires once per launch, whichever incarnation reaches its iteration.
struct Injector {
    app: &'static str,
    faults: Vec<Fault>,
    rc: Arc<ResourceCoordinator>,
    fs: Arc<Piofs>,
    fired: AtomicUsize,
    /// Whether the JSA runs a chaos plan. Without one, kills come only
    /// from the schedule, after a checkpoint returned and before the next
    /// SOP check, so a checkpoint error is never a kill's doing.
    weather: bool,
}

impl Injector {
    fn fire(&self, ctx: &Ctx, iter: i64) {
        if ctx.rank() != 0 {
            return;
        }
        let k = self.fired.load(Ordering::SeqCst);
        let Some(fault) = self.faults.get(k).filter(|f| iter >= f.at) else { return };
        self.fired.store(k + 1, Ordering::SeqCst);
        match fault.storage {
            Some(StorageFault::Server(server)) => {
                self.fs.fail_server(server);
            }
            Some(StorageFault::Corrupt(seed)) => {
                if let Some((prefix, _)) = find_checkpoints(&self.fs, Some(self.app)).first() {
                    CorruptionCampaign::new(seed, 3).apply(&self.fs, prefix);
                }
            }
            None => {}
        }
        for &victim in &fault.victims {
            if self.rc.state_of(victim) != ProcessorState::Failed {
                self.rc.fail_processor(victim);
            }
        }
    }
}

impl Campaign {
    /// A fault-free job on the [`FAULTS`] field taking blocking
    /// checkpoints.
    pub fn new(app: &'static str, stem: &'static str, niter: i64) -> Campaign {
        Campaign {
            app,
            stem,
            niter,
            mode: CkptMode::Blocking,
            shape: FAULTS,
            faults: Vec::new(),
            drill: None,
        }
    }

    /// One incarnation: resume or fill, then per iteration the SOP kill
    /// check, the drill's recovery at its iteration, the computation, the
    /// checkpoint on cadence (retained for the drill) and the fault
    /// injection; returns this task's share of the final checksum. Rank 0's
    /// drill report lands in `report`.
    fn run(
        &self,
        ctx: &mut Ctx,
        env: &JobEnv,
        inject: &Injector,
        report: &Mutex<Option<RecoverReport>>,
    ) -> Result<f64, JobOutcome> {
        let mut toy = Toy::resume(ctx, env, self)?;
        // The drill checkpoints into its replicas whatever the policy, but
        // retains and recovers only where the JSA permits it.
        let replicas = self.drill.as_ref().and_then(|d| d.replicas.as_ref());
        let drill = self.drill.as_ref().filter(|_| env.localized);
        // Derived from the restart state, so the collective branch below
        // is rank-consistent.
        let mut may_recover = toy.fresh;
        let mut membership = Membership::initial(ctx.ntasks());
        let mut retained = None;
        let mut iter = toy.next;
        while iter <= self.niter {
            if env.sop_killed(ctx) {
                return Err(JobOutcome::Killed);
            }
            if let Some(drill) = drill.filter(|d| d.at == iter && may_recover) {
                may_recover = false;
                if let Some((ret, sop)) = retained.take() {
                    if let Some(tier) = &drill.replicas {
                        if ctx.rank() == 0 {
                            tier.fail_node(drill.victim);
                        }
                        ctx.barrier();
                    }
                    let (next, rep) = recover(
                        ctx,
                        &env.fs,
                        drill.replicas.as_deref(),
                        &ret,
                        &membership,
                        &[drill.victim],
                        &mut [&mut toy.u],
                        ctx.ntasks(),
                    )
                    .map_err(JobOutcome::from_err)?;
                    if ctx.rank() == 0 {
                        *report.lock() = Some(rep);
                    }
                    membership = next;
                    toy.seg.set_control("iter", sop);
                    iter = sop + 1;
                    continue;
                }
            }
            toy.advance(iter);
            if iter % CKPT_EVERY == 0 {
                let prefix = format!("{}/{iter}", self.stem);
                let done = match replicas {
                    Some(tier) => {
                        let Toy { u, seg, drms, .. } = &mut toy;
                        store_checkpoint(ctx, tier, &prefix, drms, seg, &[&*u])
                            .map(drop)
                            .map_err(JobOutcome::from_err)
                    }
                    None => toy.checkpoint(ctx, env, &prefix),
                };
                if let Err(failed) = done {
                    let killed =
                        self.mode == CkptMode::Tier && inject.weather && env.sop_killed(ctx);
                    return Err(if killed { JobOutcome::Killed } else { failed });
                }
                if drill.is_some() {
                    retained = Some((retain(ctx, &prefix, iter as u64, &[&toy.u]), iter));
                }
            }
            inject.fire(ctx, iter);
            iter += 1;
        }
        toy.finish(ctx, env)
    }

    /// Runs the job under `jsa` until it completes or fails. `jsa` must be
    /// a scheduler over `rig`.
    pub fn launch(&self, rig: &Rig, jsa: &Jsa) -> Launched {
        let sums = Arc::new(Mutex::new(Vec::new()));
        let report = Arc::new(Mutex::new(None));
        let (job, sums2, report2) = (self.clone(), Arc::clone(&sums), Arc::clone(&report));
        let inject = Injector {
            app: self.app,
            faults: self.faults.clone(),
            rc: Arc::clone(&rig.rc),
            fs: Arc::clone(&rig.fs),
            fired: AtomicUsize::new(0),
            weather: jsa.chaos().is_some(),
        };
        let spec = JobSpec::new(self.app, (1, NPROCS), move |ctx, env| {
            match job.run(ctx, env, &inject, &report2) {
                Ok(sum) => {
                    sums2.lock().push(sum);
                    JobOutcome::Completed
                }
                Err(outcome) => outcome,
            }
        });
        let summary = jsa.run_job(&spec);
        let (checksum, report) = (sums.lock().iter().sum(), report.lock().take());
        Launched { checksum, summary, fs: Arc::clone(&rig.fs), report }
    }
}

#[cfg(test)]
mod tests {
    use drms_memtier::RestartTier;
    use drms_rtenv::IncarnationRecord;

    use super::*;

    const MODES: [CkptMode; 5] = [
        CkptMode::Blocking,
        CkptMode::Tier,
        CkptMode::Overlapped { budget: 2 },
        CkptMode::Delta,
        CkptMode::OverlappedDelta { budget: 2 },
    ];

    /// The one-command repro of these tests.
    const REPRO: &str = "cargo test -p drms-bench --lib campaign::tests";

    fn job(niter: i64, mode: CkptMode, faults: Vec<Fault>) -> Campaign {
        Campaign { mode, faults, ..Campaign::new("toy", "ck/toy", niter) }
    }

    #[test]
    fn an_uninterrupted_run_matches_the_closed_form_on_1_and_8_tasks() {
        for niter in [10, 12] {
            for mode in MODES {
                for ntasks in [1, NPROCS] {
                    let rig = Rig::new("toy", 7, None);
                    // The JSA launches on what is available: leave `ntasks`.
                    (ntasks..NPROCS).for_each(|p| rig.rc.fail_processor(p));
                    let mut jsa = rig.jsa(JsaPolicy::default());
                    if mode == CkptMode::Tier {
                        // On one task the store is infeasible and the mode
                        // degrades to blocking; an overlapped flush through
                        // a tier would fail there instead.
                        jsa = jsa.with_memtier(MemTier::new(1));
                    }
                    let campaign = job(niter, mode, Vec::new());
                    let out = campaign.launch(&rig, &jsa);
                    let what = format!("niter {niter}, {mode:?}, {ntasks} task(s)");
                    out.assert_recovered(&campaign, &what, REPRO);
                    assert_eq!(out.summary.incarnations.len(), 1, "{what}");
                    assert_eq!(out.summary.incarnations[0].ntasks, ntasks, "{what}");
                    // Iterations 3, 6, 9 (and 12) committed, the last one
                    // carrying the last checkpointed iteration.
                    let committed = find_checkpoints(&rig.fs, Some("toy"));
                    assert_eq!(committed.len() as i64, niter / CKPT_EVERY, "{what}");
                    let newest = format!("ck/toy/{}", niter / CKPT_EVERY * CKPT_EVERY);
                    assert_eq!(committed[0].0, newest, "{what}");
                }
            }
        }
    }

    #[test]
    fn one_fault_ends_bitwise_equal_after_more_than_one_incarnation() {
        for mode in MODES {
            let rig = Rig::new("toy", 7, None);
            let jsa = rig.jsa(policy()).with_memtier(MemTier::new(1));
            let campaign = job(10, mode, vec![Fault::kill(4, 3)]);
            let out = campaign.launch(&rig, &jsa);
            out.assert_recovered(&campaign, &format!("{mode:?}"), REPRO);
            let summary = &out.summary;
            assert!(summary.incarnations.len() > 1, "{mode:?}: the kill cost no incarnation");
            assert_eq!(summary.incarnations[1].restart_from.as_deref(), Some("ck/toy/3"));
            assert_eq!(summary.incarnations[1].ntasks, NPROCS - 1);
        }
    }

    #[test]
    fn faults_fire_once_each_in_schedule_order() {
        let rig = Rig::new("toy", 42, None);
        let faults = vec![
            Fault::kill(2, 5),
            Fault { at: 2, storage: Some(StorageFault::Server(1)), victims: vec![5, 6] },
            Fault::kill(20, 0),
        ];
        let Launched { checksum, summary, .. } =
            job(10, CkptMode::Blocking, faults).launch(&rig, &rig.jsa(policy()));
        assert_eq!(checksum, FAULTS.reference(10));
        // Iteration 2 kills 5; iteration 2 of the next incarnation (one
        // fault per launch per iteration) takes the server and 6 — 5 is
        // already dead; iteration 20 never comes. Neither kill left a
        // checkpoint behind. The list is pinned from a world assembled by
        // hand for this schedule at seed 42 (fresh log and coordinator, a
        // `test_tiny` PIOFS, the binary installed, `policy()`): the rig
        // with no sink, chaos or tier is that world.
        let got: Vec<_> = summary
            .incarnations
            .iter()
            .map(|i| (i.procs.clone(), i.restart_from.clone(), i.outcome.clone()))
            .collect();
        let want = vec![
            (vec![0, 1, 2, 3, 4, 5, 6, 7], None, JobOutcome::Killed),
            (vec![0, 1, 2, 3, 4, 6, 7], None, JobOutcome::Killed),
            (vec![0, 1, 2, 3, 4, 7], None, JobOutcome::Completed),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn the_loss_drill_recovers_in_place_through_both_sources() {
        for replicas in [None, Some(MemTier::new(2))] {
            let tiered = replicas.is_some();
            let rig = Rig::new("toy", 7, None);
            let jsa = rig.jsa(JsaPolicy { localized_recovery: true, ..policy() });
            let campaign = Campaign {
                drill: Some(LossDrill { at: 5, victim: 2, replicas }),
                ..job(10, CkptMode::Blocking, Vec::new())
            };
            let out = campaign.launch(&rig, &jsa);
            out.assert_recovered(&campaign, &format!("tiered {tiered}"), REPRO);
            assert_eq!(out.summary.incarnations.len(), 1, "tiered {tiered}: {:?}", out.summary);
            let report = out.report.expect("the drill ran");
            assert_eq!(report.replica_bytes > 0, tiered);
            assert_eq!(report.piofs_bytes > 0, !tiered);
        }
    }

    #[test]
    #[should_panic(
        expected = "restarted from staging prefix \"ck/toy/3.tmp\"\nreproduce with: cargo"
    )]
    fn the_check_refuses_a_restart_from_staging() {
        let restarted = IncarnationRecord {
            ntasks: NPROCS,
            procs: (0..NPROCS).collect(),
            restart_from: Some("ck/toy/3.tmp".to_string()),
            fallback_depth: 0,
            tier: RestartTier::Piofs,
            outcome: JobOutcome::Completed,
        };
        let summary = RunSummary { incarnations: vec![restarted], completed: true };
        let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), 7);
        let out = Launched { checksum: FAULTS.reference(10), summary, fs, report: None };
        out.assert_recovered(&job(10, CkptMode::Blocking, Vec::new()), "hand-built", REPRO);
    }
}
