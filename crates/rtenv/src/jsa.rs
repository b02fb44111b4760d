//! The job scheduler and analyzer (JSA): resource allocation and
//! checkpoint-based restart policy.

use std::sync::Arc;

use drms_blackbox::Blackbox;
use drms_chaos::ChaosCtl;
use drms_core::EnableFlag;
use drms_memtier::{MemTier, RestartTier};
use drms_msg::{CostModel, Spmd};
use drms_piofs::Piofs;
use parking_lot::Mutex;

use crate::events::{Event, EventLog};
use crate::job::{JobEnv, JobOutcome, JobSpec, KillToken};
use crate::rc::ResourceCoordinator;

/// Scheduling policy knobs.
#[derive(Debug, Clone)]
pub struct JsaPolicy {
    /// Safety bound on incarnations per job (prevents a crash-looping
    /// application from monopolizing the system).
    pub max_incarnations: usize,
    /// Repair all failed processors automatically when a job cannot fit in
    /// the available pool (otherwise the job stays queued until `repair`).
    pub repair_when_starved: bool,
    /// Permit localized recovery: the job body may handle a node loss by
    /// restoring only the lost ranks' sections in place (survivors keep
    /// their memory) instead of exiting for a full restart. The JSA only
    /// advertises the permission through [`JobEnv::localized`]; a body that
    /// ignores it, or a recovery that escalates, falls back to the ordinary
    /// kill-and-restart path.
    pub localized_recovery: bool,
}

impl Default for JsaPolicy {
    fn default() -> Self {
        JsaPolicy { max_incarnations: 16, repair_when_starved: false, localized_recovery: false }
    }
}

/// Record of one incarnation of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct IncarnationRecord {
    /// Task count of this incarnation.
    pub ntasks: usize,
    /// Processors the incarnation ran on.
    pub procs: Vec<usize>,
    /// Checkpoint prefix it restarted from, if any.
    pub restart_from: Option<String>,
    /// Newer-but-damaged checkpoints the restart walk skipped to reach
    /// `restart_from` (0 when the newest checkpoint was healthy).
    pub fallback_depth: usize,
    /// Which tier served `restart_from`: the in-memory replicated tier or
    /// the durable PIOFS chain ([`RestartTier::Piofs`] for fresh starts and
    /// when the memory tier is off).
    pub tier: RestartTier,
    /// How the incarnation ended.
    pub outcome: JobOutcome,
}

/// What happened over the whole life of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// One record per incarnation, in order.
    pub incarnations: Vec<IncarnationRecord>,
    /// Whether the job eventually completed.
    pub completed: bool,
}

impl RunSummary {
    /// Number of restarts (incarnations after the first).
    pub fn restarts(&self) -> usize {
        self.incarnations.len().saturating_sub(1)
    }
}

/// The scheduler: turns job specs into (re)incarnations on the processors
/// the RC has available, restarting from the newest checkpoint after kills.
pub struct Jsa {
    rc: Arc<ResourceCoordinator>,
    fs: Arc<Piofs>,
    log: EventLog,
    cost: CostModel,
    policy: JsaPolicy,
    memtier: Option<Arc<MemTier>>,
    chaos: Option<Arc<ChaosCtl>>,
    blackbox: Option<Arc<Blackbox>>,
    /// Index into the event log up to which processor failures have been
    /// applied to the memory tier (each failure wipes a node's resident
    /// pieces exactly once; repaired processors come back empty).
    tier_cursor: Mutex<usize>,
}

impl Jsa {
    /// Builds a scheduler over an RC and a file system.
    pub fn new(
        rc: Arc<ResourceCoordinator>,
        fs: Arc<Piofs>,
        log: EventLog,
        cost: CostModel,
        policy: JsaPolicy,
    ) -> Jsa {
        Jsa {
            rc,
            fs,
            log,
            cost,
            policy,
            memtier: None,
            chaos: None,
            blackbox: None,
            tier_cursor: Mutex::new(0),
        }
    }

    /// Attaches a chaos controller: every incarnation of every job runs
    /// under its fault plan (message-layer faults, transient I/O faults,
    /// and enumerated crash points). Campaign instrumentation — production
    /// schedulers never call this.
    pub fn with_chaos(mut self, chaos: Arc<ChaosCtl>) -> Jsa {
        self.chaos = Some(chaos);
        self
    }

    /// The attached chaos controller, if any.
    pub fn chaos(&self) -> Option<&Arc<ChaosCtl>> {
        self.chaos.as_ref()
    }

    /// Attaches an in-memory checkpoint tier: restarts prefer the newest
    /// intact resident checkpoint over the PIOFS chain (when at least as
    /// new), and every processor failure the RC logs wipes that node's
    /// resident pieces before the next restart is resolved.
    pub fn with_memtier(mut self, tier: Arc<MemTier>) -> Jsa {
        self.memtier = Some(tier);
        self
    }

    /// The attached memory tier, if any.
    pub fn memtier(&self) -> Option<&Arc<MemTier>> {
        self.memtier.as_ref()
    }

    /// Attaches a flight recorder. The same `Arc` must also sit in the
    /// event log's recorder fan-out (that is how events reach the rings);
    /// the JSA drives its lifecycle: incarnation resets before each SPMD
    /// region, the final seal of a completed run, recovery of sealed rings
    /// and crash salvages from storage after every incarnation, the
    /// dropped-event audit for killed incarnations, and the live
    /// `blackbox.recovery_ratio` gauge the pulse budget rule watches.
    pub fn with_blackbox(mut self, bb: Arc<Blackbox>) -> Jsa {
        self.blackbox = Some(bb);
        self
    }

    /// The attached flight recorder, if any.
    pub fn blackbox(&self) -> Option<&Arc<Blackbox>> {
        self.blackbox.as_ref()
    }

    /// The shared enable flag for a job would normally live in a job table;
    /// for this implementation each `run_job` call creates one and hands it
    /// to every incarnation.
    ///
    /// Runs `job` to completion, reincarnating it from its latest
    /// checkpoint after every kill (processor failure or preemption), with
    /// equal, larger, or smaller task counts depending on what the RC has
    /// available.
    pub fn run_job(&self, job: &JobSpec) -> RunSummary {
        let enable = EnableFlag::new();
        self.run_job_with_enable(job, enable)
    }

    /// As [`Jsa::run_job`], with a caller-supplied enable flag (so tests
    /// and steering tools can trigger system-initiated checkpoints).
    pub fn run_job_with_enable(&self, job: &JobSpec, enable: EnableFlag) -> RunSummary {
        let (min_tasks, max_tasks) = job.task_range;
        let mut summary = RunSummary { incarnations: Vec::new(), completed: false };

        for incarnation in 0..self.policy.max_incarnations {
            // Allocate processors.
            let mut avail = self.rc.available();
            if avail.len() < min_tasks && self.policy.repair_when_starved {
                for p in 0..self.rc.nprocs() {
                    if self.rc.state_of(p) == crate::rc::ProcessorState::Failed {
                        self.rc.repair(p);
                    }
                }
                avail = self.rc.available();
            }
            if avail.len() < min_tasks {
                break; // queued: not enough processors (caller may repair)
            }
            let ntasks = avail.len().min(max_tasks);
            let procs: Vec<usize> = avail.into_iter().take(ntasks).collect();

            // Apply processor failures logged since the last resolution to
            // the memory tier: a failed node's resident pieces are gone for
            // good (repair brings the processor back empty), and entries
            // that lost their last copy of any piece are evicted.
            self.sync_memtier();

            // Restart from the newest checkpoint that can be trusted, if one
            // exists: the walk prefers an intact memory-tier entry at least
            // as new as the durable chain, then falls through to the PIOFS
            // walk, which scrubs repairable damage, quarantines the rest,
            // and reports how far it fell back.
            let plan = drms_memtier::choose_restart_tiered(
                &self.fs,
                self.memtier.as_deref(),
                Some(&job.app),
                &*self.log.recorder(),
                incarnation as f64,
            );
            let (restart_from, fallback_depth, restart_tier) = match plan.tier {
                RestartTier::Memory => {
                    let prefix = plan.memory.map(|(p, _)| p);
                    if let Some(p) = &prefix {
                        self.log.record(Event::MemTierHit { prefix: p.clone() });
                    }
                    (prefix, 0, RestartTier::Memory)
                }
                RestartTier::Piofs => {
                    let plan = plan.piofs;
                    for prefix in &plan.quarantined {
                        self.log.record(Event::CheckpointQuarantined { prefix: prefix.clone() });
                    }
                    if let Some((prefix, _)) = &plan.chosen {
                        if plan.fallback_depth > 0 {
                            self.log.record(Event::RestartFallback {
                                app: job.app.clone(),
                                prefix: prefix.clone(),
                                depth: plan.fallback_depth,
                            });
                        }
                    }
                    (plan.chosen.map(|(p, _)| p), plan.fallback_depth, RestartTier::Piofs)
                }
            };

            let kill = KillToken::new();
            self.rc.form_pool(&job.app, &procs, kill.clone());
            self.log.record_linked(
                Event::JobStarted {
                    app: job.app.clone(),
                    ntasks,
                    restart_from: restart_from.clone(),
                },
                incarnation as u64,
            );

            // A restarted process begins with empty memory: reset the
            // flight rings before any rank thread can capture into them.
            if let Some(bb) = &self.blackbox {
                bb.begin_incarnation(incarnation as u64);
            }

            let env = JobEnv {
                fs: Arc::clone(&self.fs),
                restart_from: restart_from.clone(),
                kill: kill.clone(),
                enable: enable.clone(),
                incarnation,
                memtier: self.memtier.clone(),
                restart_tier,
                localized: self.policy.localized_recovery,
            };
            let outcomes = Spmd::new(ntasks, self.cost)
                .nodes(procs.clone())
                .recorder(self.log.recorder())
                .chaos(self.chaos.clone())
                .run(|ctx| (job.body)(ctx, &env))
                .unwrap_or_else(|e| vec![JobOutcome::Failed(e.to_string())]);

            // Merge task outcomes: any kill or failure dominates.
            let outcome = outcomes
                .iter()
                .find(|o| matches!(o, JobOutcome::Failed(_)))
                .or_else(|| outcomes.iter().find(|o| matches!(o, JobOutcome::Killed)))
                .cloned()
                .unwrap_or(JobOutcome::Completed);

            summary.incarnations.push(IncarnationRecord {
                ntasks,
                procs: procs.clone(),
                restart_from,
                fallback_depth,
                tier: restart_tier,
                outcome: outcome.clone(),
            });

            if let Some(bb) = &self.blackbox {
                self.blackbox_epilogue(bb, &job.app, incarnation, &summary);
            }

            match outcome {
                JobOutcome::Completed => {
                    self.rc.release_pool(&job.app);
                    self.log.record(Event::JobCompleted { app: job.app.clone() });
                    summary.completed = true;
                    break;
                }
                JobOutcome::Killed => {
                    // The RC's recovery already dissolved the pool (failure)
                    // or the scheduler preempted it; release any leftover
                    // allocation and reincarnate.
                    self.rc.release_pool(&job.app);
                    self.rc.detect_and_recover();
                }
                JobOutcome::Failed(_) => {
                    self.rc.release_pool(&job.app);
                    break;
                }
            }
        }
        summary
    }

    /// Flight-recorder bookkeeping at the end of one incarnation: a
    /// completed run's in-memory tail is sealed directly (no rank thread is
    /// alive to race with); a killed run's unsealed tail is counted and
    /// logged as [`Event::TraceDropped`] — the loss that used to be silent;
    /// then every sealed ring reachable on storage (committed `blackbox-r*`
    /// checkpoint files and crash salvages under the `bb/` area) is fed to
    /// the archive, and the live recovery-ratio gauge is re-published.
    fn blackbox_epilogue(
        &self,
        bb: &Blackbox,
        app: &str,
        incarnation: usize,
        summary: &RunSummary,
    ) {
        let outcome =
            &summary.incarnations.last().expect("epilogue follows a pushed record").outcome;
        match outcome {
            JobOutcome::Completed => {
                for seal in bb.seal_all(bb.latest_time(), "final") {
                    let _ = bb.ingest(&seal.bytes);
                }
            }
            JobOutcome::Killed | JobOutcome::Failed(_) => {
                let dropped = bb.incarnation_died();
                if dropped > 0 {
                    self.log.record(Event::TraceDropped {
                        app: app.to_string(),
                        incarnation,
                        events: dropped,
                    });
                }
            }
        }
        let mut recovered = 0u64;
        let salvage_dir = format!("{}/", drms_blackbox::SALVAGE_DIR);
        for info in self.fs.list("") {
            let is_ring = info.path.starts_with(&salvage_dir)
                || info.path.rsplit_once('/').is_some_and(|(_, n)| n.starts_with("blackbox-r"));
            if !is_ring {
                continue;
            }
            if let Some(bytes) = self.fs.peek(&info.path) {
                if matches!(bb.ingest(&bytes), Ok(true)) {
                    recovered += 1;
                }
            }
        }
        let rec = self.log.recorder();
        if rec.enabled() {
            if recovered > 0 {
                rec.counter_add(0, drms_obs::names::BLACKBOX_RINGS_RECOVERED, None, recovered);
            }
            let killed: Vec<bool> = summary
                .incarnations
                .iter()
                .map(|r| matches!(r.outcome, JobOutcome::Killed))
                .collect();
            rec.gauge_set(
                drms_obs::names::BLACKBOX_RECOVERY_RATIO,
                0,
                bb.live_recovery_fraction(&killed),
            );
        }
    }

    /// Replays processor failures from the event log into the memory tier,
    /// exactly once each. Node memory is diskless: a failure wipes the
    /// node's resident pieces permanently (a repaired processor returns
    /// with empty memory), and any tier entry that lost its last copy of
    /// some piece is evicted and logged as invalidated.
    fn sync_memtier(&self) {
        let Some(tier) = &self.memtier else { return };
        let events = self.log.snapshot();
        let mut cursor = self.tier_cursor.lock();
        let seen = events.len();
        let mut applied = false;
        for e in &events[*cursor..] {
            if let Event::ProcessorFailed { proc } = e {
                applied = true;
                for prefix in tier.fail_node(*proc) {
                    self.log.record(Event::MemTierInvalidated { prefix });
                }
            }
        }
        *cursor = seen;
        // Re-publish the replica-health gauge after node loss ate copies:
        // the minimum surviving holder count of the newest intact entry, or
        // zero once no resident checkpoint can serve a restart. Live health
        // rules alert on this dropping below the configured threshold.
        let rec = self.log.recorder();
        if applied && rec.enabled() {
            let replicas = tier
                .newest_intact(None)
                .and_then(|(prefix, _)| tier.min_replicas(&prefix))
                .unwrap_or(0);
            rec.gauge_set(drms_obs::names::MEMTIER_REPLICAS, 0, replicas as f64);
        }
    }

    /// Raises the system-initiated-checkpoint signal for a job (feature 2
    /// of Section 4: checkpointing under JSA direction for dynamic
    /// scheduling).
    pub fn enable_checkpoint(&self, app: &str, enable: &EnableFlag) {
        enable.raise();
        self.log.record(Event::CheckpointEnabled { app: app.to_string() });
    }
}
