//! Job abstraction: what the JSA schedules.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drms_core::manifest::CkptKind;
use drms_core::{CheckpointArray, CoreError, Drms, DrmsConfig, EnableFlag, RestartInfo, Start};
use drms_delta::restore_arrays_delta;
use drms_memtier::{restore_arrays_from_tier, resume_from_tier, MemTier, RestartTier};
use drms_msg::Ctx;
use drms_piofs::Piofs;
use parking_lot::Mutex;

/// Cooperative kill signal: the RC raises it when the application must die
/// (a processor in its pool failed); tasks observe it at their next SOP.
#[derive(Debug, Clone, Default)]
pub struct KillToken {
    flag: Arc<AtomicBool>,
    reason: Arc<Mutex<Option<String>>>,
}

impl KillToken {
    /// A cleared token.
    pub fn new() -> KillToken {
        KillToken::default()
    }

    /// Raises the token with a reason.
    pub fn kill(&self, reason: &str) {
        *self.reason.lock() = Some(reason.to_string());
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token is raised.
    pub fn is_killed(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// The kill reason, if raised.
    pub fn reason(&self) -> Option<String> {
        self.reason.lock().clone()
    }

    /// Clears the token (before a new incarnation).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::SeqCst);
        *self.reason.lock() = None;
    }
}

/// Environment handed to each incarnation of a job.
pub struct JobEnv {
    /// The shared parallel file system.
    pub fs: Arc<Piofs>,
    /// Checkpoint prefix to restart from, if this incarnation is a restart.
    pub restart_from: Option<String>,
    /// The kind of the checkpoint `restart_from` names, from the manifest
    /// the JSA's restart walk chose. [`CkptKind::Drms`] when `restart_from`
    /// is `None`.
    pub restart_kind: CkptKind,
    /// Cooperative kill signal (check at every SOP via
    /// [`JobEnv::sop_killed`]).
    pub kill: KillToken,
    /// Enable signal for system-initiated checkpoints.
    pub enable: EnableFlag,
    /// Incarnation number (0 = first start).
    pub incarnation: usize,
    /// The in-memory checkpoint tier the JSA manages for this job, when
    /// diskless checkpointing is on (see [`crate::Jsa::with_memtier`]).
    pub memtier: Option<Arc<MemTier>>,
    /// Which tier `restart_from` should be served out of. Always
    /// [`RestartTier::Piofs`] when `restart_from` is `None` or the memory
    /// tier is off.
    pub restart_tier: RestartTier,
    /// Whether the JSA permits localized recovery: on node loss the job
    /// body may restore only the lost ranks' sections in place instead of
    /// exiting [`JobOutcome::Killed`]. When false (the default policy),
    /// every node loss is handled by a full restart.
    pub localized: bool,
}

impl JobEnv {
    /// Collective SOP kill check: all tasks of the region agree on whether
    /// the application has been killed.
    ///
    /// The decision **must** be collective — a task observing the token
    /// alone could abandon a checkpoint collective its siblings have
    /// already entered, deadlocking the region. SOPs are globally
    /// consistent points precisely so that this agreement is possible.
    pub fn sop_killed(&self, ctx: &mut Ctx) -> bool {
        let (votes, _) = ctx.exchange(self.kill.is_killed());
        votes.iter().any(|&k| k)
    }

    /// `drms_initialize` plus the array reload, from whatever the JSA
    /// resolved for this incarnation (collective): a fresh start returns
    /// `None` and leaves `arrays` untouched; a restart serves the segment
    /// and every array — already created under the current distributions —
    /// out of the memory tier or the PIOFS checkpoint `restart_from` names,
    /// a delta link through [`drms_delta::resume`] and
    /// [`restore_arrays_delta`], and returns the restart info. An error
    /// comes back as the [`JobOutcome`] the body should return
    /// ([`JobOutcome::from_err`]).
    pub fn resume(
        &self,
        ctx: &mut Ctx,
        cfg: DrmsConfig,
        arrays: &mut [&mut dyn CheckpointArray],
    ) -> Result<(Drms, Option<RestartInfo>), JobOutcome> {
        let (fs, enable) = (&*self.fs, self.enable.clone());
        let from = self.restart_from.as_deref();
        if let (Some(prefix), RestartTier::Memory, Some(tier)) =
            (from, self.restart_tier, self.memtier.as_deref())
        {
            let (drms, info) = resume_from_tier(ctx, fs, tier, cfg, enable, prefix)
                .map_err(JobOutcome::from_err)?;
            restore_arrays_from_tier(ctx, tier, &drms, prefix, &info.manifest, arrays)
                .map_err(JobOutcome::from_err)?;
            return Ok((drms, Some(*info)));
        }
        let delta = self.restart_kind == CkptKind::DrmsDelta;
        let (drms, start) = match from {
            Some(prefix) if delta => drms_delta::resume(ctx, fs, cfg, enable, prefix),
            _ => Drms::initialize(ctx, fs, cfg, enable, from),
        }
        .map_err(JobOutcome::from_err)?;
        let (Some(prefix), Start::Restarted(info)) = (from, start) else {
            return Ok((drms, None));
        };
        if delta {
            restore_arrays_delta(&drms, ctx, fs, prefix, &info.manifest, arrays)
        } else {
            drms.restore_arrays(ctx, fs, prefix, &info.manifest, arrays)
        }
        .map_err(JobOutcome::from_err)?;
        Ok((drms, Some(*info)))
    }
}

/// Outcome of one incarnation of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Observed the kill token at an SOP and exited.
    Killed,
    /// Application-level failure (bad state, unrecoverable error).
    Failed(
        /// Human-readable reason.
        String,
    ),
}

impl JobOutcome {
    /// The outcome of an incarnation that met `err` in a checkpoint or
    /// restart call: an injected crash point firing
    /// ([`CoreError::Interrupted`]) is a kill the JSA reincarnates from the
    /// last committed checkpoint; anything else fails the job with the
    /// error's text.
    pub fn from_err(err: CoreError) -> JobOutcome {
        match err {
            CoreError::Interrupted(_) => JobOutcome::Killed,
            err => JobOutcome::Failed(err.to_string()),
        }
    }
}

/// A schedulable DRMS application.
///
/// `run` executes one *incarnation* on the tasks of an SPMD region. The
/// resource section of the job's SOQs is expressed by `task_range`: the JSA
/// only launches the job on a task count within it.
pub struct JobSpec {
    /// Application name.
    pub app: String,
    /// Minimum and maximum tasks the job can run on (inclusive).
    pub task_range: (usize, usize),
    /// The SPMD body: every task of the region calls this once per
    /// incarnation.
    #[allow(clippy::type_complexity)]
    pub body: Arc<dyn Fn(&mut Ctx, &JobEnv) -> JobOutcome + Send + Sync>,
}

impl JobSpec {
    /// Builds a job from its parts.
    pub fn new(
        app: &str,
        task_range: (usize, usize),
        body: impl Fn(&mut Ctx, &JobEnv) -> JobOutcome + Send + Sync + 'static,
    ) -> JobSpec {
        assert!(task_range.0 >= 1 && task_range.0 <= task_range.1);
        JobSpec { app: app.to_string(), task_range, body: Arc::new(body) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_token_lifecycle() {
        let k = KillToken::new();
        assert!(!k.is_killed());
        assert_eq!(k.reason(), None);
        k.kill("processor 3 failed");
        assert!(k.is_killed());
        assert_eq!(k.reason().unwrap(), "processor 3 failed");
        k.reset();
        assert!(!k.is_killed());
        assert_eq!(k.reason(), None);
    }

    #[test]
    fn kill_token_shared_between_clones() {
        let k = KillToken::new();
        let k2 = k.clone();
        k.kill("x");
        assert!(k2.is_killed());
    }

    #[test]
    fn from_err_kills_only_on_an_interrupt() {
        let crash = CoreError::Interrupted("ckpt_enter".into());
        assert_eq!(JobOutcome::from_err(crash), JobOutcome::Killed);
        let other = CoreError::NoCheckpoint("ck/x".into());
        assert_eq!(JobOutcome::from_err(other.clone()), JobOutcome::Failed(other.to_string()));
    }

    #[test]
    #[should_panic]
    fn job_spec_validates_range() {
        let _ = JobSpec::new("bad", (4, 2), |_, _| JobOutcome::Completed);
    }
}
