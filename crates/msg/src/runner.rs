use std::fmt;
use std::sync::Arc;

use drms_chaos::ChaosCtl;
use drms_obs::{NullRecorder, Recorder};

use crate::comm::World;
use crate::{CostModel, Ctx};

/// Error from running an SPMD region.
#[derive(Debug)]
pub enum SpmdError {
    /// One of the tasks panicked; the region is unusable.
    TaskPanicked {
        /// Rank of the first failed task.
        rank: usize,
        /// Panic payload rendered to a string, when available.
        message: String,
    },
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmdError::TaskPanicked { rank, message } => {
                write!(f, "SPMD task {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SpmdError {}

/// How to start an SPMD region: the task → node placement, the cost
/// model, the observability recorder and the optional chaos controller,
/// then [`Spmd::run`].
///
/// ```
/// use drms_msg::{CostModel, Spmd};
///
/// let nodes = Spmd::new(3, CostModel::free()).nodes(vec![4, 5, 6]).run(|ctx| ctx.node());
/// assert_eq!(nodes.unwrap(), vec![4, 5, 6]);
/// ```
pub struct Spmd {
    node_of: Vec<usize>,
    cost: CostModel,
    recorder: Arc<dyn Recorder>,
    chaos: Option<Arc<ChaosCtl>>,
}

impl Spmd {
    /// A region of `ntasks` tasks mapped one-to-one onto nodes `0..ntasks`,
    /// reporting to the zero-cost [`NullRecorder`], with no chaos.
    pub fn new(ntasks: usize, cost: CostModel) -> Spmd {
        Spmd { node_of: (0..ntasks).collect(), cost, recorder: Arc::new(NullRecorder), chaos: None }
    }

    /// Places the tasks explicitly: `node_of[rank]` is the processor hosting
    /// `rank`. The placement has one entry per task, so it also sets the
    /// task count to `node_of.len()`.
    pub fn nodes(mut self, node_of: Vec<usize>) -> Spmd {
        self.node_of = node_of;
        self
    }

    /// Tasks report spans, events and counters to `recorder` (in simulated
    /// time), reachable inside the region through [`Ctx::recorder`].
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Spmd {
        self.recorder = recorder;
        self
    }

    /// Subjects the region to a chaos controller's fault plan: the send path
    /// injects transient failures (retried with backoff), duplicated
    /// deliveries and added latency, and instrumented layers reach the
    /// controller through [`Ctx::chaos`]. `None` leaves the region clean.
    pub fn chaos(mut self, chaos: impl Into<Option<Arc<ChaosCtl>>>) -> Spmd {
        self.chaos = chaos.into();
        self
    }

    /// Runs `f` on every task, returning each task's result in rank order.
    ///
    /// One OS thread is spawned per task; the threads communicate through the
    /// world's mailboxes and exchange board, and each carries its own virtual
    /// clock. If any task panics, the panic is captured and reported with its
    /// rank (sibling tasks blocked in collectives will trip their stall
    /// guards).
    pub fn run<R, F>(self, f: F) -> Result<Vec<R>, SpmdError>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        run_world(World::build(self.node_of, self.cost, self.recorder, self.chaos), f)
    }
}

/// Runs `f` as an SPMD region of `ntasks` tasks mapped one-to-one onto nodes
/// `0..ntasks`: `Spmd::new(ntasks, cost).run(f)`.
pub fn run_spmd<R, F>(ntasks: usize, cost: CostModel, f: F) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    Spmd::new(ntasks, cost).run(f)
}

/// Runs `f` as an SPMD region whose tasks report to `recorder`:
/// `Spmd::new(ntasks, cost).recorder(recorder).run(f)`.
pub fn run_spmd_traced<R, F>(
    ntasks: usize,
    cost: CostModel,
    recorder: Arc<dyn Recorder>,
    f: F,
) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    Spmd::new(ntasks, cost).recorder(recorder).run(f)
}

fn run_world<R, F>(world: Arc<World>, f: F) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    let ntasks = world.ntasks();
    let mut results: Vec<Option<R>> = (0..ntasks).map(|_| None).collect();

    let outcome: Result<(), SpmdError> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(ntasks);
        for (rank, slot) in results.iter_mut().enumerate() {
            let world = &world;
            let f = &f;
            let handle = std::thread::Builder::new()
                .name(format!("spmd-task-{rank}"))
                .spawn_scoped(s, move || {
                    let mut ctx = world.ctx(rank);
                    *slot = Some(f(&mut ctx));
                })
                .expect("spawn SPMD task thread");
            handles.push((rank, handle));
        }
        let mut first_failure = None;
        for (rank, handle) in handles {
            if let Err(payload) = handle.join() {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                first_failure.get_or_insert(SpmdError::TaskPanicked { rank, message });
            }
        }
        match first_failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    });

    outcome?;
    Ok(results.into_iter().map(|r| r.expect("task completed")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let out = run_spmd(5, CostModel::free(), |ctx| ctx.rank() * 2).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn custom_node_placement() {
        let out =
            Spmd::new(3, CostModel::free()).nodes(vec![10, 20, 30]).run(|ctx| ctx.node()).unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn panic_is_reported_with_rank() {
        let err = run_spmd(2, CostModel::free(), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        })
        .unwrap_err();
        match err {
            SpmdError::TaskPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("boom"));
            }
        }
    }

    #[test]
    fn single_task_region() {
        let out = run_spmd(1, CostModel::default(), |ctx| {
            ctx.barrier();
            ctx.allreduce(42.0, crate::ReduceOp::Sum)
        })
        .unwrap();
        assert_eq!(out, vec![42.0]);
    }
}
