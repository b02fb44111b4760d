use std::sync::Arc;
use std::time::Duration;

use drms_chaos::{mix, ChaosCtl};
use drms_obs::{names, NullRecorder, Phase, Recorder};
use parking_lot::{Condvar, Mutex};

use crate::board::Board;
use crate::{CostModel, Rank, SimClock};

/// Shared state of one SPMD region: mailboxes, the exchange board, the cost
/// model, the task → node placement, the observability recorder, and the
/// optional chaos controller.
pub struct World {
    ntasks: usize,
    node_of: Vec<usize>,
    cost: CostModel,
    mailboxes: Vec<Mailbox>,
    board: Board,
    recorder: Arc<dyn Recorder>,
    chaos: Option<Arc<ChaosCtl>>,
}

struct Mailbox {
    queue: Mutex<Vec<Envelope>>,
    cv: Condvar,
}

struct Envelope {
    src: Rank,
    tag: u64,
    arrival: f64,
    /// Correlation id shared by the send and receive trace reports, so
    /// causal analysis can pair them into cross-task edges.
    corr: u64,
    payload: Vec<u8>,
}

impl World {
    /// Creates a world of `ntasks` tasks placed on nodes `node_of`
    /// (one entry per task).
    pub fn new(ntasks: usize, node_of: Vec<usize>, cost: CostModel) -> Arc<World> {
        Self::new_traced(ntasks, node_of, cost, Arc::new(NullRecorder))
    }

    /// Like [`World::new`], but every task reports spans, events, and
    /// counters to `recorder` (in simulated time).
    pub fn new_traced(
        ntasks: usize,
        node_of: Vec<usize>,
        cost: CostModel,
        recorder: Arc<dyn Recorder>,
    ) -> Arc<World> {
        Self::build(ntasks, node_of, cost, recorder, None)
    }

    /// Like [`World::new_traced`], but with a chaos controller installed:
    /// the send path injects transient failures, duplicated deliveries,
    /// and added latency per the controller's plan, and instrumented
    /// layers reach the controller through [`Ctx::chaos`].
    pub fn new_chaos(
        ntasks: usize,
        node_of: Vec<usize>,
        cost: CostModel,
        recorder: Arc<dyn Recorder>,
        chaos: Arc<ChaosCtl>,
    ) -> Arc<World> {
        Self::build(ntasks, node_of, cost, recorder, Some(chaos))
    }

    fn build(
        ntasks: usize,
        node_of: Vec<usize>,
        cost: CostModel,
        recorder: Arc<dyn Recorder>,
        chaos: Option<Arc<ChaosCtl>>,
    ) -> Arc<World> {
        assert!(ntasks > 0, "an SPMD region needs at least one task");
        assert_eq!(node_of.len(), ntasks, "one node per task");
        Arc::new(World {
            ntasks,
            node_of,
            cost,
            mailboxes: (0..ntasks)
                .map(|_| Mailbox { queue: Mutex::new(Vec::new()), cv: Condvar::new() })
                .collect(),
            board: Board::new(ntasks),
            recorder,
            chaos,
        })
    }

    /// Number of tasks in the region.
    pub fn ntasks(&self) -> usize {
        self.ntasks
    }

    /// The communication cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Builds the per-task context for `rank`. Used by the runner; tests may
    /// call it directly when driving tasks by hand.
    pub fn ctx(self: &Arc<World>, rank: Rank) -> Ctx {
        assert!(rank < self.ntasks);
        Ctx {
            rank,
            world: Arc::clone(self),
            clock: SimClock::new(),
            send_seq: 0,
            chaos_seq: 0,
            seen_corr: std::collections::HashSet::new(),
        }
    }
}

/// Reduction operators for `allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Maximum contribution.
    Max,
    /// Minimum contribution.
    Min,
}

impl ReduceOp {
    fn fold(self, xs: &[f64]) -> f64 {
        match self {
            ReduceOp::Sum => xs.iter().sum(),
            ReduceOp::Max => xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => xs.iter().cloned().fold(f64::INFINITY, f64::min),
        }
    }
}

/// Per-task communication context: rank, placement, virtual clock, and the
/// message-passing operations.
pub struct Ctx {
    rank: Rank,
    world: Arc<World>,
    clock: SimClock,
    /// Messages sent so far by this task; combined with the rank it yields
    /// a correlation id unique per message and deterministic per run.
    send_seq: u64,
    /// Chaos decisions drawn so far by this task: a per-task sequence, so
    /// fault outcomes are independent of how sibling tasks interleave.
    chaos_seq: u64,
    /// Correlation ids already delivered to this task — receive-side dedup
    /// for chaos-injected duplicate deliveries. Populated only in chaos
    /// worlds.
    seen_corr: std::collections::HashSet<u64>,
}

impl Ctx {
    /// This task's rank within the region.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of tasks in the region.
    pub fn ntasks(&self) -> usize {
        self.world.ntasks
    }

    /// The node (processor) this task is placed on.
    pub fn node(&self) -> usize {
        self.world.node_of[self.rank]
    }

    /// The node a given task is placed on.
    pub fn node_of(&self, rank: Rank) -> usize {
        self.world.node_of[rank]
    }

    /// The communication cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.world.cost
    }

    /// The observability recorder for this region ([`NullRecorder`] unless
    /// the world was built with [`World::new_traced`]).
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.world.recorder
    }

    /// The chaos controller of this region, when the world was built with
    /// [`World::new_chaos`]. A clone of the shared handle (cheap), so
    /// callers can consult it while still charging the clock.
    pub fn chaos(&self) -> Option<Arc<ChaosCtl>> {
        self.world.chaos.clone()
    }

    /// Draws the next per-task chaos sequence number. Instrumented sites
    /// fold it into their fault-decision hash so consecutive operations on
    /// one task decide independently, deterministically per run.
    pub fn chaos_key(&mut self) -> u64 {
        self.chaos_seq += 1;
        self.chaos_seq
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Charges `seconds` of local computation against the virtual clock.
    pub fn charge(&mut self, seconds: f64) {
        self.clock.advance(seconds);
    }

    /// Moves this task's clock forward to `t` (no-op if `t` is in the past).
    pub fn advance_to(&mut self, t: f64) {
        self.clock.advance_to(t);
    }

    /// Runs `body` on a *detached timeline*: side effects (messages, file
    /// writes, fault decisions) execute eagerly with normal virtual-time
    /// pricing, but when the region finishes this task's clock is rewound
    /// to where it started, and the measured duration is returned alongside
    /// the result. This is how background work (an asynchronous checkpoint
    /// flush) overlaps with subsequent compute in a simulation whose
    /// clocks otherwise only move forward: the work happens now, the time
    /// it took is accounted to a background timeline by the caller.
    ///
    /// The region is **collective**: if `body` performs barriers,
    /// exchanges, or collective I/O, every task of the region must be
    /// inside its own `run_detached` call at the same program point,
    /// entering with reconciled clocks (barrier first), so the detached
    /// timestamps agree across tasks and the measured duration is
    /// identical on every rank.
    pub fn run_detached<R>(&mut self, body: impl FnOnce(&mut Ctx) -> R) -> (R, f64) {
        let saved = self.clock;
        let out = body(self);
        let d = (self.clock.now() - saved.now()).max(0.0);
        self.clock = saved;
        (out, d)
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Sends `payload` to task `dst` with message tag `tag`.
    ///
    /// The sender is occupied for the software overhead plus the wire time
    /// of the payload; the message lands in `dst`'s mailbox carrying its
    /// arrival timestamp (sender completion + latency).
    pub fn send(&mut self, dst: Rank, tag: u64, payload: Vec<u8>) {
        assert!(dst < self.world.ntasks, "send to nonexistent rank {dst}");
        // Correlation id: (rank+1) in the high bits, per-task send sequence
        // in the low bits — unique per message and deterministic per run.
        let seq = self.send_seq;
        let corr = ((self.rank as u64 + 1) << 40) | seq;
        self.send_seq += 1;
        let bytes = payload.len();
        if self.world.recorder.enabled() {
            let rec = &self.world.recorder;
            let t = self.clock.now();
            rec.counter_add_at(t, self.rank, names::MESSAGES_SENT, None, 1);
            rec.counter_add_at(t, self.rank, names::MESSAGE_BYTES, None, bytes as u64);
        }

        // Transient send failures: retry with bounded backoff; after the
        // budget the transport escalates to the blocking reliable path (a
        // give-up), so delivery still happens — the faults cost time, not
        // data.
        let mut extra_latency = 0.0;
        let mut duplicate = false;
        if let Some(chaos) = self.world.chaos.clone() {
            let policy = chaos.retry();
            let mut attempt: u32 = 0;
            while chaos.msg_drop(self.rank as u64, seq, attempt as u64) {
                attempt += 1;
                chaos.note_retry();
                if self.world.recorder.enabled() {
                    self.world.recorder.counter_add_at(
                        self.clock.now(),
                        self.rank,
                        names::MSG_RETRIES,
                        None,
                        1,
                    );
                }
                if attempt >= policy.max_attempts {
                    chaos.note_giveup();
                    if self.world.recorder.enabled() {
                        self.world.recorder.counter_add_at(
                            self.clock.now(),
                            self.rank,
                            names::RETRY_GIVEUPS,
                            None,
                            1,
                        );
                    }
                    break;
                }
                let d = policy.delay(attempt - 1, mix(&[corr, dst as u64]));
                let t0 = self.clock.now();
                self.clock.advance(d);
                if self.world.recorder.enabled() {
                    let rec = &self.world.recorder;
                    rec.span_start(t0, self.rank, Phase::Retry, "send_backoff");
                    rec.span_end(self.clock.now(), self.rank, Phase::Retry, "send_backoff");
                }
            }
            extra_latency = chaos.msg_extra_latency(self.rank as u64, seq);
            duplicate = chaos.msg_dup(self.rank as u64, seq);
        }

        let cost = &self.world.cost;
        self.clock.advance(cost.send_overhead + cost.wire_time(bytes));
        if self.world.recorder.enabled() {
            self.world.recorder.msg_sent(self.clock.now(), self.rank, dst, tag, corr, bytes as u64);
        }
        let arrival = self.clock.now() + cost.latency + extra_latency;
        let mb = &self.world.mailboxes[dst];
        let mut q = mb.queue.lock();
        if duplicate {
            // Delivered twice with the same correlation id; the receiver's
            // dedup drops whichever copy arrives second.
            q.push(Envelope { src: self.rank, tag, arrival, corr, payload: payload.clone() });
        }
        q.push(Envelope { src: self.rank, tag, arrival, corr, payload });
        mb.cv.notify_all();
    }

    /// Receives the next message from `src` with tag `tag`, blocking until
    /// it arrives. Messages from the same sender with the same tag are
    /// delivered in send order.
    pub fn recv(&mut self, src: Rank, tag: u64) -> Vec<u8> {
        let mb = &self.world.mailboxes[self.rank];
        let mut q = mb.queue.lock();
        loop {
            if let Some(pos) = q.iter().position(|e| e.src == src && e.tag == tag) {
                let env = q.remove(pos);
                // Chaos worlds can deliver a message twice; the first copy
                // wins and later copies are dropped by correlation id.
                if self.world.chaos.is_some() && !self.seen_corr.insert(env.corr) {
                    if self.world.recorder.enabled() {
                        self.world.recorder.counter_add_at(
                            self.clock.now(),
                            self.rank,
                            names::MSG_DUPLICATES,
                            None,
                            1,
                        );
                    }
                    continue;
                }
                drop(q);
                let cost = &self.world.cost;
                self.clock.advance_to(env.arrival);
                self.clock.advance(cost.recv_overhead);
                if self.world.recorder.enabled() {
                    self.world.recorder.msg_received(
                        self.clock.now(),
                        src,
                        self.rank,
                        tag,
                        env.corr,
                    );
                }
                return env.payload;
            }
            if mb.cv.wait_for(&mut q, Duration::from_secs(120)).timed_out() {
                panic!("rank {} stalled waiting for message (src {src}, tag {tag})", self.rank);
            }
        }
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Raw all-to-all rendezvous: deposits `value`, returns every task's
    /// deposit (rank-indexed) and the latest deposit time.
    ///
    /// Does **not** adjust the clock; callers implementing higher-level
    /// collectives decide how to charge time. This is the primitive the
    /// parallel file system uses to schedule collective I/O phases
    /// deterministically.
    pub fn exchange<T: Send + Sync + 'static>(&mut self, value: T) -> (Arc<Vec<T>>, f64) {
        let got = self.world.board.exchange(self.rank, self.clock.now(), value);
        (got.all, got.max_time)
    }

    /// Barrier: all tasks synchronize; clocks advance to the latest arrival
    /// plus the barrier cost.
    pub fn barrier(&mut self) {
        let (_, t) = self.exchange(());
        self.clock.advance_to(t);
        self.clock.advance(self.world.cost.barrier_cost);
    }

    /// All-reduce over one `f64` per task.
    pub fn allreduce(&mut self, x: f64, op: ReduceOp) -> f64 {
        let (all, t) = self.exchange(x);
        self.clock.advance_to(t);
        self.clock.advance(self.world.cost.collective_latency(self.world.ntasks));
        op.fold(&all)
    }

    /// Gather: every task contributes a byte buffer; all tasks receive the
    /// full rank-indexed vector (an allgather, which is what the DRMS
    /// runtime actually needs for distribution metadata).
    pub fn allgather_bytes(&mut self, data: Vec<u8>) -> Arc<Vec<Vec<u8>>> {
        let total: usize = data.len();
        let (all, t) = self.exchange(data);
        let bytes: usize = all.iter().map(Vec::len).sum::<usize>() - total;
        self.clock.advance_to(t);
        self.clock.advance(
            self.world.cost.collective_latency(self.world.ntasks)
                + self.world.cost.wire_time(bytes),
        );
        all
    }

    /// Broadcast from `root`: only the root's payload is meaningful; every
    /// task receives a handle to it.
    pub fn broadcast_bytes(&mut self, root: Rank, data: Option<Vec<u8>>) -> Arc<Vec<u8>> {
        debug_assert_eq!(data.is_some(), self.rank == root, "only the root supplies data");
        let (all, t) = self.exchange(data.map(Arc::new));
        let payload = all[root].as_ref().expect("root deposited data").clone();
        self.clock.advance_to(t);
        self.clock.advance(
            self.world.cost.collective_latency(self.world.ntasks)
                + self.world.cost.wire_time(payload.len()),
        );
        payload
    }

    /// Personalized all-to-all exchange: `outgoing[d]` is the buffer for
    /// task `d` (empty buffers are free). Returns a handle to every task's
    /// incoming buffers.
    ///
    /// Time: all tasks synchronize (data dependency), then each task is
    /// charged the log-latency of the exchange plus the wire time of
    /// `max(bytes sent, bytes received)` — the standard congestion-free
    /// alltoall model.
    pub fn alltoallv(&mut self, outgoing: Vec<Vec<u8>>) -> Incoming {
        assert_eq!(outgoing.len(), self.world.ntasks, "one buffer per destination");
        let sent: usize = outgoing
            .iter()
            .enumerate()
            .filter(|&(d, _)| d != self.rank)
            .map(|(_, b)| b.len())
            .sum();
        if self.world.recorder.enabled() {
            let msgs = outgoing
                .iter()
                .enumerate()
                .filter(|&(d, b)| d != self.rank && !b.is_empty())
                .count() as u64;
            let rec = &*self.world.recorder;
            let t = self.clock.now();
            rec.counter_add_at(t, self.rank, names::MESSAGES_SENT, None, msgs);
            rec.counter_add_at(t, self.rank, names::MESSAGE_BYTES, None, sent as u64);
        }
        let (all, t) = self.exchange(outgoing);
        let received: usize = all
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != self.rank)
            .map(|(_, bufs)| bufs[self.rank].len())
            .sum();
        self.clock.advance_to(t);
        self.clock.advance(
            self.world.cost.collective_latency(self.world.ntasks)
                + self.world.cost.wire_time(sent.max(received)),
        );
        Incoming { all, rank: self.rank }
    }
}

/// Received side of an [`Ctx::alltoallv`]: zero-copy access to the buffer
/// each source task addressed to this rank.
pub struct Incoming {
    all: Arc<Vec<Vec<Vec<u8>>>>,
    rank: Rank,
}

impl Incoming {
    /// The bytes task `src` sent to this task.
    pub fn from(&self, src: Rank) -> &[u8] {
        &self.all[src][self.rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;
    use crate::run_spmd_chaos;
    use drms_chaos::{FaultPlan, MsgFaults};
    use drms_obs::TraceRecorder;

    #[test]
    fn chaos_drops_retry_then_deliver() {
        // Every send attempt is faulted: the sender burns its whole retry
        // budget, gives up, and escalates — the payload still arrives.
        let plan = FaultPlan {
            msg: MsgFaults { drop_prob: 1.0, ..Default::default() },
            ..FaultPlan::seeded(7)
        };
        let ctl = ChaosCtl::new(plan);
        let rec = Arc::new(TraceRecorder::new());
        let out = run_spmd_chaos(2, CostModel::free(), rec.clone(), ctl.clone(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![42]);
                0u8
            } else {
                ctx.recv(0, 5)[0]
            }
        })
        .unwrap();
        assert_eq!(out, vec![0, 42]);
        assert!(ctl.retries() > 0, "fault plan never tripped a retry");
        assert_eq!(ctl.giveups(), 1, "full-budget drop must escalate exactly once");
        let m = rec.metrics();
        assert!(m.counter_total(names::MSG_RETRIES) > 0);
        assert_eq!(m.counter_total(names::RETRY_GIVEUPS), 1);
    }

    #[test]
    fn chaos_duplicates_are_dropped_by_dedup() {
        let plan = FaultPlan {
            msg: MsgFaults { dup_prob: 1.0, ..Default::default() },
            ..FaultPlan::seeded(11)
        };
        let ctl = ChaosCtl::new(plan);
        let rec = Arc::new(TraceRecorder::new());
        let out = run_spmd_chaos(2, CostModel::free(), rec.clone(), ctl, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..5u8 {
                    ctx.send(1, 9, vec![i]);
                }
                Vec::new()
            } else {
                (0..5).map(|_| ctx.recv(0, 9)[0]).collect::<Vec<u8>>()
            }
        })
        .unwrap();
        // Payloads arrive exactly once each despite double delivery. The
        // fifth message's second copy is still queued when the region ends
        // (nothing recvs past it), so four duplicates are actually dropped.
        assert_eq!(out[1], (0..5).collect::<Vec<u8>>());
        assert_eq!(rec.metrics().counter_total(names::MSG_DUPLICATES), 4);
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let run = |seed: u64| {
            let plan = FaultPlan {
                msg: MsgFaults { drop_prob: 0.4, dup_prob: 0.3, max_extra_latency: 0.25 },
                ..FaultPlan::seeded(seed)
            };
            let ctl = ChaosCtl::new(plan);
            let out = run_spmd_chaos(
                2,
                CostModel::default(),
                Arc::new(drms_obs::NullRecorder),
                ctl.clone(),
                |ctx| {
                    if ctx.rank() == 0 {
                        for i in 0..20u8 {
                            ctx.send(1, 1, vec![i]);
                        }
                    } else {
                        for _ in 0..20 {
                            ctx.recv(0, 1);
                        }
                    }
                    ctx.now().to_bits()
                },
            )
            .unwrap();
            (out, ctl.retries(), ctl.giveups())
        };
        assert_eq!(run(3), run(3), "same seed must replay bit-identically");
        assert_ne!(run(3), run(4), "different seeds should perturb the run");
    }

    #[test]
    fn p2p_roundtrip_and_timing() {
        let cost = CostModel {
            latency: 1.0,
            bandwidth: 10.0,
            send_overhead: 0.5,
            recv_overhead: 0.25,
            barrier_cost: 0.0,
            memcpy_bw: f64::INFINITY,
        };
        let out = run_spmd(2, cost, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1, 2, 3, 4, 5]); // 5 bytes
                ctx.now()
            } else {
                let data = ctx.recv(0, 7);
                assert_eq!(data, vec![1, 2, 3, 4, 5]);
                ctx.now()
            }
        })
        .unwrap();
        // Sender: 0.5 overhead + 5/10 wire = 1.0.
        assert!((out[0] - 1.0).abs() < 1e-12);
        // Receiver: arrival (1.0 + 1.0 latency) + 0.25 overhead = 2.25.
        assert!((out[1] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn messages_same_tag_fifo() {
        let out = run_spmd(2, CostModel::free(), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10u8 {
                    ctx.send(1, 3, vec![i]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| ctx.recv(0, 3)[0]).collect::<Vec<u8>>()
            }
        })
        .unwrap();
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn recv_matches_by_tag() {
        let out = run_spmd(2, CostModel::free(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![11]);
                ctx.send(1, 2, vec![22]);
                0
            } else {
                // Receive out of send order, selected by tag.
                let b = ctx.recv(0, 2)[0];
                let a = ctx.recv(0, 1)[0];
                assert_eq!((a, b), (11, 22));
                1
            }
        })
        .unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn barrier_reconciles_clocks() {
        let cost = CostModel { barrier_cost: 0.5, ..CostModel::free() };
        let out = run_spmd(4, cost, |ctx| {
            ctx.charge(ctx.rank() as f64); // ranks at t = 0,1,2,3
            ctx.barrier();
            ctx.now()
        })
        .unwrap();
        for t in out {
            assert!((t - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn allreduce_ops() {
        let out = run_spmd(4, CostModel::free(), |ctx| {
            let x = ctx.rank() as f64 + 1.0; // 1,2,3,4
            (
                ctx.allreduce(x, ReduceOp::Sum),
                ctx.allreduce(x, ReduceOp::Max),
                ctx.allreduce(x, ReduceOp::Min),
            )
        })
        .unwrap();
        for (s, mx, mn) in out {
            assert_eq!(s, 10.0);
            assert_eq!(mx, 4.0);
            assert_eq!(mn, 1.0);
        }
    }

    #[test]
    fn broadcast_delivers_root_payload() {
        let out = run_spmd(3, CostModel::default(), |ctx| {
            let data = (ctx.rank() == 1).then(|| vec![9, 8, 7]);
            let got = ctx.broadcast_bytes(1, data);
            got.to_vec()
        })
        .unwrap();
        for v in out {
            assert_eq!(v, vec![9, 8, 7]);
        }
    }

    #[test]
    fn allgather_collects_rank_indexed() {
        let out = run_spmd(3, CostModel::default(), |ctx| {
            let got = ctx.allgather_bytes(vec![ctx.rank() as u8; ctx.rank() + 1]);
            got.iter().map(|b| b.len()).collect::<Vec<_>>()
        })
        .unwrap();
        for lens in out {
            assert_eq!(lens, vec![1, 2, 3]);
        }
    }

    #[test]
    fn alltoallv_routes_buffers() {
        let out = run_spmd(4, CostModel::default(), |ctx| {
            let me = ctx.rank() as u8;
            let outgoing: Vec<Vec<u8>> = (0..4).map(|d| vec![me * 10 + d as u8]).collect();
            let incoming = ctx.alltoallv(outgoing);
            (0..4).map(|s| incoming.from(s)[0]).collect::<Vec<u8>>()
        })
        .unwrap();
        for (rank, got) in out.iter().enumerate() {
            let expect: Vec<u8> = (0..4).map(|s| (s * 10 + rank) as u8).collect();
            assert_eq!(*got, expect, "rank {rank}");
        }
    }

    #[test]
    fn alltoallv_timing_uses_max_direction() {
        let cost = CostModel {
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            barrier_cost: 0.0,
            memcpy_bw: f64::INFINITY,
        };
        let out = run_spmd(2, cost, |ctx| {
            // Rank 0 sends 8 bytes to rank 1; rank 1 sends 2 bytes back.
            let outgoing = if ctx.rank() == 0 {
                vec![Vec::new(), vec![0; 8]]
            } else {
                vec![vec![0; 2], Vec::new()]
            };
            let _ = ctx.alltoallv(outgoing);
            ctx.now()
        })
        .unwrap();
        // Both directions overlap; each task pays max(sent, received) = 8.
        assert!((out[0] - 8.0).abs() < 1e-12);
        assert!((out[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn node_placement_is_visible() {
        let world = World::new(3, vec![5, 6, 7], CostModel::free());
        let ctx = world.ctx(2);
        assert_eq!(ctx.node(), 7);
        assert_eq!(ctx.node_of(0), 5);
        assert_eq!(ctx.ntasks(), 3);
    }

    #[test]
    fn traced_world_counts_sends_and_alltoallv_volume() {
        use drms_obs::TraceRecorder;

        let rec = Arc::new(TraceRecorder::new());
        crate::run_spmd_traced(
            2,
            CostModel::default(),
            Arc::clone(&rec) as Arc<dyn Recorder>,
            |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 9, vec![0u8; 100]);
                } else {
                    assert_eq!(ctx.recv(0, 9).len(), 100);
                }
                // Each rank ships 10 bytes to the other (self-buffer free).
                let outgoing = if ctx.rank() == 0 {
                    vec![Vec::new(), vec![0; 10]]
                } else {
                    vec![vec![0; 10], Vec::new()]
                };
                let _ = ctx.alltoallv(outgoing);
            },
        )
        .unwrap();
        // One p2p message plus one alltoallv message per rank.
        assert_eq!(rec.metrics().counter_total(names::MESSAGES_SENT), 3);
        assert_eq!(rec.metrics().counter_total(names::MESSAGE_BYTES), 120);
        // The point-to-point message got a correlation id and both
        // endpoints reported, so causal analysis can pair send with
        // receive. (alltoallv is a synchronized exchange — it has no
        // per-message arrival to pair, only the counters above.)
        let msgs = rec.msg_records();
        assert_eq!(msgs.len(), 1);
        let m = &msgs[0];
        assert_eq!((m.src, m.dst, m.tag, m.bytes), (0, 1, 9, 100));
        assert!(m.recv_t.is_some_and(|rt| rt >= m.send_t));
    }

    #[test]
    fn p2p_correlation_ids_unique_and_paired_across_many_messages() {
        use drms_obs::TraceRecorder;

        let rec = Arc::new(TraceRecorder::new());
        crate::run_spmd_traced(
            3,
            CostModel::default(),
            Arc::clone(&rec) as Arc<dyn Recorder>,
            |ctx| {
                let me = ctx.rank();
                let next = (me + 1) % 3;
                let prev = (me + 2) % 3;
                for i in 0..4u64 {
                    ctx.send(next, i, vec![me as u8; 8]);
                }
                for i in 0..4u64 {
                    assert_eq!(ctx.recv(prev, i).len(), 8);
                }
            },
        )
        .unwrap();
        let msgs = rec.msg_records();
        assert_eq!(msgs.len(), 12);
        assert!(msgs.iter().all(|m| m.recv_t.is_some_and(|rt| rt >= m.send_t)));
        let mut corrs: Vec<u64> = msgs.iter().map(|m| m.corr).collect();
        corrs.sort_unstable();
        corrs.dedup();
        assert_eq!(corrs.len(), 12, "correlation ids must be unique");
    }

    #[test]
    fn untraced_world_records_nothing() {
        let rec = drms_obs::TraceRecorder::new();
        run_spmd(2, CostModel::default(), |ctx| {
            assert!(!ctx.recorder().enabled());
            let _ = ctx.alltoallv(vec![vec![1], vec![2]]);
        })
        .unwrap();
        assert!(rec.events().is_empty());
        assert_eq!(rec.metrics().counters().len(), 0);
    }
}
