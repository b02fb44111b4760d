use std::sync::Arc;

use drms_chaos::ChaosCtl;
use drms_obs::{names, Recorder};

use crate::board::{Board, Inbox};
use crate::{CostModel, Rank, SimClock};

/// Shared state of one SPMD region: mailboxes, the exchange board, the cost
/// model, the task → node placement, the observability recorder, and the
/// optional chaos controller.
pub(crate) struct World {
    node_of: Vec<usize>,
    cost: CostModel,
    mailboxes: Vec<Inbox<Vec<Envelope>>>,
    board: Board,
    recorder: Arc<dyn Recorder>,
    chaos: Option<Arc<ChaosCtl>>,
}

struct Envelope {
    src: Rank,
    tag: u64,
    arrival: f64,
    payload: Vec<u8>,
}

impl World {
    /// Creates a world of `node_of.len()` tasks, task `rank` placed on node
    /// `node_of[rank]`. [`crate::Spmd`] is the one way in.
    pub(crate) fn build(
        node_of: Vec<usize>,
        cost: CostModel,
        recorder: Arc<dyn Recorder>,
        chaos: Option<Arc<ChaosCtl>>,
    ) -> Arc<World> {
        let ntasks = node_of.len();
        assert!(ntasks > 0, "an SPMD region needs at least one task");
        Arc::new(World {
            node_of,
            cost,
            mailboxes: (0..ntasks).map(|_| Inbox::default()).collect(),
            board: Board::new(ntasks),
            recorder,
            chaos,
        })
    }

    /// Number of tasks in the region.
    pub(crate) fn ntasks(&self) -> usize {
        self.node_of.len()
    }

    /// Builds the per-task context for `rank`.
    pub(crate) fn ctx(self: &Arc<World>, rank: Rank) -> Ctx {
        assert!(rank < self.ntasks());
        Ctx { rank, world: Arc::clone(self), clock: SimClock::new(), chaos_seq: 0 }
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
    /// Chaos decisions drawn so far by this task: a per-task sequence, so
    /// fault outcomes are independent of how sibling tasks interleave.
    chaos_seq: u64,
}

impl Ctx {
    /// This task's rank within the region.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of tasks in the region.
    pub fn ntasks(&self) -> usize {
        self.world.ntasks()
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

    /// The observability recorder for this region (the zero-cost
    /// [`NullRecorder`](drms_obs::NullRecorder) unless the region was started
    /// with [`Spmd::recorder`](crate::Spmd::recorder)).
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.world.recorder
    }

    /// The chaos controller of this region, when it was started with
    /// [`Spmd::chaos`](crate::Spmd::chaos). A clone of the shared handle
    /// (cheap), so callers can consult it while still charging the clock.
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
    /// arrival timestamp (sender completion + latency). No checkpoint or
    /// restart path sends point to point — array data moves through
    /// [`Ctx::alltoallv`] — so the pair carries no fault injection and no
    /// per-message trace; only the message counters see it.
    pub fn send(&mut self, dst: Rank, tag: u64, payload: Vec<u8>) {
        assert!(dst < self.world.ntasks(), "send to nonexistent rank {dst}");
        let bytes = payload.len();
        if self.world.recorder.enabled() {
            let rec = &self.world.recorder;
            let t = self.clock.now();
            rec.counter_add_at(t, self.rank, names::MESSAGES_SENT, None, 1);
            rec.counter_add_at(t, self.rank, names::MESSAGE_BYTES, None, bytes as u64);
        }
        let cost = &self.world.cost;
        self.clock.advance(cost.send_overhead + cost.wire_time(bytes));
        let arrival = self.clock.now() + cost.latency;
        let env = Envelope { src: self.rank, tag, arrival, payload };
        self.world.mailboxes[dst].put(|queue| queue.push(env));
    }

    /// Receives the next message from `src` with tag `tag`, blocking until
    /// it arrives. Messages from the same sender with the same tag are
    /// delivered in send order.
    pub fn recv(&mut self, src: Rank, tag: u64) -> Vec<u8> {
        assert!(src < self.world.ntasks(), "recv from nonexistent rank {src}");
        let rank = self.rank;
        let env = self.world.mailboxes[rank].wait(
            || format!("rank {rank} stalled waiting for message (src {src}, tag {tag})"),
            |q| q.iter().position(|e| e.src == src && e.tag == tag).map(|i| q.remove(i)),
        );
        self.clock.advance_to(env.arrival);
        self.clock.advance(self.world.cost.recv_overhead);
        env.payload
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
        self.world.board.exchange(self.rank, self.clock.now(), value)
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
        self.clock.advance(self.world.cost.collective_latency(self.world.ntasks()));
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
            self.world.cost.collective_latency(self.world.ntasks())
                + self.world.cost.wire_time(bytes),
        );
        all
    }

    /// Personalized all-to-all exchange: `outgoing[d]` is the parcel for
    /// task `d` (empty parcels are free). Returns a handle to every task's
    /// incoming parcels.
    ///
    /// Time: all tasks synchronize (data dependency), then each task is
    /// charged the log-latency of the exchange plus the wire time of
    /// `max(bytes sent, bytes received)` — the standard congestion-free
    /// alltoall model. A parcel is priced and counted at its
    /// [`Parcel::wire_len`], whatever it holds: tasks share one address
    /// space, so a parcel of shared handles crosses by reference at the
    /// price of its encoding.
    pub fn alltoallv<P: Parcel>(&mut self, outgoing: Vec<P>) -> Incoming<P> {
        assert_eq!(outgoing.len(), self.world.ntasks(), "one parcel per destination");
        let sent: usize = outgoing
            .iter()
            .enumerate()
            .filter(|&(d, _)| d != self.rank)
            .map(|(_, b)| b.wire_len())
            .sum();
        if self.world.recorder.enabled() {
            let msgs = outgoing
                .iter()
                .enumerate()
                .filter(|&(d, b)| d != self.rank && b.wire_len() > 0)
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
            .map(|(_, parcels)| parcels[self.rank].wire_len())
            .sum();
        self.clock.advance_to(t);
        self.clock.advance(
            self.world.cost.collective_latency(self.world.ntasks())
                + self.world.cost.wire_time(sent.max(received)),
        );
        Incoming { all, rank: self.rank }
    }
}

/// A payload [`Ctx::alltoallv`] can carry: it reports the bytes it would
/// occupy on the wire, which is all the cost model and the message counters
/// see. A byte buffer is its own length; a parcel of shared handles reports
/// the length of the encoding it stands for, so passing it by reference
/// leaves every clock and counter where the encoded bytes would have.
pub trait Parcel: Send + Sync + 'static {
    /// Bytes this parcel occupies on the wire (0 for an empty parcel,
    /// which is free and not counted as a message).
    fn wire_len(&self) -> usize;
}

impl Parcel for Vec<u8> {
    fn wire_len(&self) -> usize {
        self.len()
    }
}

/// Received side of an [`Ctx::alltoallv`]: zero-copy access to the parcel
/// each source task addressed to this rank.
pub struct Incoming<P = Vec<u8>> {
    all: Arc<Vec<Vec<P>>>,
    rank: Rank,
}

impl<P> Incoming<P> {
    /// The parcel task `src` sent to this task.
    pub fn from(&self, src: Rank) -> &P {
        &self.all[src][self.rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_spmd, Spmd, SpmdError};

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
    fn a_parcel_is_priced_and_counted_like_bytes_of_its_wire_length() {
        use drms_obs::TraceRecorder;

        /// Stands for `len` encoded bytes without holding any.
        struct Stub(usize);
        impl Parcel for Stub {
            fn wire_len(&self) -> usize {
                self.0
            }
        }

        // Uneven lengths, with empty parcels to others (free, not a
        // message) and to self (never priced).
        const LEN: [[usize; 3]; 3] = [[0, 3000, 0], [500, 0, 2000], [0, 7000, 64]];
        let len = |src: usize, dst: usize| LEN[src][dst];
        let run = |stub: bool| {
            let rec = Arc::new(TraceRecorder::new());
            let clocks = crate::run_spmd_traced(
                3,
                CostModel::default(),
                Arc::clone(&rec) as Arc<dyn Recorder>,
                |ctx| {
                    ctx.charge(ctx.rank() as f64 * 1e-4);
                    let me = ctx.rank();
                    if stub {
                        let _ = ctx.alltoallv((0..3).map(|d| Stub(len(me, d))).collect());
                    } else {
                        let _ = ctx.alltoallv((0..3).map(|d| vec![0u8; len(me, d)]).collect());
                    }
                    ctx.now().to_bits()
                },
            )
            .unwrap();
            (clocks, rec.metrics().counters())
        };
        let (bytes, stubs) = (run(false), run(true));
        assert_eq!(stubs, bytes);
        assert!(bytes.1.iter().any(|(k, v)| k.name == names::MESSAGE_BYTES && *v > 0));
    }

    #[test]
    fn node_placement_is_visible() {
        let out = Spmd::new(3, CostModel::free())
            .nodes(vec![5, 6, 7])
            .run(|ctx| (ctx.node(), ctx.node_of(0), ctx.ntasks()))
            .unwrap();
        assert_eq!(out[2], (7, 5, 3));
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
    }

    #[test]
    fn p2p_ring_delivers_every_message_by_tag() {
        let out = run_spmd(3, CostModel::default(), |ctx| {
            let me = ctx.rank();
            let next = (me + 1) % 3;
            let prev = (me + 2) % 3;
            for i in 0..4u64 {
                ctx.send(next, i, vec![me as u8; 8]);
            }
            (0..4u64).map(|i| ctx.recv(prev, i)).collect::<Vec<_>>()
        })
        .unwrap();
        for (me, got) in out.iter().enumerate() {
            let prev = (me + 2) % 3;
            assert!(got.iter().all(|m| *m == vec![prev as u8; 8]), "rank {me}");
        }
    }

    #[test]
    fn recv_from_nonexistent_rank_panics_at_once() {
        let started = std::time::Instant::now();
        let err = run_spmd(1, CostModel::free(), |ctx| ctx.recv(1, 0)).unwrap_err();
        match err {
            SpmdError::TaskPanicked { rank, message } => {
                assert_eq!(rank, 0);
                assert!(message.contains("nonexistent rank 1"), "{message}");
            }
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
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
