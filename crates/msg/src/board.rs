//! A reusable all-to-all rendezvous ("exchange board"), and the [`Inbox`]
//! a blocked task parks on.
//!
//! The last task to arrive in a generation takes the deposits out in rank
//! order with the latest timestamp and resets the board in one critical
//! section, so a task that leaves deposits into the next generation at once.
//! Outside the lock it puts the shared result into each other task's inbox,
//! which unparks that task alone: one wake-up per waiter, and the board keeps
//! nothing of the generation. All collectives (barrier, reductions, gathers,
//! `alltoallv`, collective file I/O) are built on this primitive.

use std::any::Any;
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// How long a task may stay blocked before it panics. Tasks block only while
/// siblings are on their way, so a wait this long is a bug (mismatched
/// collective, dead task), and a loud panic beats a hung test suite.
const STALL_TIMEOUT: Duration = Duration::from_secs(120);

/// A value one task waits on and other tasks fill (a board result, a
/// mailbox's messages); only a `put` unparks the waiting thread.
#[derive(Default)]
pub(crate) struct Inbox<T> {
    state: Mutex<(T, Option<Thread>)>,
}

impl<T> Inbox<T> {
    /// Changes the contents with `fill` and unparks the waiter, if any.
    pub fn put(&self, fill: impl FnOnce(&mut T)) {
        let mut state = self.state.lock();
        fill(&mut state.0);
        let parked = state.1.take();
        drop(state);
        parked.iter().for_each(Thread::unpark);
    }

    /// Parks until `take` gets something out of the contents, re-checking
    /// after every wake-up; panics with `stalled()` after [`STALL_TIMEOUT`].
    pub fn wait<R>(
        &self,
        stalled: impl FnOnce() -> String,
        mut take: impl FnMut(&mut T) -> Option<R>,
    ) -> R {
        let deadline = Instant::now() + STALL_TIMEOUT;
        loop {
            let mut state = self.state.lock();
            if let Some(out) = take(&mut state.0) {
                return out;
            }
            state.1 = Some(thread::current());
            drop(state);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                panic!("{}", stalled());
            }
            thread::park_timeout(left);
        }
    }
}

type Shared = (Arc<dyn Any + Send + Sync>, f64);

pub(crate) struct Board {
    inner: Mutex<Inner>,
    results: Vec<Inbox<Option<Shared>>>,
}

struct Inner {
    deposits: Vec<Option<(Box<dyn Any + Send>, f64)>>,
    arrived: usize,
}

impl Board {
    pub fn new(ntasks: usize) -> Board {
        Board {
            inner: Mutex::new(Inner { deposits: (0..ntasks).map(|_| None).collect(), arrived: 0 }),
            results: (0..ntasks).map(|_| Inbox::default()).collect(),
        }
    }

    /// Deposits `value` for `rank` at simulated time `now`, waits for all
    /// tasks, and returns everyone's deposits in rank order plus the latest
    /// deposit time.
    ///
    /// Every participating task must call this with the same `T`; the board
    /// enforces one-deposit-per-rank-per-generation.
    pub fn exchange<T: Send + Sync + 'static>(
        &self,
        rank: usize,
        now: f64,
        value: T,
    ) -> (Arc<Vec<T>>, f64) {
        let mut g = self.inner.lock();
        debug_assert!(g.deposits[rank].is_none(), "rank {rank} deposited twice");
        g.deposits[rank] = Some((Box::new(value), now));
        g.arrived += 1;

        if g.arrived < self.results.len() {
            drop(g);
            let what = "sibling tasks to reach the exchange";
            let (all, max_time) = self.results[rank].wait(
                || format!("collective stalled for {STALL_TIMEOUT:?} waiting for {what}"),
                Option::take,
            );
            return (all.downcast().expect("uniform exchange type"), max_time);
        }

        // Last arriver: publish and reset in one critical section, then hand out.
        let mut max_time = f64::NEG_INFINITY;
        let mut vals = Vec::with_capacity(g.arrived);
        for d in g.deposits.iter_mut() {
            let (boxed, t) = d.take().expect("all ranks deposited");
            vals.push(*boxed.downcast::<T>().expect("uniform exchange type"));
            max_time = max_time.max(t);
        }
        g.arrived = 0;
        drop(g);
        let all = Arc::new(vals);
        for (_, inbox) in self.results.iter().enumerate().filter(|&(r, _)| r != rank) {
            inbox.put(|result| *result = Some((Arc::clone(&all) as _, max_time)));
        }
        (all, max_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `task(rank)` on `n` threads; returns the results in rank order.
    fn on_tasks<R: Send>(n: usize, task: impl Fn(usize) -> R + Sync) -> Vec<R> {
        thread::scope(|s| {
            let task = &task;
            let tasks: Vec<_> = (0..n).map(|rank| s.spawn(move || task(rank))).collect();
            tasks.into_iter().map(|t| t.join().unwrap()).collect()
        })
    }

    #[test]
    fn exchange_collects_all_deposits() {
        let board = Board::new(4);
        for (all, max_time) in on_tasks(4, |rank| board.exchange(rank, rank as f64, rank * 10)) {
            assert_eq!(*all, vec![0, 10, 20, 30]);
            assert_eq!(max_time, 3.0);
        }
    }

    const TASKS: usize = 16;

    /// 2000 generations on 16 threads, each task yielding 0–3 times (drawn
    /// from `seed`) before a deposit: numbers in even generations, strings in
    /// odd ones. Checks every result; returns each one's time and size.
    fn run_generations(seed: u64) -> Vec<Vec<(f64, usize)>> {
        let board = Board::new(TASKS);
        on_tasks(TASKS, |rank| {
            let yields = |g: usize| {
                (seed ^ (rank << 32 | g) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62
            };
            (0..2000)
                .map(|g| {
                    (0..yields(g)).for_each(|_| thread::yield_now());
                    let now = (g + (g * 7 + rank * 13) % TASKS) as f64;
                    let (max_time, size) = if g % 2 == 0 {
                        let (all, t) = board.exchange(rank, now, g * 100 + rank);
                        assert!(all.iter().copied().eq((0..TASKS).map(|r| g * 100 + r)));
                        (t, all.iter().sum())
                    } else {
                        let (all, t) = board.exchange(rank, now, format!("{g}/{rank}"));
                        assert!(all.iter().enumerate().all(|(r, v)| *v == format!("{g}/{r}")));
                        (t, all.iter().map(String::len).sum())
                    };
                    assert_eq!(max_time, (g + TASKS - 1) as f64, "generation {g}");
                    (max_time, size)
                })
                .collect()
        })
    }

    #[test]
    fn board_is_reusable_across_generations() {
        // The two yield seeds interleave the tasks differently.
        assert_eq!(run_generations(1), run_generations(2));
    }

    #[test]
    fn no_deposit_outlives_its_generation() {
        let board = Board::new(4);
        let deposits = on_tasks(4, |rank| {
            let value = Arc::new(rank);
            let weak = Arc::downgrade(&value);
            drop(board.exchange(rank, 0.0, value));
            weak
        });
        assert!(deposits.iter().all(|w| w.upgrade().is_none()));
    }

    #[test]
    fn single_task_exchange_is_immediate() {
        let board = Board::new(1);
        let (all, max_time) = board.exchange(0, 7.5, "x");
        assert_eq!(*all, vec!["x"]);
        assert_eq!(max_time, 7.5);
    }
}
