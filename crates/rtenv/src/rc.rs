//! The resource coordinator (RC) and its task coordinators (TCs).

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::events::{Event, EventLog};
use crate::job::KillToken;

/// State of one processor, as tracked by the RC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessorState {
    /// Healthy, in the available pool.
    Available,
    /// Healthy, allocated to an application pool.
    InPool(
        /// Application name.
        String,
    ),
    /// Failed; needs repair before its TC can be restarted.
    Failed,
}

enum TcCommand {
    Kill,
}

struct TcHandle {
    cmd_tx: SyncSender<TcCommand>,
    alive_rx: Receiver<()>,
    join: JoinHandle<()>,
}

/// Starts processor `proc_id`'s TC daemon; `None` when its thread cannot
/// start — a processor whose TC cannot come up is a failed processor.
fn spawn_tc(proc_id: usize) -> Option<TcHandle> {
    let (cmd_tx, cmd_rx) = sync_channel::<TcCommand>(1);
    // The alive channel never carries messages; its disconnection is the
    // liveness signal, standing in for the paper's lost socket connection.
    let (_alive_tx, alive_rx) = {
        let (tx, rx) = sync_channel::<()>(0);
        (tx, rx)
    };
    let join = std::thread::Builder::new()
        .name(format!("tc-{proc_id}"))
        .spawn(move || {
            let _hold = _alive_tx;
            // The TC daemon: waits for a command; being killed (or the RC
            // dropping its sender) ends the thread and severs the alive
            // channel.
            let _ = cmd_rx.recv();
        })
        .ok()?;
    Some(TcHandle { cmd_tx, alive_rx, join })
}

struct RcInner {
    tcs: Vec<Option<TcHandle>>,
    state: Vec<ProcessorState>,
    /// Application pools: app name -> (processors, kill token).
    pools: HashMap<String, (Vec<usize>, KillToken)>,
}

/// The master daemon: owns the TC registry, detects failures through lost
/// TC connections, and executes the five-step recovery of Section 4.
pub struct ResourceCoordinator {
    log: EventLog,
    inner: Mutex<RcInner>,
}

impl ResourceCoordinator {
    /// Brings up a system of `nprocs` processors, one TC each.
    pub fn new(nprocs: usize, log: EventLog) -> ResourceCoordinator {
        let tcs: Vec<_> = (0..nprocs).map(spawn_tc).collect();
        let state = tcs
            .iter()
            .map(|tc| if tc.is_some() { ProcessorState::Available } else { ProcessorState::Failed })
            .collect();
        ResourceCoordinator {
            log,
            inner: Mutex::new(RcInner { tcs, state, pools: HashMap::new() }),
        }
    }

    /// Total processors managed.
    pub fn nprocs(&self) -> usize {
        self.inner.lock().state.len()
    }

    /// Processors currently in the available pool.
    pub fn available(&self) -> Vec<usize> {
        let inner = self.inner.lock();
        inner
            .state
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ProcessorState::Available)
            .map(|(p, _)| p)
            .collect()
    }

    /// State of one processor.
    pub fn state_of(&self, proc_id: usize) -> ProcessorState {
        self.inner.lock().state[proc_id].clone()
    }

    /// Allocates `procs` to application `app`, forming its TC pool.
    pub fn form_pool(&self, app: &str, procs: &[usize], kill: KillToken) {
        let mut inner = self.inner.lock();
        for &p in procs {
            assert_eq!(inner.state[p], ProcessorState::Available, "processor {p} is not available");
            inner.state[p] = ProcessorState::InPool(app.to_string());
        }
        inner.pools.insert(app.to_string(), (procs.to_vec(), kill));
    }

    /// Releases an application's pool after normal completion.
    pub fn release_pool(&self, app: &str) {
        let mut inner = self.inner.lock();
        if let Some((procs, _)) = inner.pools.remove(app) {
            for p in procs {
                if inner.state[p] == ProcessorState::InPool(app.to_string()) {
                    inner.state[p] = ProcessorState::Available;
                }
            }
        }
    }

    /// Injects a processor failure: the TC daemon dies (as if its processor
    /// crashed), and the RC's detection/recovery protocol runs.
    pub fn fail_processor(&self, proc_id: usize) {
        self.log.record(Event::ProcessorFailed { proc: proc_id });
        {
            let inner = self.inner.lock();
            if let Some(tc) = inner.tcs[proc_id].as_ref() {
                let _ = tc.cmd_tx.send(TcCommand::Kill);
                // Wait for the daemon to actually die: recv on the alive
                // channel returns Disconnected exactly when the TC thread
                // has exited and dropped its end.
                let _ = tc.alive_rx.recv();
            }
        }
        self.detect_and_recover();
    }

    /// Scans TC connections; on a lost connection, executes the recovery
    /// steps of Section 4. Idempotent.
    pub fn detect_and_recover(&self) {
        let mut lost: Vec<usize> = Vec::new();
        {
            let inner = self.inner.lock();
            for (p, tc) in inner.tcs.iter().enumerate() {
                // A missing handle means the failure was already handled
                // (processor awaiting repair): stay quiet.
                let disconnected = match tc {
                    Some(handle) => {
                        matches!(handle.alive_rx.try_recv(), Err(TryRecvError::Disconnected))
                    }
                    None => false,
                };
                if disconnected {
                    lost.push(p);
                }
            }
        }

        for p in lost {
            self.log.record(Event::ConnectionLost { proc: p });
            self.recover_from_loss(p);
        }
    }

    /// Steps 1-5 of the paper's recovery protocol for a lost TC.
    fn recover_from_loss(&self, failed_proc: usize) {
        let mut inner = self.inner.lock();

        // Step 1: which application and TC pool owns the disconnected TC?
        let owner = inner
            .pools
            .iter()
            .find_map(|(app, (procs, _))| procs.contains(&failed_proc).then(|| app.clone()));

        // Remove the dead TC; the processor is failed until repaired.
        if let Some(tc) = inner.tcs[failed_proc].take() {
            let _ = tc.cmd_tx.send(TcCommand::Kill);
            let _ = tc.join.join();
        }
        inner.state[failed_proc] = ProcessorState::Failed;

        let Some((app, (pool, kill))) = owner.and_then(|app| inner.pools.remove_entry(&app)) else {
            return;
        };

        // Step 2: kill all other processes of the application and all TCs
        // in the pool. (Application processes die cooperatively via the
        // kill token at their next SOP.)
        kill.kill(&format!("processor {failed_proc} failed"));
        for &p in &pool {
            if p != failed_proc {
                if let Some(tc) = inner.tcs[p].take() {
                    let _ = tc.cmd_tx.send(TcCommand::Kill);
                    let _ = tc.join.join();
                }
            }
        }
        // Step 3: the application is considered terminated.
        self.log.record(Event::ApplicationKilled { app: app.clone(), pool: pool.clone() });
        // Step 4: the user is informed.
        self.log.record(Event::UserInformed { app: app.clone() });

        // Step 5: restart the killed TCs. Healthy processors come straight
        // back; the failed one waits for `repair`. The system stays up
        // throughout, with reduced processor availability.
        for &p in &pool {
            if p != failed_proc {
                self.restart_tc(&mut inner, p);
            }
        }
    }

    /// Restarts processor `p`'s TC and returns it to the available pool;
    /// a TC that cannot start leaves the processor failed.
    fn restart_tc(&self, inner: &mut RcInner, p: usize) {
        inner.tcs[p] = spawn_tc(p);
        if inner.tcs[p].is_none() {
            inner.state[p] = ProcessorState::Failed;
            return;
        }
        inner.state[p] = ProcessorState::Available;
        self.log.record(Event::TcRestarted { proc: p });
        self.log.record(Event::ProcessorRestored { proc: p });
    }

    /// Repairs a failed processor ("rebooting or even fixing it first"),
    /// restarting its TC and returning it to the available pool.
    pub fn repair(&self, proc_id: usize) {
        let mut inner = self.inner.lock();
        assert_eq!(inner.state[proc_id], ProcessorState::Failed, "repairing a healthy processor");
        self.restart_tc(&mut inner, proc_id);
    }

    /// Shuts every TC down (end of simulation).
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock();
        for tc in inner.tcs.iter_mut() {
            if let Some(tc) = tc.take() {
                let _ = tc.cmd_tx.send(TcCommand::Kill);
                let _ = tc.join.join();
            }
        }
    }
}

impl Drop for ResourceCoordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_processors_start_available() {
        let rc = ResourceCoordinator::new(4, EventLog::new());
        assert_eq!(rc.available(), vec![0, 1, 2, 3]);
        assert_eq!(rc.nprocs(), 4);
    }

    #[test]
    fn pool_formation_and_release() {
        let rc = ResourceCoordinator::new(4, EventLog::new());
        rc.form_pool("app", &[1, 2], KillToken::new());
        assert_eq!(rc.available(), vec![0, 3]);
        assert_eq!(rc.state_of(1), ProcessorState::InPool("app".into()));
        rc.release_pool("app");
        assert_eq!(rc.available(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn failure_runs_five_step_recovery() {
        let log = EventLog::new();
        let rc = ResourceCoordinator::new(4, log.clone());
        let kill = KillToken::new();
        rc.form_pool("bt", &[0, 1, 2], kill.clone());

        rc.fail_processor(1);

        // Application killed cooperatively.
        assert!(kill.is_killed());
        assert!(kill.reason().unwrap().contains("processor 1 failed"));
        // Healthy pool members returned; failed one is down.
        assert_eq!(rc.available(), vec![0, 2, 3]);
        assert_eq!(rc.state_of(1), ProcessorState::Failed);

        // Event ordering per the protocol.
        let lost = log.position(|e| matches!(e, Event::ConnectionLost { proc: 1 })).unwrap();
        let killed = log.position(|e| matches!(e, Event::ApplicationKilled { .. })).unwrap();
        let informed = log.position(|e| matches!(e, Event::UserInformed { .. })).unwrap();
        let restored = log.position(|e| matches!(e, Event::ProcessorRestored { .. })).unwrap();
        assert!(lost < killed && killed < informed && informed < restored);

        // Repair brings the processor back.
        rc.repair(1);
        assert_eq!(rc.available(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn failure_outside_any_pool_only_downs_processor() {
        let log = EventLog::new();
        let rc = ResourceCoordinator::new(3, log.clone());
        rc.fail_processor(2);
        assert_eq!(rc.available(), vec![0, 1]);
        assert!(!log.any(|e| matches!(e, Event::ApplicationKilled { .. })));
    }

    #[test]
    fn detect_is_idempotent() {
        let log = EventLog::new();
        let rc = ResourceCoordinator::new(2, log.clone());
        rc.fail_processor(0);
        let n = log.snapshot().len();
        rc.detect_and_recover();
        rc.detect_and_recover();
        assert_eq!(log.snapshot().len(), n, "no duplicate events");
    }
}
