//! Audit trail of control-plane events.

use std::fmt;
use std::sync::Arc;

use drms_obs::{names, NullRecorder, Phase, Recorder};
use parking_lot::Mutex;

/// A control-plane event, in the vocabulary of Section 4 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A processor failed (injected or organic).
    ProcessorFailed {
        /// Failed processor id.
        proc: usize,
    },
    /// The RC lost its connection to a TC.
    ConnectionLost {
        /// Processor whose TC disconnected.
        proc: usize,
    },
    /// The RC killed the processes and TC pool of an application.
    ApplicationKilled {
        /// Application name.
        app: String,
        /// Processors in the killed pool.
        pool: Vec<usize>,
    },
    /// The user was informed of the termination.
    UserInformed {
        /// Application name.
        app: String,
    },
    /// A TC was restarted on a processor.
    TcRestarted {
        /// Processor id.
        proc: usize,
    },
    /// A processor re-entered the available pool.
    ProcessorRestored {
        /// Processor id.
        proc: usize,
    },
    /// The JSA started (or restarted) a job.
    JobStarted {
        /// Application name.
        app: String,
        /// Task count of this incarnation.
        ntasks: usize,
        /// Checkpoint prefix the incarnation restarted from, if any.
        restart_from: Option<String>,
    },
    /// A job ran to completion.
    JobCompleted {
        /// Application name.
        app: String,
    },
    /// A checkpoint failed verification (and could not be scrubbed back to
    /// health), so the restart walk took it out of circulation.
    CheckpointQuarantined {
        /// Quarantined checkpoint prefix.
        prefix: String,
    },
    /// A restart skipped damaged checkpoints and fell back to an older,
    /// verified one.
    RestartFallback {
        /// Application name.
        app: String,
        /// The checkpoint the restart settled on.
        prefix: String,
        /// How many newer checkpoints were skipped.
        depth: usize,
    },
    /// A restart was served out of the in-memory checkpoint tier, paying no
    /// PIOFS checkpoint I/O.
    MemTierHit {
        /// Memory-tier checkpoint prefix the restart resumed from.
        prefix: String,
    },
    /// Node loss took the last resident copy of some piece of a memory-tier
    /// checkpoint; the entry was evicted and later restarts must fall back
    /// to the durable PIOFS chain.
    MemTierInvalidated {
        /// Evicted memory-tier checkpoint prefix.
        prefix: String,
    },
    /// A kill discarded trace events that had been recorded but never made
    /// it into a sealed flight-ring snapshot. Historically this loss was
    /// silent — the pre-crash `TraceRecorder` simply vanished with the
    /// incarnation; now the JSA counts the unsealed tail explicitly so
    /// campaigns can tell "nothing happened" from "we lost the evidence".
    TraceDropped {
        /// Application name.
        app: String,
        /// Incarnation whose tail was lost.
        incarnation: usize,
        /// Events recorded after the last seal, gone for good.
        events: u64,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::ProcessorFailed { proc } => write!(f, "processor {proc} failed"),
            Event::ConnectionLost { proc } => write!(f, "RC lost connection to TC {proc}"),
            Event::ApplicationKilled { app, pool } => {
                write!(f, "application {app} killed (pool {pool:?})")
            }
            Event::UserInformed { app } => write!(f, "user informed: {app} terminated"),
            Event::TcRestarted { proc } => write!(f, "TC restarted on processor {proc}"),
            Event::ProcessorRestored { proc } => {
                write!(f, "processor {proc} returned to available pool")
            }
            Event::JobStarted { app, ntasks, restart_from } => match restart_from {
                Some(p) => write!(f, "job {app} restarted on {ntasks} tasks from {p}"),
                None => write!(f, "job {app} started on {ntasks} tasks"),
            },
            Event::JobCompleted { app } => write!(f, "job {app} completed"),
            Event::CheckpointQuarantined { prefix } => {
                write!(f, "checkpoint {prefix} quarantined after failed verification")
            }
            Event::RestartFallback { app, prefix, depth } => {
                write!(f, "job {app} fell back {depth} checkpoint(s) to {prefix}")
            }
            Event::MemTierHit { prefix } => {
                write!(f, "memory-tier restart hit on {prefix}")
            }
            Event::MemTierInvalidated { prefix } => {
                write!(f, "memory-tier checkpoint {prefix} invalidated by node loss")
            }
            Event::TraceDropped { app, incarnation, events } => {
                write!(
                    f,
                    "job {app} incarnation {incarnation} dropped {events} unsealed trace event(s)"
                )
            }
        }
    }
}

/// Shared, append-only event log. Optionally mirrors every event into an
/// observability [`Recorder`] (see [`EventLog::with_recorder`]).
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<Mutex<Vec<Event>>>,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog").field("events", &self.inner.lock().len()).finish()
    }
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog { inner: Arc::default(), recorder: Arc::new(NullRecorder) }
    }
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// An empty log that forwards each event to `recorder` as a
    /// `Phase::Control` instant, and bumps the `rtenv.job_starts` /
    /// `rtenv.retries` counters for job starts and TC restarts. Control-plane
    /// events happen outside any SPMD region, so they carry no simulated
    /// clock; they are stamped with their sequence number to keep ordering
    /// in exported traces.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> EventLog {
        EventLog { inner: Arc::default(), recorder }
    }

    /// The recorder events are mirrored into (the [`NullRecorder`] unless
    /// built with [`EventLog::with_recorder`]).
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.recorder)
    }

    /// Appends an event.
    pub fn record(&self, e: Event) {
        self.record_inner(e, None);
    }

    /// Appends an event carrying a correlation id in its trace mirror (the
    /// JSA links each `JobStarted` to its incarnation number this way, so
    /// causal analysis can attribute spans to incarnations).
    pub fn record_linked(&self, e: Event, corr: u64) {
        self.record_inner(e, Some(corr));
    }

    fn record_inner(&self, e: Event, corr: Option<u64>) {
        let mut events = self.inner.lock();
        if self.recorder.enabled() {
            let seq = events.len() as f64;
            match corr {
                Some(c) => self.recorder.event_with_corr(seq, 0, Phase::Control, &e.to_string(), c),
                None => self.recorder.event(seq, 0, Phase::Control, &e.to_string()),
            }
            match &e {
                Event::JobStarted { .. } => {
                    self.recorder.counter_add(0, names::JOB_STARTS, None, 1)
                }
                Event::TcRestarted { .. } => self.recorder.counter_add(0, names::RETRIES, None, 1),
                Event::CheckpointQuarantined { .. } => {
                    self.recorder.counter_add(0, names::CHECKPOINTS_QUARANTINED, None, 1)
                }
                Event::RestartFallback { depth, .. } => {
                    self.recorder.counter_add(0, names::FALLBACK_DEPTH, None, *depth as u64)
                }
                Event::MemTierHit { .. } => {
                    self.recorder.counter_add(0, names::MEMTIER_HITS, None, 1)
                }
                Event::MemTierInvalidated { .. } => {
                    self.recorder.counter_add(0, names::MEMTIER_INVALIDATIONS, None, 1)
                }
                Event::TraceDropped { events, .. } => {
                    self.recorder.counter_add(0, names::BLACKBOX_EVENTS_DROPPED, None, *events)
                }
                _ => {}
            }
        }
        events.push(e);
    }

    /// Snapshot of all events so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().clone()
    }

    /// Whether any recorded event satisfies `pred`.
    pub fn any(&self, pred: impl Fn(&Event) -> bool) -> bool {
        self.inner.lock().iter().any(pred)
    }

    /// Index of the first event satisfying `pred`.
    pub fn position(&self, pred: impl Fn(&Event) -> bool) -> Option<usize> {
        self.inner.lock().iter().position(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let log = EventLog::new();
        log.record(Event::ProcessorFailed { proc: 3 });
        log.record(Event::ConnectionLost { proc: 3 });
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], Event::ProcessorFailed { proc: 3 });
        assert!(log.any(|e| matches!(e, Event::ConnectionLost { proc: 3 })));
        assert_eq!(log.position(|e| matches!(e, Event::ConnectionLost { .. })), Some(1));
    }

    #[test]
    fn recorder_mirrors_events_and_counters() {
        use drms_obs::{EventKind, TraceRecorder};

        let rec = Arc::new(TraceRecorder::default());
        let log = EventLog::with_recorder(rec.clone());
        log.record(Event::JobStarted { app: "bt".into(), ntasks: 8, restart_from: None });
        log.record(Event::TcRestarted { proc: 2 });
        log.record(Event::TcRestarted { proc: 5 });
        log.record(Event::JobCompleted { app: "bt".into() });

        assert_eq!(rec.metrics().counter_total(names::JOB_STARTS), 1);
        assert_eq!(rec.metrics().counter_total(names::RETRIES), 2);
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.phase == Phase::Control && e.kind == EventKind::Instant));
        // Sequence-number timestamps preserve control-plane ordering.
        assert_eq!(events[0].t, 0.0);
        assert_eq!(events[3].t, 3.0);
        assert!(events[0].name.contains("started on 8 tasks"));
    }

    #[test]
    fn linked_events_carry_correlation_id() {
        use drms_obs::TraceRecorder;

        let rec = Arc::new(TraceRecorder::default());
        let log = EventLog::with_recorder(rec.clone());
        log.record_linked(Event::JobStarted { app: "bt".into(), ntasks: 4, restart_from: None }, 0);
        log.record(Event::TcRestarted { proc: 1 });
        log.record_linked(
            Event::JobStarted { app: "bt".into(), ntasks: 4, restart_from: Some("ck/1".into()) },
            1,
        );
        let events = rec.events();
        assert_eq!(events[0].corr, Some(0));
        assert_eq!(events[1].corr, None);
        assert_eq!(events[2].corr, Some(1));
        // Counters fire for linked records too.
        assert_eq!(rec.metrics().counter_total(names::JOB_STARTS), 2);
    }

    #[test]
    fn display_is_readable() {
        let e = Event::JobStarted { app: "bt".into(), ntasks: 8, restart_from: None };
        assert_eq!(e.to_string(), "job bt started on 8 tasks");
        let e =
            Event::JobStarted { app: "bt".into(), ntasks: 5, restart_from: Some("ck/1".into()) };
        assert!(e.to_string().contains("restarted on 5 tasks from ck/1"));
    }
}
