//! Crash-surviving flight recorder for DRMS runs.
//!
//! The observability stack (obs → insight → pulse) only ever sees one
//! incarnation: when a crash kills the job, the in-memory trace dies with
//! it, and the restarted incarnation begins a fresh recorder session. The
//! flight recorder closes that gap. A [`Blackbox`] sits in the ordinary
//! [`Recorder`] fan-out and captures rank-attributed events into bounded
//! per-rank [`FlightRing`]s; at every SOP each rank *seals* its ring — a
//! snapshot encoded by [`wire`] — into the checkpoint's two-phase staging
//! area, and when a chaos crash point fires the dying region salvages one
//! last seal straight to storage. After every incarnation, the JSA scans
//! storage, feeds every seal it finds into the [`SealArchive`], and hands
//! the reconstructed per-incarnation event streams to the insight
//! stitcher, which joins pre-crash and post-crash span DAGs into one
//! cross-incarnation timeline with exact recovery-cost attribution. That
//! attribution's recovery fraction is also what the JSA publishes live as
//! the `blackbox.recovery_ratio` gauge; this crate computes no estimate of
//! its own. The markers the attribution keys on (`commit:`/`crash:`
//! events, restore and localized-recovery spans) are declared once, in
//! `drms_obs::markers`.
//!
//! Determinism: rings are single-writer — only rank *r*'s thread captures
//! into ring *r*, and seals are taken by each rank at its own program
//! point (after a barrier, or inside the collective crash vote), so seal
//! contents are bit-reproducible per `FAULT_SEED`. Seals are snapshots,
//! not drains: the newest recovered seal alone carries the rank's full
//! surviving history, and capture sequence numbers let overlapping seals
//! deduplicate exactly.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod archive;
mod ring;
/// Wire format for encoded seals (public for tests and tooling).
pub mod wire;

use std::sync::atomic::{AtomicU64, Ordering};

use drms_obs::markers::CRASH_EVENT_PREFIX;
use drms_obs::{FlightSeal, Phase, Record, Recorder, TraceEvent};
use parking_lot::Mutex;

pub use archive::SealArchive;
pub use ring::{FlightRing, SealStats};
pub use wire::{decode_seal, encode_seal, DecodedSeal, SealHeader};

/// Configuration of a [`Blackbox`].
#[derive(Debug, Clone)]
pub struct BlackboxConfig {
    /// Per-rank ring capacity in events; the oldest event is evicted first
    /// when a ring is full (evictions are counted and reported).
    pub capacity: usize,
    /// Simulated seconds the environment needs to detect a death and start
    /// the reincarnation — the stitcher inserts this gap between a crashed
    /// incarnation's end and its successor's start, and the recovery-cost
    /// report bills it as detection latency.
    pub detection_latency: f64,
}

impl Default for BlackboxConfig {
    fn default() -> BlackboxConfig {
        BlackboxConfig { capacity: 1 << 16, detection_latency: 1.0 }
    }
}

/// The flight recorder: a [`Recorder`] capturing into bounded per-rank
/// rings, plus the [`SealArchive`] of everything recovered so far.
///
/// Attach it to a run through a [`drms_obs::FanoutRecorder`] next to the
/// usual trace/pulse sinks, and hand the same `Arc` to the JSA (see
/// `Jsa::with_blackbox` in the rtenv crate) so incarnation lifecycles,
/// storage recovery, and the live recovery-budget gauge are driven for
/// you.
pub struct Blackbox {
    cfg: BlackboxConfig,
    rings: Vec<Mutex<FlightRing>>,
    incarnation: AtomicU64,
    archive: Mutex<SealArchive>,
}

impl Blackbox {
    /// A flight recorder with rings for ranks `0..max_ranks`. Events from
    /// ranks beyond `max_ranks` are ignored (size it to the largest task
    /// count the job may reincarnate with).
    pub fn new(cfg: BlackboxConfig, max_ranks: usize) -> Blackbox {
        let rings = (0..max_ranks).map(|_| Mutex::new(FlightRing::new(cfg.capacity))).collect();
        Blackbox {
            cfg,
            rings,
            incarnation: AtomicU64::new(0),
            archive: Mutex::new(SealArchive::new()),
        }
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &BlackboxConfig {
        &self.cfg
    }

    /// The incarnation currently being captured.
    pub fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::SeqCst)
    }

    /// Starts capturing for incarnation `inc`: rings are reset (a restarted
    /// process begins with empty memory and fresh sequence counters).
    /// Call before the incarnation's SPMD region runs.
    pub fn begin_incarnation(&self, inc: u64) {
        self.incarnation.store(inc, Ordering::SeqCst);
        for ring in &self.rings {
            ring.lock().reset();
        }
    }

    /// Accounts an incarnation's death: returns how many captured events
    /// were never included in any seal — the loss that would have been
    /// silent before the flight recorder existed. The rings themselves are
    /// left for [`Blackbox::begin_incarnation`] to reset.
    pub fn incarnation_died(&self) -> u64 {
        self.rings.iter().map(|r| r.lock().unsealed()).sum()
    }

    /// Latest captured event time across all rings (0.0 when empty) — the
    /// natural timestamp for a final post-run seal.
    pub fn latest_time(&self) -> f64 {
        self.rings
            .iter()
            .map(|r| r.lock().contents().map(|(_, e)| e.t).fold(0.0, f64::max))
            .fold(0.0, f64::max)
    }

    /// Seals every ring that captured anything (the completed process is
    /// alive, so its in-memory tail is collectable directly — no storage
    /// round-trip). Call only when no rank threads are running.
    pub fn seal_all(&self, t: f64, reason: &str) -> Vec<FlightSeal> {
        (0..self.rings.len())
            .filter(|&rank| self.rings[rank].lock().captured() > 0)
            .filter_map(|rank| self.seal_rank(t, rank, reason))
            .collect()
    }

    /// Ingests one encoded seal into the archive. `Ok(true)` when new,
    /// `Ok(false)` when already ingested, `Err` for damaged bytes.
    pub fn ingest(&self, bytes: &[u8]) -> Result<bool, String> {
        self.archive.lock().ingest(bytes)
    }

    /// Incarnations the archive holds seals for, ascending.
    pub fn incarnations(&self) -> Vec<u64> {
        self.archive.lock().incarnations()
    }

    /// The deduplicated recovered events of `incarnation`, sorted by
    /// (time, rank, capture sequence).
    pub fn events_for(&self, incarnation: u64) -> Vec<TraceEvent> {
        self.archive.lock().events_for(incarnation)
    }

    fn seal_rank(&self, t: f64, rank: usize, reason: &str) -> Option<FlightSeal> {
        let inc = self.incarnation();
        let mut ring = self.rings.get(rank)?.lock();
        let stats = ring.mark_sealed();
        let header = SealHeader {
            incarnation: inc,
            rank,
            seal_seq: stats.seal_seq,
            t,
            reason: reason.to_string(),
            evicted_total: stats.evicted_total,
        };
        let count = ring.len();
        let bytes = encode_seal(&header, ring.contents(), count);
        Some(FlightSeal {
            tag: format!("inc{inc}-r{rank}-s{}", stats.seal_seq),
            bytes,
            events: stats.captured_delta,
            evicted: stats.evicted_delta,
        })
    }
}

impl Recorder for Blackbox {
    fn enabled(&self) -> bool {
        true
    }

    fn flight_enabled(&self) -> bool {
        true
    }

    fn record(&self, t: Option<f64>, rank: usize, r: Record<'_>) {
        let Some(ring) = self.rings.get(rank) else { return };
        let Some(ev) = TraceEvent::from_record(t, rank, r) else { return };
        // Control-plane events carry sequence-number pseudo-times, not
        // simulated time — except the crash markers the injector stamps
        // with the real clock, which the stitcher needs.
        if ev.phase == Phase::Control && !ev.name.starts_with(CRASH_EVENT_PREFIX) {
            return;
        }
        ring.lock().push(ev);
    }

    fn flight_seal(&self, t: f64, rank: usize, reason: &str) -> Option<FlightSeal> {
        self.seal_rank(t, rank, reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::{FanoutRecorder, NullRecorder, Recorder};
    use std::sync::Arc;

    #[test]
    fn captures_rank_attributed_events_and_filters_control_pseudotimes() {
        let bb = Blackbox::new(BlackboxConfig::default(), 4);
        bb.span_start(1.0, 0, Phase::Segment, "write_segment");
        bb.span_end(2.0, 0, Phase::Segment, "write_segment");
        bb.event(3.0, 1, Phase::Manifest, "commit:ck/a");
        bb.event(4.0, 0, Phase::Control, "job bt started on 4 tasks"); // filtered
        bb.event(5.0, 0, Phase::Control, "crash:ckpt_mid_publish"); // kept
        bb.event(6.0, 99, Phase::Arrays, "out-of-range rank"); // ignored
        let seals = bb.seal_all(7.0, "final");
        assert_eq!(seals.len(), 2); // ranks 0 and 1 captured
        let mut archive = SealArchive::new();
        for s in &seals {
            assert!(archive.ingest(&s.bytes).unwrap());
        }
        let evs = archive.events_for(0);
        assert_eq!(evs.len(), 4);
        assert!(evs.iter().any(|e| e.name == "crash:ckpt_mid_publish"));
        assert!(!evs.iter().any(|e| e.name.contains("started")));
    }

    #[test]
    fn seal_through_fanout_returns_first_some() {
        let bb = Arc::new(Blackbox::new(BlackboxConfig::default(), 2));
        let fan =
            FanoutRecorder::new(vec![Arc::new(NullRecorder) as Arc<dyn Recorder>, bb.clone()]);
        assert!(fan.flight_enabled());
        fan.event(1.0, 1, Phase::Arrays, "x");
        let seal = fan.flight_seal(2.0, 1, "sop").expect("blackbox seals");
        assert_eq!(seal.tag, "inc0-r1-s0");
        assert_eq!(seal.events, 1);
        let next = fan.flight_seal(3.0, 1, "sop").expect("snapshot re-seals");
        assert_eq!(next.tag, "inc0-r1-s1");
        assert_eq!(next.events, 0); // nothing new since the last seal
    }

    #[test]
    fn death_counts_unsealed_events_and_incarnations_reset() {
        let bb = Blackbox::new(BlackboxConfig::default(), 2);
        bb.begin_incarnation(0);
        bb.event(1.0, 0, Phase::Arrays, "a");
        bb.event(2.0, 1, Phase::Arrays, "b");
        assert!(bb.flight_seal(2.5, 0, "sop").is_some());
        bb.event(3.0, 0, Phase::Arrays, "c");
        assert_eq!(bb.incarnation_died(), 2); // rank 0's "c" + rank 1's "b"
        bb.begin_incarnation(1);
        assert_eq!(bb.incarnation_died(), 0);
        assert_eq!(bb.incarnation(), 1);
    }
}
