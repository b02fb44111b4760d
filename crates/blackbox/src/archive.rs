//! Archive of recovered seals, deduplicated across overlapping snapshots.

use std::collections::{BTreeMap, BTreeSet};

use drms_obs::TraceEvent;

use crate::wire::decode_seal;

/// Collects every seal recovered from storage (or handed over directly at
/// job completion) and reconstructs, per incarnation, the deduplicated
/// event stream the rings captured.
///
/// Seals are snapshots, so the same `(rank, capture seq)` event appears in
/// every later seal of that rank until evicted; the archive keeps exactly
/// one copy. Whole seals are deduplicated by `(incarnation, rank, seal
/// seq)` so repeated recovery scans are idempotent.
#[derive(Debug, Default)]
pub struct SealArchive {
    /// Seals already ingested.
    seen: BTreeSet<(u64, usize, u64)>,
    /// Per incarnation: (rank, capture seq) → event.
    events: BTreeMap<u64, BTreeMap<(usize, u64), TraceEvent>>,
    /// Per (incarnation, rank): highest cumulative eviction count reported
    /// by any seal (the events irrecoverably lost to ring overflow).
    evicted: BTreeMap<(u64, usize), u64>,
}

impl SealArchive {
    /// An empty archive.
    pub fn new() -> SealArchive {
        SealArchive::default()
    }

    /// Decodes and ingests one encoded seal. Returns `Ok(true)` when the
    /// seal was new, `Ok(false)` when it (by `(incarnation, rank, seal
    /// seq)`) was already ingested, and `Err` when the bytes are damaged —
    /// the caller should skip the seal and keep recovering.
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<bool, String> {
        let seal = decode_seal(bytes)?;
        let key = (seal.header.incarnation, seal.header.rank, seal.header.seal_seq);
        if !self.seen.insert(key) {
            return Ok(false);
        }
        let inc = self.events.entry(seal.header.incarnation).or_default();
        for (seq, ev) in seal.events {
            inc.entry((seal.header.rank, seq)).or_insert(ev);
        }
        let e = self.evicted.entry((seal.header.incarnation, seal.header.rank)).or_default();
        *e = (*e).max(seal.header.evicted_total);
        Ok(true)
    }

    /// Incarnations at least one seal was recovered for, ascending.
    pub fn incarnations(&self) -> Vec<u64> {
        self.events.keys().copied().collect()
    }

    /// The deduplicated events of `incarnation`, sorted by (time, rank,
    /// capture sequence) — deterministic regardless of seal arrival order.
    pub fn events_for(&self, incarnation: u64) -> Vec<TraceEvent> {
        let Some(inc) = self.events.get(&incarnation) else { return Vec::new() };
        let mut keyed: Vec<(&(usize, u64), &TraceEvent)> = inc.iter().collect();
        keyed.sort_by(|((ra, sa), ea), ((rb, sb), eb)| {
            ea.t.total_cmp(&eb.t).then(ra.cmp(rb)).then(sa.cmp(sb))
        });
        keyed.into_iter().map(|(_, ev)| ev.clone()).collect()
    }

    /// Events known lost to ring overflow in `incarnation` (max cumulative
    /// eviction count reported by any seal, summed over ranks).
    pub fn evicted_total(&self, incarnation: u64) -> u64 {
        self.evicted.iter().filter(|((inc, _), _)| *inc == incarnation).map(|(_, v)| *v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_seal, SealHeader};
    use drms_obs::{EventKind, Phase};

    fn ev(t: f64, rank: usize, name: &str) -> TraceEvent {
        TraceEvent {
            t,
            rank,
            phase: Phase::Arrays,
            name: name.to_string(),
            kind: EventKind::Instant,
            corr: None,
        }
    }

    fn seal(inc: u64, rank: usize, seq: u64, events: &[(u64, TraceEvent)]) -> Vec<u8> {
        let header = SealHeader {
            incarnation: inc,
            rank,
            seal_seq: seq,
            t: 0.0,
            reason: "sop".into(),
            evicted_total: 0,
        };
        encode_seal(&header, events.iter(), events.len())
    }

    #[test]
    fn overlapping_snapshot_seals_dedup_to_one_stream() {
        let mut a = SealArchive::new();
        let e0 = (0, ev(1.0, 0, "a"));
        let e1 = (1, ev(2.0, 0, "b"));
        let e2 = (2, ev(3.0, 0, "c"));
        // Seal 0 holds {a, b}; seal 1 (later snapshot) holds {a, b, c}.
        assert!(a.ingest(&seal(0, 0, 0, &[e0.clone(), e1.clone()])).unwrap());
        assert!(a.ingest(&seal(0, 0, 1, &[e0, e1, e2])).unwrap());
        let evs = a.events_for(0);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicate_seals_are_idempotent_and_damage_is_skippable() {
        let mut a = SealArchive::new();
        let bytes = seal(1, 2, 0, &[(0, ev(1.0, 2, "x"))]);
        assert!(a.ingest(&bytes).unwrap());
        assert!(!a.ingest(&bytes).unwrap());
        assert!(a.ingest(&bytes[..bytes.len() - 2]).is_err());
        assert_eq!(a.incarnations(), vec![1]);
    }

    #[test]
    fn events_sorted_by_time_rank_seq() {
        let mut a = SealArchive::new();
        a.ingest(&seal(0, 1, 0, &[(0, ev(2.0, 1, "late"))])).unwrap();
        a.ingest(&seal(0, 0, 0, &[(0, ev(2.0, 0, "tie-lower-rank")), (1, ev(1.0, 0, "early"))]))
            .unwrap();
        let names: Vec<String> = a.events_for(0).into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["early", "tie-lower-rank", "late"]);
    }
}
