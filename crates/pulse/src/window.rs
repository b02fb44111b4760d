//! Tumbling-window aggregation over the simulated time axis.
//!
//! Reports are assigned to window `floor(stamp / width)` — a pure function
//! of the report, so the aggregate content of every window is independent
//! of drain batching and thread interleaving. All per-window state uses
//! ordered maps so rendered output is deterministic.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::AddAssign;

use drms_obs::Phase;

/// One gauge write, carrying the coordinates that decide which of a
/// window's writes to the same series "wins": the highest `(stamp, rank)`
/// write. Resolving by these — never by merge order — is what keeps gauge
/// values drain-invariant when several ranks set one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeWrite {
    /// The write's monotone window stamp.
    pub stamp: f64,
    /// The writing rank.
    pub rank: usize,
    /// The value set.
    pub value: f64,
}

/// Aggregated state of one tumbling window.
#[derive(Debug, Default, Clone)]
pub struct WindowStats {
    /// Total reports assigned to this window.
    pub samples: u64,
    /// Counter deltas summed within the window, by metric name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Winning write per gauge series within the window (see
    /// [`GaugeWrite`] for the resolution order).
    pub gauges: BTreeMap<(&'static str, usize), GaugeWrite>,
    /// Seconds of closed spans per `(rank, phase)`, attributed to the
    /// window containing the span end (additive: summing over windows
    /// reproduces the post-hoc per-phase totals exactly).
    pub span_secs: BTreeMap<(usize, Phase), f64>,
    /// PIOFS server busy seconds accrued, keyed `(server, rank)`. The rank
    /// in the key fixes the float summation order (each key is summed by
    /// one task in its report order), so per-server totals are summed over
    /// ranks in key order at read time.
    pub server_busy: BTreeMap<(usize, usize), f64>,
    /// Alert names fired when this window was evaluated (filled by the
    /// rule engine at settlement).
    pub alerts: Vec<&'static str>,
}

impl WindowStats {
    /// Records one gauge write, keeping the highest-`(stamp, rank)` write
    /// per series. Ties (same stamp, same rank — necessarily the same
    /// task) resolve to the later-recorded write, preserving
    /// last-write-wins within a rank.
    pub fn record_gauge(&mut self, name: &'static str, index: usize, write: GaugeWrite) {
        let e = self.gauges.entry((name, index)).or_insert(write);
        if (write.stamp, write.rank) >= (e.stamp, e.rank) {
            *e = write;
        }
    }

    /// Merges another task's share of the same window: counts, counters,
    /// span seconds and server-busy seconds add, gauges keep their
    /// highest-`(stamp, rank)` write.
    pub(crate) fn absorb(&mut self, other: WindowStats) {
        self.samples += other.samples;
        add_into(&mut self.counters, other.counters);
        add_into(&mut self.span_secs, other.span_secs);
        add_into(&mut self.server_busy, other.server_busy);
        for ((name, index), write) in other.gauges {
            self.record_gauge(name, index, write);
        }
    }

    /// Convenience for tests and carried-state updates: the winning value
    /// of one gauge series, if set this window.
    pub fn gauge(&self, name: &'static str, index: usize) -> Option<f64> {
        self.gauges.get(&(name, index)).map(|g| g.value)
    }

    /// Counter deltas of `metric` in this window (0 when it did not move).
    pub fn counter(&self, metric: &str) -> u64 {
        self.counters.get(metric).copied().unwrap_or(0)
    }

    /// Per-rank seconds spent in `phase` this window, ranks with zero
    /// omitted, sorted by rank.
    pub fn phase_by_rank(&self, phase: Phase) -> Vec<(usize, f64)> {
        self.span_secs
            .iter()
            .filter(|((_, p), s)| *p == phase && **s > 0.0)
            .map(|((r, _), s)| (*r, *s))
            .collect()
    }

    /// Total seconds spent in `phase` this window, over all ranks.
    pub fn phase_total(&self, phase: Phase) -> f64 {
        // `+ 0.0` normalizes the empty sum: f64's Sum identity is -0.0,
        // which would otherwise render as "-0.000000" in heartbeats.
        self.span_secs.iter().filter(|((_, p), _)| *p == phase).map(|(_, s)| s).sum::<f64>() + 0.0
    }

    /// Busiest-server queue depth (busy seconds accrued this window),
    /// summed per server over ranks in key order.
    pub fn max_server_busy(&self) -> f64 {
        let mut per_server: BTreeMap<usize, f64> = BTreeMap::new();
        for (&(server, _rank), &secs) in &self.server_busy {
            *per_server.entry(server).or_default() += secs;
        }
        per_server.values().fold(0.0f64, |a, &b| a.max(b))
    }
}

/// Adds `from` into `into` key by key; a key `into` lacks is moved, not
/// re-added, so a float only one task wrote keeps its exact bits.
pub(crate) fn add_into<K: Ord, V: AddAssign>(into: &mut BTreeMap<K, V>, from: BTreeMap<K, V>) {
    for (k, v) in from {
        match into.entry(k) {
            Entry::Vacant(e) => {
                e.insert(v);
            }
            Entry::Occupied(mut e) => *e.get_mut() += v,
        }
    }
}

/// Maps a stamp to its window index under `width`, saturating instead of
/// panicking for degenerate inputs (non-finite stamps were already
/// collapsed by the recorder; negative stamps clamp to window 0).
pub fn window_of(stamp: f64, width: f64) -> u64 {
    let w = if width.is_finite() && width > 0.0 { width } else { 1.0 };
    let idx = (stamp / w).floor();
    if idx > 0.0 {
        idx as u64 // the cast saturates at u64::MAX for huge/infinite quotients
    } else {
        0 // negative or NaN
    }
}

/// `[t0, t1)` bounds of window `index` under `width` (saturating).
pub fn window_bounds(index: u64, width: f64) -> (f64, f64) {
    let w = if width.is_finite() && width > 0.0 { width } else { 1.0 };
    let t0 = index as f64 * w;
    (t0, t0 + w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_assignment_is_floor_division() {
        assert_eq!(window_of(0.0, 0.5), 0);
        assert_eq!(window_of(0.49, 0.5), 0);
        assert_eq!(window_of(0.5, 0.5), 1);
        assert_eq!(window_of(7.3, 0.5), 14);
    }

    #[test]
    fn degenerate_inputs_never_panic() {
        assert_eq!(window_of(-3.0, 0.5), 0);
        assert_eq!(window_of(1e300, 1e-300), u64::MAX);
        assert_eq!(window_of(5.0, 0.0), 5);
        assert_eq!(window_of(5.0, f64::NAN), 5);
        let (a, b) = window_bounds(u64::MAX, 0.5);
        assert!(a.is_finite() && b.is_finite());
    }

    #[test]
    fn phase_helpers_aggregate() {
        let mut w = WindowStats::default();
        w.span_secs.insert((0, Phase::StreamWave), 1.0);
        w.span_secs.insert((1, Phase::StreamWave), 3.0);
        w.span_secs.insert((0, Phase::Segment), 2.0);
        assert_eq!(w.phase_by_rank(Phase::StreamWave), vec![(0, 1.0), (1, 3.0)]);
        assert_eq!(w.phase_total(Phase::StreamWave), 4.0);
        assert!(w.phase_total(Phase::Control).is_sign_positive());
        assert_eq!(w.counter("a"), 0);
    }
}
