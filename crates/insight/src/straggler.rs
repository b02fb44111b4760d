//! Straggler detection over checkpoint stream waves.
//!
//! Every rank traces one `StreamWave` span per wave of each streamed
//! array, so grouping the k-th occurrence per `(array, rank)` recovers
//! the per-wave task timings. A wave's straggler gap is the slowest
//! task's duration minus the median duration — persistent gaps mark a
//! task (or its route to the I/O servers) as the wave bottleneck.

use drms_obs::Phase;

use crate::critical::wave_index;
use crate::spans::Span;

/// Per-wave straggler statistics for one array.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerRow {
    /// Streamed array name.
    pub name: String,
    /// Wave index within the array's stream.
    pub wave: usize,
    /// Number of ranks that traced this wave.
    pub ranks: usize,
    /// Rank with the longest wave duration (ties to the lower rank).
    pub slowest_rank: usize,
    /// Longest task duration in the wave.
    pub max: f64,
    /// Median task duration in the wave.
    pub median: f64,
}

impl StragglerRow {
    /// Slowest-task gap over the median.
    pub fn gap(&self) -> f64 {
        self.max - self.median
    }
}

/// Builds the per-wave straggler table from the span table, sorted by
/// `(name, wave)`.
pub fn stragglers(spans: &[Span]) -> Vec<StragglerRow> {
    // (name, wave, rank, duration), deterministically ordered.
    let mut waves: Vec<(&str, usize, usize, f64)> = spans
        .iter()
        .filter(|s| s.phase == Phase::StreamWave)
        .map(|s| (s.name.as_str(), wave_index(spans, s), s.rank, s.duration()))
        .collect();
    waves.sort_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut rows: Vec<StragglerRow> = Vec::new();
    let mut i = 0;
    while i < waves.len() {
        let (name, wave, ..) = waves[i];
        let mut durations: Vec<f64> = Vec::new();
        let mut slowest = (waves[i].2, f64::NEG_INFINITY);
        let mut j = i;
        while j < waves.len() && waves[j].0 == name && waves[j].1 == wave {
            let (_, _, rank, d) = waves[j];
            durations.push(d);
            if d > slowest.1 {
                slowest = (rank, d);
            }
            j += 1;
        }
        durations.sort_by(f64::total_cmp);
        let n = durations.len();
        let median = if n % 2 == 1 {
            durations[n / 2]
        } else {
            (durations[n / 2 - 1] + durations[n / 2]) / 2.0
        };
        rows.push(StragglerRow {
            name: name.to_owned(),
            wave,
            ranks: n,
            slowest_rank: slowest.0,
            max: slowest.1,
            median,
        });
        i = j;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(id: usize, rank: usize, name: &str, start: f64, end: f64) -> Span {
        Span { id, rank, phase: Phase::StreamWave, name: name.to_owned(), start, end, parent: None }
    }

    #[test]
    fn per_wave_stats_identify_the_slowest_rank() {
        let spans = vec![
            // Wave 0: durations 1.0 / 1.0 / 3.0 (rank 2 straggles).
            wave(0, 0, "a", 0.0, 1.0),
            wave(1, 1, "a", 0.0, 1.0),
            wave(2, 2, "a", 0.0, 3.0),
            // Wave 1: all equal.
            wave(3, 0, "a", 3.0, 4.0),
            wave(4, 1, "a", 3.0, 4.0),
            wave(5, 2, "a", 3.0, 4.0),
        ];
        let rows = stragglers(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].wave, rows[0].slowest_rank, rows[0].ranks), (0, 2, 3));
        assert_eq!(rows[0].max, 3.0);
        assert_eq!(rows[0].median, 1.0);
        assert_eq!(rows[0].gap(), 2.0);
        assert_eq!(rows[1].gap(), 0.0);
    }

    #[test]
    fn arrays_are_kept_separate_and_sorted() {
        let spans = vec![
            wave(0, 0, "b", 0.0, 2.0),
            wave(1, 1, "b", 0.0, 1.0),
            wave(2, 0, "a", 0.0, 1.0),
            wave(3, 1, "a", 0.0, 4.0),
        ];
        let rows = stragglers(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].name.as_str(), rows[0].slowest_rank), ("a", 1));
        assert_eq!((rows[1].name.as_str(), rows[1].slowest_rank), ("b", 0));
        // Even rank counts use the midpoint median.
        assert_eq!(rows[0].median, 2.5);
    }
}
