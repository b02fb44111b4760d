//! Registry of monotonic counters and indexed gauges.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Label set identifying one counter series: metric name, reporting rank,
/// and optional array name. Ordered so exports are deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CounterKey {
    /// Metric name (see [`crate::names`]).
    pub name: &'static str,
    /// Reporting task rank.
    pub rank: usize,
    /// Array the sample belongs to, when applicable.
    pub array: Option<String>,
}

/// Number of latency buckets: log-spaced at factor √2 from 1 µs, covering
/// about 1 µs to 2.3e3 s before the overflow bucket.
const NBUCKETS: usize = 64;

/// Upper bound (inclusive) of bucket `k`: `1e-6 · 2^(k/2)` seconds.
/// Computed from `powi` and the exact `SQRT_2` constant only, so bounds are
/// bit-identical across platforms (no `powf`).
fn bucket_bound(k: usize) -> f64 {
    let half = (k / 2) as i32;
    let base = 1e-6 * 2f64.powi(half);
    if k.is_multiple_of(2) {
        base
    } else {
        base * std::f64::consts::SQRT_2
    }
}

/// Fixed-bucket latency histogram with deterministic quantiles.
///
/// Buckets are log-spaced at factor √2 starting at 1 µs; a sample lands in
/// the first bucket whose upper bound is ≥ the sample (the last bucket
/// catches overflow). Quantiles report the upper bound of the bucket where
/// the cumulative count crosses the quantile point, clamped to the exact
/// observed maximum — a pure function of the recorded samples, independent
/// of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; NBUCKETS], count: 0, sum: 0.0, max: 0.0 }
    }
}

impl Histogram {
    /// Records one sample (negative samples clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = (0..NBUCKETS - 1).find(|&k| v <= bucket_bound(k)).unwrap_or(NBUCKETS - 1);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (seconds).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact maximum recorded sample (seconds); 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Deterministic quantile estimate for `q` in `[0, 1]`: the upper bound
    /// of the bucket where the cumulative count reaches `ceil(q·count)`,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                // The overflow bucket has no meaningful upper bound; report
                // the exact maximum instead.
                if k == NBUCKETS - 1 {
                    return self.max;
                }
                return bucket_bound(k).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<CounterKey, u64>,
    gauges: BTreeMap<(&'static str, usize), f64>,
}

/// Thread-safe registry of monotonic counters (labelled by rank and
/// optional array name) and indexed gauges. One lock covers both maps;
/// instrumentation holds it only for a map update.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter series, creating it at zero first.
    pub fn counter_add(&self, rank: usize, name: &'static str, array: Option<&str>, delta: u64) {
        let key = CounterKey { name, rank, array: array.map(str::to_owned) };
        *self.inner.lock().counters.entry(key).or_insert(0) += delta;
    }

    /// Sum of a counter over all ranks and array labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner.lock().counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| *v).sum()
    }

    /// Every counter series, sorted by key.
    pub fn counters(&self) -> Vec<(CounterKey, u64)> {
        self.inner.lock().counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Sets gauge `name[index]`.
    pub fn gauge_set(&self, name: &'static str, index: usize, value: f64) {
        self.inner.lock().gauges.insert((name, index), value);
    }

    /// Reads gauge `name[index]`, if ever set.
    pub fn gauge(&self, name: &str, index: usize) -> Option<f64> {
        self.inner
            .lock()
            .gauges
            .iter()
            .find(|((n, i), _)| *n == name && *i == index)
            .map(|(_, v)| *v)
    }

    /// Every gauge, sorted by `(name, index)`.
    pub fn gauges(&self) -> Vec<((&'static str, usize), f64)> {
        self.inner.lock().gauges.iter().map(|(k, v)| (*k, *v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_across_ranks_and_labels() {
        let m = MetricsRegistry::new();
        m.counter_add(0, "stream.bytes", Some("u"), 100);
        m.counter_add(1, "stream.bytes", Some("u"), 50);
        m.counter_add(0, "stream.bytes", Some("v"), 7);
        m.counter_add(0, "stream.bytes", None, 1);
        m.counter_add(0, "other", None, 999);
        assert_eq!(m.counter_total("stream.bytes"), 158);
        assert_eq!(m.counter_total("other"), 999);
        assert_eq!(m.counter_total("missing"), 0);
        let series = m.counters();
        assert_eq!(series.len(), 5);
        // Sorted deterministically: by name, then rank, then array.
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn counter_is_monotonic_per_series() {
        let m = MetricsRegistry::new();
        m.counter_add(2, "msg.messages_sent", None, 1);
        m.counter_add(2, "msg.messages_sent", None, 1);
        m.counter_add(2, "msg.messages_sent", None, 3);
        assert_eq!(m.counter_total("msg.messages_sent"), 5);
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_quantiles_deterministic() {
        // Bounds grow by exactly √2 per bucket (up to float rounding).
        for k in 1..NBUCKETS {
            let ratio = bucket_bound(k) / bucket_bound(k - 1);
            assert!((ratio - std::f64::consts::SQRT_2).abs() < 1e-12, "k={k} ratio={ratio}");
        }
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in [0.001, 0.002, 0.004, 0.100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 0.107).abs() < 1e-12);
        assert_eq!(h.max(), 0.100);
        // Quantiles never exceed the exact max, and p99 lands at it.
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
        // Order independence: the same samples reversed give identical state.
        let mut r = Histogram::default();
        for v in [0.100, 0.004, 0.002, 0.001] {
            r.record(v);
        }
        assert_eq!(h, r);
    }

    #[test]
    fn histogram_overflow_and_negative_samples() {
        let mut h = Histogram::default();
        h.record(-1.0); // clamps to zero, lands in the first bucket
        h.record(1e9); // beyond the last bound: overflow bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1e9);
        assert_eq!(h.quantile(1.0), 1e9);
        assert_eq!(h.quantile(0.0), bucket_bound(0).min(1e9));
    }

    #[test]
    fn gauges_overwrite_by_index() {
        let m = MetricsRegistry::new();
        m.gauge_set("piofs.server_busy", 0, 1.0);
        m.gauge_set("piofs.server_busy", 1, 2.0);
        m.gauge_set("piofs.server_busy", 0, 3.5);
        assert_eq!(m.gauge("piofs.server_busy", 0), Some(3.5));
        assert_eq!(m.gauge("piofs.server_busy", 1), Some(2.0));
        assert_eq!(m.gauge("piofs.server_busy", 9), None);
        assert_eq!(m.gauges().len(), 2);
    }
}
