//! Heartbeat snapshots: one sorted-key JSONL line per settled window.
//!
//! Lines carry the window's structural fields (see [`fields`]), a live
//! stall-attribution breakdown derived from closed spans, every counter
//! that moved (keyed by its `drms_obs::names` metric name), index-0 gauges
//! set in the window, and the alerts fired at evaluation. Keys are emitted
//! in sorted order and every value is rendered deterministically, so the
//! heartbeat stream for a fixed seed is byte-identical run to run.

use std::collections::BTreeMap;

use drms_obs::Phase;

use crate::window::WindowStats;

/// Structural heartbeat field names (the window-derived keys every line can
/// carry, as opposed to the pass-through metric names). Declared with an
/// `ALL` list so coverage tests can pin that each one is actually emitted.
pub mod fields {
    /// Window index (`floor(t / width)`).
    pub const WINDOW: &str = "window";
    /// Window start, simulated seconds.
    pub const T0: &str = "t0";
    /// Window end, simulated seconds.
    pub const T1: &str = "t1";
    /// Samples assigned to the window.
    pub const SAMPLES: &str = "samples";
    /// Alert names fired at this window's evaluation (JSON array).
    pub const ALERTS: &str = "alerts";
    /// Seconds of checkpoint activity (segment + arrays + manifest +
    /// memory-tier store + spill spans) closed in the window — the live
    /// SOP-stall attribution.
    pub const CKPT_SECONDS: &str = "ckpt_s";
    /// Seconds of stream-wave spans closed in the window, all ranks.
    pub const WAVE_SECONDS: &str = "wave_s";
    /// Seconds of priced I/O-phase spans closed in the window.
    pub const IO_SECONDS: &str = "io_s";
    /// Seconds of retry-backoff spans closed in the window.
    pub const RETRY_SECONDS: &str = "retry_s";
    /// Slowest/median per-rank stream-wave seconds (0 when fewer than two
    /// ranks reported waves).
    pub const WAVE_SKEW: &str = "wave_skew";
    /// Busiest PIOFS server's busy seconds accrued in the window.
    pub const QUEUE_SECONDS: &str = "queue_s";

    /// Every structural field above.
    pub const ALL: [&str; 11] = [
        WINDOW,
        T0,
        T1,
        SAMPLES,
        ALERTS,
        CKPT_SECONDS,
        WAVE_SECONDS,
        IO_SECONDS,
        RETRY_SECONDS,
        WAVE_SKEW,
        QUEUE_SECONDS,
    ];
}

/// Span phases attributed to checkpoint activity in `ckpt_s`.
pub(crate) const CKPT_PHASES: [Phase; 5] =
    [Phase::Segment, Phase::Arrays, Phase::Manifest, Phase::MemTier, Phase::Spill];

/// One settled window ready for export.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub window: u64,
    pub t0: f64,
    pub t1: f64,
    pub stats: WindowStats,
}

fn num(v: f64) -> String {
    // Fixed precision keeps lines stable and diffable; six digits is below
    // the cost model's own resolution.
    format!("{v:.6}")
}

impl Row {
    /// Slowest/median stream-wave seconds across ranks (0 when under two
    /// ranks reported).
    pub fn wave_skew(&self) -> f64 {
        let mut secs: Vec<f64> =
            self.stats.phase_by_rank(Phase::StreamWave).into_iter().map(|(_, s)| s).collect();
        if secs.len() < 2 {
            return 0.0;
        }
        secs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = secs[secs.len() / 2];
        if median > 0.0 {
            secs[secs.len() - 1] / median
        } else {
            0.0
        }
    }

    /// Renders the sorted-key JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut kv: BTreeMap<String, String> = BTreeMap::new();
        kv.insert(fields::WINDOW.into(), self.window.to_string());
        kv.insert(fields::T0.into(), num(self.t0));
        kv.insert(fields::T1.into(), num(self.t1));
        kv.insert(fields::SAMPLES.into(), self.stats.samples.to_string());
        let ckpt: f64 = CKPT_PHASES.iter().map(|p| self.stats.phase_total(*p)).sum();
        kv.insert(fields::CKPT_SECONDS.into(), num(ckpt));
        kv.insert(fields::WAVE_SECONDS.into(), num(self.stats.phase_total(Phase::StreamWave)));
        kv.insert(fields::IO_SECONDS.into(), num(self.stats.phase_total(Phase::IoPhase)));
        kv.insert(fields::RETRY_SECONDS.into(), num(self.stats.phase_total(Phase::Retry)));
        kv.insert(fields::WAVE_SKEW.into(), num(self.wave_skew()));
        kv.insert(fields::QUEUE_SECONDS.into(), num(self.stats.max_server_busy()));
        let alerts: Vec<String> = self.stats.alerts.iter().map(|a| format!("\"{a}\"")).collect();
        kv.insert(fields::ALERTS.into(), format!("[{}]", alerts.join(",")));
        for (name, v) in &self.stats.counters {
            kv.insert((*name).into(), v.to_string());
        }
        for ((name, index), g) in &self.stats.gauges {
            if *index == 0 {
                kv.insert((*name).into(), num(g.value));
            }
        }
        let body: Vec<String> = kv.into_iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::names;

    #[test]
    fn lines_are_sorted_key_json_with_all_structural_fields() {
        let mut stats = WindowStats { samples: 3, ..Default::default() };
        stats.counters.insert(names::COMMITS, 1);
        let gw = |value| crate::window::GaugeWrite { stamp: 0.0, rank: 0, value };
        stats.record_gauge(names::MEMTIER_REPLICAS, 0, gw(2.0));
        stats.record_gauge(names::PIOFS_QUEUE_DEPTH, 3, gw(0.5)); // non-zero index: omitted
        stats.span_secs.insert((0, Phase::Segment), 0.25);
        stats.alerts.push(names::ALERT_RETRY_STORM);
        let row = Row { window: 4, t0: 2.0, t1: 2.5, stats };
        let line = row.to_jsonl();
        for f in fields::ALL {
            assert!(line.contains(&format!("\"{f}\":")), "missing field {f} in {line}");
        }
        assert!(line.contains("\"core.commits\":1"));
        assert!(line.contains("\"memtier.replicas\":2.000000"));
        assert!(!line.contains("piofs.queue_depth"));
        assert!(line.contains(&format!("\"alerts\":[\"{}\"]", names::ALERT_RETRY_STORM)));
        // Keys are sorted.
        let keys: Vec<&str> = line
            .trim_matches(|c| c == '{' || c == '}')
            .split(",\"")
            .map(|kv| kv.split(':').next().unwrap().trim_matches('"'))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "keys not sorted in {line}");
    }
}
