//! The declarative health-rule engine.
//!
//! A [`PulseRule`] names an alert and a [`Predicate`] over settled windows.
//! The engine evaluates rules window by window, in window order, against
//! the window's aggregates plus a small amount of carried state (last
//! gauge values, time of last counter activity). Alerts follow a breach
//! state machine: a rule fires **once** when its predicate first holds for
//! `min_windows` consecutive windows, stays latched while the breach
//! continues, and re-arms after the first non-breaching window — so one
//! continuous breach can never emit twice.

use std::collections::BTreeMap;

use drms_obs::Phase;

use crate::window::WindowStats;

/// Threshold/rate/absence predicates over one settled window.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Summed counter deltas over `metrics`, divided by the window width,
    /// at or above `per_second`.
    RateAbove {
        /// Counter names summed together.
        metrics: Vec<&'static str>,
        /// Breach threshold in increments per simulated second.
        per_second: f64,
    },
    /// Summed counter deltas over `metrics` at or above `at_least`.
    CountAbove {
        /// Counter names summed together.
        metrics: Vec<&'static str>,
        /// Breach threshold in increments per window.
        at_least: u64,
    },
    /// Carried gauge value strictly below `below`. Evaluates only once the
    /// gauge has been set at least once (an unreported gauge is unknown,
    /// not zero).
    GaugeBelow {
        /// Gauge name.
        name: &'static str,
        /// Gauge index.
        index: usize,
        /// Breach threshold (strictly below).
        below: f64,
    },
    /// Carried gauge value strictly above `above`.
    GaugeAbove {
        /// Gauge name.
        name: &'static str,
        /// Gauge index.
        index: usize,
        /// Breach threshold (strictly above).
        above: f64,
    },
    /// No increment of `metric` for at least `seconds` of simulated time,
    /// measured window-end to window-end while the run shows activity.
    AbsenceFor {
        /// Counter whose silence constitutes the stall.
        metric: &'static str,
        /// Stall budget in simulated seconds.
        seconds: f64,
    },
    /// Straggler skew: slowest rank's seconds in `phase` this window over
    /// the median rank's, at or above `factor`, with at least `min_ranks`
    /// ranks reporting.
    SkewAbove {
        /// Phase whose per-rank durations are compared.
        phase: Phase,
        /// Breach threshold for slowest/median.
        factor: f64,
        /// Minimum reporting ranks for the comparison to mean anything.
        min_ranks: usize,
    },
}

/// One declarative health rule.
#[derive(Debug, Clone)]
pub struct PulseRule {
    /// Alert name — one of the `pulse.alert.*` metric names, emitted as a
    /// counter and a `Phase::Pulse` event when the rule fires.
    pub name: &'static str,
    /// The windowed predicate.
    pub predicate: Predicate,
    /// Consecutive breaching windows required before firing (≥ 1; 0 is
    /// treated as 1).
    pub min_windows: usize,
}

/// A fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The rule's alert name.
    pub rule: &'static str,
    /// Index of the window whose evaluation fired the alert.
    pub window: u64,
    /// Window start, simulated seconds.
    pub t0: f64,
    /// Window end, simulated seconds.
    pub t1: f64,
    /// The measured value that breached (rate, count, gauge, gap, skew).
    pub value: f64,
}

/// Tunable thresholds for the built-in rule set.
#[derive(Debug, Clone)]
pub struct RuleThresholds {
    /// Checkpoint-stall SLO: simulated seconds without a commit.
    pub ckpt_stall_slo: f64,
    /// Retry-storm threshold: PIOFS retries per simulated second.
    pub retry_rate: f64,
    /// Straggler threshold: slowest/median stream-wave seconds.
    pub straggler_factor: f64,
    /// Minimum ranks reporting waves before skew is considered.
    pub straggler_min_ranks: usize,
    /// Replica-health floor: alert when the memory tier's minimum
    /// surviving replica count drops strictly below this.
    pub min_replicas: f64,
    /// Delta-collapse ceiling: alert when an incremental checkpoint's
    /// dirty-chunk ratio exceeds this (deltas no longer save anything and
    /// the application should fall back to full checkpoints).
    pub delta_dirty_ceiling: f64,
    /// Flush-lag budget: alert when the asynchronous pipeline accrues at
    /// least this many microseconds of commit lag inside one window (the
    /// background flusher has fallen behind the snapshot cadence).
    pub flush_lag_budget_us: u64,
    /// Recovery-budget ceiling: alert when the cumulative recovery
    /// fraction (everything but useful work over the stitched wall clock:
    /// the JSA's recovery-cost attribution, published as the
    /// `blackbox.recovery_ratio` gauge) exceeds this fraction of the run.
    pub recovery_budget: f64,
    /// Recovery-degradation floor: alert when localized recovery
    /// escalates to at least this many verified full restarts inside one
    /// window (the survivor-driven restore path is no longer holding).
    pub full_restart_budget: u64,
}

impl Default for RuleThresholds {
    fn default() -> RuleThresholds {
        RuleThresholds {
            ckpt_stall_slo: 300.0,
            retry_rate: 5.0,
            straggler_factor: 2.0,
            straggler_min_ranks: 4,
            min_replicas: 1.0,
            delta_dirty_ceiling: 0.9,
            flush_lag_budget_us: 5_000_000,
            recovery_budget: 0.25,
            full_restart_budget: 1,
        }
    }
}

/// The nine built-in rules: checkpoint-stall SLO breach, retry storm,
/// straggler skew, parity-degraded writes, memory-tier replica loss,
/// delta-ratio collapse, asynchronous flush lag, recovery-budget
/// exhaustion, and recovery degradation (localized recovery escalating
/// to full restarts).
pub fn builtin_rules(th: &RuleThresholds) -> Vec<PulseRule> {
    use drms_obs::names;
    vec![
        PulseRule {
            name: names::ALERT_CKPT_STALL,
            predicate: Predicate::AbsenceFor { metric: names::COMMITS, seconds: th.ckpt_stall_slo },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_RETRY_STORM,
            predicate: Predicate::RateAbove {
                metrics: vec![names::IO_RETRIES],
                per_second: th.retry_rate,
            },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_STRAGGLER,
            predicate: Predicate::SkewAbove {
                phase: Phase::StreamWave,
                factor: th.straggler_factor,
                min_ranks: th.straggler_min_ranks,
            },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_PARITY_DEGRADED,
            predicate: Predicate::GaugeAbove { name: names::PIOFS_DEGRADED, index: 0, above: 0.0 },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_REPLICA_LOSS,
            predicate: Predicate::GaugeBelow {
                name: names::MEMTIER_REPLICAS,
                index: 0,
                below: th.min_replicas,
            },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_DELTA_COLLAPSE,
            predicate: Predicate::GaugeAbove {
                name: names::DELTA_DIRTY_RATIO,
                index: 0,
                above: th.delta_dirty_ceiling,
            },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_FLUSH_LAG,
            predicate: Predicate::CountAbove {
                metrics: vec![names::ASYNC_FLUSH_LAG_US],
                at_least: th.flush_lag_budget_us,
            },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_RECOVERY_BUDGET,
            predicate: Predicate::GaugeAbove {
                name: names::BLACKBOX_RECOVERY_RATIO,
                index: 0,
                above: th.recovery_budget,
            },
            min_windows: 1,
        },
        PulseRule {
            name: names::ALERT_RECOVERY_DEGRADED,
            predicate: Predicate::CountAbove {
                metrics: vec![names::RECOVER_FULL_RESTARTS],
                at_least: th.full_restart_budget,
            },
            min_windows: 1,
        },
    ]
}

struct RuleState {
    /// Consecutive breaching windows so far.
    run: usize,
    /// Whether the alert is latched (fired and still breaching).
    latched: bool,
}

/// Evaluates rules over settled windows, in window order.
pub struct RuleEngine {
    rules: Vec<PulseRule>,
    states: Vec<RuleState>,
    /// Carried last value per gauge series.
    gauges: BTreeMap<(&'static str, usize), f64>,
    /// Absence tracking: simulated time the metric was last seen
    /// incrementing (window end), or the start of observation.
    last_seen: BTreeMap<&'static str, f64>,
    /// Whether any window has been observed yet (anchors absence clocks).
    observed: bool,
}

impl RuleEngine {
    /// An engine over `rules` with all alerts armed.
    pub fn new(rules: Vec<PulseRule>) -> RuleEngine {
        let states = rules.iter().map(|_| RuleState { run: 0, latched: false }).collect();
        RuleEngine {
            rules,
            states,
            gauges: BTreeMap::new(),
            last_seen: BTreeMap::new(),
            observed: false,
        }
    }

    /// The rules under evaluation.
    pub fn rules(&self) -> &[PulseRule] {
        &self.rules
    }

    /// Evaluates every rule against one settled window (`index`, bounds
    /// `[t0, t1)`), updating carried state, and returns the alerts that
    /// fired. Must be called in strictly increasing window order.
    pub fn evaluate(&mut self, index: u64, t0: f64, t1: f64, w: &WindowStats) -> Vec<Alert> {
        // Carried state updates first: gauges keep their last set value
        // across windows, and counter activity timestamps feed absence.
        for (key, g) in &w.gauges {
            self.gauges.insert(*key, g.value);
        }
        if !self.observed && w.samples > 0 {
            self.observed = true;
            // Anchor every absence clock at the first observed activity.
            for rule in &self.rules {
                if let Predicate::AbsenceFor { metric, .. } = &rule.predicate {
                    self.last_seen.entry(*metric).or_insert(t0);
                }
            }
        }
        for rule in &self.rules {
            if let Predicate::AbsenceFor { metric, .. } = &rule.predicate {
                if w.counters.get(*metric).copied().unwrap_or(0) > 0 {
                    self.last_seen.insert(*metric, t1);
                }
            }
        }

        let width = (t1 - t0).max(f64::MIN_POSITIVE);
        let mut fired = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let breach: Option<f64> = match &rule.predicate {
                Predicate::RateAbove { metrics, per_second } => {
                    let rate = w.counter_sum(metrics) as f64 / width;
                    (rate >= *per_second && *per_second > 0.0).then_some(rate)
                }
                Predicate::CountAbove { metrics, at_least } => {
                    let n = w.counter_sum(metrics);
                    (n >= *at_least && *at_least > 0).then_some(n as f64)
                }
                Predicate::GaugeBelow { name, index, below } => {
                    self.gauges.get(&(*name, *index)).copied().filter(|v| *v < *below)
                }
                Predicate::GaugeAbove { name, index, above } => {
                    self.gauges.get(&(*name, *index)).copied().filter(|v| *v > *above)
                }
                Predicate::AbsenceFor { metric, seconds } => {
                    let gap = self.last_seen.get(*metric).map(|seen| t1 - seen);
                    gap.filter(|g| self.observed && *g >= *seconds && *seconds > 0.0)
                }
                Predicate::SkewAbove { phase, factor, min_ranks } => {
                    let mut secs: Vec<f64> =
                        w.phase_by_rank(*phase).into_iter().map(|(_, s)| s).collect();
                    if secs.len() < (*min_ranks).max(2) {
                        None
                    } else {
                        secs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                        let median = secs[secs.len() / 2];
                        let slowest = secs[secs.len() - 1];
                        if median > 0.0 && slowest / median >= *factor {
                            Some(slowest / median)
                        } else {
                            None
                        }
                    }
                }
            };
            match breach {
                Some(value) => {
                    state.run += 1;
                    if state.run >= rule.min_windows.max(1) && !state.latched {
                        state.latched = true;
                        fired.push(Alert { rule: rule.name, window: index, t0, t1, value });
                    }
                }
                None => {
                    state.run = 0;
                    state.latched = false;
                }
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_obs::names;

    fn window_with(metric: &'static str, delta: u64) -> WindowStats {
        let mut w = WindowStats { samples: 1, ..Default::default() };
        if delta > 0 {
            w.counters.insert(metric, delta);
        }
        w
    }

    fn gw(value: f64) -> crate::window::GaugeWrite {
        crate::window::GaugeWrite { stamp: 0.0, rank: 0, value }
    }

    #[test]
    fn continuous_breach_fires_once_and_rearms() {
        let rule = PulseRule {
            name: names::ALERT_RETRY_STORM,
            predicate: Predicate::RateAbove { metrics: vec![names::IO_RETRIES], per_second: 2.0 },
            min_windows: 1,
        };
        let mut eng = RuleEngine::new(vec![rule]);
        let hot = window_with(names::IO_RETRIES, 10);
        let cold = window_with(names::IO_RETRIES, 0);
        assert_eq!(eng.evaluate(0, 0.0, 1.0, &hot).len(), 1);
        assert_eq!(eng.evaluate(1, 1.0, 2.0, &hot).len(), 0); // latched
        assert_eq!(eng.evaluate(2, 2.0, 3.0, &cold).len(), 0); // re-arms
        assert_eq!(eng.evaluate(3, 3.0, 4.0, &hot).len(), 1); // new breach
    }

    #[test]
    fn min_windows_debounces() {
        let rule = PulseRule {
            name: names::ALERT_RETRY_STORM,
            predicate: Predicate::CountAbove { metrics: vec![names::IO_RETRIES], at_least: 1 },
            min_windows: 3,
        };
        let mut eng = RuleEngine::new(vec![rule]);
        let hot = window_with(names::IO_RETRIES, 1);
        assert!(eng.evaluate(0, 0.0, 1.0, &hot).is_empty());
        assert!(eng.evaluate(1, 1.0, 2.0, &hot).is_empty());
        assert_eq!(eng.evaluate(2, 2.0, 3.0, &hot).len(), 1);
    }

    #[test]
    fn gauge_rules_carry_values_across_windows() {
        let rule = PulseRule {
            name: names::ALERT_REPLICA_LOSS,
            predicate: Predicate::GaugeBelow {
                name: names::MEMTIER_REPLICAS,
                index: 0,
                below: 1.0,
            },
            min_windows: 1,
        };
        let mut eng = RuleEngine::new(vec![rule]);
        // Unset gauge: unknown, no alert.
        assert!(eng.evaluate(0, 0.0, 1.0, &window_with(names::COMMITS, 1)).is_empty());
        let mut set = WindowStats { samples: 1, ..Default::default() };
        set.record_gauge(names::MEMTIER_REPLICAS, 0, gw(2.0));
        assert!(eng.evaluate(1, 1.0, 2.0, &set).is_empty());
        let mut drop = WindowStats { samples: 1, ..Default::default() };
        drop.record_gauge(names::MEMTIER_REPLICAS, 0, gw(0.0));
        let fired = eng.evaluate(2, 2.0, 3.0, &drop);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].value, 0.0);
        // Value carries: still breaching in an empty window, still latched.
        assert!(eng.evaluate(3, 3.0, 4.0, &WindowStats::default()).is_empty());
    }

    #[test]
    fn absence_measures_from_last_activity() {
        let rule = PulseRule {
            name: names::ALERT_CKPT_STALL,
            predicate: Predicate::AbsenceFor { metric: names::COMMITS, seconds: 2.5 },
            min_windows: 1,
        };
        let mut eng = RuleEngine::new(vec![rule]);
        let active = window_with(names::COMMITS, 1);
        let idle = window_with(names::IO_RETRIES, 0);
        assert!(eng.evaluate(0, 0.0, 1.0, &active).is_empty());
        assert!(eng.evaluate(1, 1.0, 2.0, &idle).is_empty()); // gap 1.0
        assert!(eng.evaluate(2, 2.0, 3.0, &idle).is_empty()); // gap 2.0
        let fired = eng.evaluate(3, 3.0, 4.0, &idle); // gap 3.0 >= 2.5
        assert_eq!(fired.len(), 1);
        assert!((fired[0].value - 3.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_degradation_counts_full_restarts() {
        let rules = builtin_rules(&RuleThresholds::default());
        assert_eq!(rules.len(), 9);
        let mut eng = RuleEngine::new(rules);
        let quiet = window_with(names::RECOVER_FULL_RESTARTS, 0);
        assert!(!eng
            .evaluate(0, 0.0, 1.0, &quiet)
            .iter()
            .any(|a| a.rule == names::ALERT_RECOVERY_DEGRADED));
        let degraded = window_with(names::RECOVER_FULL_RESTARTS, 1);
        let fired = eng.evaluate(1, 1.0, 2.0, &degraded);
        assert!(fired.iter().any(|a| a.rule == names::ALERT_RECOVERY_DEGRADED));
    }

    #[test]
    fn skew_needs_enough_ranks() {
        let rule = PulseRule {
            name: names::ALERT_STRAGGLER,
            predicate: Predicate::SkewAbove { phase: Phase::StreamWave, factor: 2.0, min_ranks: 3 },
            min_windows: 1,
        };
        let mut eng = RuleEngine::new(vec![rule]);
        let mut w = WindowStats { samples: 4, ..Default::default() };
        w.span_secs.insert((0, Phase::StreamWave), 1.0);
        w.span_secs.insert((1, Phase::StreamWave), 1.0);
        assert!(eng.evaluate(0, 0.0, 1.0, &w).is_empty()); // too few ranks
        w.span_secs.insert((2, Phase::StreamWave), 1.1);
        w.span_secs.insert((3, Phase::StreamWave), 5.0);
        let fired = eng.evaluate(1, 1.0, 2.0, &w);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].value >= 2.0);
    }
}
