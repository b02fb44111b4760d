//! A plain-text status view over recent settled windows — what a bench
//! binary prints while (or right after) a run to show live pulse state.

use crate::collect::Collector;

/// Renders the most recent settled windows and active alerts as a small
/// fixed-width table. Pure string formatting: no terminal control codes, so
/// output is safe to pipe and diff.
pub(crate) fn render(c: &Collector) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "pulse | windows settled: {} | samples: {} | alerts: {}\n",
        c.heartbeats.len(),
        c.samples,
        c.alerts.len()
    ));
    out.push_str(&format!(
        "{:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} alerts\n",
        "win", "t0", "t1", "ckpt_s", "wave_s", "io_s", "queue_s"
    ));
    for row in &c.recent {
        let ckpt: f64 =
            crate::heartbeat::CKPT_PHASES.iter().map(|p| row.stats.phase_total(*p)).sum();
        out.push_str(&format!(
            "{:>6} {:>9.3} {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {}\n",
            row.window,
            row.t0,
            row.t1,
            ckpt,
            row.stats.phase_total(drms_obs::Phase::StreamWave),
            row.stats.phase_total(drms_obs::Phase::IoPhase),
            row.stats.max_server_busy(),
            if row.stats.alerts.is_empty() { "-".to_string() } else { row.stats.alerts.join(",") },
        ));
    }
    for a in &c.alerts {
        out.push_str(&format!(
            "ALERT {} window={} t=[{:.3},{:.3}) value={:.3}\n",
            a.rule, a.window, a.t0, a.t1, a.value
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::builtin_rules;
    use crate::rules::RuleThresholds;

    #[test]
    fn render_mentions_counts_and_is_plain_text() {
        let c = Collector::new(0.5, builtin_rules(&RuleThresholds::default()));
        let s = render(&c);
        assert!(s.starts_with("pulse | windows settled: 0"));
        assert!(!s.contains('\x1b'), "no terminal escapes: {s:?}");
    }
}
