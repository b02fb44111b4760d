//! `compare A.jsonl B.jsonl`: B judged against A, one row per (workload,
//! end-to-end metric), each by its own bound from `BENCHMARK.json`.
//!
//! A file is what `run --out` appends: one record per run. With several
//! runs a side, each side's value is its median and its spread the distance
//! between its quartiles as a share of the median. A metric whose spread,
//! on either side, exceeds its bound cannot carry a verdict at that bound:
//! it is reported *unresolved*, never *unchanged*.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{parse, Json};
use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

/// (workload, metric) -> one value per run.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Timed runs feed the end-to-end set, traced runs the per-layer set.
fn load(path: &Path) -> Result<[Runs; 2], String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets = [Runs::new(), Runs::new()];
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload =
            rec.get("workload").and_then(Json::as_str).ok_or("record lacks a workload")?;
        let traced = rec.get("trace").and_then(Json::as_f64) == Some(1.0);
        let (key, set) =
            if traced { ("per_layer", &mut sets[1]) } else { ("end_to_end", &mut sets[0]) };
        for (name, m) in rec.get(key).map_or(&[][..], Json::as_obj) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(sets)
}

fn spread(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// By how large a share of `a`'s median `b`'s median is worse (negative:
/// better), in the metric's own direction.
fn worse_by(m: &Metric, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    // `0.0 -` rather than `-`: an unchanged metric prints as 0.00, not -0.00.
    if m.higher_is_better {
        0.0 - change
    } else {
        change
    }
}

pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let worse = worse_by(m, a, b);
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (a_sets, b_sets) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let mut regressed = 0;
    println!(
        "{:<12} {:<14} {:>14} {:>7} {:>3} {:>14} {:>7} {:>3} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "spread",
        "n",
        "B median",
        "spread",
        "n",
        "worse by",
        "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a_sets[0].get(&key), b_sets[0].get(&key)) else { continue };
            let verdict = judge(m, xa, xb);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<12} {:<14} {:>14.6} {:>6.2}% {:>3} {:>14.6} {:>6.2}% {:>3} {:>7.2}% {:>5.1}%  {:?}",
                w,
                m.name,
                median(xa),
                100.0 * spread(xa),
                xa.len(),
                median(xb),
                100.0 * spread(xb),
                xb.len(),
                100.0 * worse_by(m, xa, xb),
                100.0 * m.bound.unwrap_or(0.0),
                verdict
            );
        }
    }
    // Layer metrics carry no bound: they say where a change landed.
    let mut header = false;
    for w in &spec.workloads {
        for m in &spec.per_layer {
            let key = (w.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a_sets[1].get(&key), b_sets[1].get(&key)) else { continue };
            if median(xa) == 0.0 && median(xb) == 0.0 {
                continue;
            }
            if !header {
                println!(
                    "\n{:<12} {:<28} {:>16} {:>16} {:>9}",
                    "workload", "layer metric", "A median", "B median", "worse by"
                );
                header = true;
            }
            println!(
                "{:<12} {:<28} {:>16.6} {:>16.6} {:>8.2}%",
                w,
                m.name,
                median(xa),
                median(xb),
                100.0 * worse_by(m, xa, xb)
            );
        }
    }
    if regressed > 0 {
        println!("\n{regressed} end-to-end metric(s) REGRESSED beyond their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Metric {
        Metric { name: "m".into(), unit: "u".into(), higher_is_better: higher, bound: Some(bound) }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let rate = metric(true, 0.10);
        assert_eq!(judge(&rate, &[100.0], &[95.0]), Verdict::Unchanged);
        assert_eq!(judge(&rate, &[100.0], &[85.0]), Verdict::Regressed);
        assert_eq!(judge(&rate, &[100.0], &[115.0]), Verdict::Improved);
        let time = metric(false, 0.10);
        assert_eq!(judge(&time, &[100.0], &[115.0]), Verdict::Regressed);
        assert_eq!(judge(&time, &[100.0], &[85.0]), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let time = metric(false, 0.05);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(judge(&time, &steady, &steady), Verdict::Unchanged);
        assert_eq!(judge(&time, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&time, &noisy, &steady), Verdict::Unresolved);
    }
}
