//! `BENCHMARK.json` is the one registry of workloads and metrics — names,
//! units, directions and regression bounds. It is compiled in, so a metric
//! the code emits but the file does not list is an error, not a surprise.

use crate::json::{parse, Json};

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::from_text(TEXT).expect("BENCHMARK.json is well formed")
    }

    pub fn from_text(text: &str) -> Result<Spec, String> {
        let doc = parse(text)?;
        let names = |key: &str| -> Result<Vec<&Json>, String> {
            Ok(doc.get(key).ok_or(format!("missing {key:?}"))?.as_arr().iter().collect())
        };
        let metric = |m: &Json| -> Result<Metric, String> {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("metric lacks {k:?}"))
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better: {other:?}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        };
        Ok(Spec {
            workloads: names("workloads")?
                .into_iter()
                .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect::<Option<_>>()
                .ok_or("workload lacks a name")?,
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).ok_or("run_seconds")? as u64,
            end_to_end: names("end_to_end")?.into_iter().map(metric).collect::<Result<_, _>>()?,
            per_layer: names("per_layer")?.into_iter().map(metric).collect::<Result<_, _>>()?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_file_lists_exactly_the_workloads_the_code_runs() {
        let spec = Spec::load();
        let coded: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, coded);
    }

    #[test]
    fn the_file_stays_inside_the_limits_its_reader_enforces() {
        let spec = Spec::load();
        let doc = parse(TEXT).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(TEXT.len() <= 64 << 10);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));

        let command = doc.get("command").unwrap().as_arr();
        assert!(command.len() <= 32 && command.iter().all(|c| c.as_str().unwrap().len() <= 200));
        assert_eq!(doc.get("paths").unwrap().as_arr(), [Json::Str("benchmark".into())]);
        for w in doc.get("workloads").unwrap().as_arr() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.as_obj().len(), 2);
        }

        let mut seen = std::collections::BTreeSet::new();
        for name in spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| &m.name))
        {
            assert!(is_name(name), "{name:?} is not a name");
            assert!(seen.insert(name.clone()), "{name:?} is used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(is_unit(&m.unit), "{:?} is not a unit", m.unit);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").expect("setup_s is mandatory");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up time gets the largest bound");
    }

    #[test]
    fn a_malformed_file_is_refused() {
        assert!(Spec::from_text("{}").is_err());
        assert!(Spec::from_text(&TEXT.replace("\"higher\"", "\"upward\"")).is_err());
    }
}
