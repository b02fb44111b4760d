//! Stable JSON emission and baseline comparison for the gate rows.
//!
//! Every row can emit its headline numbers as `BENCH_<name>.json`
//! (`--json DIR`): one object with the bench name, the invocation
//! parameters, and a flat map of named metrics. The writer sorts keys and
//! uses Rust's shortest-roundtrip float formatting, so the file is
//! byte-stable for a deterministic run — committed baselines in
//! `results/baselines/` diff cleanly and the CI regression gate
//! ([`compare`]) checks relative tolerance per metric.
//!
//! The parser is a minimal hand-rolled reader for exactly this shape (the
//! build environment has no serde), tolerant of whitespace.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One bench invocation's result: name, parameters, flat metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchResult {
    /// Bench name (`BENCH_<name>.json`).
    pub bench: String,
    /// Run metadata (fault seed, bench binary, task count, ...): embedded
    /// so a result file is self-describing and reproducible without the
    /// command line that produced it. Compared exactly, like params.
    pub header: Vec<(String, String)>,
    /// Invocation parameters (class, PEs, seed, ...), as strings.
    pub params: Vec<(String, String)>,
    /// Named metrics. Values must be finite.
    pub metrics: Vec<(String, f64)>,
}

impl BenchResult {
    /// Creates an empty result for `bench`.
    pub fn new(bench: &str) -> BenchResult {
        BenchResult {
            bench: bench.to_owned(),
            header: Vec::new(),
            params: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records (or overwrites) a header metadata field.
    pub fn header_field(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        match self.header.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.header.push((key.to_owned(), value)),
        }
    }

    /// Stamps the standard run-metadata header every bench embeds: the
    /// fault seed the run derived its randomness from, the bench binary
    /// name, and the task count.
    pub fn stamp_header(&mut self, fault_seed: u64, ntasks: usize) {
        self.header_field("bench_bin", self.bench.clone());
        self.header_field("fault_seed", fault_seed);
        self.header_field("ntasks", ntasks);
    }

    /// Records (or overwrites) an invocation parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        match self.params.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.params.push((key.to_owned(), value)),
        }
    }

    /// Records (or overwrites) a metric. Panics on non-finite values —
    /// they have no JSON representation and a NaN metric is a bug.
    pub fn metric(&mut self, key: &str, value: f64) {
        assert!(value.is_finite(), "metric {key:?} is not finite: {value}");
        match self.metrics.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((key.to_owned(), value)),
        }
    }

    /// Looks up a metric by name.
    pub fn metric_value(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The conventional file name, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.bench)
    }

    /// Stable JSON: sorted keys, one entry per line, shortest-roundtrip
    /// floats. Byte-identical for identical results.
    pub fn to_json(&self) -> String {
        let mut header = self.header.clone();
        header.sort();
        let mut params = self.params.clone();
        params.sort();
        let mut metrics = self.metrics.clone();
        metrics.sort_by(|a, b| a.0.cmp(&b.0));

        let mut out = String::new();
        out.push_str("{\n");
        writeln!(out, "  \"bench\": {},", quote(&self.bench)).unwrap();
        if !header.is_empty() {
            out.push_str("  \"header\": {");
            for (i, (k, v)) in header.iter().enumerate() {
                let sep = if i + 1 < header.len() { "," } else { "" };
                write!(out, "\n    {}: {}{sep}", quote(k), quote(v)).unwrap();
            }
            out.push_str("\n  },\n");
        }
        out.push_str("  \"params\": {");
        for (i, (k, v)) in params.iter().enumerate() {
            let sep = if i + 1 < params.len() { "," } else { "" };
            write!(out, "\n    {}: {}{sep}", quote(k), quote(v)).unwrap();
        }
        out.push_str(if params.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in metrics.iter().enumerate() {
            let sep = if i + 1 < metrics.len() { "," } else { "" };
            write!(out, "\n    {}: {}{sep}", quote(k), fmt_f64(*v)).unwrap();
        }
        out.push_str(if metrics.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into `dir` (created if missing) and
    /// returns the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Parses a `BENCH_*.json` file produced by [`BenchResult::to_json`]
    /// (whitespace-insensitive).
    pub fn parse(text: &str) -> Result<BenchResult, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let mut result = BenchResult::default();
        p.expect(b'{')?;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "bench" => result.bench = p.string()?,
                "header" => {
                    p.expect(b'{')?;
                    while !p.try_consume(b'}') {
                        let k = p.string()?;
                        p.expect(b':')?;
                        let v = p.string()?;
                        result.header.push((k, v));
                        p.try_consume(b',');
                    }
                }
                "params" => {
                    p.expect(b'{')?;
                    while !p.try_consume(b'}') {
                        let k = p.string()?;
                        p.expect(b':')?;
                        let v = p.string()?;
                        result.params.push((k, v));
                        p.try_consume(b',');
                    }
                }
                "metrics" => {
                    p.expect(b'{')?;
                    while !p.try_consume(b'}') {
                        let k = p.string()?;
                        p.expect(b':')?;
                        let v = p.number()?;
                        result.metrics.push((k, v));
                        p.try_consume(b',');
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
            if !p.try_consume(b',') {
                break;
            }
        }
        p.expect(b'}')?;
        if result.bench.is_empty() {
            return Err("missing \"bench\" name".into());
        }
        Ok(result)
    }
}

/// Shortest-roundtrip float, with `.0` forced onto integral values so the
/// output is unambiguously a JSON number with a fractional part.
fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn try_consume(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|&c| c.is_ascii_digit() || b"+-.eE".contains(&c))
        {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        tok.parse().map_err(|_| format!("bad number {tok:?} at byte {start}"))
    }
}

/// Compares `current` against a committed `baseline` with relative
/// tolerance `tol` (e.g. `0.05` = ±5%). Returns one message per
/// regression: bench-name or parameter drift, a baseline metric that is
/// missing or out of band, or a new metric absent from the baseline
/// (which needs a re-bless). Empty means the gate passes.
pub fn compare(current: &BenchResult, baseline: &BenchResult, tol: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if current.bench != baseline.bench {
        failures.push(format!("bench name {:?} != baseline {:?}", current.bench, baseline.bench));
    }
    let mut params = baseline.params.clone();
    params.sort();
    for (k, v) in &params {
        match current.params.iter().find(|(ck, _)| ck == k) {
            None => failures.push(format!("parameter {k:?} missing (baseline {v:?})")),
            Some((_, cv)) if cv != v => {
                failures.push(format!("parameter {k:?} = {cv:?} differs from baseline {v:?}"))
            }
            Some(_) => {}
        }
    }
    // Header fields are compared baseline-side only, like params: a
    // baseline blessed before headers existed keeps passing, and a
    // current run must reproduce whatever metadata the baseline pinned.
    let mut header = baseline.header.clone();
    header.sort();
    for (k, v) in &header {
        match current.header.iter().find(|(ck, _)| ck == k) {
            None => failures.push(format!("header field {k:?} missing (baseline {v:?})")),
            Some((_, cv)) if cv != v => {
                failures.push(format!("header field {k:?} = {cv:?} differs from baseline {v:?}"))
            }
            Some(_) => {}
        }
    }
    let mut metrics = baseline.metrics.clone();
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    for (k, base) in &metrics {
        match current.metric_value(k) {
            None => failures.push(format!("metric {k:?} missing (baseline {base})")),
            Some(cur) => {
                let rel = (cur - base).abs() / base.abs().max(1e-12);
                if rel > tol {
                    failures.push(format!(
                        "metric {k:?}: {cur} vs baseline {base} ({:+.1}% > ±{:.1}%)",
                        100.0 * (cur - base) / base.abs().max(1e-12),
                        100.0 * tol
                    ));
                }
            }
        }
    }
    for (k, v) in &current.metrics {
        if baseline.metric_value(k).is_none() {
            failures.push(format!("metric {k:?} = {v} not in baseline (re-bless needed)"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchResult {
        let mut r = BenchResult::new("insight");
        r.param("class", "S");
        r.param("pes", 4);
        r.metric("bt.restart.wall_s", 12.25);
        r.metric("bt.restart.critical_path_s", 12.25);
        r.metric("servers", 16.0);
        r
    }

    #[test]
    fn json_round_trips_and_is_stable() {
        let r = sample();
        let text = r.to_json();
        assert_eq!(text, r.to_json());
        let parsed = BenchResult::parse(&text).unwrap();
        assert_eq!(parsed.bench, "insight");
        assert_eq!(parsed.metric_value("bt.restart.wall_s"), Some(12.25));
        assert_eq!(parsed.params.len(), 2);
        // Key order in the file is sorted regardless of insertion order.
        let mut reordered = BenchResult::new("insight");
        reordered.metric("servers", 16.0);
        reordered.metric("bt.restart.critical_path_s", 12.25);
        reordered.metric("bt.restart.wall_s", 12.25);
        reordered.param("pes", 4);
        reordered.param("class", "S");
        assert_eq!(reordered.to_json(), text);
    }

    #[test]
    fn header_round_trips_sorted_and_gates_exactly() {
        let mut r = sample();
        r.stamp_header(0xC0FFEE, 8);
        let text = r.to_json();
        // Sorted keys, before "params".
        let h = text.find("\"header\"").unwrap();
        assert!(h < text.find("\"params\"").unwrap());
        assert!(text.find("\"bench_bin\"").unwrap() < text.find("\"fault_seed\"").unwrap());
        let parsed = BenchResult::parse(&text).unwrap();
        assert_eq!(parsed.to_json(), text);
        assert_eq!(
            parsed.header.iter().find(|(k, _)| k == "fault_seed").map(|(_, v)| v.as_str()),
            Some("12648430")
        );
        // Exact comparison: a differing seed fails the gate, a baseline
        // without headers still passes against a stamped current.
        let mut drift = r.clone();
        drift.header_field("fault_seed", 1);
        assert!(compare(&drift, &r, 0.05).iter().any(|f| f.contains("fault_seed")));
        assert!(compare(&r, &sample(), 0.05).is_empty());
    }

    #[test]
    fn empty_sections_render_and_parse() {
        let r = BenchResult::new("empty");
        let parsed = BenchResult::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn float_formatting_keeps_a_fractional_point() {
        assert_eq!(fmt_f64(16.0), "16.0");
        assert_eq!(fmt_f64(0.125), "0.125");
        assert_eq!(fmt_f64(1e-9), "0.000000001");
        assert_eq!(fmt_f64(1e22), "10000000000000000000000.0");
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = sample();
        let mut cur = sample();
        cur.metric("bt.restart.wall_s", 12.25 * 1.04);
        assert!(compare(&cur, &base, 0.05).is_empty());
        assert!(!compare(&cur, &base, 0.01).is_empty());
    }

    #[test]
    fn compare_flags_missing_new_and_drifted_entries() {
        let base = sample();
        let mut cur = BenchResult::new("insight");
        cur.param("class", "W"); // drift
        cur.metric("bt.restart.wall_s", 12.25);
        cur.metric("brand.new", 1.0); // not in baseline
        let failures = compare(&cur, &base, 0.05);
        assert!(failures.iter().any(|f| f.contains("parameter \"class\"")));
        assert!(failures.iter().any(|f| f.contains("parameter \"pes\" missing")));
        assert!(failures.iter().any(|f| f.contains("\"bt.restart.critical_path_s\" missing")));
        assert!(failures.iter().any(|f| f.contains("\"servers\" missing")));
        assert!(failures.iter().any(|f| f.contains("re-bless")));
    }

    #[test]
    #[should_panic]
    fn non_finite_metrics_rejected() {
        sample().metric("bad", f64::NAN);
    }
}
