//! The committed host trajectory, `results/host/BENCH_host.jsonl`: one
//! record per (change, workload, end-to-end metric) of a paired host run,
//! appended from the summary `scripts/host_pairs.sh` writes, or transcribed
//! from CHANGES.md for the changes measured before it wrote one. No gate
//! reads the file and no blessed output holds a host number; this test
//! keeps every line parseable and every record naming a workload and an
//! end-to-end metric that `BENCHMARK.json` declares.

use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Null,
}

/// A string at the start of `s` (no escapes: the trajectory writes none),
/// and what follows it.
fn string(s: &str) -> Result<(String, &str), String> {
    let s = s.strip_prefix('"').ok_or_else(|| format!("expected a string at {s:?}"))?;
    let end = s.find('"').ok_or("unterminated string")?;
    let text = &s[..end];
    if text.contains('\\') {
        return Err(format!("escape in {text:?}"));
    }
    Ok((text.to_string(), &s[end + 1..]))
}

/// One line: a flat object of strings, finite numbers and nulls.
fn parse_flat(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not one object on one line")?;
    let mut out = BTreeMap::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let (key, after) = string(rest)?;
        rest = after.trim_start().strip_prefix(':').ok_or("no colon after a key")?.trim_start();
        let (value, after) = if rest.starts_with('"') {
            let (text, after) = string(rest)?;
            (Value::Str(text), after)
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let token = rest[..end].trim();
            let value = match token {
                "null" => Value::Null,
                _ if token.bytes().all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b)) => {
                    let v: f64 = token.parse().map_err(|_| format!("bad number {token:?}"))?;
                    Value::Num(v)
                }
                _ => return Err(format!("bad value {token:?}")),
            };
            (value, &rest[end..])
        };
        if out.insert(key.clone(), value).is_some() {
            return Err(format!("key {key:?} twice"));
        }
        rest = after.trim_start();
        if !rest.is_empty() {
            rest = rest.strip_prefix(',').ok_or("no comma between fields")?.trim_start();
        }
    }
    Ok(out)
}

/// The `"name"`s `BENCHMARK.json` lists between the keys `from` and `to`.
fn names(spec: &str, from: &str, to: &str) -> BTreeSet<String> {
    let start = spec.find(from).expect("section start");
    let end = start + spec[start..].find(to).expect("section end");
    spec[start..end]
        .split("{\"name\": ")
        .skip(1)
        .map(|s| string(s).expect("a quoted name").0)
        .collect()
}

/// Every record's keys, as `scripts/host_pairs.sh` writes them.
const KEYS: [&str; 18] = [
    "pr",
    "parent",
    "seed_base",
    "workload",
    "metric",
    "pairs",
    "won",
    "lost",
    "parent_median",
    "parent_q1",
    "parent_q3",
    "change_median",
    "change_q1",
    "change_q3",
    "parent_memcpy_mbps",
    "change_memcpy_mbps",
    "nproc",
    "source",
];

/// The keys whose values are strings; every other key holds a number or
/// null.
const TEXT_KEYS: [&str; 5] = ["pr", "parent", "workload", "metric", "source"];

#[test]
fn every_trajectory_record_names_a_declared_workload_and_metric() {
    let root = env!("CARGO_MANIFEST_DIR");
    let spec = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap();
    let workloads = names(&spec, "\"workloads\"", "\"end_to_end\"");
    let metrics = names(&spec, "\"end_to_end\"", "\"per_layer\"");
    assert_eq!((workloads.len(), metrics.len()), (5, 8), "{workloads:?} {metrics:?}");

    let text = std::fs::read_to_string(format!("{root}/results/host/BENCH_host.jsonl")).unwrap();
    for (i, line) in text.lines().enumerate() {
        let at = format!("BENCH_host.jsonl:{}", i + 1);
        let rec = parse_flat(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let keys: Vec<&str> = rec.keys().map(String::as_str).collect();
        let mut want = KEYS.to_vec();
        want.sort_unstable();
        assert_eq!(keys, want, "{at}: keys");
        let text_of = |k: &str| match &rec[k] {
            Value::Str(s) => s.clone(),
            v => panic!("{at}: {k} is {v:?}, not a string"),
        };
        let num_of = |k: &str| match rec[k] {
            Value::Num(v) => Some(v),
            Value::Null => None,
            ref v => panic!("{at}: {k} is {v:?}, not a number"),
        };
        assert!(workloads.contains(&text_of("workload")), "{at}: workload {}", text_of("workload"));
        assert!(metrics.contains(&text_of("metric")), "{at}: metric {}", text_of("metric"));
        let source = text_of("source");
        assert!(["host_pairs", "transcribed"].contains(&source.as_str()), "{at}: {source}");
        assert!(!text_of("pr").is_empty() && !text_of("parent").is_empty(), "{at}");
        for k in KEYS.iter().filter(|k| !TEXT_KEYS.contains(k)) {
            num_of(k);
        }
        assert!(num_of("parent_median").is_some() && num_of("change_median").is_some(), "{at}");
        let pairs = num_of("pairs").expect("pairs counted");
        let decided = num_of("won").unwrap_or(0.0) + num_of("lost").unwrap_or(0.0);
        assert!(decided <= pairs, "{at}: {decided} pairs decided of {pairs}");
    }
}
