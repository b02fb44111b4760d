//! Table 1: source-code cost of adopting the DRMS programming model.
//!
//! The paper reports ~1% added lines (about 100 per ~10,000-line NPB code).
//! The equivalent measure here: of the mini-application sources, how many
//! lines mention the DRMS checkpoint/restart API (the code a user adds to a
//! plain message-passing solver to make it reconfigurable), versus the total.
//!
//! ```text
//! cargo run --release -p drms-bench --bin table1 [--json DIR]
//! ```

use std::path::PathBuf;

use drms_bench::gate::run_gated;
use drms_bench::json::BenchResult;
use drms_bench::table::render;

const SOURCES: &[(&str, &str)] = &[
    ("app.rs", include_str!("../../../apps/src/app.rs")),
    ("spec.rs", include_str!("../../../apps/src/spec.rs")),
    ("solver.rs", include_str!("../../../apps/src/solver.rs")),
    ("classes.rs", include_str!("../../../apps/src/classes.rs")),
];

/// Identifiers that exist only because of DRMS adoption — the analog of the
/// `drms_*` calls added to the Fortran benchmarks in Figure 1.
const DRMS_MARKERS: &[&str] = &[
    "Drms::initialize",
    "reconfig_checkpoint",
    "reconfig_chkenable",
    "restore_arrays",
    "restart_report",
    "RestartInfo",
    "Start::Restarted",
    "Start::Fresh",
    "EnableFlag",
    "set_control",
    "install_binary",
    "decode_locals",
    "spmd::restart",
    "spmd::checkpoint",
];

fn code_lines(src: &str) -> usize {
    src.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with("//")).count()
}

fn drms_lines(src: &str) -> usize {
    let mut in_tests = false;
    src.lines()
        .filter(|l| {
            if l.contains("mod tests") {
                in_tests = true;
            }
            !in_tests
        })
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .filter(|l| DRMS_MARKERS.iter().any(|m| l.contains(m)))
        .count()
}

fn parse_args() -> Option<PathBuf> {
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => match it.next() {
                Some(dir) => json = Some(PathBuf::from(dir)),
                None => usage("--json needs a value"),
            },
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    json
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: table1 [--json DIR]");
    std::process::exit(2);
}

fn main() {
    let json = parse_args();
    run_gated("table1", "cargo run --release -p drms-bench --bin table1", || body(json.as_deref()));
}

fn body(json: Option<&std::path::Path>) {
    println!("Table 1 — source lines added to adopt the DRMS programming model\n");
    let header = vec!["file", "code lines", "DRMS-API lines", "share"];
    let mut rows = Vec::new();
    let mut total = 0usize;
    let mut drms = 0usize;
    let mut result = BenchResult::new("table1");
    result.stamp_header(drms_bench::seed::fault_seed_or(0), 0);
    for (name, src) in SOURCES {
        let t = code_lines(src);
        let d = drms_lines(src);
        total += t;
        drms += d;
        rows.push(vec![
            name.to_string(),
            t.to_string(),
            d.to_string(),
            format!("{:.1}%", 100.0 * d as f64 / t as f64),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        total.to_string(),
        drms.to_string(),
        format!("{:.1}%", 100.0 * drms as f64 / total as f64),
    ]);
    assert!(drms > 0 && drms * 4 < total, "DRMS-API share must stay a small fraction");
    result.metric("total_code_lines", total as f64);
    result.metric("drms_api_lines", drms as f64);
    result.metric("drms_share_pct", 100.0 * drms as f64 / total as f64);
    println!("{}", render(&header, &rows));
    if let Some(dir) = json {
        let path = result.write_to(dir).expect("write BENCH_table1.json");
        println!("wrote {}", path.display());
    }
    println!(
        "\nPaper (Fortran NPB): BT 107/10,973 = 1.0%; LU 85/9,641 = 0.9%;\n\
         SP 99/9,561 = 1.0%. The mini-apps are far smaller than the NPB codes, so\n\
         the share is higher, but the absolute count of DRMS-specific lines is the\n\
         comparable quantity: adopting the model costs tens of lines, not a rewrite."
    );
}
