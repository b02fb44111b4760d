//! The gated benches: one front-end, one driver, one table.
//!
//! A gated bench is a row of [`TABLE`] — a name, a default fault seed and a
//! scenario function — run by the one `gate <name>|--all` binary
//! ([`main`]). The conventions every row
//! inherits (the `failure_campaign` convention): a failing gate exits with
//! a **non-zero status the runner can distinguish from a crash** (1, not
//! the panic runtime's 101), and it prints a **one-command repro line** so
//! the failure can be rerun without digging through CI definitions.
//!
//! * [`run_gated`] wraps a body: any assertion failure or panic inside it
//!   prints the repro line and exits 1.
//! * [`Gate`] collects soft check failures across a run and reports them
//!   all at the end, instead of stopping at the first.
//! * [`baseline_gate`] is the bench-baseline regression check: compare a
//!   [`BenchResult`] against a committed baseline file with a relative
//!   tolerance, with `--bless` rewriting the baseline; a comparison that
//!   passed then proves it would have noticed a regression
//!   ([`unnoticed_perturbations`]).
//!
//! With `--json DIR` a row's `BENCH_<name>.json` and its artefacts land in
//! `DIR` under fixed names (the ones CI uploads). The paper's tables are
//! rows too: each renders its table as the artefact `<name>.txt`
//! ([`table_file`]), the file committed under `results/`.

use std::path::{Path, PathBuf};

use crate::json::{compare, BenchResult};
use crate::seed::{bin_repro, fault_seed_or, FAULT_SEED_FLAG};

/// Runs `body`, turning any panic (failed `assert!`, `expect`, ...) into
/// a clean gate failure: the panic message has already been printed by
/// the panic hook; this adds the repro line and exits with status 1.
pub fn run_gated(label: &str, repro: &str, body: impl FnOnce() + std::panic::UnwindSafe) {
    if std::panic::catch_unwind(body).is_err() {
        eprintln!("\n{label}: FAILED (assertion above)");
        eprintln!("reproduce with: {repro}");
        std::process::exit(1);
    }
}

/// Collects check failures across a run; reports them together.
#[derive(Debug)]
pub struct Gate {
    label: String,
    repro: String,
    failures: Vec<String>,
}

impl Gate {
    /// A gate named `label`, reproducible with the one-liner `repro`.
    pub fn new(label: &str, repro: &str) -> Gate {
        Gate { label: label.to_owned(), repro: repro.to_owned(), failures: Vec::new() }
    }

    /// Records a failure unless `ok` holds.
    pub fn check(&mut self, ok: bool, msg: impl ToString) {
        if !ok {
            self.failures.push(msg.to_string());
        }
    }

    /// Records an unconditional failure.
    pub fn fail(&mut self, msg: impl ToString) {
        self.failures.push(msg.to_string());
    }

    /// Whether every check so far passed.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the verdict; on any failure prints every message plus the
    /// repro line and exits 1.
    pub fn finish(self) {
        if self.failures.is_empty() {
            println!("{}: PASS", self.label);
            return;
        }
        eprintln!("\n{}: FAILED ({} check(s))", self.label, self.failures.len());
        for f in &self.failures {
            eprintln!("  - {f}");
        }
        eprintln!("reproduce with: {}", self.repro);
        std::process::exit(1);
    }
}

/// The bench-baseline regression gate. Compares `result` against the
/// baseline file at `path` with relative tolerance `tol`:
///
/// * `bless` — (re)writes the baseline from `result` first;
/// * no baseline file — fails, telling the operator to `--bless`;
/// * otherwise — every baseline metric must exist in `result` within
///   `±tol` relative, parameters must match, and `result` must not have
///   grown metrics the baseline lacks;
/// * a comparison that passed must also notice every metric of the
///   baseline being perturbed ([`unnoticed_perturbations`]).
///
/// Failures all print, then the repro line, then exit 1.
pub fn baseline_gate(result: &BenchResult, path: &Path, tol: f64, bless: bool, repro: &str) {
    let label = format!("baseline gate [{}] (±{:.1}%)", path.display(), 100.0 * tol);
    if bless {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create baseline directory");
        }
        std::fs::write(path, result.to_json()).expect("write baseline");
        println!("{label}: blessed from current run");
    }
    let mut gate = Gate::new(&label, repro);
    match std::fs::read_to_string(path) {
        Err(e) => gate.fail(format!("no baseline at {} ({e}); rerun with --bless", path.display())),
        Ok(text) => match BenchResult::parse(&text) {
            Err(e) => gate.fail(format!("unparseable baseline: {e}; rerun with --bless")),
            Ok(baseline) => {
                for f in compare(result, &baseline, tol) {
                    gate.fail(f);
                }
                if gate.is_ok() {
                    for key in unnoticed_perturbations(result, &baseline, tol) {
                        gate.fail(format!("self-check: perturbing {key:?} went unnoticed"));
                    }
                }
            }
        },
    }
    gate.finish();
}

/// The gate's test of itself: bends each metric of `baseline` in turn, in
/// memory and alone, by nine times its magnitude (at least 9) — a relative
/// error of 0.9 or more whatever the value, zero included — and requires
/// [`compare`] to name that metric. Returns the keys whose perturbation
/// the comparison missed; empty means a regression of any single metric
/// past `tol` would have failed the gate.
pub fn unnoticed_perturbations(
    result: &BenchResult,
    baseline: &BenchResult,
    tol: f64,
) -> Vec<String> {
    let mut bent = baseline.clone();
    let mut missed = Vec::new();
    for (i, (key, value)) in baseline.metrics.iter().enumerate() {
        bent.metrics[i].1 = value + 9.0 * value.abs().max(1.0);
        let named = format!("metric {key:?}:");
        if !compare(result, &bent, tol).iter().any(|f| f.starts_with(&named)) {
            missed.push(key.clone());
        }
        bent.metrics[i].1 = *value;
    }
    missed
}

/// What the front-end hands a row's scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GateArgs {
    /// The fault seed: `--fault-seed`, else `FAULT_SEED`, else the row's
    /// default.
    pub seed: u64,
    /// Flags the front-end does not own, in order, for the row to parse
    /// (`--class`, `--pes`, ...).
    pub rest: Vec<String>,
}

/// What a scenario hands back.
pub struct GateOutput {
    /// The headline numbers (`BENCH_<name>.json`).
    pub result: BenchResult,
    /// The artefact files the scenario rendered, as (file name, contents),
    /// written beside the JSON result.
    pub artefacts: Vec<(String, String)>,
}

impl GateOutput {
    /// The output of a row whose artefact is its rendered table: prints
    /// `text` and hands it back as [`table_file`] of the result's bench.
    pub fn table(result: BenchResult, text: String) -> GateOutput {
        print!("{text}");
        let name = table_file(&result.bench);
        GateOutput { result, artefacts: vec![(name, text)] }
    }
}

/// The file name of a row's rendered table, `<name>.txt`.
pub fn table_file(name: &str) -> String {
    format!("{name}.txt")
}

/// One gated bench.
pub struct GateRow {
    /// Gate name: the command-line spelling and the `BENCH_<name>.json`
    /// stem.
    pub name: &'static str,
    /// Fault seed when neither flag nor environment sets one.
    pub default_seed: u64,
    /// Runs the bench. Hard invariants are assertions (a panic fails the
    /// gate); soft checks that should all be reported go on the [`Gate`].
    pub scenario: fn(&GateArgs, &mut Gate) -> GateOutput,
}

/// Every gated bench. Adding a gate is adding a row and its scenario.
pub const TABLE: &[GateRow] = &[
    GateRow { name: "insight", default_seed: 42, scenario: crate::insight::scenario },
    GateRow { name: "chaos", default_seed: 42, scenario: crate::chaos::scenario },
    GateRow { name: "pulse", default_seed: 42, scenario: crate::pulse::scenario },
    GateRow { name: "delta", default_seed: 11, scenario: crate::window::delta_scenario },
    GateRow { name: "async", default_seed: 11, scenario: crate::window::async_scenario },
    GateRow { name: "blackbox", default_seed: 42, scenario: crate::blackbox::scenario },
    GateRow { name: "recover", default_seed: 42, scenario: crate::recover::scenario },
    GateRow { name: "table1", default_seed: 0, scenario: crate::paper::table1 },
    GateRow { name: "table3", default_seed: 0, scenario: crate::paper::table3 },
    GateRow { name: "table4", default_seed: 0, scenario: crate::paper::table4 },
    GateRow { name: "table5", default_seed: 1000, scenario: crate::paper::table5 },
    GateRow { name: "shadow_model", default_seed: 0, scenario: crate::paper::shadow_model },
    GateRow { name: "ablation", default_seed: 1, scenario: crate::paper::ablation },
    GateRow { name: "resilience", default_seed: 42, scenario: crate::resilience::scenario },
    GateRow { name: "memtier", default_seed: 42, scenario: crate::memtier::scenario },
    GateRow { name: "trace", default_seed: 42, scenario: crate::trace::scenario },
];

/// Where `--all` finds each row's committed baseline.
const BASELINE_DIR: &str = "results/baselines";

/// The front-end's options.
#[derive(Debug, Default, PartialEq)]
struct Opts {
    /// The row to run (index into [`TABLE`]); `None` is `--all`, every row
    /// against its committed baseline.
    row: Option<usize>,
    seed: Option<u64>,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    bless: bool,
    rest: Vec<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Opts {
    let mut opts = Opts { tolerance: 0.05, ..Opts::default() };
    match it.next().as_deref() {
        Some("--all") => {}
        Some("--help" | "-h") | None => usage(""),
        Some(name) => {
            let row = TABLE.iter().position(|r| r.name == name);
            opts.row = Some(row.unwrap_or_else(|| usage(&format!("unknown gate {name:?}"))));
        }
    }
    while let Some(flag) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            FAULT_SEED_FLAG => {
                let v = value(FAULT_SEED_FLAG);
                opts.seed = Some(v.parse().unwrap_or_else(|_| usage(&format!("bad seed {v:?}"))));
            }
            "--json" => opts.json = Some(PathBuf::from(value("--json"))),
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline"))),
            "--tolerance" => {
                let v = value("--tolerance");
                opts.tolerance = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad tolerance {v:?}")));
            }
            "--bless" => opts.bless = true,
            "--help" | "-h" => usage(""),
            _ => opts.rest.push(flag),
        }
    }
    if opts.row.is_none() {
        if opts.baseline.is_some() {
            usage(&format!(
                "--all gates against {BASELINE_DIR}/BENCH_<name>.json; drop --baseline"
            ));
        }
        if opts.seed.is_some() {
            usage(&format!(
                "--all gates each row at the seed its baseline was blessed at; drop {FAULT_SEED_FLAG}"
            ));
        }
    } else if opts.bless && opts.baseline.is_none() {
        usage("--bless needs --baseline");
    }
    opts
}

/// Prints `err` (if any) and the front-end's usage, then exits 2. Rows
/// call it for a bad flag of their own.
pub fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    let names: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
    eprintln!(
        "usage: gate <name>|--all [--fault-seed N] [--json DIR] [--baseline PATH]\n\
         \x20           [--tolerance REL] [--bless] [gate flags]\n\
         gates: {}\n\
         --all runs every gate against {BASELINE_DIR}/BENCH_<name>.json at its\n\
         default seed and flags.\n\
         --json DIR receives BENCH_<name>.json and the gate's artefacts.\n\
         Gate flags (each defaults to its baseline's setting):\n\
         \x20 table3, table4, ablation, async: --class T|S|W|A\n\
         \x20 table5: --class, --runs N, --pes a,b,...\n\
         \x20 insight, resilience, memtier, trace: --class, --pes N\n\
         \x20 delta: --class, --chunk-bytes N, --full-every N\n\
         \x20 the rest take none.\n\
         Class A is the paper's setting (64^3 grids, full-size segments);\n\
         smaller classes scale every byte-denominated parameter together,\n\
         preserving the threshold crossings at a fraction of the wall time.",
        names.join(", ")
    );
    std::process::exit(2);
}

/// Rejects leftover flags on behalf of a row that takes none.
pub fn no_gate_flags(name: &str, rest: &[String]) {
    if let Some(flag) = rest.first() {
        usage(&format!("{name} takes no flag {flag:?}"));
    }
}

/// Peak resident set named by a `/proc/<pid>/status` text (`VmHWM`), in MB
/// of 10^6 bytes.
fn vm_hwm_mb(status: &str) -> Option<f64> {
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?;
    Some(kb.trim().parse::<f64>().ok()? * 1024.0 / 1e6)
}

/// Runs one row in this process: scenario, artefacts, soft checks,
/// baseline gate. A row that passes ends with its host cost on stderr,
/// `<row>: host <wall> s, peak RSS <MB> MB` — the wall and peak-RSS columns
/// of the row table in DESIGN.md §17, which `--all` prints for every row.
fn run_row(row: &GateRow, opts: &Opts) {
    let started = std::time::Instant::now();
    let args = GateArgs {
        seed: opts.seed.unwrap_or_else(|| fault_seed_or(row.default_seed)),
        rest: opts.rest.clone(),
    };
    let mut repro = bin_repro(row.name, args.seed);
    for flag in &args.rest {
        repro.push(' ');
        repro.push_str(flag);
    }
    run_gated(row.name, &repro, || {
        let mut gate = Gate::new(&format!("{} gate", row.name), &repro);
        let out = (row.scenario)(&args, &mut gate);
        if let Some(dir) = &opts.json {
            let path = out.result.write_to(dir).expect("write json result");
            println!("wrote {}", path.display());
            for (name, text) in &out.artefacts {
                let path = dir.join(name);
                std::fs::write(&path, text).expect("write artefact");
                println!("wrote {}", path.display());
            }
        }
        gate.finish();
        if let Some(path) = &opts.baseline {
            baseline_gate(&out.result, path, opts.tolerance, opts.bless, &repro);
        }
    });
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = vm_hwm_mb(&status).map_or("unknown".to_string(), |mb| format!("{mb:.0}"));
    eprintln!("{}: host {:.2} s, peak RSS {peak} MB", row.name, started.elapsed().as_secs_f64());
}

/// `--all`: every row, each in a process of its own against its committed
/// baseline, the flags forwarded as given. A gate may bound a host-time
/// ratio — the pulse row holds pulse's modelled cost under 2% of the median
/// wall time of its pulse-off runs — and such a denominator halves in a process
/// earlier rows have warmed up, so rows do not share one. Every row runs;
/// the exit status is 1 if any failed.
fn run_all(flags: &[String]) {
    let exe = std::env::current_exe().expect("path of the gate binary");
    let mut failed = Vec::new();
    for row in TABLE {
        let baseline = Path::new(BASELINE_DIR).join(format!("BENCH_{}.json", row.name));
        let status = std::process::Command::new(&exe)
            .arg(row.name)
            .args(flags)
            .arg("--baseline")
            .arg(baseline)
            .status()
            .expect("spawn the gate binary");
        if !status.success() {
            failed.push(row.name);
        }
    }
    if !failed.is_empty() {
        eprintln!("\ngate --all: FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
    println!("\ngate --all: all {} gates PASS", TABLE.len());
}

/// The `gate` binary.
pub fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(argv.iter().cloned());
    match opts.row {
        None => run_all(&argv[1..]),
        Some(row) => run_row(&TABLE[row], &opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_collects_failures() {
        let mut g = Gate::new("t", "cargo run");
        g.check(true, "fine");
        assert!(g.is_ok());
        g.check(false, "broken");
        g.fail("also broken");
        assert!(!g.is_ok());
        // finish() would exit(1); CI's `git diff --exit-code` on the
        // baselines and the self-check cover what a failing gate guards.
    }

    #[test]
    fn baseline_gate_blesses_and_passes() {
        let dir = std::env::temp_dir().join(format!("drms-gate-{}", std::process::id()));
        let path = dir.join("BENCH_t.json");
        let mut r = BenchResult::new("t");
        r.metric("x", 1.0);
        r.metric("zero", 0.0);
        baseline_gate(&r, &path, 0.05, true, "cargo run");
        // Within tolerance: passes (self-check included) without exiting.
        let mut near = r.clone();
        near.metric("x", 1.04);
        baseline_gate(&near, &path, 0.05, false, "cargo run");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every committed baseline, every metric key: the unperturbed file
    /// passes against itself, and bending any one key alone is noticed —
    /// at the CI tolerance and at a tolerance ten times as loose.
    #[test]
    fn every_key_of_every_committed_baseline_is_guarded() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(BASELINE_DIR);
        let mut seen = Vec::new();
        for row in TABLE {
            let path = dir.join(format!("BENCH_{}.json", row.name));
            let text = std::fs::read_to_string(&path).expect("committed baseline");
            let baseline = BenchResult::parse(&text).expect("baseline parses");
            assert_eq!(baseline.bench, row.name);
            assert!(!baseline.metrics.is_empty(), "{}: no metrics to guard", row.name);
            for tol in [0.05, 0.5] {
                assert_eq!(compare(&baseline, &baseline, tol), Vec::<String>::new());
                assert_eq!(
                    unnoticed_perturbations(&baseline, &baseline, tol),
                    Vec::<String>::new(),
                    "{} at ±{tol}",
                    row.name
                );
            }
            seen.push(path.file_name().unwrap().to_owned());
        }
        // No committed baseline without a row.
        for entry in std::fs::read_dir(&dir).expect("baseline directory") {
            let name = entry.unwrap().file_name();
            assert!(seen.contains(&name), "{name:?} has no row in the gate table");
        }
    }

    /// A comparison that cannot see a metric is what the self-check is
    /// for: a current result lacking the key is reported as *missing*, not
    /// as drifted, so the perturbation of that key goes unnoticed.
    #[test]
    fn the_self_check_reports_what_compare_cannot_see() {
        let mut baseline = BenchResult::new("t");
        baseline.metric("seen", 2.0);
        baseline.metric("unseen", 3.0);
        let mut current = BenchResult::new("t");
        current.metric("seen", 2.0);
        assert_eq!(unnoticed_perturbations(&current, &baseline, 0.05), vec!["unseen".to_string()]);
    }

    #[test]
    fn the_host_cost_line_reads_vm_hwm() {
        let status = "Name:\tgate\nVmPeak:\t  900 kB\nVmHWM:\t  1953125 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(2000.0));
        assert_eq!(vm_hwm_mb("Name:\tgate\n"), None);
        let own = std::fs::read_to_string("/proc/self/status").expect("a Linux host");
        assert!(vm_hwm_mb(&own).is_some_and(|mb| mb > 0.0), "{own}");
    }

    fn parse(v: &[&str]) -> Opts {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_front_end_keeps_its_flags_and_hands_the_rest_to_the_row() {
        let o = parse(&[
            "insight",
            "--class",
            "T",
            "--json",
            "out",
            "--pes",
            "2",
            "--fault-seed",
            "7",
            "--baseline",
            "b.json",
            "--tolerance",
            "0.1",
        ]);
        assert_eq!(o.row.map(|r| TABLE[r].name), Some("insight"));
        assert!(!o.bless);
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.json, Some(PathBuf::from("out")));
        assert_eq!(o.baseline, Some(PathBuf::from("b.json")));
        assert_eq!(o.tolerance, 0.1);
        assert_eq!(o.rest, ["--class", "T", "--pes", "2"]);

        let all = parse(&["--all", "--json", "out"]);
        assert!(all.row.is_none() && all.baseline.is_none());
        assert!(all.seed.is_none());
        assert_eq!(all.tolerance, 0.05);
    }

    /// Whether CI's upload list names `file` in the `--json` directory,
    /// literally or through one `*` wildcard.
    fn uploaded(ci: &str, file: &str) -> bool {
        ci.lines().filter_map(|l| l.trim().strip_prefix("target/bench-json/")).any(|pat| match pat
            .split_once('*')
        {
            Some((pre, post)) => {
                file.len() >= pre.len() + post.len()
                    && file.starts_with(pre)
                    && file.ends_with(post)
            }
            None => pat == file,
        })
    }

    #[test]
    fn the_table_names_each_gate_once_and_ci_uploads_every_artefact() {
        let names: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "insight",
                "chaos",
                "pulse",
                "delta",
                "async",
                "blackbox",
                "recover",
                "table1",
                "table3",
                "table4",
                "table5",
                "shadow_model",
                "ablation",
                "resilience",
                "memtier",
                "trace",
            ]
        );
        let ci = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows/ci.yml");
        let ci = std::fs::read_to_string(ci).expect("the CI workflow");
        let mut files: Vec<String> = [
            crate::pulse::HEARTBEAT_FILE,
            crate::window::TIMELINE_FILE,
            crate::blackbox::RECOVERY_FILE,
            crate::blackbox::STITCHED_FILE,
            crate::recover::TIMELINE_FILE,
        ]
        .map(String::from)
        .into();
        // Every row after the seven extension gates renders its table;
        // the timed row renders three.
        files.extend(names[7..].iter().flat_map(|name| rendered_tables(name)));
        files.extend(["trace.json", "events.jsonl"].map(|ext| format!("bt-checkpoint.{ext}")));
        for name in &names {
            files.push(format!("BENCH_{name}.json"));
        }
        for file in files {
            assert!(uploaded(&ci, &file), "CI does not upload {file}");
        }
    }

    /// The tables row `name` renders: the timed row's three, else its own.
    fn rendered_tables(name: &str) -> Vec<String> {
        if name == "table5" {
            crate::paper::TIMED_TABLES.map(table_file).into()
        } else {
            vec![table_file(name)]
        }
    }

    /// Every table committed under `results/` is the rendered artefact of
    /// exactly one row, so `gate --all` regenerates all of them and CI can
    /// compare each byte for byte.
    #[test]
    fn every_committed_table_is_the_artefact_of_one_row() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for entry in std::fs::read_dir(&dir).expect("results directory") {
            let name = entry.unwrap().file_name().into_string().expect("UTF-8 file name");
            if !name.ends_with(".txt") {
                continue;
            }
            let rows = TABLE.iter().filter(|r| rendered_tables(r.name).contains(&name)).count();
            assert_eq!(rows, 1, "results/{name} is the table of {rows} rows");
        }
    }
}
