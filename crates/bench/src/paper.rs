//! The paper's evaluation as rows of the gate table: Tables 1 and 3–6,
//! Figure 7, the Section 6 shadow-region model, and ablations of the two
//! design knobs the paper reasons about.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- table5 [--class A] [--runs 5] [--pes 8,16]
//! ```
//!
//! Each row renders its table as the artefact `<name>.txt` — the file
//! committed under `results/` — and its headline numbers as
//! `BENCH_<name>.json`; the timed row `table5` renders Tables 5 and 6 and
//! Figure 7 from one grid of runs ([`TIMED_TABLES`]). A row's defaults are
//! the flags behind the committed output: class A for Tables 3–6 and
//! Figure 7, 5 runs of each timed cell, class W for the ablations. Run `r`
//! of a timed cell is seeded with the fault seed plus `r` times 7919.

use std::fmt::Write as _;

use drms_apps::{bt, lu, sp, AppSpec, AppVariant, Class};
use drms_core::report::OpBreakdown;
use drms_darray::{shadow, stream, DistArray, Distribution};
use drms_msg::{run_spmd, CostModel, Ctx};
use drms_piofs::Piofs;
use drms_slices::{Order, Slice};

use crate::args::Options;
use crate::experiment::{experiment_fs, run_pair, run_state_size, Experiment, PairResult};
use crate::gate::{no_gate_flags, table_file, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;
use crate::stats::Summary;
use crate::table::{mb, render};

/// The three NPB mini-applications at `class`.
fn apps(class: Class) -> [AppSpec; 3] {
    [bt(class), lu(class), sp(class)]
}

/// The mini-application sources Table 1 counts.
const SOURCES: &[(&str, &str)] = &[
    ("app.rs", include_str!("../../apps/src/app.rs")),
    ("spec.rs", include_str!("../../apps/src/spec.rs")),
    ("solver.rs", include_str!("../../apps/src/solver.rs")),
    ("classes.rs", include_str!("../../apps/src/classes.rs")),
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

/// Table 1's two counts of one source: its code lines (non-blank,
/// non-comment, before the `#[cfg(test)]` module: code, not tests) and
/// how many of those mention a DRMS marker.
fn line_counts(src: &str) -> (usize, usize) {
    let code: Vec<&str> = src
        .lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .collect();
    let drms = code.iter().filter(|l| DRMS_MARKERS.iter().any(|m| l.contains(m))).count();
    (code.len(), drms)
}

/// Table 1: source-code cost of adopting the DRMS programming model. The
/// paper reports ~1% added lines (about 100 per ~10,000-line NPB code).
/// The equivalent measure here: of the mini-application sources, how many
/// lines mention the DRMS checkpoint/restart API (the code a user adds to a
/// plain message-passing solver to make it reconfigurable), versus the
/// total.
pub fn table1(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    no_gate_flags("table1", &args.rest);
    let mut out = String::new();
    writeln!(out, "Table 1 — source lines added to adopt the DRMS programming model\n").unwrap();
    let header = vec!["file", "code lines", "DRMS-API lines", "share"];
    let mut rows = Vec::new();
    let mut total = 0usize;
    let mut drms = 0usize;
    let mut result = BenchResult::new("table1");
    result.stamp_header(args.seed, 0);
    for (name, src) in SOURCES {
        let (t, d) = line_counts(src);
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
    writeln!(out, "{}", render(&header, &rows)).unwrap();
    writeln!(
        out,
        "\nPaper (Fortran NPB): BT 107/10,973 = 1.0%; LU 85/9,641 = 0.9%;\n\
         SP 99/9,561 = 1.0%. The mini-apps are far smaller than the NPB codes, so\n\
         the share is higher, but the absolute count of DRMS-specific lines is the\n\
         comparable quantity: adopting the model costs tens of lines, not a rewrite."
    )
    .unwrap();
    GateOutput::table(result, out)
}

/// Table 3 paper values at class A, SI MB: (drms data, drms array, drms
/// total, spmd@4, spmd@8, spmd@16).
const TABLE3_PAPER: &[(&str, [f64; 6])] = &[
    ("bt", [63.0, 84.0, 147.0, 251.0, 502.0, 1004.0]),
    ("lu", [85.0, 34.0, 119.0, 340.0, 679.0, 1358.0]),
    ("sp", [53.0, 48.0, 101.0, 210.0, 420.0, 840.0]),
];

/// Table 3: size of saved state for DRMS and non-reconfigurable SPMD
/// applications. DRMS state (one data segment + the
/// distribution-independent arrays) is independent of the task count; SPMD
/// state (one segment per task) grows linearly.
pub fn table3(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    let class = Options::default().parse("table3", &["--class"], &args.rest).class;
    let mut out = String::new();
    writeln!(out, "Table 3 — size of saved state (SI MB); paper values are class A").unwrap();
    writeln!(out, "class {class}\n").unwrap();
    let mut result = BenchResult::new("table3");
    result.param("class", class);
    result.stamp_header(args.seed, 16);

    let header = vec![
        "app",
        "DRMS data",
        "DRMS array",
        "DRMS total",
        "SPMD 4PE",
        "SPMD 8PE",
        "SPMD 16PE",
        "", // spacer
        "paper: D-total",
        "S-4",
        "S-8",
        "S-16",
    ];
    let mut rows = Vec::new();
    for spec in apps(class) {
        // DRMS state size is task-count independent; measure at 8 PEs and
        // assert the invariant across counts.
        let d8 = run_state_size(&spec, AppVariant::Drms, 8).expect("drms@8");
        let d16 = run_state_size(&spec, AppVariant::Drms, 16).expect("drms@16");
        let drift = (d8.total as f64 - d16.total as f64).abs() / d8.total as f64;
        assert!(drift < 0.001, "DRMS state must not depend on task count");

        let mut spmd = Vec::new();
        for pes in [4usize, 8, 16] {
            spmd.push(run_state_size(&spec, AppVariant::Spmd, pes).expect("spmd"));
        }

        result.metric(&format!("{}.drms_data_mb", spec.name), mb(d8.segment_component));
        result.metric(&format!("{}.drms_array_mb", spec.name), mb(d8.array_component));
        result.metric(&format!("{}.drms_total_mb", spec.name), mb(d8.total));
        for (pes, s) in [4usize, 8, 16].into_iter().zip(&spmd) {
            result.metric(&format!("{}.spmd_{pes}pe_mb", spec.name), mb(s.total));
        }

        let paper = TABLE3_PAPER.iter().find(|(n, _)| *n == spec.name).unwrap().1;
        let scale = class.memory_scale();
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.0}", mb(d8.segment_component)),
            format!("{:.0}", mb(d8.array_component)),
            format!("{:.0}", mb(d8.total)),
            format!("{:.0}", mb(spmd[0].total)),
            format!("{:.0}", mb(spmd[1].total)),
            format!("{:.0}", mb(spmd[2].total)),
            "|".into(),
            format!("{:.0}", paper[2] * scale),
            format!("{:.0}", paper[3] * scale),
            format!("{:.0}", paper[4] * scale),
            format!("{:.0}", paper[5] * scale),
        ]);
        eprintln!("... {} done", spec.name);
    }
    writeln!(out, "{}", render(&header, &rows)).unwrap();
    writeln!(
        out,
        "Invariants verified: DRMS total identical at 8 and 16 tasks; SPMD grows\n\
         linearly (each task saves its full compile-time-fixed segment)."
    )
    .unwrap();
    GateOutput::table(result, out)
}

/// Table 4 paper values at class A (bytes): total, local sections, system,
/// private/replicated.
const TABLE4_PAPER: &[(&str, [u64; 4])] = &[
    ("bt", [65_982_468, 25_635_456, 34_972_228, 5_374_784]),
    ("lu", [89_169_924, 10_061_824, 34_972_228, 44_134_872]),
    ("sp", [55_242_756, 14_648_832, 34_972_228, 5_621_696]),
];

/// Table 4: components of the data segment of a representative task.
pub fn table4(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    let class = Options::default().parse("table4", &["--class"], &args.rest).class;
    let mut out = String::new();
    writeln!(out, "Table 4 — components of a representative task's data segment (bytes)").unwrap();
    writeln!(out, "class {class} | paper values are class A\n").unwrap();
    let mut result = BenchResult::new("table4");
    result.param("class", class);
    result.stamp_header(args.seed, 4);

    let header = vec!["app", "component", "measured", "paper (class A)", "delta"];
    let mut rows = Vec::new();
    for spec in apps(class) {
        // The paper's applications compile for a minimum of 4 tasks; the
        // representative segment is measured on that minimum.
        let exp = Experiment::new(&spec, AppVariant::Drms, args.seed, false);
        let a = exp.anatomy(4).expect("segment anatomy");

        let paper = TABLE4_PAPER.iter().find(|(n, _)| *n == spec.name).unwrap().1;
        let scale = class.memory_scale();
        let scaled = |v: u64| (v as f64 * scale).round() as u64;
        let delta = |m: u64, p: u64| -> String {
            if p == 0 {
                return "-".into();
            }
            format!("{:+.1}%", 100.0 * (m as f64 - p as f64) / p as f64)
        };
        assert!(
            a.total >= a.local_sections + a.system + a.private_replicated,
            "{}: anatomy components must not exceed the total",
            spec.name
        );
        for (key, v) in [
            ("total_bytes", a.total),
            ("local_sections_bytes", a.local_sections),
            ("system_bytes", a.system),
            ("private_replicated_bytes", a.private_replicated),
        ] {
            result.metric(&format!("{}.{key}", spec.name), v as f64);
        }
        for (label, measured, paper_v) in [
            ("total data", a.total, scaled(paper[0])),
            ("local sections", a.local_sections, scaled(paper[1])),
            ("system related", a.system, scaled(paper[2])),
            ("private/replicated", a.private_replicated, scaled(paper[3])),
        ] {
            rows.push(vec![
                spec.name.to_string(),
                label.to_string(),
                measured.to_string(),
                paper_v.to_string(),
                delta(measured, paper_v),
            ]);
        }
    }
    writeln!(out, "{}", render(&header, &rows)).unwrap();
    writeln!(
        out,
        "Anatomy notes (matching the paper's discussion): local sections are ~1/4 of\n\
         the arrays plus shadow storage; the ~33 MB system region is message-passing\n\
         buffers and is identical across applications; LU's private/replicated region\n\
         dwarfs BT's and SP's because LU declares its work arrays private."
    )
    .unwrap();
    GateOutput::table(result, out)
}

/// The tables the timed row renders, in order: Tables 5 and 6 and
/// Figure 7 are three views of one grid of runs, so one row writes all
/// three (`<name>.txt` each).
pub const TIMED_TABLES: [&str; 3] = ["table5", "table6", "fig7"];

/// One (app, PEs) cell of the timed grid: `runs` seeded checkpoint/restart
/// pairs of the DRMS variant and as many of the SPMD variant.
struct GridCell {
    app: &'static str,
    pes: usize,
    /// `[drms, spmd]`, run `r` at the fault seed plus `r` times 7919.
    runs: [Vec<PairResult>; 2],
}

impl GridCell {
    /// Mean ± sd of `f` over the restart (else checkpoint) breakdowns of
    /// variant `vi`'s runs (0 DRMS, 1 SPMD).
    fn stat(&self, vi: usize, restart: bool, f: fn(&OpBreakdown) -> f64) -> Summary {
        let ops = self.runs[vi].iter().map(|p| if restart { &p.restart } else { &p.ckpt });
        Summary::of(&ops.map(f).collect::<Vec<_>>())
    }
}

/// Runs the timed grid: every app of `opts.class` on every PE count, DRMS
/// and SPMD, `opts.runs` seeded runs each.
fn run_grid(opts: &Options, seed: u64) -> Vec<GridCell> {
    let mut grid = Vec::new();
    for spec in &apps(opts.class) {
        for &pes in &opts.pes {
            let runs = [AppVariant::Drms, AppVariant::Spmd].map(|variant| {
                (0..opts.runs as u64)
                    .map(|run| {
                        run_pair(spec, variant, pes, seed + run * 7919, 1).expect("experiment")
                    })
                    .collect()
            });
            eprintln!("... {} @ {} PEs done", spec.name, pes);
            grid.push(GridCell { app: spec.name, pes, runs });
        }
    }
    grid
}

/// A Table 5 paper cell: (mean, sd) seconds, or `None` where the source
/// text of the table is garbled (the SPMD columns of the SP row).
type Cell = Option<(f64, f64)>;

struct PaperRow {
    app: &'static str,
    ckpt: [[Cell; 2]; 2],    // [pes 8|16][drms|spmd]
    restart: [[Cell; 2]; 2], // [pes 8|16][drms|spmd]
}

/// Table 5 paper values (class A).
const TABLE5_PAPER: &[PaperRow] = &[
    PaperRow {
        app: "bt",
        ckpt: [[Some((16.0, 2.0)), Some((41.0, 16.0))], [Some((20.0, 2.0)), Some((114.0, 16.0))]],
        restart: [[Some((42.0, 3.0)), Some((21.0, 1.0))], [Some((32.0, 5.0)), Some((109.0, 10.0))]],
    },
    PaperRow {
        app: "lu",
        ckpt: [[Some((19.0, 2.0)), Some((128.0, 18.0))], [Some((18.0, 4.0)), Some((185.0, 10.0))]],
        restart: [
            [Some((46.0, 20.0)), Some((125.0, 20.0))],
            [Some((31.0, 3.0)), Some((145.0, 27.0))],
        ],
    },
    PaperRow {
        app: "sp",
        ckpt: [[Some((13.0, 3.0)), None], [Some((16.0, 2.0)), None]],
        restart: [[Some((35.0, 2.0)), None], [Some((27.0, 2.0)), None]],
    },
];

fn paper_cell(app: &str, restart: bool, pes: usize, vi: usize) -> String {
    let Some(row) = TABLE5_PAPER.iter().find(|r| r.app == app) else { return "-".into() };
    let pi = if pes == 8 {
        0
    } else if pes == 16 {
        1
    } else {
        return "-".into();
    };
    let table = if restart { &row.restart } else { &row.ckpt };
    match table[pi][vi] {
        Some((m, s)) => format!("{m:.0} ± {s:.0}"),
        None => "(garbled)".into(),
    }
}

/// The two operations of a grid cell, as (name, is restart).
const OPS: [(&str, bool); 2] = [("checkpoint", false), ("restart", true)];

/// The timed row: one grid of seeded checkpoint/restart runs rendered as
/// Table 5 (time to checkpoint and restart DRMS and SPMD applications, mean
/// ± sd), Table 6 (the DRMS runs' phase breakdown) and Figure 7 (Table 6 as
/// stacked bars), the three [`TIMED_TABLES`].
pub fn table5(args: &GateArgs, gate: &mut Gate) -> GateOutput {
    let takes = ["--class", "--runs", "--pes"];
    let opts = Options::default().parse("table5", &takes, &args.rest);
    let mut result = BenchResult::new("table5");
    result.param("class", opts.class);
    result.param("runs", opts.runs);
    result.param("pes", opts.pes.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(","));
    result.stamp_header(args.seed, opts.pes.iter().copied().max().unwrap_or(0));

    let grid = run_grid(&opts, args.seed);
    let texts = [
        render_table5(&opts, &grid, &mut result),
        render_table6(&opts, &grid, &mut result, gate),
        render_fig7(&opts, &grid, &mut result),
    ];
    let mut artefacts = Vec::new();
    for (name, text) in TIMED_TABLES.into_iter().zip(texts) {
        print!("{text}");
        artefacts.push((table_file(name), text));
    }
    GateOutput { result, artefacts }
}

/// Table 5: time to checkpoint and restart DRMS and non-reconfigurable
/// SPMD applications (mean ± sd over the grid's runs), on 8 and 16
/// processors.
fn render_table5(opts: &Options, grid: &[GridCell], result: &mut BenchResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 5 — checkpoint and restart times (simulated seconds, mean ± sd of {} runs)",
        opts.runs
    )
    .unwrap();
    writeln!(
        out,
        "class {} | 16-node PIOFS | checkpoint at mid-point | paper values are class A\n",
        opts.class
    )
    .unwrap();

    let scale = opts.class.memory_scale();
    if (scale - 1.0).abs() > 1e-9 {
        writeln!(
            out,
            "note: class {} scales all sizes by {:.4}; compare SHAPE with paper, \
             not absolute seconds\n",
            opts.class, scale
        )
        .unwrap();
    }

    let header = vec![
        "app",
        "PEs",
        "op",
        "DRMS (measured)",
        "DRMS (paper)",
        "SPMD (measured)",
        "SPMD (paper)",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for cell in grid {
        let (app, pes) = (cell.app, cell.pes);
        for (op, restart) in OPS {
            let measured = [0, 1].map(|vi| cell.stat(vi, restart, OpBreakdown::total));
            for (variant, m) in ["drms", "spmd"].into_iter().zip(&measured) {
                result.metric(&format!("{app}.p{pes}.{variant}.{op}_s"), m.mean);
            }
            rows.push(vec![
                app.to_string(),
                pes.to_string(),
                op.to_string(),
                measured[0].pm(),
                paper_cell(app, restart, pes, 0),
                measured[1].pm(),
                paper_cell(app, restart, pes, 1),
            ]);
        }
    }
    writeln!(out, "{}", render(&header, &rows)).unwrap();
    writeln!(
        out,
        "Shapes to check against the paper: DRMS checkpoint always beats SPMD and the\n\
         gap widens with PEs; DRMS restart *improves* with PEs (client-limited reads);\n\
         SPMD restart beats DRMS below the buffer threshold (BT, SP at 8 PEs) and\n\
         collapses above it (BT at 16; LU already at 8)."
    )
    .unwrap();
    out
}

/// Table 6 paper values at class A:
/// (app, pes, ckpt(total s, rate, seg%, seg rate, arr%, arr rate),
///  restart(total s, rate, seg%, seg rate, arr%, arr rate)).
const TABLE6_PAPER: &[(&str, usize, [f64; 6], [f64; 6])] = &[
    ("bt", 8, [16.0, 9.2, 32.0, 12.4, 68.0, 7.7], [41.6, 14.1, 42.0, 29.0, 49.0, 4.1]),
    ("bt", 16, [19.5, 7.5, 38.0, 8.4, 62.0, 7.0], [31.7, 34.4, 57.0, 55.4, 32.0, 8.4]),
    ("lu", 8, [19.0, 6.3, 68.0, 6.6, 32.0, 5.5], [46.4, 15.4, 69.0, 21.3, 23.0, 3.1]),
    ("lu", 16, [18.2, 6.5, 56.0, 8.4, 44.0, 4.2], [30.7, 45.4, 71.0, 62.6, 15.0, 7.2]),
    ("sp", 8, [13.3, 7.6, 40.0, 10.0, 60.0, 6.0], [34.5, 13.6, 47.0, 26.0, 42.0, 3.3]),
    ("sp", 16, [16.3, 6.2, 39.0, 8.3, 61.0, 4.9], [26.5, 33.6, 57.0, 55.9, 29.0, 6.2]),
];

/// Table 6's six columns of one operation: total time and rate, then the
/// data-segment and distributed-array phases as percentages of the total
/// with their own rates.
const SIX: [fn(&OpBreakdown) -> f64; 6] = [
    OpBreakdown::total,
    OpBreakdown::rate_mb_s,
    OpBreakdown::segment_pct,
    OpBreakdown::segment_rate_mb_s,
    OpBreakdown::arrays_pct,
    OpBreakdown::array_rate_mb_s,
];

/// Table 6: components of the grid's DRMS checkpoint and restart
/// operations, each column the mean over the runs. Table 6 breaks down the
/// runs Table 5 reports, so `gate` checks that every total is the Table 5
/// DRMS mean already on `result`, to the bit.
fn render_table6(
    opts: &Options,
    grid: &[GridCell],
    result: &mut BenchResult,
    gate: &mut Gate,
) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 6 — components of DRMS checkpoint and restart (mean of {} runs)",
        opts.runs
    )
    .unwrap();
    writeln!(out, "class {} | paper values are class A\n", opts.class).unwrap();

    let header =
        vec!["app", "PEs", "op", "", "total(s)", "rate", "seg %", "seg rate", "arr %", "arr rate"];
    let mut rows = Vec::new();
    for cell in grid {
        let (app, pes) = (cell.app, cell.pes);
        let paper = TABLE6_PAPER.iter().find(|(n, p, _, _)| *n == app && *p == pes);
        for (op, restart) in OPS {
            let measured = SIX.map(|f| cell.stat(0, restart, f).mean);
            let t5 = result.metric_value(&format!("{app}.p{pes}.drms.{op}_s"));
            gate.check(
                t5.map(f64::to_bits) == Some(measured[0].to_bits()),
                format!(
                    "{app} @ {pes} PEs {op}: Table 6 total {} is not Table 5's {t5:?}",
                    measured[0]
                ),
            );
            for (i, m) in [(0, "total_s"), (1, "rate_mb_s"), (2, "seg_pct"), (4, "arr_pct")] {
                result.metric(&format!("table6.{app}.p{pes}.{op}.{m}"), measured[i]);
            }
            // Percentages to whole numbers, times and rates to tenths.
            let fmt =
                |v: [f64; 6]| (0..6).map(move |i| format!("{:.*}", [1, 1, 0, 1, 0, 1][i], v[i]));
            let mut row =
                vec![app.to_string(), pes.to_string(), op.to_string(), "measured".to_string()];
            row.extend(fmt(measured));
            rows.push(row);
            if let Some(p) = paper.map(|p| if restart { p.3 } else { p.2 }) {
                let mut row =
                    vec![String::new(), String::new(), String::new(), "paper".to_string()];
                row.extend(fmt(p));
                rows.push(row);
            }
        }
    }
    writeln!(out, "{}", render(&header, &rows)).unwrap();
    writeln!(
        out,
        "Rates are SI MB/s. Restart rows omit the initialization component from the\n\
         percentages, like the paper (they add to ~85-90% of the total). Shapes:\n\
         segment-read rates RISE with PEs (client-limited shared file), write rates\n\
         FALL (server-limited with co-location interference)."
    )
    .unwrap();
    out
}

/// Figure 7: Table 6's components as stacked bars — checkpoint ('C') and
/// restart ('R') per application, grouped by partition size, with
/// data-segment / distributed-array / other (restart init) components.
/// Renders both a CSV series (for plotting) and an ASCII rendering.
fn render_fig7(opts: &Options, grid: &[GridCell], result: &mut BenchResult) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 7 — components of DRMS checkpoint (C) and restart (R) times").unwrap();
    writeln!(out, "class {} | mean of {} runs\n", opts.class, opts.runs).unwrap();

    // One bar per (partition, app, op): its label and mean components.
    let mut bars = Vec::new();
    for &pes in &opts.pes {
        for cell in grid.iter().filter(|c| c.pes == pes) {
            for (op, restart) in OPS {
                let part = |f: fn(&OpBreakdown) -> f64| cell.stat(0, restart, f).mean;
                let label = format!("{}-{}", cell.app, &op[..1]).to_uppercase();
                bars.push((
                    pes,
                    label,
                    [part(|b| b.segment), part(|b| b.arrays), part(|b| b.init)],
                ));
            }
        }
    }

    // CSV series for external plotting.
    writeln!(out, "partition,bar,segment_s,arrays_s,other_s,total_s").unwrap();
    for (pes, label, [s, a, o]) in &bars {
        for (m, v) in [("segment_s", s), ("arrays_s", a), ("other_s", o)] {
            result.metric(&format!("fig7.{}.p{pes}.{m}", label.to_lowercase()), *v);
        }
        writeln!(out, "{pes},{label},{s:.2},{a:.2},{o:.2},{:.2}", s + a + o).unwrap();
    }
    writeln!(out).unwrap();

    // ASCII stacked bars, one row per bar, '#'=segment '='=arrays '.'=other.
    let max_total = bars.iter().map(|(_, _, [s, a, o])| s + a + o).fold(0.0f64, f64::max);
    let scale = |v: f64| ((v / max_total) * 60.0).round() as usize;
    for &pes in &opts.pes {
        writeln!(out, "-- {pes} processors --").unwrap();
        for (_, label, [s, a, o]) in bars.iter().filter(|b| b.0 == pes) {
            let bar = [("#", s), ("=", a), (".", o)].map(|(c, v)| c.repeat(scale(*v))).concat();
            writeln!(out, "{label:>5} |{bar}| {:.1}s", s + a + o).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out, "legend: # data segment   = distributed arrays   . other (restart init)")
        .unwrap();
    writeln!(
        out,
        "The paper's visual: restart bars shrink markedly from 8 to 16 processors\n\
         (client-limited reads), while checkpoint bars grow slightly (server\n\
         interference)."
    )
    .unwrap();
    out
}

/// Section 6 of the paper: the shadow-region accounting model. Local-view
/// (task-based) checkpoints must save the shadow-padded sections; the DRMS
/// global view saves exactly the grid. The ratio r = (n + 2γ)^d / n^d grows
/// with the task count at fixed problem size.
pub fn shadow_model(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    no_gate_flags("shadow_model", &args.rest);
    let mut out = String::new();
    writeln!(out, "Section 6 — ratio of grid points saved: local view / global view\n").unwrap();
    let mut result = BenchResult::new("shadow_model");
    result.stamp_header(args.seed, 0);

    // The paper's CFD setting: n = 32, gamma = 2, d = 3.
    let r = shadow::shadow_ratio(32.0, 2.0, 3);
    writeln!(out, "paper example: n = 32, gamma = 2, d = 3  ->  r = {r:.3}").unwrap();
    writeln!(out, "(the paper quotes \"1.38 times more data\"; the formula gives 1.424)\n")
        .unwrap();
    assert!(r > 1.0, "local view must over-save");
    result.metric("paper_example_r", r);

    // BT class C on 125 processors: ~500 MB of extra saved state.
    let extra = shadow::extra_bytes(162.0, 125, 2.0, 3, 40.0, 8.0);
    result.metric("bt_classc_extra_mb", extra / 1e6);
    writeln!(
        out,
        "BT class C (162^3 grid, 8 five-component fields) on 125 processors:\n\
         local view saves {:.0} MB more than the DRMS global view (paper: ~500 MB)\n",
        extra / 1e6
    )
    .unwrap();

    // Analytic sweep: r vs P at fixed N = 64 (class A), gamma = 2, d = 3.
    let header = vec!["P", "n = N/P^(1/3)", "analytic r", "measured r (block dist)"];
    let mut rows = Vec::new();
    for p in [1usize, 8, 27, 64, 125, 216, 512] {
        let n_global = 64.0f64;
        let n = n_global / (p as f64).cbrt();
        let analytic = shadow::shadow_ratio_for_tasks(n_global, p, 2.0, 3);
        // Measured on a real distribution when the processor grid is exact.
        let side = (p as f64).cbrt().round() as usize;
        let measured = if side * side * side == p && 64 % side == 0 {
            let dom = Slice::boxed(&[(1, 64), (1, 64), (1, 64)]);
            let dist = Distribution::block(&dom, &[side, side, side], &[2, 2, 2])
                .expect("cubic decomposition");
            format!("{:.3}", shadow::measured_ratio(&dist))
        } else {
            "-".to_string()
        };
        result.metric(&format!("p{p}.analytic_r"), analytic);
        rows.push(vec![p.to_string(), format!("{n:.1}"), format!("{analytic:.3}"), measured]);
    }
    writeln!(out, "{}", render(&header, &rows)).unwrap();
    writeln!(
        out,
        "\nr increases with P at constant N: the more tasks, the more a task-based\n\
         checkpoint over-saves. (Measured values fall below the analytic bound\n\
         because real blocks clip their shadows at the domain boundary.)"
    )
    .unwrap();
    GateOutput::table(result, out)
}

/// Virtual seconds for `pes` tasks to stream `spec`'s first field out
/// through `write`, on a fresh file system seeded `seed` (residency set,
/// field filled, timed between two barriers; the slowest task's time).
fn stream_time(
    spec: &AppSpec,
    pes: usize,
    seed: u64,
    write: impl Fn(&mut Ctx, &DistArray<f64>, &Piofs) + Sync,
) -> f64 {
    let fs = experiment_fs(spec.class, seed);
    let times = run_spmd(pes, CostModel::default(), |ctx| {
        fs.set_residency(ctx.node(), spec.expected_segment_bytes());
        let dist = spec.dist(&spec.fields[0], ctx.ntasks());
        let mut a = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        a.fill_assigned(|p| p[1] as f64);
        ctx.barrier();
        let t0 = ctx.now();
        write(ctx, &a, &fs);
        ctx.barrier();
        ctx.now() - t0
    })
    .unwrap();
    let t = times.iter().cloned().fold(0.0, f64::max);
    assert!(t > 0.0, "a zero-time write");
    t
}

/// Ablations of the design choices DESIGN.md calls out, streaming one BT
/// field out of 16 tasks:
///
/// 1. **I/O parallelism** (the paper's `P` in `parstream`, Figure 5b):
///    sweep the number of I/O tasks from 1 (serial streaming) to all 16.
///    Serial streaming needs no seek support but leaves the file system's
///    parallelism unused; too many writers of small pieces pay more
///    per-piece server overhead than they gain.
/// 2. **Piece size** (the paper: "we choose m so that each piece requires
///    approximately 1 MB of storage"): smaller pieces add per-piece
///    overhead; larger pieces reduce I/O parallelism and raise buffer
///    pressure.
pub fn ablation(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    let class = Options { class: Class::W, ..Options::default() }
        .parse("ablation", &["--class"], &args.rest)
        .class;
    let mut out = String::new();
    let mut result = BenchResult::new("ablation");
    result.param("class", class);
    let spec = bt(class);
    let field = &spec.fields[0];
    let pes = 16usize;
    result.stamp_header(args.seed, pes);
    writeln!(
        out,
        "Ablations on streaming one BT field ({:.1} MB) out of {} tasks, class {}\n",
        spec.domain(field.components).size() as f64 * 8.0 / 1e6,
        pes,
        class
    )
    .unwrap();

    // ---- 1: I/O-task sweep -------------------------------------------
    let ios = [1usize, 2, 4, 8, 16];
    let io_times: Vec<f64> = ios
        .iter()
        .map(|&io| {
            stream_time(&spec, pes, args.seed, |ctx, a, fs| {
                stream::write_array(ctx, fs, a, "abl", io).unwrap()
            })
        })
        .collect();
    let serial_time = io_times[0];
    let best = io_times[1..].iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(best < serial_time, "the best parallel I/O count must beat serial streaming");
    assert!(io_times[4] > best, "16 writers must lose to the best I/O count");
    let mut rows = Vec::new();
    for (&io, &t) in ios.iter().zip(&io_times) {
        result.metric(&format!("io{io}.write_s"), t);
        rows.push(vec![
            io.to_string(),
            format!("{t:.2}"),
            format!("{:.2}x", serial_time / t),
            if io == 1 { "serial streaming (no seek needed)".into() } else { String::new() },
        ]);
    }
    writeln!(out, "{}", render(&["I/O tasks", "write (s)", "speedup", "note"], &rows)).unwrap();

    // ---- 2: piece-size sweep -------------------------------------------
    writeln!(out).unwrap();
    let scale = class.memory_scale();
    let pieces_mb = [0.125f64, 0.5, 1.0, 4.0, 16.0];
    let piece_times: Vec<f64> = pieces_mb
        .iter()
        .map(|&target_mb| {
            let target = ((target_mb * 1e6 * scale) as usize).max(1024);
            stream_time(&spec, pes, args.seed, |ctx, a, fs| {
                stream::write_array_with(ctx, fs, a, "abl", ctx.ntasks(), target).unwrap()
            })
        })
        .collect();
    assert!(
        piece_times[1..].iter().all(|&t| t < piece_times[0]),
        "the smallest pieces must be the slowest to write"
    );
    let mut rows = Vec::new();
    for (&target_mb, &t) in pieces_mb.iter().zip(&piece_times) {
        result.metric(&format!("piece{target_mb}mb.write_s"), t);
        rows.push(vec![format!("{target_mb} (scaled)"), format!("{t:.2}")]);
    }
    writeln!(out, "{}", render(&["target piece (MB)", "write (s)"], &rows)).unwrap();
    writeln!(
        out,
        "\nChecked shape: some parallel I/O count beats serial streaming, and 16\n\
         writers of small pieces lose to it again (per-piece server overheads);\n\
         the smallest pieces are the slowest. The paper's ~1 MB choice sits on\n\
         the flat bottom."
    )
    .unwrap();
    GateOutput::table(result, out)
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::gate::{table_file, TABLE};

    /// Table 1 counts the sources as they are, so a change to the
    /// mini-apps that moves it must come with a regenerated
    /// `results/table1.txt`; the shadow model is pure arithmetic. Both
    /// rows take milliseconds, so tier 1 holds their committed artefacts
    /// to byte equality.
    #[test]
    fn the_fast_rows_regenerate_their_committed_tables() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for name in ["table1", "shadow_model"] {
            let row = TABLE.iter().find(|r| r.name == name).expect("a row");
            let args = GateArgs { seed: row.default_seed, rest: Vec::new() };
            let out = (row.scenario)(&args, &mut Gate::new(name, "cargo test"));
            let file = table_file(name);
            let committed = std::fs::read_to_string(results.join(&file)).expect("committed table");
            assert_eq!(out.artefacts, [(file, committed)], "{name}: regenerate results/");
        }
    }
}
