//! Causal trace analysis of one checkpoint/restart cycle per mini-app,
//! plus the bench-baseline regression gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- insight [--class S] [--pes 4] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! For each of BT, LU and SP: traces a mid-point checkpoint and a restart
//! under a fresh [`TraceRecorder`] each, then runs `drms-insight` over the
//! finished session — critical path with per-segment bottleneck
//! attribution, stream-wave straggler table, per-PIOFS-server
//! utilization, and the causal edge counts. The scenario *asserts*, for
//! every traced operation, that the critical path tiles the operation
//! window (per-phase attribution sums to the wall time) and that the
//! server report identifies a slowest server whenever I/O happened.
//!
//! With `--json DIR` the headline numbers land in `BENCH_insight.json`;
//! with `--baseline PATH` they are compared against a committed baseline
//! within `--tolerance` (relative), failing the process on regression;
//! `--bless` rewrites the baseline from the current run.

use std::sync::Arc;

use drms_apps::{bt, lu, sp, AppSpec, AppVariant, Class, MiniApp};
use drms_core::{Drms, EnableFlag};
use drms_insight::Analysis;
use drms_msg::{run_spmd_traced, CostModel};
use drms_obs::{Recorder, TraceRecorder};

use crate::experiment::experiment_fs;
use crate::gate::{usage, Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The row's own flags: `--class X` (default S) and `--pes N` (default 4).
fn parse_flags(rest: &[String]) -> (Class, usize) {
    let (mut class, mut pes) = (Class::S, 4);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--class" => {
                let v = value("--class");
                class = Class::parse(v).unwrap_or_else(|| usage(&format!("unknown class {v:?}")));
            }
            "--pes" => {
                let v = value("--pes");
                pes = v
                    .parse()
                    .ok()
                    .filter(|p| (1..=16).contains(p))
                    .unwrap_or_else(|| usage(&format!("bad PE count {v:?}")));
            }
            other => usage(&format!("insight takes no flag {other:?}")),
        }
    }
    (class, pes)
}

/// Traces one checkpoint and one restart of `spec` (one fresh recorder
/// per operation, like `--bin trace`), returning both analyses.
fn trace_app(spec: &AppSpec, pes: usize, seed: u64) -> Vec<(&'static str, Analysis)> {
    let fs = experiment_fs(spec.class, seed);
    Drms::install_binary(&fs, &spec.drms_config());

    let rec = Arc::new(TraceRecorder::new());
    let spec_c = spec.clone();
    let fs_c = Arc::clone(&fs);
    run_spmd_traced(pes, CostModel::default(), Arc::clone(&rec) as Arc<dyn Recorder>, move |ctx| {
        let mut app =
            MiniApp::start(ctx, &fs_c, spec_c.clone(), AppVariant::Drms, EnableFlag::new(), None)
                .expect("fresh start");
        app.step(ctx);
        app.checkpoint(ctx, &fs_c, "ck/mid").expect("checkpoint")
    })
    .expect("checkpoint incarnation");
    let checkpoint = Analysis::from_recorder(&rec);

    fs.clear_residency();
    fs.reset_time();
    let rec = Arc::new(TraceRecorder::new());
    let spec_r = spec.clone();
    let fs_r = Arc::clone(&fs);
    run_spmd_traced(pes, CostModel::default(), Arc::clone(&rec) as Arc<dyn Recorder>, move |ctx| {
        let app = MiniApp::start(
            ctx,
            &fs_r,
            spec_r.clone(),
            AppVariant::Drms,
            EnableFlag::new(),
            Some("ck/mid"),
        )
        .expect("restart");
        app.restart_report.expect("restarted")
    })
    .expect("restart incarnation");
    let restart = Analysis::from_recorder(&rec);

    vec![("checkpoint", checkpoint), ("restart", restart)]
}

/// Asserts the analysis invariants the bin gates on, records the headline
/// metrics, and prints the report.
fn report(app: &str, op: &str, a: &Analysis, result: &mut BenchResult) {
    let wall = a.wall();
    let eps = 1e-9 * wall.max(1.0);

    // The critical path must tile the operation window: per-phase
    // attribution sums to the wall time, exactly up to rounding.
    let attributed: f64 = a.critical.by_phase().iter().map(|(_, t)| t).sum();
    assert!(
        (attributed - wall).abs() <= eps,
        "{app} {op}: attribution {attributed} != wall {wall}"
    );
    assert!(wall > 0.0, "{app} {op}: empty operation window");
    // Every traced operation does PIOFS I/O, so a slowest server exists.
    let slowest = a.servers.slowest();
    assert!(slowest.is_some(), "{app} {op}: no PIOFS server activity in trace");

    println!("== {app} {op} ==");
    println!("{}", a.render());

    let key = |m: &str| format!("{app}.{op}.{m}");
    result.metric(&key("wall_s"), wall);
    result.metric(&key("segments"), a.critical.segments.len() as f64);
    result.metric(&key("spans"), a.spans.len() as f64);
    result.metric(&key("msg_edges"), a.msg_edges.len() as f64);
    result.metric(&key("slowest_server"), slowest.unwrap() as f64);
    result.metric(&key("server_imbalance"), a.servers.imbalance());
    for (phase, secs) in a.critical.by_phase() {
        result.metric(&key(&format!("phase.{phase}_s")), secs);
    }
    let max_gap = a.stragglers.iter().map(|r| r.gap()).fold(0.0, f64::max);
    result.metric(&key("max_straggler_gap_s"), max_gap);
}

/// The `insight` row of the gate table.
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    let (class, pes) = parse_flags(&args.rest);
    let seed = args.seed;
    println!(
        "Causal trace analysis of one checkpoint/restart cycle per app \
         (class {class}, {pes} PEs, seed {seed})\n"
    );
    let mut result = BenchResult::new("insight");
    result.param("class", class);
    result.param("pes", pes);
    result.param("seed", seed);
    result.stamp_header(seed, pes);

    for spec in [bt(class), lu(class), sp(class)] {
        for (op, analysis) in trace_app(&spec, pes, seed) {
            report(spec.name, op, &analysis, &mut result);
        }
    }
    println!(
        "\nAll critical paths tile their operation windows; every operation \
         names its slowest PIOFS server."
    );
    GateOutput { result, artefacts: Vec::new() }
}
