//! Causal trace analysis of one checkpoint/restart cycle per mini-app,
//! plus the bench-baseline regression gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- insight [--class S] [--pes 4] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! For each of BT, LU and SP: traces a mid-point checkpoint and a restart
//! under a fresh recorder each ([`traced_cycle`]), then runs
//! `drms-insight` over the finished session — critical path with per-segment bottleneck
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

use drms_apps::{bt, lu, sp, Class};
use drms_insight::Analysis;

use crate::args::Options;
use crate::experiment::traced_cycle;
use crate::gate::{Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

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
    let opts = Options { class: Class::S, pes: vec![4], ..Options::default() }.parse(
        "insight",
        &["--class", "--pes"],
        &args.rest,
    );
    let (class, pes, seed) = (opts.class, opts.single_pes(), args.seed);
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
        for t in traced_cycle(&spec, pes, seed).expect("traced cycle") {
            report(spec.name, t.op, &Analysis::from_recorder(&t.rec), &mut result);
        }
    }
    println!(
        "\nAll critical paths tile their operation windows; every operation \
         names its slowest PIOFS server."
    );
    GateOutput { result, artefacts: Vec::new() }
}
