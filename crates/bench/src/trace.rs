//! Observability trace of one checkpoint/restart cycle per mini-app.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- trace [--class T] [--pes 4] [--json DIR]
//! ```
//!
//! For each of BT, LU and SP: runs a fresh incarnation to the mid-point,
//! takes a DRMS checkpoint under a [`TraceRecorder`], then restarts a second
//! incarnation from it under another recorder ([`traced_cycle`]). Each
//! operation's trace is an artefact as Chrome `trace_event` JSON (load in
//! Perfetto or `chrome://tracing`) plus a JSONL event/counter log, and its
//! per-phase summary table is printed. The row asserts that
//! [`OpBreakdown::from_trace`] over the recorded spans equals the breakdown
//! the operation itself returned — the report and the trace are two views
//! of the same timestamps — and that every span the run opened closed on
//! the same `(rank, phase, name)`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use drms_apps::{bt, lu, sp, Class};
use drms_core::report::OpBreakdown;
use drms_obs::{names, EventKind, TraceRecorder};

use crate::args::Options;
use crate::experiment::traced_cycle;
use crate::gate::{Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The `trace` row of the gate table.
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    let opts = Options { class: Class::T, pes: vec![4], ..Options::default() }.parse(
        "trace",
        &["--class", "--pes"],
        &args.rest,
    );
    let (class, pes, seed) = (opts.class, opts.single_pes(), args.seed);
    let mut out = String::new();
    writeln!(
        out,
        "Tracing one DRMS checkpoint/restart cycle per app (class {class}, {pes} PEs, seed {seed})\n"
    )
    .unwrap();

    let mut result = BenchResult::new("trace");
    result.param("class", class);
    result.param("pes", pes);
    result.param("seed", seed);
    result.stamp_header(seed, pes);
    let mut traces = Vec::new();
    for spec in [bt(class), lu(class), sp(class)] {
        for t in traced_cycle(&spec, pes, seed).expect("traced cycle") {
            emit(&t.rec, t.report, spec.name, t.op, &mut out, &mut result);
            traces.push((format!("{}-{}.trace.json", spec.name, t.op), t.rec.to_chrome_trace()));
            traces.push((format!("{}-{}.events.jsonl", spec.name, t.op), t.rec.to_jsonl()));
        }
    }
    writeln!(out, "All trace-derived breakdowns matched the reported ones exactly.").unwrap();
    let mut output = GateOutput::table(result, out);
    output.artefacts.extend(traces);
    output
}

/// Checks the trace against the reported breakdown and its spans for
/// pairing, records the headline numbers and renders the phase summary.
fn emit(
    rec: &TraceRecorder,
    reported: OpBreakdown,
    app: &str,
    op: &str,
    out: &mut String,
    result: &mut BenchResult,
) {
    let summary = rec.phase_summary();
    let derived = OpBreakdown::from_trace(&summary, rec.metrics());
    assert_eq!(
        derived, reported,
        "{app} {op}: trace-derived breakdown diverges from the reported one"
    );
    let events = rec.events();
    let mut open = BTreeMap::new();
    for e in &events {
        let depth: &mut i64 = open.entry((e.rank, e.phase, e.name.as_str())).or_default();
        match e.kind {
            EventKind::Begin => *depth += 1,
            EventKind::End => *depth -= 1,
            EventKind::Instant => {}
        }
    }
    open.retain(|_, depth| *depth != 0);
    assert!(open.is_empty(), "{app} {op}: spans opened and closed unequally: {open:?}");
    result.metric(&format!("{app}.{op}.total_s"), reported.total());
    result.metric(&format!("{app}.{op}.total_mb"), reported.total_bytes() as f64 / 1e6);

    writeln!(out, "== {app} {op} ==").unwrap();
    writeln!(out, "{}", summary.render_table()).unwrap();
    writeln!(
        out,
        "total {:.3} s  |  {:.1} MB moved  |  {:.1} MB/s  |  segment {:.0}% / arrays {:.0}%",
        reported.total(),
        reported.total_bytes() as f64 / 1e6,
        reported.rate_mb_s(),
        reported.segment_pct(),
        reported.arrays_pct(),
    )
    .unwrap();
    let m = rec.metrics();
    writeln!(
        out,
        "events {}  |  messages {} ({:.1} MB)  |  pieces {}  |  io phases {}\n",
        events.len(),
        m.counter_total(names::MESSAGES_SENT),
        m.counter_total(names::MESSAGE_BYTES) as f64 / 1e6,
        m.counter_total(names::PIECES_WRITTEN),
        m.counter_total(names::IO_PHASES),
    )
    .unwrap();
}
