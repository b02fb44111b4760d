//! End-to-end observability test: one traced DRMS checkpoint/restart cycle
//! must exercise every pipeline counter, and the trace-derived breakdown
//! must equal the one the operations return.

use drms_apps::{sp, Class};
use drms_bench::experiment::{traced_cycle, TracedOp};
use drms_core::report::OpBreakdown;
use drms_obs::names;

const PES: usize = 4;

fn traced() -> [TracedOp; 2] {
    traced_cycle(&sp(Class::T), PES, 7).unwrap()
}

#[test]
fn trace_derived_breakdown_equals_reported() {
    for TracedOp { op, rec, report } in traced() {
        assert_eq!(OpBreakdown::from_trace(&rec.phase_summary(), rec.metrics()), report, "{op}");
        assert!(report.total() > 0.0, "{op}");
    }
}

#[test]
fn cycle_exercises_every_pipeline_counter() {
    let [TracedOp { rec: ck_rec, .. }, TracedOp { rec: rs_rec, .. }] = traced();

    // Counters bumped while checkpointing (streaming is the write path).
    let m = ck_rec.metrics();
    for name in [
        names::MESSAGES_SENT,
        names::MESSAGE_BYTES,
        names::REDISTRIBUTION_BYTES,
        names::PIECES_WRITTEN,
        names::BYTES_STREAMED,
        names::IO_PHASES,
        names::IO_REQUESTS,
        names::STRIPES_TOUCHED,
        names::SEGMENT_BYTES,
        names::ARRAY_BYTES,
    ] {
        assert!(m.counter_total(name) > 0, "checkpoint counter {name} not exercised");
    }
    // Every phase priced I/O work onto some server.
    assert!(
        m.gauges().iter().any(|((n, _), v)| *n == names::SERVER_BUSY && *v > 0.0),
        "no server busy time recorded"
    );

    // The restart side reads the streams back: no pieces are written, but
    // bytes still stream and the segment/array totals are recorded.
    let m = rs_rec.metrics();
    assert_eq!(m.counter_total(names::PIECES_WRITTEN), 0);
    for name in [names::BYTES_STREAMED, names::IO_PHASES, names::SEGMENT_BYTES, names::ARRAY_BYTES]
    {
        assert!(m.counter_total(name) > 0, "restart counter {name} not exercised");
    }
}

#[test]
fn exports_are_structurally_valid_and_cover_all_layers() {
    let [TracedOp { rec: ck_rec, .. }, _] = traced();
    let chrome = ck_rec.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("\"displayTimeUnit\":\"ms\"}\n"));
    // Spans from every instrumented layer appear in the trace.
    for cat in ["segment", "arrays", "manifest", "stream_wave", "io_phase"] {
        assert!(chrome.contains(&format!("\"cat\":\"{cat}\"")), "missing phase {cat}");
    }
    let jsonl = ck_rec.to_jsonl();
    assert!(jsonl.lines().count() > 10);
    assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
}
