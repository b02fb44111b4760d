//! Resilience overhead experiment: what parity-redundant checkpointing
//! costs, and what degraded-mode restart costs.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- resilience [--class W] [--pes 4] [--fault-seed 42]
//! ```
//!
//! For each of BT, LU and SP, runs the mid-point checkpoint/restart protocol
//! three ways on the paper's 16-server PIOFS:
//!
//! * **clean** — plain striping, the baseline;
//! * **parity** — RAID-5-style rotating parity: the checkpoint pays the
//!   parity-write overhead;
//! * **degraded** — after the parity checkpoint, one PIOFS server is killed;
//!   the checkpoint still verifies end-to-end and the restart reads every
//!   lost stripe through XOR reconstruction.
//!
//! Every run is deterministic per seed (the row re-runs each degraded
//! cycle and fails if the virtual times diverge).

use std::fmt::Write as _;
use std::sync::Arc;

use drms_apps::{bt, lu, sp, AppSpec, AppVariant, Class};
use drms_obs::{names, TraceRecorder};

use crate::args::Options;
use crate::experiment::{Experiment, Source};
use crate::gate::{Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The PIOFS server the degraded cycle loses.
const KILLED: usize = 3;

/// One measured checkpoint/restart cycle.
struct Cycle {
    ckpt_s: f64,
    restart_s: f64,
    parity_bytes: u64,
    reconstructed_bytes: u64,
}

/// Runs the mid-point protocol on a fresh file system. When `degraded`,
/// server [`KILLED`] dies between the checkpoint and the restart, and the
/// checkpoint is re-verified before restarting from it.
fn run_cycle(spec: &AppSpec, pes: usize, seed: u64, parity: bool, degraded: bool) -> Cycle {
    let exp = Experiment::new(spec, AppVariant::Drms, seed, parity);
    let rec = Arc::new(TraceRecorder::new());
    let ckpt = exp.checkpoint(pes, Some(&rec), 1).expect("checkpoint incarnation");
    let parity_bytes = rec.metrics().counter_total(names::PARITY_BYTES);
    if degraded {
        // The checkpoint must still verify end-to-end through parity.
        let report = exp.kill_server(KILLED);
        assert!(report.is_valid(), "checkpoint lost with server {KILLED}: {report:?}");
    }
    let rec = Arc::new(TraceRecorder::new());
    let restart = exp.restart(pes, Some(&rec), Source::Piofs).expect("restart incarnation");
    Cycle {
        ckpt_s: ckpt.total(),
        restart_s: restart.total(),
        parity_bytes,
        reconstructed_bytes: rec.metrics().counter_total(names::RECONSTRUCTED_BYTES),
    }
}

fn pct(over: f64, base: f64) -> f64 {
    (over / base - 1.0) * 100.0
}

/// The `resilience` row of the gate table.
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    let opts = Options { class: Class::W, pes: vec![4], ..Options::default() }.parse(
        "resilience",
        &["--class", "--pes"],
        &args.rest,
    );
    let (class, pes, seed) = (opts.class, opts.single_pes(), args.seed);
    let mut out = String::new();
    writeln!(
        out,
        "Resilience overheads (class {class}, {pes} PEs, seed {seed}, server {KILLED} killed for degraded restart)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<4} {:>9} {:>10} {:>8}  {:>10} {:>11} {:>8}  {:>10} {:>13}",
        "app",
        "ckpt(s)",
        "parity(s)",
        "ovh",
        "restart(s)",
        "degraded(s)",
        "ovh",
        "parity MB",
        "reconstr. MB"
    )
    .unwrap();

    let mut result = BenchResult::new("resilience");
    result.param("class", class);
    result.param("pes", pes);
    result.param("seed", seed);
    result.stamp_header(seed, pes);

    for spec in [bt(class), lu(class), sp(class)] {
        let clean = run_cycle(&spec, pes, seed, false, false);
        let parity = run_cycle(&spec, pes, seed, true, false);
        let degraded = run_cycle(&spec, pes, seed, true, true);

        assert_eq!(clean.parity_bytes, 0);
        assert!(parity.parity_bytes > 0, "parity writes must be priced");
        assert_eq!(clean.reconstructed_bytes, 0);
        assert!(degraded.reconstructed_bytes > 0, "degraded restart must reconstruct");

        let key = |m: &str| format!("{}.{m}", spec.name);
        result.metric(&key("clean_ckpt_s"), clean.ckpt_s);
        result.metric(&key("parity_ckpt_s"), parity.ckpt_s);
        result.metric(&key("clean_restart_s"), clean.restart_s);
        result.metric(&key("degraded_restart_s"), degraded.restart_s);
        result.metric(&key("parity_mb"), parity.parity_bytes as f64 / 1e6);
        result.metric(&key("reconstructed_mb"), degraded.reconstructed_bytes as f64 / 1e6);

        // Determinism check: the same seed must reproduce the same degraded
        // virtual times bit-for-bit.
        let repeat = run_cycle(&spec, pes, seed, true, true);
        assert_eq!(
            (repeat.ckpt_s, repeat.restart_s),
            (degraded.ckpt_s, degraded.restart_s),
            "{}: degraded cycle not deterministic per seed",
            spec.name
        );

        writeln!(
            out,
            "{:<4} {:>9.3} {:>10.3} {:>7.1}%  {:>10.3} {:>11.3} {:>7.1}%  {:>10.2} {:>13.2}",
            spec.name,
            clean.ckpt_s,
            parity.ckpt_s,
            pct(parity.ckpt_s, clean.ckpt_s),
            clean.restart_s,
            degraded.restart_s,
            pct(degraded.restart_s, clean.restart_s),
            parity.parity_bytes as f64 / 1e6,
            degraded.reconstructed_bytes as f64 / 1e6,
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nAll degraded checkpoints verified end-to-end with a dead server; all cycles deterministic."
    )
    .unwrap();
    GateOutput::table(result, out)
}
