//! Memory-tier restart experiment: what diskless checkpointing buys on the
//! restart path.
//!
//! ```text
//! cargo run --release -p drms-bench --bin gate -- memtier [--class W] [--pes 4] [--fault-seed 42]
//! ```
//!
//! For each of BT, LU and SP, takes one mid-point checkpoint through the
//! in-memory replicated tier (replication factor 1) with a verified spill
//! to the paper's 16-server PIOFS, then restarts the application three ways
//! at each measured task count (half the checkpoint region and the full
//! region):
//!
//! * **memory** — served out of resident replicated pieces
//!   ([`Source::Tier`]): no checkpoint I/O, bytes move at memory-copy /
//!   interconnect speed;
//! * **clean** — the ordinary PIOFS restart from the spilled files (which
//!   are bitwise-identical to a direct checkpoint);
//! * **degraded** — the PIOFS restart after a parity-protected server is
//!   killed, reading lost stripes through XOR reconstruction.
//!
//! The row *asserts* that the memory-tier restart is strictly faster than
//! both PIOFS restarts for every app and task count, and that every
//! measurement is deterministic per seed.

use std::fmt::Write as _;
use std::sync::Arc;

use drms_apps::{bt, lu, sp, AppSpec, AppVariant, Class};
use drms_memtier::MemTier;
use drms_obs::{names, TraceRecorder};

use crate::args::Options;
use crate::experiment::{Experiment, Source};
use crate::gate::{Gate, GateArgs, GateOutput};
use crate::json::BenchResult;

/// The PIOFS server the degraded file system loses.
const KILLED: usize = 3;

/// One measured restart comparison at a task count.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    ntasks: usize,
    mem_s: f64,
    clean_s: f64,
    degraded_s: f64,
    tier_bytes: u64,
}

/// The full measurement for one application: checkpoint-cycle times plus
/// one [`Row`] per restart task count. Rebuilt from scratch (fresh seeded
/// file systems, fresh tiers) each call, so two calls must agree
/// bit-for-bit.
fn measure(spec: &AppSpec, pes: usize, seed: u64, counts: &[usize]) -> (f64, f64, Vec<Row>) {
    // Clean cycle: plain striping, tier + verified spill.
    let clean = Experiment::new(spec, AppVariant::Drms, seed, false);
    let tier = MemTier::new(1);
    let (store_s, spill_s) = clean.checkpoint_tier(pes, None, &tier).expect("tier checkpoint");
    // Degraded cycle: parity striping, then a server dies; the spill must
    // still verify end-to-end through parity.
    let degraded = Experiment::new(spec, AppVariant::Drms, seed, true);
    degraded.checkpoint_tier(pes, None, &MemTier::new(1)).expect("tier checkpoint");
    let report = degraded.kill_server(KILLED);
    assert!(report.is_valid(), "{}: spill lost with server {KILLED}: {report:?}", spec.name);

    let rows = counts
        .iter()
        .map(|&n| {
            let rec = Arc::new(TraceRecorder::new());
            let mem = clean.restart(n, Some(&rec), Source::Tier(&tier)).expect("memory restart");
            let clean_s = clean.restart(n, None, Source::Piofs).expect("piofs restart");
            let degraded_s = degraded.restart(n, None, Source::Piofs).expect("piofs restart");
            Row {
                ntasks: n,
                mem_s: mem.total(),
                clean_s: clean_s.total(),
                degraded_s: degraded_s.total(),
                tier_bytes: rec.metrics().counter_total(names::MEMTIER_RESTORE_BYTES),
            }
        })
        .collect();
    (store_s, spill_s, rows)
}

/// The `memtier` row of the gate table.
pub fn scenario(args: &GateArgs, _gate: &mut Gate) -> GateOutput {
    let opts = Options { class: Class::W, pes: vec![4], ..Options::default() }.parse(
        "memtier",
        &["--class", "--pes"],
        &args.rest,
    );
    let (class, pes, seed) = (opts.class, opts.single_pes(), args.seed);
    let mut out = String::new();
    writeln!(
        out,
        "Memory-tier restart latency (class {class}, checkpoint on {pes} PEs, seed {seed}, r=1, server {KILLED} killed for degraded restart)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<4} {:>5} {:>8} {:>9}  {:>8} {:>9} {:>11}  {:>8} {:>9}",
        "app",
        "tasks",
        "store(s)",
        "spill(s)",
        "mem(s)",
        "clean(s)",
        "degraded(s)",
        "speedup",
        "tier MB"
    )
    .unwrap();

    let mut result = BenchResult::new("memtier");
    result.param("class", class);
    result.param("pes", pes);
    result.param("seed", seed);
    result.stamp_header(seed, pes);

    let mut counts = vec![(pes / 2).max(1), pes];
    counts.dedup();
    for spec in [bt(class), lu(class), sp(class)] {
        let (store_s, spill_s, rows) = measure(&spec, pes, seed, &counts);
        result.metric(&format!("{}.store_s", spec.name), store_s);
        result.metric(&format!("{}.spill_s", spec.name), spill_s);

        // Determinism check: the same seed must reproduce every virtual
        // time bit-for-bit from a fresh cycle.
        let repeat = measure(&spec, pes, seed, &counts);
        assert_eq!(
            (store_s, spill_s, rows.clone()),
            repeat,
            "{}: measurement not deterministic per seed",
            spec.name
        );

        for row in &rows {
            let Row { ntasks, mem_s, clean_s, degraded_s, tier_bytes } = *row;
            assert!(tier_bytes > 0, "{}: memory restart moved no tier bytes", spec.name);
            let key = |m: &str| format!("{}.t{ntasks}.{m}", spec.name);
            result.metric(&key("mem_s"), mem_s);
            result.metric(&key("clean_s"), clean_s);
            result.metric(&key("degraded_s"), degraded_s);
            result.metric(&key("tier_mb"), tier_bytes as f64 / 1e6);

            // The diskless tier must beat the durable path in virtual
            // time, strictly, at every measured task count.
            assert!(
                mem_s < clean_s,
                "{} on {ntasks} tasks: memory restart {mem_s:.4}s not strictly faster than clean PIOFS {clean_s:.4}s",
                spec.name
            );
            assert!(
                mem_s < degraded_s,
                "{} on {ntasks} tasks: memory restart {mem_s:.4}s not strictly faster than degraded PIOFS {degraded_s:.4}s",
                spec.name
            );

            writeln!(
                out,
                "{:<4} {:>5} {:>8.3} {:>9.3}  {:>8.4} {:>9.3} {:>11.3}  {:>7.1}x {:>9.2}",
                spec.name,
                ntasks,
                store_s,
                spill_s,
                mem_s,
                clean_s,
                degraded_s,
                clean_s / mem_s,
                tier_bytes as f64 / 1e6,
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "\nAll memory-tier restarts strictly faster than clean and degraded PIOFS restarts; all measurements deterministic."
    )
    .unwrap();
    GateOutput::table(result, out)
}
