//! Property tests for the asynchronous checkpoint pipeline, all driven
//! through the public API (checkpoint → drain → committed files):
//!
//! * COW isolation — whatever the application mutates after an SOP, the
//!   committed checkpoint holds the snapshot bytes, not the mutations;
//! * backpressure bound — the in-flight count never exceeds the budget,
//!   for any budget and any checkpoint cadence;
//! * drain totality — after `drain` every armed snapshot has committed:
//!   nothing stays in flight, every prefix is valid, nothing is lost.

use std::sync::{Arc, Mutex};

use drms_async::{AsyncCheckpointer, AsyncConfig};
use drms_core::manifest::array_path;
use drms_core::segment::DataSegment;
use drms_core::{find_checkpoints, verify, Drms, DrmsConfig, EnableFlag};
use drms_darray::{DistArray, Distribution};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};
use proptest::prelude::*;

const N: i64 = 512; // elements; 4096 stream bytes
const NTASKS: usize = 2;
const APP: &str = "aprop";

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(4), 5)
}

fn domain() -> Slice {
    Slice::boxed(&[(0, N - 1)])
}

/// The canonical stream of a state: elements little-endian in order.
fn stream_of(state: &[f64]) -> Vec<u8> {
    state.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// States on an integer lattice (the vendored proptest shim only
/// generates integer ranges).
fn state() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u8..4, N as usize..N as usize + 1)
        .prop_map(|raw| raw.into_iter().map(|v| v as f64 * 0.25).collect())
}

/// Runs `n` asynchronous checkpoints of successive states to prefixes
/// `ck/p0..` under `budget`, mutating the array between arming and the
/// next SOP, then drains. Returns rank 0's in-flight count observed
/// after each arm.
fn run_pipeline(f: &Arc<Piofs>, states: &[Vec<f64>], budget: usize) -> Vec<usize> {
    let observed = Mutex::new(Vec::new());
    run_spmd(NTASKS, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, f, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let mut ck = AsyncCheckpointer::new(AsyncConfig { budget });
        for (i, state) in states.iter().enumerate() {
            u.fill_assigned(|p| state[p[0] as usize]);
            ck.checkpoint(ctx, f, &mut drms, &format!("ck/p{i}"), &DataSegment::new(), &[&u], None)
                .unwrap();
            if ctx.rank() == 0 {
                observed.lock().unwrap().push(ck.inflight());
            }
            // Scribble over the live array while the flush is (logically)
            // still in flight: the snapshot must not see this.
            u.fill_assigned(|p| -1.0 - p[0] as f64);
            ctx.charge(1e-4);
        }
        ck.drain(ctx);
        assert_eq!(ck.inflight(), 0, "drain left flights armed");
        assert!(ck.free_at() <= ctx.now() + 1e-12, "drain stopped short of the flusher horizon");
    })
    .unwrap();
    observed.into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// COW isolation: the committed checkpoint holds the bytes of the
    /// state at the SOP, bitwise, no matter what the application wrote
    /// into the live array after arming.
    #[test]
    fn snapshot_is_isolated_from_later_mutations(
        states in proptest::collection::vec(state(), 1..4),
        budget in 1usize..4,
    ) {
        let f = fs();
        run_pipeline(&f, &states, budget);
        for (i, state) in states.iter().enumerate() {
            let prefix = format!("ck/p{i}");
            prop_assert!(verify(&f, &prefix).is_valid(), "checkpoint {} invalid", i);
            let got = f.peek(&array_path(&prefix, "u")).expect("array file committed");
            prop_assert_eq!(&got, &stream_of(state), "checkpoint {} holds mutated bytes", i);
        }
    }

    /// Backpressure bound: right after arming — the in-flight high-water
    /// mark — the pipeline never holds more than `budget` snapshots.
    #[test]
    fn inflight_never_exceeds_budget(
        states in proptest::collection::vec(state(), 1..6),
        budget in 1usize..4,
    ) {
        let f = fs();
        let observed = run_pipeline(&f, &states, budget);
        prop_assert_eq!(observed.len(), states.len());
        for (i, inflight) in observed.iter().enumerate() {
            prop_assert!(
                *inflight <= budget,
                "after arm {}: {} in flight under budget {}", i, inflight, budget
            );
        }
    }

    /// Drain totality: every armed snapshot commits — the filesystem ends
    /// with exactly one valid checkpoint per SOP and no strays.
    #[test]
    fn drain_commits_every_armed_snapshot(
        states in proptest::collection::vec(state(), 1..6),
        budget in 1usize..4,
    ) {
        let f = fs();
        run_pipeline(&f, &states, budget);
        let found = find_checkpoints(&f, Some(APP));
        prop_assert_eq!(found.len(), states.len(), "commits vs SOPs");
        for i in 0..states.len() {
            let prefix = format!("ck/p{i}");
            prop_assert!(
                found.iter().any(|(p, _)| *p == prefix),
                "snapshot {} never committed", i
            );
        }
    }
}
