//! Property tests for the incremental checkpoint path, all driven through
//! the full public API (checkpoint → manifest → materialize/sweep), not
//! unit internals:
//!
//! * whatever the stream contents, a chain of delta checkpoints always
//!   materializes each state bitwise (dedup/compression are lossless);
//! * a single-element mutation dirties exactly one chunk;
//! * garbage collection never touches a chunk reachable from a surviving
//!   manifest, and reclaims everything unreachable.

use std::sync::{Arc, Mutex};

use drms_core::manifest::{delta_path, manifest_path};
use drms_core::segment::DataSegment;
use drms_core::{find_checkpoints, sweep_orphans, verify, Drms, DrmsConfig, EnableFlag};
use drms_darray::{DistArray, Distribution};
use drms_delta::{delta_checkpoint, materialize_stream, DeltaChain, DeltaConfig, DeltaReport};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};
use proptest::prelude::*;

const N: i64 = 1024; // elements; 8192 stream bytes = 8 chunks of 1024
const CHUNK: u64 = 1024;

fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(4), 5)
}

fn dcfg() -> DeltaConfig {
    DeltaConfig { chunk_bytes: CHUNK, full_every: 64, compress: true }
}

fn domain() -> Slice {
    Slice::boxed(&[(0, N - 1)])
}

/// Writes a chain of delta checkpoints, one per state in `states` (each a
/// full array image), to prefixes `ck/p0..`, on one task. Returns rank 0's
/// reports.
fn write_chain(f: &Arc<Piofs>, states: &[Vec<f64>]) -> Vec<DeltaReport> {
    let reports = Mutex::new(Vec::new());
    run_spmd(1, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, f, DrmsConfig::new("prop"), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&domain(), 1, 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let mut chain = DeltaChain::new();
        for (i, state) in states.iter().enumerate() {
            u.fill_assigned(|p| state[p[0] as usize]);
            let r = delta_checkpoint(
                &mut drms,
                &mut chain,
                &dcfg(),
                ctx,
                f,
                &format!("ck/p{i}"),
                &DataSegment::new(),
                &[&u],
            )
            .unwrap();
            reports.lock().unwrap().push(r);
        }
    })
    .unwrap();
    reports.into_inner().unwrap()
}

/// The canonical stream of a state: elements little-endian in order.
fn stream_of(state: &[f64]) -> Vec<u8> {
    state.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// A state drawn on an integer lattice (the vendored proptest shim only
/// generates integer ranges); few distinct values make cross-chunk dedup
/// and compression actually fire.
fn states() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..4, N as usize..N as usize + 1), 1..4)
        .prop_map(|raw| {
            raw.into_iter().map(|s| s.into_iter().map(|v| v as f64 * 0.25).collect()).collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dedup and compression are lossless: every link of any chain
    /// materializes its recorded state bitwise.
    #[test]
    fn every_link_materializes_bitwise(states in states()) {
        let f = fs();
        write_chain(&f, &states);
        let found = find_checkpoints(&f, Some("prop"));
        prop_assert_eq!(found.len(), states.len());
        for (i, state) in states.iter().enumerate() {
            let prefix = format!("ck/p{i}");
            let (_, m) = found.iter().find(|(p, _)| *p == prefix).expect("committed");
            let got = materialize_stream(&f, &prefix, m, "u").unwrap();
            prop_assert_eq!(&got, &stream_of(state), "link {} diverged", i);
            prop_assert!(verify(&f, &prefix).is_valid(), "link {} invalid", i);
        }
    }

    /// Mutating a single element between checkpoints dirties exactly the
    /// chunk holding it — every other chunk is carried forward by
    /// reference, and the delta stores at most that one chunk.
    #[test]
    fn single_element_mutation_dirties_exactly_one_chunk(k in 0i64..N) {
        let f = fs();
        // Distinct per-chunk contents so the mutated chunk cannot dedup.
        let base: Vec<f64> = (0..N).map(|i| i as f64 * 1.5 + 1.0).collect();
        let mut mutated = base.clone();
        mutated[k as usize] += 0.125;
        let reports = write_chain(&f, &[base, mutated]);
        let r = &reports[1];
        prop_assert!(!r.full);
        prop_assert_eq!(r.dirty_chunks, 1, "one mutation, {} dirty chunks", r.dirty_chunks);
        let nchunks = (N as u64 * 8).div_ceil(CHUNK);
        prop_assert_eq!(r.clean_chunks, nchunks - 1);
        prop_assert_eq!(r.dedup_hits, 0);
        prop_assert!(r.pack_bytes <= CHUNK, "delta stored {} bytes", r.pack_bytes);
    }

    /// Mark-and-sweep over the chunk graph: after uncommitting an arbitrary
    /// subset of the chain's links, the sweep reclaims only files no
    /// surviving manifest reaches — every survivor still materializes
    /// bitwise, and nothing unreachable outlives the sweep.
    #[test]
    fn sweep_never_collects_reachable_chunks(
        states in states(),
        drop_mask in 0u8..8,
    ) {
        let f = fs();
        write_chain(&f, &states);
        // Uncommit the links selected by the mask (the newest link always
        // survives so at least one chain remains).
        let mut dropped = Vec::new();
        for i in 0..states.len().saturating_sub(1) {
            if drop_mask & (1 << i) != 0 {
                f.delete(&manifest_path(&format!("ck/p{i}")));
                dropped.push(i);
            }
        }
        sweep_orphans(&f);
        // Reachable: every surviving link is still valid and bitwise.
        let found = find_checkpoints(&f, Some("prop"));
        for (i, state) in states.iter().enumerate() {
            if dropped.contains(&i) { continue; }
            let prefix = format!("ck/p{i}");
            let (_, m) = found.iter().find(|(p, _)| *p == prefix).expect("survivor");
            prop_assert!(verify(&f, &prefix).is_valid(), "sweep broke link {}", i);
            prop_assert_eq!(
                materialize_stream(&f, &prefix, m, "u").unwrap(),
                stream_of(state),
                "sweep corrupted link {}", i
            );
        }
        // Unreachable: a dropped link's pack survives only if some
        // surviving manifest references into it.
        let referenced: std::collections::BTreeSet<String> =
            found.iter().flat_map(|(_, m)| m.referenced_packs()).collect();
        for i in dropped {
            let pack = delta_path(&format!("ck/p{i}"), "u");
            prop_assert_eq!(
                f.exists(&pack),
                referenced.contains(&pack),
                "pack {} vs reachability", i
            );
        }
    }
}
