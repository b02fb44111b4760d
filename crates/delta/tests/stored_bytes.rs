//! What a delta chain stores is a function of the arrays' streams alone:
//! the same two links written from 1, 3 or 4 tasks leave byte-identical
//! segments and packs, and manifests that differ only in the task count
//! they record. And `verify` names a lost pack once, however many chunks
//! point into it.

use std::sync::Arc;

use drms_core::manifest::{delta_path, ChunkSource, Manifest};
use drms_core::segment::DataSegment;
use drms_core::{verify, Drms, DrmsConfig, EnableFlag};
use drms_darray::{DistArray, Distribution};
use drms_delta::{delta_checkpoint, DeltaChain, DeltaConfig};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

const LINKS: [&str; 2] = ["ck/d1", "ck/d2"];

/// A one-dimensional `f64` array of `n` elements, cut in `chunk`-byte
/// chunks, whose second link rewrites elements `band`.
struct Geometry {
    n: i64,
    chunk: u64,
    band: (i64, i64),
}

/// One wave: a 32 KiB stream in 1 KiB chunks.
const ONE_WAVE: Geometry = Geometry { n: 4096, chunk: 1024, band: (1000, 1100) };

/// Two waves of 600 000 bytes each (one I/O task, 1 MB target pieces),
/// cut in 4 KiB chunks, which do not divide them: chunk 146 (bytes
/// 598 016..602 112) straddles the waves, and the band lies in it alone.
const TWO_WAVES: Geometry = Geometry { n: 150_000, chunk: 4096, band: (74_900, 75_100) };

/// The value at `p` in link `link`: a zero run the codec compresses, then
/// noise it stores raw; the second link adds 0.5 over `band`.
fn value(g: &Geometry, p: &[i64], link: usize) -> f64 {
    let i = p[0];
    let base = if i <= 1024 { 0.0 } else { (i * 2_654_435_761 % 1_000_003) as f64 / 7.0 };
    let bumped = link == 1 && (g.band.0..=g.band.1).contains(&i);
    base + if bumped { 0.5 } else { 0.0 }
}

/// Writes the two links of `g` from `ntasks` tasks into a fresh store.
fn write_chain(g: &Geometry, ntasks: usize) -> Arc<Piofs> {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 23);
    let dcfg = DeltaConfig { chunk_bytes: g.chunk, full_every: 8, compress: true };
    run_spmd(ntasks, CostModel::default(), |ctx| {
        let cfg = DrmsConfig::new("bytes");
        let (mut drms, _) = Drms::initialize(ctx, &fs, cfg, EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&Slice::boxed(&[(1, g.n)]), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut chain, mut seg) = (DeltaChain::new(), DataSegment::new());
        for (link, prefix) in LINKS.iter().enumerate() {
            u.fill_assigned(|p| value(g, p, link));
            seg.set_control("iter", link as i64);
            delta_checkpoint(&mut drms, &mut chain, &dcfg, ctx, &fs, prefix, &seg, &[&u]).unwrap();
        }
    })
    .unwrap();
    fs
}

/// Every file of the chain: its path and bytes, a manifest re-encoded
/// with the task count it records checked and set to 1.
fn stored(fs: &Piofs, ntasks: usize) -> Vec<(String, Vec<u8>)> {
    fs.list("ck/")
        .into_iter()
        .map(|f| {
            let bytes = fs.peek(&f.path).unwrap();
            if !f.path.ends_with("/manifest") {
                return (f.path, bytes);
            }
            let mut m = Manifest::decode(&bytes).unwrap();
            assert_eq!(m.ntasks, ntasks, "{}", f.path);
            m.ntasks = 1;
            (f.path, m.encode())
        })
        .collect()
}

#[test]
fn a_chain_stores_the_same_bytes_whatever_the_writers_task_count() {
    for g in [ONE_WAVE, TWO_WAVES] {
        let fs = write_chain(&g, 1);
        let serial = stored(&fs, 1);
        // The second link carries chunks forward by reference and stores
        // the band's chunk locally.
        let m = Manifest::decode(&fs.peek("ck/d2/manifest").unwrap()).unwrap();
        let chunks = &m.deltas[0].chunks;
        assert!(chunks.iter().any(|c| matches!(c.source, ChunkSource::Ref { .. })), "n {}", g.n);
        let band_chunk = (g.band.0 as u64 - 1) * 8 / g.chunk;
        assert_eq!(chunks[band_chunk as usize].source, ChunkSource::Local, "n {}", g.n);
        assert_eq!(serial.len(), 6, "a segment, a pack and a manifest per link: {serial:?}");
        for ntasks in [3, 4] {
            let parallel = stored(&write_chain(&g, ntasks), ntasks);
            assert_eq!(parallel, serial, "n {} written from {ntasks} tasks", g.n);
        }
    }
}

#[test]
fn verify_names_a_lost_pack_once() {
    let fs = write_chain(&ONE_WAVE, 2);
    assert!(verify(&fs, "ck/d2").is_valid());
    let lost = delta_path("ck/d1", "u");
    let m = Manifest::decode(&fs.peek("ck/d2/manifest").unwrap()).unwrap();
    let into_lost = m.deltas[0].chunks.iter().filter(|c| c.pack_path("ck/d2", "u") == lost);
    assert!(into_lost.count() > 1, "the second link points into {lost} more than once");
    assert!(fs.delete(&lost));
    let report = verify(&fs, "ck/d2");
    assert_eq!(report.missing, vec![lost]);
}
