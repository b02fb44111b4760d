//! One verdict on a checkpoint: [`drms_core::verify`] calls a prefix a
//! restart source exactly when a restart from it reproduces the state saved
//! there bit for bit, and retention, the JSA's restart walk and the restart
//! itself agree with it — a delta link whose referenced history rotted
//! included.

use drms_core::manifest::{
    array_path, delta_path, manifest_path, segment_path, ChunkSource, Manifest,
};
use drms_core::segment::DataSegment;
use drms_core::{
    find_checkpoints, retain_checkpoints, verify, CoreError, Drms, DrmsConfig, EnableFlag, Start,
};
use drms_darray::{DistArray, Distribution};
use drms_delta::{delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms_msg::{run_spmd, CostModel, Ctx};
use drms_obs::NullRecorder;
use drms_piofs::{Piofs, PiofsConfig};
use drms_resil::{choose_restart, verify_checkpoint};
use drms_slices::{Order, Slice};
use proptest::prelude::*;

const APP: &str = "verdict";
const N: i64 = 2048; // elements: a 16 KiB stream, 16 chunks of 1 KiB
const BAND: i64 = 256; // elements per update band: 2 chunks

fn dcfg() -> DeltaConfig {
    DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true }
}

fn array(ctx: &Ctx) -> DistArray<f64> {
    let dist = Distribution::block_auto(&Slice::boxed(&[(1, N)]), ctx.ntasks(), 0)
        .expect("block distribution");
    DistArray::new("u", Order::ColumnMajor, dist, ctx.rank())
}

/// `u` at point `p` in the state saved at link `k`: the initial fill plus
/// 0.5 for every link up to `k` whose band covered `p`.
fn truth(p: &[i64], k: usize, bands: &[i64]) -> f64 {
    let hits = bands[..k].iter().filter(|&&b| (p[0] - 1) / BAND == b).count();
    (p[0] * 3 + 1) as f64 + 0.5 * hits as f64
}

fn link(k: usize) -> String {
    format!("ck/l{k}")
}

/// Saves links `0..=bands.len()` on `ntasks` tasks: link 0 holds the initial
/// fill, link `k` follows an update of band `bands[k - 1]`. Delta links form
/// one chain; full links are independent checkpoints.
fn write_links(fs: &Piofs, ntasks: usize, delta: bool, bands: &[i64]) {
    run_spmd(ntasks, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, fs, DrmsConfig::new(APP), EnableFlag::new(), None)
                .expect("fresh start");
        let mut u = array(ctx);
        let mut chain = DeltaChain::new();
        let mut seg = DataSegment::new();
        for k in 0..=bands.len() {
            u.fill_assigned(|p| truth(p, k, bands));
            seg.set_control("iter", k as i64);
            if delta {
                delta_checkpoint(&mut drms, &mut chain, &dcfg(), ctx, fs, &link(k), &seg, &[&u])
                    .expect("delta checkpoint");
            } else {
                drms.reconfig_checkpoint(ctx, fs, &link(k), &seg, &[&u]).expect("checkpoint");
            }
        }
    })
    .expect("writer region");
}

/// Restarts from link `k` on `ntasks` tasks: `Ok(true)` when every task
/// holds exactly the state saved there, bit for bit.
fn restart(
    fs: &Piofs,
    ntasks: usize,
    delta: bool,
    k: usize,
    bands: &[i64],
) -> Result<bool, String> {
    let at = link(k);
    let per_task = run_spmd(ntasks, CostModel::default(), |ctx| -> Result<bool, CoreError> {
        let cfg = DrmsConfig::new(APP);
        let (drms, start) = if delta {
            resume(ctx, fs, cfg, EnableFlag::new(), &at)?
        } else {
            Drms::initialize(ctx, fs, cfg, EnableFlag::new(), Some(&at))?
        };
        let Start::Restarted(info) = start else { unreachable!("restarted from a prefix") };
        let mut u = array(ctx);
        if delta {
            restore_arrays_delta(&drms, ctx, fs, &at, &info.manifest, &mut [&mut u])?;
        } else {
            drms.restore_arrays(ctx, fs, &at, &info.manifest, &mut [&mut u])?;
        }
        let same =
            u.fold_assigned(true, |same, p, v| same && v.to_bits() == truth(p, k, bands).to_bits());
        Ok(same && info.segment.control("iter") == Some(k as i64))
    })
    .map_err(|e| e.to_string())?;
    per_task
        .into_iter()
        .try_fold(true, |all, r| r.map(|same| all && same).map_err(|e| e.to_string()))
}

/// A delta link whose referenced history rotted is refused by the verifier,
/// by its telemetry-wrapping spelling and by the restart walk, and the link
/// the walk settles on is the one retention protected.
#[test]
fn a_rotted_reference_is_refused_by_every_verdict() {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 29);
    let bands = [1, 2];
    write_links(&fs, 4, true, &bands);

    // Flip one byte of a chunk link 1 stored and link 2 references.
    let found = find_checkpoints(&fs, Some(APP));
    let (_, m2) = found.iter().find(|(p, _)| *p == link(2)).expect("link 2 committed");
    let c = m2
        .delta("u")
        .expect("chunk table")
        .chunks
        .iter()
        .find(|c| matches!(&c.source, ChunkSource::Ref { prefix, .. } if *prefix == link(1)))
        .expect("link 2 references link 1");
    let pack = delta_path(&link(1), "u");
    assert_eq!(fs.corrupt_range(&pack, c.offset, 1, 7), 1);

    let report = verify(&fs, &link(2));
    assert!(!report.is_valid());
    assert_eq!(report.bad_refs, [pack]);
    assert_eq!(verify_checkpoint(&fs, &link(2), &NullRecorder, 0.0), report);

    // Link 1 fails its own records too, so retention keeps link 0 past
    // `keep = 1` and uncommits link 1 (link 2 still references its pack).
    assert_eq!(retain_checkpoints(&fs, APP, 1), [link(1)]);
    let plan = choose_restart(&fs, Some(APP), &NullRecorder, 0.0);
    assert_eq!(plan.quarantined, [link(2)]);
    assert_eq!(plan.chosen.map(|(p, _)| p), Some(link(0)));
    assert_eq!(restart(&fs, 4, true, 0, &bands), Ok(true));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whichever stored byte rots, under whichever link, each link verifies
    /// exactly when a restart from it succeeds and is bitwise the state
    /// saved there. Restarts run on one task, so a fetch that fails fails
    /// every task.
    #[test]
    fn the_verdict_is_what_a_restart_does(
        delta in proptest::bool::ANY,
        bands in proptest::collection::vec(0i64..N / BAND, 0..3),
        pick in 0usize..256,
        at in 0u64..1 << 16,
        salt in 1u64..1 << 16,
    ) {
        let fs = Piofs::new(PiofsConfig::test_tiny(4), 5);
        write_links(&fs, 2, delta, &bands);
        let files = fs.list("ck/");
        let file = &files[pick % files.len()];
        let offset = at % file.size.max(1);
        fs.corrupt_range(&file.path, offset, 1, salt);
        for k in 0..=bands.len() {
            let valid = verify(&fs, &link(k)).is_valid();
            let restored = restart(&fs, 1, delta, k, &bands) == Ok(true);
            prop_assert_eq!(valid, restored, "link {} after a flip in {} at {}", k, file.path, offset);
        }
    }
}

/// A flipped bit in a manifest's version field does not make a rotted link
/// a restart source. Flipping bit 1 of byte 4 turns version 3 into version
/// 1, which the decoder used to read as a manifest with no integrity
/// records and no self-CRC: `verify` then passed the link, the restart walk
/// chose it and the restart returned wrong data.
#[test]
fn a_flipped_manifest_version_does_not_hide_rotted_data() {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 31);
    let bands = [1];
    write_links(&fs, 4, false, &bands);
    assert_eq!(fs.corrupt_range(&array_path(&link(1), "u"), 8, 1, 7), 1);
    assert!(!verify(&fs, &link(1)).is_valid());

    let path = manifest_path(&link(1));
    let mut bytes = fs.peek(&path).expect("link 1 committed");
    bytes[4] ^= 1 << 1;
    fs.preload(&path, bytes);
    assert!(!verify(&fs, &link(1)).is_valid());
    let plan = choose_restart(&fs, Some(APP), &NullRecorder, 0.0);
    assert_eq!(plan.chosen.map(|(p, _)| p), Some(link(0)));
    assert!(restart(&fs, 4, false, 1, &bands).is_err());
    assert_eq!(restart(&fs, 4, false, 0, &bands), Ok(true));
}

/// A manifest that decodes but carries no integrity record for a file it
/// mandates under its own prefix cannot vouch for that file, so `verify`
/// refuses it. Packs of older links are exempt: their chunks are checked by
/// content hash.
#[test]
fn a_manifest_without_records_for_its_own_files_is_refused() {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 37);
    write_links(&fs, 4, true, &[1]);
    assert!(verify(&fs, &link(1)).is_valid());

    let path = manifest_path(&link(1));
    let mut m = Manifest::decode(&fs.peek(&path).expect("link 1 committed")).expect("decodes");
    assert!(m
        .delta("u")
        .expect("chunk table")
        .chunks
        .iter()
        .any(|c| c.source != ChunkSource::Local));
    m.integrity.clear();
    fs.preload(&path, m.encode());
    let report = verify(&fs, &link(1));
    assert!(!report.is_valid());
    assert_eq!(report.unrecorded, [segment_path(&link(1)), delta_path(&link(1), "u")]);
    assert!(report.missing.is_empty() && report.corrupt.is_empty() && report.bad_refs.is_empty());
}

/// A restart from PIOFS refuses a segment its manifest holds no record for,
/// as `verify` does. The restart used to skip the check whenever the record
/// was absent: with the segment's record dropped from a committed manifest
/// and a byte of a region body flipped, `verify` called the link invalid
/// while `Drms::initialize` restarted from it with the rotted region.
#[test]
fn a_segment_without_a_record_is_refused_by_the_restart_too() {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 41);
    write_links(&fs, 4, false, &[1]);
    let at = link(1);
    let path = manifest_path(&at);
    let mut m = Manifest::decode(&fs.peek(&path).expect("link 1 committed")).expect("decodes");
    m.integrity.retain(|fi| fi.name != "segment");
    fs.preload(&path, m.encode());

    // The local-sections region is the segment's last: flip its first byte.
    let seg = segment_path(&at);
    let bytes = fs.peek(&seg).expect("segment stored");
    let decoded = DataSegment::decode(&bytes).expect("segment decodes");
    let body = decoded.region("local-sections").expect("local sections saved").bytes.len();
    assert!(body > 0);
    assert_eq!(fs.corrupt_range(&seg, (bytes.len() - body) as u64, 1, 7), 1);
    assert!(!verify(&fs, &at).is_valid());

    let opened = run_spmd(2, CostModel::default(), |ctx| {
        Drms::initialize(ctx, &fs, DrmsConfig::new(APP), EnableFlag::new(), Some(&at)).map(|_| ())
    })
    .expect("restart region");
    let refusal = CoreError::Integrity(format!("segment of {at:?} has no integrity record"));
    assert!(opened.iter().all(|r| r.as_ref().err() == Some(&refusal)), "{opened:?}");
}
