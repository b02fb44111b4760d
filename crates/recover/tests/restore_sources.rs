//! One archived state, three restart sources, one driver: a full PIOFS
//! checkpoint, a delta link and a sealed memory-tier entry of the same
//! state restore bitwise-identically on another task count through
//! `drms_core::restore`, and every source rejects a manifest that does not
//! match the program in the same words — there is one validator.

use std::sync::Arc;

use drms_core::manifest::{CkptKind, Manifest};
use drms_core::restore::{self, PiofsFull, RestartSource};
use drms_core::segment::DataSegment;
use drms_core::wire::crc32;
use drms_core::{spmd, CheckpointArray, CoreError, Drms, DrmsConfig, EnableFlag};
use drms_darray::stream::StreamRange;
use drms_darray::{DistArray, Distribution, Element};
use drms_delta::{delta_checkpoint, DeltaChain, DeltaConfig, DeltaSource};
use drms_memtier::{
    store_captured, store_checkpoint, CapturedPiece, MemTier, TierSource, SEGMENT_FILE,
};
use drms_msg::{run_spmd, CostModel, Ctx};
use drms_piofs::{Piofs, PiofsConfig, Stored};
use drms_slices::{Order, Slice};

const APP: &str = "srcs";
const READERS: usize = 6;

fn domain() -> Slice {
    Slice::boxed(&[(1, 40), (1, 24)])
}

fn truth(p: &[i64]) -> f64 {
    (p[0] * 41 + p[1] * 5) as f64 + 0.25
}

fn array<T: Element>(ctx: &Ctx, name: &str, dom: &Slice) -> DistArray<T> {
    let dist = Distribution::block_auto(dom, ctx.ntasks(), 1).unwrap();
    DistArray::new(name, Order::ColumnMajor, dist, ctx.rank())
}

/// Archives one state from `writers` tasks as the full checkpoint
/// `ck/full`, the second link `ck/delta` of a delta chain (most chunks
/// referenced from `ck/d0`) and the tier entry `ck/tier`. An SPMD-kind
/// manifest goes under `ck/spmd` on PIOFS and in the tier.
fn archive(fs: &Piofs, tier: &MemTier, writers: usize) {
    run_spmd(writers, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, fs, DrmsConfig::new(APP), EnableFlag::new(), None).unwrap();
        let mut u = array::<f64>(ctx, "u", &domain());
        let mut seg = DataSegment::new();
        seg.set_replicated_f64("dt", 0.125);

        let (mut chain, dcfg) = (DeltaChain::new(), DeltaConfig::default());
        seg.set_control("iter", 3);
        u.fill_assigned(|p| if p[1] < 5 { -1.0 } else { truth(p) });
        delta_checkpoint(&mut drms, &mut chain, &dcfg, ctx, fs, "ck/d0", &seg, &[&u]).unwrap();

        seg.set_control("iter", 7);
        u.fill_assigned(truth);
        delta_checkpoint(&mut drms, &mut chain, &dcfg, ctx, fs, "ck/delta", &seg, &[&u]).unwrap();
        drms.reconfig_checkpoint(ctx, fs, "ck/full", &seg, &[&u]).unwrap();
        store_checkpoint(ctx, tier, "ck/tier", &mut drms, &seg, &[&u]).unwrap();

        spmd::checkpoint(ctx, fs, drms.cfg(), "ck/spmd", &seg, &[&u], 1).unwrap();
        let manifest = Manifest {
            app: APP.to_string(),
            kind: CkptKind::Spmd,
            ntasks: ctx.ntasks(),
            sop: 1,
            arrays: Vec::new(),
            integrity: Vec::new(),
            deltas: Vec::new(),
        };
        let bytes = seg.encode();
        let file_lens = [(SEGMENT_FILE.to_string(), bytes.len() as u64)];
        let mut pieces = Vec::new();
        if ctx.rank() == 0 {
            let (file, crc) = (SEGMENT_FILE.to_string(), crc32(&bytes));
            pieces.push(CapturedPiece { file, offset: 0, data: Arc::new(bytes), crc });
        }
        store_captured(ctx, tier, "ck/spmd", APP, 1, manifest.encode(), &file_lens, pieces)
            .unwrap();
    })
    .unwrap();
    let delta = Manifest::decode(&fs.peek("ck/delta/manifest").unwrap()).unwrap();
    assert!(
        delta.referenced_packs().iter().any(|p| p.starts_with("ck/d0/")),
        "ck/delta must be a real link, reaching into ck/d0's pack"
    );
}

/// The whole restart through the driver: open, then the arrays.
fn restore_via<S: RestartSource>(
    ctx: &mut Ctx,
    fs: &Piofs,
    src: &S,
    app: &str,
    arrays: &mut [&mut dyn CheckpointArray],
) -> Result<DataSegment, CoreError> {
    let (_, info) = restore::open(ctx, fs, DrmsConfig::new(app), EnableFlag::new(), src)?;
    restore::restore_arrays(ctx, src, &info.manifest, arrays)?;
    Ok(info.segment)
}

#[derive(Debug, Clone, Copy)]
enum Src {
    Full,
    Delta,
    Tier,
}

const SOURCES: [Src; 3] = [Src::Full, Src::Delta, Src::Tier];

impl Src {
    /// Restarts from this source's archive of the state — or, with `spmd`,
    /// from the SPMD-kind manifest.
    fn restore(
        self,
        ctx: &mut Ctx,
        (fs, tier): (&Piofs, &MemTier),
        (app, spmd): (&str, bool),
        arrays: &mut [&mut dyn CheckpointArray],
    ) -> Result<DataSegment, CoreError> {
        let at = |own| if spmd { "ck/spmd" } else { own };
        match self {
            Src::Full => {
                let src = PiofsFull { fs, prefix: at("ck/full") };
                restore_via(ctx, fs, &src, app, arrays)
            }
            Src::Delta => {
                let src = DeltaSource(PiofsFull { fs, prefix: at("ck/delta") });
                restore_via(ctx, fs, &src, app, arrays)
            }
            Src::Tier => {
                restore_via(ctx, fs, &TierSource { tier, prefix: at("ck/tier") }, app, arrays)
            }
        }
    }
}

#[test]
fn three_sources_restore_one_state_bitwise_on_another_task_count() {
    for writers in [8, 4] {
        let fs = Piofs::new(PiofsConfig::test_tiny(8), 31);
        let tier = MemTier::new(1);
        archive(&fs, &tier, writers);

        let restored = SOURCES.map(|src| {
            let ranks = run_spmd(READERS, CostModel::default(), |ctx| {
                let mut u = array::<f64>(ctx, "u", &domain());
                let segment = src
                    .restore(ctx, (&fs, &tier), (APP, false), &mut [&mut u])
                    .unwrap_or_else(|e| panic!("{src:?} from {writers} writers: {e}"));
                let cells = u.fold_assigned(Vec::new(), |mut acc, p, v| {
                    acc.push((p.to_vec(), v.to_bits()));
                    acc
                });
                (segment, cells)
            })
            .unwrap();
            let segment = ranks[0].0.clone();
            assert!(ranks.iter().all(|r| r.0 == segment), "{src:?}: every task loads the segment");
            let mut cells: Vec<_> = ranks.into_iter().flat_map(|r| r.1).collect();
            cells.sort();
            (segment, cells)
        });

        let [(full_seg, full), (delta_seg, delta), (tier_seg, tier)] = &restored;
        assert_eq!(full.len(), domain().size());
        assert!(full.iter().all(|(p, bits)| *bits == truth(p).to_bits()));
        assert!(delta == full && tier == full, "arrays differ ({writers} -> {READERS})");
        // A delta link saves the segment without the local-sections region
        // (its arrays never restore from segment locals); the variables the
        // application resumes from are the same everywhere.
        assert!(tier_seg == full_seg, "segments differ ({writers} -> {READERS})");
        assert!(full_seg.region("local-sections").is_some());
        for seg in [full_seg, delta_seg] {
            assert_eq!(seg.control("iter"), Some(7));
            assert_eq!(seg.replicated_f64("dt"), Some(0.125));
        }
    }
}

/// What the restarting program declares, against the archived `u: f64`
/// over `domain()`.
type Declare = fn(&Ctx) -> Box<dyn CheckpointArray>;

#[test]
fn every_source_rejects_a_mismatch_in_the_same_words() {
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 37);
    let tier = MemTier::new(1);
    archive(&fs, &tier, 4);

    let u_f64: Declare = |ctx| Box::new(array::<f64>(ctx, "u", &domain()));
    let cases: [(&str, &str, bool, Declare, &str); 5] = [
        ("wrong app", "other", false, u_f64, "belongs to app \"srcs\", not \"other\""),
        ("SPMD kind", APP, true, u_f64, "\"ck/spmd\" is a Spmd checkpoint"),
        (
            "missing array",
            APP,
            false,
            |ctx| Box::new(array::<f64>(ctx, "v", &domain())),
            "checkpoint has no array \"v\"",
        ),
        (
            "element code",
            APP,
            false,
            |ctx| Box::new(array::<i64>(ctx, "u", &domain())),
            "array \"u\": element code 1 in checkpoint, 3 in program",
        ),
        (
            "domain",
            APP,
            false,
            |ctx| Box::new(array::<f64>(ctx, "u", &Slice::boxed(&[(1, 40), (1, 23)]))),
            "array \"u\": domain",
        ),
    ];
    for (what, app, spmd, declare, expect) in cases {
        let texts = SOURCES.map(|src| {
            let ranks = run_spmd(READERS, CostModel::default(), |ctx| {
                let mut a = declare(ctx);
                match src.restore(ctx, (&fs, &tier), (app, spmd), &mut [&mut *a]) {
                    Err(CoreError::ManifestMismatch(text)) => text,
                    other => panic!("{what} via {src:?}: expected a mismatch, got {other:?}"),
                }
            })
            .unwrap();
            assert!(ranks.iter().all(|t| t == &ranks[0]), "{what} via {src:?}: ranks disagree");
            ranks.into_iter().next().unwrap()
        });
        assert!(texts[0].contains(expect), "{what}: {:?}", texts[0]);
        assert!(texts.iter().all(|t| t == &texts[0]), "{what}: sources disagree: {texts:?}");
    }

    // A rotted segment file: both PIOFS sources go through the one verified
    // segment read, which names the prefix.
    for (src, prefix) in [(Src::Full, "ck/full"), (Src::Delta, "ck/delta")] {
        fs.corrupt_range(&format!("{prefix}/segment"), 0, 1, 3);
        run_spmd(READERS, CostModel::default(), |ctx| {
            let mut u = array::<f64>(ctx, "u", &domain());
            match src.restore(ctx, (&fs, &tier), (APP, false), &mut [&mut u]) {
                Err(CoreError::Integrity(text)) => {
                    assert_eq!(text, format!("segment of {prefix:?} fails checksum verification"))
                }
                other => panic!("{src:?}: expected an integrity failure, got {other:?}"),
            }
        })
        .unwrap();
    }
}

/// Opens `src` on 4 tasks and returns the one error every task must come
/// back with. `run_spmd` returning at all is the no-stall half: a task
/// still waiting at the segment rendezvous would trip the board's deadline.
fn open_fails_alike<S: RestartSource + Sync>(fs: &Piofs, src: &S, what: &str) -> CoreError {
    let errs = run_spmd(4, CostModel::default(), |ctx| {
        match restore::open(ctx, fs, DrmsConfig::new(APP), EnableFlag::new(), src) {
            Err(e) => e,
            Ok(_) => panic!("{what}: rank {} restarted from a bad segment", ctx.rank()),
        }
    })
    .unwrap();
    assert!(errs.iter().all(|e| e == &errs[0]), "{what}: ranks disagree: {errs:?}");
    errs.into_iter().next().unwrap()
}

#[test]
fn a_bad_segment_fails_every_rank_alike_and_strands_none() {
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 41);
    let tier = MemTier::new(1);
    archive(&fs, &tier, 4);
    let pristine = |prefix: &str| fs.peek(&format!("{prefix}/segment")).unwrap();
    let rotted = |prefix: &str| {
        CoreError::Integrity(format!("segment of {prefix:?} fails checksum verification"))
    };

    for prefix in ["ck/full", "ck/delta"] {
        let (good, path) = (pristine(prefix), format!("{prefix}/segment"));
        let open = |what: &str| match prefix {
            "ck/full" => open_fails_alike(&fs, &PiofsFull { fs: &fs, prefix }, what),
            _ => open_fails_alike(&fs, &DeltaSource(PiofsFull { fs: &fs, prefix }), what),
        };
        // A flipped byte in the middle, then the file cut short: the
        // manifest's record catches both on the one rank that checks.
        fs.corrupt_range(&path, good.len() as u64 / 2, 1, 5);
        assert_eq!(open("flipped"), rotted(prefix));
        fs.preload(&path, good[..good.len() - 9].to_vec());
        assert_eq!(open("truncated"), rotted(prefix));
        // With no record to hold it against (a manifest stripped of its
        // records, which `verify` refuses too), the segment is refused
        // before it reaches the decoder, on every rank.
        let mpath = format!("{prefix}/manifest");
        let mut manifest = Manifest::decode(&fs.peek(&mpath).unwrap()).unwrap();
        manifest.integrity.clear();
        fs.preload(&mpath, manifest.encode());
        let unrecorded = format!("segment of {prefix:?} has no integrity record");
        assert_eq!(open("truncated, no record"), CoreError::Integrity(unrecorded));
    }

    // The tier: every rank runs its own per-piece-CRC-checked fetch, so a
    // flipped byte fails each rank's own charge step — and each still keeps
    // the rendezvous. A cut-short segment under a valid piece CRC gets to
    // rank 0's decoder.
    let len = tier.file_len("ck/tier", SEGMENT_FILE).unwrap();
    let good = tier.fetch("ck/tier", SEGMENT_FILE, 0, len).unwrap().data;
    let manifest = tier.manifest("ck/tier").unwrap().encode();
    let seal = |prefix: &str, data: Vec<u8>, crc: u32| {
        run_spmd(4, CostModel::default(), |ctx| {
            let file_lens = [(SEGMENT_FILE.to_string(), data.len() as u64)];
            let mut pieces = Vec::new();
            if ctx.rank() == 0 {
                let (file, data) = (SEGMENT_FILE.to_string(), Arc::new(data.clone()));
                pieces.push(CapturedPiece { file, offset: 0, data, crc });
            }
            store_captured(ctx, &tier, prefix, APP, 1, manifest.clone(), &file_lens, pieces)
                .unwrap();
        })
        .unwrap();
    };
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x10;
    seal("bad/flipped", flipped, crc32(&good));
    let err = open_fails_alike(&fs, &TierSource { tier: &tier, prefix: "bad/flipped" }, "flipped");
    assert!(matches!(err, CoreError::TierCorrupt { offset: 0, .. }), "{err:?}");

    let short = good[..good.len() - 9].to_vec();
    let crc = crc32(&short);
    seal("bad/short", short, crc);
    let err = open_fails_alike(&fs, &TierSource { tier: &tier, prefix: "bad/short" }, "truncated");
    assert!(matches!(err, CoreError::Wire(_)), "{err:?}");
}

/// `ck/full`, except that one rank's segment load fails after the
/// collective read it shares with its siblings.
struct OneRankFails<'a>(PiofsFull<'a>, usize);

impl RestartSource for OneRankFails<'_> {
    fn prefix(&self) -> &str {
        self.0.prefix
    }

    fn manifest(&self, ctx: &mut Ctx) -> Result<Manifest, CoreError> {
        self.0.manifest(ctx)
    }

    fn segment(&self, ctx: &mut Ctx) -> Result<Stored, CoreError> {
        let bytes = self.0.segment(ctx)?;
        if ctx.rank() == self.1 {
            return Err(CoreError::NoCheckpoint(format!("rank {} lost it", self.1)));
        }
        Ok(bytes)
    }

    fn fetch_range(
        &self,
        ctx: &mut Ctx,
        manifest: &Manifest,
        array: &str,
        range: StreamRange,
        out: &mut Vec<u8>,
    ) -> Result<(), CoreError> {
        self.0.fetch_range(ctx, manifest, array, range, out)
    }

    fn arrays_restored(&self, ctx: &Ctx, t0: f64, t1: f64, array_bytes: u64) {
        self.0.arrays_restored(ctx, t0, t1, array_bytes)
    }
}

#[test]
fn one_rank_failing_its_segment_load_fails_the_restart_on_all() {
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 43);
    archive(&fs, &MemTier::new(1), 4);
    // Without the rendezvous the three healthy ranks would wait at the
    // phase's barrier for a sibling that had already returned.
    for failing in [0, 2] {
        let src = OneRankFails(PiofsFull { fs: &fs, prefix: "ck/full" }, failing);
        let err = open_fails_alike(&fs, &src, "one rank fails");
        assert_eq!(err, CoreError::NoCheckpoint(format!("rank {failing} lost it")));
    }
}
