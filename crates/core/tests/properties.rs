//! Property tests for the decoders a restart trusts with stored bytes.

use drms_core::manifest::{ChunkRecord, ChunkSource};
use drms_core::{decode_locals, encode_locals, CheckpointArray};
use drms_darray::chunks::{self, Codec};
use drms_darray::{DistArray, Distribution};
use drms_slices::{Order, Slice};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stored chunk decodes to exactly the bytes its record describes or
    /// not at all, whatever the stored bytes are: truncated, bit-flipped, or
    /// inflated with runs past the recorded length. The run-length decoder
    /// never yields more than the recorded length.
    #[test]
    fn stored_chunk_decode_is_total(
        runs in proptest::collection::vec((1usize..300, 0u8..4), 1..16),
        compress in proptest::bool::ANY,
        cut in 0usize..4096,
        flip in 0usize..4096,
        bit in 0u8..8,
        extra in 1usize..64,
    ) {
        let raw: Vec<u8> = runs.iter().flat_map(|&(n, b)| std::iter::repeat_n(b, n)).collect();
        let (codec, stored) = chunks::encode_chunk(&raw, compress);
        let c = ChunkRecord {
            hash: chunks::content_hash(&raw),
            len: raw.len() as u32,
            stored_len: stored.len() as u32,
            codec,
            offset: 0,
            source: ChunkSource::Local,
        };
        prop_assert_eq!(c.decode(&stored).as_deref(), Ok(&raw[..]));

        let truncated = &stored[..cut % stored.len()];
        let mut flipped = stored.clone();
        flipped[flip % stored.len()] ^= 1 << bit;
        // Each (255, b) pair expands to 256 bytes past the recorded end.
        let inflated: Vec<u8> = stored.iter().copied().chain([255, 7].repeat(extra)).collect();
        prop_assert!(c.decode(truncated).is_err());
        prop_assert!(c.decode(&inflated).is_err());
        if let Ok(got) = c.decode(&flipped) {
            prop_assert_eq!(&*got, &raw[..]);
        }
        for bad in [truncated, &flipped, &inflated] {
            if let Some(out) = chunks::rle_decompress(bad, raw.len()) {
                prop_assert!(out.len() <= raw.len());
            }
        }
    }
}

/// `len` bytes from `seed`: runs of up to 600 equal bytes when `runny`
/// (what RLE wins on), one fresh byte per position otherwise.
fn chunk_bytes(len: usize, seed: u64, runny: bool) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let run = if runny { 1 + (x >> 40) as usize % 600 } else { 1 };
        out.extend(std::iter::repeat_n((x >> 56) as u8, run.min(len - out.len())));
    }
    out
}

/// One way to break a stored chunk, each a rule `ChunkRecord::decode`
/// refuses by.
fn spoil(case: usize, pos: usize, raw: &[u8]) -> (Codec, Vec<u8>) {
    let (_, mut rle) = chunks::encode_chunk(raw, true);
    let mut plain = raw.to_vec();
    match case {
        // A flipped raw byte.
        0 => {
            let i = pos % raw.len();
            plain[i] ^= 0x10;
            (Codec::Raw, plain)
        }
        // A short chunk.
        1 => {
            plain.pop();
            (Codec::Raw, plain)
        }
        // A flipped RLE pair: its run length or its byte.
        2 => {
            let i = pos % rle.len();
            rle[i] ^= 0x04;
            (Codec::Rle, rle)
        }
        // An odd-length RLE stream.
        3 => (Codec::Rle, rle[..rle.len() - 1].to_vec()),
        // A run past the recorded length.
        _ => (Codec::Rle, [rle, vec![255, 7]].concat()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batch kernels return `content_hash` of every input, and
    /// `check_chunks` refuses a batch exactly where and why
    /// `ChunkRecord::decode` refuses one of its chunks, wherever in the
    /// batch it sits. Batches are ragged: 0 to 9 chunks of
    /// unequal lengths up to 192 KiB, raw and RLE mixed. A batch of eight
    /// or nine chunks of at least 128 KiB holds a mebibyte and is split
    /// across the host's cores; every other batch runs on one thread.
    #[test]
    fn batch_kernels_equal_content_hash_and_refuse_what_decode_refuses(
        big in proptest::bool::ANY,
        shapes in proptest::collection::vec(
            (0usize..65537, 0u64..u64::MAX, proptest::bool::ANY, proptest::bool::ANY),
            0..10,
        ),
        at in 0usize..9,
        case in 0usize..5,
        pos in 0usize..1 << 20,
    ) {
        let raws: Vec<Vec<u8>> = shapes
            .iter()
            .map(|&(len, seed, runny, _)| {
                let len = if big { 131_072 + len } else { len % 4097 };
                chunk_bytes(len, seed, runny)
            })
            .collect();
        let inputs: Vec<&[u8]> = raws.iter().map(Vec::as_slice).collect();
        let hashes: Vec<u128> = inputs.iter().map(|b| chunks::content_hash(b)).collect();
        prop_assert_eq!(&chunks::content_hash_batch(&inputs), &hashes);

        let mut records: Vec<(ChunkRecord, Vec<u8>)> = raws
            .iter()
            .zip(&shapes)
            .map(|(raw, &(_, _, _, compress))| {
                let (codec, stored) = chunks::encode_chunk(raw, compress);
                let record = ChunkRecord {
                    hash: chunks::content_hash(raw),
                    len: raw.len() as u32,
                    stored_len: stored.len() as u32,
                    codec,
                    offset: 0,
                    source: ChunkSource::Local,
                };
                (record, stored)
            })
            .collect();
        let batch = |records: &[(ChunkRecord, Vec<u8>)]| {
            let stored: Vec<_> = records.iter().map(|(c, s)| c.with_stored(s)).collect();
            chunks::check_chunks(&stored)
        };
        prop_assert_eq!(batch(&records), Ok(()));

        // Spoil one chunk: a run of 40 equal bytes, so its RLE stream wins
        // and every case applies.
        if records.is_empty() {
            return Ok(());
        }
        let at = at % records.len();
        let raw = vec![0x5a; 40];
        let (codec, stored) = spoil(case, pos, &raw);
        records[at] = (
            ChunkRecord {
                hash: chunks::content_hash(&raw),
                len: raw.len() as u32,
                stored_len: stored.len() as u32,
                codec,
                offset: 0,
                source: ChunkSource::Local,
            },
            stored,
        );
        let (record, stored) = &records[at];
        let why = record.decode(stored).expect_err("every case is refused");
        let got = batch(&records);
        prop_assert_eq!(got.map_err(|(i, r)| (i, r.why())), Err((at, why)));
    }
}

/// The arrays one task's local-sections blob carries: element sizes 8, 4
/// and 1, block-distributed over `p` tasks and seen from `rank`, whose
/// section may be empty.
struct Locals {
    u: DistArray<f64>,
    k: DistArray<i32>,
    m: DistArray<u8>,
}

impl Locals {
    fn new(rows: i64, cols: i64, p: usize, rank: usize) -> Locals {
        let grid = Slice::boxed(&[(1, rows), (1, cols)]);
        let line = Slice::boxed(&[(0, rows * cols - 1)]);
        let dist = |dom: &Slice| Distribution::block_auto(dom, p, 1).unwrap();
        Locals {
            u: DistArray::new("u", Order::ColumnMajor, dist(&grid), rank),
            k: DistArray::new("k", Order::RowMajor, dist(&line), rank),
            m: DistArray::new("m", Order::RowMajor, dist(&grid), rank),
        }
    }

    /// Fills every mapped element with bits mixed from `seed` and its
    /// coordinates, so `u` holds NaNs, infinities and subnormals too.
    fn filled(mut self, seed: u64) -> Locals {
        let bits = |x: &[i64]| {
            let h = x.iter().fold(seed, |h, &c| (h ^ c as u64).wrapping_mul(0x100_0000_01b3));
            h ^ (h >> 29)
        };
        self.u.fill_mapped(|x| f64::from_bits(bits(x)));
        self.k.fill_mapped(|x| bits(x) as i32);
        self.m.fill_mapped(|x| bits(x) as u8);
        self
    }

    fn refs(&self) -> [&dyn CheckpointArray; 3] {
        [&self.u, &self.k, &self.m]
    }

    fn muts(&mut self) -> [&mut dyn CheckpointArray; 3] {
        [&mut self.u, &mut self.k, &mut self.m]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A local-sections blob restores its arrays or refuses, whatever its
    /// bytes: any blob that starts with `encode_locals`' output (fixed-size
    /// padding and trailing bytes included) restores them bitwise, any blob
    /// shorter than their total local length is an `Err`, and a flipped bit
    /// restores as exactly the bytes it was flipped in.
    #[test]
    fn decode_locals_is_total(
        shape in (1i64..10, 1i64..10, 1usize..4, 0usize..3),
        seed in 0u64..u64::MAX,
        pad in 0u64..64,
        tail in proptest::collection::vec(0u8..255, 0..64),
        cut in 0usize..4096,
        flip in 0usize..4096,
        bit in 0u8..8,
    ) {
        let (rows, cols, p, rank) = (shape.0, shape.1, shape.2, shape.3 % shape.2);
        let orig = Locals::new(rows, cols, p, rank).filled(seed);
        let exact = encode_locals(&orig.refs(), 0);
        let total = exact.len();
        let good = encode_locals(&orig.refs(), (total as u64) + pad);
        // Restores a fresh set of arrays from `blob`, answering with their
        // local storage re-encoded.
        let decode = |blob: &[u8]| {
            let mut fresh = Locals::new(rows, cols, p, rank);
            decode_locals(&mut fresh.muts(), blob).map(|()| encode_locals(&fresh.refs(), 0)).ok()
        };

        let long: Vec<u8> = good.iter().chain(&tail).copied().collect();
        prop_assert_eq!(decode(&good), Some(exact.clone()));
        prop_assert_eq!(decode(&long), Some(exact.clone()));

        if total > 0 {
            prop_assert_eq!(decode(&good[..cut % total]), None);
        }

        if !good.is_empty() {
            let mut flipped = good.clone();
            flipped[flip % good.len()] ^= 1 << bit;
            prop_assert_eq!(decode(&flipped), Some(flipped[..total].to_vec()));
        }
    }
}

/// What happens to a staged file between its writes and the integrity pass.
#[derive(Debug, Clone, Copy)]
enum Upset {
    /// Nothing.
    None,
    /// Rank 0 rewrites `[at, at + len)` with other bytes.
    Rewrite { at: usize, len: usize },
    /// Rank 0's first `write_at` of a piece keeps only a prefix.
    Torn,
    /// Bytes rot in place over `[at, at + len)`; then a scrub repairs as
    /// much from parity `units` stripe units further on (0: the rotted
    /// range itself; otherwise a sibling, rebuilt from the rotted bytes).
    RotThenRepair { at: usize, len: usize, units: usize },
    /// A server dies, with or without parity to rebuild its units from.
    FailServer { k: usize, parity: bool },
    /// Bytes rot, then server `k` dies and is rebuilt from parity and the
    /// rotted siblings.
    RotThenRebuild { at: usize, len: usize, k: usize },
}

impl Upset {
    /// Upset number `kind` (mod 6), its range `[at, at + len)`, its flag
    /// and its server (or unit offset) `k`, from the arguments it uses.
    fn pick(kind: u8, at: usize, len: usize, flag: bool, k: usize) -> Upset {
        match kind % 6 {
            0 => Upset::None,
            1 => Upset::Rewrite { at, len },
            2 => Upset::Torn,
            3 => Upset::RotThenRepair { at, len, units: k },
            4 => Upset::FailServer { k, parity: flag },
            _ => Upset::RotThenRebuild { at, len, k },
        }
    }

    fn parity(self) -> bool {
        match self {
            Upset::RotThenRepair { .. } | Upset::RotThenRebuild { .. } => true,
            Upset::FailServer { parity, .. } => parity,
            _ => false,
        }
    }
}

/// Stages `array-u` of `len` bytes under `ck/1.tmp` on a fresh 4-server
/// `test_tiny` file system (1 KiB integrity chunks): `create`d by rank 0, then
/// written as the pieces `cuts` tile it into — in rounds of one
/// `collective_write` from `tasks` tasks, each piece flagged in `single`
/// written instead by rank 0 alone through `write_at` — and then upset.
/// Also returns whether a server took bytes of the file with it.
fn stage(
    len: usize,
    cuts: &[(usize, usize)],
    tasks: usize,
    single: &[bool],
    upset: Upset,
) -> (std::sync::Arc<drms_piofs::Piofs>, bool) {
    use drms_chaos::{ChaosCtl, FaultPlan, PiofsFaults, TornWrite};
    use drms_piofs::{Piofs, PiofsConfig, WriteReq};

    let cfg = if upset.parity() {
        PiofsConfig::test_tiny(4).with_parity()
    } else {
        PiofsConfig::test_tiny(4)
    };
    let fs = Piofs::new(cfg, 1);
    let bytes: Vec<u8> =
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8).collect();
    let mut bounds: Vec<usize> = cuts
        .iter()
        .flat_map(|&(c, d)| [c % (len + 1), (c + d) % (len + 1)])
        .chain([0, len])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    // Pieces in a scrambled order, so heads and tails arrive either way.
    let mut pieces: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
    let n = pieces.len();
    for i in 0..n {
        pieces.swap(i, (i * 7 + cuts.len()) % n);
    }
    let torn = TornWrite { path_contains: "array-u".into(), occurrence: 1, keep_fraction: 0.5 };
    let plan = FaultPlan {
        piofs: PiofsFaults {
            transient_prob: 0.0,
            torn: matches!(upset, Upset::Torn).then_some(torn),
        },
        ..FaultPlan::seeded(3)
    };
    let path = "ck/1.tmp/array-u";
    let clip = |at: usize, n: usize| (at.min(len) as u64, n.min(len - at.min(len)) as u64);
    drms_msg::Spmd::new(tasks, drms_msg::CostModel::free())
        .chaos(ChaosCtl::new(plan))
        .run(|ctx| {
            if ctx.rank() == 0 {
                fs.create(path, len as u64);
            }
            ctx.barrier();
            for round in pieces.chunks(tasks) {
                let mut reqs = Vec::new();
                for (r, &(a, b)) in round.iter().enumerate() {
                    let alone = single.get(a % single.len().max(1)).copied().unwrap_or(false);
                    if alone && ctx.rank() == 0 {
                        fs.write_at(ctx, path, a as u64, &bytes[a..b]);
                    } else if !alone && r == ctx.rank() {
                        reqs.push(WriteReq {
                            path: path.into(),
                            offset: a as u64,
                            data: bytes[a..b].to_vec(),
                        });
                    }
                }
                fs.collective_write(ctx, reqs);
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                if let Upset::Rewrite { at, len: n } = upset {
                    let (at, n) = clip(at, n);
                    fs.write_at(ctx, path, at, vec![0xEE; n as usize]);
                }
            }
        })
        .expect("the staging region runs");
    match upset {
        Upset::RotThenRepair { at, len: n, units } => {
            fs.corrupt_range(path, at as u64, n as u64, 9);
            let (at, n) = clip(at + 1024 * units, n);
            let _ = fs.repair_range(path, at, n);
        }
        Upset::FailServer { k, .. } => {
            let lost = fs.fail_server(k) > 0;
            return (fs, lost);
        }
        Upset::RotThenRebuild { at, len: n, k } => {
            fs.corrupt_range(path, at as u64, n as u64, 9);
            let lost = fs.fail_server(k) > 0;
            fs.repair_server(k);
            return (fs, lost);
        }
        _ => {}
    }
    (fs, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The staged integrity records are the read-based definition — every
    /// listed file's `FileIntegrity::compute` over `peek`, a file `peek`
    /// cannot serve left out — whatever tiling, write order, writer mix and
    /// upset the file went through. Pieces smaller than a chunk cut chunks
    /// into three or more parts, which the fold reads back. A record is
    /// folded from the writers' CRCs exactly when nothing of the file was
    /// lost and it kept the length it was created with.
    #[test]
    fn staged_records_equal_the_read_definition(
        len in 0usize..200 * 1024,
        cuts in proptest::collection::vec((0usize..210_000, 0usize..1500), 0..12),
        tasks in 1usize..5,
        single in proptest::collection::vec(0u8..4, 0..8),
        upset in (0u8..6, 0usize..210_000, 1usize..3000, proptest::bool::ANY, 0usize..4),
    ) {
        use drms_core::commit::compute_integrity_staged;
        use drms_core::manifest::FileIntegrity;

        let path = "ck/1.tmp/array-u";
        let (kind, at, n, flag, k) = upset;
        let upset = Upset::pick(kind, at, n, flag, k);
        let single: Vec<bool> = single.iter().map(|&s| s == 0).collect();
        let (fs, _) = stage(len, &cuts, tasks, &single, upset);
        let chunk = drms_core::integrity_chunk(&fs);
        let want: Vec<FileIntegrity> =
            fs.peek(path).map(|b| FileIntegrity::compute("array-u", &b, chunk)).into_iter().collect();
        prop_assert_eq!(compute_integrity_staged(&fs, "ck/1"), want);

        let (again, lost) = stage(len, &cuts, tasks, &single, upset);
        let kept = !lost && again.size(path) == Ok(len as u64);
        prop_assert_eq!(again.take_integrity(path).map(|r| r.folded), fs.peek(path).map(|_| kept));
    }
}
