//! The replica scatter of a memory-tier store: what a replica costs on the
//! wire, and how a store that cannot insert a piece fails.
//!
//! A replica crosses the interconnect as a handle to the owner's shared
//! bytes, so its price is not the length of a buffer but the length of the
//! encoding it stands for — `file` as a length-prefixed string, `offset`,
//! `crc` and `data` as a length-prefixed blob — which the proptest pins
//! against the checkpoint wire format's own `Writer`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drms_core::wire::{crc32, Writer};
use drms_core::CoreError;
use drms_memtier::{store_captured, CapturedPiece, MemTier, SEGMENT_FILE};
use drms_msg::{run_spmd, CostModel, Parcel};

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// A replica handle's wire length is exactly the length of its
    /// `string + u64 + u32 + blob` encoding, for any file name (multi-byte
    /// characters included), offset and piece length.
    #[test]
    fn a_replica_is_priced_at_its_encoded_length(
        name in proptest::collection::vec(0u32..0x1_0000, 0..24),
        offset in 0u64..u64::MAX,
        len in 0usize..5000,
    ) {
        let file: String = name.into_iter().filter_map(char::from_u32).collect();
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let piece = CapturedPiece { file, offset, crc: crc32(&data), data: Arc::new(data) };

        let mut w = Writer::new();
        w.string(&piece.file);
        w.u64(piece.offset);
        w.u32(piece.crc);
        w.blob(&piece.data);
        proptest::prop_assert_eq!(piece.wire_len(), w.finish().len());
    }
}

/// Two tasks hand the store conflicting bytes for one piece. The insert
/// fails on whichever task meets the other's copy; every task must learn
/// of it through the store's vote and return the same error at once,
/// instead of the others waiting in the replica exchange for a task that
/// has left.
#[test]
fn a_conflicting_piece_fails_every_task_at_once() {
    let tier = MemTier::new(1);
    let started = Instant::now();
    let outcomes = run_spmd(4, CostModel::default(), |ctx| {
        let local = match ctx.rank() {
            r @ (0 | 1) => {
                let data = vec![r as u8 + 1; 64];
                vec![CapturedPiece {
                    file: SEGMENT_FILE.into(),
                    offset: 0,
                    crc: crc32(&data),
                    data: Arc::new(data),
                }]
            }
            _ => Vec::new(),
        };
        let lens = [(SEGMENT_FILE.to_string(), 64)];
        let out = store_captured(ctx, &tier, "ck/conflict", "app", 1, Vec::new(), &lens, local);
        (out, started.elapsed())
    })
    .unwrap();

    let first = outcomes[0].0.clone();
    assert!(matches!(first, Err(CoreError::Incomplete(ref m)) if m.contains("conflicting")));
    for (rank, (out, took)) in outcomes.iter().enumerate() {
        assert_eq!(*out, first, "rank {rank} returned a different outcome");
        assert!(*took < Duration::from_secs(1), "rank {rank} took {took:?}");
    }
    assert!(!tier.is_intact("ck/conflict"), "a failed store must not seal");
}
