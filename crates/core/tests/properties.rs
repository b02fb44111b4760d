//! Property tests for the decoders a restart trusts with stored bytes.

use drms_core::manifest::{ChunkRecord, ChunkSource};
use drms_darray::chunks;
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
            hash: chunks::fnv128(&raw),
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
