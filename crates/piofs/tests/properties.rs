//! Property tests for the file-system substrate: striping arithmetic,
//! data integrity under arbitrary collective access patterns, and cost-model
//! sanity (monotonicity).

use std::sync::Arc;

use drms_msg::{run_spmd, CostModel};
use drms_piofs::stripe::{striped_bytes, IntervalSet};
use drms_piofs::{Piofs, PiofsConfig, ReadAccess, ReadReq, WriteReq};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn striping_partitions_any_interval(
        stripe in 1u64..1024,
        servers in 1usize..32,
        start in 0u64..100_000,
        len in 0u64..100_000,
    ) {
        let end = start + len;
        let total: u64 =
            (0..servers).map(|k| striped_bytes(stripe, servers, start, end, k)).sum();
        prop_assert_eq!(total, len);
    }

    #[test]
    fn striping_is_translation_periodic(
        stripe in 1u64..256,
        servers in 1usize..16,
        start in 0u64..10_000,
        len in 0u64..10_000,
    ) {
        // Shifting an interval by a whole cycle leaves per-server shares
        // unchanged.
        let cycle = stripe * servers as u64;
        for k in 0..servers {
            prop_assert_eq!(
                striped_bytes(stripe, servers, start, start + len, k),
                striped_bytes(stripe, servers, start + cycle, start + len + cycle, k)
            );
        }
    }

    #[test]
    fn interval_set_total_equals_naive_union(
        ivs in proptest::collection::vec((0u64..200, 0u64..60), 0..12)
    ) {
        let mut set = IntervalSet::new();
        let mut marks = vec![false; 300];
        for &(a, l) in &ivs {
            set.insert(a, a + l);
            for m in marks.iter_mut().take((a + l) as usize).skip(a as usize) {
                *m = true;
            }
        }
        let naive = marks.iter().filter(|&&m| m).count() as u64;
        prop_assert_eq!(set.total(), naive);
        // Intervals are disjoint and sorted.
        let v = set.intervals();
        for w in v.windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary per-task writes at arbitrary (disjoint) offsets read back
    /// exactly, through the collective path, regardless of configuration.
    #[test]
    fn collective_io_roundtrips_random_layouts(
        ntasks in 1usize..5,
        chunk in 1usize..2000,
        seed in 0u64..1000,
    ) {
        let fs = Piofs::new(PiofsConfig::sp_1997().scale_memory(0.01), seed);
        let fs2 = Arc::clone(&fs);
        let ok = run_spmd(ntasks, CostModel::default(), move |ctx| {
            let rank = ctx.rank();
            // Each task owns [rank*chunk, (rank+1)*chunk).
            let mine: Vec<u8> = (0..chunk).map(|i| ((i * 31 + rank * 7) % 251) as u8).collect();
            fs2.collective_write(
                ctx,
                vec![WriteReq {
                    path: "blob".into(),
                    offset: (rank * chunk) as u64,
                    data: mine.clone(),
                }],
            );
            // Everyone reads everyone's chunk.
            let total = (ctx.ntasks() * chunk) as u64;
            let got = fs2
                .collective_read(
                    ctx,
                    vec![ReadReq {
                        path: "blob".into(),
                        offset: 0,
                        len: total,
                        access: ReadAccess::Sequential,
                    }],
                )
                .unwrap()
                .pop()
                .unwrap();
            (0..ctx.ntasks()).all(|r| {
                (0..chunk).all(|i| got[r * chunk + i] == ((i * 31 + r * 7) % 251) as u8)
            })
        })
        .unwrap();
        prop_assert!(ok.into_iter().all(|x| x));
    }

    /// Simulated time is monotone in bytes: writing strictly more data never
    /// completes sooner (same seed, same configuration).
    #[test]
    fn write_cost_monotone_in_bytes(small in 1usize..500_000, extra in 1usize..500_000) {
        let time_for = |bytes: usize| -> f64 {
            let mut cfg = PiofsConfig::sp_1997();
            cfg.jitter_sigma = 0.0;
            let fs = Piofs::new(cfg, 1);
            run_spmd(1, CostModel::free(), move |ctx| {
                fs.write_at(ctx, "f", 0, vec![0u8; bytes]);
                ctx.now()
            })
            .unwrap()[0]
        };
        prop_assert!(time_for(small + extra) >= time_for(small));
    }
}
