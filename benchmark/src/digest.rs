//! The bitwise check every restore op must pass.
//!
//! A digest is the wrapping `u64` sum, over every assigned point of every
//! array, of a hash of (array name, global point, `f64::to_bits`). A sum
//! does not care in which order, or on which task, a point is visited, so
//! the same state digests identically on 4, 6 or 8 tasks — which an `f64`
//! sum, rounding differently per association, does not.

use drms_darray::DistArray;
use drms_msg::Ctx;

fn mix(mut z: u64) -> u64 {
    // SplitMix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn name_seed(name: &str) -> u64 {
    name.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

fn point_hash(seed: u64, point: &[i64], bits: u64) -> u64 {
    let h = point.iter().fold(seed, |h, &c| mix(h ^ c as u64));
    mix(h ^ bits)
}

/// This task's share of the digest: its assigned points only, so shadow
/// copies are never counted twice.
pub fn local<'a>(arrays: impl IntoIterator<Item = &'a DistArray<f64>>) -> u64 {
    arrays.into_iter().fold(0u64, |acc, a| {
        let seed = name_seed(a.name());
        a.fold_assigned(acc, |acc, p, v| acc.wrapping_add(point_hash(seed, p, v.to_bits())))
    })
}

/// Collective: the digest of the whole distributed state.
pub fn global<'a>(ctx: &mut Ctx, arrays: impl IntoIterator<Item = &'a DistArray<f64>>) -> u64 {
    let mine = local(arrays);
    let all = ctx.allgather_bytes(mine.to_le_bytes().to_vec());
    all.iter().fold(0u64, |acc, b| {
        acc.wrapping_add(u64::from_le_bytes(b[..8].try_into().expect("eight bytes per rank")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_darray::Distribution;
    use drms_msg::{run_spmd, CostModel};
    use drms_slices::{Order, Slice};

    fn value(p: &[i64]) -> f64 {
        (p[0] * 31 + p[1] * 7 + p[2]) as f64 * 0.37 + 1.0
    }

    fn digest_on(ntasks: usize, flip: Option<[i64; 3]>) -> u64 {
        let dom = Slice::boxed(&[(0, 4), (1, 12), (1, 10)]);
        let out = run_spmd(ntasks, CostModel::default(), |ctx| {
            let dist = Distribution::block_auto(&dom, ctx.ntasks(), 1).unwrap();
            let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist.clone(), ctx.rank());
            u.fill_mapped(value);
            if let Some(p) = flip {
                if u.assigned().contains(&p).unwrap() {
                    let v = u.get(&p).unwrap();
                    u.set(&p, f64::from_bits(v.to_bits() ^ 1)).unwrap();
                }
            }
            let mut w = DistArray::<f64>::new("w", Order::ColumnMajor, dist, ctx.rank());
            w.fill_mapped(|p| value(p) * 2.0);
            global(ctx, [&u, &w])
        })
        .unwrap();
        assert!(out.windows(2).all(|w| w[0] == w[1]), "every rank sees the same digest");
        out[0]
    }

    #[test]
    fn same_state_digests_equal_on_4_6_and_8_tasks() {
        let d4 = digest_on(4, None);
        assert_eq!(d4, digest_on(6, None));
        assert_eq!(d4, digest_on(8, None));
    }

    #[test]
    fn one_flipped_bit_changes_the_digest() {
        assert_ne!(digest_on(6, None), digest_on(6, Some([2, 5, 5])));
    }

    #[test]
    fn the_array_name_is_part_of_the_hash() {
        assert_ne!(point_hash(name_seed("u"), &[1, 2], 3), point_hash(name_seed("w"), &[1, 2], 3));
    }
}
