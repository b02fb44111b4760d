//! Host-side fan-out of one task's pure byte work over the idle cores.
//!
//! The tasks of a region are threads of one address space, and many
//! checkpoint steps run on one of them while its siblings wait at a
//! barrier: the representative task encoding and CRCing the data segment,
//! or decoding it at restart. [`spread`] cuts such a batch
//! into one part per host core and runs the parts on scoped threads that
//! have all joined before it returns. It never touches a [`crate::Ctx`] or
//! a clock, and every part's work is a pure function of its part, so where
//! a part ran never shows in a result — simulated time included.

use std::sync::OnceLock;

/// A batch holding at least this many bytes is split across the host's
/// cores. A smaller one runs on the calling thread: it takes well under a
/// millisecond, so starting threads would take back much of what splitting
/// saves.
pub const SPREAD_MIN: usize = 1 << 20;

/// Byte work is cut into pieces of at most this many bytes before it is
/// spread, so the parts come out even whatever the sizes of the buffers.
pub const SPREAD_PIECE: usize = 1 << 16;

/// The host's cores, asked once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `work` over `items` cut into contiguous parts and returns each
/// part's result, in order; `work` gets the index of its part's first item
/// too. Items holding fewer than [`SPREAD_MIN`] bytes (`bytes` sizes each)
/// make one part, run on the calling thread. A larger batch makes one part
/// per host core, each a multiple of four items; every part but the first
/// runs on a scoped thread, and all of them have joined when this returns.
/// `work` is a pure function of its part, so where a part ran never shows
/// in a result. The items are lent mutably, so a part may write through
/// them: a batch of `(source, destination)` pairs copies in parallel.
pub fn spread<T: Send, R: Send>(
    items: &mut [T],
    bytes: impl Fn(&T) -> usize,
    work: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let parts = cores().min(items.len().div_ceil(4));
    if parts <= 1 || items.iter().map(&bytes).sum::<usize>() < SPREAD_MIN {
        return vec![work(0, items)];
    }
    let per = items.len().div_ceil(4 * parts) * 4;
    let work = &work;
    std::thread::scope(|s| {
        let mut cut = items.chunks_mut(per).enumerate();
        let (_, first) = cut.next().expect("a non-empty batch");
        let others: Vec<_> = cut.map(|(k, part)| s.spawn(move || work(k * per, part))).collect();
        let mut out = vec![work(0, first)];
        for h in others {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// Copies every `(source, destination)` pair of equal length, cut into
/// [`SPREAD_PIECE`]s and [`spread`] over the host's cores.
pub fn copy_spread<'a>(pairs: impl IntoIterator<Item = (&'a [u8], &'a mut [u8])>) {
    let mut pieces: Vec<(&[u8], &mut [u8])> = pairs
        .into_iter()
        .flat_map(|(src, dst)| {
            assert_eq!(src.len(), dst.len(), "copy_spread: source vs destination length");
            src.chunks(SPREAD_PIECE).zip(dst.chunks_mut(SPREAD_PIECE))
        })
        .collect();
    spread(
        &mut pieces,
        |(src, _)| src.len(),
        |_, part| {
            for (src, dst) in part {
                dst.copy_from_slice(src);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_cover_the_batch_in_order_on_both_sides_of_the_threshold() {
        for n in [SPREAD_MIN / 4096 - 1, SPREAD_MIN / 4096, 3 * SPREAD_MIN / 4096 + 3] {
            let mut items: Vec<usize> = (0..n).collect();
            let firsts = spread(&mut items, |_| 4096, |base, part| (base, part.to_vec()));
            let mut seen = Vec::new();
            for (base, part) in firsts {
                assert_eq!(part.first().copied().unwrap_or(base), base);
                seen.extend(part);
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n {n}");
        }
    }

    #[test]
    fn copy_spread_copies_every_pair() {
        let srcs: Vec<Vec<u8>> = [0, 1, 70_000, SPREAD_MIN + 5]
            .iter()
            .map(|&n| (0..n).map(|i| i as u8).collect())
            .collect();
        let mut dsts: Vec<Vec<u8>> = srcs.iter().map(|s| vec![0xEE; s.len()]).collect();
        copy_spread(srcs.iter().map(Vec::as_slice).zip(dsts.iter_mut().map(Vec::as_mut_slice)));
        assert_eq!(dsts, srcs);
    }
}
