//! The moving-band delta toy the delta campaigns share: a 2048-point array
//! on 4 tasks in which one band of 256 points moves on by a band each
//! iteration, so a link of the chain stores only the bands touched since
//! the last one. Links are taken at iterations 3, 6 and 9, blocking or
//! overlapped.

use std::sync::Arc;

use drms::async_ckpt::{AsyncCheckpointer, AsyncConfig};
use drms::chaos::ChaosCtl;
use drms::core::segment::DataSegment;
use drms::core::{CheckpointArray, Drms, DrmsConfig, EnableFlag, Start};
use drms::darray::{DistArray, Distribution};
use drms::delta::{delta_checkpoint, restore_arrays_delta, resume, DeltaChain, DeltaConfig};
use drms::msg::{CostModel, Ctx, Spmd};
use drms::piofs::{Piofs, PiofsConfig};
use drms::slices::{Order, Slice};

const NTASKS: usize = 4;
const NITER: i64 = 9;
const CKPT_EVERY: i64 = 3; // delta links at iterations 3, 6, 9
const N: i64 = 2048;
const BAND: i64 = 256;

/// One run of the toy job: the application name its manifests carry, the
/// stem its link prefixes start with (`{stem}{iter}`), and whether links
/// go through an [`AsyncCheckpointer`] (budget 2, drained before the
/// final sum) or through the blocking `delta_checkpoint`.
pub struct DeltaToy {
    pub app: &'static str,
    pub stem: &'static str,
    pub overlapped: bool,
}

/// The file system every toy run starts from.
pub fn fs() -> Arc<Piofs> {
    Piofs::new(PiofsConfig::test_tiny(8), 17)
}

fn dcfg() -> DeltaConfig {
    DeltaConfig { chunk_bytes: 1024, full_every: 8, compress: true }
}

fn domain() -> Slice {
    Slice::boxed(&[(1, N)])
}

fn touched(p: &[i64], iter: i64) -> bool {
    (p[0] - 1) / BAND == iter % (N / BAND)
}

fn truth(p: &[i64], iter: i64) -> f64 {
    let mut v = (p[0] * 7 + 2) as f64;
    for t in 1..=iter {
        if touched(p, t) {
            v += 0.25;
        }
    }
    v
}

impl DeltaToy {
    /// The global final sum of an uninterrupted run.
    pub fn reference() -> f64 {
        let mut total = 0.0;
        domain().points(Order::ColumnMajor).for_each(|p| total += truth(p, NITER));
        total
    }

    /// One incarnation: initialize (fresh or from `restart_from`), iterate
    /// to the end with a delta link every third iteration, die cleanly on
    /// an injected crash. Returns the global final sum when the incarnation
    /// completed, `None` when it crashed.
    pub fn incarnation(
        &self,
        f: &Arc<Piofs>,
        ctl: Option<Arc<ChaosCtl>>,
        restart_from: Option<&str>,
    ) -> Option<f64> {
        let cfg = || DrmsConfig::new(self.app);
        let body = |ctx: &mut Ctx| {
            let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
            let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
            let mut seg = DataSegment::new();
            let mut start_iter = 1i64;
            let mut chain;
            let mut drms = match restart_from {
                None => {
                    let (drms, _) =
                        Drms::initialize(ctx, f, cfg(), EnableFlag::new(), None).unwrap();
                    chain = DeltaChain::new();
                    u.fill_assigned(|p| truth(p, 0));
                    drms
                }
                Some(prefix) => {
                    let (drms, start) = resume(ctx, f, cfg(), EnableFlag::new(), prefix).unwrap();
                    let Start::Restarted(info) = start else { panic!("expected restart") };
                    seg = info.segment.clone();
                    start_iter = seg.control("iter").unwrap() + 1;
                    restore_arrays_delta(&drms, ctx, f, prefix, &info.manifest, &mut [&mut u])
                        .unwrap();
                    chain = DeltaChain::recover(prefix, &info.manifest).unwrap();
                    drms
                }
            };
            let mut overlapped =
                self.overlapped.then(|| AsyncCheckpointer::new(AsyncConfig { budget: 2 }));
            for iter in start_iter..=NITER {
                let region = u.assigned().clone();
                region.points(Order::ColumnMajor).for_each(|p| {
                    if touched(p, iter) {
                        let v = u.get(p).unwrap();
                        u.set(p, v + 0.25).unwrap();
                    }
                });
                seg.set_control("iter", iter);
                if iter % CKPT_EVERY == 0 {
                    let (prefix, dcfg) = (format!("{}{iter}", self.stem), dcfg());
                    let (chain, arrays) = (&mut chain, [&u as &dyn CheckpointArray]);
                    let failed = match &mut overlapped {
                        Some(ck) => ck
                            .checkpoint_delta(
                                ctx, f, &mut drms, chain, &dcfg, &prefix, &seg, &arrays,
                            )
                            .err(),
                        None => delta_checkpoint(
                            &mut drms, chain, &dcfg, ctx, f, &prefix, &seg, &arrays,
                        )
                        .err(),
                    };
                    match failed {
                        None => {}
                        Some(e) if e.is_interrupted() => return None,
                        Some(e) => panic!("delta checkpoint failed: {e}"),
                    }
                }
            }
            if let Some(ck) = &mut overlapped {
                ck.drain(ctx);
            }
            Some(u.fold_assigned(0.0, |acc, _, v| acc + v))
        };
        let sums = Spmd::new(NTASKS, CostModel::default()).chaos(ctl).run(body).unwrap();
        let mut total = 0.0;
        for s in sums {
            total += s?;
        }
        Some(total)
    }
}
