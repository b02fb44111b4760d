//! A restart loads the application text without copying it: every task's
//! priced read of `bin/{app}` hands back the one stored text, so no
//! allocation the size of the text happens while tasks restart. Its own
//! test binary, so the allocation meter sees no other test's buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use drms_core::segment::DataSegment;
use drms_core::{Drms, DrmsConfig, EnableFlag, Start};
use drms_darray::{DistArray, Distribution};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};
use drms_slices::{Order, Slice};

/// The installed text's size, class A's.
const TEXT_BYTES: usize = 8 << 20;

/// The system allocator, counting the allocations of at least
/// [`TEXT_BYTES`] any thread makes while armed.
struct Metered;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= TEXT_BYTES && ARMED.load(Ordering::SeqCst) {
        LARGE.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; metering only
// reads the requested size.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, and the caller's contract for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static METERED: Metered = Metered;

#[test]
fn restart_reads_the_text_without_copying_it() {
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 3);
    let mut cfg = DrmsConfig::new("text");
    cfg.text_bytes = TEXT_BYTES as u64;
    Drms::install_binary(&fs, &cfg);
    let domain = Slice::boxed(&[(1, 64)]);
    run_spmd(4, CostModel::default(), |ctx| {
        let (mut drms, _) =
            Drms::initialize(ctx, &fs, cfg.clone(), EnableFlag::new(), None).unwrap();
        let dist = Distribution::block_auto(&domain, ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        u.fill_assigned(|p| p[0] as f64);
        drms.reconfig_checkpoint(ctx, &fs, "ck/text", &DataSegment::new(), &[&u]).unwrap();
    })
    .unwrap();

    ARMED.store(true, Ordering::SeqCst);
    let restarted = run_spmd(4, CostModel::default(), |ctx| {
        let (_, start) =
            Drms::initialize(ctx, &fs, cfg.clone(), EnableFlag::new(), Some("ck/text")).unwrap();
        matches!(start, Start::Restarted(_))
    });
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(restarted.unwrap(), vec![true; 4]);
    assert_eq!(
        LARGE.load(Ordering::SeqCst),
        0,
        "allocations of at least the {TEXT_BYTES}-byte text during the restart"
    );
}
