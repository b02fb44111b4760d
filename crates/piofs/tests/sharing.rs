//! The read side's sharing contract. A read hands out a [`Stored`] handle
//! that shares the file's stored bytes; it is taken under the file-system
//! lock and used after the lock is dropped. A write copies the stored bytes
//! only while some handle still holds them, so a handle keeps what the file
//! held when it was read, and its holder may call back into the `Piofs`.

use std::sync::Arc;

use drms_msg::{run_spmd, run_spmd_traced, CostModel, Ctx};
use drms_obs::{names, Recorder, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig, ReadAccess, ReadReq, Stored, WriteReq};

const LEN: usize = 10_000;

fn body(salt: u8) -> Vec<u8> {
    (0..LEN).map(|i| (i % 251) as u8 ^ salt).collect()
}

fn read(path: &str, offset: u64, len: u64) -> ReadReq {
    ReadReq { path: path.into(), offset, len, access: ReadAccess::Sequential }
}

/// Runs `f` on one task of a region with a free cost model.
fn solo<R: Send>(f: impl Fn(&mut Ctx) -> R + Sync) -> R {
    run_spmd(1, CostModel::free(), f).unwrap().pop().unwrap()
}

/// A fresh file system holding `body(salt)` under `f`, adopted from an
/// owned buffer; returns the address of that buffer.
fn adopted(salt: u8) -> (Arc<Piofs>, usize) {
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
    fs.create("f", LEN as u64);
    let at = solo(|ctx| {
        let data = body(salt);
        let at = data.as_ptr() as usize;
        fs.write_at(ctx, "f", 0, data);
        at
    });
    (fs, at)
}

#[test]
fn an_intact_read_shares_the_stored_buffer() {
    let (fs, at) = adopted(1);
    let whole = fs.bytes("f").unwrap();
    assert_eq!(whole.as_ptr() as usize, at, "the handle is the adopted buffer, not a copy");
    let part = solo(|ctx| {
        let got = fs.collective_read(ctx, vec![read("f", 300, 4_000)]).unwrap();
        got[0].as_ptr() as usize
    });
    assert_eq!(part, at + 300, "a range shares the buffer at its offset");
}

#[test]
fn a_handle_held_across_a_rewrite_keeps_the_old_bytes() {
    let (fs, _) = adopted(1);
    let held = fs.bytes("f").unwrap();
    // Overwritten in place, then truncated and rewritten whole.
    solo(|ctx| fs.write_at(ctx, "f", 100, &body(2)[..500]));
    assert_eq!(*held, body(1));
    let mut want = body(1);
    want[100..600].copy_from_slice(&body(2)[..500]);
    assert_eq!(fs.peek("f").unwrap(), want);
    fs.create("f", LEN as u64);
    solo(|ctx| fs.write_at(ctx, "f", 0, body(3)));
    assert_eq!(*held, body(1));
    assert_eq!(fs.peek("f").unwrap(), body(3));
}

#[test]
fn a_handle_holder_may_call_back_into_the_file_system() {
    let (fs, at) = adopted(1);
    solo(|ctx| {
        let held = fs.bytes("f").unwrap();
        assert_eq!(fs.size("f").unwrap(), LEN as u64);
        fs.write_at(ctx, "f", 0, &[9u8; 10][..]);
        // The write copied the stored bytes away from the handle.
        assert_eq!(held.as_ptr() as usize, at);
        assert_ne!(fs.bytes("f").unwrap().as_ptr() as usize, at);
        assert_eq!(&fs.peek("f").unwrap()[..10], &[9u8; 10]);
        assert_eq!(*held, body(1));
    });
}

#[test]
fn a_write_after_every_handle_is_dropped_does_not_copy() {
    let (fs, at) = adopted(1);
    let held: Vec<Stored> = (0..3).map(|_| fs.bytes("f").unwrap()).collect();
    drop(held);
    solo(|ctx| fs.write_at(ctx, "f", 200, &[7u8; 64][..]));
    assert_eq!(fs.bytes("f").unwrap().as_ptr() as usize, at, "written in place");
}

#[test]
fn a_read_past_a_lost_server_returns_and_counts_the_rebuilt_bytes() {
    const TASKS: usize = 3;
    let fs = Piofs::new(PiofsConfig::test_tiny(4).with_parity(), 3);
    fs.preload("f", body(1));
    let lost = fs.fail_server(2);
    assert!(lost > 0 && fs.lost_bytes("f") == lost);
    assert_eq!(fs.bytes("f").as_deref(), Some(&body(1)[..]));
    let rec = Arc::new(TraceRecorder::new());
    let sink = Arc::clone(&rec) as Arc<dyn Recorder>;
    let got = run_spmd_traced(TASKS, CostModel::free(), sink, |ctx| {
        fs.collective_read(ctx, vec![read("f", 0, LEN as u64)]).unwrap()[0].to_vec()
    })
    .unwrap();
    assert!(got.iter().all(|g| *g == body(1)));
    // Every task rebuilt every lost byte of the file it read whole.
    assert_eq!(rec.metrics().counter_total(names::RECONSTRUCTED_BYTES), TASKS as u64 * lost);
}

/// Each rank holds its handle across two barriers, between which a
/// neighbour rewrites its file. A read that ran its caller's code under the
/// file-system lock could not be held across a barrier at all.
#[test]
fn ranks_hold_their_handles_across_a_barrier() {
    const TASKS: usize = 4;
    let fs = Piofs::new(PiofsConfig::test_tiny(4), 3);
    let file = |r: usize| format!("task-{r}");
    run_spmd(TASKS, CostModel::free(), |ctx| {
        let r = ctx.rank();
        fs.create(&file(r), LEN as u64);
        fs.collective_write(ctx, vec![WriteReq { path: file(r), offset: 0, data: body(r as u8) }]);
        let held = fs.collective_read(ctx, vec![read(&file(r), 0, LEN as u64)]).unwrap();
        ctx.barrier();
        let next = (r + 1) % TASKS;
        fs.write_at(ctx, &file(next), 0, body(0x80 | next as u8));
        ctx.barrier();
        assert_eq!(*held[0], body(r as u8));
        assert_eq!(fs.peek(&file(r)).unwrap(), body(0x80 | r as u8));
    })
    .unwrap();
}
