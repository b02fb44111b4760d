//! Copy-on-write snapshots: the state at an SOP, captured once.
//!
//! A [`Snapshot`] is fully materialized at capture time — encoded segment
//! bytes on rank 0, owned copies of every canonical stream piece on the
//! rank that produced them, and the manifest metadata needed to seal or
//! publish the checkpoint. It is the one capture both [`store_checkpoint`]
//! (which seals it into the tier at once) and the asynchronous pipeline's
//! background flush (which drains it later) use, so whatever touches a
//! snapshot's bytes never reads application state again: the application
//! is free to mutate its arrays the moment [`Snapshot::capture`] returns.
//!
//! [`store_checkpoint`]: crate::store_checkpoint

use std::sync::Arc;

use drms_core::manifest::{ArrayEntry, CkptKind, FileIntegrity, Manifest};
use drms_core::segment::DataSegment;
use drms_core::wire::crc32;
use drms_core::{encode_segment_with_locals, CheckpointArray, Drms, Result};
use drms_msg::Ctx;

use crate::store::{array_file, CapturedPiece, SEGMENT_FILE};

/// One captured piece of a canonical stream. The bytes are shared from
/// capture on, so handing the piece to the tier copies a pointer.
#[derive(Debug, Clone)]
pub struct SnapshotPiece {
    /// Byte offset within the stream.
    pub offset: u64,
    /// The piece's bytes.
    pub data: Arc<Vec<u8>>,
}

/// One array's captured state: manifest metadata plus this task's owned
/// copies of its canonical stream pieces.
#[derive(Debug, Clone)]
pub struct ArraySnapshot {
    /// Manifest identity at capture time (the name keys the stream file).
    pub entry: ArrayEntry,
    /// Size of the full distribution-independent stream in bytes.
    pub stream_bytes: u64,
    /// This task's pieces of the canonical stream.
    pub pieces: Vec<SnapshotPiece>,
}

/// Everything one SOP's checkpoint needs, captured and owned.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Application name (for the manifest).
    pub app: String,
    /// SOP number the snapshot was taken at.
    pub sop: u64,
    /// Task count of the capturing region.
    pub ntasks: usize,
    /// Encoded data segment (rank 0 only; `None` elsewhere).
    pub segment: Option<Vec<u8>>,
    /// Captured arrays, in declaration order.
    pub arrays: Vec<ArraySnapshot>,
    /// Stream bytes captured across all tasks (same value everywhere).
    pub total_bytes: u64,
}

impl Snapshot {
    /// Captures the application state at the current SOP (collective):
    /// rank 0 encodes the data segment **with** the local-sections region
    /// — the layout [`Drms::reconfig_checkpoint`] writes, so the committed
    /// checkpoint restores through unmodified [`Drms::initialize`] — and
    /// every task copies its pieces of each array's canonical stream. The
    /// copy is priced at memory bandwidth; stream-piece gathering pays the
    /// usual collective price.
    pub fn capture(
        ctx: &mut Ctx,
        drms: &Drms,
        base_segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<Snapshot> {
        let cfg = drms.cfg();
        let mut segment = None;
        let mut local_bytes = 0u64;
        if ctx.rank() == 0 {
            let bytes = encode_segment_with_locals(base_segment, arrays, cfg.fixed_local_bytes);
            local_bytes += bytes.len() as u64;
            segment = Some(bytes);
        }
        let mut snaps = Vec::with_capacity(arrays.len());
        for a in arrays {
            let pieces: Vec<SnapshotPiece> = a
                .stream_pieces(ctx, ctx.ntasks())?
                .into_iter()
                .map(|p| SnapshotPiece { offset: p.offset, data: Arc::new(p.data) })
                .collect();
            local_bytes += pieces.iter().map(|p| p.data.len() as u64).sum::<u64>();
            snaps.push(ArraySnapshot {
                entry: ArrayEntry::of(*a),
                stream_bytes: a.stream_bytes(),
                pieces,
            });
        }
        // The snapshot copy is the one checkpoint cost that stays on the
        // critical path: price it at memory bandwidth.
        ctx.charge(local_bytes as f64 / ctx.cost().memcpy_bw);
        // Free rendezvous for the total (deterministic, no clock cost).
        let (per_task, _) = ctx.exchange(local_bytes);
        let total_bytes = per_task.iter().sum();
        Ok(Snapshot {
            app: cfg.app.clone(),
            sop: drms.sop(),
            ntasks: ctx.ntasks(),
            segment,
            arrays: snaps,
            total_bytes,
        })
    }

    /// The manifest this snapshot publishes, with the given integrity
    /// records (empty for a tier seal; staged-file CRCs for PIOFS).
    pub fn manifest(&self, integrity: Vec<FileIntegrity>) -> Manifest {
        Manifest {
            app: self.app.clone(),
            kind: CkptKind::Drms,
            ntasks: self.ntasks,
            sop: self.sop,
            arrays: self.arrays.iter().map(|a| a.entry.clone()).collect(),
            integrity,
            deltas: Vec::new(),
        }
    }

    /// Stream files and their full lengths, in manifest order (meaningful
    /// on rank 0, which holds the segment).
    pub fn file_lens(&self) -> Vec<(String, u64)> {
        let seg_len = self.segment.as_ref().map_or(0, |b| b.len() as u64);
        let mut lens = vec![(SEGMENT_FILE.to_string(), seg_len)];
        for a in &self.arrays {
            lens.push((array_file(&a.entry.name), a.stream_bytes));
        }
        lens
    }

    /// This task's captured pieces as memory-tier pieces: the segment cut
    /// into `piece_bytes` chunks on rank 0, array pieces as captured
    /// (sharing their bytes).
    pub fn tier_pieces(&self, piece_bytes: usize) -> Vec<CapturedPiece> {
        let mut out = Vec::new();
        if let Some(seg) = &self.segment {
            let mut off = 0u64;
            for chunk in seg.chunks(piece_bytes.max(1)) {
                let data = Arc::new(chunk.to_vec());
                let crc = crc32(&data);
                out.push(CapturedPiece { file: SEGMENT_FILE.to_string(), offset: off, data, crc });
                off += chunk.len() as u64;
            }
        }
        for a in &self.arrays {
            let file = array_file(&a.entry.name);
            for p in &a.pieces {
                let crc = crc32(&p.data);
                let data = Arc::clone(&p.data);
                out.push(CapturedPiece { file: file.clone(), offset: p.offset, data, crc });
            }
        }
        out
    }
}
