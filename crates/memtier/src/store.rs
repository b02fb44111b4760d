//! Collective store into the memory tier and verified spill to PIOFS.
//!
//! `store_checkpoint` is the diskless sibling of
//! `Drms::reconfig_checkpoint`: the same SOP numbering, the same canonical
//! stream pieces, the same manifest encoding — but the pieces land in node
//! memory (owner copy plus `r` replicas scattered over the interconnect)
//! instead of PIOFS files. `spill_checkpoint` later writes the resident
//! pieces out to the same files the direct checkpoint path would have
//! produced, stamps the manifest with file-integrity records, and verifies
//! the result end-to-end before calling the checkpoint durable — so a
//! spilled checkpoint is bitwise indistinguishable from one written through
//! PIOFS directly.
//!
//! All replication traffic moves through [`drms_msg::Ctx::alltoallv`], so
//! its virtual-time price follows the same deterministic cost model as
//! every other message in the simulation. A replica crosses as a handle to
//! the owner's shared bytes, priced at the length of its wire encoding
//! ([`CapturedPiece`]'s [`Parcel`] impl): holders share one buffer, and no
//! byte is encoded, copied or decoded on the way.

use std::collections::BTreeMap;
use std::sync::Arc;

use drms_core::manifest::{manifest_path, Manifest};
use drms_core::segment::DataSegment;
use drms_core::wire::crc32;
use drms_core::{compute_integrity, CheckpointArray, CoreError, Drms, Result};
use drms_msg::{Ctx, Parcel};
use drms_obs::{names, Phase};
use drms_piofs::{Piofs, WriteReq};

use crate::placement;
use crate::snapshot::Snapshot;
use crate::tier::MemTier;

/// Name of the data-segment stream within a tier entry (matches the
/// `{prefix}/segment` file of the PIOFS layout).
pub const SEGMENT_FILE: &str = "segment";

/// What one memory-tier store did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreReport {
    /// Wall-clock (simulated) seconds from first to last barrier.
    pub seconds: f64,
    /// SOP number the checkpoint was taken at.
    pub sop: u64,
    /// Unique stream bytes captured (segment plus all arrays).
    pub bytes: u64,
    /// Bytes scattered to replica nodes over the interconnect.
    pub replica_bytes: u64,
    /// Stream pieces captured across all tasks.
    pub pieces: u64,
}

/// What one spill to PIOFS did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillReport {
    /// Wall-clock (simulated) seconds from first to last barrier.
    pub seconds: f64,
    /// Data bytes written to PIOFS (manifest excluded).
    pub bytes: u64,
}

/// Stream-file name of a checkpoint array within a tier entry.
pub fn array_file(name: &str) -> String {
    format!("array-{name}")
}

/// One pre-captured stream piece handed to [`store_captured`]: the tier
/// file it belongs to, its stream offset, its bytes and their CRC
/// ([`Snapshot::tier_pieces`] cuts a capture into these). The asynchronous
/// checkpoint pipeline captures at the SOP (pricing the copy there) and
/// replicates the pieces into the tier from its background flusher.
#[derive(Debug, Clone)]
pub struct CapturedPiece {
    /// Tier stream file ([`SEGMENT_FILE`] or [`array_file`]).
    pub file: String,
    /// Byte offset within the stream.
    pub offset: u64,
    /// The piece's bytes (shared — the tier never duplicates per holder).
    pub data: Arc<Vec<u8>>,
    /// CRC32 of `data`.
    pub crc: u32,
}

/// A piece crossing to a replica holder is priced at the bytes its wire
/// encoding takes — `file` as a length-prefixed string, `offset`, `crc`,
/// and `data` as a length-prefixed blob — while the receiver shares the
/// owner's buffer.
impl Parcel for CapturedPiece {
    fn wire_len(&self) -> usize {
        4 + self.file.len() + 8 + 4 + 8 + self.data.len()
    }
}

/// The replicas one task addresses to one holder, in send order.
#[derive(Default)]
struct Replicas(Vec<CapturedPiece>);

impl Parcel for Replicas {
    fn wire_len(&self) -> usize {
        self.0.iter().map(Parcel::wire_len).sum()
    }
}

/// Whether a store into `tier` can satisfy its replication factor on the
/// calling region's node set. A pure function of the region topology every
/// task shares — no communication — so jobs can agree to degrade to a
/// direct PIOFS checkpoint when the region has shrunk below `replicas + 1`
/// distinct nodes.
pub fn store_feasible(ctx: &Ctx, tier: &MemTier) -> bool {
    let (_, nodes) = node_map(ctx);
    placement::replication_feasible(nodes.len(), tier.replicas())
}

fn node_map(ctx: &Ctx) -> (BTreeMap<usize, usize>, Vec<usize>) {
    // Lowest rank per node does the tier's node-level work (receiving
    // replicas, writing spill pieces).
    let mut rank_of_node = BTreeMap::new();
    for r in 0..ctx.ntasks() {
        rank_of_node.entry(ctx.node_of(r)).or_insert(r);
    }
    let nodes = rank_of_node.keys().copied().collect();
    (rank_of_node, nodes)
}

/// `drms_reconfig_checkpoint` into the memory tier (collective): advances
/// the SOP, captures the representative data segment (rank 0) and every
/// array's canonical stream pieces, keeps the owner copy on each piece's
/// node, and scatters `tier.replicas()` additional copies to distinct other
/// nodes in one priced `alltoallv`. The entry is sealed under `prefix` with
/// the same manifest a PIOFS checkpoint would carry (integrity records
/// empty — per-piece CRCs protect resident data).
///
/// Errors before any communication when the replication factor is not
/// satisfiable on the region's node set, identically on every task.
pub fn store_checkpoint(
    ctx: &mut Ctx,
    tier: &MemTier,
    prefix: &str,
    drms: &mut Drms,
    base_segment: &DataSegment,
    arrays: &[&dyn CheckpointArray],
) -> Result<StoreReport> {
    let sop = drms.advance_sop();
    let drms = &*drms;
    store_with(ctx, tier, prefix, &drms.cfg().app, sop, |ctx| {
        // The same capture the asynchronous pipeline takes; sealing it at
        // once keeps its memory-bandwidth charge inside the store window.
        let snap = Snapshot::capture(ctx, drms, base_segment, arrays)?;
        // The same manifest a PIOFS checkpoint would carry, minus integrity
        // records; only rank 0's copy is sealed.
        let manifest = snap.manifest(Vec::new()).encode();
        Ok((manifest, snap.file_lens(), snap.tier_pieces(tier.piece_bytes())))
    })
}

/// Replicates **pre-captured** pieces into the tier and seals the entry
/// (collective): the capture itself — gathering canonical streams and
/// pricing the copy — already happened at the caller's snapshot point, so
/// this function only moves bytes: owner copies land on each piece's node,
/// `tier.replicas()` additional copies scatter over the interconnect in one
/// priced `alltoallv`, and rank 0 seals under the supplied manifest. This
/// is the tier half of the asynchronous flush pipeline; a blocking
/// [`store_checkpoint`] captures and replicates in one call instead.
///
/// Every task passes its own `local` pieces; `app`, `sop`, `manifest` and
/// `file_lens` are meaningful on rank 0 only. Errors identically on every
/// task when replication is not feasible, a piece conflicts with another
/// task's bytes for the same stream range, or sealing fails.
#[allow(clippy::too_many_arguments)]
pub fn store_captured(
    ctx: &mut Ctx,
    tier: &MemTier,
    prefix: &str,
    app: &str,
    sop: u64,
    manifest: Vec<u8>,
    file_lens: &[(String, u64)],
    local: Vec<CapturedPiece>,
) -> Result<StoreReport> {
    store_with(ctx, tier, prefix, app, sop, |_| Ok((manifest, file_lens.to_vec(), local)))
}

/// What a store seals and replicates: the encoded manifest and stream-file
/// lengths (read on rank 0 only) and the calling task's pieces.
type Captured = (Vec<u8>, Vec<(String, u64)>, Vec<CapturedPiece>);

/// The one store body: feasibility check, fresh tier entry, `capture` (run
/// between the entry barrier and the inserts, so whatever it prices lands
/// inside the reported window), replica scatter, owner and replica
/// inserts, seal vote.
/// A conflicting insert on any task does not end that task early — its
/// siblings would stall in the scatter — but joins the vote, so every task
/// returns the same error.
fn store_with(
    ctx: &mut Ctx,
    tier: &MemTier,
    prefix: &str,
    app: &str,
    sop: u64,
    capture: impl FnOnce(&mut Ctx) -> Result<Captured>,
) -> Result<StoreReport> {
    let (rank_of_node, node_set) = node_map(ctx);
    if !placement::replication_feasible(node_set.len(), tier.replicas()) {
        return Err(CoreError::ReplicationUnsatisfiable {
            replicas: tier.replicas(),
            nodes: node_set.len(),
        });
    }
    ctx.barrier();
    let t0 = ctx.now();
    // A fresh store replaces any previous entry under this prefix: a
    // different task count means a different piece plan, and plans must
    // never mix.
    if ctx.rank() == 0 {
        tier.begin(prefix);
    }
    ctx.barrier();

    let (manifest, file_lens, local) = capture(ctx)?;
    let my_node = ctx.node();
    let my_bytes: u64 = local.iter().map(|p| p.data.len() as u64).sum();

    // Replication scatter: one priced alltoallv carrying every replica,
    // addressed to the lowest rank of each chosen node. Placement keys on
    // (file, offset) so the rotation spreads load across pieces.
    let mut outgoing: Vec<Replicas> = (0..ctx.ntasks()).map(|_| Replicas::default()).collect();
    let mut my_replica_bytes = 0u64;
    for p in &local {
        let key = u64::from(crc32(p.file.as_bytes())).wrapping_add(p.offset);
        for node in placement::replica_nodes(my_node, &node_set, tier.replicas(), key)? {
            outgoing[rank_of_node[&node]].0.push(p.clone());
            my_replica_bytes += p.data.len() as u64;
        }
    }
    let incoming = ctx.alltoallv(outgoing);

    // Owner copies, then the replicas received. The first insert this task
    // cannot make goes to the vote below.
    let received =
        (0..ctx.ntasks()).filter(|&src| src != ctx.rank()).flat_map(|src| &incoming.from(src).0);
    let insert_err = local
        .iter()
        .chain(received)
        .find_map(|p| tier.insert_piece(prefix, &p.file, p.offset, &p.data, p.crc, my_node).err());

    // Free rendezvous for the report totals and every task's insert
    // outcome (deterministic, no clock cost).
    let (per_task, _) = ctx.exchange((my_bytes, my_replica_bytes, local.len() as u64, insert_err));
    let bytes: u64 = per_task.iter().map(|x| x.0).sum();
    let replica_bytes: u64 = per_task.iter().map(|x| x.1).sum();
    let pieces: u64 = per_task.iter().map(|x| x.2).sum();
    let insert_err = per_task.iter().find_map(|x| x.3.clone());

    // All inserts done: rank 0 seals (identity + coverage check) unless an
    // insert failed anywhere, and the outcome is shared so every task fails
    // identically.
    ctx.barrier();
    let verdict = match insert_err {
        Some(err) => Some(err),
        None if ctx.rank() == 0 => tier
            .seal(prefix, app, sop, manifest, &file_lens)
            .err()
            .map(|e| CoreError::Incomplete(e.to_string())),
        None => None,
    };
    let (votes, t) = ctx.exchange(verdict);
    ctx.advance_to(t);
    ctx.barrier();
    let t1 = ctx.now();

    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.span_start(t0, 0, Phase::MemTier, "store");
        rec.span_end(t1, 0, Phase::MemTier, "store");
        rec.event(t1, 0, Phase::MemTier, &format!("MemTierStore {prefix}"));
        rec.counter_add_at(t1, 0, names::MEMTIER_STORE_BYTES, None, bytes);
        rec.counter_add_at(t1, 0, names::MEMTIER_REPLICA_BYTES, None, replica_bytes);
        if let Some(r) = tier.min_replicas(prefix) {
            rec.gauge_set_at(t1, 0, names::MEMTIER_REPLICAS, 0, r as f64);
        }
    }
    if let Some(err) = votes[0].clone() {
        return Err(err);
    }
    Ok(StoreReport { seconds: t1 - t0, sop, bytes, replica_bytes, pieces })
}

/// Writes every resident piece of a sealed tier entry into the **staged**
/// PIOFS prefix (`{prefix}.tmp/...`) through the priced collective-write
/// path, without touching manifests: the asynchronous flusher owns the
/// two-phase publish tail (staged manifest → `publish_data` →
/// `publish_manifest`), so a crash mid-spill leaves only staged debris for
/// the orphan sweep. Each piece is written by the lowest rank on its first
/// holder node, exactly like [`spill_checkpoint`]. Returns data bytes
/// written across all tasks.
pub fn spill_to_staging(ctx: &mut Ctx, fs: &Piofs, tier: &MemTier, prefix: &str) -> Result<u64> {
    let staging = drms_core::commit::staging_prefix(prefix);
    let my_bytes = write_resident_pieces(ctx, fs, tier, prefix, &staging)?;
    let (per_task, _) = ctx.exchange(my_bytes);
    Ok(per_task.iter().sum())
}

/// Writes every resident piece of the sealed entry `prefix` to `{dir}/{file}`
/// through the priced collective-write path, each by the lowest rank on its
/// first holder node (orphaned holders fall to rank 0 — possible when the
/// region shrank since the store). Returns the bytes this task wrote.
fn write_resident_pieces(
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: &MemTier,
    prefix: &str,
    dir: &str,
) -> Result<u64> {
    let pieces = tier.pieces_for_spill(prefix)?;
    let (rank_of_node, _) = node_map(ctx);

    if ctx.rank() == 0 {
        // A sealed entry's pieces tile each file exactly.
        let mut lens: BTreeMap<&str, u64> = BTreeMap::new();
        for p in &pieces {
            *lens.entry(&p.file).or_default() += p.data.len() as u64;
        }
        for (file, len) in lens {
            fs.create(&format!("{dir}/{file}"), len);
        }
    }
    ctx.barrier();

    // The tier's pieces are lent to the store, never cloned.
    let my_reqs: Vec<WriteReq<&[u8]>> = pieces
        .iter()
        .filter(|p| *rank_of_node.get(&p.primary).unwrap_or(&0) == ctx.rank())
        .map(|p| WriteReq {
            path: format!("{dir}/{}", p.file),
            offset: p.offset,
            data: &p.data[..],
        })
        .collect();
    let my_bytes: u64 = my_reqs.iter().map(|r| r.data.len() as u64).sum();
    fs.collective_write(ctx, my_reqs);
    ctx.barrier();
    Ok(my_bytes)
}

/// Persists a sealed tier entry to PIOFS (collective): every resident piece
/// is written to `{prefix}/{file}` by the lowest rank on its first holder
/// node through the priced collective-write path, the manifest — rewritten
/// with file-integrity records — lands last, and the result is verified
/// end-to-end ([`drms_resil::verify_checkpoint`]) before the spill
/// reports success. On verification failure the manifest is deleted again
/// (the half-spilled data is orphaned, reclaimable by
/// [`drms_core::sweep_orphans`]) and every task gets the error.
pub fn spill_checkpoint(
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: &MemTier,
    prefix: &str,
) -> Result<SpillReport> {
    ctx.barrier();
    let t0 = ctx.now();
    let my_bytes = write_resident_pieces(ctx, fs, tier, prefix, prefix)?;

    // Manifest last — its arrival makes the checkpoint visible — then
    // verify end-to-end before trusting the spill.
    let verdict: Option<String> = if ctx.rank() == 0 {
        finish_spill(ctx, fs, tier, prefix).err().map(|e| e.to_string())
    } else {
        None
    };
    let (votes, t) = ctx.exchange(verdict);
    ctx.advance_to(t);
    ctx.barrier();
    let t1 = ctx.now();

    let (per_task, _) = ctx.exchange(my_bytes);
    let bytes: u64 = per_task.iter().sum();
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.span_start(t0, 0, Phase::Spill, "spill");
        rec.span_end(t1, 0, Phase::Spill, "spill");
        rec.counter_add_at(t1, 0, names::MEMTIER_SPILL_BYTES, None, bytes);
        rec.gauge_set_at(t1, 0, names::MEMTIER_SPILL_SECONDS, 0, t1 - t0);
    }
    if let Some(err) = votes[0].clone() {
        return Err(CoreError::SpillVerify(err));
    }
    Ok(SpillReport { seconds: t1 - t0, bytes })
}

fn finish_spill(ctx: &mut Ctx, fs: &Piofs, tier: &MemTier, prefix: &str) -> Result<()> {
    let mut m = Manifest::decode(&tier.manifest_bytes(prefix)?)?;
    m.integrity = compute_integrity(fs, prefix);
    let bytes = m.encode();
    // Two-phase: stage the manifest, then publish it by atomic rename, so
    // a spill interrupted mid-write never leaves a torn commit marker (the
    // manifest-less data files fall to the orphan sweep instead).
    let smp = drms_core::commit::staged_manifest_path(prefix);
    fs.create(&smp, bytes.len() as u64);
    fs.write_at(ctx, &smp, 0, bytes);
    let mp = manifest_path(prefix);
    fs.delete(&mp);
    if !drms_core::commit::publish_manifest(fs, prefix) {
        return Err(CoreError::SpillVerify(format!(
            "{prefix:?} spill could not publish its manifest"
        )));
    }
    if ctx.recorder().enabled() {
        ctx.recorder().counter_add_at(ctx.now(), ctx.rank(), names::COMMITS, None, 1);
    }
    let report = drms_resil::verify_checkpoint(fs, prefix, ctx.recorder(), ctx.now());
    if !report.is_valid() {
        fs.delete(&mp);
        return Err(CoreError::SpillVerify(format!(
            "{prefix:?} failed end-to-end verification after spill"
        )));
    }
    Ok(())
}
