//! The localized-recovery protocol.
//!
//! ```text
//!   RecoverEnter ─► recovery barrier (epoch agreement)
//!        ─► RecoverAgreed ─► section restore (retained + ladder fetch)
//!        ─► survivor-group byte agreement ─► RecoverRestored
//!        ─► journal + flight rings staged ─► RecoverStagedJournal
//!        ─► publish (journal rename last = commit) ─► RecoverCommitted
//! ```
//!
//! Every stage is guarded by a [`CrashPoint`] that rides the same salvage
//! path as checkpoint commits ([`drms_core::crash_point`] seals the crashing
//! rank's flight ring), and the staged journal travels with a staged ring
//! snapshot from every rank ([`drms_core::stage_flight_rings`]) — a crash
//! *during* recovery loses no evidence. The journal's final rename is the
//! commit point: a journal at `{prefix}.recover-e{epoch}/journal` means the
//! region completed the transition to that epoch; its absence means the
//! recovery never happened, and the ordinary full restart remains correct
//! because nothing the protocol stages mutates the checkpoint itself.

use drms_core::chaos::CrashPoint;
use drms_core::commit::{publish_staged_files, staging_prefix};
use drms_core::manifest::CkptKind;
use drms_core::restore::{range_fetch, PiofsFull, RestartSource};
use drms_core::{
    crash_point, phase_span, stage_flight_rings, verify, CheckpointArray, CoreError, Result,
};
use drms_darray::chunks::content_hash;
use drms_darray::stream::PieceFetch;
use drms_delta::DeltaSource;
use drms_memtier::{MemTier, TierSource};
use drms_msg::{Ctx, Group};
use drms_obs::{markers, names, Phase};
use drms_piofs::{Piofs, WriteReq};

use crate::epoch::{recovery_barrier, Membership};

/// A task's retained checkpoint-state sections: the local bytes of every
/// array as they stood at the last committed checkpoint. Survivors
/// reinstate these at memory-copy price during localized recovery — the
/// whole reason recovery cost stops scaling with the full state size.
#[derive(Debug, Clone)]
pub struct Retained {
    /// The committed checkpoint this state mirrors.
    pub prefix: String,
    /// The SOP (iteration) the checkpoint captured — where the region
    /// resumes computing after a localized recovery.
    pub sop: u64,
    arrays: Vec<(String, Vec<u8>)>,
}

impl Retained {
    /// The retained local bytes for `array`, if captured.
    pub fn bytes_for(&self, array: &str) -> Option<&[u8]> {
        self.arrays.iter().find(|(n, _)| n == array).map(|(_, b)| b.as_slice())
    }

    /// Total retained bytes on this task.
    pub fn total_bytes(&self) -> u64 {
        self.arrays.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

/// Captures this task's local sections right after a checkpoint commit
/// (memcpy-priced — the copy is what lets recovery skip re-reading the
/// survivors' share of the state). Call at the SOP, while the in-memory
/// arrays still equal the checkpoint.
pub fn retain(ctx: &mut Ctx, prefix: &str, sop: u64, arrays: &[&dyn CheckpointArray]) -> Retained {
    let copies: Vec<(String, Vec<u8>)> =
        arrays.iter().map(|a| (a.array_name().to_string(), a.local_encoded())).collect();
    let total: u64 = copies.iter().map(|(_, b)| b.len() as u64).sum();
    let dt = total as f64 / ctx.cost().memcpy_bw;
    ctx.charge(dt);
    if ctx.recorder().enabled() {
        ctx.recorder().counter_add_at(
            ctx.now(),
            ctx.rank(),
            names::RECOVER_RETAIN_BYTES,
            None,
            total,
        );
    }
    Retained { prefix: prefix.to_string(), sop, arrays: copies }
}

/// Where the lost sections' bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamSource {
    /// Memory-tier replicas — no storage round-trip.
    Replica,
    /// Range reads of a full checkpoint's array streams on PIOFS.
    PiofsFull,
    /// Range-limited materialization of a delta chain on PIOFS.
    PiofsDelta,
}

/// What one localized recovery did, for attribution and gating.
#[derive(Debug, Clone)]
pub struct RecoverReport {
    /// Membership epoch the recovery committed.
    pub epoch: u64,
    /// Checkpoint the lost sections were restored from.
    pub prefix: String,
    /// Which rung of the escalation ladder served the fetch.
    pub source: StreamSource,
    /// Lost sections restored (lost ranks × arrays).
    pub sections: u64,
    /// Bytes fetched from memory-tier replicas.
    pub replica_bytes: u64,
    /// Bytes fetched from PIOFS.
    pub piofs_bytes: u64,
    /// Bytes survivors reinstated from retained memory.
    pub survivor_bytes: u64,
    /// Simulated seconds the protocol took (barrier to commit).
    pub duration: f64,
}

// The agreement digest of a sequence of byte strings: the content hash of
// their content hashes, cut to the 64 bits the group exchanges.
fn digest<B: AsRef<[u8]>>(parts: impl IntoIterator<Item = B>) -> u64 {
    let hashes: Vec<u8> =
        parts.into_iter().flat_map(|p| content_hash(p.as_ref()).to_le_bytes()).collect();
    content_hash(&hashes) as u64
}

// Escalation exit: counts the degradation (rank 0) and hands the caller
// the reason. Collective consistency holds because every escalation
// decision is computed from shared state (tier, file system, exchanged
// votes) — all ranks take this path together.
fn escalate(ctx: &mut Ctx, why: &str) -> CoreError {
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.counter_add_at(ctx.now(), 0, names::RECOVER_FULL_RESTARTS, None, 1);
        rec.event(ctx.now(), 0, Phase::Recover, "recover:escalate");
    }
    CoreError::Escalate(why.to_string())
}

/// Collective localized recovery. Call at an SOP after observing node
/// loss: agrees on the membership transition, reinstates survivors'
/// retained sections, fetches only the lost ranks' sections through the
/// escalation ladder (memory-tier replicas, then PIOFS range reads), and
/// commits a recovery journal. On success the arrays are live under a
/// block distribution over the survivors, holding exactly the checkpoint
/// state — the application resumes computing from [`Retained::sop`].
///
/// Returns [`CoreError::Escalate`] when localized recovery cannot
/// serve (replicas gone and no readable checkpoint): the caller must take
/// the ordinary verified-full-restart path. Bit-for-bit, both paths
/// produce the same final state — localized recovery only changes *how
/// many bytes move*, never what they are.
#[allow(clippy::too_many_arguments)]
pub fn recover(
    ctx: &mut Ctx,
    fs: &Piofs,
    tier: Option<&MemTier>,
    retained: &Retained,
    prev: &Membership,
    failed_nodes: &[usize],
    arrays: &mut [&mut dyn CheckpointArray],
    io_tasks: usize,
) -> Result<(Membership, RecoverReport)> {
    crash_point(ctx, fs, CrashPoint::RecoverEnter, false)?;
    let t0 = ctx.now();
    let next = recovery_barrier(ctx, prev, failed_nodes);
    let active = next.active();
    if active.is_empty() {
        return Err(escalate(ctx, "no surviving tasks"));
    }
    crash_point(ctx, fs, CrashPoint::RecoverAgreed, false)?;

    // Survivor-side feasibility vote: every survivor must still hold
    // retained state for every array, and the votes travel with each
    // rank's retained byte total for attribution.
    let i_survive = next.survivors[ctx.rank()];
    let my_ok = !i_survive || arrays.iter().all(|a| retained.bytes_for(a.array_name()).is_some());
    let my_bytes = if i_survive {
        arrays
            .iter()
            .map(|a| retained.bytes_for(a.array_name()).map_or(0, |b| b.len() as u64))
            .sum()
    } else {
        0u64
    };
    let (votes, _) = ctx.exchange((my_ok, my_bytes));
    if votes.iter().any(|(ok, _)| !ok) {
        return Err(escalate(ctx, "a survivor lost its retained sections"));
    }
    let survivor_bytes: u64 = votes.iter().map(|(_, b)| *b).sum();

    // The escalation ladder: replicas, then the committed checkpoint. Each
    // rung is a restart source; only its range fetch is used here.
    let prefix = retained.prefix.as_str();
    let full = PiofsFull { fs, prefix };
    let intact = tier.filter(|t| t.is_intact(prefix));
    let (source, manifest) = match intact {
        Some(tier) => (StreamSource::Replica, tier.manifest(prefix)?),
        None if verify(fs, prefix).is_valid() => {
            let m = full.manifest(ctx)?;
            match m.kind {
                CkptKind::Drms => (StreamSource::PiofsFull, m),
                CkptKind::DrmsDelta => (StreamSource::PiofsDelta, m),
                CkptKind::Spmd => {
                    return Err(escalate(ctx, "SPMD checkpoints are not section-addressable"))
                }
            }
        }
        None => return Err(escalate(ctx, "no intact replicas and no readable checkpoint")),
    };

    // Restore: survivors' sections via live redistribution, lost sections
    // via the chosen stream source. Each rank only offers retained bytes
    // if it survives. `replica` is `Some` exactly when the replicas serve.
    let replica = intact.map(|tier| TierSource { tier, prefix });
    let delta = DeltaSource(full);
    let mut fetched_total = 0u64;
    for a in arrays.iter_mut() {
        let name = a.array_name().to_string();
        let retained_bytes = if i_survive { retained.bytes_for(&name) } else { None };
        let mut fetch: Box<PieceFetch<'_>> = match (&replica, source) {
            (Some(replica), _) => Box::new(range_fetch(replica, &manifest, &name)),
            (None, StreamSource::PiofsDelta) => Box::new(range_fetch(&delta, &manifest, &name)),
            (None, _) => Box::new(range_fetch(&full, &manifest, &name)),
        };
        fetched_total += a.restore_sections(
            ctx,
            &active,
            &next.survivors,
            retained_bytes,
            io_tasks,
            &mut fetch,
        )?;
    }

    // Survivor-group agreement on the restored bytes: each member digests
    // its restored local sections, the digests are gathered in member
    // order, and the group agrees on the combined digest — every survivor
    // commits to the same global state or the recovery fails loudly.
    let group = Group::new(active.clone());
    let my_digest = if i_survive { digest(arrays.iter().map(|a| a.local_encoded())) } else { 0 };
    let digests = group.allgather_u64(ctx, my_digest);
    let combined = digest(digests.iter().map(|d| d.to_le_bytes()));
    if !group.agree_u64(ctx, combined) {
        return Err(CoreError::Integrity(format!(
            "survivors disagree on restored bytes at epoch {}",
            next.epoch
        )));
    }
    crash_point(ctx, fs, CrashPoint::RecoverRestored, false)?;

    // Two-phase journal commit, flight rings riding along exactly like a
    // checkpoint commit stages them.
    let rprefix = format!("{}.recover-e{}", retained.prefix, next.epoch);
    let staging = staging_prefix(&rprefix);
    let lost = next.lost();
    let mut reqs = Vec::new();
    if ctx.rank() == 0 {
        let journal = format!(
            "epoch {}\nfrom {}\nsop {}\nlost {:?}\nsource {:?}\nreplica_bytes {}\npiofs_bytes {}\nsurvivor_bytes {}\ndigest {:016x}\n",
            next.epoch,
            retained.prefix,
            retained.sop,
            lost,
            source,
            if source == StreamSource::Replica { fetched_total } else { 0 },
            if source == StreamSource::Replica { 0 } else { fetched_total },
            survivor_bytes,
            combined,
        );
        reqs.push(WriteReq {
            path: format!("{staging}/journal.tmp"),
            offset: 0,
            data: journal.into_bytes(),
        });
    }
    fs.collective_write(ctx, reqs);
    stage_flight_rings(ctx, fs, &staging);
    crash_point(ctx, fs, CrashPoint::RecoverStagedJournal, false)?;
    if ctx.rank() == 0 {
        // Rings first, journal last: the journal rename is the commit
        // point, so a crash mid-publish leaves salvageable rings but no
        // committed recovery. The staged copy is `journal.tmp` so a
        // stranded staging directory is sweepable (`sweep_orphans`), in
        // the same convention as `manifest.tmp`.
        publish_staged_files(fs, &rprefix, "journal.tmp");
        fs.rename(&format!("{staging}/journal.tmp"), &format!("{rprefix}/journal"));
    }
    ctx.barrier();
    crash_point(ctx, fs, CrashPoint::RecoverCommitted, false)?;
    let t1 = ctx.now();

    let report = RecoverReport {
        epoch: next.epoch,
        prefix: retained.prefix.clone(),
        source,
        sections: (lost.len() * arrays.len()) as u64,
        replica_bytes: if source == StreamSource::Replica { fetched_total } else { 0 },
        piofs_bytes: if source == StreamSource::Replica { 0 } else { fetched_total },
        survivor_bytes,
        duration: t1 - t0,
    };
    if ctx.rank() == 0 && ctx.recorder().enabled() {
        let rec = ctx.recorder();
        rec.counter_add_at(t1, 0, names::RECOVER_LOCALIZED, None, 1);
        rec.counter_add_at(t1, 0, names::RECOVER_SECTIONS, None, report.sections);
        if report.replica_bytes > 0 {
            rec.counter_add_at(t1, 0, names::RECOVER_REPLICA_BYTES, None, report.replica_bytes);
        }
        if report.piofs_bytes > 0 {
            rec.counter_add_at(t1, 0, names::RECOVER_PIOFS_BYTES, None, report.piofs_bytes);
        }
        rec.counter_add_at(t1, 0, names::RECOVER_SURVIVOR_BYTES, None, report.survivor_bytes);
    }
    phase_span(ctx, Phase::Recover, markers::LOCALIZED_SPAN_NAME, t0, t1);
    Ok((next, report))
}
