use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use drms_chaos::mix;
use drms_msg::Ctx;
use drms_obs::{names, NullRecorder, Phase, Recorder};

use crate::config::PiofsConfig;
use crate::integrity::{crc32, fragments, piece_crcs, ChunkCrcs, Slots};
use crate::parity::ParityGeom;
use crate::phase::{price_phase, DescKind, Pricing, ReadAccess, ReadReq, ReqDesc, WriteReq};
use crate::rng::SplitMix64;
use crate::store::{FileData, ReadFail, Stored};
use crate::stripe::striped_bytes;

/// Errors from file-system operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiofsError {
    /// The path does not name a file.
    NotFound(
        /// Offending path.
        String,
    ),
    /// A read past the end of the file.
    OutOfBounds {
        /// Offending path.
        path: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file size.
        size: u64,
    },
    /// A byte range lost with a failed server could not be served: parity
    /// is disabled, the parity block is also gone, or a second server of
    /// the same parity group is down.
    StripeLost {
        /// Offending path.
        path: String,
        /// Start of the unreconstructible range.
        offset: u64,
        /// Its length.
        len: u64,
    },
    /// Transient server faults persisted through the whole retry budget.
    /// Only single-client reads surface this: writes and collective
    /// operations escalate to the blocking path instead of failing, so
    /// they can never strand sibling tasks in a collective.
    Unavailable {
        /// Offending path.
        path: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for PiofsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PiofsError::NotFound(p) => write!(f, "no such file: {p}"),
            PiofsError::OutOfBounds { path, offset, len, size } => write!(
                f,
                "read [{offset}, {}) out of bounds for {path} (size {size})",
                offset + len
            ),
            PiofsError::StripeLost { path, offset, len } => write!(
                f,
                "range [{offset}, {}) of {path} lost with its server and not reconstructible",
                offset + len
            ),
            PiofsError::Unavailable { path, attempts } => {
                write!(f, "{path} unavailable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for PiofsError {}

/// Metadata about one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// Logical path.
    pub path: String,
    /// Size in bytes.
    pub size: u64,
}

struct State {
    files: HashMap<String, FileData>,
    next_id: u64,
    busy: Vec<f64>,
    residency: Vec<u64>,
    rng: SplitMix64,
    /// Which servers are currently failed.
    down: Vec<bool>,
}

/// The simulated parallel file system.
///
/// Shared by all tasks of a region (and across regions: checkpoint files
/// survive application restarts). All operations that move data also advance
/// the calling task's virtual clock according to the cost model.
pub struct Piofs {
    cfg: PiofsConfig,
    state: Mutex<State>,
    /// Recorder for control-plane events that happen outside any task
    /// context (rename refusals). Defaults to the null recorder.
    recorder: Mutex<Arc<dyn Recorder>>,
}

/// Descriptor as exchanged between tasks in a collective phase.
#[derive(Debug, Clone)]
struct WireDesc {
    path: String,
    offset: u64,
    len: u64,
    kind: DescKind,
}

impl Piofs {
    /// Creates a file system with the given configuration and jitter seed.
    pub fn new(cfg: PiofsConfig, seed: u64) -> Arc<Piofs> {
        let n = cfg.n_servers;
        Arc::new(Piofs {
            cfg,
            state: Mutex::new(State {
                files: HashMap::new(),
                next_id: 0,
                busy: vec![0.0; n],
                residency: vec![0; n],
                rng: SplitMix64::new(seed),
                down: vec![false; n],
            }),
            recorder: Mutex::new(Arc::new(NullRecorder)),
        })
    }

    /// Attaches a recorder for control-plane events (e.g. refused renames)
    /// that occur with no task clock in scope.
    pub fn set_recorder(&self, rec: Arc<dyn Recorder>) {
        *self.recorder.lock() = rec;
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &PiofsConfig {
        &self.cfg
    }

    /// Parity geometry, when parity striping is enabled.
    fn geom(&self) -> Option<ParityGeom> {
        self.cfg.parity_geom()
    }

    /// Plain stripe geometry (always defined; used for loss bookkeeping
    /// whether or not parity is on).
    fn stripe_geom(&self) -> ParityGeom {
        ParityGeom { stripe_unit: self.cfg.stripe_unit, n_servers: self.cfg.n_servers }
    }

    /// Registers the resident memory of the application task placed on
    /// `node`; drives the co-location interference and buffer-memory
    /// mechanisms. Nodes outside the server set are ignored.
    pub fn set_residency(&self, node: usize, bytes: u64) {
        let mut st = self.state.lock();
        if node < st.residency.len() {
            st.residency[node] = bytes;
        }
    }

    /// Clears all registered task residency (application terminated).
    pub fn clear_residency(&self) {
        let mut st = self.state.lock();
        st.residency.iter_mut().for_each(|r| *r = 0);
    }

    /// Resets the per-server busy horizon (between independent experiment
    /// runs).
    pub fn reset_time(&self) {
        let mut st = self.state.lock();
        st.busy.iter_mut().for_each(|b| *b = 0.0);
    }

    // ------------------------------------------------------------------
    // Namespace
    // ------------------------------------------------------------------

    /// Creates (or truncates) a file its creator is about to fill with `len`
    /// bytes. The store reserves exactly that, once, so the pieces that land
    /// afterwards, in whatever order, never regrow it; the file still reads
    /// as empty (`size` 0) until bytes land, and a write past `len` still
    /// extends it. The reservation includes the slot table the writers'
    /// integrity CRCs land in ([`Piofs::take_integrity`]).
    pub fn create(&self, path: &str, len: u64) {
        let chunk = self.cfg.integrity_chunk();
        let mut st = self.state.lock();
        // Free the truncated file's bytes before reserving its successor's,
        // so a rewrite of the same size can take their place.
        st.files.remove(path);
        let id = st.alloc_id();
        let file = FileData {
            bytes: Arc::new(Vec::with_capacity(len as usize)),
            slots: Some(Slots::new(len, chunk)),
            ..FileData::new(id)
        };
        st.files.insert(path.to_string(), file);
    }

    /// Deletes a file; `true` if it existed.
    pub fn delete(&self, path: &str) -> bool {
        self.state.lock().files.remove(path).is_some()
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.state.lock().files.contains_key(path)
    }

    /// Size of a file in bytes.
    pub fn size(&self, path: &str) -> Result<u64, PiofsError> {
        self.state
            .lock()
            .files
            .get(path)
            .map(FileData::len)
            .ok_or_else(|| PiofsError::NotFound(path.to_string()))
    }

    /// All files whose path starts with `prefix`, sorted by path.
    pub fn list(&self, prefix: &str) -> Vec<FileInfo> {
        let st = self.state.lock();
        let mut out: Vec<FileInfo> = st
            .files
            .iter()
            .filter(|(p, _)| p.starts_with(prefix))
            .map(|(p, f)| FileInfo { path: p.clone(), size: f.len() })
            .collect();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Total bytes stored under `prefix` (the paper's "size of saved
    /// state" metric).
    pub fn total_bytes(&self, prefix: &str) -> u64 {
        self.list(prefix).iter().map(|f| f.size).sum()
    }

    /// The logical file contents, without touching the clock: the
    /// control-plane verifiers' read. When nothing of the file is lost the
    /// handle shares the stored bytes, and no byte is copied; otherwise lost
    /// ranges are served by parity reconstruction. `None` if the file is
    /// missing or any lost byte is unreconstructible.
    pub fn bytes(&self, path: &str) -> Option<Stored> {
        let geom = self.geom();
        let st = self.state.lock();
        let file = st.files.get(path)?;
        file.read(0, file.len(), geom.as_ref()).ok().map(|(bytes, _)| bytes)
    }

    /// An owned copy of the logical file contents ([`Piofs::bytes`],
    /// copied): diagnostics.
    pub fn peek(&self, path: &str) -> Option<Vec<u8>> {
        self.bytes(path).map(|bytes| bytes.to_vec())
    }

    /// The integrity records of `path` at the integrity grid
    /// ([`PiofsConfig::integrity_chunk`]), as they are computed from the
    /// logical bytes ([`Piofs::bytes`]). A file reserved with
    /// [`Piofs::create`] has them folded from its slot table — the CRCs its
    /// writers computed — reading only the chunks no write covered whole or
    /// whose bytes changed since (`folded` is then `true`). The table is
    /// taken: a second call reads the whole file. It is read whole as well
    /// when the file has a lost range, was never created or was preloaded,
    /// or is not the length it was created with. `None` when the file is
    /// missing or a lost byte is unreconstructible.
    ///
    /// The table and a handle on the bytes are taken together under the
    /// file-system lock; the fold and the reads run after it is dropped.
    pub fn take_integrity(&self, path: &str) -> Option<ChunkCrcs> {
        let geom = self.geom();
        let chunk = self.cfg.integrity_chunk();
        let (slots, bytes) = {
            let mut st = self.state.lock();
            let file = st.files.get_mut(path)?;
            let slots = file.slots.take();
            let (bytes, rebuilt) = file.read(0, file.len(), geom.as_ref()).ok()?;
            // Bytes rebuilt from parity need not be the ones the writers CRC'd.
            (slots.filter(|_| rebuilt == 0), bytes)
        };
        slots.and_then(|s| s.fold(&bytes)).or_else(|| Some(ChunkCrcs::read(&bytes, chunk)))
    }

    /// Stored bytes exactly as they sit on the (simulated) platters —
    /// poison and silent corruption included. Diagnostics only.
    pub fn peek_raw(&self, path: &str) -> Option<Vec<u8>> {
        self.state.lock().files.get(path).map(|f| f.bytes.to_vec())
    }

    /// Installs a file without charging simulated time — environment setup
    /// (e.g. placing an application binary) that happens before the
    /// experiment clock starts.
    pub fn preload(&self, path: &str, bytes: Vec<u8>) {
        let geom = self.geom();
        let mut st = self.state.lock();
        let down = st.down.clone();
        let f = st.intern(path);
        f.bytes = Arc::default();
        f.slots = None;
        f.write_parity_aware(0, Cow::Owned(bytes), geom.as_ref(), &down);
    }

    /// Renames a file; `true` if `from` existed and the rename happened.
    /// Control-plane operation (no clock).
    ///
    /// A rename is **refused** (returns `false`, `from` untouched) when it
    /// would replace an existing committed manifest: a manifest's presence
    /// is the commit marker of its checkpoint, so silently clobbering one
    /// could destroy the only restartable state. Callers that really mean
    /// to replace a manifest must delete the old one first — making the
    /// checkpoint visibly uncommitted in between. Other targets are
    /// replaced as plain renames always were.
    pub fn rename(&self, from: &str, to: &str) -> bool {
        if from == to {
            return self.exists(from);
        }
        let mut st = self.state.lock();
        if to.ends_with("/manifest") && st.files.contains_key(to) {
            drop(st);
            let rec = self.recorder.lock().clone();
            if rec.enabled() {
                rec.counter_add(0, names::RENAMES_REFUSED, None, 1);
                rec.event(0.0, 0, Phase::Control, &format!("rename_refused:{to}"));
            }
            return false;
        }
        match st.files.remove(from) {
            Some(f) => {
                st.files.insert(to.to_string(), f);
                true
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Storage faults
    // ------------------------------------------------------------------

    /// Kills server `k`: every stripe unit (and, under parity, every parity
    /// block) it held is destroyed — physically overwritten with a poison
    /// pattern, so nothing can be served from it. Subsequent reads of the
    /// affected ranges either reconstruct from parity or fail with
    /// [`PiofsError::StripeLost`]. Returns the number of data bytes lost.
    pub fn fail_server(&self, k: usize) -> u64 {
        let geom = self.stripe_geom();
        let parity_on = self.geom().is_some();
        let mut st = self.state.lock();
        assert!(k < st.down.len(), "server {k} out of range");
        if st.down[k] {
            return 0;
        }
        st.down[k] = true;
        let degraded = st.down.iter().filter(|&&d| d).count();
        let lost = st.files.values_mut().map(|f| f.fail_server(k, &geom, parity_on)).sum();
        drop(st);
        self.publish_degraded(degraded);
        lost
    }

    /// Publishes the degraded-mode gauge (number of currently failed
    /// servers); live health rules alert while it is non-zero.
    fn publish_degraded(&self, degraded: usize) {
        let rec = self.recorder.lock().clone();
        if rec.enabled() {
            rec.gauge_set(names::PIOFS_DEGRADED, 0, degraded as f64);
        }
    }

    /// Brings server `k` back and rebuilds its contents: lost stripe units
    /// are reconstructed from parity, lost parity blocks are recomputed
    /// from data. Returns the number of data bytes still lost afterwards
    /// (non-zero only when another server is down too, or parity is
    /// disabled). Control-plane operation (no clock; the restart paths
    /// price degraded reads instead).
    pub fn repair_server(&self, k: usize) -> u64 {
        let Some(geom) = self.geom() else {
            // Without parity there is nothing to rebuild from; the server
            // returns empty and the lost ranges stay lost.
            let mut st = self.state.lock();
            if k < st.down.len() {
                st.down[k] = false;
            }
            let degraded = st.down.iter().filter(|&&d| d).count();
            let lost = st.files.values().map(|f| f.lost.total()).sum();
            drop(st);
            self.publish_degraded(degraded);
            return lost;
        };
        let mut st = self.state.lock();
        assert!(k < st.down.len(), "server {k} out of range");
        st.down[k] = false;
        let degraded = st.down.iter().filter(|&&d| d).count();
        let lost = st.files.values_mut().map(|f| f.repair_after_server(k, &geom)).sum();
        drop(st);
        self.publish_degraded(degraded);
        lost
    }

    /// Whether server `k` is currently failed.
    pub fn server_down(&self, k: usize) -> bool {
        let st = self.state.lock();
        k < st.down.len() && st.down[k]
    }

    /// Indices of currently failed servers.
    pub fn downed_servers(&self) -> Vec<usize> {
        let st = self.state.lock();
        st.down.iter().enumerate().filter(|(_, &d)| d).map(|(k, _)| k).collect()
    }

    /// Silently corrupts stored bytes in `[offset, offset + len)` (clipped
    /// to the file) by XORing them with a non-zero pattern derived from
    /// `salt` — the simulation of bit rot or a misdirected write. Parity
    /// and checksums are deliberately *not* updated: detection is the
    /// verification layer's job. Returns the number of bytes changed.
    pub fn corrupt_range(&self, path: &str, offset: u64, len: u64, salt: u64) -> u64 {
        let mut st = self.state.lock();
        let Some(f) = st.files.get_mut(path) else { return 0 };
        let end = offset.saturating_add(len).min(f.len());
        if offset >= end {
            return 0;
        }
        let flip = (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8 | 0x01;
        for b in &mut Arc::make_mut(&mut f.bytes)[offset as usize..end as usize] {
            *b ^= flip;
        }
        f.stale(offset, end);
        end - offset
    }

    /// Pure parity-based reconstruction of a byte range, ignoring the
    /// stored bytes — what a scrub pass repairs a checksum-failed chunk
    /// from. Control-plane operation (no clock).
    pub fn reconstruct_range(
        &self,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, PiofsError> {
        let Some(geom) = self.geom() else {
            return Err(PiofsError::StripeLost { path: path.to_string(), offset, len });
        };
        let st = self.state.lock();
        let f = st.files.get(path).ok_or_else(|| PiofsError::NotFound(path.to_string()))?;
        f.reconstruct_range(offset, len, &geom).ok_or(PiofsError::StripeLost {
            path: path.to_string(),
            offset,
            len,
        })
    }

    /// Reconstructs `[offset, offset + len)` from parity and writes it back
    /// over the stored bytes — the repair step of a scrub pass. Lost ranges
    /// (on a currently-down server) are reconstructed in the returned data
    /// but not patched back, since the server holding them is still gone.
    /// Returns the repaired bytes. Control-plane operation (no clock).
    pub fn repair_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, PiofsError> {
        let data = self.reconstruct_range(path, offset, len)?;
        let mut st = self.state.lock();
        let f = st.files.get_mut(path).ok_or_else(|| PiofsError::NotFound(path.to_string()))?;
        let end = offset + len;
        let mut cursor = offset;
        // Patch only the non-lost sub-ranges.
        let lost = f.lost.clipped(offset, end);
        for (a, b) in lost.iter().copied().chain(std::iter::once((end, end))) {
            if cursor < a {
                let (s, e) = ((cursor - offset) as usize, (a - offset) as usize);
                f.write_at(cursor, Cow::Borrowed(&data[s..e]));
                f.stale(cursor, a);
            }
            cursor = b.max(cursor);
        }
        Ok(data)
    }

    /// Total bytes currently lost (poisoned with their server) in `path`.
    pub fn lost_bytes(&self, path: &str) -> u64 {
        self.state.lock().files.get(path).map_or(0, |f| f.lost.total())
    }

    // ------------------------------------------------------------------
    // Single-client I/O
    // ------------------------------------------------------------------

    /// Consults the chaos controller (when the region runs under one) for
    /// transient-fault weather over one I/O operation. Each faulted attempt
    /// charges a backoff wait — visible as a [`Phase::Retry`] span — to the
    /// caller's clock. Returns `Ok(())` once an attempt clears within the
    /// retry budget and `Err(attempts)` when the budget is exhausted; the
    /// caller decides whether that is an escalation (writes, collectives)
    /// or a hard failure (single-client reads).
    fn weather(&self, ctx: &mut Ctx, what: &'static str) -> Result<(), u32> {
        let Some(chaos) = ctx.chaos() else { return Ok(()) };
        let key = ctx.chaos_key();
        let policy = chaos.retry();
        let rank = ctx.rank();
        let mut attempt: u32 = 0;
        while chaos.io_fault(rank as u64, key, attempt as u64) {
            attempt += 1;
            chaos.note_retry();
            if ctx.recorder().enabled() {
                ctx.recorder().counter_add_at(ctx.now(), rank, names::IO_RETRIES, None, 1);
            }
            if attempt >= policy.max_attempts {
                chaos.note_giveup();
                if ctx.recorder().enabled() {
                    ctx.recorder().counter_add_at(ctx.now(), rank, names::RETRY_GIVEUPS, None, 1);
                }
                return Err(attempt);
            }
            let d = policy.delay(attempt - 1, mix(&[key, rank as u64]));
            let t0 = ctx.now();
            ctx.charge(d);
            let rec = ctx.recorder();
            if rec.enabled() {
                rec.span_start(t0, rank, Phase::Retry, what);
                rec.span_end(t0 + d, rank, Phase::Retry, what);
            }
        }
        Ok(())
    }

    /// Writes `data` at `offset`, creating the file if needed. Single-client
    /// operation: only the calling task is involved (e.g. the representative
    /// task writing the data segment while siblings wait at a barrier), so
    /// the write's integrity CRCs are spread over the host's idle cores
    /// ([`crate::integrity::piece_crcs`]).
    ///
    /// `data` is borrowed or owned. An owned buffer that fills a file
    /// reserved by [`Piofs::create`] whole, from offset 0, is adopted by the
    /// store: the file's bytes become that buffer, moved under the lock, not
    /// copied. What the store holds afterwards is the same either way.
    ///
    /// Transient faults from an attached chaos plan are retried with
    /// backoff; when the budget runs out the write escalates to the
    /// blocking reliable path and still lands. A torn-write fault instead
    /// persists only a strict prefix of `data` — the crash-consistency
    /// hazard the two-phase checkpoint commit defends against.
    pub fn write_at<'d>(
        &self,
        ctx: &mut Ctx,
        path: &str,
        offset: u64,
        data: impl Into<Cow<'d, [u8]>>,
    ) {
        let _ = self.weather(ctx, "write_at");
        let mut data = data.into();
        if let Some(chaos) = ctx.chaos() {
            if let Some(keep) = chaos.torn_len(path, data.len()) {
                match &mut data {
                    Cow::Borrowed(b) => *b = &b[..keep],
                    Cow::Owned(v) => v.truncate(keep),
                }
                let rec = ctx.recorder();
                if rec.enabled() {
                    rec.counter_add(ctx.rank(), names::TORN_WRITES, None, 1);
                    rec.event(ctx.now(), ctx.rank(), Phase::Control, &format!("torn:{path}"));
                }
            }
        }
        let node = ctx.node();
        let rank = ctx.rank();
        let now = ctx.now();
        let geom = self.geom();
        // The bytes' integrity CRCs, before the lock, on the idle cores.
        let crcs = piece_crcs(&mut fragments(offset, &data, self.cfg.integrity_chunk()));
        let len = data.len() as u64;
        let mut st = self.state.lock();
        let down = st.down.clone();
        let file = st.intern(path);
        let parity_bytes = file.write_recorded(offset, data, &crcs, geom.as_ref(), &down);
        let desc =
            ReqDesc { client: rank, node, path_id: file.id, offset, len, kind: DescKind::Write };
        let pricing = st.price(&self.cfg, now, &[desc], &[rank]);
        drop(st);
        let rec = ctx.recorder();
        if rec.enabled() && parity_bytes > 0 {
            rec.counter_add_at(now, rank, names::PARITY_BYTES, None, parity_bytes);
        }
        self.observe_phase(ctx.recorder(), rank, "write_at", &[(offset, len)], &pricing);
        ctx.advance_to(pricing.completion[&rank]);
    }

    /// Reads `len` bytes at `offset`. Single-client operation.
    ///
    /// Transient faults from an attached chaos plan are retried with
    /// backoff; a read that exhausts the budget fails with
    /// [`PiofsError::Unavailable`] (no sibling is waiting on it, so a hard
    /// failure is safe — callers fall back to an older checkpoint).
    pub fn read_at(
        &self,
        ctx: &mut Ctx,
        path: &str,
        offset: u64,
        len: u64,
        access: ReadAccess,
    ) -> Result<Vec<u8>, PiofsError> {
        if let Err(attempts) = self.weather(ctx, "read_at") {
            return Err(PiofsError::Unavailable { path: path.to_string(), attempts });
        }
        let node = ctx.node();
        let rank = ctx.rank();
        let now = ctx.now();
        let geom = self.geom();
        let mut st = self.state.lock();
        let (data, reconstructed) = st.read(path, offset, len, geom.as_ref())?;
        let id = st.files[path].id;
        let desc =
            ReqDesc { client: rank, node, path_id: id, offset, len, kind: DescKind::Read(access) };
        let pricing = st.price(&self.cfg, now, &[desc], &[rank]);
        drop(st);
        let rec = ctx.recorder();
        if rec.enabled() && reconstructed > 0 {
            rec.counter_add_at(now, rank, names::RECONSTRUCTED_BYTES, None, reconstructed);
        }
        self.observe_phase(ctx.recorder(), rank, "read_at", &[(offset, len)], &pricing);
        ctx.advance_to(pricing.completion[&rank]);
        Ok(data.to_vec())
    }

    // ------------------------------------------------------------------
    // Collective I/O
    // ------------------------------------------------------------------

    /// Collective write: every task of the region calls this with its own
    /// (possibly empty) request list. Bytes are stored immediately; the
    /// phase is priced once, deterministically, and every task's clock
    /// advances to its computed completion.
    ///
    /// Each request's `data` is borrowed or owned, as in
    /// [`Piofs::write_at`]: an owned buffer that fills a reserved file whole
    /// is adopted, a borrowed one is copied into the store once. What the
    /// store holds afterwards is the same either way.
    pub fn collective_write<'d, D>(&self, ctx: &mut Ctx, reqs: Vec<WriteReq<D>>)
    where
        D: AsRef<[u8]> + Into<Cow<'d, [u8]>>,
    {
        // Chaos weather: faults cost each task retry waits before it joins
        // the phase, never an abort — a task that bailed unilaterally would
        // strand its siblings in the descriptor exchange.
        let _ = self.weather(ctx, "collective_write");
        // This task's integrity CRCs of its own bytes, before the lock, on
        // its own thread: every task of the region is writing.
        let chunk = self.cfg.integrity_chunk();
        let crcs: Vec<Vec<u32>> = reqs
            .iter()
            .map(|r| fragments(r.offset, r.data.as_ref(), chunk).into_iter().map(crc32).collect())
            .collect();
        // Store this task's bytes (the store adopts a buffer that fills a
        // reserved file whole) and build wire descriptors.
        let geom = self.geom();
        let mut descs = Vec::with_capacity(reqs.len());
        let mut parity_bytes = 0;
        {
            let mut st = self.state.lock();
            let down = st.down.clone();
            for (r, crcs) in reqs.into_iter().zip(&crcs) {
                let len = r.data.as_ref().len() as u64;
                let file = st.intern(&r.path);
                parity_bytes +=
                    file.write_recorded(r.offset, r.data.into(), crcs, geom.as_ref(), &down);
                descs.push(WireDesc { path: r.path, offset: r.offset, len, kind: DescKind::Write });
            }
        }
        let rank = ctx.rank();
        let rec = ctx.recorder();
        if rec.enabled() && parity_bytes > 0 {
            rec.counter_add_at(ctx.now(), rank, names::PARITY_BYTES, None, parity_bytes);
        }
        self.run_phase(ctx, descs);
    }

    /// Collective read: every task calls with its own request list and gets
    /// a handle on each request's bytes, in request order. A range with
    /// nothing lost shares the stored bytes, not a copy; otherwise lost
    /// ranges are served by parity reconstruction. The first request that
    /// fails ends the read with its error. A task that only has to be
    /// charged for the phase drops what it is handed.
    pub fn collective_read(
        &self,
        ctx: &mut Ctx,
        reqs: Vec<ReadReq>,
    ) -> Result<Vec<Stored>, PiofsError> {
        // As in `collective_write`: weather delays participation, it never
        // aborts a collective unilaterally.
        let _ = self.weather(ctx, "collective_read");
        let descs: Vec<WireDesc> = reqs
            .iter()
            .map(|r| WireDesc {
                path: r.path.clone(),
                offset: r.offset,
                len: r.len,
                kind: DescKind::Read(r.access),
            })
            .collect();
        self.run_phase(ctx, descs);
        // Fetch this task's data (contents are stable during the phase).
        let geom = self.geom();
        let mut reconstructed = 0;
        let got = {
            let st = self.state.lock();
            reqs.iter()
                .map(|r| {
                    let (bytes, rebuilt) = st.read(&r.path, r.offset, r.len, geom.as_ref())?;
                    reconstructed += rebuilt;
                    Ok(bytes)
                })
                .collect::<Result<Vec<_>, PiofsError>>()?
        };
        let rank = ctx.rank();
        let rec = ctx.recorder();
        if rec.enabled() && reconstructed > 0 {
            rec.counter_add_at(ctx.now(), rank, names::RECONSTRUCTED_BYTES, None, reconstructed);
        }
        Ok(got)
    }

    /// Exchanges descriptors, prices the phase on rank 0, and advances every
    /// participant's clock.
    fn run_phase(&self, ctx: &mut Ctx, descs: Vec<WireDesc>) {
        let rank = ctx.rank();
        let nodes: Vec<usize> = (0..ctx.ntasks()).map(|r| ctx.node_of(r)).collect();
        let (all_descs, t_sync) = ctx.exchange(descs);

        let pricing: Option<Arc<Pricing>> = if rank == 0 {
            let mut st = self.state.lock();
            let mut flat = Vec::new();
            for (client, ds) in all_descs.iter().enumerate() {
                for d in ds {
                    let path_id = st.intern(&d.path).id;
                    flat.push(ReqDesc {
                        client,
                        node: nodes[client],
                        path_id,
                        offset: d.offset,
                        len: d.len,
                        kind: d.kind,
                    });
                }
            }
            let participants: Vec<usize> = (0..ctx.ntasks()).collect();
            let priced = st.price(&self.cfg, t_sync, &flat, &participants);
            drop(st);
            let extents: Vec<(u64, u64)> = flat.iter().map(|d| (d.offset, d.len)).collect();
            self.observe_phase(ctx.recorder(), 0, "collective", &extents, &priced);
            Some(Arc::new(priced))
        } else {
            None
        };

        // Rank 0 alone contributed `Some`: every rank finds the one pricing.
        let (priced, _) = ctx.exchange(pricing);
        if let Some(pricing) = priced.iter().flatten().next() {
            ctx.advance_to(pricing.completion[&rank]);
        }
    }

    /// Reports one priced phase to the recorder: a span over the phase
    /// wall time, request/stripe counters, and the per-server busy-horizon
    /// gauges. No-op under the null recorder.
    fn observe_phase(
        &self,
        rec: &dyn Recorder,
        rank: usize,
        name: &str,
        extents: &[(u64, u64)],
        pricing: &Pricing,
    ) {
        if !rec.enabled() {
            return;
        }
        let n = self.cfg.n_servers;
        rec.counter_add_at(pricing.t0, rank, names::IO_PHASES, None, 1);
        rec.counter_add_at(pricing.t0, rank, names::IO_REQUESTS, None, extents.len() as u64);
        let stripes: u64 = extents
            .iter()
            .map(|&(off, len)| {
                (0..n)
                    .filter(|&k| striped_bytes(self.cfg.stripe_unit, n, off, off + len, k) > 0)
                    .count() as u64
            })
            .sum();
        rec.counter_add_at(pricing.t0, rank, names::STRIPES_TOUCHED, None, stripes);
        let end = pricing.completion.values().fold(pricing.t0, |a, &b| a.max(b));
        rec.span_start(pricing.t0, rank, Phase::IoPhase, name);
        rec.span_end(end, rank, Phase::IoPhase, name);
        // Queue depth in service time: seconds of work this phase enqueued
        // on each server (the live imbalance signal; 0 for idle servers).
        let mut queued = vec![0.0f64; n];
        for &(k, start, finish) in &pricing.server_spans {
            if k < n {
                queued[k] += finish - start;
            }
        }
        for (k, &b) in pricing.server_busy.iter().enumerate() {
            rec.gauge_set_at(pricing.t0, rank, names::SERVER_BUSY, k, b);
            rec.gauge_set_at(
                pricing.t0,
                rank,
                names::PIOFS_QUEUE_DEPTH,
                k,
                queued.get(k).copied().unwrap_or(0.0),
            );
        }
        for &(k, start, finish) in &pricing.server_spans {
            rec.server_interval(rank, k, name, start, finish);
        }
    }
}

impl State {
    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The logical bytes of `[offset, offset + len)` of `path` and the
    /// number of them rebuilt from parity ([`FileData::read`]).
    fn read(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        geom: Option<&ParityGeom>,
    ) -> Result<(Stored, u64), PiofsError> {
        let file = self.files.get(path).ok_or_else(|| PiofsError::NotFound(path.to_string()))?;
        file.read(offset, len, geom).map_err(|e| match e {
            ReadFail::OutOfBounds => {
                PiofsError::OutOfBounds { path: path.to_string(), offset, len, size: file.len() }
            }
            ReadFail::Lost { offset, len } => {
                PiofsError::StripeLost { path: path.to_string(), offset, len }
            }
        })
    }

    /// Ensures `path` exists, returning its file.
    fn intern(&mut self, path: &str) -> &mut FileData {
        let next_id = &mut self.next_id;
        self.files.entry(path.to_string()).or_insert_with(|| {
            let id = *next_id;
            *next_id += 1;
            FileData::new(id)
        })
    }

    /// Prices a phase against current server state and applies its effects.
    fn price(
        &mut self,
        cfg: &PiofsConfig,
        t_sync: f64,
        reqs: &[ReqDesc],
        participants: &[usize],
    ) -> Pricing {
        // Parity penalties: a read-modify-write of the parity block per
        // group a write touches; a full-group reconstruction read per lost
        // group a read crosses. Deterministic functions of the request set
        // and loss state — no rng — so the jitter stream (and thus every
        // existing trace) is unchanged when parity is off.
        let mut penalty: HashMap<usize, f64> = HashMap::new();
        if let Some(g) = cfg.parity_geom() {
            let by_id: HashMap<u64, &FileData> = self.files.values().map(|f| (f.id, f)).collect();
            let su = g.stripe_unit as f64;
            for r in reqs {
                if r.len == 0 {
                    continue;
                }
                let end = r.offset + r.len;
                match r.kind {
                    DescKind::Write => {
                        let groups = g.groups_overlapping(r.offset, end);
                        let n = (groups.end - groups.start) as f64;
                        *penalty.entry(r.client).or_default() +=
                            n * (su / cfg.server_write_bw + cfg.chunk_overhead_write);
                    }
                    DescKind::Read(_) => {
                        let Some(f) = by_id.get(&r.path_id) else { continue };
                        let mut lost_groups = std::collections::BTreeSet::new();
                        for (a, b) in f.lost.clipped(r.offset, end) {
                            lost_groups.extend(g.groups_overlapping(a, b));
                        }
                        let per_group = (g.n_servers as f64 - 1.0) * su / cfg.server_disk_read_bw
                            + cfg.chunk_overhead_read;
                        *penalty.entry(r.client).or_default() +=
                            lost_groups.len() as f64 * per_group;
                    }
                }
            }
        }
        let mut pricing = price_phase(
            cfg,
            &self.busy,
            &self.residency,
            t_sync,
            reqs,
            participants,
            &mut self.rng,
        );
        self.busy = pricing.server_busy.clone();
        for (client, p) in penalty {
            if let Some(c) = pricing.completion.get_mut(&client) {
                *c += p;
            }
        }
        pricing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_msg::{run_spmd, CostModel};

    fn fs() -> Arc<Piofs> {
        Piofs::new(PiofsConfig::test_tiny(4), 1)
    }

    #[test]
    fn namespace_operations() {
        let fs = fs();
        assert!(!fs.exists("a"));
        fs.create("a", 0);
        assert!(fs.exists("a"));
        assert_eq!(fs.size("a").unwrap(), 0);
        assert!(fs.size("b").is_err());
        fs.create("dir/x", 0);
        fs.create("dir/y", 0);
        let listed = fs.list("dir/");
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].path, "dir/x");
        assert!(fs.delete("a"));
        assert!(!fs.delete("a"));
    }

    #[test]
    fn a_created_file_is_one_allocation_whatever_order_its_pieces_land_in() {
        const PIECE: usize = 1000;
        let fs = fs();
        let piece = |j: usize| vec![j as u8 + 1; PIECE];
        // Data pointer, capacity and length of the stored bytes.
        let storage = |fs: &Piofs| {
            let st = fs.state.lock();
            let bytes = &st.files["f"].bytes;
            (bytes.as_ptr() as usize, bytes.capacity(), bytes.len())
        };
        let created = run_spmd(4, CostModel::free(), |ctx| {
            let created = (ctx.rank() == 0).then(|| {
                fs.create("f", 16 * PIECE as u64);
                assert_eq!(fs.size("f").unwrap(), 0, "nothing has landed yet");
                storage(&fs)
            });
            let at_create = ctx.exchange(created).0[0].expect("rank 0 created the file");
            // Four waves of four pieces, shuffled: the last piece lands
            // first and the file fills out of order.
            for wave in 0..4 {
                let j = (7 * (4 * wave + ctx.rank()) + 15) % 16;
                let req = WriteReq { path: "f".into(), offset: (j * PIECE) as u64, data: piece(j) };
                fs.collective_write(ctx, vec![req]);
                assert_eq!(storage(&fs).0, at_create.0, "wave {wave} moved the file");
            }
            at_create
        })
        .unwrap();
        let (ptr, capacity, len) = created[0];
        assert_eq!((capacity, len), (16 * PIECE, 0));
        assert_eq!(storage(&fs), (ptr, 16 * PIECE, 16 * PIECE));
        let whole: Vec<u8> = (0..16).flat_map(piece).collect();
        assert_eq!(fs.peek("f").unwrap(), whole);

        // A write past the announced length still extends the file.
        run_spmd(1, CostModel::free(), |ctx| fs.write_at(ctx, "f", 17_000, &[9; 10])).unwrap();
        let mut grown = whole;
        grown.extend([0; 1000].into_iter().chain([9; 10]));
        assert_eq!(fs.size("f").unwrap(), 17_010);
        assert_eq!(fs.peek("f").unwrap(), grown);
    }

    #[test]
    fn take_integrity_folds_what_the_writers_crcd_and_reads_the_rest() {
        use crate::integrity::ChunkCrcs;
        let fs = fs();
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
        let read = ChunkCrcs::read(&data, fs.cfg().integrity_chunk());
        let halves = |fs: &Piofs, path: &str| {
            run_spmd(2, CostModel::free(), |ctx| {
                // Rank 1's half starts mid-chunk, so chunk 2 is folded from
                // rank 0's head and rank 1's tail.
                let (a, b) = if ctx.rank() == 0 { (0, 2500) } else { (2500, 5000) };
                let req =
                    WriteReq { path: path.into(), offset: a as u64, data: data[a..b].to_vec() };
                fs.collective_write(ctx, vec![req]);
            })
            .unwrap();
        };
        fs.create("c", 5000);
        halves(&fs, "c");
        assert_eq!(fs.take_integrity("c"), Some(ChunkCrcs { folded: true, ..read.clone() }));
        // The table was taken: the second pass reads the file.
        assert_eq!(fs.take_integrity("c"), Some(read.clone()));
        // Never created, preloaded over a table, or not the length reserved.
        halves(&fs, "w");
        fs.create("p", 5000);
        fs.preload("p", data.clone());
        fs.create("l", 6000);
        halves(&fs, "l");
        for path in ["w", "p", "l"] {
            assert_eq!(fs.take_integrity(path), Some(read.clone()), "{path}");
        }
        assert_eq!(fs.take_integrity("none"), None);
    }

    #[test]
    fn single_client_roundtrip() {
        let fs = fs();
        let out = run_spmd(1, CostModel::free(), |ctx| {
            fs.write_at(ctx, "f", 0, &[1, 2, 3, 4]);
            fs.write_at(ctx, "f", 2, &[9, 9]);
            fs.read_at(ctx, "f", 0, 4, ReadAccess::Sequential).unwrap()
        })
        .unwrap();
        assert_eq!(out[0], vec![1, 2, 9, 9]);
    }

    #[test]
    fn read_errors() {
        let fs = fs();
        run_spmd(1, CostModel::free(), |ctx| {
            assert!(matches!(
                fs.read_at(ctx, "missing", 0, 1, ReadAccess::Sequential),
                Err(PiofsError::NotFound(_))
            ));
            fs.write_at(ctx, "f", 0, &[0; 8]);
            assert!(matches!(
                fs.read_at(ctx, "f", 5, 10, ReadAccess::Sequential),
                Err(PiofsError::OutOfBounds { .. })
            ));
        })
        .unwrap();
    }

    #[test]
    fn collective_write_then_read_roundtrip() {
        let fs = fs();
        let out = run_spmd(4, CostModel::free(), |ctx| {
            let rank = ctx.rank() as u8;
            // Each task writes 100 bytes of its rank at its own offset of a
            // shared file.
            fs.collective_write(
                ctx,
                vec![WriteReq {
                    path: "shared".into(),
                    offset: rank as u64 * 100,
                    data: vec![rank; 100],
                }],
            );
            // Everyone reads the whole file.
            let got = fs
                .collective_read(
                    ctx,
                    vec![ReadReq {
                        path: "shared".into(),
                        offset: 0,
                        len: 400,
                        access: ReadAccess::Sequential,
                    }],
                )
                .unwrap();
            got.into_iter().next().unwrap()
        })
        .unwrap();
        let mut expect = Vec::new();
        for r in 0..4u8 {
            expect.extend(vec![r; 100]);
        }
        for got in out {
            assert_eq!(*got, expect);
        }
    }

    #[test]
    fn collective_with_empty_requests() {
        let fs = fs();
        run_spmd(3, CostModel::free(), |ctx| {
            let reqs = if ctx.rank() == 0 {
                vec![WriteReq { path: "solo".into(), offset: 0, data: vec![7; 10] }]
            } else {
                Vec::new()
            };
            fs.collective_write(ctx, reqs);
        })
        .unwrap();
        assert_eq!(fs.peek("solo").unwrap(), vec![7; 10]);
    }

    #[test]
    fn clocks_advance_with_costs() {
        let fs = Piofs::new(PiofsConfig::sp_1997(), 1);
        let out = run_spmd(2, CostModel::free(), |ctx| {
            fs.collective_write(
                ctx,
                vec![WriteReq {
                    path: "t".into(),
                    offset: ctx.rank() as u64 * (1 << 20),
                    data: vec![1; 1 << 20],
                }],
            );
            ctx.now()
        })
        .unwrap();
        // 1 MB per client over a ~21 MB/s aggregate: must take real
        // simulated time.
        assert!(out[0] > 0.01, "t = {}", out[0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> f64 {
            let fs = Piofs::new(PiofsConfig::sp_1997(), seed);
            run_spmd(4, CostModel::free(), |ctx| {
                fs.collective_write(
                    ctx,
                    vec![WriteReq {
                        path: format!("f{}", ctx.rank()),
                        offset: 0,
                        data: vec![0; 4 << 20],
                    }],
                );
                ctx.now()
            })
            .unwrap()
            .into_iter()
            .fold(0.0, f64::max)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    fn parity_fs() -> Arc<Piofs> {
        Piofs::new(PiofsConfig::test_tiny(4).with_parity(), 1)
    }

    #[test]
    fn server_loss_is_transparent_under_parity() {
        let fs = parity_fs();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        fs.preload("ck/seg", data.clone());
        let lost = fs.fail_server(2);
        assert!(lost > 0);
        assert!(fs.server_down(2));
        assert_eq!(fs.downed_servers(), vec![2]);
        // Raw bytes are genuinely poisoned...
        assert_ne!(fs.peek_raw("ck/seg").unwrap(), data);
        // ...but the logical view reconstructs bitwise.
        assert_eq!(fs.peek("ck/seg").unwrap(), data);
        // The clocked read path reconstructs too, and reports it.
        let got = run_spmd(1, CostModel::free(), |ctx| {
            fs.read_at(ctx, "ck/seg", 0, 10_000, ReadAccess::Sequential).unwrap()
        })
        .unwrap();
        assert_eq!(got[0], data);
        // Repair brings the raw copy back and clears the loss.
        assert_eq!(fs.repair_server(2), 0);
        assert!(!fs.server_down(2));
        assert_eq!(fs.peek_raw("ck/seg").unwrap(), data);
        assert_eq!(fs.lost_bytes("ck/seg"), 0);
    }

    #[test]
    fn bytes_hands_out_what_peek_copies() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let fs = parity_fs();
        fs.preload("ck/seg", data.clone());
        // Intact: the stored bytes, shared.
        assert_eq!(fs.bytes("ck/seg").map(|b| b.to_vec()), fs.peek("ck/seg"));
        assert_eq!(fs.bytes("ck/seg").map(|b| b.len()), Some(10_000));
        // One server lost under parity: the handle holds the reconstruction,
        // not the poison the platters hold.
        fs.fail_server(2);
        assert_ne!(fs.peek_raw("ck/seg").unwrap(), data);
        assert_eq!(fs.bytes("ck/seg").as_deref(), Some(&data[..]));
        assert_eq!(fs.peek("ck/seg").unwrap(), data);
        // Missing, and doubly lost: `None`.
        assert!(fs.bytes("ck/none").is_none());
        fs.fail_server(3);
        assert!(fs.bytes("ck/seg").is_none());
        assert!(fs.peek("ck/seg").is_none());
    }

    /// What one rank saw of a two-request read: the bytes (or the error),
    /// its clock afterwards.
    type Seen = (Result<Vec<Vec<u8>>, PiofsError>, f64);

    /// Runs `reqs` on 3 tasks of a fresh seeded parity file system holding
    /// `data` under `f` (server 2 failed first when `degraded`, server 3
    /// too when `twice`). Returns each rank's view and the
    /// `RECONSTRUCTED_BYTES` total.
    fn read_on_three(
        data: &[u8],
        reqs: &[ReadReq],
        degraded: bool,
        twice: bool,
    ) -> (Vec<Seen>, u64) {
        let cfg = PiofsConfig { jitter_sigma: 0.05, ..PiofsConfig::test_tiny(4).with_parity() };
        let fs = Piofs::new(cfg, 77);
        fs.preload("f", data.to_vec());
        if degraded {
            fs.fail_server(2);
        }
        if twice {
            fs.fail_server(3);
        }
        let rec = Arc::new(drms_obs::TraceRecorder::new());
        let sink = Arc::clone(&rec) as Arc<dyn Recorder>;
        let seen = drms_msg::run_spmd_traced(3, CostModel::default(), sink, |ctx| {
            let got = fs.collective_read(ctx, reqs.to_vec());
            (got.map(|got| got.iter().map(|b| b.to_vec()).collect()), ctx.now())
        })
        .unwrap();
        (seen, rec.metrics().counter_total(names::RECONSTRUCTED_BYTES))
    }

    #[test]
    fn collective_read_serves_ranges_and_fails_alike_on_every_rank() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let req = |path: &str, offset, len| ReadReq {
            path: path.into(),
            offset,
            len,
            access: ReadAccess::Sequential,
        };
        // The whole file and a sub-range, intact and with one server lost.
        let reqs = [req("f", 0, 20_000), req("f", 3_000, 9_000)];
        for degraded in [false, true] {
            let (seen, rebuilt) = read_on_three(&data, &reqs, degraded, false);
            for (got, _) in &seen {
                assert_eq!(got.as_ref().unwrap(), &[data.clone(), data[3_000..12_000].to_vec()]);
            }
            assert_eq!(rebuilt > 0, degraded, "3 tasks reconstructed {rebuilt} bytes");
            // Deterministic per seed, clocks included.
            assert_eq!(read_on_three(&data, &reqs, degraded, false), (seen, rebuilt));
        }
        // Equal errors on every rank, with the failing request second: a
        // missing file, a range past the end, a doubly lost stripe.
        for (bad, twice) in [
            (req("none", 0, 1), false),
            (req("f", 19_000, 2_000), false),
            (req("f", 0, 20_000), true),
        ] {
            let reqs = [req("f", 100, 50), bad];
            let (seen, _) = read_on_three(&data, &reqs, twice, twice);
            let errs: Vec<PiofsError> = seen.iter().map(|s| s.0.clone().unwrap_err()).collect();
            assert!(errs.iter().all(|e| e == &errs[0]), "{errs:?}");
            assert!(matches!(
                (&errs[0], twice),
                (PiofsError::StripeLost { .. }, true)
                    | (PiofsError::NotFound(_) | PiofsError::OutOfBounds { .. }, false)
            ));
        }
    }

    #[test]
    fn server_loss_without_parity_fails_reads() {
        let fs = fs();
        fs.preload("f", vec![5; 8192]);
        fs.fail_server(0);
        assert!(fs.peek("f").is_none());
        run_spmd(1, CostModel::free(), |ctx| {
            assert!(matches!(
                fs.read_at(ctx, "f", 0, 8192, ReadAccess::Sequential),
                Err(PiofsError::StripeLost { .. })
            ));
        })
        .unwrap();
        assert!(fs.repair_server(0) > 0, "loss is permanent without parity");
    }

    #[test]
    fn degraded_write_then_double_check() {
        let fs = parity_fs();
        let mut data = vec![3u8; 6000];
        fs.preload("f", data.clone());
        fs.fail_server(1);
        // Write through the degraded array: a clocked single-client write.
        run_spmd(1, CostModel::free(), |ctx| {
            fs.write_at(ctx, "f", 1000, &[77; 2500]);
        })
        .unwrap();
        data[1000..3500].fill(77);
        assert_eq!(fs.peek("f").unwrap(), data, "write lands even on lost units");
        // A second failure makes the affected groups unreadable — no
        // fabricated data.
        fs.fail_server(3);
        assert!(fs.peek("f").is_none());
    }

    #[test]
    fn corrupt_range_then_repair_range() {
        let fs = parity_fs();
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 256) as u8).collect();
        fs.preload("f", data.clone());
        // Silent corruption: logical reads serve the garbage (detection is
        // the checksum layer's job).
        assert_eq!(fs.corrupt_range("f", 2048, 100, 42), 100);
        assert_ne!(fs.peek("f").unwrap(), data);
        // Scrub repair: reconstruct the chunk's stripe unit from parity.
        let fixed = fs.repair_range("f", 2048, 1024).unwrap();
        assert_eq!(fixed, data[2048..3072].to_vec());
        assert_eq!(fs.peek("f").unwrap(), data);
    }

    #[test]
    fn rename_moves_contents() {
        let fs = fs();
        fs.preload("a", vec![1, 2, 3]);
        assert!(fs.rename("a", "b"));
        assert!(!fs.exists("a"));
        assert_eq!(fs.peek("b").unwrap(), vec![1, 2, 3]);
        assert!(!fs.rename("missing", "c"));
        assert!(fs.rename("b", "b"));
    }

    #[test]
    fn rename_refuses_to_clobber_committed_manifest() {
        use drms_obs::TraceRecorder;

        let fs = fs();
        let rec = Arc::new(TraceRecorder::new());
        fs.set_recorder(rec.clone());
        fs.preload("ck/1/manifest", vec![1]);
        fs.preload("ck/1/manifest.tmp", vec![2]);
        // Clobbering a committed manifest is refused; both files survive.
        assert!(!fs.rename("ck/1/manifest.tmp", "ck/1/manifest"));
        assert_eq!(fs.peek("ck/1/manifest").unwrap(), vec![1]);
        assert_eq!(fs.peek("ck/1/manifest.tmp").unwrap(), vec![2]);
        assert_eq!(rec.metrics().counter_total(names::RENAMES_REFUSED), 1);
        // Deleting the committed manifest first (the explicit uncommit
        // step) makes the same rename legal.
        assert!(fs.delete("ck/1/manifest"));
        assert!(fs.rename("ck/1/manifest.tmp", "ck/1/manifest"));
        assert_eq!(fs.peek("ck/1/manifest").unwrap(), vec![2]);
        // Non-manifest targets keep plain replace semantics.
        fs.preload("x", vec![7]);
        fs.preload("y", vec![8]);
        assert!(fs.rename("x", "y"));
        assert_eq!(fs.peek("y").unwrap(), vec![7]);
    }

    #[test]
    fn chaos_retries_escalate_writes_and_fail_reads() {
        use drms_chaos::{ChaosCtl, FaultPlan, PiofsFaults};
        use drms_obs::TraceRecorder;

        let fs = fs();
        let plan = FaultPlan {
            piofs: PiofsFaults { transient_prob: 1.0, torn: None },
            ..FaultPlan::seeded(13)
        };
        let ctl = ChaosCtl::new(plan);
        let rec = Arc::new(TraceRecorder::new());
        let out = drms_msg::Spmd::new(1, CostModel::free())
            .recorder(rec.clone())
            .chaos(ctl)
            .run(|ctx| {
                // Every attempt faults: the write burns its budget, escalates,
                // and still lands.
                fs.write_at(ctx, "f", 0, &[1, 2, 3]);
                assert_eq!(fs.peek("f").unwrap(), vec![1, 2, 3]);
                // The read gives up hard with Unavailable.
                fs.read_at(ctx, "f", 0, 3, ReadAccess::Sequential)
            })
            .unwrap();
        assert!(matches!(&out[0], Err(PiofsError::Unavailable { .. })), "{:?}", out[0]);
        let m = rec.metrics();
        assert!(m.counter_total(names::IO_RETRIES) > 0);
        assert_eq!(m.counter_total(names::RETRY_GIVEUPS), 2);
    }

    #[test]
    fn chaos_torn_write_persists_strict_prefix() {
        use drms_chaos::{ChaosCtl, FaultPlan, PiofsFaults, TornWrite};
        use drms_obs::TraceRecorder;

        let fs = fs();
        let plan = FaultPlan {
            piofs: PiofsFaults {
                transient_prob: 0.0,
                torn: Some(TornWrite {
                    path_contains: "seg".into(),
                    occurrence: 2,
                    keep_fraction: 0.5,
                }),
            },
            ..FaultPlan::seeded(3)
        };
        let ctl = ChaosCtl::new(plan);
        let rec = Arc::new(TraceRecorder::new());
        drms_msg::Spmd::new(1, CostModel::free())
            .recorder(rec.clone())
            .chaos(ctl)
            .run(|ctx| {
                fs.write_at(ctx, "other", 0, &[9; 10]); // no match: untouched
                fs.write_at(ctx, "ck/seg", 0, &[1; 10]); // occurrence 1: whole
                fs.write_at(ctx, "ck/seg", 10, &[2; 10]); // occurrence 2: torn
                fs.write_at(ctx, "ck/seg", 20, &[3; 10]); // fires once only
            })
            .unwrap();
        assert_eq!(fs.peek("other").unwrap(), vec![9; 10]);
        let got = fs.peek("ck/seg").unwrap();
        // The torn second write kept a strict prefix (5 of 10 bytes), so
        // the file has a hole of zeros where the tail should have been...
        assert_eq!(&got[..10], &[1; 10]);
        assert_eq!(&got[10..15], &[2; 5]);
        assert_eq!(&got[15..20], &[0; 5]);
        // ...while writes before and after the armed occurrence are whole.
        assert_eq!(&got[20..30], &[3; 10]);
        assert_eq!(rec.metrics().counter_total(names::TORN_WRITES), 1);
    }

    #[test]
    fn degraded_reads_cost_more_and_stay_deterministic() {
        let run = |kill: bool| -> f64 {
            let fs = Piofs::new(PiofsConfig::sp_1997().with_parity(), 9);
            fs.preload("seg", vec![11; 4 << 20]);
            if kill {
                fs.fail_server(3);
            }
            run_spmd(4, CostModel::free(), |ctx| {
                fs.collective_read(
                    ctx,
                    vec![ReadReq {
                        path: "seg".into(),
                        offset: (ctx.rank() as u64) << 20,
                        len: 1 << 20,
                        access: ReadAccess::Sequential,
                    }],
                )
                .unwrap();
                ctx.now()
            })
            .unwrap()
            .into_iter()
            .fold(0.0, f64::max)
        };
        let clean = run(false);
        let degraded = run(true);
        assert!(degraded > clean, "degraded {degraded} vs clean {clean}");
        assert_eq!(run(true), degraded, "deterministic per seed");
    }

    #[test]
    fn total_bytes_sums_prefix() {
        let fs = fs();
        run_spmd(1, CostModel::free(), |ctx| {
            fs.write_at(ctx, "ck/a", 0, &[0; 100]);
            fs.write_at(ctx, "ck/b", 0, &[0; 50]);
            fs.write_at(ctx, "other", 0, &[0; 999]);
        })
        .unwrap();
        assert_eq!(fs.total_bytes("ck/"), 150);
    }

    #[test]
    fn traced_phase_exports_server_busy_intervals() {
        use drms_obs::{Recorder, TraceRecorder};
        use std::sync::Arc;

        let rec = Arc::new(TraceRecorder::new());
        let fs = fs();
        drms_msg::run_spmd_traced(
            2,
            CostModel::free(),
            Arc::clone(&rec) as Arc<dyn Recorder>,
            |ctx| {
                let off = (ctx.rank() as u64) * (1 << 20);
                fs.collective_write(
                    ctx,
                    vec![WriteReq { path: "seg".into(), offset: off, data: vec![7; 1 << 20] }],
                );
            },
        )
        .unwrap();
        let spans = rec.server_intervals();
        assert!(!spans.is_empty(), "busy servers must report intervals");
        // Intervals are well-formed and name the priced phase.
        for s in &spans {
            assert!(s.end > s.start, "interval {s:?}");
            assert_eq!(s.name, "collective");
        }
        // Each server's last interval end matches its busy-horizon gauge.
        for s in &spans {
            let busy = rec.metrics().gauge(names::SERVER_BUSY, s.server).unwrap();
            assert!(s.end <= busy + 1e-12, "interval end {} past horizon {busy}", s.end);
        }
        // A 2 MB write across a striped file touches more than one server.
        let servers: std::collections::BTreeSet<usize> = spans.iter().map(|s| s.server).collect();
        assert!(servers.len() > 1, "expected multiple busy servers, got {servers:?}");
    }

    /// An owned buffer that fills a `create`d file whole is adopted, by
    /// `write_at` and by `collective_write` alike; a shorter one is copied
    /// into the file's reservation.
    #[test]
    fn an_owned_write_filling_a_created_file_is_adopted_and_a_short_one_is_not() {
        let fs = fs();
        run_spmd(1, CostModel::free(), |ctx| {
            let whole = vec![7u8; 5000];
            let at = whole.as_ptr();
            fs.create("whole", 5000);
            fs.write_at(ctx, "whole", 0, whole);
            assert_eq!(fs.bytes("whole").map(|b| b.as_ptr()), Some(at));

            let task = vec![3u8; 6000];
            let at = task.as_ptr();
            fs.create("task-0", 6000);
            fs.collective_write(
                ctx,
                vec![WriteReq { path: "task-0".into(), offset: 0, data: task }],
            );
            assert_eq!(fs.bytes("task-0").map(|b| b.as_ptr()), Some(at));

            let short = vec![9u8; 4999];
            let at = short.as_ptr();
            fs.create("short", 5000);
            fs.write_at(ctx, "short", 0, short);
            assert_ne!(fs.bytes("short").map(|b| b.as_ptr()), Some(at));
            assert_eq!(fs.peek("short").unwrap(), vec![9u8; 4999]);
        })
        .unwrap();
    }

    /// Everything the store keeps of a file: stored bytes (poison
    /// included), parity, lost ranges and lost parity groups, and the
    /// integrity records (the slot table, taken).
    type Kept = (String, Vec<u8>, Vec<u8>, Vec<(u64, u64)>, Vec<u64>, Option<ChunkCrcs>);

    fn kept(fs: &Piofs) -> Vec<Kept> {
        let paths: Vec<String> = fs.list("").into_iter().map(|f| f.path).collect();
        let records: Vec<Option<ChunkCrcs>> = paths.iter().map(|p| fs.take_integrity(p)).collect();
        let st = fs.state.lock();
        paths
            .into_iter()
            .zip(records)
            .map(|(path, crcs)| {
                let f = &st.files[&path];
                let lost = f.lost.intervals().to_vec();
                let parity_lost = f.parity_lost.iter().copied().collect();
                (path, f.bytes.to_vec(), f.parity.clone(), lost, parity_lost, crcs)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Whether a write lends its bytes or hands them over never shows
        /// in the store. Two twins run one random sequence of `create`s,
        /// whole-file, short and overlapping writes — each a `write_at` or
        /// a one-request `collective_write` — server failures and repairs,
        /// under parity or not, with one `write_at` torn by a chaos plan;
        /// one twin lends every write (`&[u8]`), the other hands it over
        /// (`Vec<u8>`). They leave identical bytes, sizes, parity, lost
        /// ranges, poison and integrity records.
        #[test]
        fn a_lent_and_an_owned_write_leave_the_same_store(
            parity in proptest::bool::ANY,
            steps in proptest::collection::vec(
                (0u8..8, 0u64..1 << 14, 0u64..1 << 14, proptest::bool::ANY),
                1..24,
            ),
            torn_at in 1u32..8,
        ) {
            use drms_chaos::{ChaosCtl, FaultPlan, PiofsFaults, TornWrite};

            let run = |owned: bool| {
                let cfg = PiofsConfig::test_tiny(4);
                let fs = Piofs::new(if parity { cfg.with_parity() } else { cfg }, 9);
                let torn = TornWrite { path_contains: "f".into(), occurrence: torn_at, keep_fraction: 0.5 };
                let plan = FaultPlan {
                    piofs: PiofsFaults { transient_prob: 0.0, torn: Some(torn) },
                    ..FaultPlan::seeded(3)
                };
                let write = |ctx: &mut Ctx, path: &str, at: (u64, u64), salt: u64, coll: bool| {
                    let (offset, len) = at;
                    let data: Vec<u8> = (0..len).map(|i| (i * 31 + salt) as u8 | 1).collect();
                    let path = path.to_string();
                    match (coll, owned) {
                        (false, true) => fs.write_at(ctx, &path, offset, data),
                        (false, false) => fs.write_at(ctx, &path, offset, &data),
                        (true, true) => {
                            fs.collective_write(ctx, vec![WriteReq { path, offset, data }])
                        }
                        (true, false) => {
                            let data = &data[..];
                            fs.collective_write(ctx, vec![WriteReq { path, offset, data }])
                        }
                    }
                };
                drms_msg::Spmd::new(1, CostModel::free())
                    .chaos(ChaosCtl::new(plan))
                    .run(|ctx| {
                        for (k, &(kind, a, b, collective)) in steps.iter().enumerate() {
                            let path = format!("f{}", a % 2);
                            let salt = k as u64;
                            match kind {
                                0 => fs.create(&path, b),
                                1 | 2 => {
                                    // A whole-file write into a fresh reservation.
                                    fs.create(&path, b);
                                    write(ctx, &path, (0, b), salt, collective);
                                }
                                3 => {
                                    // A short write at the start of one.
                                    fs.create(&path, b + 1);
                                    write(ctx, &path, (0, b % (b + 1)), salt, collective);
                                }
                                // Over the head of what the file holds, or anywhere.
                                4 => write(ctx, &path, (0, b % 6000), salt, collective),
                                5 => write(ctx, &path, (a % 9000, b % 6000), salt, collective),
                                6 => {
                                    fs.fail_server((a % 4) as usize);
                                }
                                _ => {
                                    fs.repair_server((a % 4) as usize);
                                }
                            }
                        }
                    })
                    .unwrap();
                kept(&fs)
            };
            proptest::prop_assert_eq!(run(false), run(true));
        }
    }
}
