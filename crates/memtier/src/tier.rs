//! The node-resident piece store behind the diskless checkpoint tier.
//!
//! A [`MemTier`] models one in-memory checkpoint store shared by the nodes
//! of a machine: each checkpoint prefix maps to a set of stream files
//! (`segment`, `array-{name}`), each file to a sorted run of pieces, each
//! piece to its bytes (shared, not duplicated per holder — this is a
//! simulator), a CRC, and the list of nodes holding a copy. Node loss is
//! permanent for tier contents: [`MemTier::fail_node`] strips the node from
//! every holder list and evicts any checkpoint that lost the last copy of
//! some piece — even if the node itself is later repaired, its memory is
//! gone.
//!
//! All bookkeeping here is control-plane: nothing in this module advances a
//! simulated clock. Data-movement pricing happens where data moves — in the
//! collective store/spill/restore operations of [`crate::store`] and
//! [`crate::restore`].

use std::collections::BTreeMap;
use std::sync::Arc;

use drms_core::manifest::Manifest;
use drms_core::wire::crc32;
use drms_core::{CoreError, Result};
use parking_lot::Mutex;

/// Default capture granularity: matches the ~1 MB stream pieces of
/// `darray::stream`, so a tier piece is usually exactly one stream piece.
pub const DEFAULT_PIECE_BYTES: usize = 1 << 20;

/// One resident piece of a stream file.
#[derive(Debug, Clone)]
struct TierPiece {
    offset: u64,
    len: u64,
    crc: u32,
    data: Arc<Vec<u8>>,
    /// Nodes holding a copy; emptied by node loss. The piece (and with it
    /// the checkpoint) is gone when the last holder dies.
    holders: Vec<usize>,
}

#[derive(Debug, Default)]
struct TierFile {
    /// Total stream length; set at seal time.
    len: u64,
    pieces: Vec<TierPiece>,
}

#[derive(Debug)]
struct TierCheckpoint {
    app: String,
    sop: u64,
    /// Encoded manifest (integrity empty — per-piece CRCs protect the tier).
    manifest: Vec<u8>,
    files: BTreeMap<String, TierFile>,
    sealed: bool,
}

/// What one fetch served, with enough provenance to price the movement.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The requested bytes.
    pub data: Vec<u8>,
    /// `(holder node, bytes served)` per piece touched, in stream order.
    pub sources: Vec<(usize, u64)>,
}

/// A piece scheduled for spill to PIOFS.
#[derive(Debug, Clone)]
pub(crate) struct SpillPiece {
    pub file: String,
    pub offset: u64,
    pub data: Arc<Vec<u8>>,
    /// First surviving holder — the node whose copy is written out.
    pub primary: usize,
}

/// The in-memory replicated checkpoint tier.
#[derive(Debug)]
pub struct MemTier {
    replicas: usize,
    piece_bytes: usize,
    inner: Mutex<BTreeMap<String, TierCheckpoint>>,
}

impl MemTier {
    /// A tier keeping `replicas` copies of every piece in addition to the
    /// owner's, at the default capture granularity.
    pub fn new(replicas: usize) -> Arc<MemTier> {
        MemTier::with_piece_bytes(replicas, DEFAULT_PIECE_BYTES)
    }

    /// As [`MemTier::new`] with an explicit capture granularity (bytes per
    /// tier piece for files captured whole, like the data segment).
    pub fn with_piece_bytes(replicas: usize, piece_bytes: usize) -> Arc<MemTier> {
        Arc::new(MemTier {
            replicas,
            piece_bytes: piece_bytes.max(1),
            inner: Mutex::new(BTreeMap::new()),
        })
    }

    /// Replicas kept per piece, owner copy excluded.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Capture granularity in bytes.
    pub fn piece_bytes(&self) -> usize {
        self.piece_bytes
    }

    /// Prefixes currently resident (sealed or mid-store), sorted.
    pub fn prefixes(&self) -> Vec<String> {
        self.inner.lock().keys().cloned().collect()
    }

    /// Whether a tier entry exists under `prefix`.
    pub fn contains(&self, prefix: &str) -> bool {
        self.inner.lock().contains_key(prefix)
    }

    /// Whether the entry under `prefix` can serve a restart: sealed, and
    /// every piece still has at least one holder. (Eviction keeps this
    /// equivalent to "sealed and present", but the check stays honest.)
    pub fn is_intact(&self, prefix: &str) -> bool {
        let inner = self.inner.lock();
        let Some(ck) = inner.get(prefix) else { return false };
        ck.sealed && ck.files.values().all(|f| f.pieces.iter().all(|p| !p.holders.is_empty()))
    }

    /// Minimum surviving holder count over the pieces of the sealed entry
    /// under `prefix` — the replica-health signal live monitoring watches
    /// (it starts at the configured replication degree and decays as node
    /// loss eats copies). `None` when no sealed entry exists.
    pub fn min_replicas(&self, prefix: &str) -> Option<usize> {
        let inner = self.inner.lock();
        let ck = inner.get(prefix).filter(|c| c.sealed)?;
        ck.files.values().flat_map(|f| f.pieces.iter().map(|p| p.holders.len())).min()
    }

    /// Decodes the manifest of a sealed entry.
    pub fn manifest(&self, prefix: &str) -> Result<Manifest> {
        let inner = self.inner.lock();
        let ck = inner.get(prefix).ok_or_else(|| CoreError::NoCheckpoint(prefix.into()))?;
        if !ck.sealed {
            return Err(CoreError::NotIntact(format!("{prefix:?} is not sealed")));
        }
        Ok(Manifest::decode(&ck.manifest)?)
    }

    /// The newest intact checkpoint, optionally filtered by application:
    /// highest SOP, ties broken by prefix order for determinism.
    pub fn newest_intact(&self, app: Option<&str>) -> Option<(String, Manifest)> {
        let candidates: Vec<String> = {
            let inner = self.inner.lock();
            let mut v: Vec<(u64, String)> = inner
                .iter()
                .filter(|(_, c)| c.sealed && app.is_none_or(|a| c.app == a))
                .map(|(p, c)| (c.sop, p.clone()))
                .collect();
            v.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            v.into_iter().map(|(_, p)| p).collect()
        };
        candidates
            .into_iter()
            .find(|p| self.is_intact(p))
            .and_then(|p| self.manifest(&p).ok().map(|m| (p, m)))
    }

    /// Length of a file's stream in a sealed entry.
    pub fn file_len(&self, prefix: &str, file: &str) -> Result<u64> {
        let inner = self.inner.lock();
        let ck = inner.get(prefix).ok_or_else(|| CoreError::NoCheckpoint(prefix.into()))?;
        let f = ck
            .files
            .get(file)
            .ok_or_else(|| CoreError::Incomplete(format!("{prefix:?} holds no file {file:?}")))?;
        Ok(f.len)
    }

    /// `(name, stream length)` of every file in a sealed entry, sorted.
    pub fn files(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        let inner = self.inner.lock();
        let ck = inner.get(prefix).ok_or_else(|| CoreError::NoCheckpoint(prefix.into()))?;
        Ok(ck.files.iter().map(|(n, f)| (n.clone(), f.len)).collect())
    }

    /// Serves `len` bytes of `file`'s stream starting at `offset`,
    /// CRC-verifying every piece touched. Returns the bytes plus the
    /// holder/byte provenance the caller prices the movement from.
    pub fn fetch(&self, prefix: &str, file: &str, offset: u64, len: u64) -> Result<Fetched> {
        let inner = self.inner.lock();
        let ck = inner.get(prefix).ok_or_else(|| CoreError::NoCheckpoint(prefix.into()))?;
        if !ck.sealed {
            return Err(CoreError::NotIntact(format!("{prefix:?} is not sealed")));
        }
        let f = ck
            .files
            .get(file)
            .ok_or_else(|| CoreError::Incomplete(format!("{prefix:?} holds no file {file:?}")))?;
        if offset + len > f.len {
            return Err(CoreError::Incomplete(format!(
                "fetch {offset}+{len} past end of {file:?} ({} bytes)",
                f.len
            )));
        }
        let mut data = Vec::with_capacity(len as usize);
        let mut sources = Vec::new();
        let end = offset + len;
        for p in &f.pieces {
            if p.offset + p.len <= offset || p.offset >= end {
                continue;
            }
            let holder = *p.holders.first().ok_or_else(|| {
                CoreError::NotIntact(format!(
                    "all replicas of {file:?} piece at {} are lost",
                    p.offset
                ))
            })?;
            if crc32(&p.data) != p.crc {
                return Err(CoreError::TierCorrupt {
                    prefix: prefix.into(),
                    file: file.into(),
                    offset: p.offset,
                });
            }
            let lo = offset.max(p.offset);
            let hi = end.min(p.offset + p.len);
            data.extend_from_slice(&p.data[(lo - p.offset) as usize..(hi - p.offset) as usize]);
            sources.push((holder, hi - lo));
        }
        if data.len() as u64 != len {
            return Err(CoreError::Incomplete(format!(
                "pieces of {file:?} cover only {} of {len} bytes at {offset}",
                data.len()
            )));
        }
        Ok(Fetched { data, sources })
    }

    /// Wipes a node's tier contents (node loss — permanent even if the node
    /// is later repaired). Evicts every checkpoint that lost the last copy
    /// of some piece and returns their prefixes, sorted.
    pub fn fail_node(&self, node: usize) -> Vec<String> {
        let mut inner = self.inner.lock();
        let mut dead = Vec::new();
        for (prefix, ck) in inner.iter_mut() {
            let mut lost = false;
            for f in ck.files.values_mut() {
                for p in f.pieces.iter_mut() {
                    p.holders.retain(|&h| h != node);
                    lost |= p.holders.is_empty();
                }
            }
            if lost {
                dead.push(prefix.clone());
            }
        }
        for p in &dead {
            inner.remove(p);
        }
        dead
    }

    /// Begins (or restarts) a store under `prefix`: any previous entry is
    /// dropped, so re-checkpointing a prefix from a different task count
    /// never mixes piece plans.
    pub(crate) fn begin(&self, prefix: &str) {
        self.inner.lock().remove(prefix);
    }

    /// Records one piece. The first insert at `(file, offset)` supplies the
    /// bytes; later inserts with a matching length and CRC just add their
    /// node to the holder list (insert order between owner and replicas is
    /// immaterial).
    pub(crate) fn insert_piece(
        &self,
        prefix: &str,
        file: &str,
        offset: u64,
        data: &Arc<Vec<u8>>,
        crc: u32,
        holder: usize,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let ck = inner.entry(prefix.to_string()).or_insert_with(|| TierCheckpoint {
            app: String::new(),
            sop: 0,
            manifest: Vec::new(),
            files: BTreeMap::new(),
            sealed: false,
        });
        let f = ck.files.entry(file.to_string()).or_default();
        if let Some(p) = f.pieces.iter_mut().find(|p| p.offset == offset) {
            if p.len != data.len() as u64 || p.crc != crc {
                return Err(CoreError::Incomplete(format!(
                    "conflicting piece at {file:?} offset {offset}: \
                     {} bytes crc {:#x} vs {} bytes crc {crc:#x}",
                    p.len,
                    p.crc,
                    data.len()
                )));
            }
            if !p.holders.contains(&holder) {
                p.holders.push(holder);
                p.holders.sort_unstable();
            }
            return Ok(());
        }
        f.pieces.push(TierPiece {
            offset,
            len: data.len() as u64,
            crc,
            data: Arc::clone(data),
            holders: vec![holder],
        });
        Ok(())
    }

    /// Seals an entry: fixes its identity, verifies every file's pieces
    /// tile `[0, len)` exactly, and makes it eligible for restart.
    pub(crate) fn seal(
        &self,
        prefix: &str,
        app: &str,
        sop: u64,
        manifest: Vec<u8>,
        file_lens: &[(String, u64)],
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let ck = inner.get_mut(prefix).ok_or_else(|| CoreError::NoCheckpoint(prefix.into()))?;
        for (name, len) in file_lens {
            let f = ck.files.entry(name.clone()).or_default();
            f.len = *len;
            f.pieces.sort_by_key(|p| p.offset);
            let mut at = 0u64;
            for p in &f.pieces {
                if p.offset != at {
                    return Err(CoreError::Incomplete(format!(
                        "{prefix:?} file {name:?}: gap before offset {} (covered to {at})",
                        p.offset
                    )));
                }
                at += p.len;
            }
            if at != *len {
                return Err(CoreError::Incomplete(format!(
                    "{prefix:?} file {name:?}: pieces cover {at} of {len} bytes"
                )));
            }
        }
        if let Some(extra) = ck.files.keys().find(|n| !file_lens.iter().any(|(m, _)| m == *n)) {
            return Err(CoreError::Incomplete(format!(
                "{prefix:?} holds unexpected file {extra:?}"
            )));
        }
        ck.app = app.to_string();
        ck.sop = sop;
        ck.manifest = manifest;
        ck.sealed = true;
        Ok(())
    }

    /// The spill schedule for a sealed entry: every piece with the node
    /// whose copy gets written (its first surviving holder).
    pub(crate) fn pieces_for_spill(&self, prefix: &str) -> Result<Vec<SpillPiece>> {
        let inner = self.inner.lock();
        let ck = inner.get(prefix).ok_or_else(|| CoreError::NoCheckpoint(prefix.into()))?;
        if !ck.sealed {
            return Err(CoreError::NotIntact(format!("{prefix:?} is not sealed")));
        }
        let mut out = Vec::new();
        for (name, f) in &ck.files {
            for p in &f.pieces {
                let primary = *p.holders.first().ok_or_else(|| {
                    CoreError::NotIntact(format!(
                        "all replicas of {name:?} piece at {} are lost",
                        p.offset
                    ))
                })?;
                out.push(SpillPiece {
                    file: name.clone(),
                    offset: p.offset,
                    data: Arc::clone(&p.data),
                    primary,
                });
            }
        }
        Ok(out)
    }

    /// The encoded manifest of a sealed entry (spill rewrites it with
    /// file-integrity records before putting it on PIOFS).
    pub(crate) fn manifest_bytes(&self, prefix: &str) -> Result<Vec<u8>> {
        let inner = self.inner.lock();
        let ck = inner.get(prefix).ok_or_else(|| CoreError::NoCheckpoint(prefix.into()))?;
        Ok(ck.manifest.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_core::manifest::CkptKind;

    fn manifest(app: &str, sop: u64) -> Vec<u8> {
        Manifest {
            app: app.into(),
            kind: CkptKind::Drms,
            ntasks: 2,
            sop,
            arrays: Vec::new(),
            integrity: Vec::new(),
            deltas: Vec::new(),
        }
        .encode()
    }

    fn store(
        tier: &MemTier,
        prefix: &str,
        app: &str,
        sop: u64,
        chunks: &[(&str, &[u8], &[usize])],
    ) {
        tier.begin(prefix);
        let mut lens: BTreeMap<String, u64> = BTreeMap::new();
        for (file, bytes, holders) in chunks {
            let off = *lens.entry(file.to_string()).or_default();
            let data = Arc::new(bytes.to_vec());
            let crc = crc32(&data);
            for &h in *holders {
                tier.insert_piece(prefix, file, off, &data, crc, h).unwrap();
            }
            *lens.get_mut(*file).unwrap() += bytes.len() as u64;
        }
        let file_lens: Vec<(String, u64)> = lens.into_iter().collect();
        tier.seal(prefix, app, sop, manifest(app, sop), &file_lens).unwrap();
    }

    #[test]
    fn fetch_assembles_ranges_across_pieces() {
        let tier = MemTier::new(1);
        store(
            &tier,
            "ck/a",
            "app",
            1,
            &[("segment", b"hello ", &[0, 1]), ("segment", b"world", &[1, 2])],
        );
        assert!(tier.is_intact("ck/a"));
        assert_eq!(tier.file_len("ck/a", "segment").unwrap(), 11);
        let f = tier.fetch("ck/a", "segment", 3, 6).unwrap();
        assert_eq!(f.data, b"lo wor");
        assert_eq!(f.sources, vec![(0, 3), (1, 3)]);
        assert!(tier.fetch("ck/a", "segment", 8, 6).is_err());
    }

    #[test]
    fn node_loss_evicts_only_when_last_holder_dies() {
        let tier = MemTier::new(1);
        store(&tier, "ck/a", "app", 1, &[("segment", b"xyz", &[0, 1])]);
        store(&tier, "ck/b", "app", 2, &[("segment", b"pqr", &[1, 2])]);
        assert_eq!(tier.fail_node(0), Vec::<String>::new());
        assert!(tier.is_intact("ck/a") && tier.is_intact("ck/b"));
        // Node 1 was the last holder of ck/a's piece; ck/b still has node 2.
        assert_eq!(tier.fail_node(1), vec!["ck/a".to_string()]);
        assert!(!tier.contains("ck/a"));
        assert!(tier.is_intact("ck/b"));
        assert_eq!(tier.newest_intact(Some("app")).unwrap().0, "ck/b");
    }

    #[test]
    fn newest_intact_orders_by_sop() {
        let tier = MemTier::new(1);
        store(&tier, "ck/9", "app", 9, &[("segment", b"a", &[0])]);
        store(&tier, "ck/3", "app", 3, &[("segment", b"b", &[1])]);
        store(&tier, "other", "noise", 99, &[("segment", b"c", &[2])]);
        let (p, m) = tier.newest_intact(Some("app")).unwrap();
        assert_eq!((p.as_str(), m.sop), ("ck/9", 9));
        tier.fail_node(0);
        let (p, _) = tier.newest_intact(Some("app")).unwrap();
        assert_eq!(p, "ck/3");
    }

    #[test]
    fn seal_rejects_gaps_and_short_coverage() {
        let tier = MemTier::new(1);
        tier.begin("ck/g");
        let data = Arc::new(b"abc".to_vec());
        tier.insert_piece("ck/g", "segment", 1, &data, crc32(&data), 0).unwrap();
        assert!(tier.seal("ck/g", "app", 1, manifest("app", 1), &[("segment".into(), 4)]).is_err());
        tier.begin("ck/g");
        tier.insert_piece("ck/g", "segment", 0, &data, crc32(&data), 0).unwrap();
        assert!(tier.seal("ck/g", "app", 1, manifest("app", 1), &[("segment".into(), 9)]).is_err());
        assert!(!tier.is_intact("ck/g"));
    }

    #[test]
    fn corrupt_piece_is_detected_on_fetch() {
        let tier = MemTier::new(1);
        let data = Arc::new(b"abcd".to_vec());
        tier.begin("ck/c");
        // Lie about the CRC: fetch must refuse to serve the piece.
        tier.insert_piece("ck/c", "segment", 0, &data, 0xDEAD_BEEF, 0).unwrap();
        tier.seal("ck/c", "app", 1, manifest("app", 1), &[("segment".into(), 4)]).unwrap();
        assert!(matches!(
            tier.fetch("ck/c", "segment", 0, 4),
            Err(CoreError::TierCorrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn restore_replaces_previous_entry() {
        let tier = MemTier::new(1);
        store(&tier, "ck/a", "app", 1, &[("segment", b"one", &[0, 1])]);
        store(&tier, "ck/a", "app", 4, &[("segment", b"redone!", &[2, 3])]);
        assert_eq!(tier.file_len("ck/a", "segment").unwrap(), 7);
        assert_eq!(tier.manifest("ck/a").unwrap().sop, 4);
    }
}
