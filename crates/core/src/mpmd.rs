//! MPMD applications: coordinated checkpointing of multiple SPMD components
//! (paper, Section 2.2).
//!
//! An MPMD computation is "a collection of multiple SPMD structures each
//! with its own distributed data set"; its globally consistent points are
//! *sets* of SOPs, one per component. This module provides the
//! cross-component rendezvous and the umbrella manifest:
//!
//! * each component runs as its own SPMD region (own task count, own
//!   distributed arrays, own segment) and checkpoints under its own
//!   sub-prefix;
//! * [`MpmdSession::coordinated_checkpoint`] lines the components up at a consistent
//!   cut: all components enter, each takes its component checkpoint, and
//!   the umbrella manifest is written only after every component has
//!   committed — so a restart never sees a torn MPMD state;
//! * on restart, components can be reconfigured **individually or
//!   collectively** (each reads its own sub-checkpoint with whatever task
//!   count it now has), exactly as the paper describes.

use std::sync::Arc;

use drms_msg::Ctx;
use drms_piofs::Piofs;
use parking_lot::{Condvar, Mutex};

use crate::handle::CheckpointArray;
use crate::report::OpBreakdown;
use crate::segment::DataSegment;
use crate::wire::{Reader, WireError, Writer};
use crate::{CoreError, Drms, Result};

const MAGIC: [u8; 4] = *b"DMPD";
const VERSION: u32 = 1;
/// The smallest encoded component (two empty strings and a task count):
/// what a count read from the manifest is capped by ([`Reader::fits`]).
const MIN_COMPONENT: usize = 4 + 4 + 8;

/// A reusable rendezvous for one representative task per component.
struct Gate {
    n: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut st = self.state.lock();
        let gen = st.1;
        st.0 += 1;
        if st.0 == self.n {
            st.0 = 0;
            st.1 += 1;
            self.cv.notify_all();
        } else {
            while st.1 == gen {
                self.cv.wait(&mut st);
            }
        }
    }
}

/// Shared coordinator for the components of one MPMD application.
///
/// Create one per application and hand a clone to every component's body.
#[derive(Clone)]
pub struct MpmdSession {
    app: String,
    ncomponents: usize,
    gate: Arc<Gate>,
}

/// One entry of the umbrella manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpmdComponent {
    /// Component name.
    pub name: String,
    /// Sub-prefix holding the component's own (reconfigurable) checkpoint.
    pub prefix: String,
    /// Task count of the component at checkpoint time.
    pub ntasks: usize,
}

/// The umbrella manifest of a coordinated MPMD checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpmdManifest {
    /// Application name.
    pub app: String,
    /// Components, in component-id order.
    pub components: Vec<MpmdComponent>,
}

impl MpmdSession {
    /// A session for `ncomponents` SPMD components of application `app`.
    pub fn new(app: &str, ncomponents: usize) -> MpmdSession {
        assert!(ncomponents > 0);
        MpmdSession {
            app: app.to_string(),
            ncomponents,
            gate: Arc::new(Gate { n: ncomponents, state: Mutex::new((0, 0)), cv: Condvar::new() }),
        }
    }

    /// Number of components in the application.
    pub fn ncomponents(&self) -> usize {
        self.ncomponents
    }

    /// Sub-prefix for component `id` under an umbrella `prefix`.
    pub fn component_prefix(prefix: &str, id: usize) -> String {
        format!("{prefix}/comp{id}")
    }

    /// Path of the umbrella manifest.
    pub fn manifest_path(prefix: &str) -> String {
        format!("{prefix}/mpmd-manifest")
    }

    /// Coordinated checkpoint: every task of every component calls this at
    /// its component's SOP. Component `id` checkpoints under
    /// `prefix/comp{id}`; after **all** components have committed, component
    /// 0's representative writes the umbrella manifest that makes the MPMD
    /// state restartable. Returns this component's breakdown.
    #[allow(clippy::too_many_arguments)]
    pub fn coordinated_checkpoint(
        &self,
        ctx: &mut Ctx,
        fs: &Piofs,
        component_id: usize,
        component_name: &str,
        drms: &mut Drms,
        prefix: &str,
        segment: &DataSegment,
        arrays: &[&dyn CheckpointArray],
    ) -> Result<OpBreakdown> {
        assert!(component_id < self.ncomponents);
        let sub = Self::component_prefix(prefix, component_id);
        let report = drms.reconfig_checkpoint(ctx, fs, &sub, segment, arrays)?;

        // Publish this component's entry, then rendezvous: the umbrella
        // manifest is written only after every component's data is durable.
        if ctx.rank() == 0 {
            let entry = MpmdComponent {
                name: component_name.to_string(),
                prefix: sub,
                ntasks: ctx.ntasks(),
            };
            fs.preload(&format!("{prefix}/.entry{component_id}"), encode_entry(&entry));
            self.gate.wait();
            if component_id == 0 {
                let mut components = Vec::with_capacity(self.ncomponents);
                for id in 0..self.ncomponents {
                    let path = format!("{prefix}/.entry{id}");
                    let bytes =
                        fs.peek(&path).ok_or_else(|| CoreError::NoCheckpoint(path.clone()))?;
                    components.push(decode_entry(&bytes)?);
                    fs.delete(&path);
                }
                let manifest = MpmdManifest { app: self.app.clone(), components };
                fs.preload(&Self::manifest_path(prefix), manifest.encode());
            }
            // Second rendezvous: nobody leaves before the manifest exists.
            self.gate.wait();
        }
        ctx.barrier();
        Ok(report)
    }
}

impl MpmdManifest {
    /// Encodes the umbrella manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.string(&self.app);
        w.u32(self.components.len() as u32);
        for c in &self.components {
            w.string(&c.name);
            w.string(&c.prefix);
            w.u64(c.ntasks as u64);
        }
        w.finish()
    }

    /// Decodes an umbrella manifest, refusing bytes left over after the
    /// last component.
    pub fn decode(bytes: &[u8]) -> std::result::Result<MpmdManifest, WireError> {
        let (mut r, version) = Reader::with_header(bytes, MAGIC)?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let app = r.string()?;
        let n = r.u32()?;
        let mut components = Vec::with_capacity(r.fits(n as usize, MIN_COMPONENT));
        for _ in 0..n {
            components.push(MpmdComponent {
                name: r.string()?,
                prefix: r.string()?,
                ntasks: r.u64()? as usize,
            });
        }
        r.finish("MPMD manifest")?;
        Ok(MpmdManifest { app, components })
    }

    /// Reads the umbrella manifest of an archived MPMD state.
    pub fn load(fs: &Piofs, prefix: &str) -> Result<MpmdManifest> {
        let path = MpmdSession::manifest_path(prefix);
        let bytes = fs.peek(&path).ok_or_else(|| CoreError::NoCheckpoint(prefix.to_string()))?;
        Ok(Self::decode(&bytes)?)
    }

    /// Entry for a named component.
    pub fn component(&self, name: &str) -> Option<&MpmdComponent> {
        self.components.iter().find(|c| c.name == name)
    }
}

fn encode_entry(e: &MpmdComponent) -> Vec<u8> {
    let mut w = Writer::new();
    w.string(&e.name);
    w.string(&e.prefix);
    w.u64(e.ntasks as u64);
    w.finish()
}

fn decode_entry(bytes: &[u8]) -> std::result::Result<MpmdComponent, WireError> {
    let mut r = Reader::new(bytes);
    Ok(MpmdComponent { name: r.string()?, prefix: r.string()?, ntasks: r.u64()? as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip() {
        let m = MpmdManifest {
            app: "coupled".into(),
            components: vec![
                MpmdComponent { name: "ocean".into(), prefix: "ck/m/comp0".into(), ntasks: 3 },
                MpmdComponent { name: "atmos".into(), prefix: "ck/m/comp1".into(), ntasks: 2 },
            ],
        };
        let d = MpmdManifest::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.component("atmos").unwrap().ntasks, 2);
        assert!(d.component("ice").is_none());
    }

    #[test]
    fn a_hostile_component_count_is_an_error_not_an_allocation() {
        // A valid header claiming u32::MAX components and holding none: sized
        // by the count, the reservation alone would abort the process.
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.string("coupled");
        w.u32(u32::MAX);
        let bytes = w.finish();
        assert!(matches!(MpmdManifest::decode(&bytes), Err(WireError::Truncated { .. })));
        // One component short of the count is refused the same way.
        let m = MpmdManifest {
            app: "coupled".into(),
            components: vec![MpmdComponent { name: "a".into(), prefix: "p".into(), ntasks: 1 }],
        };
        let mut bytes = m.encode();
        let count_at = 8 + 4 + m.app.len();
        bytes[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(MpmdManifest::decode(&bytes), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn gate_synchronizes_components() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let gate = Arc::new(Gate { n: 3, state: Mutex::new((0, 0)), cv: Condvar::new() });
        let before = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let gate = Arc::clone(&gate);
                let before = Arc::clone(&before);
                s.spawn(move || {
                    for round in 0..20 {
                        before.fetch_add(1, Ordering::SeqCst);
                        gate.wait();
                        // After the gate, all three arrivals of this round
                        // must have happened.
                        assert!(before.load(Ordering::SeqCst) >= 3 * (round + 1));
                    }
                });
            }
        });
        assert_eq!(before.load(Ordering::SeqCst), 60);
    }
}
