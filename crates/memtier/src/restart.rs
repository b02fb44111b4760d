//! Tiered restart resolution: memory tier first, verified PIOFS walk next.

use drms_core::find_checkpoints;
use drms_core::manifest::Manifest;
use drms_obs::Recorder;
use drms_piofs::Piofs;
use drms_resil::RestartPlan;

use crate::tier::MemTier;

/// Which tier a restart is served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartTier {
    /// Resident replicated pieces — no checkpoint I/O on the restart path.
    Memory,
    /// The durable PIOFS chain (possibly after quarantine fallback).
    Piofs,
}

impl std::fmt::Display for RestartTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RestartTier::Memory => "memory",
            RestartTier::Piofs => "piofs",
        })
    }
}

/// Outcome of the tiered restart walk.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredRestartPlan {
    /// Tier the restart should be served from.
    pub tier: RestartTier,
    /// The memory-tier hit, when `tier` is [`RestartTier::Memory`].
    pub memory: Option<(String, Manifest)>,
    /// The PIOFS walk result ([`drms_resil::choose_restart`]); empty and
    /// untouched on a memory hit — the durable chain is not disturbed when
    /// the fast tier can serve.
    pub piofs: RestartPlan,
}

impl TieredRestartPlan {
    /// The chosen restart prefix, whichever tier serves it.
    pub fn prefix(&self) -> Option<&str> {
        match self.tier {
            RestartTier::Memory => self.memory.as_ref().map(|(p, _)| p.as_str()),
            RestartTier::Piofs => self.piofs.chosen.as_ref().map(|(p, _)| p.as_str()),
        }
    }
}

/// Extends [`drms_resil::choose_restart`] into the tiered walk: the newest
/// intact memory-tier entry wins when it is at least as new (by SOP) as the
/// newest checkpoint PIOFS has a manifest for; otherwise — tier absent,
/// empty, invalidated by node loss, or stale — the walk falls through to
/// the verified PIOFS chain with its scrub/quarantine fallback. `t` stamps
/// the telemetry of any PIOFS-side verification the walk performs.
pub fn choose_restart_tiered(
    fs: &Piofs,
    tier: Option<&MemTier>,
    app: Option<&str>,
    rec: &dyn Recorder,
    t: f64,
) -> TieredRestartPlan {
    if let Some(tier) = tier {
        if let Some((prefix, manifest)) = tier.newest_intact(app) {
            let newest_durable = find_checkpoints(fs, app).first().map(|(_, m)| m.sop).unwrap_or(0);
            if manifest.sop >= newest_durable {
                return TieredRestartPlan {
                    tier: RestartTier::Memory,
                    memory: Some((prefix, manifest)),
                    piofs: RestartPlan::default(),
                };
            }
        }
    }
    TieredRestartPlan {
        tier: RestartTier::Piofs,
        memory: None,
        piofs: drms_resil::choose_restart(fs, app, rec, t),
    }
}
