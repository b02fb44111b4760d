//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5) plus the Section 6 shadow-region model.
//!
//! Every experiment is a row of [`gate::TABLE`], run by the one `gate`
//! binary (`cargo run --release -p drms-bench --bin gate -- <row>`): the
//! paper's tables, Figure 7, the shadow model and the ablations
//! ([`paper`]), the resilience, memory-tier and trace experiments, and the
//! regression gates of the extensions. Each row checks its invariants and
//! its headline numbers against a committed baseline; a paper row's
//! rendered table is the file committed under `results/`. Every row that
//! runs a mini-application goes through the one checkpoint/restart cycle
//! of [`experiment`]; the toy job every fault campaign drives, the delta
//! crash campaigns included (its delta arms restart from a delta link
//! through the JSA), is [`campaign`], and the moving-window job the incremental (`delta`) and
//! overlapped (`async`) checkpoint rows drive is [`window`]. Host-time
//! measurement of the Figure 5 algorithms lives in the standalone
//! `benchmark/` package.
//!
//! Conventions shared by all experiments, matching the paper's setup:
//! a 16-node system with PIOFS striped across all 16 nodes; applications
//! run with a one-to-one task/processor mapping on the first `P` nodes;
//! a checkpoint is taken at the mid-point of the run; restarts reload the
//! mid-point state. Simulated times come from the calibrated cost models
//! in `drms-msg` and `drms-piofs`; data movement is real.

#![deny(missing_docs)]

pub mod args;
pub mod blackbox;
pub mod campaign;
pub mod chaos;
pub mod experiment;
pub mod gate;
pub mod insight;
pub mod json;
pub mod memtier;
pub mod paper;
pub mod pulse;
pub mod recover;
pub mod resilience;
pub mod seed;
pub mod stats;
pub mod table;
pub mod trace;
pub mod window;
