//! Experiment harness: one module per table/figure of the paper's
//! evaluation (Section V), plus shared plumbing.
//!
//! Every experiment follows the paper's protocol:
//!
//! 1. train a model deterministically to the restart epoch and write a
//!    checkpoint (cached and reused, exactly as the paper notes: "after a
//!    checkpoint is saved, several versions of it can be created by using
//!    different corruption configurations, and any of them can be used to
//!    restart the application");
//! 2. corrupt a copy of that checkpoint with a configured injector;
//! 3. resume training (or run inference) from the corrupted copy, restored
//!    once — steps 2 and 3 are one [`Trial`], built by [`Prebaked::trial`];
//! 4. compare against the deterministic error-free baseline.
//!
//! Scale is controlled by a [`Budget`] (`smoke` / `default` / `paper`);
//! every binary accepts `--budget <name>` and prints the same rows/series
//! the paper reports; each is one [`driver::Experiment`] of the
//! [`driver`] registry. See EXPERIMENTS.md for recorded outputs.

#![deny(missing_docs)]

pub mod adaptive;
mod budget;
pub mod chart;
pub mod driver;
pub mod ecc;
pub mod exp_bitranges;
pub mod exp_curves;
pub mod exp_equivalent;
pub mod exp_forensics;
pub mod exp_guard;
pub mod exp_heatmap;
pub mod exp_layers;
pub mod exp_masks;
pub mod exp_nev;
pub mod exp_precision;
pub mod exp_predict;
pub mod exp_propagation;
pub mod exp_rwc;
pub mod exp_serving;
pub mod exp_storage;
mod runner;
pub mod stats;
pub mod table;

pub use adaptive::{
    classify_collapsed, replay, wilson_interval, AdaptiveCell, AdaptiveCellResult, CellTrace,
    ShardWorkerConfig, StoppingRule, WaveStat,
};
pub use budget::Budget;
pub use driver::budget_from_args;
pub use runner::{
    combo_seed, combo_seed_parts, CampaignConfig, CellPlan, PhaseGuard, Prebaked, Restored,
    Resumed, Trial, TrialError, TrialResult,
};
pub use sefi_telemetry::TrialOutcome;
