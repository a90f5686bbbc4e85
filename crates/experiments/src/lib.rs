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
//! 3. resume training (or run inference) from the corrupted copy;
//! 4. compare against the deterministic error-free baseline.
//!
//! Scale is controlled by a [`Budget`] (`smoke` / `default` / `paper`);
//! every binary accepts `--budget <name>` and prints the same rows/series
//! the paper reports. See EXPERIMENTS.md for recorded outputs.

#![deny(missing_docs)]

pub mod adaptive;
mod budget;
pub mod chart;
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
pub use runner::{
    combo_seed, combo_seed_parts, CampaignConfig, CellPlan, PhaseGuard, Prebaked, TrialError,
    TrialResult,
};
pub use sefi_telemetry::TrialOutcome;

/// Parse `--budget <name>` (or `SEFI_BUDGET`) from a binary's args;
/// defaults to [`Budget::default_budget`].
pub fn budget_from_args() -> Budget {
    let args: Vec<String> = std::env::args().collect();
    let mut name = std::env::var("SEFI_BUDGET").unwrap_or_default();
    for i in 0..args.len() {
        if args[i] == "--budget" && i + 1 < args.len() {
            name = args[i + 1].clone();
        }
    }
    match name.as_str() {
        "" => Budget::default_budget(),
        other => Budget::by_name(other).unwrap_or_else(|| {
            eprintln!("unknown budget {other:?}; valid: smoke, default, paper");
            std::process::exit(2);
        }),
    }
}

/// Campaign configuration for a binary named `name`, honoring the shared
/// command-line flags: `--results-dir <path>` redirects everything the
/// campaign writes (default `results/`), and `--retry-failed` re-executes
/// trials whose manifest record is a failure instead of serving it.
pub fn campaign_config_from_args(name: &str) -> CampaignConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = CampaignConfig::new(name);
    for i in 0..args.len() {
        if args[i] == "--results-dir" && i + 1 < args.len() {
            cfg = cfg.results_dir(&args[i + 1]);
        }
        if args[i] == "--retry-failed" {
            cfg = cfg.retry_failed(true);
        }
    }
    cfg
}
