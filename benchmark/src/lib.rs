//! The repository benchmark: four workloads driven through the public
//! entry points of the campaign runner and the serving stack, end-to-end
//! metrics from untraced runs, per-layer metrics from traced runs, and a
//! comparison of two sets of runs under the bounds in `BENCHMARK.json`.
//! See `BENCHMARK.md`.

pub mod campaign;
pub mod compare;
pub mod measure;
pub mod report;
pub mod serving;

use std::path::PathBuf;

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured part of the run should take.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke scale: the `smoke` budget and short serving rungs.
    pub smoke: bool,
    /// Where a traced run writes its spans, as JSON lines.
    pub spans: Option<PathBuf>,
    /// The checkout the run started in.
    pub root: PathBuf,
}
