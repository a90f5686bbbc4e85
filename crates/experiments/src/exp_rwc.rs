//! Table V — model sensitivity to a single bit-flip (RWC: "restarted with
//! no change in accuracy").
//!
//! Protocol (Section V-C1): deterministic training makes the error-free
//! resumed trajectory exactly reproducible; a trial corrupts the restart
//! checkpoint with ONE bit-flip (exponent MSB excluded so nothing
//! collapses), resumes, and compares the final accuracy against the
//! deterministic baseline. Equality means the flip was fully absorbed.

use crate::adaptive::{AdaptiveCell, StoppingRule};
use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked};
use crate::stats::percent;
use crate::table::{pct, TextTable};
use sefi_core::CorrupterConfig;
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// One Table V cell.
#[derive(Debug, Clone)]
pub struct RwcCell {
    /// Framework column.
    pub framework: FrameworkKind,
    /// Model row.
    pub model: ModelKind,
    /// Trainings run.
    pub trainings: usize,
    /// Restarts with no change in accuracy.
    pub rwc: usize,
    /// Percentage.
    pub pct: f64,
    /// Largest absolute accuracy deviation seen among changed restarts.
    pub max_deviation: f64,
    /// Trials that failed to complete (excluded from RWC/deviation).
    pub failed: usize,
}

/// Declare one cell's trials for the scheduler. The deterministic
/// baseline accuracy is precomputed here (sequentially, before the pool
/// dispatches) so trial closures never train a baseline mid-pool.
pub fn rwc_plan<'p>(
    pre: &'p Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    trials: usize,
) -> CellPlan<'p> {
    pre.baseline_final_accuracy(model, Dtype::F64);
    let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
    CellPlan::new("rwc", "rwc", fw, model, trials, move |_, seed| {
        let cfg = CorrupterConfig::bit_flips(1, Precision::Fp64, seed);
        let trial = pre.trial_from(fw, model, &pristine).corrupt(cfg)?;
        // A collapsed trial (cannot happen with the MSB excluded) has no accuracy.
        Ok(trial.resume(pre.budget().resume_epochs)?.with_final_accuracy())
    })
}

/// Fold one cell's scheduler outcomes into the table cell.
fn rwc_assemble(
    pre: &Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    outcomes: &[TrialOutcome],
) -> RwcCell {
    let baseline = pre.baseline_final_accuracy(model, Dtype::F64);
    let trials = outcomes.len();
    // Deviations are derived here, not stored: the deterministic baseline
    // is recomputable and a collapsed trial's deviation is infinite, which
    // the manifest cannot hold. Failed trials carry no accuracy and are
    // excluded — counting them as infinite deviation would conflate a
    // harness fault with a model-sensitivity result.
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let results: Vec<(bool, f64)> = outcomes
        .iter()
        .filter(|o| !o.is_failed())
        .map(|o| match o.final_accuracy {
            Some(acc) => (acc == baseline, (acc - baseline).abs()),
            None => (false, f64::INFINITY),
        })
        .collect();
    let rwc = results.iter().filter(|(same, _)| *same).count();
    let max_deviation = results.iter().map(|(_, d)| *d).fold(0.0, f64::max);
    RwcCell {
        framework: fw,
        model,
        trainings: trials,
        rwc,
        pct: percent(rwc, trials),
        max_deviation,
        failed,
    }
}

/// Measure one cell.
pub fn rwc_cell(pre: &Prebaked, fw: FrameworkKind, model: ModelKind, trials: usize) -> RwcCell {
    let outcomes = pre.run_cell(&rwc_plan(pre, fw, model, trials));
    rwc_assemble(pre, fw, model, &outcomes)
}

/// Full Table V: all nine cells through one scheduler pool.
pub fn table5(pre: &Prebaked) -> (Vec<RwcCell>, TextTable) {
    let trials = pre.budget().trials;
    let mut specs = Vec::new();
    for model in ModelKind::all() {
        for fw in FrameworkKind::all() {
            specs.push((model, fw));
        }
    }
    let plans: Vec<CellPlan<'_>> =
        specs.iter().map(|&(model, fw)| rwc_plan(pre, fw, model, trials)).collect();
    let pooled = pre.run_plan(&plans);

    let mut cells = Vec::new();
    let mut table =
        TextTable::new(&["Model", "Trainings", "Framework", "RWC", "%", "MaxDev", "Failed"]);
    for (&(model, fw), outcomes) in specs.iter().zip(&pooled) {
        let cell = rwc_assemble(pre, fw, model, outcomes);
        table.row(vec![
            model.id().to_string(),
            trials.to_string(),
            fw.display().to_string(),
            cell.rwc.to_string(),
            pct(cell.pct),
            format!("{:.4}", cell.max_deviation),
            cell.failed.to_string(),
        ]);
        cells.push(cell);
    }
    (cells, table)
}

/// Table V under sequential stopping: each cell samples until its RWC-rate
/// interval reaches the rule's target width. The classifier counts a
/// non-failed trial as a success iff its final accuracy exactly equals the
/// deterministic baseline (a collapsed resume — no accuracy at all — is a
/// non-RWC observation, not an exclusion).
pub fn table5_adaptive(pre: &Prebaked, rule: StoppingRule) -> (Vec<RwcCell>, TextTable) {
    let mut specs = Vec::new();
    for model in ModelKind::all() {
        for fw in FrameworkKind::all() {
            specs.push((model, fw));
        }
    }
    let cells: Vec<AdaptiveCell<'_>> = specs
        .iter()
        .map(|&(model, fw)| {
            let baseline = pre.baseline_final_accuracy(model, Dtype::F64);
            let plan = rwc_plan(pre, fw, model, rule.max_trials);
            AdaptiveCell::new(plan, rule, move |o: &TrialOutcome| {
                if o.is_failed() {
                    None
                } else {
                    Some(o.final_accuracy == Some(baseline))
                }
            })
        })
        .collect();
    let results = pre.run_adaptive(&cells);

    let mut out = Vec::new();
    let mut table =
        TextTable::new(&["Model", "Trainings", "Framework", "RWC", "%", "MaxDev", "Failed"]);
    for (&(model, fw), result) in specs.iter().zip(&results) {
        let cell = rwc_assemble(pre, fw, model, &result.outcomes);
        table.row(vec![
            model.id().to_string(),
            cell.trainings.to_string(),
            fw.display().to_string(),
            cell.rwc.to_string(),
            pct(cell.pct),
            format!("{:.4}", cell.max_deviation),
            cell.failed.to_string(),
        ]);
        out.push(cell);
    }
    (out, table)
}

/// Table V: model sensitivity to a single bit-flip (RWC).
pub const TABLE5: Experiment = Experiment {
    name: "table5",
    title: "Table V — sensitivity to 1 bit-flip (RWC = restarted with no change)",
    files: &["table5.csv"],
    run: |pre, r| {
        r.budget(pre, &format!("{} trainings/cell", pre.budget().trials));
        let (_, table) = table5(pre);
        r.table(&table);
        r.csv("table5.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn zero_flips_is_always_rwc() {
        // Determinism sanity: resuming the pristine checkpoint twice gives
        // exactly the baseline accuracy.
        let pre = Prebaked::new(Budget::smoke());
        let baseline = pre.baseline_final_accuracy(ModelKind::AlexNet, Dtype::F64);
        let clean = pre.trial(FrameworkKind::PyTorch, ModelKind::AlexNet, Dtype::F64);
        let out = clean.resume(pre.budget().resume_epochs).unwrap().training;
        assert_eq!(out.final_accuracy().unwrap(), baseline);
    }

    #[test]
    fn single_flip_mostly_absorbed_and_never_catastrophic() {
        let pre = Prebaked::new(Budget::smoke());
        let cell = rwc_cell(&pre, FrameworkKind::Chainer, ModelKind::AlexNet, 6);
        // Paper Table V: 46-98.8% RWC; and the non-RWC cases "only
        // correspond to minor changes in accuracy without degradation".
        assert!(cell.max_deviation < 0.5, "deviation {}", cell.max_deviation);
        assert!(cell.pct >= 0.0);
    }
}
