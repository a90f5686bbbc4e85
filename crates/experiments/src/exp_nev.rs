//! Tables IV and VII — incidence of NaN and extreme values (N-EV).
//!
//! Protocol (Section V-B2): corrupt a restart checkpoint with 1/10/100/1000
//! bit-flips over the **full** bit range (exponent MSB and sign included,
//! NaN allowed), resume training, and count the trainings that collapse on
//! a NaN or extreme value. Table IV runs all nine framework×model
//! combinations at 64-bit; Table VII repeats Chainer's column at 16- and
//! 32-bit precision.

use crate::adaptive::{classify_collapsed, AdaptiveCell, StoppingRule};
use crate::driver::{Experiment, Report};
use crate::runner::{CellPlan, Prebaked};
use crate::stats::percent;
use crate::table::{pct, TextTable};
use sefi_core::CorrupterConfig;
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// One table cell.
#[derive(Debug, Clone)]
pub struct NevCell {
    /// Framework column.
    pub framework: FrameworkKind,
    /// Model column.
    pub model: ModelKind,
    /// Bit-flips injected per training.
    pub bitflips: u64,
    /// Trainings run.
    pub trainings: usize,
    /// Trainings that collapsed computing an N-EV.
    pub nev: usize,
    /// Percentage.
    pub pct: f64,
    /// Trials that failed to complete (excluded from the N-EV count).
    pub failed: usize,
}

/// Declare one cell's trials for the scheduler: `trials` independent
/// corrupted resumes keyed `nev-{width}-{bitflips}`.
pub fn nev_plan<'p>(
    pre: &'p Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    precision: Precision,
    bitflips: u64,
    trials: usize,
) -> CellPlan<'p> {
    let dtype = Dtype::from_precision(precision);
    let pristine = pre.checkpoint_shared(fw, model, dtype);
    let cell = format!("nev-{}-{bitflips}", precision.width());
    CellPlan::new("nev", cell, fw, model, trials, move |_, seed| {
        let cfg = CorrupterConfig::bit_flips_full_range(bitflips, precision, seed);
        let trial = pre.trial_from(fw, model, &pristine).corrupt(cfg)?;
        Ok(trial.resume(pre.budget().resume_epochs)?.outcome)
    })
}

/// Fold one cell's scheduler outcomes into the table cell.
fn nev_assemble(
    fw: FrameworkKind,
    model: ModelKind,
    bitflips: u64,
    outcomes: &[TrialOutcome],
) -> NevCell {
    let collapses = outcomes.iter().filter(|o| o.collapsed).count();
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    NevCell {
        framework: fw,
        model,
        bitflips,
        trainings: outcomes.len(),
        nev: collapses,
        pct: percent(collapses, outcomes.len()),
        failed,
    }
}

/// Measure one cell: `trials` independent corrupted resumes.
pub fn nev_cell(
    pre: &Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    precision: Precision,
    bitflips: u64,
    trials: usize,
) -> NevCell {
    let outcomes = pre.run_cell(&nev_plan(pre, fw, model, precision, bitflips, trials));
    nev_assemble(fw, model, bitflips, &outcomes)
}

/// Table IV: 64-bit, all nine combinations. All 36 cells are declared up
/// front and run through one no-barrier scheduler pool.
pub fn table4(pre: &Prebaked) -> (Vec<NevCell>, TextTable) {
    let budget = *pre.budget();
    let mut specs = Vec::new();
    for &flips in &budget.bitflip_counts() {
        for fw in FrameworkKind::all() {
            for model in ModelKind::all() {
                specs.push((flips, fw, model));
            }
        }
    }
    let plans: Vec<CellPlan<'_>> = specs
        .iter()
        .map(|&(flips, fw, model)| nev_plan(pre, fw, model, Precision::Fp64, flips, budget.trials))
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut cells = Vec::new();
    let mut table =
        TextTable::new(&["Bit-flips", "Trainings", "Framework", "Model", "N-EV", "%", "Failed"]);
    for (&(flips, fw, model), outcomes) in specs.iter().zip(&pooled) {
        let cell = nev_assemble(fw, model, flips, outcomes);
        table.row(vec![
            flips.to_string(),
            cell.trainings.to_string(),
            fw.display().to_string(),
            model.id().to_string(),
            cell.nev.to_string(),
            pct(cell.pct),
            cell.failed.to_string(),
        ]);
        cells.push(cell);
    }
    (cells, table)
}

/// Table IV under sequential stopping: same 36 cells, same seeds, but each
/// cell samples only until its N-EV-rate interval reaches the rule's
/// target width (or the cap). One wave round-trip covers every live cell,
/// so the pool stays full while decisive cells drain out early.
pub fn table4_adaptive(pre: &Prebaked, rule: StoppingRule) -> (Vec<NevCell>, TextTable) {
    let mut specs = Vec::new();
    for &flips in &pre.budget().bitflip_counts() {
        for fw in FrameworkKind::all() {
            for model in ModelKind::all() {
                specs.push((flips, fw, model));
            }
        }
    }
    let cells: Vec<AdaptiveCell<'_>> = specs
        .iter()
        .map(|&(flips, fw, model)| {
            let plan = nev_plan(pre, fw, model, Precision::Fp64, flips, rule.max_trials);
            AdaptiveCell::new(plan, rule, classify_collapsed)
        })
        .collect();
    let results = pre.run_adaptive(&cells);

    let mut out = Vec::new();
    let mut table =
        TextTable::new(&["Bit-flips", "Trainings", "Framework", "Model", "N-EV", "%", "Failed"]);
    for (&(flips, fw, model), result) in specs.iter().zip(&results) {
        let cell = nev_assemble(fw, model, flips, &result.outcomes);
        table.row(vec![
            flips.to_string(),
            cell.trainings.to_string(),
            fw.display().to_string(),
            model.id().to_string(),
            cell.nev.to_string(),
            pct(cell.pct),
            cell.failed.to_string(),
        ]);
        out.push(cell);
    }
    (out, table)
}

/// Table VII: Chainer at 16- and 32-bit precision, one pool for all cells.
pub fn table7(pre: &Prebaked) -> (Vec<NevCell>, TextTable) {
    let budget = *pre.budget();
    let mut specs = Vec::new();
    for &flips in &budget.bitflip_counts() {
        for precision in [Precision::Fp16, Precision::Fp32] {
            for model in ModelKind::all() {
                specs.push((flips, precision, model));
            }
        }
    }
    let plans: Vec<CellPlan<'_>> = specs
        .iter()
        .map(|&(flips, precision, model)| {
            nev_plan(pre, FrameworkKind::Chainer, model, precision, flips, budget.trials)
        })
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut cells = Vec::new();
    let mut table =
        TextTable::new(&["Bit-flips", "DL Train", "Precision", "Model", "N-EV", "%", "Failed"]);
    for (&(flips, precision, model), outcomes) in specs.iter().zip(&pooled) {
        let cell = nev_assemble(FrameworkKind::Chainer, model, flips, outcomes);
        table.row(vec![
            flips.to_string(),
            cell.trainings.to_string(),
            format!("{} bits", precision.width()),
            model.id().to_string(),
            cell.nev.to_string(),
            pct(cell.pct),
            cell.failed.to_string(),
        ]);
        cells.push(cell);
    }
    (cells, table)
}

/// The qualitative claim the paper draws from Table IV, checkable on any
/// budget: N-EV incidence ascends with the flip count.
pub fn ascending_pattern_holds(cells: &[NevCell]) -> bool {
    let rate_at = |flips: u64| -> f64 {
        let subset: Vec<&NevCell> = cells.iter().filter(|c| c.bitflips == flips).collect();
        subset.iter().map(|c| c.pct).sum::<f64>() / subset.len().max(1) as f64
    };
    rate_at(1) <= rate_at(10) && rate_at(10) <= rate_at(100) && rate_at(100) <= rate_at(1000)
}

/// Table IV: incidence of NaN and extreme values at 64-bit.
pub const TABLE4: Experiment = Experiment {
    name: "table4",
    title: "Table IV — incidence of NaN and extreme values (N-EV), 64-bit",
    files: &["table4.csv"],
    run: |pre, r| report_nev(pre, r, "table4.csv", table4(pre)),
};

/// Table VII: N-EV incidence at 16- and 32-bit precision.
pub const TABLE7: Experiment = Experiment {
    name: "table7",
    title: "Table VII — N-EV incidence at 16/32-bit precision (Chainer)",
    files: &["table7.csv"],
    run: |pre, r| report_nev(pre, r, "table7.csv", table7(pre)),
};

fn report_nev(pre: &Prebaked, r: &mut Report, csv: &str, (cells, t): (Vec<NevCell>, TextTable)) {
    r.budget(pre, &format!("{} trainings/cell", pre.budget().trials));
    r.table(&t);
    r.finding("ascending N-EV pattern with bit-flip count", ascending_pattern_holds(&cells));
    r.csv(csv, &t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn thousand_flips_collapse_nearly_all() {
        let pre = Prebaked::new(Budget::smoke());
        let cell =
            nev_cell(&pre, FrameworkKind::Chainer, ModelKind::AlexNet, Precision::Fp64, 1000, 4);
        assert_eq!(cell.trainings, 4);
        // Paper Table IV: 96-99.6% at 1000 flips.
        assert!(cell.nev >= 3, "only {} of 4 collapsed", cell.nev);
    }

    #[test]
    fn one_flip_rarely_collapses() {
        let pre = Prebaked::new(Budget::smoke());
        let cell =
            nev_cell(&pre, FrameworkKind::Chainer, ModelKind::AlexNet, Precision::Fp64, 1, 6);
        // Paper: ≤ 0.4% at one flip.
        assert!(cell.nev <= 1, "{} of 6 collapsed on one flip", cell.nev);
    }
}
