//! Figure 7 — dramatic corruption via scaling factors
//! (Chainer/ResNet50 heat map).
//!
//! "Instead of injecting a bit-flip into a value, we used a scaling factor
//! to alter that value. […] Modifying 10 values with a scaling factor of
//! 4,500 could cut accuracy in half." (Section VI-3). Each heat-map cell
//! scales N random weights by a factor and reports the model's accuracy
//! right after loading the corrupted checkpoint, averaged over trials.

use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked};
use crate::table::TextTable;
use sefi_core::{CorrupterConfig, CorruptionMode, InjectionAmount, LocationSelection};
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// Weights-affected axis of the heat map.
pub const WEIGHTS_AXIS: [u64; 4] = [1, 10, 100, 1000];

/// Scaling-factor axis.
pub const FACTOR_AXIS: [f64; 5] = [1.5, 10.0, 100.0, 1000.0, 4500.0];

/// One heat-map cell.
#[derive(Debug, Clone)]
pub struct HeatCell {
    /// Number of weights scaled.
    pub weights: u64,
    /// Scaling factor applied.
    pub factor: f64,
    /// Mean accuracy (0–1) immediately after loading.
    pub accuracy: f64,
    /// Trials that failed to complete (excluded from the mean).
    pub failed: usize,
}

/// Declare one heat-map cell for the scheduler. A manifest record without
/// an accuracy (written by an older schema) cannot feed the heat-map mean,
/// so the plan rejects such cached records and re-runs them.
pub fn heat_plan<'p>(pre: &'p Prebaked, weights: u64, factor: f64) -> CellPlan<'p> {
    let fw = FrameworkKind::Chainer;
    let model = ModelKind::ResNet50;
    let trials = pre.budget().curve_trials.max(3);
    let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
    let cell = format!("heat-{weights}-{factor}");
    CellPlan::new("fig7", cell, fw, model, trials, move |_, seed| {
        let cfg = CorrupterConfig {
            injection_probability: 1.0,
            amount: InjectionAmount::Count(weights),
            float_precision: Precision::Fp64,
            mode: CorruptionMode::ScalingFactor(factor),
            allow_nan_values: true,
            locations: LocationSelection::AllRandom,
            seed,
        };
        let mut run = pre.trial_from(fw, model, &pristine).corrupt(cfg)?.restore()?;
        let accuracy = run.session.test_accuracy(pre.data());
        Ok(run.outcome.with_accuracy(accuracy))
    })
    .validated(|o| o.final_accuracy.is_some())
}

/// Fold one heat-map cell's outcomes into the grid cell.
fn heat_assemble(weights: u64, factor: f64, outcomes: &[TrialOutcome]) -> HeatCell {
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let accs: Vec<f64> = outcomes.iter().filter_map(|o| o.final_accuracy).collect();
    HeatCell { weights, factor, accuracy: crate::stats::mean(&accs), failed }
}

/// Measure one cell.
pub fn heat_cell(pre: &Prebaked, weights: u64, factor: f64) -> HeatCell {
    let outcomes = pre.run_cell(&heat_plan(pre, weights, factor));
    heat_assemble(weights, factor, &outcomes)
}

/// Full Figure 7 grid plus the baseline accuracy — all twenty grid cells
/// through one scheduler pool.
pub fn figure7(pre: &Prebaked) -> (Vec<HeatCell>, f64, TextTable) {
    let mut clean = pre
        .trial(FrameworkKind::Chainer, ModelKind::ResNet50, Dtype::F64)
        .restore()
        .expect("pristine checkpoint restores");
    let baseline = clean.session.test_accuracy(pre.data());
    let mut specs = Vec::new();
    for &w in &WEIGHTS_AXIS {
        for &f in &FACTOR_AXIS {
            specs.push((w, f));
        }
    }
    let plans: Vec<CellPlan<'_>> = specs.iter().map(|&(w, f)| heat_plan(pre, w, f)).collect();
    let pooled = pre.run_plan(&plans);

    let mut cells = Vec::new();
    let mut header = vec!["weights\\factor".to_string()];
    header.extend(FACTOR_AXIS.iter().map(|f| format!("{f}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = TextTable::new(&header_refs);
    let mut pooled = pooled.iter();
    for &w in &WEIGHTS_AXIS {
        let mut row = vec![w.to_string()];
        for &f in &FACTOR_AXIS {
            let outcomes = pooled.next().expect("one outcome vector per declared cell");
            let cell = heat_assemble(w, f, outcomes);
            row.push(if cell.failed > 0 {
                format!("{:.3} [{}F]", cell.accuracy, cell.failed)
            } else {
                format!("{:.3}", cell.accuracy)
            });
            cells.push(cell);
        }
        table.row(row);
    }
    (cells, baseline, table)
}

/// The paper's qualitative claim: heavy scaling of many weights hurts far
/// more than light scaling of few.
pub fn monotone_damage(cells: &[HeatCell]) -> bool {
    let acc = |w: u64, f: f64| -> f64 {
        cells.iter().find(|c| c.weights == w && c.factor == f).map(|c| c.accuracy).unwrap_or(0.0)
    };
    acc(1000, 4500.0) <= acc(1, 1.5) + 1e-9
}

/// Figure 7: accuracy heat map under scaling-factor corruption.
pub const FIG7: Experiment = Experiment {
    name: "fig7",
    title: "Figure 7 — accuracy under scaling-factor corruption (Chainer/ResNet50)",
    files: &["fig7.csv"],
    run: |pre, r| {
        r.line(format!("budget: {}\n", pre.budget().name));
        let (cells, baseline, table) = figure7(pre);
        r.line(format!("baseline accuracy: {baseline:.3}\n"));
        r.table(&table);
        r.finding("monotone damage (heavy >= light)", monotone_damage(&cells));
        r.csv("fig7.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn extreme_scaling_damages_more_than_mild() {
        let pre = Prebaked::new(Budget::smoke());
        let mild = heat_cell(&pre, 1, 1.5);
        let severe = heat_cell(&pre, 1000, 4500.0);
        // Scaling 1000 weights by 4500 must not beat scaling 1 weight by
        // 1.5 (paper: "the effect of scaling values is dramatic").
        assert!(severe.accuracy <= mild.accuracy + 0.10, "{severe:?} vs {mild:?}");
    }
}
