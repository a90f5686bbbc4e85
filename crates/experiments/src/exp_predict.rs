//! Table VIII — prediction (inference) under different floating-point
//! precisions and bit-flip rates.
//!
//! A fully trained Chainer checkpoint is corrupted with 0/1/10/100/1000
//! full-range bit-flips at 16/32/64-bit storage; each cell averages
//! `predict_trials` prediction runs of `predict_images` images and counts
//! (in parentheses in the paper) the runs whose computation produced an
//! N-EV. Unlike training, prediction has no chance to recover — degraded
//! weights directly degrade accuracy, more at lower precision.

use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked, Restored};
use crate::table::TextTable;
use parking_lot::Mutex;
use sefi_core::CorrupterConfig;
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::{Dtype, H5File};
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;
use std::collections::HashMap;

/// One Table VIII cell.
#[derive(Debug, Clone)]
pub struct PredictCell {
    /// Storage precision.
    pub precision: Precision,
    /// Model.
    pub model: ModelKind,
    /// Bit-flips injected.
    pub bitflips: u64,
    /// Mean prediction accuracy (×100) over the non-N-EV runs; `None` when
    /// every run produced N-EV (the paper prints "-").
    pub accuracy: Option<f64>,
    /// Prediction runs that computed an N-EV (paper's parentheses).
    pub nev_runs: usize,
    /// Trials that failed to complete (excluded from the average).
    pub failed: usize,
}

/// Cache of fully trained checkpoints per (model, dtype).
pub struct TrainedCheckpoints<'a> {
    pre: &'a Prebaked,
    cache: Mutex<HashMap<(ModelKind, u32), H5File>>,
}

impl<'a> TrainedCheckpoints<'a> {
    /// New cache over a prebaked harness.
    pub fn new(pre: &'a Prebaked) -> Self {
        TrainedCheckpoints { pre, cache: Mutex::new(HashMap::new()) }
    }

    /// A Chainer checkpoint of `model` trained to the curve end epoch
    /// ("a trained checkpoint was used up to epoch 100"), stored at `dtype`.
    pub fn get(&self, model: ModelKind, dtype: Dtype) -> H5File {
        let key = (model, dtype.size() as u32);
        if let Some(f) = self.cache.lock().get(&key) {
            return f.clone();
        }
        let budget = *self.pre.budget();
        let mut run = self
            .pre
            .trial(FrameworkKind::Chainer, model, Dtype::F64)
            .resume(budget.curve_end_epoch - budget.restart_epoch)
            .expect("pristine checkpoint restores");
        assert!(!run.training.collapsed(), "error-free training collapsed");
        let ck = run.session.checkpoint(dtype);
        self.cache.lock().insert(key, ck.clone());
        ck
    }
}

/// Declare one prediction cell for the scheduler. The fully trained
/// checkpoint is minted (or served from the cache) here, sequentially,
/// before the pool dispatches.
pub fn predict_plan<'p>(
    trained: &TrainedCheckpoints<'p>,
    model: ModelKind,
    precision: Precision,
    bitflips: u64,
) -> CellPlan<'p> {
    let pre = trained.pre;
    let budget = *pre.budget();
    let dtype = Dtype::from_precision(precision);
    let pristine = trained.get(model, dtype);

    let cell = format!("predict-{}-{bitflips}", precision.width());
    CellPlan::new(
        "table8",
        cell,
        FrameworkKind::Chainer,
        model,
        budget.predict_trials,
        move |trial, seed| {
            let mut altered = pre.trial_from(FrameworkKind::Chainer, model, &pristine);
            if bitflips > 0 {
                let cfg = CorrupterConfig::bit_flips_full_range(bitflips, precision, seed);
                altered = altered.corrupt(cfg)?;
            }
            let Restored { outcome, mut session } = altered.restore()?;
            // Each run predicts a different slice of the test set ("each
            // prediction processed 1,000 different images").
            let n = budget.predict_images.min(pre.data().len(sefi_data::Split::Test));
            let start = (trial * n) % pre.data().len(sefi_data::Split::Test).max(1);
            let indices: Vec<usize> =
                (0..n).map(|i| (start + i) % pre.data().len(sefi_data::Split::Test)).collect();
            let (images, labels) = pre.data().gather(sefi_data::Split::Test, &indices);
            let (preds, nev) = session.predict(images);
            let correct = preds.iter().zip(&labels).filter(|(p, &l)| **p == l as usize).count();
            Ok(outcome.with_collapsed(nev).with_accuracy(correct as f64 / n.max(1) as f64))
        },
    )
}

/// Fold one prediction cell's outcomes into the table cell.
fn predict_assemble(
    model: ModelKind,
    precision: Precision,
    bitflips: u64,
    outcomes: &[TrialOutcome],
) -> PredictCell {
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let nev_runs = outcomes.iter().filter(|o| o.collapsed).count();
    let clean: Vec<f64> = outcomes
        .iter()
        .filter(|o| !o.is_failed() && !o.collapsed)
        .filter_map(|o| o.final_accuracy.map(|a| a * 100.0))
        .collect();
    PredictCell {
        precision,
        model,
        bitflips,
        accuracy: if clean.is_empty() { None } else { Some(crate::stats::mean(&clean)) },
        nev_runs,
        failed,
    }
}

/// Measure one cell.
pub fn predict_cell(
    trained: &TrainedCheckpoints<'_>,
    model: ModelKind,
    precision: Precision,
    bitflips: u64,
) -> PredictCell {
    let outcomes = trained.pre.run_cell(&predict_plan(trained, model, precision, bitflips));
    predict_assemble(model, precision, bitflips, &outcomes)
}

/// Full Table VIII: {0,1,10,100,1000} flips × three precisions × three
/// models, Chainer — all 45 cells through one scheduler pool. The fully
/// trained checkpoints (one per model × precision) are minted while the
/// plans are built, before any trial dispatches.
pub fn table8(pre: &Prebaked) -> (Vec<PredictCell>, TextTable) {
    let trained = TrainedCheckpoints::new(pre);
    let mut counts = vec![0u64];
    counts.extend_from_slice(&pre.budget().bitflip_counts());
    let mut specs = Vec::new();
    for &flips in &counts {
        for precision in [Precision::Fp16, Precision::Fp32, Precision::Fp64] {
            for model in ModelKind::all() {
                specs.push((flips, precision, model));
            }
        }
    }
    let plans: Vec<CellPlan<'_>> = specs
        .iter()
        .map(|&(flips, precision, model)| predict_plan(&trained, model, precision, flips))
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut cells = Vec::new();
    let mut table =
        TextTable::new(&["Bit-flips", "Precision", "Model", "Accuracy", "N-EV", "Failed"]);
    for (&(flips, precision, model), outcomes) in specs.iter().zip(&pooled) {
        let cell = predict_assemble(model, precision, flips, outcomes);
        table.row(vec![
            flips.to_string(),
            format!("{} bits", precision.width()),
            model.id().to_string(),
            cell.accuracy.map(|a| format!("{a:.2}")).unwrap_or_else(|| "-".into()),
            format!("({})", cell.nev_runs),
            cell.failed.to_string(),
        ]);
        cells.push(cell);
    }
    (cells, table)
}

/// Table VIII: prediction under corruption at different precisions.
pub const TABLE8: Experiment = Experiment {
    name: "table8",
    title: "Table VIII — prediction under different precisions and bit-flip rates (Chainer)",
    files: &["table8.csv"],
    run: |pre, r| {
        let b = pre.budget();
        let (trials, images) = (b.predict_trials, b.predict_images);
        r.budget(pre, &format!("{trials} predictions x {images} images per cell"));
        let (_, table) = table8(pre);
        r.table(&table);
        r.csv("table8.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn error_free_prediction_has_no_nev() {
        let pre = Prebaked::new(Budget::smoke());
        let trained = TrainedCheckpoints::new(&pre);
        let cell = predict_cell(&trained, ModelKind::AlexNet, Precision::Fp64, 0);
        assert_eq!(cell.nev_runs, 0);
        assert!(cell.accuracy.is_some());
    }

    #[test]
    fn heavy_corruption_degrades_or_nevs_prediction() {
        let pre = Prebaked::new(Budget::smoke());
        let trained = TrainedCheckpoints::new(&pre);
        let clean = predict_cell(&trained, ModelKind::AlexNet, Precision::Fp32, 0);
        let heavy = predict_cell(&trained, ModelKind::AlexNet, Precision::Fp32, 1000);
        // Paper: prediction (unlike training) is visibly hurt at high rates
        // — either accuracy drops or runs turn N-EV.
        let degraded = match (clean.accuracy, heavy.accuracy) {
            (Some(c), Some(h)) => h < c + 1e-9,
            (_, None) => true,
            _ => false,
        };
        assert!(degraded || heavy.nev_runs > 0);
    }
}
