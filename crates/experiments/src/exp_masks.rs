//! Table VI — multi-bit masks from the DRAM field study applied to
//! ResNet50 training.
//!
//! The masks come from Bautista-Gomez et al.'s large-scale DRAM error
//! study (the paper's reference \[43\]). Each mask is applied to 10 weights
//! at a random placement offset; 10 trainings per cell; the table reports
//! the average accuracy immediately after loading the corrupted checkpoint
//! (AvgI-Acc, excluding collapsed trainings) and the number of N-EV events.

use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked};
use crate::table::TextTable;
use sefi_core::{CorrupterConfig, CorruptionMode, InjectionAmount, LocationSelection};
use sefi_float::{BitMask, Precision};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// The paper's five masks: (active bits, pattern).
pub const MASKS: [(u32, &str); 5] =
    [(3, "10001010"), (4, "01101010"), (4, "10110010"), (5, "11110001"), (6, "11101101")];

/// Weights hit per training (paper: "each multi-bit mask is applied to 10
/// weights of the neural network").
pub const WEIGHTS_PER_TRAINING: u64 = 10;

/// One Table VI cell.
#[derive(Debug, Clone)]
pub struct MaskCell {
    /// Framework column.
    pub framework: FrameworkKind,
    /// Mask pattern (empty string for the error-free row).
    pub mask: String,
    /// Active bits in the mask.
    pub bits: u32,
    /// Average initial accuracy (× 100), collapsed trainings excluded.
    pub avg_initial_acc: f64,
    /// Number of trainings that produced an N-EV.
    pub nev: usize,
    /// Trials that failed to complete (excluded from the average).
    pub failed: usize,
}

/// Declare one mask cell's trainings for the scheduler.
pub fn mask_plan<'p>(pre: &'p Prebaked, fw: FrameworkKind, mask: &str) -> CellPlan<'p> {
    let model = ModelKind::ResNet50;
    let trials = pre.budget().curve_trials.max(3);
    let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
    let mask = mask.to_string();
    CellPlan::new("table6", format!("mask-{mask}"), fw, model, trials, move |_, seed| {
        let cfg = CorrupterConfig {
            injection_probability: 1.0,
            amount: InjectionAmount::Count(WEIGHTS_PER_TRAINING),
            float_precision: Precision::Fp64,
            mode: CorruptionMode::BitMask(BitMask::parse(&mask)?),
            allow_nan_values: true,
            locations: LocationSelection::AllRandom,
            seed,
        };
        // Accuracy immediately after loading, and whether the loaded
        // weights hold an N-EV (the training would collapse on first use).
        let mut run = pre.trial_from(fw, model, &pristine).corrupt(cfg)?.restore()?;
        let nev = run.session.weights_have_nev();
        let accuracy = run.session.test_accuracy(pre.data());
        Ok(run.outcome.with_collapsed(nev).with_accuracy(accuracy))
    })
}

/// Fold one mask cell's outcomes into the table cell.
fn mask_assemble(fw: FrameworkKind, bits: u32, mask: &str, outcomes: &[TrialOutcome]) -> MaskCell {
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let nev = outcomes.iter().filter(|o| o.collapsed).count();
    let clean: Vec<f64> = outcomes
        .iter()
        .filter(|o| !o.is_failed() && !o.collapsed)
        .filter_map(|o| o.final_accuracy.map(|a| a * 100.0))
        .collect();
    MaskCell {
        framework: fw,
        mask: mask.to_string(),
        bits,
        avg_initial_acc: crate::stats::mean(&clean),
        nev,
        failed,
    }
}

/// One cell: ten trainings with one mask.
pub fn mask_cell(pre: &Prebaked, fw: FrameworkKind, bits: u32, mask: &str) -> MaskCell {
    let outcomes = pre.run_cell(&mask_plan(pre, fw, mask));
    mask_assemble(fw, bits, mask, &outcomes)
}

/// Error-free row (0 bits): the restart checkpoint's own accuracy.
pub fn baseline_cell(pre: &Prebaked, fw: FrameworkKind) -> MaskCell {
    // The pristine checkpoint restoring is a harness invariant, not a
    // corrupted-trial hazard — an error here is a genuine bug.
    let mut clean = pre
        .trial(fw, ModelKind::ResNet50, Dtype::F64)
        .restore()
        .unwrap_or_else(|e| panic!("pristine checkpoint failed to load: {e}"));
    let acc = clean.session.test_accuracy(pre.data());
    MaskCell {
        framework: fw,
        mask: "00000000".to_string(),
        bits: 0,
        avg_initial_acc: acc * 100.0,
        nev: 0,
        failed: 0,
    }
}

/// Full Table VI: all fifteen mask cells (three frameworks × five masks)
/// share one scheduler pool; the trial-free baseline rows are computed
/// up front.
pub fn table6(pre: &Prebaked) -> (Vec<MaskCell>, TextTable) {
    let baselines: Vec<MaskCell> =
        FrameworkKind::all().into_iter().map(|fw| baseline_cell(pre, fw)).collect();
    let mut specs = Vec::new();
    for fw in FrameworkKind::all() {
        for &(bits, mask) in &MASKS {
            specs.push((fw, bits, mask));
        }
    }
    let plans: Vec<CellPlan<'_>> =
        specs.iter().map(|&(fw, _, mask)| mask_plan(pre, fw, mask)).collect();
    let pooled = pre.run_plan(&plans);

    let mut cells = Vec::new();
    let mut table = TextTable::new(&["Bits", "Mask", "Framework", "AvgI-Acc", "N-EV", "Failed"]);
    let mut pooled = pooled.iter();
    for (fw, base) in FrameworkKind::all().into_iter().zip(baselines) {
        table.row(vec![
            "0".into(),
            base.mask.clone(),
            fw.display().to_string(),
            format!("{:.2}", base.avg_initial_acc),
            "-".into(),
            "0".into(),
        ]);
        cells.push(base);
        for &(bits, mask) in &MASKS {
            let outcomes = pooled.next().expect("one outcome vector per declared cell");
            let cell = mask_assemble(fw, bits, mask, outcomes);
            table.row(vec![
                bits.to_string(),
                mask.to_string(),
                fw.display().to_string(),
                format!("{:.2}", cell.avg_initial_acc),
                cell.nev.to_string(),
                cell.failed.to_string(),
            ]);
            cells.push(cell);
        }
    }
    (cells, table)
}

/// Table VI: multi-bit DRAM-study masks applied to ResNet50.
pub const TABLE6: Experiment = Experiment {
    name: "table6",
    title: "Table VI — multi-bit mask corruption of ResNet50",
    files: &["table6.csv"],
    run: |pre, r| {
        r.line(format!("budget: {}\n", pre.budget().name));
        let (_, table) = table6(pre);
        r.table(&table);
        r.csv("table6.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn paper_masks_parse_with_declared_popcounts() {
        for (bits, mask) in MASKS {
            assert_eq!(BitMask::parse(mask).unwrap().ones(), bits);
        }
    }

    #[test]
    fn mask_cell_reports_sane_numbers() {
        let pre = Prebaked::new(Budget::smoke());
        let cell = mask_cell(&pre, FrameworkKind::Chainer, 3, "10001010");
        assert!(
            (0.0..=100.0).contains(&cell.avg_initial_acc)
                || cell.nev == pre.budget().curve_trials.max(3)
        );
        assert!(cell.nev <= pre.budget().curve_trials.max(3));
    }
}
