//! Extension experiment — the paper's Section VI-1 claim, tested.
//!
//! "If the detection of N-EV was implemented at either the hardware or
//! software level, then DL platforms would be virtually unbreakable."
//!
//! This experiment reruns the Table IV protocol (full-range bit-flips,
//! NaN/Inf allowed) but scrubs each corrupted checkpoint with
//! [`sefi_core::NevGuard`] before resuming. The guarded N-EV collapse rate
//! must be zero at every flip count, and guarded trainings should recover
//! accuracy like the benign-corruption runs of Figure 3.

use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked};
use crate::stats::percent;
use crate::table::{pct, TextTable};
use sefi_core::{CorrupterConfig, NevGuard, RepairPolicy};
use sefi_float::{NevPolicy, Precision};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// One guarded-vs-unguarded comparison cell.
#[derive(Debug, Clone)]
pub struct GuardCell {
    /// Bit-flips injected.
    pub bitflips: u64,
    /// Trainings per arm.
    pub trainings: usize,
    /// Collapses without the guard.
    pub unguarded_nev: usize,
    /// Collapses with the guard (the claim: always 0).
    pub guarded_nev: usize,
    /// Mean N-EVs repaired per checkpoint by the guard.
    pub mean_repaired: f64,
    /// Mean final accuracy of the guarded resumes.
    pub guarded_accuracy: f64,
    /// Trials that failed to complete (excluded from both arms).
    pub failed: usize,
}

/// Declare one guarded-vs-unguarded cell for the scheduler: `trials`
/// corrupted resumes, each tried with and without the guard (same
/// corrupted checkpoint, so the comparison is paired).
pub fn guard_plan<'p>(
    pre: &'p Prebaked,
    repair: RepairPolicy,
    bitflips: u64,
    trials: usize,
) -> CellPlan<'p> {
    let fw = FrameworkKind::Chainer;
    let model = ModelKind::AlexNet;
    let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
    CellPlan::new("guard", format!("guard-{bitflips}"), fw, model, trials, move |_, seed| {
        let epochs = pre.budget().resume_epochs;
        let cfg = CorrupterConfig::bit_flips_full_range(bitflips, Precision::Fp64, seed);
        let mut trial = pre.trial_from(fw, model, &pristine).corrupt(cfg)?;
        let unguarded = trial.resume(epochs)?.outcome.collapsed;

        // Guarded arm: scrub the same corrupted checkpoint, then resume.
        let guard = NevGuard::new(NevPolicy::default(), repair);
        let repaired = guard.scrub(trial.checkpoint_mut()).findings.len();
        let guarded = trial.resume(epochs)?;
        let accuracy = guarded.training.final_accuracy().unwrap_or(0.0);
        Ok(guarded
            .outcome
            .with_accuracy(accuracy)
            .with_metric("unguarded_collapsed", f64::from(u8::from(unguarded)))
            .with_metric("repaired", repaired as f64))
    })
}

/// Fold one guard cell's outcomes into the comparison row.
fn guard_assemble(bitflips: u64, trials: usize, outcomes: &[TrialOutcome]) -> GuardCell {
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let completed: Vec<_> = outcomes.iter().filter(|o| !o.is_failed()).collect();
    let unguarded_nev =
        completed.iter().filter(|o| o.metric("unguarded_collapsed").unwrap_or(0.0) > 0.5).count();
    let guarded_nev = completed.iter().filter(|o| o.collapsed).count();
    let mean_repaired = completed.iter().map(|o| o.metric("repaired").unwrap_or(0.0)).sum::<f64>()
        / completed.len().max(1) as f64;
    let guarded_acc: Vec<f64> =
        completed.iter().filter(|o| !o.collapsed).filter_map(|o| o.final_accuracy).collect();
    GuardCell {
        bitflips,
        trainings: trials,
        unguarded_nev,
        guarded_nev,
        mean_repaired,
        guarded_accuracy: crate::stats::mean(&guarded_acc),
        failed,
    }
}

/// Measure one cell.
pub fn guard_cell(pre: &Prebaked, repair: RepairPolicy, bitflips: u64, trials: usize) -> GuardCell {
    let outcomes = pre.run_cell(&guard_plan(pre, repair, bitflips, trials));
    guard_assemble(bitflips, trials, &outcomes)
}

/// The full comparison across the paper's flip counts — every flip count's
/// cell through one scheduler pool.
pub fn guard_table(pre: &Prebaked, repair: RepairPolicy) -> (Vec<GuardCell>, TextTable) {
    let trials = pre.budget().trials;
    let counts = pre.budget().bitflip_counts();
    let plans: Vec<CellPlan<'_>> =
        counts.iter().map(|&flips| guard_plan(pre, repair, flips, trials)).collect();
    let pooled = pre.run_plan(&plans);

    let mut cells = Vec::new();
    let mut table = TextTable::new(&[
        "Bit-flips",
        "Trainings",
        "Unguarded N-EV %",
        "Guarded N-EV %",
        "Repaired/ckpt",
        "Guarded acc %",
        "Failed",
    ]);
    for (&flips, outcomes) in counts.iter().zip(&pooled) {
        let cell = guard_assemble(flips, trials, outcomes);
        table.row(vec![
            flips.to_string(),
            cell.trainings.to_string(),
            pct(percent(cell.unguarded_nev, cell.trainings)),
            pct(percent(cell.guarded_nev, cell.trainings)),
            format!("{:.1}", cell.mean_repaired),
            format!("{:.2}", cell.guarded_accuracy * 100.0),
            cell.failed.to_string(),
        ]);
        cells.push(cell);
    }
    (cells, table)
}

/// The claim under test.
pub fn virtually_unbreakable(cells: &[GuardCell]) -> bool {
    cells.iter().all(|c| c.guarded_nev == 0)
}

/// Extension: does N-EV repair make training "virtually unbreakable"? A
/// finding, not a check: ClampTo reads false at the default budget.
pub const GUARD: Experiment = Experiment {
    name: "guard",
    title: "Extension — NevGuard vs Table IV corruption (Chainer/AlexNet)",
    files: &[],
    run: |pre, r| {
        r.budget(pre, &format!("{} trainings/cell, paired arms", pre.budget().trials));
        for repair in [RepairPolicy::Zero, RepairPolicy::ClampTo(10.0)] {
            r.line(format!("repair policy: {repair:?}"));
            let (cells, table) = guard_table(pre, repair);
            r.table(&table);
            r.finding("virtually unbreakable (0 guarded collapses)", virtually_unbreakable(&cells));
            r.line("");
        }
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn guard_prevents_collapse_where_unguarded_collapses() {
        let pre = Prebaked::new(Budget::smoke());
        let cell = guard_cell(&pre, RepairPolicy::Zero, 1000, 4);
        assert!(cell.unguarded_nev >= 3, "1000 flips should collapse unguarded runs");
        assert_eq!(cell.guarded_nev, 0, "guarded runs must never collapse");
        assert!(cell.mean_repaired > 0.0);
    }

    #[test]
    fn clamp_repair_is_weaker_than_zeroing() {
        let pre = Prebaked::new(Budget::smoke());
        // Clamping to a weight-scale bound protects at moderate corruption
        // (at heavy corruption, many bound-magnitude weights can still
        // amplify activations past f32 range — Zero repair does not have
        // this failure mode; see EXPERIMENTS.md).
        let cell = guard_cell(&pre, RepairPolicy::ClampTo(10.0), 100, 3);
        assert_eq!(cell.guarded_nev, 0);
        // Clamping to the detection threshold is outright unsafe: a 1e30
        // weight overflows the f32 forward pass on first use. This is why
        // the repair bound is an explicit parameter.
        let naive = guard_cell(&pre, RepairPolicy::ClampTo(1e30), 1000, 3);
        assert!(naive.guarded_nev > 0);
    }
}
