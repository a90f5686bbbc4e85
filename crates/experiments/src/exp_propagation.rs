//! Figure 6 — propagation of errors through a neural network
//! (TensorFlow/AlexNet).
//!
//! Protocol (Section V-F): corrupt the epoch-20 checkpoint with 1 000
//! bit-flips in layer 1 / 4 / 8, train 10 more epochs, and compare the
//! resulting weights against the error-free run at the same epoch. The
//! boxplots summarize the non-zero absolute weight differences: first-layer
//! injections alter weights the most; middle- and last-layer injections
//! are largely absorbed.

use crate::driver::Experiment;
use crate::exp_layers::{locations_for, role_label, LAYER_FLIPS};
use crate::runner::{CellPlan, Prebaked};
use crate::stats::{five_number_summary, FiveNum};
use crate::table::TextTable;
use sefi_core::{CorrupterConfig, LocationSelection};
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::{LayerRole, ModelKind};
use sefi_telemetry::TrialOutcome;

/// Propagation measurement for one injected layer.
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Which layer was injected.
    pub role: LayerRole,
    /// Number of weights that differ from the error-free run.
    pub differing_weights: usize,
    /// Total weights compared.
    pub total_weights: usize,
    /// Five-number summary of the non-zero absolute differences.
    pub summary: Option<FiveNum>,
    /// NaN differences dropped from the summary (NEV-corrupted resumes).
    pub nan_dropped: usize,
    /// Whether the trial failed to complete (summary absent).
    pub failed: bool,
}

/// Weights of the error-free continuation at `restart + resume_epochs`.
fn error_free_weights(pre: &Prebaked) -> Vec<f32> {
    let mut run = pre
        .trial(FrameworkKind::TensorFlow, ModelKind::AlexNet, Dtype::F64)
        .resume(pre.budget().resume_epochs)
        .expect("pristine checkpoint restores");
    assert!(!run.training.collapsed());
    flat_weights(run.session.network_mut())
}

fn flat_weights(net: &mut sefi_nn::Network) -> Vec<f32> {
    let mut out = Vec::new();
    for e in net.state_dict().entries() {
        if e.trainable {
            out.extend_from_slice(e.tensor.data());
        }
    }
    out
}

/// Declare one propagation cell (a single deterministic trial; routing it
/// through the scheduler still gets it manifest-cached like every other
/// trial).
pub fn propagation_plan<'p>(
    pre: &'p Prebaked,
    role: LayerRole,
    reference: &'p [f32],
) -> CellPlan<'p> {
    let fw = FrameworkKind::TensorFlow;
    let model = ModelKind::AlexNet;
    let cell = format!("prop-{}", role_label(role));
    CellPlan::new("fig6", cell, fw, model, 1, move |_, seed| {
        let mut cfg = CorrupterConfig::bit_flips(LAYER_FLIPS, Precision::Fp64, seed);
        cfg.locations = LocationSelection::Listed(locations_for(pre, fw, model, role));
        let trial = pre.trial(fw, model, Dtype::F64).corrupt(cfg)?;
        let mut run = trial.resume(pre.budget().resume_epochs)?;
        if run.training.collapsed() {
            return Err("exponent-MSB-excluded flips collapsed training".into());
        }
        let corrupted = flat_weights(run.session.network_mut());

        if reference.len() != corrupted.len() {
            return Err(format!(
                "weight count mismatch: reference {} vs corrupted {}",
                reference.len(),
                corrupted.len()
            )
            .into());
        }
        // "The propagation was calculated based on the difference between the
        // value of the error-free weights and the same weights of the
        // checkpoint injected with the bit-flips. Only weights with differences
        // are used."
        let diffs: Vec<f64> = reference
            .iter()
            .zip(&corrupted)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .filter(|&d| d > 0.0)
            .collect();
        let mut outcome = run
            .outcome
            .with_metric("differing_weights", diffs.len() as f64)
            .with_metric("total_weights", reference.len() as f64);
        let (summary, nan_dropped) = five_number_summary(&diffs);
        outcome = outcome.with_metric("nan_dropped", nan_dropped as f64);
        if let Some(s) = summary {
            outcome = outcome
                .with_metric("min", s.min)
                .with_metric("q1", s.q1)
                .with_metric("median", s.median)
                .with_metric("q3", s.q3)
                .with_metric("max", s.max);
        }
        Ok(outcome)
    })
}

/// Fold one propagation cell's outcome into the boxplot row.
fn propagation_assemble(role: LayerRole, outcomes: &[TrialOutcome]) -> Propagation {
    let o = &outcomes[0];
    Propagation {
        role,
        differing_weights: o.metric("differing_weights").unwrap_or(0.0) as usize,
        total_weights: o.metric("total_weights").unwrap_or(0.0) as usize,
        summary: o.metric("median").map(|median| FiveNum {
            min: o.metric("min").unwrap_or(median),
            q1: o.metric("q1").unwrap_or(median),
            median,
            q3: o.metric("q3").unwrap_or(median),
            max: o.metric("max").unwrap_or(median),
        }),
        nan_dropped: o.metric("nan_dropped").unwrap_or(0.0) as usize,
        failed: o.is_failed(),
    }
}

/// Measure propagation for one injected layer role.
pub fn propagation_for(pre: &Prebaked, role: LayerRole, reference: &[f32]) -> Propagation {
    let outcomes = pre.run_cell(&propagation_plan(pre, role, reference));
    propagation_assemble(role, &outcomes)
}

/// Figure 6: all three roles through one scheduler pool. The error-free
/// reference weights are computed once, before the plans dispatch.
pub fn figure6(pre: &Prebaked) -> (Vec<Propagation>, TextTable) {
    let reference = error_free_weights(pre);
    let plans: Vec<CellPlan<'_>> = crate::exp_layers::roles()
        .into_iter()
        .map(|role| propagation_plan(pre, role, &reference))
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut rows = Vec::new();
    let mut table = TextTable::new(&[
        "Injected layer",
        "Diff weights",
        "Total",
        "Min",
        "Q1",
        "Median",
        "Q3",
        "Max",
        "NaN dropped",
        "Failed",
    ]);
    for (role, outcomes) in crate::exp_layers::roles().into_iter().zip(&pooled) {
        let p = propagation_assemble(role, outcomes);
        let s = p.summary.unwrap_or(FiveNum { min: 0.0, q1: 0.0, median: 0.0, q3: 0.0, max: 0.0 });
        table.row(vec![
            role_label(p.role).to_string(),
            p.differing_weights.to_string(),
            p.total_weights.to_string(),
            format!("{:.3e}", s.min),
            format!("{:.3e}", s.q1),
            format!("{:.3e}", s.median),
            format!("{:.3e}", s.q3),
            format!("{:.3e}", s.max),
            p.nan_dropped.to_string(),
            if p.failed { "1" } else { "0" }.to_string(),
        ]);
        rows.push(p);
    }
    (rows, table)
}

/// Figure 6: soft-error propagation boxplots (TensorFlow/AlexNet).
pub const FIG6: Experiment = Experiment {
    name: "fig6",
    title: "Figure 6 — propagation of errors (TensorFlow/AlexNet, 1000 flips)",
    files: &["fig6.csv"],
    run: |pre, r| {
        let b = pre.budget();
        let (inject, compare) = (b.restart_epoch, b.restart_epoch + b.resume_epochs);
        r.budget(pre, &format!("inject at epoch {inject}, compare at epoch {compare}"));
        let (_, table) = figure6(pre);
        r.table(&table);
        r.csv("fig6.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn corrupted_run_diverges_from_error_free() {
        let pre = Prebaked::new(Budget::smoke());
        let reference = error_free_weights(&pre);
        let p = propagation_for(&pre, LayerRole::First, &reference);
        assert!(p.differing_weights > 0, "injection must leave a trace");
        assert!(p.summary.is_some());
        assert!(p.summary.unwrap().max > 0.0);
    }
}
