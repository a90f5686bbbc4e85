//! Figure 4 — fault injection in different layers of AlexNet (Chainer).
//!
//! 1 000 bit-flips are aimed at the first / middle / last layer via
//! `locations_to_corrupt`; the resumed accuracy curves show the first
//! layer degrading and then recovering, while middle- and last-layer
//! injections are absorbed (Section V-C2).

use crate::driver::Experiment;
use crate::exp_curves::{report_panel, Panel, Series};
use crate::runner::{CellPlan, Prebaked};
use sefi_core::{CorrupterConfig, InjectionLog, LocationSelection};
use sefi_float::Precision;
use sefi_frameworks::{FrameworkKind, Session, SessionConfig};
use sefi_hdf5::Dtype;
use sefi_models::{LayerRole, ModelKind};
use sefi_telemetry::TrialOutcome;

/// The bit-flip count of the paper's per-layer experiments.
pub const LAYER_FLIPS: u64 = 1000;

/// The three targeted roles, in the paper's order.
pub fn roles() -> [LayerRole; 3] {
    [LayerRole::First, LayerRole::Middle, LayerRole::Last]
}

/// Human label for a role.
pub fn role_label(role: LayerRole) -> &'static str {
    match role {
        LayerRole::First => "first layer",
        LayerRole::Middle => "middle layer",
        LayerRole::Last => "last layer",
    }
}

/// Resolve the injector locations for a role in a framework/model pair
/// without training (builds the model structure only).
pub fn locations_for(
    pre: &Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    role: LayerRole,
) -> Vec<String> {
    let mut cfg = SessionConfig::new(fw, model, 0);
    cfg.model_config = pre.budget().model_config();
    Session::new(cfg).layer_locations(role)
}

/// Declare one per-layer injection cell for the scheduler.
pub fn layer_plan<'p>(
    pre: &'p Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    role: LayerRole,
) -> CellPlan<'p> {
    let budget = *pre.budget();
    let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
    let locations = locations_for(pre, fw, model, role);
    let epochs = budget.curve_end_epoch - budget.restart_epoch;
    let cell = format!("layer-{}", role_label(role));
    CellPlan::new("fig4", cell, fw, model, budget.curve_trials, move |trial, seed| {
        let mut cfg = CorrupterConfig::bit_flips(LAYER_FLIPS, Precision::Fp64, seed);
        cfg.locations = LocationSelection::Listed(locations.clone());
        let run = pre.trial_from(fw, model, &pristine).corrupt(cfg)?;
        let outcome = run.resume(epochs)?.with_curve();
        // Figure 5 replays trial 0's injections on the other frameworks;
        // the log must survive a resume.
        Ok(if trial == 0 { outcome.with_payload(run.log().to_json()) } else { outcome })
    })
}

/// Fold one layer cell's outcomes into the mean-accuracy series plus the
/// recorded trial-0 injection log.
fn layer_assemble(
    pre: &Prebaked,
    role: LayerRole,
    outcomes: &[TrialOutcome],
) -> (Series, InjectionLog) {
    let budget = *pre.budget();
    let epochs = budget.curve_end_epoch - budget.restart_epoch;
    let cell = format!("layer-{}", role_label(role));
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let points = (0..epochs)
        .map(|i| {
            let vals: Vec<f64> = outcomes
                .iter()
                .filter(|o| !o.is_failed())
                .filter_map(|o| o.curve.get(i).copied())
                .collect();
            (budget.restart_epoch + i, crate::stats::mean(&vals))
        })
        .collect();
    // An unparseable recorded log (failed trial 0, truncated payload)
    // degrades Figure 5's replay to an empty log instead of panicking.
    let log = outcomes
        .first()
        .and_then(|o| o.payload.as_deref())
        .and_then(|json| match InjectionLog::from_json(json) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("fig4 {cell}: recorded injection log unparseable: {e}");
                None
            }
        })
        .unwrap_or_default();
    let label = if failed > 0 {
        format!("{} ({LAYER_FLIPS} flips) [{failed} failed]", role_label(role))
    } else {
        format!("{} ({LAYER_FLIPS} flips)", role_label(role))
    };
    (Series { label, points }, log)
}

/// Corrupt `LAYER_FLIPS` flips into one layer and resume; returns the mean
/// accuracy curve and the injection log of trial 0 (for Figure 5's
/// equivalent-injection replay).
pub fn layer_curve(
    pre: &Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    role: LayerRole,
) -> (Series, InjectionLog) {
    let outcomes = pre.run_cell(&layer_plan(pre, fw, model, role));
    layer_assemble(pre, role, &outcomes)
}

/// Figure 4: Chainer/AlexNet, all three roles plus the error-free line,
/// the three role cells sharing one scheduler pool. Also returns the
/// per-role logs used by Figure 5.
pub fn figure4(pre: &Prebaked) -> (Vec<Series>, Vec<(LayerRole, InjectionLog)>) {
    let budget = *pre.budget();
    let baseline = pre.baseline_curve(ModelKind::AlexNet, Dtype::F64, budget.curve_end_epoch);
    let mut series = vec![Series {
        label: "error-free".to_string(),
        points: baseline.iter().map(|r| (r.epoch, r.test_accuracy)).collect(),
    }];
    let plans: Vec<CellPlan<'_>> = roles()
        .into_iter()
        .map(|role| layer_plan(pre, FrameworkKind::Chainer, ModelKind::AlexNet, role))
        .collect();
    let pooled = pre.run_plan(&plans);
    let mut logs = Vec::new();
    for (role, outcomes) in roles().into_iter().zip(&pooled) {
        let (s, log) = layer_assemble(pre, role, outcomes);
        series.push(s);
        logs.push((role, log));
    }
    (series, logs)
}

/// Figure 4: per-layer injection, with the logs Figure 5 replays.
pub const FIG4: Experiment = Experiment {
    name: "fig4",
    title: "Figure 4 — 1000 bit-flips injected into first/middle/last layer (Chainer/AlexNet)",
    files: &[
        "fig4.csv",
        "fig4_log_first_layer.json",
        "fig4_log_middle_layer.json",
        "fig4_log_last_layer.json",
    ],
    run: |pre, r| {
        r.budget(pre, &format!("avg of {} trainings/curve", pre.budget().curve_trials));
        let (series, logs) = figure4(pre);
        let panel = Panel { framework: FrameworkKind::Chainer, model: ModelKind::AlexNet, series };
        let table = report_panel(r, &panel);
        for (role, log) in &logs {
            let name = format!("fig4_log_{}.json", role_label(*role).replace(' ', "_"));
            r.artifact(name, log.to_json(), &format!("{} logged injections", log.len()));
        }
        r.csv("fig4.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn injections_stay_inside_the_targeted_layer() {
        let pre = Prebaked::new(Budget::smoke());
        let (_, log) =
            layer_curve(&pre, FrameworkKind::Chainer, ModelKind::AlexNet, LayerRole::Middle);
        assert_eq!(log.len() as u64, LAYER_FLIPS);
        for r in log.records() {
            assert!(
                r.location.starts_with("predictor/conv4"),
                "record escaped target layer: {}",
                r.location
            );
        }
    }

    #[test]
    fn role_locations_per_framework() {
        let pre = Prebaked::new(Budget::smoke());
        let ch = locations_for(&pre, FrameworkKind::Chainer, ModelKind::AlexNet, LayerRole::Last);
        assert_eq!(ch, vec!["predictor/fc8".to_string()]);
        let tf =
            locations_for(&pre, FrameworkKind::TensorFlow, ModelKind::AlexNet, LayerRole::Last);
        assert_eq!(tf, vec!["model_weights/fc8".to_string()]);
    }
}
