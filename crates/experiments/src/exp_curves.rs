//! Figure 3 — sensitivity to different bit-flip rates.
//!
//! Three panels (one per framework, each with a different model, as in the
//! paper: 3a ResNet50, 3b VGG16, 3c AlexNet). Each line is the average
//! accuracy of `curve_trials` trainings restarted from the restart-epoch
//! checkpoint with 1/10/100/1000 bit-flips (exponent MSB excluded); the
//! "green line" is the error-free full training.

use crate::driver::{Experiment, Report};
use crate::runner::{CellPlan, Prebaked};
use crate::table::TextTable;
use sefi_core::CorrupterConfig;
use sefi_float::Precision;
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// One accuracy-vs-epoch series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Label (e.g. "1000 bit-flips" or "error-free").
    pub label: String,
    /// `(epoch, mean accuracy)` points.
    pub points: Vec<(usize, f64)>,
}

/// One panel of Figure 3.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Framework of the panel.
    pub framework: FrameworkKind,
    /// Model of the panel.
    pub model: ModelKind,
    /// All series, error-free first.
    pub series: Vec<Series>,
}

/// The paper's three panels.
pub fn panels() -> [(FrameworkKind, ModelKind); 3] {
    [
        (FrameworkKind::Chainer, ModelKind::ResNet50),
        (FrameworkKind::PyTorch, ModelKind::Vgg16),
        (FrameworkKind::TensorFlow, ModelKind::AlexNet),
    ]
}

/// Declare one corrupted-restart curve cell for the scheduler.
pub fn curve_plan<'p>(
    pre: &'p Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    bitflips: u64,
    label: &str,
) -> CellPlan<'p> {
    let budget = *pre.budget();
    let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
    let epochs = budget.curve_end_epoch - budget.restart_epoch;
    let cell = format!("curve-{label}-{bitflips}");
    CellPlan::new("curves", cell, fw, model, budget.curve_trials, move |_, seed| {
        let mut trial = pre.trial_from(fw, model, &pristine);
        if bitflips > 0 {
            trial = trial.corrupt(CorrupterConfig::bit_flips(bitflips, Precision::Fp64, seed))?;
        }
        Ok(trial.resume(epochs)?.with_curve())
    })
}

/// Fold one curve cell's outcomes into the mean-accuracy series.
fn curve_assemble(pre: &Prebaked, bitflips: u64, outcomes: Vec<TrialOutcome>) -> Series {
    let budget = *pre.budget();
    let epochs = budget.curve_end_epoch - budget.restart_epoch;
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    let curves: Vec<Vec<f64>> =
        outcomes.into_iter().filter(|o| !o.is_failed()).map(|o| o.curve).collect();
    let points = (0..epochs)
        .map(|i| {
            let vals: Vec<f64> = curves.iter().filter_map(|c| c.get(i).copied()).collect();
            (budget.restart_epoch + i, crate::stats::mean(&vals))
        })
        .collect();
    let label = if failed > 0 {
        format!("{bitflips} bit-flips [{failed} failed]")
    } else {
        format!("{bitflips} bit-flips")
    };
    Series { label, points }
}

/// Mean resumed-accuracy curve for a corrupted restart.
pub fn corrupted_curve(
    pre: &Prebaked,
    fw: FrameworkKind,
    model: ModelKind,
    bitflips: u64,
    label: &str,
) -> Series {
    let outcomes = pre.run_cell(&curve_plan(pre, fw, model, bitflips, label));
    curve_assemble(pre, bitflips, outcomes)
}

/// The deterministic error-free series of a panel.
fn baseline_series(pre: &Prebaked, model: ModelKind) -> Series {
    let baseline = pre.baseline_curve(model, Dtype::F64, pre.budget().curve_end_epoch);
    Series {
        label: "error-free".to_string(),
        points: baseline.iter().map(|r| (r.epoch, r.test_accuracy)).collect(),
    }
}

/// Build one panel: the error-free full-training line plus the four
/// corrupted-restart lines (one scheduler pool).
pub fn panel(pre: &Prebaked, fw: FrameworkKind, model: ModelKind) -> Panel {
    let flips = pre.budget().bitflip_counts();
    let mut series = vec![baseline_series(pre, model)];
    let plans: Vec<CellPlan<'_>> =
        flips.iter().map(|&f| curve_plan(pre, fw, model, f, "fig3")).collect();
    let pooled = pre.run_plan(&plans);
    for (&f, outcomes) in flips.iter().zip(pooled) {
        series.push(curve_assemble(pre, f, outcomes));
    }
    Panel { framework: fw, model, series }
}

/// Figure 3 as three panels. All twelve corrupted-curve cells (three
/// panels × four flip counts) share one scheduler pool; the deterministic
/// error-free baselines are computed up front, before dispatch.
pub fn figure3(pre: &Prebaked) -> Vec<Panel> {
    let flips = pre.budget().bitflip_counts();
    let baselines: Vec<Series> =
        panels().iter().map(|&(_, model)| baseline_series(pre, model)).collect();
    let plans: Vec<CellPlan<'_>> = panels()
        .iter()
        .flat_map(|&(fw, model)| flips.iter().map(move |&f| (fw, model, f)).collect::<Vec<_>>())
        .map(|(fw, model, f)| curve_plan(pre, fw, model, f, "fig3"))
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut pooled = pooled.into_iter();
    panels()
        .iter()
        .zip(baselines)
        .map(|(&(fw, model), baseline)| {
            let mut series = vec![baseline];
            for &f in &flips {
                let outcomes = pooled.next().expect("one outcome vector per declared cell");
                series.push(curve_assemble(pre, f, outcomes));
            }
            Panel { framework: fw, model, series }
        })
        .collect()
}

/// Render a panel as an epoch × series table (the figure's data).
pub fn render_panel(p: &Panel) -> TextTable {
    let mut header: Vec<String> = vec!["epoch".to_string()];
    header.extend(p.series.iter().map(|s| s.label.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = TextTable::new(&header_refs);
    let epochs: Vec<usize> =
        p.series.iter().flat_map(|s| s.points.iter().map(|&(e, _)| e)).collect();
    let (lo, hi) =
        (epochs.iter().copied().min().unwrap_or(0), epochs.iter().copied().max().unwrap_or(0));
    for e in lo..=hi {
        let mut row = vec![e.to_string()];
        for s in &p.series {
            match s.points.iter().find(|&&(pe, _)| pe == e) {
                Some(&(_, acc)) => row.push(format!("{:.2}", acc * 100.0)),
                None => row.push("-".to_string()),
            }
        }
        table.row(row);
    }
    table
}

/// The paper's headline finding for Figure 3: corrupted restarts show no
/// accuracy degradation relative to the error-free line at the final epoch
/// (within a tolerance that accounts for reduced trial counts).
pub fn no_degradation(p: &Panel, tolerance: f64) -> bool {
    let last = |s: &Series| s.points.last().map(|&(_, a)| a).unwrap_or(0.0);
    let baseline = last(&p.series[0]);
    p.series[1..].iter().all(|s| last(s) >= baseline - tolerance)
}

/// Figure 3: accuracy curves under different bit-flip rates.
pub const FIG3: Experiment = Experiment {
    name: "fig3",
    title: "Figure 3 — sensitivity to different bit-flip rates",
    files: &["fig3_chainer_resnet50.csv", "fig3_pytorch_vgg16.csv", "fig3_tensorflow_alexnet.csv"],
    run: |pre, r| {
        let (trials, epoch) = (pre.budget().curve_trials, pre.budget().restart_epoch);
        r.budget(pre, &format!("avg of {trials} trainings/curve, restart at epoch {epoch}"));
        for p in figure3(pre) {
            let (fw, model) = (p.framework.display(), p.model.id());
            let ok = no_degradation(&p, 0.10);
            r.line(format!("panel: {fw} / {model}  (no degradation vs error-free: {ok})"));
            let table = report_panel(r, &p);
            r.csv(format!("fig3_{}_{model}.csv", p.framework.id()), &table);
            r.line("");
        }
    },
};

/// Report `panel` as a table and a chart; returns the table for its CSV.
pub fn report_panel(r: &mut Report, panel: &Panel) -> TextTable {
    let table = render_panel(panel);
    r.table(&table);
    r.line(crate::chart::render_chart(&panel.series));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn corrupted_restart_curve_has_the_resume_window() {
        let pre = Prebaked::new(Budget::smoke());
        let s = corrupted_curve(&pre, FrameworkKind::TensorFlow, ModelKind::AlexNet, 10, "t");
        let b = pre.budget();
        assert_eq!(s.points.len(), b.curve_end_epoch - b.restart_epoch);
        assert!(s.points.iter().all(|&(_, a)| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn render_shape() {
        let p = Panel {
            framework: FrameworkKind::Chainer,
            model: ModelKind::AlexNet,
            series: vec![
                Series { label: "error-free".into(), points: vec![(0, 0.3), (1, 0.4)] },
                Series { label: "1 bit-flips".into(), points: vec![(1, 0.39)] },
            ],
        };
        let t = render_panel(&p);
        let rendered = t.render();
        assert!(rendered.contains("error-free"));
        assert!(rendered.contains('-'));
    }
}
