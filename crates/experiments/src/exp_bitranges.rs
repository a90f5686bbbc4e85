//! Figure 2 / Section V-B1 — which bits collapse a neural network.
//!
//! The injector's `bit_range` is swept across configurations of the 64-bit
//! IEEE-754 layout; each range gets `fig2_trainings` runs of 1 000 flips.
//! "The results show that the training collapses only when the injection
//! range accounts for the most significant bit of the exponent."

use crate::adaptive::{classify_collapsed, AdaptiveCell, ShardWorkerConfig, StoppingRule};
use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked};
use crate::stats::percent;
use crate::table::{pct, TextTable};
use sefi_core::{CorrupterConfig, CorruptionMode};
use sefi_float::{BitRange, Precision};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// The swept ranges (64-bit layout: mantissa 0–51, exponent 52–62, sign 63).
pub fn ranges() -> Vec<(&'static str, BitRange)> {
    vec![
        ("mantissa only [0,51]", BitRange { first_bit: 0, last_bit: 51 }),
        ("low exponent [0,60]", BitRange { first_bit: 0, last_bit: 60 }),
        ("all but exp MSB [0,61]", BitRange { first_bit: 0, last_bit: 61 }),
        ("includes exp MSB [0,62]", BitRange { first_bit: 0, last_bit: 62 }),
        ("full value [0,63]", BitRange { first_bit: 0, last_bit: 63 }),
        ("exponent sans MSB [52,61]", BitRange { first_bit: 52, last_bit: 61 }),
        ("exp MSB only [62,62]", BitRange { first_bit: 62, last_bit: 62 }),
        ("sign only [63,63]", BitRange { first_bit: 63, last_bit: 63 }),
    ]
}

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct RangeRow {
    /// Human label.
    pub label: &'static str,
    /// The swept range.
    pub range: BitRange,
    /// Whether the range includes the exponent MSB (bit 62).
    pub includes_critical_bit: bool,
    /// Trainings run.
    pub trainings: usize,
    /// Trainings that collapsed.
    pub collapsed: usize,
    /// Trials that failed to complete (recorded, not counted as collapse).
    pub failed: usize,
}

/// Declare one range's trials for the scheduler, keyed `fig2-{label}`.
fn range_plan<'p>(
    pre: &'p Prebaked,
    label: &'static str,
    range: BitRange,
    trials: usize,
) -> CellPlan<'p> {
    let fw = FrameworkKind::Chainer;
    let model = ModelKind::AlexNet;
    let pristine = pre.checkpoint_shared(fw, model, Dtype::F64);
    CellPlan::new("fig2", format!("fig2-{label}"), fw, model, trials, move |_, seed| {
        let mut cfg = CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, seed);
        cfg.mode = CorruptionMode::BitRange(range);
        let trial = pre.trial_from(fw, model, &pristine).corrupt(cfg)?;
        Ok(trial.resume(pre.budget().resume_epochs)?.outcome)
    })
}

/// Fold the per-range outcome vectors into rows + the rendered table.
/// Shared by the fixed-budget and adaptive drivers, so both produce the
/// same table bytes from the same consumed outcomes.
fn assemble(pooled: &[Vec<TrialOutcome>]) -> (Vec<RangeRow>, TextTable) {
    let mut rows = Vec::new();
    let mut table =
        TextTable::new(&["Range", "Critical bit", "Trainings", "Collapsed", "%", "Failed"]);
    for ((label, range), outcomes) in ranges().into_iter().zip(pooled) {
        let trainings = outcomes.len();
        let collapsed = outcomes.iter().filter(|o| o.collapsed).count();
        let failed = outcomes.iter().filter(|o| o.is_failed()).count();
        let includes_critical_bit = range.contains(Precision::Fp64.exponent_msb());
        table.row(vec![
            label.to_string(),
            if includes_critical_bit { "yes" } else { "no" }.to_string(),
            trainings.to_string(),
            collapsed.to_string(),
            pct(percent(collapsed, trainings)),
            failed.to_string(),
        ]);
        rows.push(RangeRow { label, range, includes_critical_bit, trainings, collapsed, failed });
    }
    (rows, table)
}

/// Run the sweep (Chainer/AlexNet; 1 000 flips per training, NaN allowed —
/// the point is to observe collapse). All eight ranges are declared up
/// front and share one scheduler pool.
pub fn figure2(pre: &Prebaked) -> (Vec<RangeRow>, TextTable) {
    let trials = pre.budget().fig2_trainings;
    let plans: Vec<CellPlan<'_>> =
        ranges().into_iter().map(|(label, range)| range_plan(pre, label, range, trials)).collect();
    let pooled = pre.run_plan(&plans);
    assemble(&pooled)
}

/// The sweep's adaptive cells, one stratum per bit range. `rule_for`
/// receives each stratum's `(label, includes_critical_bit)` so callers can
/// stratify the stopping rule — e.g. tighter intervals on the contested
/// ranges and first-wave stops on the ones the paper shows are decisively
/// safe or fatal.
pub fn figure2_cells<'p>(
    pre: &'p Prebaked,
    rule_for: impl Fn(&'static str, bool) -> StoppingRule,
) -> Vec<AdaptiveCell<'p>> {
    let critical = Precision::Fp64.exponent_msb();
    ranges()
        .into_iter()
        .map(|(label, range)| {
            let rule = rule_for(label, range.contains(critical));
            AdaptiveCell::new(
                range_plan(pre, label, range, rule.max_trials),
                rule,
                classify_collapsed,
            )
        })
        .collect()
}

/// The sweep under sequential stopping: identical protocol, seeds, and
/// table layout as [`figure2`], but each range samples only until its
/// collapse-rate interval is narrow enough (or the rule's cap — usually
/// `fig2_trainings` — is reached). The consumed outcomes are a prefix of
/// the fixed-budget trial sequence, so verdicts like
/// [`collapse_only_with_critical_bit`] agree with the fixed sweep whenever
/// the rule stops on a decisive rate.
pub fn figure2_adaptive(pre: &Prebaked, rule: StoppingRule) -> (Vec<RangeRow>, TextTable) {
    let cells = figure2_cells(pre, |_, _| rule);
    let results = pre.run_adaptive(&cells);
    let pooled: Vec<Vec<TrialOutcome>> = results.into_iter().map(|r| r.outcomes).collect();
    assemble(&pooled)
}

/// One sharded worker's share of the adaptive sweep. Every worker of the
/// campaign calls this with the same `rule`; all return the identical
/// rows/table (assembled from the merged manifest), so any of them may
/// write the CSV.
pub fn figure2_adaptive_sharded(
    pre: &Prebaked,
    rule: StoppingRule,
    cfg: &ShardWorkerConfig,
) -> std::io::Result<(Vec<RangeRow>, TextTable)> {
    let cells = figure2_cells(pre, |_, _| rule);
    let results = pre.run_adaptive_sharded(&cells, cfg)?;
    let pooled: Vec<Vec<TrialOutcome>> = results.into_iter().map(|r| r.outcomes).collect();
    Ok(assemble(&pooled))
}

/// The paper's claim: collapse ⇔ the range includes bit 62.
pub fn collapse_only_with_critical_bit(rows: &[RangeRow]) -> bool {
    rows.iter().all(|r| {
        if r.includes_critical_bit {
            r.collapsed > 0 || r.trainings == 0
        } else {
            r.collapsed == 0
        }
    })
}

/// Figure 2 / Section V-B1: which bit ranges collapse training.
pub const FIG2: Experiment = Experiment {
    name: "fig2",
    title: "Figure 2 — bit ranges that collapse a neural network (Chainer/AlexNet)",
    files: &["fig2.csv"],
    run: |pre, r| {
        r.budget(pre, &format!("{} trainings/range, 1000 flips each", pre.budget().fig2_trainings));
        let (rows, table) = figure2(pre);
        r.table(&table);
        let label = "collapse occurs only when the range includes exponent MSB (bit 62)";
        r.finding(label, collapse_only_with_critical_bit(&rows));
        r.csv("fig2.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_inventory_flags_critical_bit_correctly() {
        for (label, range) in ranges() {
            let flagged = range.contains(62);
            assert_eq!(flagged, range.first_bit <= 62 && 62 <= range.last_bit, "{label}");
        }
    }

    #[test]
    fn sweep_smoke() {
        let pre = Prebaked::new(crate::budget::Budget::smoke());
        let (rows, _) = figure2(&pre);
        assert_eq!(rows.len(), ranges().len());
        // The safe ranges must never collapse; the exp-MSB-only range at
        // 1000 flips collapses essentially always.
        let safe = rows.iter().find(|r| r.label.contains("all but exp MSB")).unwrap();
        assert_eq!(safe.collapsed, 0);
        let critical = rows.iter().find(|r| r.label.contains("exp MSB only")).unwrap();
        assert!(critical.collapsed >= critical.trainings.saturating_sub(1));
    }

    #[test]
    fn adaptive_sweep_matches_fixed_verdicts_with_fewer_trials() {
        let pre = Prebaked::new(crate::budget::Budget::smoke());
        let (fixed, _) = figure2(&pre);
        let rule = StoppingRule::halving(pre.budget().fig2_trainings, 0.7);
        let (adaptive, _) = figure2_adaptive(&pre, rule);
        // Adaptive trials are a prefix of the fixed sequence, so the
        // qualitative verdict must match range by range on decisive cells.
        assert_eq!(
            collapse_only_with_critical_bit(&fixed),
            collapse_only_with_critical_bit(&adaptive)
        );
        for (f, a) in fixed.iter().zip(&adaptive) {
            assert_eq!(f.collapsed > 0, a.collapsed > 0, "verdict flipped on {}", f.label);
            assert!(a.trainings <= f.trainings, "{} overspent its cap", a.label);
        }
        // The whole point: extreme-rate ranges stop early.
        let fixed_total: usize = fixed.iter().map(|r| r.trainings).sum();
        let adaptive_total: usize = adaptive.iter().map(|r| r.trainings).sum();
        assert!(
            adaptive_total < fixed_total,
            "adaptive spent {adaptive_total} of {fixed_total} fixed trials"
        );
    }
}
