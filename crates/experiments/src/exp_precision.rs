//! Cross-dtype equivalent injection — the precision extension of the
//! paper's Figure 2 / Table VII axis.
//!
//! The paper studies 16/32/64-bit checkpoints by drawing *absolute* bit
//! positions per width. This experiment asks the sharper question: what
//! happens when the **same logical weight** receives the **same
//! format-relative bit flip** in every storage format? Bit positions are
//! named relative to the IEEE-754 field layout (exponent MSB, exponent
//! LSB, mantissa MSB, …) and resolved per format through
//! [`Precision::field_map`], and the corrupted weight is pinned across
//! formats by deriving the injector seed from `(stratum, trial)` alone —
//! the format never enters the seed, so trial *i* of the f16 cell flips
//! the same tensor entry as trial *i* of the f64 cell.
//!
//! Per `(format, stratum)` cell the table reports:
//!
//! * **Masked** — the flip vanished at load time: the engine computes in
//!   f32, so an f64 low-mantissa flip can round away when the stored
//!   value narrows (`old as f32 == new as f32` bit-for-bit).
//! * **N-EV** — the resumed training collapsed on a NaN/extreme value.
//! * **RWC** — restarted with no change: final accuracy exactly equals
//!   the deterministic error-free baseline *of that storage dtype*.
//!
//! The headline effect is exponent-width-driven: at the shared
//! `exp-msb` stratum a bfloat16 flip scales a sub-unit weight by
//! ~2^128 (extreme → collapse) while the same flip in binary16's 5-bit
//! exponent scales it by only ~2^16 (large but finite → absorbed), so
//! the two 16-bit formats diverge despite equal storage width.

use crate::driver::Experiment;
use crate::runner::{combo_seed, CellPlan, Prebaked};
use crate::stats::percent;
use crate::table::{pct, TextTable};
use sefi_core::{CorrupterConfig, CorruptionMode, LocationSelection};
use sefi_float::{BitRange, Precision};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::Dtype;
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// A bit position named relative to the IEEE-754 field layout, resolvable
/// to an absolute bit index in any supported format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelBit {
    /// The exponent's most significant bit — the paper's critical bit.
    ExpMsb,
    /// One below the exponent MSB.
    BelowExpMsb,
    /// The exponent's least significant bit (a ×2 / ÷2 perturbation).
    ExpLsb,
    /// The mantissa's most significant bit (a ±50% relative perturbation).
    ManMsb,
    /// The mantissa's least significant bit (the smallest perturbation).
    ManLsb,
    /// The sign bit.
    Sign,
}

impl RelBit {
    /// All strata, table order: most to least significant.
    pub fn all() -> [RelBit; 6] {
        [
            RelBit::Sign,
            RelBit::ExpMsb,
            RelBit::BelowExpMsb,
            RelBit::ExpLsb,
            RelBit::ManMsb,
            RelBit::ManLsb,
        ]
    }

    /// Stable label (also the cell-key/seed component).
    pub fn label(self) -> &'static str {
        match self {
            RelBit::Sign => "sign",
            RelBit::ExpMsb => "exp-msb",
            RelBit::BelowExpMsb => "exp-msb-1",
            RelBit::ExpLsb => "exp-lsb",
            RelBit::ManMsb => "man-msb",
            RelBit::ManLsb => "man-lsb",
        }
    }

    /// The absolute bit index of this stratum at precision `p`.
    pub fn resolve(self, p: Precision) -> u32 {
        let m = p.field_map();
        match self {
            RelBit::Sign => m.sign_bit,
            RelBit::ExpMsb => m.exponent_hi,
            RelBit::BelowExpMsb => m.exponent_hi - 1,
            RelBit::ExpLsb => m.exponent_lo,
            RelBit::ManMsb => m.mantissa_hi,
            RelBit::ManLsb => m.mantissa_lo,
        }
    }
}

/// The swept storage formats, table order, with their short labels.
pub fn formats() -> [(Dtype, Precision, &'static str); 4] {
    [
        (Dtype::F16, Precision::Fp16, "f16"),
        (Dtype::BF16, Precision::Bf16, "bf16"),
        (Dtype::F32, Precision::Fp32, "f32"),
        (Dtype::F64, Precision::Fp64, "f64"),
    ]
}

/// One `(format, stratum)` row of the sweep.
#[derive(Debug, Clone)]
pub struct PrecisionRow {
    /// Storage dtype.
    pub dtype: Dtype,
    /// Its injection precision.
    pub precision: Precision,
    /// Format label (`f16`/`bf16`/`f32`/`f64`).
    pub format: &'static str,
    /// The relative stratum.
    pub rel: RelBit,
    /// The resolved absolute bit index in this format.
    pub bit: u32,
    /// Trainings run.
    pub trainings: usize,
    /// Flips masked by the load-time narrowing to the f32 engine.
    pub masked: usize,
    /// Trainings that collapsed on a NaN/extreme value.
    pub nev: usize,
    /// Restarts with final accuracy exactly at the dtype's baseline.
    pub rwc: usize,
    /// Trials that failed to complete (excluded from the three counts).
    pub failed: usize,
}

/// The format-independent injector seed for `(stratum, trial)`: every
/// format's cell uses this same seed at the same trial index, so the
/// location/entry draw — and therefore the corrupted logical weight — is
/// identical across formats (dataset paths and lengths do not depend on
/// the storage dtype).
pub fn equivalent_seed(rel: RelBit, trial: usize) -> u64 {
    combo_seed(
        FrameworkKind::Chainer,
        ModelKind::AlexNet,
        &format!("prec-equiv-{}", rel.label()),
        trial,
    )
}

/// Declare one `(format, stratum)` cell, keyed `prec-{format}-{stratum}`.
pub fn precision_plan<'p>(
    pre: &'p Prebaked,
    dtype: Dtype,
    precision: Precision,
    format: &'static str,
    rel: RelBit,
    trials: usize,
) -> CellPlan<'p> {
    let fw = FrameworkKind::Chainer;
    let model = ModelKind::AlexNet;
    // Precompute the dtype's deterministic baseline before the pool
    // dispatches, so trial closures never train a baseline mid-pool.
    pre.baseline_final_accuracy(model, dtype);
    let pristine = pre.checkpoint_shared(fw, model, dtype);
    let bit = rel.resolve(precision);
    let cell = format!("prec-{format}-{}", rel.label());
    CellPlan::new("precision", cell, fw, model, trials, move |trial, _seed| {
        // One flip pinned to the stratum's absolute bit; NaN allowed (the
        // point is to observe what the bit does) and the seed shared
        // across formats (see `equivalent_seed`). Scoped to the model
        // parameters: format-relative strata are only meaningful on
        // real-valued datasets, and the integer bookkeeping scalars
        // (e.g. `updater/epoch`) corrupt through a different bit map.
        let mut cfg =
            CorrupterConfig::bit_flips_full_range(1, precision, equivalent_seed(rel, trial));
        cfg.mode = CorruptionMode::BitRange(BitRange { first_bit: bit, last_bit: bit });
        cfg.locations = LocationSelection::Listed(vec!["predictor".to_string()]);
        let run = pre.trial_from(fw, model, &pristine).corrupt(cfg)?;
        // Masked at load: the f32 engine sees the same weight bits.
        let masked = run
            .report()
            .records
            .first()
            .map(|r| (r.old_value as f32).to_bits() == (r.new_value as f32).to_bits())
            .unwrap_or(false);
        let outcome = run.resume(pre.budget().resume_epochs)?.with_final_accuracy();
        Ok(outcome.with_metric("masked", if masked { 1.0 } else { 0.0 }))
    })
}

/// Fold one cell's outcomes into its row.
fn assemble_row(
    pre: &Prebaked,
    dtype: Dtype,
    precision: Precision,
    format: &'static str,
    rel: RelBit,
    outcomes: &[TrialOutcome],
) -> PrecisionRow {
    let baseline = pre.baseline_final_accuracy(ModelKind::AlexNet, dtype);
    let ok: Vec<&TrialOutcome> = outcomes.iter().filter(|o| !o.is_failed()).collect();
    let failed = outcomes.len() - ok.len();
    let masked = ok
        .iter()
        .filter(|o| o.metrics.iter().any(|m| m.name == "masked" && m.value == 1.0))
        .count();
    let nev = ok.iter().filter(|o| o.collapsed).count();
    let rwc = ok.iter().filter(|o| o.final_accuracy == Some(baseline)).count();
    PrecisionRow {
        dtype,
        precision,
        format,
        rel,
        bit: rel.resolve(precision),
        trainings: outcomes.len(),
        masked,
        nev,
        rwc,
        failed,
    }
}

/// Shared table renderer, so fixed and resumed runs emit identical bytes
/// from identical outcomes.
fn render(rows: &[PrecisionRow]) -> TextTable {
    let mut table = TextTable::new(&[
        "Format",
        "Width",
        "Stratum",
        "Bit",
        "Trainings",
        "Masked",
        "N-EV",
        "RWC",
        "RWC%",
        "Failed",
    ]);
    for r in rows {
        table.row(vec![
            r.format.to_string(),
            r.precision.width().to_string(),
            r.rel.label().to_string(),
            r.bit.to_string(),
            r.trainings.to_string(),
            r.masked.to_string(),
            r.nev.to_string(),
            r.rwc.to_string(),
            pct(percent(r.rwc, r.trainings - r.failed)),
            r.failed.to_string(),
        ]);
    }
    table
}

/// Run the full sweep: all `formats() × RelBit::all()` cells through one
/// scheduler pool, `pre.budget().trials` trainings each.
pub fn precision_table(pre: &Prebaked) -> (Vec<PrecisionRow>, TextTable) {
    precision_table_for(pre, &formats())
}

/// The sweep restricted to a subset of formats (the CI smoke runs
/// f32/bf16/f16 only); row and table layout match [`precision_table`].
pub fn precision_table_for(
    pre: &Prebaked,
    formats: &[(Dtype, Precision, &'static str)],
) -> (Vec<PrecisionRow>, TextTable) {
    let trials = pre.budget().trials;
    let mut specs = Vec::new();
    for &(dtype, precision, format) in formats {
        for rel in RelBit::all() {
            specs.push((dtype, precision, format, rel));
        }
    }
    let plans: Vec<CellPlan<'_>> = specs
        .iter()
        .map(|&(dtype, precision, format, rel)| {
            precision_plan(pre, dtype, precision, format, rel, trials)
        })
        .collect();
    let pooled = pre.run_plan(&plans);
    let rows: Vec<PrecisionRow> = specs
        .iter()
        .zip(&pooled)
        .map(|(&(dtype, precision, format, rel), outcomes)| {
            assemble_row(pre, dtype, precision, format, rel, outcomes)
        })
        .collect();
    let table = render(&rows);
    (rows, table)
}

/// The headline claim: at the shared `exp-msb` stratum the two 16-bit
/// formats diverge — bfloat16's 8-bit exponent turns the flip into an
/// extreme value strictly more often than binary16's 5-bit exponent does.
pub fn exponent_width_divergence(rows: &[PrecisionRow]) -> bool {
    let rate = |format: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.format == format && r.rel == RelBit::ExpMsb && r.trainings > r.failed)
            .map(|r| percent(r.nev, r.trainings - r.failed))
    };
    match (rate("f16"), rate("bf16")) {
        (Some(f16), Some(bf16)) => bf16 > f16,
        _ => false,
    }
}

/// Cross-dtype equivalent injection over every storage format.
pub const PRECISION: Experiment = Experiment {
    name: "precision",
    title: "Equivalent injection across storage formats (Chainer / AlexNet)",
    files: &["precision.csv"],
    run: |pre, r| {
        r.budget(pre, &format!("{} trainings/cell", pre.budget().trials));
        let (rows, table) = precision_table(pre);
        r.table(&table);
        let label = "exponent-width divergence (bf16 exp-msb N-EV > f16)";
        r.check(label, exponent_width_divergence(&rows));
        r.csv("precision.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    #[test]
    fn strata_resolve_to_distinct_in_range_bits() {
        for (_, p, _) in formats() {
            let bits: Vec<u32> = RelBit::all().iter().map(|r| r.resolve(p)).collect();
            for (i, &b) in bits.iter().enumerate() {
                assert!(b < p.width(), "{p:?} stratum {i} out of range");
                assert!(!bits[..i].contains(&b), "{p:?} stratum {i} collides");
            }
        }
        // The paper's critical bit, per format.
        assert_eq!(RelBit::ExpMsb.resolve(Precision::Fp16), 14);
        assert_eq!(RelBit::ExpMsb.resolve(Precision::Bf16), 14);
        assert_eq!(RelBit::ExpMsb.resolve(Precision::Fp32), 30);
        assert_eq!(RelBit::ExpMsb.resolve(Precision::Fp64), 62);
    }

    #[test]
    fn same_trial_flips_the_same_weight_in_every_format() {
        // The equivalence contract: with the format-independent seed, the
        // injector draws the same (dataset, entry) in every format.
        let pre = Prebaked::new(Budget::smoke());
        let fw = FrameworkKind::Chainer;
        let model = ModelKind::AlexNet;
        for trial in 0..3 {
            let mut drawn = Vec::new();
            for (dtype, precision, _) in formats() {
                let bit = RelBit::ExpLsb.resolve(precision);
                let mut cfg = CorrupterConfig::bit_flips_full_range(
                    1,
                    precision,
                    equivalent_seed(RelBit::ExpLsb, trial),
                );
                cfg.mode = CorruptionMode::BitRange(BitRange { first_bit: bit, last_bit: bit });
                cfg.locations = LocationSelection::Listed(vec!["predictor".to_string()]);
                let trial = pre.trial(fw, model, dtype).corrupt(cfg).unwrap();
                let r = &trial.report().records[0];
                drawn.push((r.location.clone(), r.entry_index));
            }
            assert!(
                drawn.windows(2).all(|w| w[0] == w[1]),
                "trial {trial} drew different weights across formats: {drawn:?}"
            );
        }
    }

    #[test]
    fn exponent_msb_diverges_between_the_16_bit_formats() {
        // bf16's exp-MSB flip scales a sub-unit weight by ~2^128 (extreme
        // value → collapse); f16's by at most ~2^16 (finite, absorbed).
        let pre = Prebaked::new(Budget::smoke());
        let subset = [(Dtype::F16, Precision::Fp16, "f16"), (Dtype::BF16, Precision::Bf16, "bf16")];
        let (rows, _) = precision_table_for(&pre, &subset);
        assert!(exponent_width_divergence(&rows), "{rows:?}");
        let bf16 = rows.iter().find(|r| r.format == "bf16" && r.rel == RelBit::ExpMsb).unwrap();
        assert!(bf16.nev > 0, "bf16 exp-MSB flips must collapse: {bf16:?}");
    }

    #[test]
    fn mantissa_lsb_is_masked_only_where_narrowing_drops_it() {
        // The f32 engine keeps 23 mantissa bits: an f64 man-LSB flip (bit
        // 0 of 52) always rounds away at load; an f32/f16/bf16 man-LSB
        // flip always survives (widening is exact).
        let pre = Prebaked::new(Budget::smoke());
        let (rows, _) = precision_table_for(&pre, &formats());
        for r in rows.iter().filter(|r| r.rel == RelBit::ManLsb) {
            let ok = r.trainings - r.failed;
            if r.dtype == Dtype::F64 {
                assert_eq!(r.masked, ok, "f64 man-LSB flips narrow away: {r:?}");
            } else {
                assert_eq!(r.masked, 0, "{} man-LSB flips are engine-visible: {r:?}", r.format);
            }
        }
    }
}
