//! Storage-level soft errors vs the sectioned (v2) checkpoint format.
//!
//! The paper's injector corrupts *decoded values*, so every fault lands in
//! a tensor. A storage or DMA soft error has no such courtesy: it flips a
//! bit anywhere in the file — superblock, index, a checksum field, or raw
//! payload. This experiment sweeps single random file-byte flips over a v2
//! checkpoint, one structural region per cell, and classifies what each of
//! two loaders observes:
//!
//! * **verified** — [`H5File::from_bytes_with_policy`] under
//!   [`LoadPolicy::Quarantine`]: the superblock, index CRC, and per-section
//!   CRCs are all checked; a quarantined dataset counts as detection.
//! * **trusting** — [`H5File::from_bytes_unverified`]: structure is parsed
//!   but no checksum is compared, modeling a checksum-free format (or a
//!   loader that skips verification for speed).
//!
//! Outcomes follow the standard soft-error taxonomy: **masked** (the loaded
//! file equals the pristine one), **detected** (the loader errors or
//! quarantines — a DUE), **silent** (the load succeeds but the file
//! differs — an SDC).

use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked};
use crate::table::{pct, TextTable};
use sefi_core::{FileRegion, RawConfig, RawCorrupter};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::{Dtype, H5File, LoadPolicy};
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// What a loader observed after a flip, in the Beyer et al. taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Load succeeded and the result equals the pristine checkpoint.
    Masked,
    /// The loader errored or quarantined a dataset (a DUE).
    Detected,
    /// Load succeeded but the result differs from pristine (an SDC).
    Silent,
}

impl Outcome {
    /// Stable numeric code recorded as a trial metric (resume-safe).
    pub fn code(self) -> f64 {
        match self {
            Outcome::Masked => 0.0,
            Outcome::Detected => 1.0,
            Outcome::Silent => 2.0,
        }
    }

    /// Inverse of [`Outcome::code`], for replaying manifest records.
    pub fn from_code(code: f64) -> Option<Self> {
        match code as i64 {
            0 => Some(Outcome::Masked),
            1 => Some(Outcome::Detected),
            2 => Some(Outcome::Silent),
            _ => None,
        }
    }
}

/// Per-loader outcome counts: `[masked, detected, silent]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts(pub [usize; 3]);

impl Counts {
    fn bump(&mut self, o: Outcome) {
        self.0[o.code() as usize] += 1;
    }

    /// Count for one outcome class.
    pub fn get(&self, o: Outcome) -> usize {
        self.0[o.code() as usize]
    }
}

/// One region's row of the sweep.
#[derive(Debug, Clone)]
pub struct RegionRow {
    /// Structural region the flips were confined to.
    pub region: FileRegion,
    /// Flips classified (excludes failed trials).
    pub trials: usize,
    /// What the verified (CRC-checking, quarantining) loader saw.
    pub verified: Counts,
    /// What the trusting (no-checksum) loader saw.
    pub trusting: Counts,
    /// Trials that failed to complete (recorded, not classified).
    pub failed: usize,
}

/// Classify one loader's view of corrupted bytes against the pristine
/// decode. `Err` and quarantine are detections; equality is masking.
fn classify(pristine: &H5File, bytes: &[u8], policy: Option<LoadPolicy>) -> Outcome {
    let loaded = match policy {
        Some(p) => match H5File::from_bytes_with_policy(bytes, p) {
            Err(_) => return Outcome::Detected,
            Ok((_, report)) if !report.is_clean() => return Outcome::Detected,
            Ok((file, _)) => file,
        },
        None => match H5File::from_bytes_unverified(bytes) {
            Err(_) => return Outcome::Detected,
            Ok(file) => file,
        },
    };
    if &loaded == pristine {
        Outcome::Masked
    } else {
        Outcome::Silent
    }
}

/// Flips per region cell: the trials are pure decodes (no training), so we
/// run more of them than a table cell's trainings — enough that every
/// reachable outcome class appears even at smoke scale.
pub fn flips_per_region(pre: &Prebaked) -> usize {
    (pre.budget().trials * 8).max(48)
}

/// The three swept regions, in table order.
fn regions() -> [FileRegion; 3] {
    [FileRegion::Superblock, FileRegion::Index, FileRegion::Payload]
}

/// Run the sweep (Chainer/AlexNet checkpoint, one single-bit flip per
/// trial, each region swept independently). The three region cells share
/// one scheduler pool and one encoded pristine byte image.
pub fn storage_table(pre: &Prebaked) -> (Vec<RegionRow>, TextTable) {
    use std::sync::Arc;
    let fw = FrameworkKind::Chainer;
    let model = ModelKind::AlexNet;
    let trials = flips_per_region(pre);
    let bytes = Arc::new(pre.checkpoint_shared(fw, model, Dtype::F32).to_bytes_v2());
    // Compare against the decode of the pristine bytes (not the in-memory
    // original) so the classification measures the flip, not the encoder.
    let pristine = Arc::new(H5File::from_bytes(&bytes).expect("pristine v2 bytes decode"));

    let plans: Vec<CellPlan<'_>> = regions()
        .into_iter()
        .map(|region| {
            let bytes = Arc::clone(&bytes);
            let pristine = Arc::clone(&pristine);
            let cell = format!("storage-{}", region.label());
            CellPlan::new("storage", cell, fw, model, trials, move |_, seed| {
                let mut corrupted = (*bytes).clone();
                let report = RawCorrupter::new(RawConfig::single_flip(Some(region), seed))?
                    .corrupt_bytes(&mut corrupted)?;
                let flip = &report.flips[0];
                let verified = classify(&pristine, &corrupted, Some(LoadPolicy::Quarantine));
                let trusting = classify(&pristine, &corrupted, None);
                Ok(TrialOutcome::ok()
                    .with_metric("verified", verified.code())
                    .with_metric("trusting", trusting.code())
                    .with_metric("offset", flip.offset as f64))
            })
        })
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut rows = Vec::new();
    let mut table = TextTable::new(&[
        "Region",
        "Flips",
        "Masked(v)",
        "Detected(v)",
        "Silent(v)",
        "Masked(t)",
        "Detected(t)",
        "Silent(t)",
        "Failed",
    ]);
    for (region, outcomes) in regions().into_iter().zip(&pooled) {
        let mut row = RegionRow {
            region,
            trials: 0,
            verified: Counts::default(),
            trusting: Counts::default(),
            failed: 0,
        };
        for o in outcomes {
            let classes = o
                .metric("verified")
                .and_then(Outcome::from_code)
                .zip(o.metric("trusting").and_then(Outcome::from_code));
            match classes {
                Some((v, t)) if !o.is_failed() => {
                    row.trials += 1;
                    row.verified.bump(v);
                    row.trusting.bump(t);
                }
                _ => row.failed += 1,
            }
        }
        table.row(vec![
            region.label().to_string(),
            row.trials.to_string(),
            row.verified.get(Outcome::Masked).to_string(),
            row.verified.get(Outcome::Detected).to_string(),
            row.verified.get(Outcome::Silent).to_string(),
            row.trusting.get(Outcome::Masked).to_string(),
            row.trusting.get(Outcome::Detected).to_string(),
            row.trusting.get(Outcome::Silent).to_string(),
            row.failed.to_string(),
        ]);
        rows.push(row);
    }
    (rows, table)
}

/// The format's coverage claim: the verified loader converts *every*
/// single-bit flip into a detection — no masked luck, no silent corruption.
pub fn verified_loader_detects_everything(rows: &[RegionRow]) -> bool {
    rows.iter().all(|r| r.verified.get(Outcome::Detected) == r.trials)
}

/// True when every outcome class appears somewhere in the table — masked
/// (trusting loader over the unused-checksum superblock bytes), detected,
/// and silent (trusting loader over the payload). The CI smoke run asserts
/// this.
pub fn all_classes_observed(rows: &[RegionRow]) -> bool {
    [Outcome::Masked, Outcome::Detected, Outcome::Silent]
        .iter()
        .all(|&o| rows.iter().any(|r| r.verified.get(o) + r.trusting.get(o) > 0))
}

/// Fraction (percent) of trusting-loader outcomes that were silent — the
/// SDC rate a checksum-free format would suffer, per region.
pub fn trusting_silent_rate(row: &RegionRow) -> f64 {
    if row.trials == 0 {
        return 0.0;
    }
    100.0 * row.trusting.get(Outcome::Silent) as f64 / row.trials as f64
}

/// Render the per-region SDC-rate summary line printed by the binary.
pub fn sdc_summary(rows: &[RegionRow]) -> String {
    rows.iter()
        .map(|r| format!("{} {}%", r.region.label(), pct(trusting_silent_rate(r))))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The storage sweep: file-byte flips vs a verified and a trusting loader.
pub const STORAGE: Experiment = Experiment {
    name: "storage",
    title: "Storage soft errors — single-bit file flips vs the sectioned v2 format",
    files: &["storage.csv"],
    run: |pre, r| {
        let flips = flips_per_region(pre);
        r.budget(pre, &format!("{flips} flips/region; loaders: (v)erified, (t)rusting"));
        let (rows, table) = storage_table(pre);
        r.table(&table);
        r.check("verified loader detects every flip", verified_loader_detects_everything(&rows));
        r.check("all outcome classes observed", all_classes_observed(&rows));
        r.finding("trusting-loader SDC rate", sdc_summary(&rows));
        r.csv("storage.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn outcome_codes_roundtrip() {
        for o in [Outcome::Masked, Outcome::Detected, Outcome::Silent] {
            assert_eq!(Outcome::from_code(o.code()), Some(o));
        }
        assert_eq!(Outcome::from_code(7.0), None);
    }

    #[test]
    fn sweep_smoke() {
        let pre = Prebaked::new(Budget::smoke());
        let (rows, _) = storage_table(&pre);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.failed, 0, "{}", row.region.label());
            assert_eq!(row.trials, flips_per_region(&pre));
        }
        // The verified loader's CRCs cover every byte it trusts: no flip
        // is ever masked or silent.
        assert!(verified_loader_detects_everything(&rows));
        // The trusting loader: every payload flip changes a stored value
        // silently (SDC), while superblock flips that land in the checksum
        // fields it ignores are masked.
        let payload = rows.iter().find(|r| r.region == FileRegion::Payload).unwrap();
        assert_eq!(payload.trusting.get(Outcome::Silent), payload.trials);
        let superblock = rows.iter().find(|r| r.region == FileRegion::Superblock).unwrap();
        assert!(superblock.trusting.get(Outcome::Masked) > 0);
        assert!(superblock.trusting.get(Outcome::Detected) > 0);
        assert!(all_classes_observed(&rows));
    }
}
