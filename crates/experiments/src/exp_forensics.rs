//! Forensics sweep: ECC-protected vs plain containers under single-bit
//! file flips, with a four-class outcome taxonomy.
//!
//! [`crate::exp_storage`] showed that the sectioned format turns every
//! flip into *detection* — the checkpoint survives, the training run does
//! not, because a quarantined tensor falls back to its initializer. The
//! ECC parity sidecar ([`sefi_hdf5::EccSidecar`]) closes that gap: under
//! [`LoadPolicy::Correct`] a single-bit payload flip is repaired in place
//! and the load proceeds bit-exact. This experiment quantifies the upgrade
//! with four cells, one row each:
//!
//! * **plain / trusting** — no sidecar, checksum-free loader, payload
//!   flips. The PR-4 baseline: every flip is silent corruption.
//! * **plain / verified** — no sidecar, [`LoadPolicy::Quarantine`],
//!   payload flips. Every flip is detected but unrecoverable.
//! * **ecc / payload** — sidecar present, [`LoadPolicy::Correct`],
//!   payload flips. Every flip is *corrected*: the loaded file equals the
//!   pristine one and the report names the repaired dataset.
//! * **ecc / parity** — sidecar present, the flip lands in the sidecar
//!   *itself*. Parity-byte damage is masked (SEC-DED absorbs it);
//!   structural header damage is detected by sidecar validation.
//!
//! Outcomes extend the storage taxonomy with a **corrected** class: the
//! load reported (and repaired) damage, and the result is bit-exact.

use crate::driver::Experiment;
use crate::runner::{CellPlan, Prebaked};
use crate::table::{pct, TextTable};
use sefi_core::{FileRegion, RawConfig, RawCorrupter};
use sefi_frameworks::FrameworkKind;
use sefi_hdf5::{Dtype, EccSidecar, H5File, LoadPolicy};
use sefi_models::ModelKind;
use sefi_telemetry::TrialOutcome;

/// What a loader observed after a flip, extended with the repair class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Load succeeded untouched and the result equals the pristine file.
    Masked,
    /// The loader errored or quarantined a dataset (a DUE).
    Detected,
    /// ECC repaired the damage and the result equals the pristine file.
    Corrected,
    /// Load succeeded but the result differs from pristine (an SDC).
    Silent,
}

impl Outcome {
    /// Stable numeric code recorded as a trial metric (resume-safe).
    pub fn code(self) -> f64 {
        match self {
            Outcome::Masked => 0.0,
            Outcome::Detected => 1.0,
            Outcome::Corrected => 2.0,
            Outcome::Silent => 3.0,
        }
    }

    /// Inverse of [`Outcome::code`], for replaying manifest records.
    pub fn from_code(code: f64) -> Option<Self> {
        match code as i64 {
            0 => Some(Outcome::Masked),
            1 => Some(Outcome::Detected),
            2 => Some(Outcome::Corrected),
            3 => Some(Outcome::Silent),
            _ => None,
        }
    }

    /// All four classes, in code order.
    pub fn all() -> [Outcome; 4] {
        [Outcome::Masked, Outcome::Detected, Outcome::Corrected, Outcome::Silent]
    }
}

/// Outcome counts: `[masked, detected, corrected, silent]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts(pub [usize; 4]);

impl Counts {
    fn bump(&mut self, o: Outcome) {
        self.0[o.code() as usize] += 1;
    }

    /// Count for one outcome class.
    pub fn get(&self, o: Outcome) -> usize {
        self.0[o.code() as usize]
    }
}

/// One cell of the sweep: a container/loader/target combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Plain container, checksum-free loader, payload flips.
    PlainTrusting,
    /// Plain container, quarantining loader, payload flips.
    PlainVerified,
    /// ECC sidecar attached, correcting loader, payload flips.
    EccPayload,
    /// ECC sidecar attached, correcting loader, flips in the sidecar.
    EccParity,
}

impl Scenario {
    /// Stable table/cell label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::PlainTrusting => "plain-trusting",
            Scenario::PlainVerified => "plain-verified",
            Scenario::EccPayload => "ecc-payload",
            Scenario::EccParity => "ecc-parity",
        }
    }

    /// Region the single flip is confined to.
    fn region(self) -> FileRegion {
        match self {
            Scenario::EccParity => FileRegion::Parity,
            _ => FileRegion::Payload,
        }
    }

    /// The four swept cells, in table order.
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::PlainTrusting,
            Scenario::PlainVerified,
            Scenario::EccPayload,
            Scenario::EccParity,
        ]
    }
}

/// One scenario's row of the sweep.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// The container/loader/target combination.
    pub scenario: Scenario,
    /// Flips classified (excludes failed trials).
    pub trials: usize,
    /// Outcome tallies.
    pub counts: Counts,
    /// Trials that failed to complete (recorded, not classified).
    pub failed: usize,
}

/// Classify a plain (sidecar-less) load of corrupted bytes against the
/// pristine decode. `None` policy models the trusting loader.
fn classify_plain(pristine: &H5File, bytes: &[u8], policy: Option<LoadPolicy>) -> Outcome {
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

/// Classify an ECC-corrected load: both the checkpoint bytes *and* the
/// serialized sidecar may be damaged. A repair that restores the pristine
/// file is [`Outcome::Corrected`]; quarantine or a sidecar that no longer
/// validates/binds is [`Outcome::Detected`].
fn classify_ecc(pristine: &H5File, bytes: &[u8], sidecar_bytes: &[u8]) -> Outcome {
    let sidecar = match EccSidecar::from_bytes(sidecar_bytes) {
        Ok(sc) => sc,
        Err(_) => return Outcome::Detected,
    };
    let (loaded, report) = match H5File::from_bytes_with_ecc(bytes, LoadPolicy::Correct, &sidecar) {
        Err(_) => return Outcome::Detected,
        Ok(ok) => ok,
    };
    if !report.quarantined.is_empty() {
        return Outcome::Detected;
    }
    match (&loaded == pristine, report.corrected.is_empty()) {
        (true, false) => Outcome::Corrected,
        (true, true) => Outcome::Masked,
        (false, _) => Outcome::Silent,
    }
}

/// Flips per cell — the same decode-only scaling rule as
/// [`crate::exp_storage::flips_per_region`].
pub fn flips_per_cell(pre: &Prebaked) -> usize {
    (pre.budget().trials * 8).max(48)
}

/// Run the sweep (Chainer/AlexNet checkpoint, one single-bit flip per
/// trial). All four cells share one scheduler pool, one encoded pristine
/// byte image, and one minted sidecar.
pub fn forensics_table(pre: &Prebaked) -> (Vec<ScenarioRow>, TextTable) {
    use std::sync::Arc;
    let fw = FrameworkKind::Chainer;
    let model = ModelKind::AlexNet;
    let trials = flips_per_cell(pre);
    let bytes = Arc::new(pre.checkpoint_shared(fw, model, Dtype::F32).to_bytes_v2());
    let sidecar_bytes =
        Arc::new(EccSidecar::protect(&bytes).expect("pristine bytes protect").to_bytes());
    // Compare against the decode of the pristine bytes (not the in-memory
    // original) so the classification measures the flip, not the encoder.
    let pristine = Arc::new(H5File::from_bytes(&bytes).expect("pristine v2 bytes decode"));

    let plans: Vec<CellPlan<'_>> = Scenario::all()
        .into_iter()
        .map(|scenario| {
            let bytes = Arc::clone(&bytes);
            let sidecar_bytes = Arc::clone(&sidecar_bytes);
            let pristine = Arc::clone(&pristine);
            let cell = format!("forensics-{}", scenario.label());
            CellPlan::new("forensics", cell, fw, model, trials, move |_, seed| {
                let corrupter =
                    RawCorrupter::new(RawConfig::single_flip(Some(scenario.region()), seed))?;
                let mut corrupted = (*bytes).clone();
                let (outcome, offset) = match scenario {
                    Scenario::PlainTrusting | Scenario::PlainVerified => {
                        let report = corrupter.corrupt_bytes(&mut corrupted)?;
                        let policy = match scenario {
                            Scenario::PlainTrusting => None,
                            _ => Some(LoadPolicy::Quarantine),
                        };
                        (classify_plain(&pristine, &corrupted, policy), report.flips[0].offset)
                    }
                    Scenario::EccPayload | Scenario::EccParity => {
                        let mut sc = (*sidecar_bytes).clone();
                        let report = corrupter.corrupt_with_sidecar(&mut corrupted, &mut sc)?;
                        (classify_ecc(&pristine, &corrupted, &sc), report.flips[0].offset)
                    }
                };
                Ok(TrialOutcome::ok()
                    .with_metric("outcome", outcome.code())
                    .with_metric("offset", offset as f64))
            })
        })
        .collect();
    let pooled = pre.run_plan(&plans);

    let mut rows = Vec::new();
    let mut table =
        TextTable::new(&["Cell", "Flips", "Masked", "Detected", "Corrected", "Silent", "Failed"]);
    for (scenario, outcomes) in Scenario::all().into_iter().zip(&pooled) {
        let mut row = ScenarioRow { scenario, trials: 0, counts: Counts::default(), failed: 0 };
        for o in outcomes {
            match o.metric("outcome").and_then(Outcome::from_code) {
                Some(class) if !o.is_failed() => {
                    row.trials += 1;
                    row.counts.bump(class);
                }
                _ => row.failed += 1,
            }
        }
        table.row(vec![
            scenario.label().to_string(),
            row.trials.to_string(),
            row.counts.get(Outcome::Masked).to_string(),
            row.counts.get(Outcome::Detected).to_string(),
            row.counts.get(Outcome::Corrected).to_string(),
            row.counts.get(Outcome::Silent).to_string(),
            row.failed.to_string(),
        ]);
        rows.push(row);
    }
    (rows, table)
}

/// The sidecar's coverage claim: *every* single-bit payload flip under the
/// correcting loader comes back corrected — bit-exact, nothing quarantined.
pub fn ecc_corrects_every_payload_flip(rows: &[ScenarioRow]) -> bool {
    rows.iter()
        .filter(|r| r.scenario == Scenario::EccPayload)
        .all(|r| r.counts.get(Outcome::Corrected) == r.trials)
}

/// The baseline the sidecar is measured against: the trusting loader turns
/// every payload flip into silent corruption.
pub fn plain_trusting_all_silent(rows: &[ScenarioRow]) -> bool {
    rows.iter()
        .filter(|r| r.scenario == Scenario::PlainTrusting)
        .all(|r| r.counts.get(Outcome::Silent) == r.trials)
}

/// True when every outcome class appears somewhere in the table: masked
/// (parity-byte flips the SEC-DED code absorbs), detected (quarantine),
/// corrected (ECC repair), silent (trusting loader). The CI smoke run
/// asserts this.
pub fn all_classes_observed(rows: &[ScenarioRow]) -> bool {
    Outcome::all().iter().all(|&o| rows.iter().any(|r| r.counts.get(o) > 0))
}

/// Render the per-cell corrected-rate summary line printed by the binary.
pub fn corrected_summary(rows: &[ScenarioRow]) -> String {
    rows.iter()
        .map(|r| {
            let rate = if r.trials == 0 {
                0.0
            } else {
                100.0 * r.counts.get(Outcome::Corrected) as f64 / r.trials as f64
            };
            format!("{} {}%", r.scenario.label(), pct(rate))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The forensics sweep: file-byte flips with and without an ECC sidecar.
pub const FORENSICS: Experiment = Experiment {
    name: "forensics",
    title: "Checkpoint forensics — ECC-corrected loads vs the plain sectioned format",
    files: &["forensics.csv"],
    run: |pre, r| {
        r.budget(pre, &format!("{} flips/cell", flips_per_cell(pre)));
        let (rows, table) = forensics_table(pre);
        r.table(&table);
        r.check("ecc loader corrects every payload flip", ecc_corrects_every_payload_flip(&rows));
        r.finding("plain trusting loader is all-silent", plain_trusting_all_silent(&rows));
        r.check("all outcome classes observed", all_classes_observed(&rows));
        r.finding("corrected rate", corrected_summary(&rows));
        r.csv("forensics.csv", &table);
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn outcome_codes_roundtrip() {
        for o in Outcome::all() {
            assert_eq!(Outcome::from_code(o.code()), Some(o));
        }
        assert_eq!(Outcome::from_code(9.0), None);
    }

    #[test]
    fn sweep_smoke() {
        let pre = Prebaked::new(Budget::smoke());
        let (rows, _) = forensics_table(&pre);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.failed, 0, "{}", row.scenario.label());
            assert_eq!(row.trials, flips_per_cell(&pre));
        }
        // Baseline rows reproduce the storage-sweep results exactly.
        assert!(plain_trusting_all_silent(&rows));
        let verified = rows.iter().find(|r| r.scenario == Scenario::PlainVerified).unwrap();
        assert_eq!(verified.counts.get(Outcome::Detected), verified.trials);
        // The headline: the correcting loader repairs 100% of single-bit
        // payload flips back to the pristine bytes.
        assert!(ecc_corrects_every_payload_flip(&rows));
        // Flips in the sidecar itself never corrupt a load: parity bytes
        // are absorbed (masked) and structural damage is detected.
        let parity = rows.iter().find(|r| r.scenario == Scenario::EccParity).unwrap();
        assert_eq!(parity.counts.get(Outcome::Silent), 0);
        assert_eq!(parity.counts.get(Outcome::Corrected), 0);
        assert!(parity.counts.get(Outcome::Masked) > 0);
        assert!(all_classes_observed(&rows));
    }
}
