//! The injection engine.
//!
//! A corrupt call resolves its locations once: one walk of the file lends
//! every selected dataset mutably into a slot table, with the paths kept
//! in one shared string. After that an injection is an RNG draw, the bit
//! arithmetic on one entry, and the record's location string — no path is
//! split, looked up or copied per flip.

use crate::config::{CorrupterConfig, CorruptionMode, InjectionAmount, LocationSelection};
use crate::error::CorruptError;
use crate::log::{InjectionLog, LogRecord};
use crate::report::{InjectionRecord, InjectionReport, ValueChange};
use sefi_float::{corrupt_int, minimal_bit_width, BitMask, FpValue};
use sefi_hdf5::{Dataset, H5File};
use sefi_rng::DetRng;
use std::ops::Range;
use std::path::Path;

/// Bound on the NaN-avoidance redraw loop. The paper retries "until a valid
/// value is obtained"; a bound keeps pathological configs (e.g. a mask that
/// always sets the full exponent of every value) from spinning forever,
/// and exceeding it is a loud error rather than a silent skip.
const MAX_NAN_REDRAWS: u64 = 10_000;

/// A configured, validated fault injector.
pub struct Corrupter {
    config: CorrupterConfig,
}

/// What one injection does to one entry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Action<'m> {
    /// Flip one bit: of the stored float bits, or — on an integer
    /// dataset — of the magnitude, with Python-`bin()` semantics.
    Flip(u32),
    /// XOR `mask` placed at an offset into the stored float bits.
    Mask(&'m BitMask, u32),
    /// Multiply the float value by a factor, rounded at the stored
    /// precision.
    Scale(f64),
}

impl Action<'_> {
    /// The action as reports and logs record it.
    fn change(self) -> ValueChange {
        match self {
            Action::Flip(bit) => ValueChange::BitFlip { bit },
            Action::Mask(mask, offset) => {
                ValueChange::MaskApplied { offset, bits_flipped: mask.ones() }
            }
            Action::Scale(factor) => ValueChange::Scaled { factor },
        }
    }
}

/// The per-injection step the corrupter and log replay share: apply
/// `action` to entry `index` of `ds` and return the old and new values
/// widened to `f64`.
///
/// Float datasets transform their stored bits at their own precision.
/// Integer datasets (I8Q included) take only bit flips, of the magnitude
/// within its minimal binary width (Section IV-B, whatever the corruption
/// mode). `Ok(None)` means the result was refused and nothing was written:
/// an integer flip whose magnitude overflows, or — with `refuse_nev` — a
/// float result that is NaN or infinite. An action the target cannot take
/// (a bit beyond its width, a scale or mask on integers) is an error; only
/// a replayed log can ask for one.
pub(crate) fn apply_step(
    ds: &mut Dataset,
    index: usize,
    action: Action<'_>,
    refuse_nev: bool,
) -> Result<Option<(f64, f64)>, CorruptError> {
    let Some(precision) = ds.dtype().precision() else {
        let Action::Flip(bit) = action else {
            return Err(CorruptError::Log(format!(
                "{:?} cannot be applied to an integer dataset",
                action.change()
            )));
        };
        let old = ds.get_i64(index)?;
        let width = minimal_bit_width(old);
        if bit >= width {
            return Err(CorruptError::Log(format!(
                "logged bit {bit} exceeds the {width}-bit magnitude of integer value {old}"
            )));
        }
        return match corrupt_int(old, bit) {
            Some(new) => {
                ds.set_i64(index, new)?;
                Ok(Some((old as f64, new as f64)))
            }
            None => Ok(None),
        };
    };
    let old = FpValue::from_bits(precision, ds.get_bits(index)?);
    let new = match action {
        Action::Flip(bit) => {
            if bit >= precision.width() {
                return Err(CorruptError::Log(format!(
                    "logged bit {bit} exceeds {}-bit replay precision",
                    precision.width()
                )));
            }
            FpValue::from_bits(precision, old.to_bits() ^ (1u64 << bit))
        }
        Action::Mask(mask, offset) => {
            FpValue::from_bits(precision, mask.apply(old.to_bits(), offset))
        }
        Action::Scale(factor) => FpValue::from_f64(precision, old.to_f64() * factor),
    };
    if refuse_nev && (new.is_nan() || new.is_infinite()) {
        return Ok(None);
    }
    ds.set_bits(index, new.to_bits())?;
    Ok(Some((old.to_f64(), new.to_f64())))
}

/// One resolved injection target: a non-empty dataset lent for the whole
/// corrupt call, and where its path sits in [`Targets::paths`].
struct Slot<'f> {
    path: Range<usize>,
    ds: &'f mut Dataset,
}

/// A corrupt call's locations, resolved once, in the order the injector
/// draws from.
struct Targets<'f> {
    /// The path of every dataset in the file, concatenated.
    paths: String,
    slots: Vec<Slot<'f>>,
}

impl Targets<'_> {
    fn path(&self, slot: usize) -> &str {
        &self.paths[self.slots[slot].path.clone()]
    }
}

/// True when the dataset at `path` is `location` or lies below it.
fn is_under(path: &str, location: &str) -> bool {
    path.strip_prefix(location).is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

impl Corrupter {
    /// Validate the configuration and build the injector.
    pub fn new(config: CorrupterConfig) -> Result<Self, CorruptError> {
        config.validate()?;
        Ok(Corrupter { config })
    }

    /// The configuration.
    pub fn config(&self) -> &CorrupterConfig {
        &self.config
    }

    /// Corrupt a checkpoint in place and report what changed.
    pub fn corrupt(&self, file: &mut H5File) -> Result<InjectionReport, CorruptError> {
        let mut targets = self.resolve(file)?;
        // Upfront, file-aware precision validation over every eligible
        // location (only those selected): a mismatched dataset fails
        // before the first injection mutates anything.
        for (i, slot) in targets.slots.iter().enumerate() {
            self.config.check_precision(targets.path(i), slot.ds.dtype().precision())?;
        }
        let attempts = match self.config.amount {
            InjectionAmount::Count(n) => n,
            // "The total number of entries … that can be corrupted",
            // counted within the resolved locations.
            InjectionAmount::Percentage(p) => {
                let total: u64 = targets.slots.iter().map(|s| s.ds.len() as u64).sum();
                ((total as f64) * p / 100.0).round() as u64
            }
        };
        let mut rng = DetRng::new(self.config.seed).substream("injector");
        let mut report = InjectionReport { attempts, ..Default::default() };
        if self.config.injection_probability >= 1.0 {
            // Every attempt makes a record: room for them up front, within
            // a bound for huge percentage runs.
            report.records.reserve(attempts.min(1 << 16) as usize);
        }
        for _ in 0..attempts {
            // Probability gate first (one Bernoulli per attempt, matching
            // the paper's "the injection is attempted … we change the value
            // with a probability of injection_probability").
            if !rng.bernoulli(self.config.injection_probability) {
                report.skipped += 1;
                continue;
            }
            let record = self.inject_once(&mut targets, &mut rng, &mut report)?;
            report.records.push(record);
            report.injections += 1;
        }
        Ok(report)
    }

    /// Corrupt a checkpoint and also produce the equivalent-injection log
    /// (Section IV-C): "the number of weights that are modified with the
    /// bit-flips, the position of the bit that is flipped, and the layer in
    /// which the weight is located".
    pub fn corrupt_with_log(
        &self,
        file: &mut H5File,
    ) -> Result<(InjectionReport, InjectionLog), CorruptError> {
        let report = self.corrupt(file)?;
        let mut log = InjectionLog::new();
        for record in &report.records {
            log.push(LogRecord::from_record(record));
        }
        Ok((report, log))
    }

    /// One injection: draw (location, entry, action); if the result is
    /// NaN/Inf and `allow_nan_values` is false, redraw the whole attempt
    /// ("a new corruption attempt is performed until a valid value is
    /// obtained").
    fn inject_once(
        &self,
        targets: &mut Targets<'_>,
        rng: &mut DetRng,
        report: &mut InjectionReport,
    ) -> Result<InjectionRecord, CorruptError> {
        let mut redraws = 0u64;
        loop {
            let slot = rng.index(targets.slots.len());
            let ds = &mut *targets.slots[slot].ds;
            let entry_index = rng.index(ds.len());
            let action = match ds.dtype().precision() {
                Some(precision) => {
                    // Defense in depth: every location was already checked
                    // upfront in `corrupt`.
                    if precision != self.config.float_precision {
                        return Err(CorruptError::PrecisionMismatch {
                            location: targets.path(slot).to_string(),
                            stored: precision,
                            configured: self.config.float_precision,
                        });
                    }
                    match &self.config.mode {
                        CorruptionMode::BitRange(range) => {
                            Action::Flip(range.nth(rng.below(range.len() as u64) as u32))
                        }
                        CorruptionMode::BitMask(mask) => {
                            let max = mask
                                .max_offset(precision)
                                .expect("validated against this precision");
                            Action::Mask(mask, rng.below(max as u64 + 1) as u32)
                        }
                        CorruptionMode::ScalingFactor(factor) => Action::Scale(*factor),
                    }
                }
                // Integer dataset: Python-bin() semantics — flip one random
                // bit within the magnitude's minimal binary width
                // (Section IV-B, regardless of corruption mode).
                None => {
                    let width = minimal_bit_width(ds.get_i64(entry_index)?);
                    Action::Flip(rng.below(width as u64) as u32)
                }
            };
            match apply_step(ds, entry_index, action, !self.config.allow_nan_values)? {
                Some((old_value, new_value)) => {
                    return Ok(InjectionRecord {
                        order: report.injections,
                        location: targets.path(slot).to_string(),
                        entry_index,
                        change: action.change(),
                        old_value,
                        new_value,
                    });
                }
                // A NaN/Inf float or an overflowing integer magnitude (the
                // |i64::MIN| edge): redraw, counting both alike so
                // `report.nan_redraws` covers every redrawn attempt.
                None => {
                    redraws += 1;
                    report.nan_redraws += 1;
                    if redraws > MAX_NAN_REDRAWS {
                        return Err(CorruptError::NanRetryExhausted {
                            location: targets.path(slot).to_string(),
                            index: entry_index,
                        });
                    }
                }
            }
        }
    }

    /// Resolve the location selection into the non-empty datasets it
    /// names, lent for the whole call: every dataset in path order for
    /// `AllRandom`; for `Listed`, each location's datasets ("all
    /// sublocations inside a location", Table I), sorted by path string
    /// without duplicates.
    fn resolve<'f>(&self, file: &'f mut H5File) -> Result<Targets<'f>, CorruptError> {
        if let LocationSelection::Listed(locations) = &self.config.locations {
            if let Some(missing) = locations.iter().find(|l| file.get(l).is_none()) {
                return Err(CorruptError::LocationNotFound(missing.clone()));
            }
        }
        let mut paths = String::new();
        let mut slots = Vec::new();
        file.datasets_mut(|path, ds| {
            let start = paths.len();
            paths.push_str(path);
            slots.push(Slot { path: start..paths.len(), ds });
        });
        if let LocationSelection::Listed(locations) = &self.config.locations {
            slots.retain(|s| locations.iter().any(|l| is_under(&paths[s.path.clone()], l)));
            slots.sort_unstable_by(|a, b| paths[a.path.clone()].cmp(&paths[b.path.clone()]));
        }
        slots.retain(|s| !s.ds.is_empty());
        if slots.is_empty() {
            return Err(CorruptError::NothingToCorrupt);
        }
        Ok(Targets { paths, slots })
    }
}

/// Convenience wrapper mirroring the original command-line tool: load an
/// on-disk checkpoint, corrupt it, write it back, return the report.
pub fn corrupt_file(
    path: impl AsRef<Path>,
    config: CorrupterConfig,
) -> Result<InjectionReport, CorruptError> {
    let corrupter = Corrupter::new(config)?;
    let mut file = H5File::load(&path)?;
    let report = corrupter.corrupt(&mut file)?;
    file.save(&path)?;
    Ok(report)
}

/// The path-addressed injector this module replaced, kept as the oracle
/// the slot-addressed one is checked against: every flip looks its
/// location up by path and every location is re-resolved per use.
#[cfg(test)]
pub(crate) mod path_oracle {
    use super::*;

    /// Corrupt `file` exactly as the path-based injector did.
    pub fn corrupt_with_log(
        config: &CorrupterConfig,
        file: &mut H5File,
    ) -> Result<(InjectionReport, InjectionLog), CorruptError> {
        let locations = resolve_locations(config, file)?;
        for location in &locations {
            config.check_precision(location, file.dataset(location)?.dtype().precision())?;
        }
        let attempts = match config.amount {
            InjectionAmount::Count(n) => n,
            InjectionAmount::Percentage(p) => {
                let total: u64 = locations
                    .iter()
                    .map(|l| file.dataset(l).map(|d| d.len() as u64).unwrap_or(0))
                    .sum();
                ((total as f64) * p / 100.0).round() as u64
            }
        };
        let mut rng = DetRng::new(config.seed).substream("injector");
        let mut report = InjectionReport { attempts, ..Default::default() };
        let mut log = InjectionLog::new();
        for _ in 0..attempts {
            if !rng.bernoulli(config.injection_probability) {
                report.skipped += 1;
                continue;
            }
            let record = inject_once(config, file, &locations, &mut rng, &mut report)?;
            log.push(LogRecord::from_record(&record));
            report.records.push(record);
            report.injections += 1;
        }
        Ok((report, log))
    }

    fn inject_once(
        config: &CorrupterConfig,
        file: &mut H5File,
        locations: &[String],
        rng: &mut DetRng,
        report: &mut InjectionReport,
    ) -> Result<InjectionRecord, CorruptError> {
        let mut redraws = 0u64;
        loop {
            let location = rng.choose(locations).clone();
            let ds = file.dataset_mut(&location)?;
            let entry_index = rng.index(ds.len());
            let candidate = if let Some(precision) = ds.dtype().precision() {
                let old = FpValue::from_bits(precision, ds.get_bits(entry_index)?);
                let (new, change) = match &config.mode {
                    CorruptionMode::BitRange(range) => {
                        let bit = range.nth(rng.below(range.len() as u64) as u32);
                        (
                            FpValue::from_bits(precision, old.to_bits() ^ (1u64 << bit)),
                            ValueChange::BitFlip { bit },
                        )
                    }
                    CorruptionMode::BitMask(mask) => {
                        let max = mask.max_offset(precision).expect("validated");
                        let offset = rng.below(max as u64 + 1) as u32;
                        (
                            FpValue::from_bits(precision, mask.apply(old.to_bits(), offset)),
                            ValueChange::MaskApplied { offset, bits_flipped: mask.ones() },
                        )
                    }
                    CorruptionMode::ScalingFactor(factor) => (
                        FpValue::from_f64(precision, old.to_f64() * factor),
                        ValueChange::Scaled { factor: *factor },
                    ),
                };
                if !config.allow_nan_values && (new.is_nan() || new.is_infinite()) {
                    None
                } else {
                    Some((old.to_f64(), new.to_bits(), new.to_f64(), change))
                }
            } else {
                let old = ds.get_i64(entry_index)?;
                let bit = rng.below(minimal_bit_width(old) as u64) as u32;
                corrupt_int(old, bit)
                    .map(|new| (old as f64, new as u64, new as f64, ValueChange::BitFlip { bit }))
            };
            let Some((old_value, new_bits, new_value, change)) = candidate else {
                redraws += 1;
                report.nan_redraws += 1;
                if redraws > MAX_NAN_REDRAWS {
                    return Err(CorruptError::NanRetryExhausted { location, index: entry_index });
                }
                continue;
            };
            let ds = file.dataset_mut(&location)?;
            if ds.dtype().is_float() {
                ds.set_bits(entry_index, new_bits)?;
            } else {
                ds.set_i64(entry_index, new_bits as i64)?;
            }
            return Ok(InjectionRecord {
                order: report.injections,
                location,
                entry_index,
                change,
                old_value,
                new_value,
            });
        }
    }

    fn resolve_locations(
        config: &CorrupterConfig,
        file: &H5File,
    ) -> Result<Vec<String>, CorruptError> {
        let mut out = Vec::new();
        match &config.locations {
            LocationSelection::AllRandom => out = file.dataset_paths(),
            LocationSelection::Listed(locs) => {
                for loc in locs {
                    let expanded = file
                        .datasets_under(loc)
                        .map_err(|_| CorruptError::LocationNotFound(loc.clone()))?;
                    out.extend(expanded);
                }
                out.sort_unstable();
                out.dedup();
            }
        }
        out.retain(|p| file.dataset(p).map(|d| !d.is_empty()).unwrap_or(false));
        if out.is_empty() {
            return Err(CorruptError::NothingToCorrupt);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sefi_float::{BitRange, NevPolicy, Precision};
    use sefi_hdf5::Dtype;

    fn test_file(dtype: Dtype) -> H5File {
        let mut f = H5File::new();
        let values: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) / 25.0).collect();
        f.create_dataset("model/layer1/W", Dataset::from_f32(&values, &[10, 10], dtype).unwrap())
            .unwrap();
        f.create_dataset("model/layer1/b", Dataset::from_f32(&[0.5; 10], &[10], dtype).unwrap())
            .unwrap();
        f.create_dataset("model/layer2/W", Dataset::from_f32(&values, &[100], dtype).unwrap())
            .unwrap();
        f.create_dataset("meta/epoch", Dataset::scalar_i64(20)).unwrap();
        f
    }

    #[test]
    fn count_mode_changes_exactly_n_values() {
        let mut f = test_file(Dtype::F64);
        let before = f.clone();
        let c = Corrupter::new(CorrupterConfig::bit_flips(10, Precision::Fp64, 42)).unwrap();
        let report = c.corrupt(&mut f).unwrap();
        assert_eq!(report.attempts, 10);
        assert_eq!(report.injections, 10);
        assert_eq!(report.records.len(), 10);
        // Each record's old value matches the uncorrupted file at that slot
        // *at the time of injection*; at least assert the file changed and
        // differs in ≤ 10 entries (collisions can re-flip).
        let mut diffs = 0;
        for p in before.dataset_paths() {
            let a = before.dataset(&p).unwrap();
            let b = f.dataset(&p).unwrap();
            for i in 0..a.len() {
                if a.get_bits(i).unwrap() != b.get_bits(i).unwrap() {
                    diffs += 1;
                }
            }
        }
        assert!(diffs > 0 && diffs <= 10, "{diffs} entries differ");
    }

    #[test]
    fn corruption_is_deterministic_in_the_seed() {
        let run = |seed| {
            let mut f = test_file(Dtype::F32);
            let c = Corrupter::new(CorrupterConfig::bit_flips(25, Precision::Fp32, seed)).unwrap();
            c.corrupt(&mut f).unwrap();
            f.to_bytes()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn probability_gate_skips() {
        let mut f = test_file(Dtype::F64);
        let mut cfg = CorrupterConfig::bit_flips(1000, Precision::Fp64, 1);
        cfg.injection_probability = 0.25;
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        assert_eq!(report.injections + report.skipped, 1000);
        let rate = report.injections as f64 / 1000.0;
        assert!((rate - 0.25).abs() < 0.07, "rate {rate}");
    }

    #[test]
    fn zero_probability_never_injects() {
        let mut f = test_file(Dtype::F64);
        let before = f.to_bytes();
        let mut cfg = CorrupterConfig::bit_flips(100, Precision::Fp64, 1);
        cfg.injection_probability = 0.0;
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        assert_eq!(report.injections, 0);
        assert_eq!(report.skipped, 100);
        assert_eq!(f.to_bytes(), before);
    }

    #[test]
    fn percentage_mode_counts_entries() {
        let mut f = test_file(Dtype::F64);
        // Floats: 100 + 10 + 100 = 210; ints: 1. Locations = all datasets.
        let mut cfg = CorrupterConfig::bit_flips(0, Precision::Fp64, 3);
        cfg.amount = InjectionAmount::Percentage(10.0);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        assert_eq!(report.attempts, 21); // round(211 * 0.10)
    }

    #[test]
    fn listed_locations_expand_groups_and_restrict_targets() {
        let mut f = test_file(Dtype::F64);
        let mut cfg = CorrupterConfig::bit_flips(50, Precision::Fp64, 4);
        cfg.locations = LocationSelection::Listed(vec!["model/layer1".to_string()]);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        for r in &report.records {
            assert!(r.location.starts_with("model/layer1/"), "{}", r.location);
        }
        let touched = report.locations_touched();
        assert!(touched.contains(&"model/layer1/W"));
    }

    #[test]
    fn unknown_location_is_an_error() {
        let f = test_file(Dtype::F64);
        let mut cfg = CorrupterConfig::bit_flips(1, Precision::Fp64, 4);
        cfg.locations = LocationSelection::Listed(vec!["model/ghost".to_string()]);
        let err = Corrupter::new(cfg).unwrap().corrupt(&mut f.clone()).unwrap_err();
        assert!(matches!(err, CorruptError::LocationNotFound(_)));
    }

    #[test]
    fn nan_avoidance_never_produces_nan_or_inf() {
        let mut f = test_file(Dtype::F64);
        let mut cfg = CorrupterConfig::bit_flips(500, Precision::Fp64, 5);
        // Full range INCLUDING the exponent MSB, but NaN disallowed: the
        // redraw loop must filter every NaN/Inf.
        cfg.mode = CorruptionMode::BitRange(BitRange::full(Precision::Fp64));
        cfg.allow_nan_values = false;
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        for r in &report.records {
            assert!(r.new_value.is_finite(), "record {} is {}", r.order, r.new_value);
        }
        for p in f.dataset_paths() {
            let ds = f.dataset(&p).unwrap();
            if ds.dtype().is_float() {
                for i in 0..ds.len() {
                    assert!(ds.get_f64(i).unwrap().is_finite());
                }
            }
        }
        // Flipping the exponent MSB of small values makes huge-but-finite
        // values, and NaN needs all exponent bits set — so redraws happen
        // mostly via Inf-producing flips on already-extreme values; the
        // counter may legitimately be 0 here, so only check consistency.
        assert_eq!(report.injections, 500);
    }

    #[test]
    fn full_range_with_nan_allowed_produces_nev_at_high_counts() {
        let mut f = test_file(Dtype::F64);
        let cfg = CorrupterConfig::bit_flips_full_range(1000, Precision::Fp64, 6);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        // With 1000 flips over the full range, extreme values are near
        // certain (paper Table IV: ~99% of trainings collapse).
        assert!(report.produced_nev(&NevPolicy::default()));
    }

    #[test]
    fn scaling_factor_multiplies() {
        let mut f = test_file(Dtype::F64);
        let mut cfg = CorrupterConfig::bit_flips(20, Precision::Fp64, 7);
        cfg.mode = CorruptionMode::ScalingFactor(4500.0);
        cfg.locations = LocationSelection::Listed(vec!["model/layer1/W".to_string()]);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        for r in &report.records {
            if r.old_value != 0.0 {
                assert!((r.new_value / r.old_value - 4500.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bit_mask_mode_flips_mask_bits() {
        let mut f = test_file(Dtype::F64);
        let mut cfg = CorrupterConfig::bit_flips(30, Precision::Fp64, 8);
        cfg.mode = CorruptionMode::BitMask(BitMask::parse("11101101").unwrap());
        cfg.allow_nan_values = true;
        cfg.locations = LocationSelection::Listed(vec!["model".to_string()]);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        for r in &report.records {
            match r.change {
                ValueChange::MaskApplied { offset, bits_flipped } => {
                    assert_eq!(bits_flipped, 6);
                    assert!(offset <= 56);
                }
                other => panic!("unexpected change {other:?}"),
            }
        }
    }

    #[test]
    fn integer_datasets_use_bin_semantics() {
        let mut f = test_file(Dtype::F64);
        let mut cfg = CorrupterConfig::bit_flips(200, Precision::Fp64, 9);
        cfg.locations = LocationSelection::Listed(vec!["meta/epoch".to_string()]);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        // epoch = 20 = 0b10100 (5 bits); every flip stays within 5 bits of
        // the running value's width.
        assert_eq!(report.injections, 200);
        let v = f.dataset("meta/epoch").unwrap().get_i64(0).unwrap();
        assert!(v >= 0, "sign never flips under bin() semantics: {v}");
    }

    #[test]
    fn precision_mismatch_is_loud() {
        let mut f = test_file(Dtype::F32);
        let cfg = CorrupterConfig::bit_flips(1, Precision::Fp64, 10);
        let err = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap_err();
        assert!(matches!(err, CorruptError::PrecisionMismatch { .. }));
    }

    #[test]
    fn precision_mismatch_fails_before_any_injection() {
        // Fp32 configured against every other real width: the error must
        // fire upfront, leaving the file byte-identical — not after some
        // attempts already landed.
        for dtype in [Dtype::F16, Dtype::BF16, Dtype::F64] {
            let mut f = test_file(dtype);
            let before = f.to_bytes();
            let cfg = CorrupterConfig::bit_flips(100, Precision::Fp32, 10);
            let err = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap_err();
            let CorruptError::PrecisionMismatch { stored, configured, .. } = err else {
                panic!("expected PrecisionMismatch for {dtype:?}, got {err:?}");
            };
            assert_eq!(stored, dtype.precision().unwrap());
            assert_eq!(configured, Precision::Fp32);
            assert_eq!(f.to_bytes(), before, "{dtype:?}: no partial corruption escapes");
        }
        // The two 16-bit precisions are distinct, not width-aliased.
        let mut f = test_file(Dtype::BF16);
        let cfg = CorrupterConfig::bit_flips(1, Precision::Fp16, 10);
        let err = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap_err();
        assert!(err.to_string().contains("Bf16"), "{err}");
    }

    #[test]
    fn precision_check_honors_location_eligibility() {
        // An out-of-scope f64 dataset must not trip the upfront check when
        // the listed locations only cover matching-width data.
        let mut f = test_file(Dtype::F32);
        f.create_dataset("aux/stats", Dataset::from_f32(&[1.0; 4], &[4], Dtype::F64).unwrap())
            .unwrap();
        let mut cfg = CorrupterConfig::bit_flips(10, Precision::Fp32, 11);
        cfg.locations = LocationSelection::Listed(vec!["model".to_string()]);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        assert_eq!(report.injections, 10);
        // Widening the selection to include it is the loud path.
        let mut cfg = CorrupterConfig::bit_flips(10, Precision::Fp32, 11);
        cfg.locations = LocationSelection::Listed(vec!["aux".to_string()]);
        let err = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap_err();
        assert!(matches!(err, CorruptError::PrecisionMismatch { .. }));
    }

    #[test]
    fn quantized_datasets_use_integer_semantics() {
        // I8Q has no float precision: it is exempt from the precision check
        // and corrupts through the integer bin() path on the raw quantized
        // elements, whatever float width the config names.
        let mut f = H5File::new();
        f.create_dataset("q", Dataset::from_f32(&[0.5, -1.0, 0.25], &[3], Dtype::I8Q).unwrap())
            .unwrap();
        let before = f.dataset("q").unwrap().clone();
        let cfg = CorrupterConfig::bit_flips(20, Precision::Fp64, 12);
        let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
        assert_eq!(report.injections, 20);
        let after = f.dataset("q").unwrap();
        assert_eq!(after.scale(), before.scale(), "scale is metadata, not a target");
        let changed = (0..3).filter(|&i| after.get_i64(i) != before.get_i64(i)).count();
        assert!(changed > 0, "quantized elements corrupt");
    }

    #[test]
    fn f16_and_f32_checkpoints_corrupt_at_their_width() {
        for (dtype, precision) in [
            (Dtype::F16, Precision::Fp16),
            (Dtype::BF16, Precision::Bf16),
            (Dtype::F32, Precision::Fp32),
        ] {
            let mut f = test_file(dtype);
            let cfg = CorrupterConfig::bit_flips_full_range(50, precision, 11);
            let report = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap();
            for r in &report.records {
                if let ValueChange::BitFlip { bit } = r.change {
                    assert!(bit < precision.width());
                }
            }
        }
    }

    #[test]
    fn empty_location_set_is_error() {
        let mut f = H5File::new();
        f.create_dataset("empty", Dataset::zeros(&[0], Dtype::F64)).unwrap();
        let cfg = CorrupterConfig::bit_flips(1, Precision::Fp64, 12);
        let err = Corrupter::new(cfg).unwrap().corrupt(&mut f).unwrap_err();
        assert!(matches!(err, CorruptError::NothingToCorrupt));
    }

    #[test]
    fn corrupt_file_roundtrips_on_disk() {
        let dir = crate::testutil::TestDir::new("core_corrupt");
        let p = dir.file("ckpt.sefi5");
        test_file(Dtype::F64).save(&p).unwrap();
        let report = corrupt_file(&p, CorrupterConfig::bit_flips(5, Precision::Fp64, 13)).unwrap();
        assert_eq!(report.injections, 5);
        let loaded = H5File::load(&p).unwrap();
        assert_ne!(loaded, test_file(Dtype::F64));
    }

    /// A file mixing every real dtype's weights with integer counters, an
    /// empty dataset, and sibling names that sort differently as path
    /// strings (`a.b/…` < `a/…`) than in tree order (`a` < `a.b`).
    fn oracle_file(dtype: Dtype, seed: u64, aux_f64: bool) -> H5File {
        let mut rng = DetRng::new(seed);
        let mut values = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| match i % 11 {
                    0 => 1e-30,
                    1 => -1e-30,
                    _ => (rng.uniform() as f32 - 0.5) * 4.0,
                })
                .collect()
        };
        let mut f = H5File::new();
        for (path, n) in [("model/a/W", 24), ("model/a/b", 4), ("model/a.b/W", 9), ("model/z", 5)] {
            f.create_dataset(path, Dataset::from_f32(&values(n), &[n], dtype).unwrap()).unwrap();
        }
        f.create_dataset("model/empty", Dataset::zeros(&[0], dtype)).unwrap();
        f.create_dataset("meta/epoch", Dataset::scalar_i64(seed as i64 % 40)).unwrap();
        f.create_dataset("meta/step", Dataset::from_i64(&[7, -300], &[2], Dtype::I32).unwrap())
            .unwrap();
        if aux_f64 {
            f.create_dataset("aux/stats", Dataset::from_f32(&values(3), &[3], Dtype::F64).unwrap())
                .unwrap();
        }
        f
    }

    const ORACLE_LOCATIONS: [&str; 9] = [
        "model",
        "model/a",
        "model/a.b",
        "model/a.b/W",
        "model/z",
        "meta/epoch",
        "model/empty",
        "aux",
        "model/ghost",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]
        #[test]
        fn slot_corrupter_matches_the_path_oracle(
            dtype_pick in 0usize..5,
            mode_pick in 0usize..3,
            mode_param in 0u32..64,
            location_picks in proptest::prelude::prop::collection::vec(0usize..12, 0..4),
            amount_pick in 0u64..160,
            percentage in proptest::prelude::any::<bool>(),
            probability_pick in 0usize..4,
            allow_nan in proptest::prelude::any::<bool>(),
            precision_pick in 0usize..5,
            aux_f64 in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            let dtypes = [Dtype::F16, Dtype::BF16, Dtype::F32, Dtype::F64, Dtype::I8Q];
            let dtype = dtypes[dtype_pick];
            // Mostly the file's own precision; sometimes another one, which
            // must fail before anything is written.
            let precision = match (dtype.precision(), precision_pick) {
                (Some(p), 0..=2) => p,
                _ => [Precision::Fp16, Precision::Bf16, Precision::Fp32, Precision::Fp64]
                    [precision_pick % 4],
            };
            let width = precision.width();
            let mode = match mode_pick {
                0 => {
                    let first_bit = mode_param % width;
                    let last_bit = first_bit + (mode_param / 3) % (width - first_bit);
                    CorruptionMode::BitRange(BitRange { first_bit, last_bit })
                }
                1 => {
                    let pattern = ["1", "11", "101", "11101101", "1111111111111"]
                        [mode_param as usize % 5];
                    CorruptionMode::BitMask(BitMask::parse(pattern).unwrap())
                }
                _ => CorruptionMode::ScalingFactor([0.5, -3.0, 4500.0, 1e300][mode_param as usize % 4]),
            };
            let locations = if location_picks.is_empty() {
                LocationSelection::AllRandom
            } else {
                LocationSelection::Listed(
                    location_picks
                        .iter()
                        .map(|&i| ORACLE_LOCATIONS[i % ORACLE_LOCATIONS.len()].to_string())
                        .collect(),
                )
            };
            let cfg = CorrupterConfig {
                injection_probability: [1.0, 0.5, 0.1, 0.0][probability_pick],
                amount: if percentage {
                    InjectionAmount::Percentage(amount_pick as f64 / 4.0)
                } else {
                    InjectionAmount::Count(amount_pick)
                },
                float_precision: precision,
                mode,
                allow_nan_values: allow_nan,
                locations,
                seed,
            };
            let Ok(corrupter) = Corrupter::new(cfg.clone()) else {
                return Ok(()); // an invalid config never reaches a file
            };
            let pristine = oracle_file(dtype, seed, aux_f64);
            let mut fast = pristine.clone();
            let mut oracle = pristine.clone();
            let got = corrupter.corrupt_with_log(&mut fast);
            let want = path_oracle::corrupt_with_log(&cfg, &mut oracle);
            match (&got, &want) {
                (Ok((gr, gl)), Ok((wr, wl))) => {
                    proptest::prop_assert_eq!(format!("{gr:?}"), format!("{wr:?}"));
                    proptest::prop_assert_eq!(gl, wl);
                }
                (Err(g), Err(w)) => {
                    proptest::prop_assert_eq!(g, w);
                    if matches!(g, CorruptError::PrecisionMismatch { .. }) {
                        proptest::prop_assert_eq!(fast.to_bytes(), pristine.to_bytes());
                    }
                }
                _ => proptest::prop_assert!(false, "{got:?} vs {want:?}"),
            }
            proptest::prop_assert_eq!(fast.to_bytes(), oracle.to_bytes());
        }
    }

    #[test]
    fn the_oracle_properties_reach_every_outcome() {
        // The property above is only as strong as the cases it sees: each
        // error kind and a successful run must be reachable from its
        // inputs. One hand-picked config per outcome.
        let run = |cfg: CorrupterConfig, dtype| {
            Corrupter::new(cfg)
                .unwrap()
                .corrupt(&mut oracle_file(dtype, 3, true))
                .map(|r| r.injections)
        };
        let mut cfg = CorrupterConfig::bit_flips(50, Precision::Fp16, 1);
        cfg.locations = LocationSelection::Listed(vec!["model".into(), "meta/epoch".into()]);
        assert_eq!(run(cfg.clone(), Dtype::F16), Ok(50));
        cfg.locations = LocationSelection::AllRandom;
        assert!(matches!(
            run(cfg.clone(), Dtype::F16),
            Err(CorruptError::PrecisionMismatch { .. })
        ));
        cfg.locations = LocationSelection::Listed(vec!["model/ghost".into()]);
        assert!(matches!(run(cfg.clone(), Dtype::F16), Err(CorruptError::LocationNotFound(_))));
        cfg.locations = LocationSelection::Listed(vec!["model/empty".into()]);
        assert_eq!(run(cfg.clone(), Dtype::F16), Err(CorruptError::NothingToCorrupt));
        cfg.locations = LocationSelection::Listed(vec!["model/a".into()]);
        cfg.mode = CorruptionMode::ScalingFactor(1e300);
        cfg.float_precision = Precision::Fp32;
        assert!(matches!(run(cfg, Dtype::F32), Err(CorruptError::NanRetryExhausted { .. })));
    }

    #[test]
    fn integer_overflow_redraws_are_counted_in_the_report() {
        // |i64::MIN| = 2^63 occupies the full 64-bit magnitude: flipping any
        // bit but 63 overflows (corrupt_int returns None) and must be
        // redrawn. Those redraws are accounted in `report.nan_redraws`
        // exactly like the float path's NaN redraws.
        let mut f = H5File::new();
        f.create_dataset("meta/step", Dataset::from_i64(&[i64::MIN], &[1], Dtype::I64).unwrap())
            .unwrap();
        let c = Corrupter::new(CorrupterConfig::bit_flips(1, Precision::Fp64, 3)).unwrap();
        let report = c.corrupt(&mut f).unwrap();
        assert_eq!(report.injections, 1);
        assert!(
            report.nan_redraws > 0,
            "seed 3 must draw at least one overflowing bit before bit 63"
        );
        // The only survivable flip zeroes the magnitude.
        assert_eq!(f.dataset("meta/step").unwrap().get_i64(0).unwrap(), 0);
    }
}
