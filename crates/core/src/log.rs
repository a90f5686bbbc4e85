//! Equivalent injection: save, remap, and replay bit-flip sequences
//! (Section IV-C of the paper).
//!
//! A log records, for each injection in order, the checkpoint location,
//! the exact action (bit position / mask placement / scale factor), and —
//! informationally — the entry index that was hit. Replaying against a
//! different framework's checkpoint remaps the location string and applies
//! the same actions in the same order; the *entry index is redrawn* inside
//! the remapped location, because "each framework saves the weights of the
//! network differently … saving the dataset and the index for each bit-flip
//! is not very useful because it cannot be mapped to a different
//! framework". That is what makes the injection *equivalent* rather than
//! *equal*.

use crate::corrupter::{apply_step, Action};
use crate::error::CorruptError;
use crate::report::{InjectionRecord, InjectionReport, ValueChange};
use sefi_hdf5::H5File;
use sefi_rng::DetRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;

/// One logged injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Order within the run.
    pub order: u64,
    /// Checkpoint location (dataset path) that was corrupted.
    pub location: String,
    /// The action taken.
    pub change: ValueChange,
    /// The entry index hit in the *original* file. Informational only;
    /// replay redraws it (see module docs).
    pub entry_index: usize,
}

impl LogRecord {
    /// Build from a report record.
    pub fn from_record(r: &InjectionRecord) -> Self {
        LogRecord {
            order: r.order,
            location: r.location.clone(),
            change: r.change,
            entry_index: r.entry_index,
        }
    }
}

/// A saved injection sequence — the `.json` artifact of the original tool.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InjectionLog {
    records: Vec<LogRecord>,
}

impl InjectionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn push(&mut self, r: LogRecord) {
        self.records.push(r);
    }

    /// The records in injection order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of injections logged ("the number of weights that are
    /// modified").
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize to JSON (human-diffable, like the paper's artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("log is always serializable")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, CorruptError> {
        serde_json::from_str(json).map_err(|e| CorruptError::Log(e.to_string()))
    }

    /// Write JSON to disk.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CorruptError> {
        std::fs::write(path, self.to_json()).map_err(|e| CorruptError::Io(e.to_string()))
    }

    /// Read JSON from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CorruptError> {
        let s = std::fs::read_to_string(path).map_err(|e| CorruptError::Io(e.to_string()))?;
        Self::from_json(&s)
    }

    /// Rewrite location strings — "changing the location string in the
    /// .json" to point at framework B's equivalent paths. Locations not in
    /// the map are kept (so logs within one framework replay unchanged).
    ///
    /// Keys may be full dataset paths or prefixes; the longest matching
    /// prefix wins. A prefix only matches at a path-segment boundary.
    pub fn remap_locations(&self, map: &HashMap<String, String>) -> InjectionLog {
        let mut keys: Vec<&String> = map.keys().collect();
        keys.sort_by_key(|k| std::cmp::Reverse(k.len()));
        let remap_one = |loc: &str| -> String {
            for key in &keys {
                if loc == key.as_str() {
                    return map[*key].clone();
                }
                if let Some(rest) = loc.strip_prefix(key.as_str()) {
                    if let Some(tail) = rest.strip_prefix('/') {
                        return format!("{}/{}", map[*key], tail);
                    }
                }
            }
            loc.to_string()
        };
        InjectionLog {
            records: self
                .records
                .iter()
                .map(|r| LogRecord { location: remap_one(&r.location), ..r.clone() })
                .collect(),
        }
    }

    /// Replay the logged sequence against a checkpoint: same number of
    /// injections, same order, same bit positions / mask placements /
    /// factors, at the (possibly remapped) locations. Entry indices are
    /// redrawn deterministically from `seed`.
    ///
    /// Each injection goes through the corrupter's own per-entry step, so
    /// an integer target (an epoch counter hit by a full-range run) takes
    /// the logged bit as a `bin()` flip of its magnitude; a logged bit at
    /// or beyond the target's width is an error, as is a scale factor
    /// aimed at an integer.
    ///
    /// If a logged location names a group in the target file, a dataset
    /// beneath it is drawn at random — this is what lets a Chainer layer
    /// group map onto a TensorFlow layer group even though their inner
    /// dataset names differ.
    pub fn replay(&self, file: &mut H5File, seed: u64) -> Result<InjectionReport, CorruptError> {
        let mut rng = DetRng::new(seed).substream("replay");
        let mut report =
            InjectionReport { attempts: self.records.len() as u64, ..Default::default() };
        for rec in &self.records {
            let candidates = file
                .datasets_under(&rec.location)
                .map_err(|_| CorruptError::LocationNotFound(rec.location.clone()))?;
            let candidates: Vec<String> = candidates
                .into_iter()
                .filter(|p| file.dataset(p).map(|d| !d.is_empty()).unwrap_or(false))
                .collect();
            if candidates.is_empty() {
                return Err(CorruptError::NothingToCorrupt);
            }
            let location = rng.choose(&candidates).clone();
            let ds = file.dataset_mut(&location)?;
            let entry_index = rng.index(ds.len());
            let action = match rec.change {
                ValueChange::BitFlip { bit } => Action::Flip(bit),
                // The aligned XOR pattern cannot be reconstructed from the
                // ones-count alone; logs of mask runs store offset and
                // population for analysis, and replay refuses rather than
                // guessing a different mask.
                ValueChange::MaskApplied { .. } => {
                    return Err(CorruptError::Log(
                        "bit-mask runs are replayed by re-running the corrupter with the same \
                         mask and seed, not via log replay"
                            .to_string(),
                    ));
                }
                ValueChange::Scaled { factor } => Action::Scale(factor),
            };
            // The corrupter's own step: float targets at their precision,
            // integer targets (epoch counters) with its bin() flip.
            let (old_value, new_value) = apply_step(ds, entry_index, action, false)
                .map_err(|e| match e {
                    CorruptError::Log(m) => {
                        CorruptError::Log(format!("replay target {location:?}: {m}"))
                    }
                    other => other,
                })?
                .ok_or_else(|| {
                    CorruptError::Log(format!(
                        "replaying {:?} on {location:?}[{entry_index}] overflows its integer \
                         magnitude",
                        rec.change
                    ))
                })?;
            report.records.push(InjectionRecord {
                order: report.injections,
                location,
                entry_index,
                change: rec.change,
                old_value,
                new_value,
            });
            report.injections += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CorrupterConfig, LocationSelection};
    use crate::corrupter::Corrupter;
    use sefi_float::Precision;
    use sefi_hdf5::{Dataset, Dtype};

    fn file_with_layout(root: &str) -> H5File {
        let mut f = H5File::new();
        let values: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 16.0).collect();
        f.create_dataset(
            &format!("{root}/conv1/W"),
            Dataset::from_f32(&values, &[64], Dtype::F64).unwrap(),
        )
        .unwrap();
        f.create_dataset(
            &format!("{root}/conv1/b"),
            Dataset::from_f32(&[0.1; 8], &[8], Dtype::F64).unwrap(),
        )
        .unwrap();
        f
    }

    fn logged_run(seed: u64) -> (H5File, InjectionLog) {
        let mut f = file_with_layout("predictor");
        let mut cfg = CorrupterConfig::bit_flips(12, Precision::Fp64, seed);
        cfg.locations = LocationSelection::Listed(vec!["predictor/conv1".to_string()]);
        let c = Corrupter::new(cfg).unwrap();
        let (_, log) = c.corrupt_with_log(&mut f).unwrap();
        (f, log)
    }

    #[test]
    fn log_json_roundtrip() {
        let (_, log) = logged_run(1);
        assert_eq!(log.len(), 12);
        let back = InjectionLog::from_json(&log.to_json()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(InjectionLog::from_json("not json").is_err());
        assert!(InjectionLog::from_json("{\"records\": 5}").is_err());
    }

    #[test]
    fn remap_rewrites_prefixes_at_segment_boundaries() {
        let (_, log) = logged_run(2);
        let mut map = HashMap::new();
        map.insert("predictor/conv1".to_string(), "model_weights/conv1".to_string());
        let remapped = log.remap_locations(&map);
        for r in remapped.records() {
            assert!(r.location.starts_with("model_weights/conv1/"), "{}", r.location);
        }
        // Non-boundary prefixes must not match.
        let mut log2 = InjectionLog::new();
        log2.push(LogRecord {
            order: 0,
            location: "predictor/conv10/W".to_string(),
            change: ValueChange::BitFlip { bit: 1 },
            entry_index: 0,
        });
        let remapped2 = log2.remap_locations(&map);
        assert_eq!(remapped2.records()[0].location, "predictor/conv10/W");
    }

    #[test]
    fn replay_applies_same_bits_same_order_at_equivalent_location() {
        let (_, log) = logged_run(3);
        let mut map = HashMap::new();
        map.insert("predictor".to_string(), "model_weights".to_string());
        let remapped = log.remap_locations(&map);

        let mut target = file_with_layout("model_weights");
        let report = remapped.replay(&mut target, 99).unwrap();
        assert_eq!(report.injections as usize, log.len());
        for (orig, replayed) in log.records().iter().zip(&report.records) {
            assert_eq!(orig.change, replayed.change, "same bit position, same order");
            assert!(replayed.location.starts_with("model_weights/conv1"));
        }
    }

    #[test]
    fn replay_is_deterministic_in_its_seed() {
        let (_, log) = logged_run(4);
        let run = |seed| {
            let mut t = file_with_layout("predictor");
            log.replay(&mut t, seed).unwrap();
            t.to_bytes()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn replay_group_location_draws_inner_dataset() {
        let mut log = InjectionLog::new();
        for i in 0..6 {
            log.push(LogRecord {
                order: i,
                location: "predictor/conv1".to_string(), // a group
                change: ValueChange::BitFlip { bit: 2 },
                entry_index: 0,
            });
        }
        let mut f = file_with_layout("predictor");
        let report = log.replay(&mut f, 0).unwrap();
        assert_eq!(report.injections, 6);
        for r in &report.records {
            assert!(r.location == "predictor/conv1/W" || r.location == "predictor/conv1/b");
        }
    }

    #[test]
    fn replay_missing_location_errors() {
        let (_, log) = logged_run(5);
        let mut wrong = file_with_layout("model_weights");
        assert!(matches!(log.replay(&mut wrong, 0), Err(CorruptError::LocationNotFound(_))));
    }

    #[test]
    fn replay_rejects_oversized_bit_for_precision() {
        let mut log = InjectionLog::new();
        log.push(LogRecord {
            order: 0,
            location: "g/w".to_string(),
            change: ValueChange::BitFlip { bit: 40 },
            entry_index: 0,
        });
        let mut f = H5File::new();
        f.create_dataset("g/w", Dataset::from_f32(&[1.0; 4], &[4], Dtype::F16).unwrap()).unwrap();
        assert!(matches!(log.replay(&mut f, 0), Err(CorruptError::Log(_))));
    }

    #[test]
    fn save_and_load_from_disk() {
        let (_, log) = logged_run(6);
        let dir = crate::testutil::TestDir::new("log");
        let p = dir.file("inj.json");
        log.save(&p).unwrap();
        assert_eq!(InjectionLog::load(&p).unwrap(), log);
    }
}
