//! What a run reports: the metric catalogue of `BENCHMARK.json`, the
//! per-run record, the result line, and the scratch directory a run works
//! in.

use crate::measure::{Better, HostFacts};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark definition at the repository root, compiled in so the
/// binary and its catalogue cannot drift apart.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named workload of the catalogue.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name, as passed to `--workload`.
    pub name: String,
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit the value is reported in.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// The improvement direction.
    pub fn direction(&self) -> Better {
        Better::parse(&self.better).expect("catalogue directions are lower|higher")
    }
}

/// The parsed catalogue.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Seconds one run measures by default.
    pub run_seconds: u64,
    /// Workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a user of the system sees, each with a regression bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers, produced by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in catalogue.
    pub fn load() -> Spec {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// The metrics a run in the given mode must report.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Everything one run measured, as written by `--out` and read back by
/// `compare`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Whether this was a smoke-scale run.
    pub smoke: bool,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (trials or requests).
    pub attempted: u64,
    /// Operations that failed, or whose answer was missing, duplicated
    /// or wrong.
    pub failed: u64,
    /// Digest over the run's outcomes; equal across traced and untraced
    /// runs of one workload and seed.
    pub digest: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// What each headline number was read from (sample counts,
    /// percentiles), and any gate that failed.
    pub notes: Vec<String>,
    /// Where the run happened.
    pub host: HostFacts,
}

/// The correctness gates of one run and what it noted along the way.
#[derive(Debug, Default)]
pub struct Gates {
    notes: Vec<String>,
    failed: bool,
}

impl Gates {
    /// Record a gate; a failing one is noted as `FAILED: <what>`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed = true;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Note what a headline number was read from.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// `(every gate passed, notes)`.
    pub fn finish(self) -> (bool, Vec<String>) {
        (!self.failed, self.notes)
    }
}

/// Metric names produced only by the serving workloads; the campaign
/// workloads produce every other per-layer metric except the `host.` and
/// `trace.` ones, which every traced run produces.
pub fn is_serving_metric(name: &str) -> bool {
    ["serve.", "fault.", "gen."].iter().any(|p| name.starts_with(p))
}

fn is_shared_metric(name: &str) -> bool {
    name.starts_with("host.") || name.starts_with("trace.")
}

impl RunRecord {
    /// In a traced run, report 0 for each per-layer metric of the other
    /// workload family: those layers did no work in this run.
    pub fn zero_other_family(&mut self, spec: &Spec, serving: bool) {
        for m in &spec.per_layer {
            if !is_shared_metric(&m.name) && is_serving_metric(&m.name) != serving {
                self.metrics.entry(m.name.clone()).or_insert(0.0);
            }
        }
    }

    /// Check that the record reports exactly the catalogue's metrics for
    /// its mode, each as a finite number.
    pub fn check_catalogue(&self, spec: &Spec) -> Result<(), String> {
        let want: Vec<&str> = spec.metrics(self.trace).iter().map(|m| m.name.as_str()).collect();
        let missing: Vec<&str> =
            want.iter().copied().filter(|n| !self.metrics.contains_key(*n)).collect();
        let extra: Vec<&String> =
            self.metrics.keys().filter(|k| !want.contains(&k.as_str())).collect();
        let bad: Vec<&String> =
            self.metrics.iter().filter(|(_, v)| !v.is_finite()).map(|(k, _)| k).collect();
        if missing.is_empty() && extra.is_empty() && bad.is_empty() {
            Ok(())
        } else {
            Err(format!("metrics missing {missing:?}, unexpected {extra:?}, non-finite {bad:?}"))
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its catalogue unit.
    pub fn result_line(&self, spec: &Spec) -> String {
        let metrics: Vec<String> = spec
            .metrics(self.trace)
            .iter()
            .filter_map(|m| {
                let v = self.metrics.get(&m.name)?;
                Some(format!(
                    "{:?}:{{\"value\":{},\"unit\":{:?}}}",
                    m.name,
                    json_number(*v),
                    m.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite f64 as a JSON number with every digit of its shortest
/// round-trip form (`Debug` always prints a fraction or an exponent).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// The directory a run works in: fresh, under `<root>/.bench_runs`, and
/// removed (with the working directory restored to `root`) when dropped.
pub struct RunDir {
    root: PathBuf,
    path: PathBuf,
}

impl RunDir {
    /// Create a fresh run directory for `workload` under `root`.
    pub fn create(root: &Path, workload: &str, seed: u64) -> Result<RunDir, String> {
        let path = root.join(".bench_runs").join(format!(
            "{workload}-s{seed}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir { root: root.to_path_buf(), path })
    }

    /// A fresh subdirectory of the run directory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// A fresh subdirectory, made the working directory: the campaign
    /// runner's pretraining cache is relative to it, so each set-up
    /// starts cold.
    pub fn enter_fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.fresh(name)?;
        std::env::set_current_dir(&dir).map_err(|e| format!("entering {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.root);
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave `.bench_runs` itself only if another run still uses it.
        let _ = std::fs::remove_dir(self.root.join(".bench_runs"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses_and_names_are_unique() {
        let spec = Spec::load();
        assert!(spec.workloads.len() >= 2);
        let mut names: Vec<&str> =
            spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            m.direction();
        }
    }

    fn record(spec: &Spec, trace: bool) -> RunRecord {
        RunRecord {
            workload: "w".into(),
            seed: 1,
            seconds: 1.0,
            trace,
            smoke: true,
            correct: true,
            attempted: 3,
            failed: 0,
            digest: "d".into(),
            metrics: spec.metrics(trace).iter().map(|m| (m.name.clone(), 1.25)).collect(),
            notes: Vec::new(),
            host: crate::measure::host_facts(Path::new(".")),
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let spec = Spec::load();
        let rec = record(&spec, false);
        assert!(rec.check_catalogue(&spec).is_ok());
        let line = rec.result_line(&spec);
        let parsed: serde::Content = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = parsed.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
    }

    #[test]
    fn catalogue_check_names_missing_extra_and_non_finite() {
        let spec = Spec::load();
        let mut rec = record(&spec, true);
        let first = spec.per_layer[0].name.clone();
        rec.metrics.remove(&first);
        rec.metrics.insert("bogus".into(), 1.0);
        rec.metrics.insert(spec.per_layer[1].name.clone(), f64::NAN);
        let err = rec.check_catalogue(&spec).unwrap_err();
        assert!(
            err.contains(&first) && err.contains("bogus") && err.contains(&spec.per_layer[1].name)
        );
    }

    #[test]
    fn other_family_is_zero_filled_only_for_that_family() {
        let spec = Spec::load();
        let mut rec = record(&spec, true);
        rec.metrics.clear();
        rec.zero_other_family(&spec, false);
        assert!(rec.metrics.keys().all(|k| is_serving_metric(k)));
        assert!(rec.metrics.values().all(|&v| v == 0.0));
        assert!(!rec.metrics.is_empty());
    }

    #[test]
    fn gates_fail_once_and_keep_notes_in_order() {
        let mut g = Gates::default();
        g.check(true, || unreachable!("a passing gate is not described"));
        g.note("read from block 3".into());
        g.check(false, || "7 answers missing".into());
        assert_eq!(
            g.finish(),
            (false, vec!["read from block 3".into(), "FAILED: 7 answers missing".into()])
        );
        assert_eq!(Gates::default().finish(), (true, vec![]));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e20), "1e20");
        assert_eq!(json_number(2.5e-7), "2.5e-7");
    }
}
